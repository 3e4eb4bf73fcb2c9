import numpy as np
import pytest

from epitransit.mobility import POPULATION_FLOOR, build_contact_matrix, load_trips, write_city_csvs
from epitransit.synthcity import CityConfig, generate_synthetic_city
from epitransit.transit import distance_histogram


class TestGeneration:
    def test_two_locations_symmetric_expected_flows(self):
        # the gravity kernel is symmetric, so realized flows agree in the mean
        config = CityConfig(n_locations=2, extent_km=30.0, trips_per_capita=2.0)
        ab, ba = [], []
        for seed in range(300):
            _, matrix = generate_synthetic_city(config, seed)
            ab.append(matrix.m[1, 0])
            ba.append(matrix.m[0, 1])
        mean_ab, mean_ba = np.mean(ab), np.mean(ba)
        pooled_se = np.sqrt((np.var(ab) + np.var(ba)) / 300)
        assert abs(mean_ab - mean_ba) <= 4 * pooled_se

    def test_deterministic_under_seed(self):
        config = CityConfig(n_locations=40)
        _, a = generate_synthetic_city(config, 5)
        _, b = generate_synthetic_city(config, 5)
        assert np.array_equal(a.m, b.m)
        assert np.array_equal(a.populations, b.populations)
        _, c = generate_synthetic_city(config, 6)
        assert not np.array_equal(a.m, c.m)

    def test_doubling_decay_length_increases_mean_trip_distance(self):
        short = CityConfig(n_locations=80, extent_km=80.0, d0_km=8.0)
        long = CityConfig(n_locations=80, extent_km=80.0, d0_km=16.0)
        _, a = generate_synthetic_city(short, 9)
        _, b = generate_synthetic_city(long, 9)

        def mean_trip_km(matrix):
            off = ~np.eye(matrix.n, dtype=bool)
            w = matrix.m[off]
            return float((w * matrix.distance_matrix[off]).sum() / w.sum())

        assert mean_trip_km(b) > mean_trip_km(a)

    def test_p95_stable_across_seeds(self):
        config = CityConfig(n_locations=200, extent_km=100.0, trips_per_capita=0.5)
        p95s = [distance_histogram(generate_synthetic_city(config, s)[1])["p95_km"] for s in range(10)]
        assert all(np.isfinite(p95s))
        spread = (max(p95s) - min(p95s)) / np.mean(p95s)
        assert spread <= 0.10

    def test_populations_recovered_from_flow_balance(self):
        # the diagonal is sized so the daily balance formula lands on the
        # drawn populations, up to the integer rounding of one day's trips
        config = CityConfig(n_locations=60, pop_median=400.0)
        rng = np.random.default_rng(31)
        _, matrix = generate_synthetic_city(config, 31)
        assert np.all(matrix.populations >= POPULATION_FLOOR)
        raw = (np.diagonal(matrix.m) + matrix.m.sum(axis=1) - matrix.m.sum(axis=0)) / 24.0
        unclamped = raw >= POPULATION_FLOOR
        assert np.all(np.abs(raw[unclamped] - np.rint(raw[unclamped] * 24) / 24) < 1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            CityConfig(n_locations=1)
        with pytest.raises(ValueError):
            CityConfig(extent_km=0.0)


class TestCsvRoundTrip:
    def test_written_city_rebuilds_identically(self, tmp_path):
        config = CityConfig(n_locations=25, trips_per_capita=0.8)
        table, matrix = generate_synthetic_city(config, 77)
        loc_path, trip_path = tmp_path / "locations.csv", tmp_path / "trips.csv"
        write_city_csvs(table, matrix, loc_path, trip_path)
        table2, trips = load_trips(trip_path, loc_path)
        rebuilt = build_contact_matrix(table2, trips)
        assert table2.ids == table.ids
        assert np.array_equal(rebuilt.m, matrix.m)
        assert np.array_equal(rebuilt.populations, matrix.populations)
