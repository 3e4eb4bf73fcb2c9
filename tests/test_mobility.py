import math

import numpy as np
import pytest

from epitransit.mobility import (
    EARTH_RADIUS_KM,
    POPULATION_FLOOR,
    ContactMatrix,
    Location,
    LocationTable,
    TripRecord,
    ValidationError,
    build_contact_matrix,
    degree_histogram,
    derive_populations,
    haversine_km,
    load_matrix_npz,
    load_trips,
    matrix_from_flows,
    network_stats,
    save_matrix_npz,
    trip_distance,
    write_network_stats,
)


class TestLocation:
    def test_bounds(self):
        Location("x", 90.0, -180.0)
        with pytest.raises(ValidationError):
            Location("x", 90.5, 0.0)
        with pytest.raises(ValidationError):
            Location("x", 0.0, 180.5)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            LocationTable([Location("a", 0, 0), Location("a", 1, 1)])


class TestLoadTrips:
    def test_minimal_well_formed(self, write_csvs):
        trips_path, locs_path = write_csvs(["A,0.0,0.0", "B,0.0,1.0"], ["A,B,9,3"])
        table, trips = load_trips(trips_path, locs_path)
        assert len(table) == 2
        assert trips == [TripRecord("A", "B", 9, 3)]

    def test_hour_out_of_bounds_names_row(self, write_csvs):
        trips_path, locs_path = write_csvs(["A,0,0", "B,0,1"], ["A,B,24,3"])
        with pytest.raises(ValidationError, match="row 2.*hour 24"):
            load_trips(trips_path, locs_path)

    def test_duplicates_merged(self, write_csvs):
        # 10 rows, one duplicated (A,B,9) pair: 9 records expected, counts summed
        rows = [
            "A,B,9,3",
            "A,B,10,1",
            "B,A,9,2",
            "A,B,9,4",  # duplicate of row 1
            "B,A,11,1",
            "A,B,12,1",
            "B,A,12,2",
            "A,B,13,5",
            "B,A,13,1",
            "A,B,14,2",
        ]
        trips_path, locs_path = write_csvs(["A,0,0", "B,0,1"], rows)
        _, trips = load_trips(trips_path, locs_path)
        assert len(trips) == 9
        merged = {(t.origin, t.destination, t.hour): t.count for t in trips}
        assert merged[("A", "B", 9)] == 7

    def test_padded_ids_stripped(self, write_csvs):
        trips_path, locs_path = write_csvs([" A ,0,0", "B,0,1"], ["  A, B ,9,3", "A,B,9,1"])
        table, trips = load_trips(trips_path, locs_path)
        assert table.ids == ["A", "B"]
        assert trips == [TripRecord("A", "B", 9, 4)]
        assert trips[0].origin is table.ids[0] and trips[0].destination is table.ids[1]

    def test_unknown_location(self, write_csvs):
        trips_path, locs_path = write_csvs(["A,0,0"], ["A,Z,9,1"])
        with pytest.raises(ValidationError, match="row 2.*'Z'"):
            load_trips(trips_path, locs_path)

    def test_non_positive_count(self, write_csvs):
        trips_path, locs_path = write_csvs(["A,0,0", "B,0,1"], ["A,B,9,0"])
        with pytest.raises(ValidationError, match="row 2.*count"):
            load_trips(trips_path, locs_path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_trips(tmp_path / "nope.csv", tmp_path / "nope2.csv")

    def test_error_report_counts_all_bad_rows(self, write_csvs):
        trips_path, locs_path = write_csvs(["A,0,0", "B,0,1"], ["A,B,24,1", "A,B,9,-1"])
        with pytest.raises(ValidationError, match="2 malformed"):
            load_trips(trips_path, locs_path)


class TestContactMatrix:
    def test_single_trip(self, square_table):
        m = build_contact_matrix(square_table, [TripRecord("A", "B", 9, 5)])
        expected = np.zeros((4, 4))
        expected[1, 0] = 5.0  # m[dest=B][origin=A]
        assert np.array_equal(m.m, expected)

    def test_hourly_aggregation(self, square_table):
        trips = [TripRecord("A", "B", 8, 2), TripRecord("A", "B", 18, 3)]
        m = build_contact_matrix(square_table, trips)
        assert m.m[1, 0] == 5.0

    def test_against_bruteforce_fixture(self, square_table):
        # 3 locations, 6 trips; oracle is a plain dict aggregation
        trips = [
            TripRecord("A", "B", 1, 2),
            TripRecord("B", "C", 2, 7),
            TripRecord("A", "B", 3, 1),
            TripRecord("C", "A", 4, 4),
            TripRecord("A", "A", 5, 3),
            TripRecord("B", "C", 6, 2),
        ]
        oracle = {}
        for t in trips:
            oracle[(t.destination, t.origin)] = oracle.get((t.destination, t.origin), 0) + t.count
        m = build_contact_matrix(square_table, trips)
        for (dest, origin), count in oracle.items():
            j, k = square_table.index[dest], square_table.index[origin]
            assert m.m[j, k] == count
        assert m.m.sum() == sum(t.count for t in trips)

    def test_immutable(self, square_table):
        m = build_contact_matrix(square_table, [TripRecord("A", "B", 9, 5)])
        with pytest.raises(ValueError):
            m.m[0, 0] = 1.0
        with pytest.raises(ValueError):
            m.populations[0] = 1.0

    def test_aggregation_linearity(self, square_table):
        rng = np.random.default_rng(5)
        ids = square_table.ids

        def random_trips(n):
            return [
                TripRecord(
                    ids[rng.integers(4)], ids[rng.integers(4)], int(rng.integers(24)),
                    int(rng.integers(1, 10)),
                )
                for _ in range(n)
            ]

        a, b = random_trips(20), random_trips(15)
        combined = build_contact_matrix(square_table, a + b)
        separate = build_contact_matrix(square_table, a).m + build_contact_matrix(square_table, b).m
        assert np.array_equal(combined.m, separate)
        assert combined.m.sum() == sum(t.count for t in a + b)

    def test_entries_scope_drops_only_a_cache_it_computed(self, square_table):
        m = build_contact_matrix(square_table, [TripRecord("A", "B", 9, 5), TripRecord("C", "D", 9, 2)])
        with m.entries_scope():
            index, distances = m.entries
            assert m.entries[0] is index
        assert "entries" not in vars(m)
        kept = m.entries
        with m.entries_scope():
            assert m.entries is kept
        assert m.entries is kept
        assert np.array_equal(m.entries[0], index) and np.array_equal(m.entries[1], distances)


class TestDerivePopulations:
    def test_isolated_self_flow(self):
        m = np.array([[24.0]])
        pops, clamps = derive_populations(m)
        assert pops[0] == 1.0
        assert clamps == 0

    def test_balance_formula(self):
        # m_jj=48, inflow 24, outflow 24 -> N = 2
        m = np.array([[48.0, 24.0], [24.0, 0.0]])
        pops, _ = derive_populations(m)
        assert pops[0] == (48.0 + 24.0 - 24.0) / 24.0 == 2.0

    def test_clamp_on_net_exporter(self):
        # location 0 exports 100, imports nothing: raw population negative
        m = np.array([[0.0, 0.0], [100.0, 24.0]])
        pops, clamps = derive_populations(m)
        assert pops[0] == POPULATION_FLOOR
        assert clamps == 1

    def test_floor_holds_on_random_matrices(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = rng.integers(0, 50, size=(8, 8)).astype(float)
            pops, _ = derive_populations(m)
            assert np.all(pops >= POPULATION_FLOOR)


class TestDistances:
    def test_zero_distance(self):
        a = Location("a", 12.0, 34.0)
        assert trip_distance(a, a) == 0.0

    def test_one_degree_longitude_at_equator(self):
        # haversine closed form: one degree of arc = R * pi / 180
        oracle = EARTH_RADIUS_KM * math.pi / 180.0
        d = trip_distance(Location("a", 0.0, 0.0), Location("b", 0.0, 1.0))
        assert d == pytest.approx(111.19, abs=0.01)
        assert d == pytest.approx(oracle, abs=1e-9)

    def test_symmetry_on_random_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a = Location("a", rng.uniform(-90, 90), rng.uniform(-180, 180))
            b = Location("b", rng.uniform(-90, 90), rng.uniform(-180, 180))
            assert trip_distance(a, b) == trip_distance(b, a)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            lat = rng.uniform(-80, 80, 3)
            lon = rng.uniform(-180, 180, 3)
            d01 = haversine_km(lat[0], lon[0], lat[1], lon[1])
            d12 = haversine_km(lat[1], lon[1], lat[2], lon[2])
            d02 = haversine_km(lat[0], lon[0], lat[2], lon[2])
            assert d02 <= d01 + d12 + 1e-9

    def test_distance_matrix_cached_and_consistent(self, square_table):
        d = square_table.distance_matrix
        assert d is square_table.distance_matrix
        assert d[0, 1] == trip_distance(square_table.locations[0], square_table.locations[1])


class TestNetworkStats:
    def test_single_trip_degrees(self, square_table):
        m = build_contact_matrix(square_table, [TripRecord("A", "B", 9, 5)])
        stats = network_stats(m)
        assert stats.degrees[square_table.index["A"]] == 5.0
        assert stats.degrees[square_table.index["B"]] == 5.0
        assert stats.num_edges == 1

    def test_self_flow_only(self):
        m = matrix_from_flows(np.array([[24.0]]))
        stats = network_stats(m)
        # in + out - self counts the self-flow once: 2*24 - 24
        assert stats.degrees[0] == 24.0
        assert stats.num_edges == 0

    def test_empty_matrix(self, square_table):
        m = build_contact_matrix(square_table, [])
        stats = network_stats(m)
        assert np.all(stats.degrees == 0.0)
        assert stats.num_edges == 0
        assert stats.mean_degree == 0.0

    def test_json_export(self, square_table, tmp_path):
        import json

        m = build_contact_matrix(square_table, [TripRecord("A", "B", 9, 5)])
        path = tmp_path / "stats.json"
        write_network_stats(network_stats(m), path)
        data = json.loads(path.read_text())
        assert set(data) == {"n", "e", "mean_degree", "degree_histogram"}
        assert data["n"] == 4
        assert data["e"] == 1

    def test_degree_histogram_bins(self):
        hist = degree_histogram(np.array([0.0, 1.0, 3.0, 5.0, 17.0]))
        assert hist[0] == [0.0, 1.0, 1]
        total = sum(count for _, _, count in hist)
        assert total == 5


class TestMatrixIO:
    def test_npz_roundtrip(self, small_city, tmp_path):
        path = tmp_path / "m.npz"
        save_matrix_npz(small_city, path)
        loaded = load_matrix_npz(path)
        assert np.array_equal(loaded.m, small_city.m)
        assert np.array_equal(loaded.populations, small_city.populations)
        assert loaded.table.ids == small_city.table.ids
