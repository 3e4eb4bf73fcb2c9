import numpy as np
import pytest
from hypothesis import settings

from epitransit.mobility import LocationTable, matrix_from_flows
from epitransit.synthcity import CityConfig, generate_synthetic_city

# Deterministic property tests: the same examples on every run, no example
# database, and no per-example deadline on a loaded host.
settings.register_profile("epitransit", derandomize=True, database=None, deadline=None, max_examples=60)
# The same with five times the examples, for a longer run of the property
# tests: pytest --hypothesis-profile=ci
settings.register_profile("ci", parent=settings.get_profile("epitransit"), max_examples=300)
settings.load_profile("epitransit")


@pytest.fixture
def square_table():
    """Four locations on a rough 100 km square."""
    return LocationTable(["A", "B", "C", "D"], [0.0, 0.0, 1.0, 1.0], [0.0, 1.0, 0.0, 1.0])


@pytest.fixture
def write_csvs(tmp_path):
    def _write(locations_rows, trips_rows):
        loc_path = tmp_path / "locations.csv"
        trip_path = tmp_path / "trips.csv"
        loc_path.write_text("id,lat,lon\n" + "\n".join(locations_rows) + "\n")
        trip_path.write_text("origin,destination,hour,count\n" + "\n".join(trips_rows) + "\n")
        return trip_path, loc_path

    return _write


@pytest.fixture(scope="session")
def small_city():
    """A 60-location city shared by the slower integration tests."""
    config = CityConfig(
        n_locations=60, extent_km=100.0, pop_median=800.0, pop_sigma=0.8,
        trips_per_capita=0.5, d0_km=20.0,
    )
    table, matrix = generate_synthetic_city(config, 2024)
    return matrix


def two_location_matrix(flow_ab=5.0, flow_ba=5.0, n_a=100.0, n_b=100.0):
    """Matrix helper: index 0 = A, 1 = B, m[dest, origin]."""
    m = np.array([[0.0, flow_ba], [flow_ab, 0.0]])
    return matrix_from_flows(m, populations=np.array([n_a, n_b]))


def day_states(series, params, matrix):
    """(days, 3, n): S, I and R of every location on every day of a run,
    read from its course table by the run's onsets."""
    onset = np.where(series.onset_days < 0, len(series), series.onset_days)
    rows = np.maximum(np.arange(len(series))[:, None] + 1 - onset, 0)
    return params.course(matrix.populations).block[rows, :, np.arange(matrix.n)].transpose(0, 2, 1)
