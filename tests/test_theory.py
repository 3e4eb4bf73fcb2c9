import csv
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from epitransit.engine import EpidemicParams
from epitransit.mobility import LocationTable, load_locations, matrix_from_flows
from epitransit.theory import VARIANTS, invasion_probability, write_ranking_csv

# the exponent coefficient c of each variant, computed here rather than
# read from the module, so that the linear term c * m * n is checked too
COEFFICIENTS = {"r0_consistent": lambda beta, gamma: beta / gamma, "as_printed": lambda beta, gamma: beta * gamma}


def read_ranking(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["source_id", "dest_id", "theta", "theta_transit", "ratio"]
    return rows[1:]


class TestInvasionProbability:
    def test_no_flow(self):
        assert invasion_probability(0.5, 0.5, 0.0, 100.0) == 0.0

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_linear_regime_error_below_one_percent(self, variant):
        # whenever the linear term c * m * n is below 0.02 the exponential
        # remainder keeps the relative gap under 1%
        rng = np.random.default_rng(0)
        for _ in range(200):
            beta = rng.uniform(0.1, 15.0)
            gamma = rng.uniform(0.2, 1.0)
            n_j = rng.uniform(0.5, 100.0)
            target = rng.uniform(1e-6, 0.02)
            m = target / (COEFFICIENTS[variant](beta, gamma) * n_j)
            linear = COEFFICIENTS[variant](beta, gamma) * m * n_j
            p = invasion_probability(beta, gamma, m, n_j, variant)
            assert linear <= 0.02 + 1e-12
            assert abs(p - linear) / linear < 0.01

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_remainder_bound(self, variant):
        # |p - linear| <= linear^2 / 2 (second-order remainder)
        beta, gamma = 1.0, 0.5
        for m in np.linspace(1e-4, 1.0, 50):
            linear = COEFFICIENTS[variant](beta, gamma) * m
            p = invasion_probability(beta, gamma, m, 1.0, variant)
            assert abs(p - linear) <= linear**2 / 2 + 1e-15

    def test_monotone_in_each_argument(self):
        base = invasion_probability(0.5, 0.5, 0.1, 10.0)
        assert invasion_probability(0.6, 0.5, 0.1, 10.0) > base
        assert invasion_probability(0.5, 0.4, 0.1, 10.0) > base  # higher R0
        assert invasion_probability(0.5, 0.5, 0.2, 10.0) > base
        assert invasion_probability(0.5, 0.5, 0.1, 20.0) > base

    def test_variants_differ_as_written(self):
        beta, gamma, m, n = 0.6, 0.3, 0.01, 10.0
        assert invasion_probability(beta, gamma, m, n) == pytest.approx(-math.expm1(-(beta / gamma) * m * n))
        assert invasion_probability(beta, gamma, m, n, "as_printed") == pytest.approx(-math.expm1(-beta * gamma * m * n))

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            invasion_probability(0.5, 0.5, 0.1, 10.0, "printed")

    def test_a_float_for_scalars_and_an_array_for_arrays(self):
        flows, pops = np.array([0.0, 0.01, 0.2]), np.array([5.0, 10.0, 20.0])
        thetas = invasion_probability(0.5, 0.5, flows, pops)
        assert isinstance(invasion_probability(0.5, 0.5, 0.01, 10.0), float)
        assert thetas.shape == (3,)
        for theta, m, n in zip(thetas, flows, pops):
            assert theta == pytest.approx(invasion_probability(0.5, 0.5, m, n), rel=1e-15)


@st.composite
def ranked_cities(draw, max_n=7):
    """Flows of 0 to 3 trips and populations from three values, so that
    destinations tie, by flow, by product or by saturating at 1, and some
    receive nothing from the source."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    flows = draw(hnp.arrays(np.int64, (n, n), elements=st.integers(0, 3)))
    pops = draw(hnp.arrays(float, n, elements=st.sampled_from([1.0, 2.0, 40.0])))
    return matrix_from_flows(flows, populations=pops)


@given(
    matrix=ranked_cities(),
    data=st.data(),
    beta=st.floats(0.01, 2.0),
    gamma=st.floats(0.05, 1.0),
    variant=st.sampled_from(VARIANTS),
    keep=st.floats(0.0, 1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_ranking_csv_rows(tmp_path_factory, matrix, data, beta, gamma, variant, keep, seed):
    source = data.draw(st.integers(0, matrix.n - 1))
    thinned = matrix.with_entry_counts(np.random.default_rng(seed).binomial(matrix.trip_counts, keep))
    params = EpidemicParams(beta=beta, gamma=gamma)
    path = tmp_path_factory.mktemp("ranking") / "ranking.csv"
    theta = invasion_probability(beta, gamma, matrix.m[:, source], matrix.populations, variant)
    for transit in (matrix, thinned):
        write_ranking_csv(matrix, transit, source, params, path, variant)
        rows = read_ranking(path)
        theta_t = invasion_probability(beta, gamma, transit.m[:, source], transit.populations, variant)
        dests = [matrix.table.index[row[1]] for row in rows]
        assert sorted(dests) == [j for j in range(matrix.n) if j != source]
        keys = [(-theta[j], j) for j in dests]
        assert keys == sorted(keys)  # descending theta, ties in location order
        for row, j in zip(rows, dests):
            assert row[0] == matrix.table.ids[source]
            assert row[2] == repr(float(theta[j]))
            assert row[3] == repr(float(theta_t[j]))
            assert (row[4] == "") == (theta[j] == 0.0)
            if row[4]:
                assert float(row[4]) == float(theta_t[j]) / float(theta[j])
            assert float(row[3]) <= float(row[2])  # the matrix itself, or a thinned copy of it


class TestRankingCsv:
    def test_flow_order(self, tmp_path):
        # two destinations with flows 10 and 1, same population
        m = np.zeros((3, 3))
        m[1, 0] = 10.0
        m[2, 0] = 1.0
        matrix = matrix_from_flows(m, populations=np.array([50.0, 20.0, 20.0]))
        path = tmp_path / "ranking.csv"
        write_ranking_csv(matrix, matrix, 0, EpidemicParams(beta=0.5, gamma=0.5), path)
        rows = read_ranking(path)
        assert [row[1] for row in rows] == ["L0001", "L0002"]
        assert float(rows[0][2]) > float(rows[1][2])
        assert [row[4] for row in rows] == ["1.0", "1.0"]

    def test_hand_evaluated_fixture(self, tmp_path):
        # 5-location fixture against a hand-coded table of Eq.-8 values
        rng = np.random.default_rng(12)
        flows = rng.uniform(0, 5, (5, 5))
        pops = rng.uniform(1, 50, 5)
        matrix = matrix_from_flows(flows, populations=pops)
        beta, gamma = 0.8, 0.4
        path = tmp_path / "ranking.csv"
        write_ranking_csv(matrix, matrix, 2, EpidemicParams(beta=beta, gamma=gamma), path)
        thetas = {row[1]: float(row[2]) for row in read_ranking(path)}
        assert len(thetas) == 4
        for j in (0, 1, 3, 4):
            expected = 1.0 - math.exp(-(beta / gamma) * flows[j, 2] * pops[j])
            assert thetas[matrix.table.ids[j]] == pytest.approx(expected, abs=1e-12)

    def test_transit_dominance(self, small_city, tmp_path):
        from epitransit.transit import GammaTripModel, calibrate, sample_transit_matrix

        model = calibrate(GammaTripModel(k=3, theta=5, mu=0.35), small_city)
        sub = sample_transit_matrix(small_city, model, 21)
        params = EpidemicParams(beta=0.5, gamma=1 / 3)
        source = int(np.argmax(small_city.populations))
        path = tmp_path / "ranking.csv"
        write_ranking_csv(small_city, sub, source, params, path)
        rows = read_ranking(path)
        assert len(rows) == small_city.n - 1  # one row per destination
        assert all(float(row[3]) <= float(row[2]) for row in rows)
        assert any(float(row[3]) < float(row[2]) for row in rows)

    def test_rejects_a_transit_matrix_with_other_ids(self, tmp_path):
        matrix = matrix_from_flows(np.full((3, 3), 5.0))
        other = matrix_from_flows(np.full((3, 3), 5.0), table=LocationTable(["A", "B", "C"], np.zeros(3), np.zeros(3)))
        with pytest.raises(ValueError, match="same order"):
            write_ranking_csv(matrix, other, 0, EpidemicParams(beta=0.5, gamma=0.5), tmp_path / "ranking.csv")

    def test_csv_export_quotes_ids_that_hold_a_comma_or_a_quote(self, tmp_path):
        # the locations CSV may quote an id, so an id may hold either
        locations = tmp_path / "locations.csv"
        locations.write_text('id,lat,lon\n"A,1",0,0\n"say ""hi""",0,1\nC,1,0\n')
        table = load_locations(locations)
        assert table.ids == ["A,1", 'say "hi"', "C"]
        matrix = matrix_from_flows(np.full((3, 3), 5.0), populations=np.full(3, 50.0), table=table)
        path = tmp_path / "ranking.csv"
        write_ranking_csv(matrix, matrix, 0, EpidemicParams(beta=0.5, gamma=0.5), path)
        rows = read_ranking(path)
        assert [row[:2] for row in rows] == [["A,1", 'say "hi"'], ["A,1", "C"]]
        assert all(len(row) == 5 for row in rows)

