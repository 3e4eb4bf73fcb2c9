import math

import numpy as np
import pytest

from epitransit.engine import EpidemicParams
from epitransit.mobility import matrix_from_flows
from epitransit.theory import (
    PairInvasion,
    invasion_probability,
    invasion_ranking,
    transmission_probability,
    write_ranking_csv,
)


class TestTransmissionProbability:
    def test_no_flow(self):
        assert transmission_probability(0.5, 0.5, 0.0, 100.0, 100.0) == 0.0

    def test_saturation(self):
        assert transmission_probability(1e9, 0.5, 1.0, 1.0, 1.0) == pytest.approx(1.0)

    def test_zero_source_population_rejected(self):
        with pytest.raises(ValueError):
            transmission_probability(0.5, 0.5, 1.0, 0.0, 1.0)

    def test_small_flow_matches_series_expansion(self):
        # R0 = 1.5, m = 1e-3, n_j/n_i = 1: 1 - exp(-1.5e-3)
        p = transmission_probability(0.75, 0.5, 1e-3, 50.0, 50.0)
        assert p == pytest.approx(1.4989e-3, rel=1e-3)
        linear = 1.5 * 1e-3
        assert abs(p - linear) / linear < 1e-3

    def test_variants_differ_as_written(self):
        beta, gamma, m, n_i, n_j = 0.6, 0.3, 0.01, 20.0, 10.0
        default = transmission_probability(beta, gamma, m, n_i, n_j)
        printed = transmission_probability(beta, gamma, m, n_i, n_j, variant="as_printed")
        assert default == pytest.approx(-math.expm1(-(beta / gamma) * m * n_j / n_i))
        assert printed == pytest.approx(-math.expm1(-beta * gamma * m * n_j / n_i))


def relative_gap(pair):
    """|p_invade - linear| / linear, and 0 where the linear term is 0."""
    if pair.linear_approx == 0.0:
        return 0.0
    return abs(pair.p_invade - pair.linear_approx) / pair.linear_approx


class TestInvasionProbability:
    def test_no_flow(self):
        pair = invasion_probability(0.5, 0.5, 0.0, 100.0)
        assert pair.p_invade == 0.0
        assert pair.linear_approx == 0.0
        assert relative_gap(pair) == 0.0

    def test_linear_regime_error_below_one_percent(self):
        # whenever the linear term is below 0.02 the exponential remainder
        # keeps the relative gap under 1%
        rng = np.random.default_rng(0)
        for _ in range(200):
            beta = rng.uniform(0.1, 15.0)
            gamma = rng.uniform(0.2, 1.0)
            n_j = rng.uniform(0.5, 100.0)
            target = rng.uniform(1e-6, 0.02)
            m = target / ((beta / gamma) * n_j)
            pair = invasion_probability(beta, gamma, m, n_j)
            assert pair.linear_approx <= 0.02 + 1e-12
            assert relative_gap(pair) < 0.01

    def test_remainder_bound(self):
        # |p - linear| <= linear^2 / 2 (second-order remainder)
        for linear in np.linspace(1e-4, 1.0, 50):
            pair = invasion_probability(1.0, 0.5, linear / 2.0, 1.0)
            assert abs(pair.p_invade - pair.linear_approx) <= pair.linear_approx**2 / 2 + 1e-15

    def test_monotone_in_each_argument(self):
        base = invasion_probability(0.5, 0.5, 0.1, 10.0).p_invade
        assert invasion_probability(0.6, 0.5, 0.1, 10.0).p_invade > base
        assert invasion_probability(0.5, 0.4, 0.1, 10.0).p_invade > base  # higher R0
        assert invasion_probability(0.5, 0.5, 0.2, 10.0).p_invade > base
        assert invasion_probability(0.5, 0.5, 0.1, 20.0).p_invade > base

    def test_optional_transmission_fill(self):
        pair = invasion_probability(0.5, 0.5, 0.1, 10.0, n_i=5.0)
        assert pair.p_transmit == pytest.approx(
            transmission_probability(0.5, 0.5, 0.1, 5.0, 10.0)
        )
        assert invasion_probability(0.5, 0.5, 0.1, 10.0).p_transmit is None


class TestInvasionRanking:
    def test_flow_order(self):
        # two destinations with flows 10 and 1, same population
        m = np.zeros((3, 3))
        m[1, 0] = 10.0
        m[2, 0] = 1.0
        matrix = matrix_from_flows(m, populations=np.array([50.0, 20.0, 20.0]))
        params = EpidemicParams(beta=0.5, gamma=0.5)
        ranked = invasion_ranking(matrix, 0, params)
        assert [loc for loc, _ in ranked] == ["L0001", "L0002"]
        assert ranked[0][1] > ranked[1][1]

    def test_hand_evaluated_fixture(self):
        # 5-location fixture against a hand-coded table of Eq.-8 values
        rng = np.random.default_rng(12)
        flows = rng.uniform(0, 5, (5, 5))
        pops = rng.uniform(1, 50, 5)
        matrix = matrix_from_flows(flows, populations=pops)
        beta, gamma = 0.8, 0.4
        params = EpidemicParams(beta=beta, gamma=gamma)
        ranked = dict(invasion_ranking(matrix, 2, params))
        for j in range(5):
            if j == 2:
                continue
            expected = 1.0 - math.exp(-(beta / gamma) * flows[j, 2] * pops[j])
            assert ranked[matrix.table.ids[j]] == pytest.approx(expected, abs=1e-12)

    def test_transit_dominance(self, small_city):
        from epitransit.transit import GammaTripModel, calibrate, sample_transit_matrix

        model = calibrate(GammaTripModel(k=3, theta=5, mu=0.35), small_city)
        sub = sample_transit_matrix(small_city, model, 21)
        params = EpidemicParams(beta=0.5, gamma=1 / 3)
        source = int(np.argmax(small_city.populations))
        full = dict(invasion_ranking(small_city, source, params))
        thinned = dict(invasion_ranking(sub, source, params))
        assert all(thinned[loc] <= full[loc] + 1e-15 for loc in full)

    def test_csv_export(self, small_city, tmp_path):
        from epitransit.transit import GammaTripModel, calibrate, sample_transit_matrix

        model = calibrate(GammaTripModel(k=3, theta=5, mu=0.35), small_city)
        sub = sample_transit_matrix(small_city, model, 21)
        params = EpidemicParams(beta=0.5, gamma=1 / 3)
        path = tmp_path / "ranking.csv"
        write_ranking_csv(small_city, sub, 0, params, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "source_id,dest_id,theta,theta_transit,ratio"
        assert len(lines) == small_city.n  # header + n-1 destinations
