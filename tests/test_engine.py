import math
import tracemalloc

import numpy as np
import pytest

from epitransit.engine import (
    CompartmentState,
    EpidemicParams,
    _hazard_kernel,
    advance_day,
    hazard_vector,
    introduce,
    run_simulation,
    seed_outbreak,
    sir_step,
)
from epitransit.mobility import matrix_from_flows
from epitransit.transit import GammaTripModel, calibrate, sample_transit_matrix

from conftest import two_location_matrix


class TestParams:
    def test_r0(self):
        assert EpidemicParams(beta=0.5, gamma=1 / 3).r0 == pytest.approx(1.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            EpidemicParams(beta=-1.0, gamma=0.5)
        with pytest.raises(ValueError):
            EpidemicParams(beta=1.0, gamma=0.0)
        with pytest.raises(ValueError):
            EpidemicParams(beta=1.0, gamma=1.5)
        with pytest.raises(ValueError):
            EpidemicParams(beta=1.0, gamma=0.5, hazard_variant="bogus")


def fresh_state(matrix):
    return CompartmentState.fully_susceptible(matrix.populations)


class TestHazard:
    def test_zero_when_no_infection_anywhere(self):
        m = two_location_matrix()
        params = EpidemicParams(beta=0.5, gamma=0.5)
        assert hazard_vector(fresh_state(m), m, params)[0] == 0.0

    def test_zero_when_beta_zero(self):
        m = two_location_matrix()
        state = fresh_state(m)
        state.seed(1)
        params = EpidemicParams(beta=0.0, gamma=0.5)
        assert hazard_vector(state, m, params)[0] == 0.0

    def test_saturated_limit(self):
        # direct evaluation: beta*S/(1+beta*S) with the exponential term at 1
        m = two_location_matrix(flow_ba=1e9, n_a=1001.0, n_b=100.0)
        state = fresh_state(m)
        state.I[1] = 100.0
        state.S[1] = 0.0
        state.S[0] = 1000.0
        params = EpidemicParams(beta=0.5, gamma=0.5)
        assert hazard_vector(state, m, params)[0] == pytest.approx(500.0 / 501.0, abs=1e-4)

    def test_matches_scalar_formula(self):
        rng = np.random.default_rng(8)
        for variant in ("as_printed", "no_inner_s"):
            for _ in range(50):
                n = 5
                flows = rng.uniform(0, 20, (n, n))
                pops = rng.uniform(50, 500, n)
                m = matrix_from_flows(flows, populations=pops)
                state = fresh_state(m)
                state.I = rng.uniform(0, pops / 2, n)
                state.S = pops - state.I
                j = int(rng.integers(n))
                state.I[j] = 0.0
                state.S[j] = pops[j]
                beta = rng.uniform(0.5, 15)
                params = EpidemicParams(beta=beta, gamma=0.5, hazard_variant=variant)
                x = state.I / pops
                inner = sum(flows[j, k] * x[k] for k in range(n) if k != j)
                if variant == "as_printed":
                    inner *= state.S[j]
                expected = beta * state.S[j] * (1 - math.exp(-inner)) / (1 + beta * state.S[j])
                assert hazard_vector(state, m, params)[j] == pytest.approx(expected, rel=1e-12)

    def test_bounds_under_fuzz(self):
        rng = np.random.default_rng(9)
        beta = rng.uniform(0.5, 15, 10_000)
        S = rng.uniform(0, 1e5, 10_000)
        inner = rng.uniform(0, 1e8, 10_000)
        h = _hazard_kernel(beta, S, inner)
        assert np.all((h >= 0.0) & (h <= 1.0))
        assert np.all(_hazard_kernel(beta, S, 0.0) == 0.0)


class TestSirStep:
    def test_spec_arithmetic(self):
        m = two_location_matrix(n_a=100.0, n_b=100.0)
        state = fresh_state(m)
        state.S[0], state.I[0] = 99.0, 1.0
        out = sir_step(state, EpidemicParams(beta=0.5, gamma=1 / 3))
        assert out.S[0] == pytest.approx(98.505, abs=1e-5)
        assert out.I[0] == pytest.approx(1.16167, abs=1e-5)
        assert out.R[0] == pytest.approx(0.33333, abs=1e-5)
        assert out.day == 1

    def test_burned_out_location_inert(self):
        m = two_location_matrix()
        state = fresh_state(m)
        state.I[0], state.R[0], state.S[0] = 0.0, 30.0, 70.0
        out = sir_step(state, EpidemicParams(beta=2.0, gamma=0.5))
        assert out.S[0] == 70.0 and out.I[0] == 0.0 and out.R[0] == 30.0

    def test_pure_recovery(self):
        m = two_location_matrix()
        state = fresh_state(m)
        state.S[0], state.I[0] = 95.0, 5.0
        out = sir_step(state, EpidemicParams(beta=0.0, gamma=1.0))
        assert out.S[0] == 95.0
        assert out.I[0] == 0.0
        assert out.R[0] == 5.0

    def test_overshoot_capped_conserving_mass(self):
        # beta*I/N > 1 would push S negative without the cap
        m = two_location_matrix(n_a=100.0)
        state = fresh_state(m)
        state.S[0], state.I[0] = 40.0, 60.0
        params = EpidemicParams(beta=15.0, gamma=1.0)
        out = sir_step(state, params)
        assert out.S[0] == 0.0
        assert out.I[0] >= 0.0
        assert out.S[0] + out.I[0] + out.R[0] == pytest.approx(100.0, rel=1e-12)


class TestIntroduce:
    def test_no_hazard_no_change(self):
        m = two_location_matrix()
        state = fresh_state(m)
        out = introduce(state, m, EpidemicParams(beta=0.5, gamma=0.5), np.random.default_rng(0))
        assert np.all(out.I == 0.0)
        assert out.day == 1

    def test_certain_introduction_adds_one_case(self):
        m = two_location_matrix(flow_ba=1e9, n_a=1000.0)
        state = fresh_state(m)
        state.I[1] = 100.0
        state.S[1] = 0.0
        # enormous beta drives h to 1
        params = EpidemicParams(beta=1e12, gamma=0.5)
        out = introduce(state, m, params, np.random.default_rng(0))
        assert out.I[0] == 1.0
        assert out.S[0] == m.populations[0] - 1.0
        assert out.onset_day[0] == 1

    def test_empirical_rate_matches_hazard(self):
        # state engineered so h = 1/3 * (1 - e^-ln10) = 0.3 exactly
        n_a = 1.0
        flow = 2.0 * math.log(10.0)
        m = two_location_matrix(flow_ba=flow, n_a=n_a, n_b=100.0)
        state = fresh_state(m)
        state.I[1] = 50.0
        state.S[1] = 50.0
        params = EpidemicParams(beta=0.5, gamma=0.5)
        h = hazard_vector(state, m, params)[0]
        assert h == pytest.approx(0.3, rel=1e-12)
        rng = np.random.default_rng(123)
        hits = sum(
            introduce(state.copy(), m, params, rng).I[0] == 1.0 for _ in range(10_000)
        )
        assert hits / 10_000 == pytest.approx(0.3, abs=0.015)

    def test_no_virgin_location_draws_nothing(self):
        m = two_location_matrix()
        state = fresh_state(m)
        state.seed(0)
        state.S[1], state.R[1] = 99.0, 1.0
        rng = np.random.default_rng(9)
        before = rng.bit_generator.state
        out = introduce(state, m, EpidemicParams(beta=0.5, gamma=0.5), rng)
        assert rng.bit_generator.state == before
        assert out.day == 1 and out.I[0] == 1.0 and out.I[1] == 0.0


class TestSeedOutbreak:
    def test_proportional_frequency(self):
        m = two_location_matrix(n_a=100.0, n_b=1.0)
        rng = np.random.default_rng(77)
        draws = np.array([seed_outbreak(m, "proportional", rng) for _ in range(100_000)])
        p = 100.0 / 101.0
        freq = np.mean(draws == 0)
        sigma = math.sqrt(p * (1 - p) / 100_000)
        assert abs(freq - p) <= 3 * sigma

    def test_most_populous(self):
        m = two_location_matrix(n_a=5.0, n_b=50.0)
        assert seed_outbreak(m, "most_populous", np.random.default_rng(0)) == 1

    def test_fixed(self):
        m = two_location_matrix()
        assert seed_outbreak(m, 1, np.random.default_rng(0)) == 1
        with pytest.raises(ValueError):
            seed_outbreak(m, 7, np.random.default_rng(0))
        with pytest.raises(ValueError):
            seed_outbreak(m, "nearest", np.random.default_rng(0))


def oracle_two_location(matrix, beta, gamma, horizon, threshold, seed_loc, rng_seed, variant):
    """Independent step-by-step reimplementation with plain Python floats."""
    rng = np.random.default_rng(rng_seed)
    N = [float(matrix.populations[0]), float(matrix.populations[1])]
    flows = matrix.m
    S, I, R = N[:], [0.0, 0.0], [0.0, 0.0]
    onset = [-1, -1]
    I[seed_loc] = 1.0
    S[seed_loc] = N[seed_loc] - 1.0
    onset[seed_loc] = 0
    prevalence = [(I[0] + I[1]) / (N[0] + N[1])]
    for day in range(horizon):
        if I[0] + I[1] < threshold:
            break
        x = [I[0] / N[0], I[1] / N[1]]
        newS, newI, newR = S[:], I[:], R[:]
        for j in (0, 1):
            if I[j] > 0.0:
                inf = min(beta * S[j] * I[j] / N[j], S[j])
                rec = gamma * I[j]
                newS[j] = S[j] - inf
                newI[j] = I[j] + inf - rec
                newR[j] = R[j] + rec
        u = rng.random(2)
        for j in (0, 1):
            if I[j] == 0.0 and R[j] == 0.0:
                inner = flows[j, 1 - j] * x[1 - j]
                if variant == "as_printed":
                    inner *= S[j]
                h = beta * S[j] * (-math.expm1(-inner)) / (1.0 + beta * S[j])
                h = min(1.0, max(0.0, h))
                if u[j] < h:
                    newI[j] = 1.0
                    newS[j] = N[j] - 1.0
                    onset[j] = day + 1
        S, I, R = newS, newI, newR
        prevalence.append((I[0] + I[1]) / (N[0] + N[1]))
    return np.array(prevalence), onset


class TestRunSimulation:
    def test_bad_horizon(self):
        m = two_location_matrix()
        with pytest.raises(ValueError):
            run_simulation(m, EpidemicParams(beta=0.5, gamma=0.5, horizon=0), 0, 1)

    def test_no_transmission_decays_monotonically(self):
        m = two_location_matrix(flow_ab=50.0, flow_ba=50.0)
        series = run_simulation(m, EpidemicParams(beta=0.0, gamma=1 / 3, horizon=100), 0, 1)
        assert np.all(np.diff(series.prevalence) < 0)
        assert np.count_nonzero(series.onset_days >= 0) == 1
        assert series.total_I[-1] < 1e-3

    def test_deterministic_replay(self, small_city):
        params = EpidemicParams(beta=0.5, gamma=1 / 3, horizon=150)
        a = run_simulation(small_city, params, "proportional", 31)
        b = run_simulation(small_city, params, "proportional", 31)
        assert np.array_equal(a.prevalence, b.prevalence)
        assert np.array_equal(a.onset_days, b.onset_days)
        assert a.seed_location == b.seed_location

    @pytest.mark.parametrize("variant", ["as_printed", "no_inner_s"])
    def test_two_location_oracle_exact(self, variant):
        # strong symmetric flow, R0 = 4
        m = two_location_matrix(flow_ab=30.0, flow_ba=30.0, n_a=500.0, n_b=400.0)
        params = EpidemicParams(
            beta=1.0, gamma=0.25, horizon=300, hazard_variant=variant
        )
        series = run_simulation(m, params, 0, 2024)
        oracle_prev, oracle_onset = oracle_two_location(
            m, 1.0, 0.25, 300, params.extinction_threshold, 0, 2024, variant
        )
        assert list(series.onset_days) == oracle_onset
        assert series.onset_days[1] > 0
        assert np.array_equal(series.prevalence, oracle_prev)

    def test_conservation_and_monotonicity(self, small_city):
        params = EpidemicParams(beta=1.55, gamma=0.2, horizon=120)
        rng = np.random.default_rng(5)
        state = CompartmentState.fully_susceptible(small_city.populations)
        state.seed(int(np.argmax(small_city.populations)))
        prev_R = state.R.copy()
        prev_S = state.S.copy()
        for _ in range(120):
            state = advance_day(state, small_city, params, rng)
            total = state.S + state.I + state.R
            assert np.all(np.abs(total - state.N) <= 1e-9 * state.N)
            assert np.all(state.R >= prev_R - 1e-12)
            assert np.all(state.S <= prev_S + 1e-12)
            assert np.all(state.S >= 0) and np.all(state.I >= 0)
            prev_R, prev_S = state.R.copy(), state.S.copy()

    def test_onset_fraction_nondecreasing(self, small_city):
        params = EpidemicParams(beta=1.55, gamma=0.2, horizon=150)
        series = run_simulation(small_city, params, "most_populous", 17)
        assert np.all(np.diff(series.frac_locations) >= 0)
        assert np.all((series.prevalence >= 0) & (series.prevalence <= 1))

    def test_memory_follows_the_days_simulated_not_the_horizon(self):
        # dies out after about 340 days however far the horizon lies
        m = two_location_matrix()
        params = EpidemicParams(beta=0.0, gamma=0.02, horizon=10**9)
        tracemalloc.start()
        try:
            series = run_simulation(m, params, 0, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 300 < len(series) < 400
        assert peak < 64 * 1024

    def test_csv_export(self, small_city, tmp_path):
        params = EpidemicParams(beta=0.5, gamma=1 / 3, horizon=50)
        series = run_simulation(small_city, params, 0, 1)
        path = tmp_path / "prev.csv"
        series.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "day,prevalence,frac_locations_infected,total_S,total_I,total_R"
        assert len(lines) == len(series) + 1


class TestSubsamplingDominance:
    def test_transit_run_reaches_prevalence_later_on_average(self, small_city):
        # paired over 30 common seeds: mean day of 1% prevalence under the
        # thinned matrix must not be earlier than under the full matrix
        from epitransit.metrics import threshold_day

        model = calibrate(GammaTripModel(k=3, theta=5, mu=0.35), small_city)
        sub = sample_transit_matrix(small_city, model, 11)
        params = EpidemicParams(beta=1.55, gamma=0.2, horizon=250)
        rng = np.random.default_rng(0)
        full_days, sub_days = [], []
        for s in range(30):
            loc = seed_outbreak(small_city, "proportional", np.random.default_rng((5, s)))
            a = run_simulation(small_city, params, loc, (1, s))
            b = run_simulation(sub, params, loc, (1, s))
            da, db = threshold_day(a, 0.01), threshold_day(b, 0.01)
            if da is not None and db is not None:
                full_days.append(da)
                sub_days.append(db)
        assert len(full_days) >= 25
        assert np.mean(sub_days) >= np.mean(full_days)
