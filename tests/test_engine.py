import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from epitransit import engine
from epitransit.engine import (
    COURSE_CHUNK,
    HAZARD_VARIANTS,
    EpidemicParams,
    advance_day,
    check_scale,
    hazard_vector,
    introduce,
    run_simulation,
    seed_outbreak,
    sir_step,
)
from epitransit.mobility import matrix_from_flows
from epitransit.runner import Disease, ScenarioConfig, run_sweep
from epitransit.transit import GammaTripModel, calibrate, sample_transit_matrix

from conftest import day_states, two_location_matrix


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


def test_overflowing_beta_rejected_before_the_run():
    m = two_location_matrix(n_a=1e10)
    with pytest.raises(ValueError, match="overflows"):
        run_simulation(m, EpidemicParams(beta=1e300, gamma=0.5), 1, 0)
    # beta * N * N = 1e308 is still finite; 1e309 is not
    check_scale(EpidemicParams(beta=1e288, gamma=0.5), m)
    with pytest.raises(ValueError, match="overflows"):
        check_scale(EpidemicParams(beta=1e289, gamma=0.5), m)


def test_population_whose_square_overflows_is_rejected_before_any_run(monkeypatch):
    # beta * N = 2.3e160 is finite, but beta * S * I of the SIR step would
    # reach 5.3e320, past the float64 range
    m = two_location_matrix(n_a=2.3e160)
    steps = []
    monkeypatch.setattr(engine, "sir_step", lambda *a: steps.append(a))
    with pytest.raises(ValueError, match=r"beta \* N \* N.*past the float64 range"):
        run_simulation(m, EpidemicParams(beta=1.0, gamma=0.5), 0, 0)
    assert steps == []
    runs = []
    monkeypatch.setattr(engine, "run_simulation", lambda *a: runs.append(a))
    config = ScenarioConfig(diseases=[Disease("big", 1.0, 0.5)], delta_bands=["low"], pairs=[(3, 5)],
                            seed_draws=1, replicates=1)
    with pytest.raises(ValueError, match="overflows against a population of 2.3e[+]160"):
        run_sweep(config, matrix=m)
    assert runs == []


def stepped_rows(populations, params, count):
    """The first ``count`` rows of a course table as stepping gives them:
    the pre-onset row, then age 0 stepped one day at a time by ``sir_step``."""
    N = populations.astype(float)
    n = N.shape[0]
    rows = [np.array((N, np.zeros(n), np.zeros(n))), np.array((N - 1.0, np.ones(n), np.zeros(n)))]
    while len(rows) < count:
        rows.append(sir_step(rows[-1].copy(), N, params))
    return np.array(rows)


def fresh_state(matrix):
    """(S, I, R) block with S = N and no cases, and the populations N."""
    N = matrix.populations.astype(float)
    return np.array((N, np.zeros(matrix.n), np.zeros(matrix.n))), N


def hazard(matrix, params, infected, virgin):
    """hazard_vector on the virgin locations ``virgin`` while location j has ``infected[j]`` cases."""
    course = params.course(matrix.populations)
    return hazard_vector(np.asarray(infected, dtype=float) / course.N, np.asarray(virgin), matrix, course)


class TestHazard:
    def test_zero_when_no_infection_anywhere(self):
        m = two_location_matrix()
        params = EpidemicParams(beta=0.5, gamma=0.5)
        assert hazard(m, params, [0.0, 0.0], [0, 1]).tolist() == [0.0, 0.0]

    def test_zero_when_beta_zero(self):
        m = two_location_matrix()
        params = EpidemicParams(beta=0.0, gamma=0.5)
        assert hazard(m, params, [0.0, 1.0], [0])[0] == 0.0

    def test_saturated_limit(self):
        # direct evaluation: beta*N/(1+beta*N) with the exponential term at 1
        m = two_location_matrix(flow_ba=1e9, n_a=1000.0, n_b=100.0)
        params = EpidemicParams(beta=0.5, gamma=0.5)
        assert hazard(m, params, [0.0, 100.0], [0])[0] == pytest.approx(500.0 / 501.0, abs=1e-4)

    def test_matches_scalar_formula(self):
        # the virgin location's own flow is nonzero, and its term drops out since x_j = 0
        rng = np.random.default_rng(8)
        for variant in ("as_printed", "no_inner_s"):
            for _ in range(50):
                n = 5
                flows = rng.uniform(0, 20, (n, n))
                pops = rng.uniform(50, 500, n)
                m = matrix_from_flows(flows, populations=pops)
                infected = rng.uniform(0, pops / 2, n)
                j = int(rng.integers(n))
                infected[j] = 0.0
                beta = rng.uniform(0.5, 15)
                params = EpidemicParams(beta=beta, gamma=0.5, hazard_variant=variant)
                x = infected / pops
                inner = sum(flows[j, k] * x[k] for k in range(n) if k != j)
                if variant == "as_printed":
                    inner *= pops[j]
                expected = beta * pops[j] * (1 - math.exp(-inner)) / (1 + beta * pops[j])
                assert hazard(m, params, infected, [j])[0] == pytest.approx(expected, rel=1e-12)

    def test_bounds_under_fuzz(self):
        # no clip: on virgin rows h lies in [0, 1] as computed, from flows
        # that saturate the exponential to flows that leave it at 0
        rng = np.random.default_rng(9)
        for variant in HAZARD_VARIANTS:
            for _ in range(200):
                n = 6
                flows = rng.uniform(0, 1e8, (n, n)) * (rng.random((n, n)) < 0.5)
                pops = rng.uniform(1.0, 1e5, n)
                m = matrix_from_flows(flows, populations=pops)
                params = EpidemicParams(beta=rng.uniform(0.5, 15), gamma=0.5, hazard_variant=variant)
                virgin = np.flatnonzero(rng.random(n) < 0.6)
                infected = rng.uniform(0, pops)
                infected[virgin] = 0.0
                h = hazard(m, params, infected, virgin)
                assert np.all((h >= 0.0) & (h <= 1.0))
                assert np.all(hazard(m, params, np.zeros(n), virgin) == 0.0)


class TestSirStep:
    def test_spec_arithmetic(self):
        m = two_location_matrix(n_a=100.0, n_b=100.0)
        state, N = fresh_state(m)
        state[:2, 0] = 99.0, 1.0
        out = sir_step(state, N, EpidemicParams(beta=0.5, gamma=1 / 3))
        assert out is state
        S, I, R = out
        assert S[0] == pytest.approx(98.505, abs=1e-5)
        assert I[0] == pytest.approx(1.16167, abs=1e-5)
        assert R[0] == pytest.approx(0.33333, abs=1e-5)

    def test_burned_out_location_inert(self):
        m = two_location_matrix()
        state, N = fresh_state(m)
        state[:, 0] = 70.0, 0.0, 30.0
        S, I, R = sir_step(state, N, EpidemicParams(beta=2.0, gamma=0.5))
        assert S[0] == 70.0 and I[0] == 0.0 and R[0] == 30.0

    def test_pure_recovery(self):
        m = two_location_matrix()
        state, N = fresh_state(m)
        state[:2, 0] = 95.0, 5.0
        S, I, R = sir_step(state, N, EpidemicParams(beta=0.0, gamma=1.0))
        assert S[0] == 95.0
        assert I[0] == 0.0
        assert R[0] == 5.0

    def test_overshoot_capped_conserving_mass(self):
        # beta*I/N > 1 would push S negative without the cap
        m = two_location_matrix(n_a=100.0)
        state, N = fresh_state(m)
        state[:2, 0] = 40.0, 60.0
        params = EpidemicParams(beta=15.0, gamma=1.0)
        S, I, R = sir_step(state, N, params)
        assert S[0] == 0.0
        assert I[0] >= 0.0
        assert S[0] + I[0] + R[0] == pytest.approx(100.0, rel=1e-12)


class TestIntroduce:
    def test_no_hazard_no_change(self):
        # no case anywhere: nothing is hit, and one uniform per location is drawn
        m = two_location_matrix()
        params = EpidemicParams(beta=0.5, gamma=0.5)
        course = params.course(m.populations)
        rng, clone = np.random.default_rng(0), np.random.default_rng(0)
        assert introduce(np.zeros(2), np.arange(2), m, course, rng).size == 0
        clone.random(2)
        assert rng.bit_generator.state == clone.bit_generator.state

    def test_certain_introduction_adds_one_case(self):
        m = two_location_matrix(flow_ba=1e9, n_a=1000.0)
        # enormous beta drives h to 1
        params = EpidemicParams(beta=1e12, gamma=0.5)
        course = params.course(m.populations)
        run = engine._Run(2)
        run.seed(1)
        flat = course.rows(2)
        I = np.take(flat, run.at)
        assert I.tolist() == [0.0, 1.0]
        assert introduce(I / course.N, run.virgin, m, course, np.random.default_rng(0)).tolist() == [0]
        assert advance_day(run, I, m, course, np.random.default_rng(0)).tolist() == [0]
        assert run.day == 1 and run.onset_day.tolist() == [1, 0] and run.virgin.size == 0
        # location 0 reads age 0 (one case, S = N - 1), location 1 age 1
        flat = course.rows(3)
        assert flat[run.at[0]] == 1.0 and flat[run.at[0] - m.n] == m.populations[0] - 1.0
        assert flat[run.at[1]] == course.block[2, 1, 1]

    def test_empirical_rate_matches_hazard(self):
        # infecteds engineered so h = 1/3 * (1 - e^-ln10) = 0.3 exactly
        n_a = 1.0
        flow = 2.0 * math.log(10.0)
        m = two_location_matrix(flow_ba=flow, n_a=n_a, n_b=100.0)
        params = EpidemicParams(beta=0.5, gamma=0.5)
        course = params.course(m.populations)
        x, virgin = np.array([0.0, 0.5]), np.array([0])
        h = hazard_vector(x, virgin, m, course)[0]
        assert h == pytest.approx(0.3, rel=1e-12)
        rng = np.random.default_rng(123)
        hits = sum(introduce(x, virgin, m, course, rng).tolist() == [0] for _ in range(10_000))
        assert hits / 10_000 == pytest.approx(0.3, abs=0.015)

    @pytest.mark.parametrize("variant", HAZARD_VARIANTS)
    @pytest.mark.parametrize("n", [8, 28])
    def test_one_day_introduction_frequency_matches_the_hazard_per_location(self, variant, n):
        # Oracle for introduce: over R = 10,000 independent days drawn from
        # one day's infecteds, each virgin location's hit count lies within 5
        # binomial standard deviations of R * h(t, j) from hazard_vector
        # (two-sided p about 6e-7 per location), and a location with h = 0
        # is never hit. Location 0 is infected, 1-7 are virgin with hazards
        # from 0 to 0.94, and 8 onwards already have a case: with n = 8 the
        # hazard reads the whole product, with n = 28 only the virgin rows.
        R = 10_000
        populations = np.full(n, 1000.0)
        populations[3:8] = 50.0
        flows = np.zeros((n, n))
        # exposure m * x * S is the same in both variants: S = N = 50 at 3-7
        flows[3:8, 0] = np.array([0.02, 0.2, 1.0, 3.0, 8.0]) * (1.0 if variant == "as_printed" else 50.0)
        m = matrix_from_flows(flows, populations=populations)
        params = EpidemicParams(beta=0.5, gamma=0.3, hazard_variant=variant)
        course = params.course(m.populations)
        infected = np.zeros(n)
        infected[0] = 10.0
        infected[8:] = 1.0
        x = infected / course.N
        virgin = np.arange(1, 8)
        h = hazard_vector(x, virgin, m, course)
        assert h[:2].tolist() == [0.0, 0.0] and 0.009 < h[2] and h[-1] > 0.9

        rng = np.random.default_rng((n, HAZARD_VARIANTS.index(variant)))
        hits = np.zeros(n)
        for _ in range(R):
            hits[introduce(x, virgin, m, course, rng)] += 1
        assert not np.delete(hits, virgin).any()
        assert np.all(np.abs(hits[virgin] - R * h) <= 5.0 * np.sqrt(R * h * (1.0 - h)))

    def test_no_virgin_location_draws_nothing(self, monkeypatch):
        # location 0 gets its case on day 1; from then on no location is
        # virgin, and the run draws no further uniform
        m = two_location_matrix(flow_ba=1e9, n_a=1000.0)
        params = EpidemicParams(beta=1e12, gamma=0.5, horizon=50)
        calls = []

        def counted_introduce(x, virgin, matrix, course, rng):
            hits = introduce(x, virgin, matrix, course, rng)
            calls.append((rng, rng.bit_generator.state))
            return hits

        monkeypatch.setattr(engine, "introduce", counted_introduce)
        series = run_simulation(m, params, 1, 0)
        assert series.onset_days.tolist() == [1, 0] and len(series) > 10
        [(rng, state)] = calls
        assert rng.bit_generator.state == state


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
        # each location's state on each day of a run is a row of the
        # course table, chosen by its onset: per location S+I+R = N, S and
        # I stay >= 0, S never rises and R never falls, and the day's
        # infecteds add up to the run's total I
        params = EpidemicParams(beta=1.55, gamma=0.2, horizon=120)
        series = run_simulation(small_city, params, "most_populous", 5)
        S, I, R = day_states(series, params, small_city).transpose(1, 0, 2)
        N = small_city.populations
        assert np.all(np.abs(S + I + R - N) <= 1e-9 * N)
        assert np.all(np.diff(R, axis=0) >= -1e-12) and np.all(np.diff(S, axis=0) <= 1e-12)
        assert np.all(S >= 0) and np.all(I >= 0)
        np.testing.assert_allclose(I.sum(axis=1), series.total_I, rtol=1e-12)

    def test_final_size_is_derived_from_total_S_when_read(self, small_city):
        k = max(1, COURSE_CHUNK // small_city.n)  # days per chunk read from the course table
        # location 1 is out of reach, so the run ends with it virgin
        virgin_left = run_simulation(two_location_matrix(flow_ab=0.0, flow_ba=0.0),
                                     EpidemicParams(beta=0.5, gamma=1 / 3), 0, 1)
        assert virgin_left.onset_days[1] == -1
        # every location has a case by day 3, and the run dies out inside
        # its second chunk of days read
        dies = run_simulation(small_city, EpidemicParams(beta=0.5, gamma=1 / 3), "most_populous", 0)
        assert dies.onset_days.min() >= 0 and dies.total_I[-1] < 1e-3
        assert k < len(dies) - 1 - dies.onset_days.max() < 2 * k
        # every location has a case, and the horizon cuts the run inside its first chunk
        cut = run_simulation(small_city, EpidemicParams(beta=1.55, gamma=0.2, horizon=60), "most_populous", 0)
        assert cut.onset_days.min() >= 0 and len(cut) == 61 and cut.total_I[-1] >= 1e-3
        assert len(cut) - 1 - cut.onset_days.max() < k
        for series in (virgin_left, dies, cut):
            assert "final_size" not in vars(series)
            N = float(series.course.populations.sum())
            assert series.final_size == float((N - series.total_S[-1]) / N)

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

    def test_course_table_grows_a_few_times_and_holds_the_stepped_rows(self, monkeypatch):
        # an h1n1 table at n = 1000 and a horizon of 300, read one more day
        # at a time up to 190 ages, as a long run reads it
        populations = np.random.default_rng(4).uniform(1.0, 5000.0, 1000)
        params = EpidemicParams(beta=0.5, gamma=1 / 3, horizon=300)
        table = params.course(populations)
        maps = []

        def counting(shape, _unpaged=engine._unpaged):
            maps.append(shape[0])
            return _unpaged(shape)

        monkeypatch.setattr(engine, "_unpaged", counting)
        for count in range(3, 192):
            table.rows(count)
        # from the first 2 rows, 8 times larger each time, up to horizon + 2
        assert maps == [16, 128, 302]
        assert table.block.shape == (191, 3, 1000)
        assert table.block.tobytes() == stepped_rows(populations, params, 191).tobytes()

    def test_one_course_table_per_populations_holding_the_ages_read(self, small_city):
        # a thinned matrix shares its parent's populations, so one table
        # serves both arms; it reaches the last day of the longest run that
        # reads it and at most one chunk past it, however far the horizon lies
        sub = sample_transit_matrix(small_city, calibrate(GammaTripModel(k=3, theta=5, mu=0.35), small_city), 11)
        params = EpidemicParams(beta=1.55, gamma=0.2, horizon=10**6)
        runs = [run_simulation(m, params, "proportional", s) for s in range(4) for m in (small_city, sub)]
        # the transit arm leaves one location out of reach, so only full-mobility runs read the table
        reading = [len(run) for run in runs if run.frac_locations[-1] == 1.0]
        assert len(reading) == 4 and max(reading) < max(len(run) for run in runs)
        table = params.course(small_city.populations)
        assert table is params.course(sub.populations)
        # its rows: the pre-onset row, then the ages read
        ages = table.block.shape[0] - 1
        assert max(reading) <= ages < max(reading) + max(1, COURSE_CHUNK // small_city.n)
        # another populations array gets a table of its own
        other = matrix_from_flows(small_city.m, populations=small_city.populations)
        assert params.course(other.populations) is not table

    def test_a_dropped_table_is_freed_without_the_cyclic_collector(self, small_city):
        # the table keeps a copy of its params without their course cache:
        # the caller's params would make a cycle through that cache, and the
        # table with its mapped store would then wait for the collector
        gc.disable()
        try:
            params = EpidemicParams(beta=1.55, gamma=0.2, horizon=60)
            series = run_simulation(small_city, params, "proportional", 0)
            table = weakref.ref(series.course)
            assert table() is params.course(small_city.populations) and table().block.shape[0] > 2
            del params, series
            assert table() is None
        finally:
            gc.enable()

    def test_params_that_differ_in_gamma_get_tables_of_their_own(self, small_city):
        # each table holds the rows stepped with its own params, byte for byte
        populations = small_city.populations
        tables = []
        for gamma in (0.2, 0.5):
            params = EpidemicParams(beta=1.55, gamma=gamma, horizon=60)
            run_simulation(small_city, params, "proportional", 0)
            block = params.course(populations).block
            assert block.shape[0] > 2 and block.tobytes() == stepped_rows(populations, params, block.shape[0]).tobytes()
            tables.append(params.course(populations))
        slow, fast = tables
        assert slow is not fast and slow.block[2].tobytes() != fast.block[2].tobytes()


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
            da, db = threshold_day(a.prevalence, 0.01), threshold_day(b.prevalence, 0.01)
            if da is not None and db is not None:
                full_days.append(da)
                sub_days.append(db)
        assert len(full_days) >= 25
        assert np.mean(sub_days) >= np.mean(full_days)
