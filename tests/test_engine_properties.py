"""Property tests: day-by-day engine invariants on random small cities, and
the in-place engine against a reference that copies the state every day."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from epitransit import engine
from epitransit.engine import (
    HAZARD_VARIANTS,
    CompartmentState,
    EpidemicParams,
    advance_day,
    hazard_vector,
    run_simulation,
    seed_outbreak,
    sir_step,
)
from epitransit.mobility import POPULATION_FLOOR, matrix_from_flows

DAYS = 40


@st.composite
def cities(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    flows = draw(hnp.arrays(float, (n, n), elements=st.floats(0.0, 500.0)))
    populations = draw(hnp.arrays(float, n, elements=st.floats(POPULATION_FLOOR, 5000.0)))
    return matrix_from_flows(flows, populations=populations)


@given(
    matrix=cities(),
    beta=st.floats(0.0, 20.0),
    gamma=st.floats(0.01, 1.0),
    variant=st.sampled_from(HAZARD_VARIANTS),
    seed_loc=st.integers(min_value=0, max_value=11),
    rng_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_invariants_hold_every_day(matrix, beta, gamma, variant, seed_loc, rng_seed):
    params = EpidemicParams(beta=beta, gamma=gamma, hazard_variant=variant)
    rng = np.random.default_rng(rng_seed)
    state = CompartmentState.fully_susceptible(matrix.populations)
    state.seed(seed_loc % matrix.n)
    first_infected = np.where(state.I > 0.0, 0, -1)
    for day in range(1, DAYS + 1):
        stepped = sir_step(state.copy(), params)
        idle = state.I == 0.0
        for after, before in ((stepped.S, state.S), (stepped.I, state.I), (stepped.R, state.R)):
            assert after[idle].tobytes() == before[idle].tobytes()

        new = advance_day(state.copy(), matrix, params, rng)
        assert new.day == day
        assert np.all(np.abs(new.S + new.I + new.R - new.N) <= 1e-9 * new.N)
        assert np.all(new.S >= 0.0) and np.all(new.I >= 0.0)
        assert np.all(new.S <= state.S)
        assert np.all(new.R >= state.R)
        first_infected[(first_infected < 0) & (new.I > 0.0)] = day
        assert np.array_equal(new.onset_day, first_infected)
        state = new


@st.composite
def sparse_cities(draw):
    """Cities whose flows are zeroed at random, so some locations can stay
    out of reach and never get a case, while others all get one early."""
    n = draw(st.integers(min_value=2, max_value=12))
    flows = draw(hnp.arrays(float, (n, n), elements=st.floats(0.0, 500.0)))
    links = draw(hnp.arrays(bool, (n, n)))
    populations = draw(hnp.arrays(float, n, elements=st.floats(POPULATION_FLOOR, 5000.0)))
    return matrix_from_flows(flows * links, populations=populations)


@given(
    matrix=sparse_cities(),
    beta=st.floats(0.0, 20.0),
    variant=st.sampled_from(HAZARD_VARIANTS),
    data=st.data(),
)
def test_hazard_on_virgin_rows_matches_the_whole_vector(matrix, beta, variant, data):
    n = matrix.n
    infected = data.draw(hnp.arrays(float, n, elements=st.sampled_from([0.0, 0.5, 1.0, 7.0, 250.0])))
    state = CompartmentState.fully_susceptible(matrix.populations)
    state.I = np.minimum(infected, state.N)
    state.S = state.N - state.I
    virgin = np.flatnonzero(state.virgin_mask)
    picked = data.draw(st.sets(st.sampled_from(virgin)) if virgin.size else st.just(set()))
    rows = np.array(sorted(picked), dtype=np.intp)
    params = EpidemicParams(beta=beta, gamma=0.5, hazard_variant=variant)
    # a row's sum may group its terms differently from the whole product's,
    # so the two agree to round-off, not bit for bit
    whole = hazard_vector(state, matrix, params)[rows]
    np.testing.assert_allclose(hazard_vector(state, matrix, params, rows), whole, rtol=1e-12, atol=0.0)


def copying_reference(matrix, params, seed_rule, rng_seed):
    """One run that builds a new state every day and draws n uniforms every
    day, virgin locations or not; returns what run_simulation reports."""
    rng = np.random.default_rng(rng_seed)
    state = CompartmentState.fully_susceptible(matrix.populations)
    seed_loc = seed_outbreak(matrix, seed_rule, rng)
    state.seed(seed_loc)
    rows = [(state.S.sum(), state.I.sum(), state.R.sum(), np.count_nonzero(state.onset_day >= 0) / matrix.n)]
    for _ in range(params.horizon):
        if rows[-1][1] < params.extinction_threshold:
            break
        h = hazard_vector(state, matrix, params)
        u = rng.random(matrix.n)
        S, I, N = state.S, state.I, state.N
        new_inf = np.minimum(params.beta * S * I / N, S)
        recov = params.gamma * I
        new = CompartmentState(
            S=S - new_inf, I=I + new_inf - recov, R=state.R + recov, N=N,
            day=state.day + 1, onset_day=state.onset_day.copy(),
        )
        for arr in (new.S, new.I):
            neg = arr < 0.0
            new.R[neg] += arr[neg]
            arr[neg] = 0.0
        hits = state.virgin_mask & (u < h)
        new.I[hits] = 1.0
        new.S[hits] = N[hits] - 1.0
        new.onset_day[hits] = new.day
        state = new
        rows.append((state.S.sum(), state.I.sum(), state.R.sum(), np.count_nonzero(state.onset_day >= 0) / matrix.n))
    total_S, total_I, total_R, frac = (np.array(col) for col in zip(*rows))
    total_pop = float(matrix.populations.sum())
    return {
        "prevalence": total_I / total_pop,
        "frac_locations": frac,
        "total_S": total_S,
        "total_I": total_I,
        "total_R": total_R,
        "onset_days": state.onset_day,
        "final_size": float((total_pop - total_S[-1]) / total_pop),
        "seed_location": seed_loc,
    }


@given(
    matrix=sparse_cities(),
    beta=st.floats(0.0, 20.0),
    gamma=st.floats(0.01, 1.0),
    variant=st.sampled_from(HAZARD_VARIANTS),
    horizon=st.integers(min_value=1, max_value=80),
    rng_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_run_matches_a_copying_reference_bit_for_bit(matrix, beta, gamma, variant, horizon, rng_seed):
    params = EpidemicParams(beta=beta, gamma=gamma, horizon=horizon, hazard_variant=variant)
    series = run_simulation(matrix, params, "proportional", rng_seed)
    assert_matches(series, copying_reference(matrix, params, "proportional", rng_seed))


def assert_matches(series, expected):
    for name, value in expected.items():
        got = getattr(series, name)
        if isinstance(value, np.ndarray):
            assert got.dtype == value.dtype and got.tobytes() == value.tobytes(), name
        else:
            assert got == value, name


@st.composite
def large_cities(draw):
    """Cities above NumPy's 128-element pairwise-summation block, with a
    random share of their flows zeroed; built from a drawn seed, since
    drawing up to 160,000 flows one by one is slow."""
    n = draw(st.integers(min_value=129, max_value=400))
    density = draw(st.floats(0.01, 1.0))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    flows = rng.uniform(0.0, 500.0, (n, n)) * (rng.random((n, n)) < density)
    populations = rng.uniform(POPULATION_FLOOR, 5000.0, n)
    return matrix_from_flows(flows, populations=populations)


@settings(max_examples=10)
@given(
    matrix=large_cities(),
    beta=st.floats(0.0, 20.0),
    gamma=st.floats(0.01, 1.0),
    variant=st.sampled_from(HAZARD_VARIANTS),
    horizon=st.integers(min_value=1, max_value=400),
    rng_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_run_matches_a_copying_reference_at_real_sizes(matrix, beta, gamma, variant, horizon, rng_seed):
    params = EpidemicParams(beta=beta, gamma=gamma, horizon=horizon, hazard_variant=variant)
    series = run_simulation(matrix, params, "proportional", rng_seed)
    assert_matches(series, copying_reference(matrix, params, "proportional", rng_seed))


@given(
    n=st.integers(min_value=1, max_value=5000),
    spread=st.integers(min_value=0, max_value=60),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_block_row_sums_equal_one_dimensional_sums_bit_for_bit(n, spread, seed):
    # run_simulation records a day as SIR.sum(axis=1, out=row); the series
    # must read as if each compartment had been summed on its own
    rng = np.random.default_rng(seed)
    block = rng.standard_normal((3, n)) * 2.0 ** rng.integers(-spread, spread + 1, (3, n))
    record = np.empty((2, 3))
    block.sum(axis=1, out=record[1])
    assert record[1].tobytes() == np.array([row.sum() for row in block]).tobytes()


def test_no_introduction_step_once_every_location_has_a_case(monkeypatch):
    n = 30
    matrix = matrix_from_flows(np.full((n, n), 0.1), populations=np.full(n, 1000.0))
    params = EpidemicParams(beta=2.0, gamma=0.1, horizon=2000)
    introduced, hazards, generators, steps = [], [], [], []
    introduce, hazard_vector, step = engine.introduce, engine.hazard_vector, engine.sir_step

    def counted_introduce(state, matrix, params, rng, step=None):
        introduced.append(state.day)
        generators.append(rng)
        return introduce(state, matrix, params, rng, step)

    def counted_hazard_vector(state, matrix, params, rows=None):
        hazards.append(state.day)
        return hazard_vector(state, matrix, params, rows)

    def watched_step(state, params):
        # the day stepped from, and the generator once that day's uniforms are drawn
        steps.append((state.day, generators[0].bit_generator.state))
        return step(state, params)

    monkeypatch.setattr(engine, "introduce", counted_introduce)
    monkeypatch.setattr(engine, "hazard_vector", counted_hazard_vector)
    monkeypatch.setattr(engine, "sir_step", watched_step)
    series = engine.run_simulation(matrix, params, 0, 7)

    full = int(np.argmax(series.frac_locations == 1.0))
    assert series.frac_locations[full] == 1.0 and 1 < full <= 5
    assert len(series) > full + 100
    assert len(set(generators)) == 1
    # introductions and hazards act on the days before `full` only
    assert introduced == list(range(full)) and max(hazards) < full
    # the uniforms drawn on day full - 1 are the last ones
    after = [state for day, state in steps if day >= full - 1]
    assert len(after) == len(series) - full
    assert all(state == after[0] for state in after)
    assert steps[0][1] != after[0]
    assert generators[0].bit_generator.state == after[0]
    monkeypatch.undo()
    assert_matches(series, copying_reference(matrix, params, 0, 7))
