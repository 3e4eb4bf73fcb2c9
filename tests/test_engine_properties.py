"""Property tests: day-by-day engine invariants on random small cities, and
the in-place engine against a reference that copies the state every day."""

import numpy as np
from hypothesis import example, given, settings
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

# location 0 sits at the floor, so seeding it leaves S = 0
FLOOR_CITY = matrix_from_flows(np.full((3, 3), 50.0), populations=np.array([POPULATION_FLOOR, 40.0, 3000.0]))


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
# the cases nearest to S or I going below zero: recoveries that take all of
# I, a seeded S of 0, and new infections capped at S from the first day
@example(matrix=FLOOR_CITY, beta=0.5, gamma=1.0, variant="as_printed", seed_loc=1, rng_seed=0)
@example(matrix=FLOOR_CITY, beta=5.0, gamma=0.2, variant="as_printed", seed_loc=0, rng_seed=0)
@example(matrix=FLOOR_CITY, beta=1e6, gamma=1.0, variant="no_inner_s", seed_loc=2, rng_seed=1)
def test_invariants_hold_every_day(matrix, beta, gamma, variant, seed_loc, rng_seed):
    params = EpidemicParams(beta=beta, gamma=gamma, hazard_variant=variant)
    rng = np.random.default_rng(rng_seed)
    state = CompartmentState.fully_susceptible(matrix.populations)
    state.seed(seed_loc % matrix.n)
    first_infected = np.where(state.I > 0.0, 0, -1)
    for day in range(1, DAYS + 1):
        stepped = sir_step(CompartmentState(*state.SIR, N=state.N, day=state.day), params)
        assert np.all(stepped.S >= 0.0) and np.all(stepped.I >= 0.0)
        idle = state.I == 0.0
        for after, before in ((stepped.S, state.S), (stepped.I, state.I), (stepped.R, state.R)):
            assert after[idle].tobytes() == before[idle].tobytes()

        new = CompartmentState(*state.SIR, N=state.N, day=state.day, onset_day=state.onset_day.copy())
        hits = advance_day(new, matrix, params, rng)
        assert new.day == day
        assert np.all(np.abs(new.S + new.I + new.R - new.N) <= 1e-9 * new.N)
        assert np.all(new.S >= 0.0) and np.all(new.I >= 0.0)
        assert np.all(new.S <= state.S)
        assert np.all(new.R >= state.R)
        first_infected[(first_infected < 0) & (new.I > 0.0)] = day
        assert np.array_equal(new.onset_day, first_infected)
        # virgin by onset day is virgin by compartments, and the hits are the day's onsets
        assert np.array_equal(new.onset_day < 0, (new.I == 0.0) & (new.R == 0.0))
        assert np.array_equal(hits, np.flatnonzero(new.onset_day == day))
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
    virgin = np.flatnonzero(state.I == 0.0)
    picked = data.draw(st.sets(st.sampled_from(virgin)) if virgin.size else st.just(set()))
    rows = np.array(sorted(picked), dtype=np.intp)
    params = EpidemicParams(beta=beta, gamma=0.5, hazard_variant=variant)
    # a row's sum may group its terms differently from the whole product's,
    # so the two agree to round-off, not bit for bit
    whole = hazard_vector(state, matrix, params)[rows]
    np.testing.assert_allclose(hazard_vector(state, matrix, params, rows), whole, rtol=1e-12, atol=0.0)


LEVELS = st.sampled_from([0.0, 0.5, 1.0, 7.0, 250.0])
# four locations: with one virgin the hazard reads its row only, with two
# the whole product; either way a virgin location is hit
CROWDED_CITY = matrix_from_flows(np.full((4, 4), 500.0), populations=np.full(4, 1000.0))
ONE_VIRGIN = np.array([250.0, 7.0, 1.0, 0.0] + [0.0] * 8)
TWO_VIRGIN = np.array([250.0, 0.0, 7.0, 0.0] + [0.0] * 8)


@given(
    matrix=cities(),
    beta=st.floats(0.0, 1e6),
    variant=st.sampled_from(HAZARD_VARIANTS),
    infected=hnp.arrays(float, 12, elements=LEVELS),
    recovered=hnp.arrays(float, 12, elements=LEVELS),
    day=st.integers(min_value=0, max_value=500),
    rng_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(matrix=CROWDED_CITY, beta=1e6, variant="as_printed", infected=ONE_VIRGIN, recovered=np.zeros(12), day=9,
         rng_seed=0)
@example(matrix=CROWDED_CITY, beta=1e6, variant="no_inner_s", infected=TWO_VIRGIN,
         recovered=np.zeros(12), day=0, rng_seed=0)
def test_introduce_reads_the_state_and_draws_one_uniform_per_location(
    matrix, beta, variant, infected, recovered, day, rng_seed
):
    # a mix of virgin, infected and burned-out (I = 0 < R) locations
    n = matrix.n
    state = CompartmentState.fully_susceptible(matrix.populations)
    state.I = np.minimum(infected[:n], state.N)
    state.R = np.minimum(recovered[:n], state.N - state.I)
    state.S = state.N - state.I - state.R
    state.day = day
    seen = (state.I > 0.0) | (state.R > 0.0)
    virgin = np.flatnonzero(~seen)
    state.onset_day[seen] = day
    before = (state.SIR.tobytes(), state.onset_day.tobytes(), state.day)
    rng = np.random.default_rng(rng_seed)
    clone = np.random.default_rng(rng_seed)

    hits = engine.introduce(state, matrix, EpidemicParams(beta=beta, gamma=0.5, hazard_variant=variant), rng)

    assert (state.SIR.tobytes(), state.onset_day.tobytes(), state.day) == before
    assert np.all(np.diff(hits) > 0) and np.isin(hits, virgin).all()
    if virgin.size:
        clone.random(n)
    assert rng.bit_generator.state == clone.bit_generator.state


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
        # virgin by compartments, not by onset day as the engine reads it
        hits = (I == 0.0) & (state.R == 0.0) & (u < h)
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
    return large_city(n, density, draw(st.integers(min_value=0, max_value=2**32 - 1)))


def large_city(n, density, seed):
    rng = np.random.default_rng(seed)
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


@settings(max_examples=10)
@given(
    matrix=large_cities(),
    beta=st.floats(0.0, 20.0),
    gamma=st.floats(0.01, 1.0),
    variant=st.sampled_from(HAZARD_VARIANTS),
    share=st.floats(0.0, 1.0),
    horizon=st.integers(min_value=1, max_value=400),
    runs=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=2**32 - 1)), min_size=2, max_size=4
    ),
)
# every run reads the table: on the matrix from day 11-13 to day 157-158,
# on the sibling from day 53-56 to day 188-195
@example(matrix=large_city(200, 0.05, 3), beta=0.5, gamma=0.2, variant="no_inner_s", share=0.02, horizon=400,
         runs=[(False, 1), (True, 1), (True, 2), (False, 3)])
# a horizon that cuts the sibling's runs inside a chunk of the table, but not the matrix's
@example(matrix=large_city(200, 0.05, 3), beta=0.5, gamma=0.2, variant="no_inner_s", share=0.02, horizon=170,
         runs=[(True, 1), (False, 2)])
# a horizon one day after one sibling run has every location seeded, and before another has
@example(matrix=large_city(200, 0.05, 3), beta=0.5, gamma=0.2, variant="no_inner_s", share=0.02, horizon=54,
         runs=[(True, 2), (False, 1), (True, 1)])
def test_a_run_does_not_depend_on_what_the_course_table_holds(matrix, beta, gamma, variant, share, horizon, runs):
    # runs of one params on a matrix and on a sibling that shares its
    # populations read one course table; each pass puts the runs on a new
    # table in one order, so a long run fills it before a short one reads
    # it in one pass and after in the other
    sibling = matrix.with_entry_counts(matrix.m.take(matrix.entries[0]) * share)
    for order in (runs, runs[::-1]):
        params = EpidemicParams(beta=beta, gamma=gamma, horizon=horizon, hazard_variant=variant)
        for on_sibling, rng_seed in order:
            m = sibling if on_sibling else matrix
            assert_matches(run_simulation(m, params, "proportional", rng_seed),
                           copying_reference(m, params, "proportional", rng_seed))
        assert params.course(matrix.populations) is params.course(sibling.populations)


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
    # from the day every location has a case on, no uniform is drawn and no
    # hazard is computed: the generator's state after the run is its state
    # after the last introduction draw, on the day before
    n = 30
    matrix = matrix_from_flows(np.full((n, n), 0.1), populations=np.full(n, 1000.0))
    params = EpidemicParams(beta=2.0, gamma=0.1, horizon=2000)
    draws, hazards = [], []
    introduce, hazard_vector = engine.introduce, engine.hazard_vector

    def counted_introduce(state, matrix, params, rng):
        hits = introduce(state, matrix, params, rng)
        # the day drawn from, the generator, and its state once that day's uniforms are drawn
        draws.append((state.day, rng, rng.bit_generator.state))
        return hits

    def counted_hazard_vector(state, matrix, params, rows=None):
        hazards.append(state.day)
        return hazard_vector(state, matrix, params, rows)

    monkeypatch.setattr(engine, "introduce", counted_introduce)
    monkeypatch.setattr(engine, "hazard_vector", counted_hazard_vector)
    series = engine.run_simulation(matrix, params, 0, 7)

    full = int(np.argmax(series.frac_locations == 1.0))
    assert series.frac_locations[full] == 1.0 and 1 < full <= 5
    assert len(series) > full + 100
    days, generators, states = zip(*draws)
    assert len(set(generators)) == 1
    # introductions and hazards act on the days before `full` only, and each draws
    assert list(days) == list(range(full)) and max(hazards) < full
    assert all(a != b for a, b in zip(states, states[1:]))
    # the uniforms drawn on day full - 1 are the last ones
    assert generators[0].bit_generator.state == states[-1]
    monkeypatch.undo()
    assert_matches(series, copying_reference(matrix, params, 0, 7))
