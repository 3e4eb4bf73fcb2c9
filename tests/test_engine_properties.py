"""Property tests: day-by-day engine invariants on random small cities, the
hazard on virgin rows, and runs against a reference that copies its state
every day and computes the printed hazard of every location."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from epitransit import engine
from epitransit.engine import (
    HAZARD_VARIANTS,
    EpidemicParams,
    hazard_vector,
    run_simulation,
    seed_outbreak,
    sir_step,
)
from epitransit.mobility import POPULATION_FLOOR, ContactMatrix, matrix_from_flows

from conftest import day_states

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
    params = EpidemicParams(beta=beta, gamma=gamma, horizon=DAYS, hazard_variant=variant)
    series = run_simulation(matrix, params, seed_loc % matrix.n, rng_seed)
    states = day_states(series, params, matrix)
    N = matrix.populations.astype(float)
    onset = series.onset_days
    assert onset[seed_loc % matrix.n] == 0
    for day in range(1, len(series)):
        before, after = states[day - 1], states[day]
        stepped = sir_step(before.copy(), N, params)
        assert np.all(stepped[0] >= 0.0) and np.all(stepped[1] >= 0.0)
        idle = before[1] == 0.0
        assert stepped[:, idle].tobytes() == before[:, idle].tobytes()
        # a location with a case moves on as stepping moves it, and a hit starts at one case
        seen = (onset >= 0) & (onset < day)
        assert stepped[:, seen].tobytes() == after[:, seen].tobytes()
        hits = onset == day
        assert np.all(before[1:, hits] == 0.0)
        assert np.all(after[1, hits] == 1.0) and np.all(after[0, hits] == N[hits] - 1.0) and np.all(after[2, hits] == 0.0)

        assert np.all(np.abs(after.sum(axis=0) - N) <= 1e-9 * N)
        assert np.all(after[0] >= 0.0) and np.all(after[1] >= 0.0)
        assert np.all(after[0] <= before[0]) and np.all(after[2] >= before[2])
        # virgin by onset day is virgin by compartments
        virgin = (onset < 0) | (onset > day)
        assert np.array_equal(virgin, (after[1] == 0.0) & (after[2] == 0.0))


def fused_sir_step(SIR, N, beta, gamma):
    """The reference for ``sir_step``: one multiply of the S and I rows by
    the (beta, gamma) column gives the (2, n) flows, beta*S*I/N capped at
    S and gamma*I; then the I and R rows gain them and the S and I rows
    lose them, in six NumPy calls."""
    flows = np.multiply(SIR[:2], np.array(((beta,), (gamma,))))
    new_inf = flows[0]
    new_inf *= SIR[1]
    new_inf /= N
    np.minimum(new_inf, SIR[0], out=new_inf)
    SIR[1:] += flows
    SIR[:2] -= flows
    return SIR


@st.composite
def sir_blocks(draw):
    """(S/I/R block, N): each compartment a share of N that is zero
    (no case, or none left), tiny or any, and N from the population
    floor to 1e300."""
    n = draw(st.integers(min_value=1, max_value=16))
    N = draw(hnp.arrays(float, n, elements=st.floats(POPULATION_FLOOR, 1e300)))
    shares = draw(hnp.arrays(float, (3, n), elements=st.one_of(st.just(0.0), st.floats(0.0, 1e-6), st.floats(0.0, 1.0))))
    return shares * N, N


# beta*I/N > 1 caps the new infections at S; the last location has I = 0
CAPPED = (np.array([[40.0, 10.0, 70.0], [60.0, 90.0, 0.0], [0.0, 0.0, 30.0]]), np.full(3, 100.0))


@given(
    block=sir_blocks(),
    # with N up to 1e300, beta*N reaches 1e308, near the limit check_scale sets
    beta=st.one_of(st.just(0.0), st.floats(0.0, 20.0), st.floats(0.0, 1e8)),
    gamma=st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
)
@example(block=CAPPED, beta=15.0, gamma=1.0)
@example(block=CAPPED, beta=0.0, gamma=0.25)
def test_sir_step_equals_the_fused_form_bit_for_bit(block, beta, gamma):
    SIR, N = block
    params = EpidemicParams(beta=beta, gamma=gamma)
    assert np.isfinite(beta * N.max())
    # past N of about 1e154, beta*S*I can overflow to inf in both forms,
    # and the cap at S takes the new infections back to S
    with np.errstate(over="ignore"):
        want = fused_sir_step(SIR.copy(), N, beta, gamma)
        got = sir_step(SIR.copy(), N, params)
    assert got.tobytes() == want.tobytes()


@st.composite
def sparse_cities(draw):
    """Cities whose flows are zeroed at random, so some locations can stay
    out of reach and never get a case, while others all get one early."""
    n = draw(st.integers(min_value=2, max_value=12))
    flows = draw(hnp.arrays(float, (n, n), elements=st.floats(0.0, 500.0)))
    links = draw(hnp.arrays(bool, (n, n)))
    populations = draw(hnp.arrays(float, n, elements=st.floats(POPULATION_FLOOR, 5000.0)))
    return matrix_from_flows(flows * links, populations=populations)


def printed_hazard(matrix, params, S, I):
    """h(t, j) of every location as printed: the whole product minus each
    location's self term, S in the exponent for "as_printed", clipped."""
    x = I / matrix.populations.astype(float)
    inner = matrix.m @ x - np.diagonal(matrix.m) * x
    if params.hazard_variant == "as_printed":
        inner = inner * S
    with np.errstate(over="ignore"):
        h = params.beta * S * (-np.expm1(-inner)) / (1.0 + params.beta * S)
    return np.clip(h, 0.0, 1.0)


@given(
    matrix=sparse_cities(),
    beta=st.floats(0.0, 20.0),
    variant=st.sampled_from(HAZARD_VARIANTS),
    data=st.data(),
)
def test_hazard_on_virgin_rows_matches_the_whole_vector(matrix, beta, variant, data):
    # the virgin rows hold a quarter of the locations or fewer (only their
    # rows of the matrix are read) or more (the whole product is)
    n = matrix.n
    infected = data.draw(hnp.arrays(float, n, elements=st.sampled_from([0.0, 0.5, 1.0, 7.0, 250.0])))
    N = matrix.populations.astype(float)
    I = np.minimum(infected, N)
    virgin = np.flatnonzero(I == 0.0)
    picked = data.draw(st.sets(st.sampled_from(virgin)) if virgin.size else st.just(set()))
    rows = np.array(sorted(picked), dtype=np.intp)
    params = EpidemicParams(beta=beta, gamma=0.5, hazard_variant=variant)
    # a row's sum may group its terms differently from the whole product's,
    # so the two agree to round-off, not bit for bit
    whole = printed_hazard(matrix, params, N - I, I)[rows]
    got = hazard_vector(I / N, rows, matrix, params.course(matrix.populations))
    np.testing.assert_allclose(got, whole, rtol=1e-12, atol=0.0)


@given(
    flows=hnp.arrays(float, (6, 6), elements=st.floats(0.0, 1e150)),
    populations=hnp.arrays(float, 6, elements=st.floats(POPULATION_FLOOR, 1e8)),
    beta=st.floats(0.0, 1e300),
    variant=st.sampled_from(HAZARD_VARIANTS),
    share=hnp.arrays(float, 6, elements=st.floats(0.0, 1.0)),
    virgin=st.sets(st.integers(min_value=0, max_value=5), min_size=1),
)
def test_hazard_on_virgin_rows_lies_in_the_unit_interval(flows, populations, beta, variant, share, virgin):
    # no clip: h lies in [0, 1] as computed, from exposures that leave the
    # exponential at 0 to ones that saturate it, and beta * N up to 1e308,
    # which is all the hazard needs finite (check_scale bounds more)
    matrix = matrix_from_flows(flows, populations=populations)
    params = EpidemicParams(beta=beta, gamma=0.5, hazard_variant=variant)
    assert math.isfinite(beta * populations.max())
    rows = np.array(sorted(virgin))
    x = share.copy()
    x[rows] = 0.0
    h = hazard_vector(x, rows, matrix, params.course(matrix.populations))
    assert np.all((h >= 0.0) & (h <= 1.0))


def whole_product_hazard(x, virgin, matrix, course):
    """hazard_vector's formula on the virgin rows of the whole product
    m @ x, as the engine computed it before it read one column."""
    inner = (matrix.m @ x)[virgin]
    if course.params.hazard_variant == "as_printed":
        inner *= course.N[virgin]
    return course.beta_N[virgin] * -np.expm1(-inner) / course.one_plus_beta_N[virgin]


@st.composite
def one_case_states(draw):
    """A city of up to 40 locations, some of its flows zeroed, with a case
    at one location s and none elsewhere: (matrix, s, x)."""
    n = draw(st.integers(min_value=2, max_value=40))
    flows = draw(hnp.arrays(float, (n, n), elements=st.floats(0.0, 1e6)))
    flows *= draw(hnp.arrays(bool, (n, n)))
    populations = draw(hnp.arrays(float, n, elements=st.floats(POPULATION_FLOOR, 1e7)))
    s = draw(st.integers(min_value=0, max_value=n - 1))
    x = np.zeros(n)
    x[s] = draw(st.floats(0.0, 1.0))
    return matrix_from_flows(flows, populations=populations), s, x


# two locations; and a seed location whose column is all zeros, so that no
# virgin location is exposed
TWO_CITY = matrix_from_flows(np.array([[3.0, 40.0], [25.0, 9.0]]), populations=np.array([120.0, 80.0]))
DEAD_COLUMN_CITY = matrix_from_flows(np.array([[5.0, 0.0, 7.0], [2.0, 0.0, 1.0], [4.0, 0.0, 6.0]]),
                                     populations=np.array([50.0, 60.0, 70.0]))


@given(state=one_case_states(), beta=st.floats(0.0, 1e3), variant=st.sampled_from(HAZARD_VARIANTS))
@example(state=(TWO_CITY, 0, np.array([1.0 / 120.0, 0.0])), beta=0.5, variant="as_printed")
@example(state=(TWO_CITY, 1, np.array([0.0, 1.0 / 80.0])), beta=0.5, variant="no_inner_s")
@example(state=(DEAD_COLUMN_CITY, 1, np.array([0.0, 1.0 / 60.0, 0.0])), beta=2.0, variant="as_printed")
@example(state=(DEAD_COLUMN_CITY, 1, np.array([0.0, 1.0 / 60.0, 0.0])), beta=2.0, variant="no_inner_s")
def test_hazard_with_one_case_equals_the_whole_product_bit_for_bit(state, beta, variant):
    # every virgin row's exposure has one nonzero term, m[j, s] * x[s], so
    # the one column is the product's exposure whatever order BLAS adds in
    matrix, s, x = state
    virgin = np.delete(np.arange(matrix.n), s)
    params = EpidemicParams(beta=beta, gamma=0.5, hazard_variant=variant)
    course = params.course(matrix.populations)
    got = hazard_vector(x, virgin, matrix, course)
    want = whole_product_hazard(x, virgin, matrix, course)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    if not matrix.m[:, s].any():
        assert not got.any()


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
    first_virgin=st.integers(min_value=0, max_value=11),
    rng_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(matrix=CROWDED_CITY, beta=1e6, variant="as_printed", infected=ONE_VIRGIN, recovered=np.zeros(12),
         first_virgin=3, rng_seed=0)
@example(matrix=CROWDED_CITY, beta=1e6, variant="no_inner_s", infected=TWO_VIRGIN, recovered=np.zeros(12),
         first_virgin=3, rng_seed=0)
def test_introduce_reads_the_state_and_draws_one_uniform_per_location(
    matrix, beta, variant, infected, recovered, first_virgin, rng_seed
):
    # a mix of virgin, infected and burned-out (I = 0 < R) locations, of
    # which a run asks about the virgin ones; it asks only while there is
    # one, here location first_virgin
    n = matrix.n
    N = matrix.populations.astype(float)
    I = np.minimum(infected[:n], N)
    R = recovered[:n].copy()
    I[first_virgin % n] = R[first_virgin % n] = 0.0
    virgin = np.flatnonzero((I == 0.0) & (R == 0.0))
    x = I / N
    before = (x.tobytes(), virgin.tobytes())
    rng = np.random.default_rng(rng_seed)
    clone = np.random.default_rng(rng_seed)
    params = EpidemicParams(beta=beta, gamma=0.5, hazard_variant=variant)

    hits = engine.introduce(x, virgin, matrix, params.course(matrix.populations), rng)

    assert (x.tobytes(), virgin.tobytes()) == before
    assert np.all(np.diff(hits) > 0) and np.isin(hits, virgin).all()
    clone.random(n)
    assert rng.bit_generator.state == clone.bit_generator.state


def copying_reference(matrix, params, seed_rule, rng_seed):
    """One run that builds new S, I and R arrays every day, computes the
    printed hazard of every location and draws n uniforms every day,
    virgin locations or not; returns what run_simulation reports."""
    rng = np.random.default_rng(rng_seed)
    n = matrix.n
    N = matrix.populations.astype(float)
    S, I, R = N.copy(), np.zeros(n), np.zeros(n)
    onset = np.full(n, -1, dtype=np.int64)
    seed_loc = seed_outbreak(matrix, seed_rule, rng)
    I[seed_loc], S[seed_loc], onset[seed_loc] = 1.0, N[seed_loc] - 1.0, 0
    rows = [(S.sum(), I.sum(), R.sum(), np.count_nonzero(onset >= 0) / n)]
    for day in range(1, params.horizon + 1):
        if rows[-1][1] < params.extinction_threshold:
            break
        h = printed_hazard(matrix, params, S, I)
        u = rng.random(n)
        new_inf = np.minimum(params.beta * S * I / N, S)
        recov = params.gamma * I
        new_S, new_I, new_R = S - new_inf, I + new_inf - recov, R + recov
        for arr in (new_S, new_I):
            neg = arr < 0.0
            new_R[neg] += arr[neg]
            arr[neg] = 0.0
        # virgin by compartments, not by onset day as the engine reads it
        hits = (I == 0.0) & (R == 0.0) & (u < h)
        new_I[hits] = 1.0
        new_S[hits] = N[hits] - 1.0
        onset[hits] = day
        S, I, R = new_S, new_I, new_R
        rows.append((S.sum(), I.sum(), R.sum(), np.count_nonzero(onset >= 0) / n))
    total_S, total_I, total_R, frac = (np.array(col) for col in zip(*rows))
    total_pop = float(matrix.populations.sum())
    return {
        "prevalence": total_I / total_pop,
        "frac_locations": frac,
        "total_S": total_S,
        "total_I": total_I,
        "total_R": total_R,
        "onset_days": onset,
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
    sibling = ContactMatrix(m=matrix.m * share, populations=matrix.populations, table=matrix.table)
    for order in (runs, runs[::-1]):
        params = EpidemicParams(beta=beta, gamma=gamma, horizon=horizon, hazard_variant=variant)
        for on_sibling, rng_seed in order:
            m = sibling if on_sibling else matrix
            assert_matches(run_simulation(m, params, "proportional", rng_seed),
                           copying_reference(m, params, "proportional", rng_seed))
        assert params.course(matrix.populations) is params.course(sibling.populations)


@settings(max_examples=20)
@given(
    beta=st.floats(1.0, 4.0),
    gamma=st.floats(0.1, 0.5),
    variant=st.sampled_from(HAZARD_VARIANTS),
    populations=hnp.arrays(float, 5, elements=st.floats(2000.0, 5000.0)),
    seeds=st.tuples(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=0, max_value=4)),
)
def test_totals_read_after_the_table_grows_are_the_stepped_ones(beta, gamma, variant, populations, seeds):
    # a short run, then a longer one on the same params, which reallocates
    # the course table's store; only then are the first run's S and R
    # totals gathered. The short run has one case at a location of one
    # person, cut off from the others, and dies out while I = (1 - gamma)^t
    # is at least 1e-3; the long one spreads over five locations of
    # thousands, and falls from a peak above that.
    rng_seed, seed_loc = seeds
    matrix = matrix_from_flows(np.full((6, 6), 50.0), populations=np.concatenate(([POPULATION_FLOOR], populations)))
    isolated = matrix.with_entry_counts(np.zeros(matrix.entries[0].size, dtype=np.int64))
    params = EpidemicParams(beta=beta, gamma=gamma, horizon=400, hazard_variant=variant)
    table = params.course(matrix.populations)
    short = run_simulation(isolated, params, 0, rng_seed)
    store = table._store
    long = run_simulation(matrix, params, 1 + seed_loc, rng_seed)
    assert table._store is not store and len(long) > len(short)
    assert_matches(short, copying_reference(isolated, params, 0, rng_seed))
    assert_matches(long, copying_reference(matrix, params, 1 + seed_loc, rng_seed))


@given(
    days=st.integers(min_value=1, max_value=8),
    n=st.integers(min_value=1, max_value=5000),
    spread=st.integers(min_value=0, max_value=60),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_block_row_sums_equal_one_dimensional_sums_bit_for_bit(days, n, spread, seed):
    # a run records a chunk of days, or gathers its S and R totals, as the
    # row sums of a (days, n) block; the series must read as if each day's
    # compartment had been summed on its own, as a stepped state's row is
    rng = np.random.default_rng(seed)
    block = rng.standard_normal((days, n)) * 2.0 ** rng.integers(-spread, spread + 1, (days, n))
    record = np.empty(days + 1)
    block.sum(axis=-1, out=record[1:])
    assert record[1:].tobytes() == np.array([row.sum() for row in block]).tobytes()


def test_no_introduction_step_once_every_location_has_a_case(monkeypatch):
    # from the day every location has a case on, no uniform is drawn and no
    # hazard is computed: each day before it draws once, and the
    # generator's state after the run is its state after the last
    # introduction draw, on the day before
    n = 30
    matrix = matrix_from_flows(np.full((n, n), 0.1), populations=np.full(n, 1000.0))
    params = EpidemicParams(beta=2.0, gamma=0.1, horizon=2000)
    draws, hazards = [], []
    introduce, hazard_vector = engine.introduce, engine.hazard_vector

    def counted_introduce(x, virgin, matrix, course, rng):
        hits = introduce(x, virgin, matrix, course, rng)
        # the virgin count, the generator, and its state once that day's uniforms are drawn
        draws.append((virgin.size, rng, rng.bit_generator.state))
        return hits

    def counted_hazard_vector(x, virgin, matrix, course):
        hazards.append(virgin.size)
        return hazard_vector(x, virgin, matrix, course)

    monkeypatch.setattr(engine, "introduce", counted_introduce)
    monkeypatch.setattr(engine, "hazard_vector", counted_hazard_vector)
    series = engine.run_simulation(matrix, params, 0, 7)

    full = int(np.argmax(series.frac_locations == 1.0))
    assert series.frac_locations[full] == 1.0 and 1 < full <= 5
    assert len(series) > full + 100
    virgins, generators, states = zip(*draws)
    assert len(set(generators)) == 1
    # one introduction and one hazard on each of days 0 .. full - 1, each
    # with the day's virgin locations, and each draws
    assert len(draws) == full and list(hazards) == list(virgins)
    assert list(virgins) == [n - round(f * n) for f in series.frac_locations[:full]]
    assert all(a != b for a, b in zip(states, states[1:]))
    # the uniforms drawn on day full - 1 are the last ones
    assert generators[0].bit_generator.state == states[-1]
    monkeypatch.undo()
    assert_matches(series, copying_reference(matrix, params, 0, 7))
