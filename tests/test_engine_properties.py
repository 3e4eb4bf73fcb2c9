"""Property tests: day-by-day engine invariants on random small cities, and
the in-place engine against a reference that copies the state every day."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
    expected = copying_reference(matrix, params, "proportional", rng_seed)
    for name, value in expected.items():
        got = getattr(series, name)
        if isinstance(value, np.ndarray):
            assert got.dtype == value.dtype and got.tobytes() == value.tobytes(), name
        else:
            assert got == value, name
