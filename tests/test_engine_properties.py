"""Property tests: day-by-day engine invariants on random small cities."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from epitransit.engine import HAZARD_VARIANTS, CompartmentState, EpidemicParams, advance_day, sir_step
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
        stepped = sir_step(state, params)
        idle = state.I == 0.0
        for after, before in ((stepped.S, state.S), (stepped.I, state.I), (stepped.R, state.R)):
            assert after[idle].tobytes() == before[idle].tobytes()

        new = advance_day(state, matrix, params, rng)
        assert new.day == day
        assert np.all(np.abs(new.S + new.I + new.R - new.N) <= 1e-9 * new.N)
        assert np.all(new.S >= 0.0) and np.all(new.I >= 0.0)
        assert np.all(new.S <= state.S)
        assert np.all(new.R >= state.R)
        first_infected[(first_infected < 0) & (new.I > 0.0)] = day
        assert np.array_equal(new.onset_day, first_infected)
        state = new
