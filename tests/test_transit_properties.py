"""Property tests: transit thinning and calibration on random small cities."""

import dataclasses

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

from epitransit.mobility import Location, LocationTable, matrix_from_flows
from epitransit.transit import GammaTripModel, InfeasibleModeShare, calibrate, sample_transit_matrix


@st.composite
def cities(draw):
    """Integer flows between locations on a coarse grid of about 11 km steps,
    so that some locations share coordinates and sit at distance 0."""
    n = draw(st.integers(min_value=2, max_value=8))
    flows = draw(hnp.arrays(np.int64, (n, n), elements=st.integers(0, 50)))
    flows[1, 0] += 1  # at least one inter-location trip to calibrate on
    steps = st.integers(0, 6)
    table = LocationTable(
        Location(f"L{i}", draw(steps) / 10.0, draw(steps) / 10.0) for i in range(n)
    )
    return matrix_from_flows(flows, table=table)


models = st.builds(
    GammaTripModel,
    k=st.integers(1, 12),
    theta=st.integers(1, 30),
    mu=st.floats(0.01, 0.99),
)


@given(
    matrix=cities(),
    model=models,
    lam=st.floats(0.0, 1e4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_thinned_counts_are_integers_within_the_full_counts(matrix, model, lam, seed):
    sub = sample_transit_matrix(matrix, dataclasses.replace(model, lam=lam), seed)
    assert np.array_equal(sub.m, np.rint(sub.m))
    assert np.all(sub.m >= 0.0)
    assert np.all(sub.m <= matrix.m)
    assert np.array_equal(sub.populations, matrix.populations)


@given(matrix=cities(), model=models)
def test_calibration_reaches_mu_or_reports_a_lower_achievable_share(matrix, model):
    off = ~np.eye(matrix.n, dtype=bool)
    counts = matrix.m[off]
    density = stats.gamma.pdf(matrix.distance_matrix[off], a=model.k, scale=model.theta)
    try:
        lam = calibrate(model, matrix).lam
    except InfeasibleModeShare as exc:
        assert exc.achievable < model.mu
        # labelling every trip of nonzero density with certainty falls short
        assert counts[density > 0].sum() / counts.sum() < model.mu + 1e-6
        return
    share = (counts * np.minimum(1.0, lam * density)).sum() / counts.sum()
    assert abs(share - model.mu) <= 1e-6
