"""Property tests: transit thinning and calibration on random small cities."""

import dataclasses

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

from epitransit.mobility import LocationTable, matrix_from_flows
from epitransit.transit import GammaTripModel, InfeasibleModeShare, calibrate, sample_transit_matrix


@st.composite
def cities(draw, max_n=8, zero_rows=False):
    """Integer flows between locations on a coarse grid of about 11 km steps,
    so that some locations share coordinates and sit at distance 0. With
    ``zero_rows``, some destinations receive no trips at all."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    flows = draw(hnp.arrays(np.int64, (n, n), elements=st.integers(0, 50)))
    if zero_rows:
        flows[draw(hnp.arrays(bool, n))] = 0
    flows[1, 0] += 1  # at least one inter-location trip to calibrate on
    steps = st.integers(0, 6)
    coords = np.array([[draw(steps), draw(steps)] for _ in range(n)]) / 10.0  # (lat, lon) rows
    table = LocationTable([f"L{i}" for i in range(n)], coords[:, 0], coords[:, 1])
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


@given(
    matrix=cities(max_n=12, zero_rows=True),
    model=models,
    lam=st.floats(0.0, 1e4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_sparse_thinning_equals_dense_thinning_bit_for_bit(matrix, model, lam, seed):
    model = dataclasses.replace(model, lam=lam)
    # one binomial over all n^2 entries, diagonal and empty rows included
    probs = np.minimum(1.0, lam * model.pdf(matrix.distance_matrix))
    dense = np.random.default_rng(seed).binomial(matrix.m.astype(np.int64), probs).astype(float)
    assert np.array_equal(sample_transit_matrix(matrix, model, seed).m, dense)
    index, distances = matrix.entries
    assert index.dtype == np.int32 and np.array_equal(index, np.flatnonzero(matrix.m))
    assert np.array_equal(distances, matrix.distance_matrix.ravel()[index])
