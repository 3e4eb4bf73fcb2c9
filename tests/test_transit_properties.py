"""Property tests: transit thinning, calibration and the distance
histogram, on random small cities and random weighted samples."""

import dataclasses

import numpy as np
from hypothesis import assume, example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

from epitransit.mobility import LocationTable, matrix_from_flows
from epitransit.transit import (
    HISTOGRAM_BIN_KM,
    GammaTripModel,
    InfeasibleModeShare,
    _histogram,
    calibrate,
    sample_transit_matrix,
)


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


# three locations, two of them at the same coordinates, with self-flows
_SELF_FLOW_CITY = matrix_from_flows(
    np.array([[7, 3, 0], [2, 5, 4], [0, 6, 9]]),
    table=LocationTable(["L0", "L1", "L2"], [0.0, 0.0, 0.3], [0.0, 0.0, 0.2]),
)


@given(
    matrix=cities(max_n=12, zero_rows=True),
    model=models,
    lam=st.floats(0.0, 1e4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
# k = 1 keeps every self-flow at d = 0 once lambda >= theta; lambda = 0 keeps nothing
@example(matrix=_SELF_FLOW_CITY, model=GammaTripModel(k=1, theta=4), lam=50.0, seed=3)
@example(matrix=_SELF_FLOW_CITY, model=GammaTripModel(k=3, theta=4), lam=0.0, seed=3)
def test_sparse_thinning_equals_dense_thinning_bit_for_bit(matrix, model, lam, seed):
    model = dataclasses.replace(model, lam=lam)
    # one binomial over all n^2 entries, diagonal and empty rows included
    probs = np.minimum(1.0, lam * model.pdf(matrix.distance_matrix))
    dense = np.random.default_rng(seed).binomial(matrix.m.astype(np.int64), probs).astype(float)
    sub = sample_transit_matrix(matrix, model, seed)
    assert np.array_equal(sub.m, dense)
    index, distances = matrix.entries
    assert index.dtype == np.int32 and np.array_equal(index, np.flatnonzero(matrix.m))
    assert np.array_equal(distances, matrix.distance_matrix.ravel()[index])
    # the thinned matrix is born with the entries a recomputation from its counts gives
    assert "entries" in vars(sub)
    sub_index, sub_distances = sub.entries
    assert sub_index.dtype == np.int32 and np.array_equal(sub_index, np.flatnonzero(sub.m))
    assert np.array_equal(sub_distances, sub.distance_matrix.ravel()[sub_index])
    assert not (sub_index.flags.writeable or sub_distances.flags.writeable)
    if lam == 0.0:
        assert sub_index.size == 0
    if model.k == 1 and lam >= model.theta:
        assert np.array_equal(np.diagonal(sub.m), np.diagonal(matrix.m))


def stable_sort_percentile(values, weights, q):
    """The reference: the value at the first position where the cumulative
    weight of the stably sorted values reaches q of the total, else the last."""
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(weights[order])
    idx = int(np.searchsorted(cum, q * cum[-1], side="left"))
    return float(values[order][min(idx, values.size - 1)])


# each draw takes its distances from one of these: spread over many bins,
# on exact bin edges, inside one bin, or as far apart as places on Earth
_DISTANCE_KINDS = (
    st.floats(0.0, 200.0),
    st.integers(0, 40).map(lambda i: i * HISTOGRAM_BIN_KM),
    st.floats(0.0, HISTOGRAM_BIN_KM, exclude_max=True),
    st.floats(0.0, 20_100.0),
)


@st.composite
def weighted_distances(draw):
    kind = draw(st.sampled_from(_DISTANCE_KINDS))
    pool = draw(st.lists(kind, min_size=1, max_size=4))  # distances drawn again from here are ties
    distances = draw(st.lists(st.one_of(kind, st.sampled_from(pool)), min_size=1, max_size=60))
    counts = draw(st.lists(st.integers(0, 10**6), min_size=len(distances), max_size=len(distances)))
    return np.array(distances), np.array(counts, dtype=float)


@given(sample=weighted_distances())
@example(sample=(np.array([5.0, 10.0, 10.0, 0.0, 15.0]), np.array([1.0, 2.0, 0.0, 3.0, 4.0])))
@example(sample=(np.array([5.0, 5.0, 0.0]), np.array([0.0, 19.0, 1.0])))
def test_one_pass_histogram_equals_np_histogram_and_a_stable_sort(sample):
    distances, counts = sample
    assume(counts.sum() > 0)
    edges, masses, p95 = _histogram(distances, counts)
    assert edges[0] == 0.0 and edges[-1] >= distances.max()
    assert np.array_equal(edges, np.arange(edges.size) * HISTOGRAM_BIN_KM)
    assert np.array_equal(masses, np.histogram(distances, edges, weights=counts)[0] / counts.sum())
    assert p95 == stable_sort_percentile(distances, counts, 0.95)
