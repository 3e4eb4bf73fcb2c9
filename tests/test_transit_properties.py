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
    LAMBDA_MAX_ITER,
    LAMBDA_TOL,
    GammaTripModel,
    InfeasibleModeShare,
    _bin_index,
    _histogram,
    calibrate,
    compute_lambda,
    gamma_pdf,
    gammaln,
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


def bin_edges(distances):
    """The edges ``_histogram`` builds for these distances."""
    n_bins = max(1, int(np.ceil(distances.max() / HISTOGRAM_BIN_KM + 1e-12)))
    return np.arange(n_bins + 1, dtype=float) * HISTOGRAM_BIN_KM


@st.composite
def distances_near_edges(draw):
    """Distances on bin edges, one ulp below or above them, and anywhere,
    up to the far side of the Earth."""
    edge = st.integers(0, 4020).map(lambda i: i * HISTOGRAM_BIN_KM)
    near = st.one_of(edge, edge.map(lambda e: np.nextafter(e, 0.0)), edge.map(lambda e: np.nextafter(e, np.inf)))
    return np.array(draw(st.lists(st.one_of(near, st.floats(0.0, 20_100.0)), min_size=1, max_size=80)))


@given(distances=distances_near_edges())
# the largest distance an exact multiple of the bin width, in the last bin
@example(distances=np.array([0.0, 5.0, 19.999999999999996, 20.0]))
# one ulp either side of an edge
@example(distances=np.array([np.nextafter(15.0, 0.0), 15.0, np.nextafter(15.0, np.inf)]))
# so far out that 16384 + 1e-12 rounds to 16384: the last edge is the
# largest distance, and it is cut back into the last bin
@example(distances=np.array([1.0, 81920.0]))
def test_division_binning_equals_searchsorted(distances):
    edges = bin_edges(distances)
    want = np.searchsorted(edges[1:-1], distances, side="right")
    assert np.array_equal(_bin_index(distances, edges), want)


def masked_gamma_pdf(d, k, theta):
    """The density as computed before it was evaluated in one pass: the
    formula gathered and scattered through a d > 0 mask."""
    d = np.atleast_1d(np.asarray(d, dtype=float))
    out = np.zeros_like(d)
    pos = d > 0
    out[pos] = np.exp((k - 1.0) * np.log(d[pos]) - d[pos] / theta - gammaln(k) - k * np.log(theta))
    if k == 1.0:
        out[~pos] = 1.0 / theta
    return out


@given(
    d=hnp.arrays(float, st.integers(1, 40), elements=st.one_of(st.just(0.0), st.floats(0.0, 20_100.0),
                                                               st.floats(0.0, 1e-300))),
    k=st.one_of(st.just(1.0), st.integers(1, 50).map(float), st.floats(1.0, 60.0)),
    theta=st.one_of(st.integers(1, 50).map(float), st.floats(1e-3, 100.0)),
)
@example(d=np.array([0.0, 0.0, 3.5]), k=1.0, theta=4.0)
@example(d=np.array([0.0, 1e-320, 7.0]), k=2.0, theta=3.0)
def test_one_pass_gamma_pdf_equals_the_masked_form_bit_for_bit(d, k, theta):
    got = gamma_pdf(d, k, theta)
    assert got.tobytes() == masked_gamma_pdf(d, k, theta).tobytes()
    assert gamma_pdf(float(d[0]), k, theta) == masked_gamma_pdf(d[0], k, theta)[0]


def looped_compute_lambda(model, distances, counts):
    """compute_lambda as it was before it formed c F and lambda F once,
    kept verbatim as the reference."""
    d = np.asarray(distances, dtype=float)
    c = np.asarray(counts, dtype=float)
    if d.size == 0 or c.sum() <= 0:
        raise ValueError("empty trip list")
    f = model.pdf(d)
    total = c.sum()
    achievable = float(c[f > 0].sum() / total)
    if model.mu > achievable + LAMBDA_TOL:
        raise InfeasibleModeShare(model.mu, achievable)

    capped = np.zeros(d.shape, dtype=bool)
    lam = 0.0
    fraction = 0.0
    for _ in range(LAMBDA_MAX_ITER):
        uncapped_mass = float((c[~capped] * f[~capped]).sum())
        if uncapped_mass <= 0.0:
            raise InfeasibleModeShare(model.mu, float(c[capped].sum() / total))
        lam = float((model.mu * total - c[capped].sum()) / uncapped_mass)
        fraction = float((c * np.minimum(1.0, lam * f)).sum() / total)
        if abs(fraction - model.mu) <= LAMBDA_TOL:
            return lam
        grew = (lam * f > 1.0) & ~capped
        if not grew.any():
            # the linear solve is exact over a stable cap set, so the
            # residual is float noise at worst
            return lam
        capped |= grew
    raise InfeasibleModeShare(model.mu, fraction)


def lambda_or_failure(solve, model, distances, counts):
    try:
        return solve(model, distances, counts)
    except InfeasibleModeShare as exc:
        return ("infeasible", exc.achievable)


@given(
    model=models,
    trips=st.integers(1, 200).flatmap(lambda n: st.tuples(
        hnp.arrays(float, n, elements=st.one_of(st.just(0.0), st.floats(0.0, 400.0))),
        hnp.arrays(float, n, elements=st.integers(0, 10**6).map(float)),
    )),
)
# a short-range model on spread trips: lambda F passes 1 on the near ones,
# so the cap set grows over several iterations
@example(model=GammaTripModel(k=1, theta=2, mu=0.9),
         trips=(np.arange(0.0, 200.0, 2.0), np.arange(1.0, 101.0)))
def test_compute_lambda_equals_the_looped_form_bit_for_bit(model, trips):
    distances, counts = trips
    assume(counts.sum() > 0)
    want = lambda_or_failure(looped_compute_lambda, model, distances, counts)
    assert lambda_or_failure(compute_lambda, model, distances, counts) == want


@given(
    matrix=cities(max_n=12, zero_rows=True),
    model=models,
    lam=st.floats(0.0, 1e4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(matrix=_SELF_FLOW_CITY, model=GammaTripModel(k=1, theta=4), lam=50.0, seed=3)
def test_thinned_matrix_carries_the_counts_its_own_gather_gives(matrix, model, lam, seed):
    sub = sample_transit_matrix(matrix, dataclasses.replace(model, lam=lam), seed)
    assert "trip_counts" in vars(sub) and "inter_location_trips" not in vars(sub)
    carried = sub.trip_counts
    assert carried.dtype == np.int64 and not carried.flags.writeable
    assert np.array_equal(carried, np.rint(sub.m.take(sub.entries[0])))
    # the trips calibration and the histogram weigh, against a gather from the n^2 counts
    index, distances = sub.entries
    off = index % (sub.n + 1) != 0
    got_distances, got_counts = sub.inter_location_trips
    assert got_counts.dtype == float
    assert np.array_equal(got_distances, distances[off]) and np.array_equal(got_counts, sub.m.take(index[off]))


@given(
    matrix=cities(max_n=12, zero_rows=True),
    kind=st.sampled_from(["zero", "positive", "mixed"]),
    dtype=st.sampled_from([np.int32, np.uint64, np.int64]),
    data=st.data(),
)
def test_entry_counts_give_what_a_dense_rebuild_gives(matrix, kind, dtype, data):
    size = matrix.entries[0].size
    low, high = {"zero": (0, 0), "positive": (1, 60), "mixed": (0, 60)}[kind]
    counts = data.draw(hnp.arrays(dtype, size, elements=st.integers(low, high)))
    sub = matrix.with_entry_counts(counts)
    # the same counts written into all n^2 cells, and every cache derived afresh
    flat = np.zeros(matrix.m.size)
    flat[matrix.entries[0]] = counts
    dense = matrix_from_flows(flat.reshape(matrix.m.shape), populations=matrix.populations, table=matrix.table)
    assert sub.m.tobytes() == dense.m.tobytes()
    for got, want in zip(sub.entries, dense.entries):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert sub.trip_counts.dtype == np.int64 and np.array_equal(sub.trip_counts, dense.trip_counts)
    assert sub.entries[1].tobytes() == matrix.distance_matrix.ravel()[sub.entries[0]].tobytes()
    if kind == "zero":
        assert sub.entries[0].size == 0 and not sub.m.any()
    if kind == "positive":
        assert np.array_equal(sub.entries[0], matrix.entries[0])
