"""Distance-based probabilistic labeling of trips as public transit.

A trip of distance d is labeled transit with probability
``min(1, lambda * F(d))`` where F is a gamma density over distance and
lambda is solved so the expected labeled fraction of inter-location
trips equals the target mode share.

The layer works on a matrix's stored nonzero entries and never reads its
dense ``m``: ``ContactMatrix.entries`` (the stored flat indices and their
distances) and ``ContactMatrix.trip_counts`` (the stored counts, checked
once per matrix to be whole trips) feed thinning, and
``ContactMatrix.inter_location_trips`` (the off-diagonal distances and
counts, derived from them once per matrix) feeds calibration and the
distance histogram. The histogram bins those trips once, by division,
for both its masses and its 95th percentile. A thinned matrix is stored
as the entries it keeps and is born with their distances and counts: its
nonzeros are a subset of the entries of the matrix it was drawn from,
and its counts are the binomial draws kept there. Its dense ``m`` is
built when the engine first reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .checks import is_real
from .mobility import ContactMatrix

DELTA_BANDS = {
    "low": (10.0, 20.0),
    "mediate": (30.0, 40.0),
    "high": (50.0, 60.0),
}

DEFAULT_K_RANGE = (2, 50)
DEFAULT_THETA_RANGE = (1, 50)
DEFAULT_MODE_SHARE = 0.35
LAMBDA_TOL = 1e-6  # absolute distance to the mode share at which calibration stops
LAMBDA_MAX_ITER = 100
HISTOGRAM_BIN_KM = 5.0


class InfeasibleModeShare(RuntimeError):
    """The target mode share cannot be reached even with capped probabilities."""

    def __init__(self, target: float, achievable: float):
        self.target = target
        self.achievable = achievable
        super().__init__(
            f"mode share {target} infeasible; achievable maximum is {achievable:.6g}"
        )


@dataclass(frozen=True)
class DeltaBand:
    """Target range for the mean transit trip distance, in km."""

    label: str
    km_min: float
    km_max: float

    @classmethod
    def from_label(cls, label: str) -> "DeltaBand":
        if not isinstance(label, str) or label not in DELTA_BANDS:
            raise ValueError(f"unknown band {label!r}; expected one of {sorted(DELTA_BANDS)}")
        lo, hi = DELTA_BANDS[label]
        return cls(label, lo, hi)

    def contains(self, value: float) -> bool:
        return self.km_min <= value <= self.km_max


@dataclass(frozen=True)
class GammaTripModel:
    """Gamma distance model with a mode-share scaling factor.

    ``lam`` is solved by calibration, never set by hand; it stays None
    until ``calibrate`` runs.
    """

    k: float
    theta: float
    mu: float = DEFAULT_MODE_SHARE
    lam: float | None = None

    def __post_init__(self):
        if not is_real(self.k) or self.k < 1:
            raise ValueError(f"shape k must be a finite number >= 1, got {self.k!r}")
        if not is_real(self.theta) or self.theta < 1:
            raise ValueError(f"scale theta must be a finite number >= 1, got {self.theta!r}")
        if not is_real(self.mu) or not 0.0 < self.mu < 1.0:
            raise ValueError(f"mode share mu must be in (0, 1), got {self.mu!r}")

    def pdf(self, d):
        return gamma_pdf(d, self.k, self.theta)


def gamma_pdf(d, k: float, theta: float):
    """Gamma density over trip distance, vectorized over d.

    d^(k-1) exp(-d/theta) / (Gamma(k) theta^k); negative distances are a
    domain error. At d = 0 the density is 1/theta for k = 1 and 0 for
    k > 1.

    The formula is evaluated on the whole array in one pass. At d = 0,
    log d = -inf, so for k > 1 the exponent is -inf and the density the
    exact 0; for k = 1 it is 0 * -inf = NaN, and those entries are then
    set to 1/theta.
    """
    if k < 1 or theta <= 0:
        raise ValueError(f"require k >= 1 and theta > 0, got k={k}, theta={theta}")
    d = np.asarray(d, dtype=float)
    if np.any(d < 0):
        raise ValueError("negative distance")
    scalar = d.ndim == 0
    d = np.atleast_1d(d)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.exp((k - 1.0) * np.log(d) - d / theta - gammaln(k) - k * np.log(theta))
    if k == 1.0:
        out[d == 0] = 1.0 / theta
    return float(out[0]) if scalar else out


# Coefficients of the Cephes Math Library's lgam (S. L. Moshier), which
# scipy.special.gammaln evaluates: a rational fit of log Gamma on [2, 3]
# and a Stirling series.
_LGAM_B = (
    -1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
    -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5,
)
_LGAM_C = (
    1.0, -3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
    -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6,
)
_LGAM_A = (
    8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
    -2.77777777730099687205e-3, 8.33333333333331927722e-2,
)
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))
_MAXLGM = 2.556348e305


def _polevl(x: float, coefs) -> float:
    """coefs[0] x^n + ... + coefs[n] by Horner's rule."""
    ans = 0.0
    for c in coefs:
        ans = ans * x + c
    return ans


def gammaln(x: float) -> float:
    """log Gamma(x) for x >= 1, as Cephes' lgam computes it, so the value
    equals scipy.special.gammaln's bit for bit. A non-finite x is returned
    as it is."""
    if not math.isfinite(x):
        return x
    if x < 1.0:
        raise ValueError(f"gammaln is implemented for x >= 1, got {x!r}")
    if x < 13.0:
        # shift into [2, 3) by the recurrence Gamma(x+1) = x Gamma(x)
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        x = x + (p - 2.0)
        return math.log(z) + x * _polevl(x, _LGAM_B) / _polevl(x, _LGAM_C)
    if x > _MAXLGM:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        series = (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p + 0.0833333333333333333333
        return q + series / x
    return q + _polevl(p, _LGAM_A) / x


def enumerate_param_pairs(band: DeltaBand, k_range=DEFAULT_K_RANGE, theta_range=DEFAULT_THETA_RANGE):
    """All integer (k, theta) whose mean k*theta falls in the closed band.

    Returned in ascending (k, theta) order. An empty result is legal;
    ``runner.plan_cells`` logs it.
    """
    pairs = []
    for k in range(int(k_range[0]), int(k_range[1]) + 1):
        for theta in range(int(theta_range[0]), int(theta_range[1]) + 1):
            if band.contains(k * theta):
                pairs.append((k, theta))
    return pairs


def compute_lambda(model: GammaTripModel, distances, counts) -> float:
    """Solve the scaling factor so the expected labeled fraction equals mu.

    The uncapped solution is lambda = mu / (sum c_i F(d_i) / sum c_i).
    Wherever lambda * F(d) exceeds 1 the labeling probability is capped,
    so lambda is re-solved over the uncapped trips until the expectation
    sum c_i min(1, lambda F(d_i)) / sum c_i is within LAMBDA_TOL of mu.

    Raises InfeasibleModeShare when even caps cannot reach mu.

    The products c_i F(d_i) are formed once, and lambda F(d_i) once per
    iteration, for both the cap test and the fraction. Each sum adds the
    same products in the same order as summing c[~capped] * F[~capped]
    and c * min(1, lambda F) afresh would, so lambda is the same float.
    A selection that would keep every element is skipped: ``c[F > 0]``
    when every density is positive, and the uncapped and capped trips
    before any is capped (the capped sum of no trips is 0). The sum then
    runs over the same contiguous values in the same order.
    """
    d = np.asarray(distances, dtype=float)
    # contiguous, so that a sum over all of c adds as one over a selection of it does
    c = np.ascontiguousarray(counts, dtype=float)
    if d.size == 0 or c.sum() <= 0:
        raise ValueError("empty trip list")
    f = model.pdf(d)
    total = c.sum()
    positive = f > 0
    achievable = float((c if positive.all() else c[positive]).sum() / total)
    if model.mu > achievable + LAMBDA_TOL:
        raise InfeasibleModeShare(model.mu, achievable)

    cf = c * f
    capped = None  # no trip is capped before the first solve
    lam = 0.0
    fraction = 0.0
    for _ in range(LAMBDA_MAX_ITER):
        if capped is None:
            uncapped_mass, capped_mass = float(cf.sum()), 0.0
        else:
            uncapped = ~capped
            uncapped_mass, capped_mass = float(cf[uncapped].sum()), c[capped].sum()
        if uncapped_mass <= 0.0:
            raise InfeasibleModeShare(model.mu, float(capped_mass / total))
        lam = float((model.mu * total - capped_mass) / uncapped_mass)
        p = lam * f
        grew = p > 1.0
        if capped is not None:
            grew &= uncapped
        np.minimum(p, 1.0, out=p)
        p *= c
        fraction = float(p.sum() / total)
        if abs(fraction - model.mu) <= LAMBDA_TOL:
            return lam
        if not grew.any():
            # the linear solve is exact over a stable cap set, so the
            # residual is float noise at worst
            return lam
        capped = grew if capped is None else capped | grew
    raise InfeasibleModeShare(model.mu, fraction)


def calibrate(model: GammaTripModel, matrix: ContactMatrix) -> GammaTripModel:
    """Fit lambda on the matrix's inter-location trips.

    Self-flows stay at distance zero and do not count toward the mode
    share; including them would make any realistic share unreachable
    because the gamma density vanishes at the origin for k > 1.
    """
    lam = compute_lambda(model, *matrix.inter_location_trips)
    return replace(model, lam=lam)


def label_probabilities(model: GammaTripModel, distances) -> np.ndarray:
    """Per-trip transit labeling probabilities min(1, lambda * F(d))."""
    if model.lam is None:
        raise ValueError("model.lam is unset; run calibrate() first")
    return np.minimum(1.0, model.lam * model.pdf(distances))


def sample_transit_matrix(matrix: ContactMatrix, model: GammaTripModel, rng_seed) -> ContactMatrix:
    """Binomially thin each OD entry with its labeling probability.

    Each of the c trips on an entry is kept independently, so the kept
    count is Binomial(c, min(1, lambda F(d))). Self-flow trips sit at
    d = 0. Draws are made over the nonzero entries only, in row-major
    order: a Binomial(0, p) draw consumes no random numbers, so this
    gives the same matrix as drawing over all n^2 entries. The counts are
    the input's ``trip_counts``, checked once per matrix. The thinned
    matrix is stored as its kept entries and born with its ``entries`` and
    ``trip_counts``, the draws there (see
    ``ContactMatrix.with_entry_counts``), so thinning, its histogram and
    its calibration build no n^2 array. It
    shares the input matrix's read-only populations: the comparison is
    about reduced flows, not reduced populations. Output is
    bit-reproducible for a fixed seed.
    """
    probs = label_probabilities(model, matrix.entries[1])
    counts = matrix.trip_counts
    rng = np.random.default_rng(rng_seed)
    return matrix.with_entry_counts(rng.binomial(counts, probs))


def distance_histogram(matrix: ContactMatrix) -> dict:
    """Trip-distance histogram in HISTOGRAM_BIN_KM bins, and 95th percentile.

    Weighted by trip counts over inter-location entries; self-flows are
    excluded since they carry no distance. Reads the matrix's cached
    ``inter_location_trips``, which a thinned matrix derives from the
    entries and counts it was born with: its histogram reads no dense
    ``m`` and evaluates no haversine.

    Returns the dict a sweep stores and exports:
    ``{"bin_edges": [...], "masses": [...], "p95_km": float}``. A matrix
    with no inter-location trip gives one empty bin and a p95 of 0.
    """
    distances, counts = matrix.inter_location_trips
    if counts.size == 0:
        return {"bin_edges": [0.0, HISTOGRAM_BIN_KM], "masses": [0.0], "p95_km": 0.0}
    edges, masses, p95 = _histogram(distances, counts)
    return {"bin_edges": edges.tolist(), "masses": masses.tolist(), "p95_km": p95}


def _histogram(distances: np.ndarray, counts: np.ndarray):
    """(bin edges, masses, 95th percentile) of distances weighted by
    counts, from one binning.

    The edges are multiples of HISTOGRAM_BIN_KM from 0 past the largest
    distance. A distance d goes to bin ``searchsorted(edges[1:-1], d,
    side="right")``, NumPy's own histogram rule: bins closed on the left,
    the largest value in the last bin, found by division
    (``_bin_index``). The domain is non-negative finite distances, and
    non-negative integer counts of positive sum below 2**53, so every
    bin total is exact in any order and the masses equal NumPy's
    histogram's bit for bit.

    The percentile is the distance at the first position where the
    cumulative count of the stably sorted distances reaches 0.95 of the
    total. Bins are monotone in the distance, so that sort keeps each
    bin's distances together and in bin order: the cumulative bin totals
    locate the bin that holds that share, and only that bin is stably
    sorted.
    """
    lo, hi = float(distances.min()), float(distances.max())
    if not (lo >= 0.0 and hi < np.inf):
        raise ValueError("distance histogram requires non-negative finite distances")
    n_bins = max(1, int(np.ceil(hi / HISTOGRAM_BIN_KM + 1e-12)))
    edges = np.arange(n_bins + 1, dtype=float) * HISTOGRAM_BIN_KM
    bins = _bin_index(distances, edges)
    totals = np.bincount(bins, weights=counts, minlength=n_bins)
    cum = np.cumsum(totals)
    target = 0.95 * cum[-1]
    # target > 0, so the bin found holds trips
    b = int(np.searchsorted(cum, target, side="left"))
    in_b = bins == b
    members = distances[in_b]
    order = np.argsort(members, kind="stable")
    in_bin = np.cumsum(counts[in_b][order])
    if b > 0:
        in_bin += cum[b - 1]
    idx = int(np.searchsorted(in_bin, target, side="left"))
    return edges, totals / cum[-1], float(members[order][idx])


def _bin_index(distances: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """``searchsorted(edges[1:-1], distances, side="right")`` for edges
    that are the multiples of HISTOGRAM_BIN_KM from 0 and distances
    d >= 0, found by division: floor(d / HISTOGRAM_BIN_KM), cut at the
    last bin, which holds the largest distance.

    The floor is exact. Every edge k w (w = HISTOGRAM_BIN_KM = 5) is a
    float, so a distance could only land one bin high by a quotient that
    rounds up onto k from a d just below k w. That needs d within
    2.5 ulp(k) of k w, but the floats below k w are ulp(5k) >= 4 ulp(k)
    apart, so no such d exists. A check of the 64 floats below each edge
    up to 2**20 bins found none.
    """
    bins = (distances / HISTOGRAM_BIN_KM).astype(np.intp)
    return np.minimum(bins, edges.size - 2, out=bins)
