"""Distance-based probabilistic labeling of trips as public transit.

A trip of distance d is labeled transit with probability
``min(1, lambda * F(d))`` where F is a gamma density over distance and
lambda is solved so the expected labeled fraction of inter-location
trips equals the target mode share.
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
            raise ValueError(f"shape k must be a number >= 1, got {self.k!r}")
        if not is_real(self.theta) or self.theta < 1:
            raise ValueError(f"scale theta must be a number >= 1, got {self.theta!r}")
        if not is_real(self.mu) or not 0.0 < self.mu < 1.0:
            raise ValueError(f"mode share mu must be in (0, 1), got {self.mu!r}")

    def pdf(self, d):
        return gamma_pdf(d, self.k, self.theta)


def gamma_pdf(d, k: float, theta: float):
    """Gamma density over trip distance, vectorized over d.

    d^(k-1) exp(-d/theta) / (Gamma(k) theta^k); negative distances are a
    domain error. At d = 0 the density is 1/theta for k = 1 and 0 for
    k > 1.
    """
    if k < 1 or theta <= 0:
        raise ValueError(f"require k >= 1 and theta > 0, got k={k}, theta={theta}")
    d = np.asarray(d, dtype=float)
    if np.any(d < 0):
        raise ValueError("negative distance")
    scalar = d.ndim == 0
    d = np.atleast_1d(d)
    out = np.zeros_like(d)
    pos = d > 0
    out[pos] = np.exp(
        (k - 1.0) * np.log(d[pos]) - d[pos] / theta - gammaln(k) - k * np.log(theta)
    )
    if k == 1.0:
        out[~pos] = 1.0 / theta
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


def compute_lambda(model: GammaTripModel, distances, counts, tol=1e-6, max_iter=100) -> float:
    """Solve the scaling factor so the expected labeled fraction equals mu.

    The uncapped solution is lambda = mu / (sum c_i F(d_i) / sum c_i).
    Wherever lambda * F(d) exceeds 1 the labeling probability is capped,
    so lambda is re-solved over the uncapped trips until the expectation
    sum c_i min(1, lambda F(d_i)) / sum c_i is within tol of mu.

    Raises InfeasibleModeShare when even caps cannot reach mu.
    """
    d = np.asarray(distances, dtype=float)
    c = np.asarray(counts, dtype=float)
    if d.size == 0 or c.sum() <= 0:
        raise ValueError("empty trip list")
    f = model.pdf(d)
    total = c.sum()
    achievable = float(c[f > 0].sum() / total)
    if model.mu > achievable + tol:
        raise InfeasibleModeShare(model.mu, achievable)

    capped = np.zeros(d.shape, dtype=bool)
    lam = 0.0
    fraction = 0.0
    for _ in range(max_iter):
        uncapped_mass = float((c[~capped] * f[~capped]).sum())
        if uncapped_mass <= 0.0:
            raise InfeasibleModeShare(model.mu, float(c[capped].sum() / total))
        lam = float((model.mu * total - c[capped].sum()) / uncapped_mass)
        fraction = float((c * np.minimum(1.0, lam * f)).sum() / total)
        if abs(fraction - model.mu) <= tol:
            return lam
        grew = (lam * f > 1.0) & ~capped
        if not grew.any():
            # the linear solve is exact over a stable cap set, so the
            # residual is float noise at worst
            return lam
        capped |= grew
    raise InfeasibleModeShare(model.mu, fraction)


def calibrate(model: GammaTripModel, matrix: ContactMatrix) -> GammaTripModel:
    """Fit lambda on the matrix's inter-location trips.

    Self-flows stay at distance zero and do not count toward the mode
    share; including them would make any realistic share unreachable
    because the gamma density vanishes at the origin for k > 1.
    """
    lam = compute_lambda(model, *_inter_location_trips(matrix))
    return replace(model, lam=lam)


def _inter_location_trips(matrix: ContactMatrix):
    """(distances, counts) of the nonzero off-diagonal entries, row-major."""
    index, distances = matrix.entries
    off = index % (matrix.n + 1) != 0  # diagonal flat indices are multiples of n + 1
    return distances[off], matrix.m.take(index[off])


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
    gives the same matrix as drawing over all n^2 entries. Populations
    are copied from the input matrix: the comparison is about reduced
    flows, not reduced populations. Output is bit-reproducible for a
    fixed seed.
    """
    index, distances = matrix.entries
    probs = label_probabilities(model, distances)
    values = matrix.m.take(index)
    counts = np.asarray(np.rint(values), dtype=np.int64)
    if not np.array_equal(counts, values):
        raise ValueError("matrix entries must be integer trip counts for thinning")
    rng = np.random.default_rng(rng_seed)
    kept = np.zeros(matrix.m.size)
    kept[index] = rng.binomial(counts, probs)
    return ContactMatrix(
        m=kept.reshape(matrix.m.shape),
        populations=matrix.populations.copy(),
        table=matrix.table,
        population_clamp_count=matrix.population_clamp_count,
    )


@dataclass(frozen=True)
class DistanceHistogram:
    """Count-weighted distribution of inter-location trip distances."""

    bin_edges: np.ndarray
    masses: np.ndarray
    p95_km: float


def distance_histogram(matrix: ContactMatrix, bin_km: float = 5.0) -> DistanceHistogram:
    """Normalized trip-distance histogram and 95th percentile distance.

    Weighted by trip counts over inter-location entries; self-flows are
    excluded since they carry no distance.
    """
    distances, counts = _inter_location_trips(matrix)
    if counts.size == 0:
        return DistanceHistogram(np.array([0.0, bin_km]), np.array([0.0]), 0.0)
    max_d = float(distances.max())
    n_bins = max(1, int(np.ceil(max_d / bin_km + 1e-12)))
    edges = np.arange(n_bins + 1, dtype=float) * bin_km
    hist, _ = np.histogram(distances, bins=edges, weights=counts)
    masses = hist / counts.sum()
    p95 = weighted_percentile(distances, counts, 0.95)
    return DistanceHistogram(edges, masses, p95)


def weighted_percentile(values, weights, q: float) -> float:
    """Smallest value whose cumulative weight share reaches q."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(weights[order])
    idx = int(np.searchsorted(cum, q * cum[-1], side="left"))
    return float(values[order][min(idx, values.size - 1)])
