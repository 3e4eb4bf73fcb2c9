"""Comparison statistics between transit-driven and full-mobility runs.

Day-valued statistics follow the sign convention that negative values
mean the transit-driven simulation lags the full-mobility one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .checks import is_int, is_real


class NoAdmissibleLag(ValueError):
    """Both series are too short to overlap at any allowed lag."""


def threshold_day(prevalence, level: float):
    """First day the prevalence reaches level, or None if it never does."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    return _first_day(np.asarray(prevalence, dtype=float), level)


def _first_day(a: np.ndarray, level: float):
    """First index where a >= level, or None."""
    hits = a >= level
    if not hits.size:
        return None
    day = int(hits.argmax())
    return day if hits[day] else None


def peak(prevalence):
    """(day, magnitude) of the prevalence maximum; ties go to the earliest day."""
    x = np.asarray(prevalence, dtype=float)
    if x.size == 0:
        raise ValueError("empty series")
    day = int(np.argmax(x))
    return day, float(x[day])


# Days per block of the lower bound on each lag's ratio.
_SA_BLOCK = 8
# Unit round-off of a float64 operation, and the least normal float64.
_U = np.finfo(float).eps / 2
_TINY = np.finfo(float).tiny


def situational_awareness(x, y, max_lag: int, min_overlap: int = 10) -> float:
    """One minus the lag-minimized normalized mean absolute error.

    For each integer lag in [-max_lag, max_lag] the series are compared
    over the overlap of their day ranges; overlaps shorter than
    min_overlap are disqualified to prevent degenerate alignments.
    x is the transit prevalence, y the full-mobility prevalence. A value
    that is negative, infinite or NaN raises ValueError naming its series
    and day, and so do series whose sum overflows.

    The result equals ``_lag_ratio`` minimized over every admissible lag,
    bit for bit, but only a few lags are summed (``_kept_lags``):

    - Bound. Cut each lag's overlap at every multiple of ``_SA_BLOCK``
      days of x. By the triangle inequality, sum |x - y| is at least the
      sum over blocks of |sum x - sum y|, and for values >= 0,
      sum |x + y| = sum x + sum y. Prefix sums of x and y give both for
      every lag at once: a lower bound on each lag's ratio.
    - Slack. A prefix sum is within n eps of the total T of both series,
      for n = len(x) + len(y) and eps the unit round-off, so the bound's
      numerator and denominator are within 8 (B + 1)(n + 1) eps T and
      8 (n + 1) eps T of their exact values, for B blocks. The bound
      subtracts twice the sum E of these from its numerator, and a lag
      whose denominator is not above 2 E gets no bound (it is kept).
      ``_lag_ratio``'s float is within 4 (L + 2) eps of the exact ratio,
      which is at most 1, for an overlap of L <= min(len(x), len(y))
      days. The slack is twice that, plus 8 eps for the rounding of the
      bound itself and the least normal float for underflow. So at every
      lag, the bound minus the slack is at most the float that
      ``_lag_ratio`` returns.
    - Search. ``_lag_ratio`` at the lag with the least bound is an upper
      bound U on the minimum. A lag whose bound minus slack exceeds U has
      a float ratio above U, so it is pruned. The lags left, usually just
      that one, are summed by ``_lag_ratio``, so the least of their
      ratios is the least over all lags, bit for bit.
    """
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    if min_overlap < 1:
        raise ValueError("min_overlap must be >= 1")
    xa = _checked_series(x, "transit series x")
    ya = _checked_series(y, "full-mobility series y")
    lags, lag0, upper = _kept_lags(xa, ya, max_lag, min_overlap)
    return 1.0 - min(upper if lag == lag0 else _lag_ratio(xa, ya, int(lag)) for lag in lags)


def _checked_series(values, name: str) -> np.ndarray:
    """The series as a float array; a negative, infinite or NaN value
    raises ValueError naming the series, the value and its day."""
    a = np.asarray(values, dtype=float)
    if a.size and not (a.min() >= 0.0 and a.max() < np.inf):
        day = int(np.argmin((a >= 0.0) & (a < np.inf)))
        raise ValueError(f"{name} has {float(a[day])!r} on day {day}; values must be finite and >= 0")
    return a


def _kept_lags(xa: np.ndarray, ya: np.ndarray, max_lag: int, min_overlap: int):
    """(kept, lag0, U): the admissible lags that the block bound cannot
    prune, the lag with the least bound, and ``_lag_ratio`` there. Why no
    pruned lag can hold the minimum is set out in
    ``situational_awareness``'s docstring.

    Raises NoAdmissibleLag when no lag leaves min_overlap shared days.
    """
    nx, ny = xa.size, ya.size
    lo, hi = max(-max_lag, min_overlap - nx), min(max_lag, ny - min_overlap)
    if min(nx, ny) < min_overlap or lo > hi:
        raise NoAdmissibleLag(
            f"no lag in [-{max_lag}, {max_lag}] leaves an overlap of {min_overlap}+ days"
        )
    lags = np.arange(lo, hi + 1)
    px, py = np.zeros(nx + 1), np.zeros(ny + 1)
    with np.errstate(over="ignore"):  # an overflowing sum is rejected just below
        xa.cumsum(out=px[1:])
        ya.cumsum(out=py[1:])
    total = float(px[-1] + py[-1])
    if not total < np.inf:
        raise ValueError(f"the two series sum to {total!r}, past the float64 range")
    # row k: the k-th cut of every lag's overlap x[max(0, -lag):min(nx, ny - lag)]
    grid = np.arange(0, nx + _SA_BLOCK, _SA_BLOCK)[:, None]
    cuts = np.minimum(np.maximum(grid, -lags), np.minimum(nx, ny - lags))
    px_cut, py_cut = px[cuts], py[cuts + lags]
    den = (px_cut[-1] - px_cut[0]) + (py_cut[-1] - py_cut[0])
    gap = px_cut - py_cut
    blocks = gap[1:] - gap[:-1]
    num = np.add.reduce(np.abs(blocks, out=blocks), axis=0)
    two_e = 16.0 * (grid.size + 1) * (nx + ny + 1) * _U * total  # B = grid.size - 1 blocks
    bound = np.divide(num - two_e, den, out=np.full(lags.size, -np.inf), where=den > two_e)
    lag0 = int(lags[bound.argmin()])
    upper = _lag_ratio(xa, ya, lag0)
    slack = 8.0 * (min(nx, ny) + 3) * _U + _TINY
    return lags[bound - slack <= upper], lag0, upper


def _lag_ratio(xa: np.ndarray, ya: np.ndarray, lag: int) -> float:
    """sum |x - y| / sum |x + y| over the days x[t] and y[t + lag] share,
    or 0 where the denominator is 0."""
    t0 = max(0, -lag)
    t1 = min(xa.size - 1, ya.size - 1 - lag)
    xs = xa[t0 : t1 + 1]
    ys = ya[t0 + lag : t1 + lag + 1]
    denom = float(np.abs(xs + ys).sum())
    return float(np.abs(xs - ys).sum()) / denom if denom > 0 else 0.0


def locations_timing(x_frac, y_frac, thresholds):
    """Per threshold, the day lag between two series of the fraction of
    ever-infected locations reaching it (full-mobility day minus transit
    day; x is the transit series, y the full-mobility one).

    A threshold neither-or-either side never reaches maps to None, the
    censored marker; censoring is reported, never imputed.
    """
    fx, fy = np.asarray(x_frac, dtype=float), np.asarray(y_frac, dtype=float)
    out = {}
    for thr in thresholds:
        dx, dy = _first_day(fx, thr), _first_day(fy, thr)
        out[float(thr)] = dy - dx if dx is not None and dy is not None else None
    return out


@dataclass(frozen=True)
class CompareConfig:
    level: float = 0.01
    max_lag: int | None = None  # defaults to half the longer series
    min_overlap: int = 10
    thresholds: tuple = (0.2, 0.8)

    def __post_init__(self):
        if not is_real(self.level) or not 0.0 < self.level < 1.0:
            raise ValueError(f"compare level must be in (0, 1), got {self.level!r}")
        if self.max_lag is not None and not (is_int(self.max_lag) and self.max_lag >= 0):
            raise ValueError(f"compare max_lag must be null or an integer >= 0, got {self.max_lag!r}")
        if not (is_int(self.min_overlap) and self.min_overlap >= 1):
            raise ValueError(f"compare min_overlap must be an integer >= 1, got {self.min_overlap!r}")
        if not isinstance(self.thresholds, (list, tuple)):
            raise ValueError(f"compare thresholds must be a list, got {self.thresholds!r}")
        for thr in self.thresholds:
            if not is_real(thr) or not 0.0 < thr <= 1.0:
                raise ValueError(f"compare thresholds must be in (0, 1], got {thr!r}")
        object.__setattr__(self, "thresholds", tuple(self.thresholds))


@dataclass(frozen=True)
class ComparisonReport:
    """The five comparison statistics for one transit/full-mobility pair."""

    early_warning: int | None
    peak_timing: int
    peak_magnitude: float
    situational_awareness: float
    locations_timing: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        # shallow on purpose, as in SweepResult: asdict would deep-copy every value
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["locations_timing"] = {repr(k): v for k, v in sorted(self.locations_timing.items())}
        return d


def compare(x_run, y_run, config: CompareConfig | None = None) -> ComparisonReport:
    """Assemble all five statistics for a transit run x against a
    full-mobility run y, each with ``prevalence`` and ``frac_locations``
    (a bare array, as ``perfbench/test_perfbench.py`` passes, stands for
    both). Raises ValueError if y's prevalence never rises above 0.

    Day lags are full-mobility minus transit, so they come out negative
    when the transit-driven epidemic runs late.
    """
    cfg = config or CompareConfig()
    (x, x_frac), (y, y_frac) = (
        (r, r) if isinstance(r, np.ndarray) else (r.prevalence, r.frac_locations) for r in (x_run, y_run)
    )
    tx = threshold_day(x, cfg.level)
    ty = threshold_day(y, cfg.level)
    early = ty - tx if tx is not None and ty is not None else None
    px_day, px_mag = peak(x)
    py_day, py_mag = peak(y)
    if not py_mag > 0.0:
        raise ValueError(f"full-mobility prevalence never rises above 0 (peak {py_mag})")
    max_lag = cfg.max_lag
    if max_lag is None:
        max_lag = max(len(x), len(y)) // 2
    sa = situational_awareness(x, y, max_lag, cfg.min_overlap)
    return ComparisonReport(
        early_warning=early,
        peak_timing=py_day - px_day,
        peak_magnitude=px_mag / py_mag,
        situational_awareness=sa,
        locations_timing=locations_timing(x_frac, y_frac, cfg.thresholds),
    )
