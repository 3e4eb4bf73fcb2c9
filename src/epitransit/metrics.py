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
    x = np.asarray(prevalence, dtype=float)
    hits = np.nonzero(x >= level)[0]
    return int(hits[0]) if hits.size else None


def peak(prevalence):
    """(day, magnitude) of the prevalence maximum; ties go to the earliest day."""
    x = np.asarray(prevalence, dtype=float)
    if x.size == 0:
        raise ValueError("empty series")
    day = int(np.argmax(x))
    return day, float(x[day])


# Far wider than the round-off between the one-pass and the per-lag sums.
_SA_CANDIDATE_RTOL = 1e-9


def situational_awareness(x, y, max_lag: int, min_overlap: int = 10) -> float:
    """One minus the lag-minimized normalized mean absolute error.

    For each integer lag in [-max_lag, max_lag] the series are compared
    over the overlap of their day ranges; overlaps shorter than
    min_overlap are disqualified to prevent degenerate alignments.
    x is the transit prevalence, y the full-mobility prevalence.

    Every admissible lag's ratio is first computed in one array pass.
    Only the lags within a relative 1e-9 of that pass's minimum are then
    summed again one by one, in ``_lag_ratio``'s order. Both sums run
    over non-negative terms, so they differ by round-off of about L eps
    relative for L terms. The true minimizing lag is therefore always
    summed again, and the result equals a loop over every lag bit for
    bit.
    """
    xa, ya = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    if min_overlap < 1:
        raise ValueError("min_overlap must be >= 1")
    nx, ny = xa.size, ya.size
    # only lags in [1 - nx, ny - 1] leave any overlap
    lags = np.arange(max(-max_lag, 1 - nx), min(max_lag, ny - 1) + 1)
    lags = lags[np.minimum(nx, ny - lags) - np.maximum(0, -lags) >= min_overlap]
    if lags.size == 0:
        raise NoAdmissibleLag(
            f"no lag in [-{max_lag}, {max_lag}] leaves an overlap of {min_overlap}+ days"
        )
    ratios = _lag_ratios(xa, ya, lags)
    candidates = lags[ratios <= ratios.min() * (1.0 + _SA_CANDIDATE_RTOL)]
    return 1.0 - min(_lag_ratio(xa, ya, int(lag)) for lag in candidates)


def _lag_ratio(xa: np.ndarray, ya: np.ndarray, lag: int) -> float:
    """sum |x - y| / sum |x + y| over the days x[t] and y[t + lag] share,
    or 0 where the denominator is 0."""
    t0 = max(0, -lag)
    t1 = min(xa.size - 1, ya.size - 1 - lag)
    xs = xa[t0 : t1 + 1]
    ys = ya[t0 + lag : t1 + lag + 1]
    denom = float(np.abs(xs + ys).sum())
    return float(np.abs(xs - ys).sum()) / denom if denom > 0 else 0.0


def _lag_ratios(xa: np.ndarray, ya: np.ndarray, lags: np.ndarray) -> np.ndarray:
    """``_lag_ratio`` for all of ``lags`` at once, each in [1 - nx, ny - 1],
    up to round-off.

    Row i holds y shifted by lags[i] against x, padded with zeros that a
    mask leaves out of the sums.
    """
    nx, ny = xa.size, ya.size
    padded = np.zeros(2 * nx + ny)
    padded[nx : nx + ny] = ya
    inside = np.zeros(padded.size, dtype=bool)
    inside[nx : nx + ny] = True
    rows = nx + lags
    shifted = np.lib.stride_tricks.sliding_window_view(padded, nx)[rows]
    mask = np.lib.stride_tricks.sliding_window_view(inside, nx)[rows]
    num = np.add.reduce(np.abs(xa - shifted), axis=1, where=mask)
    den = np.add.reduce(np.abs(xa + shifted), axis=1, where=mask)
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0)


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
        dx = np.nonzero(fx >= thr)[0]
        dy = np.nonzero(fy >= thr)[0]
        out[float(thr)] = int(dy[0]) - int(dx[0]) if dx.size and dy.size else None
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
