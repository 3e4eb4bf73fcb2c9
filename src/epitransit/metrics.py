"""Comparison statistics between transit-driven and full-mobility runs.

Day-valued statistics follow the sign convention that negative values
mean the transit-driven simulation lags the full-mobility one.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np


class NoAdmissibleLag(ValueError):
    """Both series are too short to overlap at any allowed lag."""


def _prevalence(series) -> np.ndarray:
    return np.asarray(getattr(series, "prevalence", series), dtype=float)


def _frac_locations(run) -> np.ndarray:
    return np.asarray(getattr(run, "frac_locations", run), dtype=float)


def threshold_day(series, level: float):
    """First day the prevalence reaches level, or None if it never does."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    x = _prevalence(series)
    hits = np.nonzero(x >= level)[0]
    return int(hits[0]) if hits.size else None


def peak(series):
    """(day, magnitude) of the prevalence maximum; ties go to the earliest day."""
    x = _prevalence(series)
    if x.size == 0:
        raise ValueError("empty series")
    day = int(np.argmax(x))
    return day, float(x[day])


def situational_awareness(x, y, max_lag: int, min_overlap: int = 10) -> float:
    """One minus the lag-minimized normalized mean absolute error.

    For each integer lag in [-max_lag, max_lag] the series are compared
    over the overlap of their day ranges; overlaps shorter than
    min_overlap are disqualified to prevent degenerate alignments.
    x is the transit series, y the full-mobility series.
    """
    xa, ya = _prevalence(x), _prevalence(y)
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    best = None
    for lag in range(-max_lag, max_lag + 1):
        t0 = max(0, -lag)
        t1 = min(xa.size - 1, ya.size - 1 - lag)
        if t1 - t0 + 1 < min_overlap:
            continue
        xs = xa[t0 : t1 + 1]
        ys = ya[t0 + lag : t1 + lag + 1]
        denom = float(np.abs(xs + ys).sum())
        ratio = float(np.abs(xs - ys).sum()) / denom if denom > 0 else 0.0
        if best is None or ratio < best:
            best = ratio
    if best is None:
        raise NoAdmissibleLag(
            f"no lag in [-{max_lag}, {max_lag}] leaves an overlap of {min_overlap}+ days"
        )
    return 1.0 - best


def locations_timing(x_run, y_run, thresholds):
    """Per threshold, the day lag between runs reaching that fraction of
    ever-infected locations (full-mobility day minus transit day).

    A threshold neither-or-either side never reaches maps to None, the
    censored marker; censoring is reported, never imputed.
    """
    fx, fy = _frac_locations(x_run), _frac_locations(y_run)
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
        if not _is_real(self.level) or not 0.0 < self.level < 1.0:
            raise ValueError(f"compare level must be in (0, 1), got {self.level!r}")
        if self.max_lag is not None and not (_is_int(self.max_lag) and self.max_lag >= 0):
            raise ValueError(f"compare max_lag must be null or an integer >= 0, got {self.max_lag!r}")
        if not (_is_int(self.min_overlap) and self.min_overlap >= 1):
            raise ValueError(f"compare min_overlap must be an integer >= 1, got {self.min_overlap!r}")
        for thr in self.thresholds:
            if not _is_real(thr) or not 0.0 < thr <= 1.0:
                raise ValueError(f"compare thresholds must be in (0, 1], got {thr!r}")


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class ComparisonReport:
    """The five comparison statistics for one transit/full-mobility pair."""

    early_warning: int | None
    peak_timing: int
    peak_magnitude: float
    situational_awareness: float
    locations_timing: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "early_warning": self.early_warning,
            "peak_timing": self.peak_timing,
            "peak_magnitude": self.peak_magnitude,
            "situational_awareness": self.situational_awareness,
            "locations_timing": {repr(k): v for k, v in sorted(self.locations_timing.items())},
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ComparisonReport":
        return cls(
            early_warning=d["early_warning"],
            peak_timing=d["peak_timing"],
            peak_magnitude=d["peak_magnitude"],
            situational_awareness=d["situational_awareness"],
            locations_timing={float(k): v for k, v in d["locations_timing"].items()},
        )


def compare(x_run, y_run, config: CompareConfig | None = None) -> ComparisonReport:
    """Assemble all five statistics for a transit run x against a
    full-mobility run y.

    Day lags are full-mobility minus transit, so they come out negative
    when the transit-driven epidemic runs late.
    """
    cfg = config or CompareConfig()
    tx = threshold_day(x_run, cfg.level)
    ty = threshold_day(y_run, cfg.level)
    early = ty - tx if tx is not None and ty is not None else None
    px_day, px_mag = peak(x_run)
    py_day, py_mag = peak(y_run)
    max_lag = cfg.max_lag
    if max_lag is None:
        max_lag = max(len(_prevalence(x_run)), len(_prevalence(y_run))) // 2
    sa = situational_awareness(x_run, y_run, max_lag, cfg.min_overlap)
    return ComparisonReport(
        early_warning=early,
        peak_timing=py_day - px_day,
        peak_magnitude=px_mag / py_mag,
        situational_awareness=sa,
        locations_timing=locations_timing(x_run, y_run, cfg.thresholds),
    )
