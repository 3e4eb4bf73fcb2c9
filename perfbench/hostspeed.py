"""A fixed reference computation that gauges how fast the host runs.

The benchmark runs on a few cores of a shared host. Neighbours slow the same
code down by 20-40 % for stretches that last from under a second to
minutes, and CPU time slows with wall time, so no clock removes it. A
computation that never changes, timed before a round's first step and after
each of its steps, slows down with the program. A run's times are scaled
by ``nominal / (mean reference time over the run)``: they become times on
the reference host, at the speed where the reference takes ``nominal``
seconds. Scaling each step by the reference times next to it followed the
host less well, since one reference time is too short a sample of the
host's speed (see README.md).

The reference is ``checks.reference_run``, the benchmark's own plain
re-implementation of the engine formulas (per-day array arithmetic and one
dense matrix-vector product per day), on a city made here with NumPy alone,
so that no change to the program changes it.
"""

from __future__ import annotations

import statistics
import time
from types import SimpleNamespace

import numpy as np

import checks

REFERENCE_SEED = 20180427


def reference_city(n: int):
    """A fixed n-location city: trip matrix and populations, from NumPy alone."""
    rng = np.random.default_rng((REFERENCE_SEED, n))
    xy = rng.uniform(0.0, 40.0, size=(n, 2))
    pop = rng.integers(2_000, 40_000, size=n).astype(float)
    d = np.hypot(*(xy[:, None, :] - xy[None, :, :]).transpose(2, 0, 1))
    m = np.floor(1e-4 * np.outer(pop, pop) / (1.0 + d) ** 2)
    np.fill_diagonal(m, pop)
    return m, pop


class Reference:
    """Times ``runs`` 60-day reference runs on an n-location city, for each
    (n, runs) in ``sizes``.

    ``nominal`` is the time the whole reference takes on the reference host
    (see README.md); it only fixes the unit, seconds.
    """

    def __init__(self, sizes: tuple, nominal: float):
        self.cities = [(reference_city(n), runs) for n, runs in sizes]
        # beta > gamma and a zero extinction threshold: every run lasts the
        # full 60 days, and no value gets small enough to slow arithmetic
        self.params = SimpleNamespace(
            beta=0.6, gamma=0.25, horizon=60, extinction_threshold=0.0, hazard_variant="as_printed"
        )
        self.nominal = nominal

    def time(self) -> float:
        t0 = time.perf_counter()
        for (m, pop), runs in self.cities:
            for _ in range(runs):
                checks.reference_run(m, pop, self.params, 0, REFERENCE_SEED)
        return time.perf_counter() - t0

    def scale(self, refs: list) -> float:
        """Factor from this host's times to the reference host's, given the
        reference times taken during a run."""
        return self.nominal / statistics.fmean(refs)
