"""Metapopulation SIR dynamics with stochastic inter-location introductions.

One time step is one day, matching the daily contact matrix. Locations
that have never seen a case are "virgin": each day one of them becomes
infected with the outbreak hazard

    h(t, j) = beta * S_j * (1 - exp(-sum_k m[j,k] * x_k * S_j)) / (1 + beta * S_j)

where x_k = I_k / N_k and the sum runs over k != j. The inner S_j factor
is kept as printed (the default), with a conventional alternative
selectable via ``hazard_variant="no_inner_s"`` for sensitivity checks.
Locations with cases evolve deterministically:

    S' = S - min(beta*S*I/N, S),  I' = I + min(beta*S*I/N, S) - gamma*I,  R' = R + gamma*I

Only the hazard couples the locations, and ``sir_step`` is elementwise,
so a location's S, I and R depend only on its N and on the days since its
onset. A ``CourseTable`` holds them for every location of one populations
array: a pre-onset row (S = N, I = R = 0), then the ages 0, 1, ... after
seeding. Age 0 is the (3, n) block in which every location is seeded
that day (S = N - 1, I = 1, R = 0), and each later row is a copy of the
row before it, advanced in place by ``sir_step``. So a run steps no
state. It keeps its onset days and, per location, one flat index into
the table's I plane: the pre-onset row while the location is virgin,
then one row (3n elements) further each day from its onset on. Every
day of a run is one ``np.take`` of the n infecteds and one sum, which
adds the same numbers in the same order as the I row sum of a stepped
(3, n) block, so it is the same to the bit.

A day while some location is virgin (``advance_day``) draws the hits
from the day-t infecteds (``introduce``), moves every seeded location one
row on, and records the hits as onsets on day t+1. The draw reads day-t
values only, so this is an exact simultaneous update. The hazard
(``hazard_vector``) is computed on the virgin rows only, where the
printed formula needs neither its self term nor a guard:

- x_j = 0 on a virgin row and m[j,j] is finite and >= 0, so the self term
  m[j,j] * x_j is +0.0, and subtracting it changes no bit of the sum;
- S_j = N_j on a virgin row, so beta * S_j and 1 + beta * S_j are the
  table's ``beta_N`` and ``one_plus_beta_N``;
- no clip and no overflow guard: the inner sum is >= 0, since m and x
  are, so 1 - exp(-inner) lies in [0, 1]; beta * N is finite
  (``check_scale``); and the rounded beta*N*(1 - exp(-inner)) is at most
  beta*N, which is at most the rounded 1 + beta*N, so h lies in [0, 1];
- one column while one location s has a case, as on day 0 of every run:
  every other x_k is that of a virgin location, 0, so each term
  m[j,k] * x_k of a virgin row's sum but m[j,s] * x_s is +0.0. Adding
  +0.0 to a finite sum >= 0 changes no bit, so the row's sum is the
  rounded m[j,s] * x_s in whatever order BLAS adds, and (with a fused
  multiply-add too) the column ``m[virgin, s] * x[s]`` is the matrix
  product's exposure, bit for bit, without an n x n product.

A location is virgin iff its onset day is -1. Once no location is
virgin, nothing more is drawn, and the run reads the rest of its
infecteds from the table in fixed chunks of days (``_read_course``). A run
keeps only its onsets and its total I day by day. Its fraction of
locations with a case comes from its onsets; its S and R totals are
gathered from the table, and its final size is derived from total S,
when first read. The table grows only as far as runs read it and is kept on
the ``EpidemicParams`` for one populations array
(``EpidemicParams.course``), so every run of a sweep with those params
shares it: thinned matrices share their parent's populations. A table
belongs to one parameter set, the params it was built for: it steps its
rows with them, and the per-day code of a run (``advance_day``,
``introduce``, ``hazard_vector``, ``_read_course``) takes the table
alone and reads those params from it.

``sir_step`` needs no clamp: S and I never go below zero. New infections
are capped at S; recoveries gamma*I are at most I since gamma <= 1, and
I + new infections is at least I; and a seeded location starts at
S = N - 1 >= 0, since populations are at least ``POPULATION_FLOOR``.
Where I = 0 both flows are exactly zero, so a burned-out location keeps
its numbers.

Compartments are real-valued; runs end when total infecteds drop below
an extinction threshold, since real-valued I never reaches exactly 0.
The module does no file I/O: ``cli`` writes a run's ``PrevalenceSeries``
as the prevalence CSV.
"""

from __future__ import annotations

import logging
import math
import mmap
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .checks import is_int, is_real
from .mobility import ContactMatrix

log = logging.getLogger(__name__)

HAZARD_VARIANTS = ("as_printed", "no_inner_s")
# Named seed rules of seed_outbreak; an integer location index is the other form.
SEED_RULES = ("proportional", "most_populous")


@dataclass(frozen=True)
class EpidemicParams:
    """Transmission and run-control parameters."""

    beta: float
    gamma: float
    horizon: int = 300
    extinction_threshold: float = 1e-3
    hazard_variant: str = "as_printed"

    def __post_init__(self):
        if not is_real(self.beta) or self.beta < 0:
            raise ValueError(f"beta must be a finite number >= 0, got {self.beta!r}")
        if not is_real(self.gamma) or not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma!r}")
        if not is_int(self.horizon) or self.horizon < 1:
            raise ValueError(f"horizon must be an integer >= 1, got {self.horizon!r}")
        if not is_real(self.extinction_threshold) or self.extinction_threshold < 0:
            raise ValueError(f"extinction_threshold must be a finite number >= 0, got {self.extinction_threshold!r}")
        if self.hazard_variant not in HAZARD_VARIANTS:
            raise ValueError(f"hazard_variant must be one of {HAZARD_VARIANTS}, got {self.hazard_variant!r}")

    @property
    def r0(self) -> float:
        return self.beta / self.gamma

    def course(self, populations: np.ndarray) -> "CourseTable":
        """The course table of these params on ``populations``. The last
        one built is kept on this instance while it is asked for the same
        array (by identity), and is freed with the instance: the table
        holds a copy of the params without this cache, so no cycle keeps
        it alive."""
        table = self.__dict__.get("_course")
        if table is None or table.populations is not populations:
            table = self.__dict__["_course"] = CourseTable(populations, self)
        return table


def hazard_vector(x: np.ndarray, virgin: np.ndarray, matrix: ContactMatrix, course: "CourseTable") -> np.ndarray:
    """h(t, j) for the virgin locations ``virgin``, in that order, from the
    day-t infected fractions ``x`` = I / N of every location; ``course``
    is the run's table on the matrix's populations, and its params give
    beta and the hazard variant.

    Exact without the self term, S or a clip (see the module docstring).
    While one location alone is not virgin, the exposure is the one
    column ``m[virgin, s] * x[s]``, which equals the whole product's
    exposure bit for bit (see the module docstring). While a quarter of
    the locations or fewer are virgin, only their rows of the matrix are
    read. Such a row's sum can differ from the whole product's in the
    last bit (BLAS groups rows), which moves an introduction only if its
    uniform falls within that bit of the hazard.
    """
    n = x.shape[0]
    if virgin.size == n - 1:
        s = n * (n - 1) // 2 - int(virgin.sum())  # the one index not in virgin
        inner = matrix.m[virgin, s] * x[s]
    elif 4 * virgin.size <= n:
        inner = matrix.m[virgin] @ x
    else:
        inner = (matrix.m @ x)[virgin]
    if course.params.hazard_variant == "as_printed":
        inner *= course.N[virgin]
    return course.beta_N[virgin] * -np.expm1(-inner) / course.one_plus_beta_N[virgin]


def sir_step(SIR: np.ndarray, N: np.ndarray, params: EpidemicParams) -> np.ndarray:
    """Advance the deterministic dynamics of the (3, n) S/I/R block ``SIR``
    of populations ``N`` one day, in place; returns ``SIR``.

    New infections are capped at S: the uncapped update overshoots S for
    beta*I/N > 1, a discretization artifact, not an epidemic one. The
    recoveries gamma*I are taken from I before it changes. Neither S nor
    I goes below zero and a location with I = 0 keeps its numbers (see
    the module docstring).
    """
    S, I, R = SIR
    inf = np.minimum(params.beta * S * I / N, S)
    rec = params.gamma * I
    S -= inf
    I += inf
    I -= rec
    R += rec
    return SIR


def introduce(
    x: np.ndarray, virgin: np.ndarray, matrix: ContactMatrix, course: "CourseTable", rng: np.random.Generator
) -> np.ndarray:
    """The locations among ``virgin`` (ascending) that gain a case on day
    t+1, each with probability h(t, j), from the day-t infected fractions
    ``x``, with the hazard of the params of ``course``. Draws one uniform
    for every location and changes nothing else.

    A run calls it on every day on which some location is virgin, and on
    no other. A location with a case never becomes virgin again, so the
    draws fill a prefix of the days and day t's uniforms are the same in
    every run with the same seed: paired runs on different matrices
    consume the same stream.
    """
    h = hazard_vector(x, virgin, matrix, course)
    return virgin[rng.random(x.shape[0])[virgin] < h]


class _Run:
    """Where one run stands on its course table on day ``day``.

    ``onset_day[j]`` is the day location j got its case, or -1 while it is
    virgin, and ``virgin`` lists the virgin locations. ``at[j]`` is the
    flat index of location j's infecteds in the table on that day: on the
    pre-onset row while it is virgin, then one row, ``step[j]`` = 3n
    elements, further each day. ``seed`` alone writes the onsets.
    """

    __slots__ = ("day", "onset_day", "virgin", "at", "step")

    def __init__(self, n: int):
        self.day = 0
        self.onset_day = np.full(n, -1, dtype=np.int64)
        self.virgin = np.arange(n)
        self.at = np.arange(n, 2 * n)  # I plane of the pre-onset row
        self.step = np.zeros(n, dtype=self.at.dtype)

    def seed(self, j) -> None:
        """Give location j, or each virgin location of the index array j,
        its case on the current day: its infecteds are read from age 0."""
        n = self.onset_day.shape[0]
        self.onset_day[j] = self.day
        self.at[j] = 4 * n + j  # I plane of row 1, age 0
        self.step[j] = 3 * n
        self.virgin = (self.onset_day < 0).nonzero()[0]


def advance_day(
    run: _Run, I: np.ndarray, matrix: ContactMatrix, course: "CourseTable", rng: np.random.Generator
) -> np.ndarray:
    """One day while some location is virgin, in place: draw the hits
    from the day-t infecteds ``I`` with the hazard of the params of
    ``course``, move every seeded location one row on to day t+1, then
    seed the hits with onset day t+1; returns the hits."""
    hits = introduce(I / course.N, run.virgin, matrix, course, rng)
    run.at += run.step
    run.day += 1
    if hits.size:
        run.seed(hits)
    return hits


# Once every location has a case, a run reads its course table in chunks
# of max(1, COURSE_CHUNK // n) days, about COURSE_CHUNK infecteds.
COURSE_CHUNK = 8192
# A course table's store grows by this factor (see CourseTable).
STORE_GROWTH = 8


class CourseTable:
    """S, I and R of every location before its onset and at ages 0, 1, ...
    days after it, for one populations array and one parameter set.

    ``params`` is a copy, without its course cache, of the params the
    table was built for (``EpidemicParams.course``), and every value the
    table steps or that a run reads from it comes from that copy: beta
    and gamma of the rows, the horizon that caps the store, and the
    hazard variant and extinction threshold of a run. The copy keeps the
    table out of a reference cycle with the params that cache it, so a
    dropped table, with its mapped store, is freed at once rather than
    by the cyclic collector.

    ``block[0]`` is the pre-onset (3, n) state, rows S = N, I = 0 and
    R = 0, and ``block[1 + a]`` is the state of a run in which every
    location was seeded ``a`` days ago. ``rows`` fills it on demand, each
    row a copy of the one before stepped in place by ``sir_step``, so it
    holds what stepping a run gives, bit for bit, and only as many rows
    as runs have read: its memory follows the longest run, not the
    horizon. The rows live in a store that grows when a read needs more
    rows: to ``STORE_GROWTH`` times its capacity, or to the rows read if
    that is more, and never past horizon + 2 rows. Each growth maps a new
    store and copies the filled rows into it, so a table that reaches r
    rows grows about log_8(r / 2) times: three times for 190 ages at a
    horizon of 300, where doubling took seven. The store is an anonymous
    memory map of its own (``_unpaged``): the rows past the filled ones
    take no memory, and a freed store goes back to the system at once.
    ``N``, ``beta_N`` = beta * N and ``one_plus_beta_N`` = 1 + beta * N
    are the factors of the hazard on a virgin location.
    """

    def __init__(self, populations: np.ndarray, params: EpidemicParams):
        self.populations = populations
        self.params = params = replace(params)
        N = populations.astype(float)
        n = N.shape[0]
        self.N = N
        self.beta_N = params.beta * N
        self.one_plus_beta_N = 1.0 + self.beta_N
        self._store = np.array(((N, np.zeros(n), np.zeros(n)), (N - 1.0, np.ones(n), np.zeros(n))))
        self._flat = self._store.reshape(-1)
        self._filled = 2

    @property
    def block(self) -> np.ndarray:
        """The filled rows, a (rows, 3, n) view."""
        return self._store[: self._filled]

    def rows(self, count: int) -> np.ndarray:
        """The store, flattened, once it holds at least ``count`` rows: the
        pre-onset row and ages 0 to count - 2, stepped with the table's
        params."""
        if self._filled < count:
            capacity = self._store.shape[0]
            if capacity < count:
                rows = min(max(count, STORE_GROWTH * capacity), self.params.horizon + 2)
                store = _unpaged((rows, *self._store.shape[1:]))
                store[: self._filled] = self.block
                self._store, self._flat = store, store.reshape(-1)
            for f in range(self._filled, count):
                self._store[f] = self._store[f - 1]
                sir_step(self._store[f], self.N, self.params)
            self._filled = count
        return self._flat


def _unpaged(shape: tuple) -> np.ndarray:
    """A float array of zeros in a private anonymous memory map of its
    own, unmapped when the array is freed; a page takes memory only once
    written. NumPy's allocator would take a course table's store from the
    malloc heap, which keeps what is freed (a sweep's tables then stayed
    in the process's peak memory after the sweep), or, from 4 MB on, ask
    for huge pages, which can make rows never written resident."""
    flags = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}
    return np.frombuffer(mmap.mmap(-1, math.prod(shape) * 8, **flags)).reshape(shape)


def _read_course(course: CourseTable, run: _Run, total_I: list) -> np.ndarray:
    """A run's total I on every day: ``total_I`` holds it up to day
    ``run.day``, on which every location has a case, and the rest is read
    from the course table up to where stepping would end the run: the
    horizon, or the first day total I falls below the extinction
    threshold, both of the table's params.

    A chunk of days starting on day t is one ``np.take`` from the flat
    table shifted by t - ``run.day`` rows, and one row sum over its last
    axis records those days. Every index is in range, since the seed
    location's onset is day 0 and the table is filled up to the chunk's
    last day first. A chunk is k = ``COURSE_CHUNK // n`` days (at least
    one), cut at the horizon; the (k, n) offsets from ``run.at`` into the
    table are built once per run.
    """
    params = course.params
    n = run.at.shape[0]
    row = 3 * n  # elements per row of the flat table
    k = max(1, COURSE_CHUNK // n)
    offsets = run.at + np.arange(0, k * row, row)[:, None]  # offsets[a] = at + a * row
    parts = [total_I]
    day, last = run.day, total_I[-1]
    while day < params.horizon and not last < params.extinction_threshold:
        t = day + 1
        count = min(k, params.horizon + 1 - t)
        flat = course.rows(t + count + 1)
        sums = flat[(t - run.day) * row :].take(offsets[:count]).sum(axis=-1)
        ended = (sums < params.extinction_threshold).nonzero()[0]
        if ended.size:
            sums = sums[: ended[0] + 1]
        parts.append(sums)
        day, last = day + sums.shape[0], sums[-1]
    return np.concatenate(parts)


def _plane_totals(block: np.ndarray, onset_day: np.ndarray, length: int, plane: int) -> np.ndarray:
    """The totals of compartment ``plane`` (0 S, 1 I, 2 R) over all
    locations on each day of a run of ``length`` days with onsets
    ``onset_day``, read from the course table rows ``block``: one gather
    and one row sum, the same to the bit as the row sums of stepped
    states. A virgin location reads the pre-onset row on every day."""
    onset = np.where(onset_day < 0, length, onset_day)
    rows = np.maximum(np.arange(1, length + 1)[:, None] - onset, 0)
    return block[rows, plane, np.arange(onset.shape[0])].sum(axis=-1)


def check_scale(params: EpidemicParams, matrix: ContactMatrix) -> None:
    """Raise ValueError unless beta * max(N) * max(N) is finite.

    ``sir_step`` forms beta*S*I, left to right, with S and I at most N,
    so rounding, being monotone, keeps every such product at most this
    one: no run overflows. Past it, beta*S*I can overflow to inf, which
    NumPy reports with a warning. The bound also keeps beta * N, a factor
    of the hazard, finite, since N >= 1.
    """
    top = float(matrix.populations.max())
    if not math.isfinite(params.beta * top * top):
        raise ValueError(
            f"beta {params.beta!r} overflows against a population of {top!r}: "
            f"beta * N * N, the largest beta*S*I of the SIR step, is past the float64 range"
        )


def seed_outbreak(matrix: ContactMatrix, rule, rng: np.random.Generator) -> int:
    """Pick the initially infected location.

    rule is a name in SEED_RULES, "proportional" (probability N_j / sum N)
    or "most_populous", or an integer index for a fixed choice.
    """
    if isinstance(rule, (int, np.integer)):
        j = int(rule)
        if not 0 <= j < matrix.n:
            raise ValueError(f"fixed seed location {j} out of range")
        return j
    if rule == "proportional":
        p = matrix.populations / matrix.populations.sum()
        return int(rng.choice(matrix.n, p=p))
    if rule == "most_populous":
        return int(np.argmax(matrix.populations))
    raise ValueError(f"unknown seed rule {rule!r}")


@dataclass
class PrevalenceSeries:
    """Day-indexed aggregates of one simulation run.

    ``total_S`` and ``total_R`` are gathered from ``course``, the course
    table the run read, and ``final_size`` is derived from ``total_S``,
    when first read, and kept; a series keeps its table alive while it
    lives. A run's days in the table do not move when the table grows, so
    they are what stepping would have given whenever they are read.
    """

    prevalence: np.ndarray
    frac_locations: np.ndarray
    total_I: np.ndarray
    onset_days: np.ndarray
    seed_location: int
    course: CourseTable = field(repr=False, compare=False)

    def __len__(self) -> int:
        return self.prevalence.shape[0]

    @cached_property
    def total_S(self) -> np.ndarray:
        return _plane_totals(self.course.block, self.onset_days, len(self), 0)

    @cached_property
    def total_R(self) -> np.ndarray:
        return _plane_totals(self.course.block, self.onset_days, len(self), 2)

    @cached_property
    def final_size(self) -> float:
        """The share of the population ever infected, 1 - S/N on the last day."""
        total = float(self.course.populations.sum())
        return float((total - self.total_S[-1]) / total)


def run_simulation(
    matrix: ContactMatrix,
    params: EpidemicParams,
    seed_rule,
    rng_seed,
) -> PrevalenceSeries:
    """Run one epidemic realization and collect its prevalence series.

    Seeds one case, then runs day by day until the horizon or until
    total infecteds fall below the extinction threshold. Identical
    (matrix, params, seed_rule, rng_seed) inputs reproduce the series bit
    for bit. Raises ValueError first if the params do not fit the matrix
    (``check_scale``).

    The run reads ``params.course`` for the matrix's populations and
    steps no state (see the module docstring). While some location is
    virgin a day is ``advance_day``, and its total I is one gather from
    the table and one sum, appended to a list. Once none is, nothing more
    is drawn, and the rest of the series is read in chunks
    (``_read_course``). Memory follows the days simulated, not the
    horizon. The fraction of locations with a case is the running count
    of onsets over n.
    """
    check_scale(params, matrix)
    rng = np.random.default_rng(rng_seed)
    seed_loc = seed_outbreak(matrix, seed_rule, rng)
    course = params.course(matrix.populations)
    run = _Run(matrix.n)
    run.seed(seed_loc)

    I = course.rows(2).take(run.at)
    total_I = [I.sum()]
    while run.virgin.size and run.day < params.horizon and not total_I[-1] < params.extinction_threshold:
        advance_day(run, I, matrix, course, rng)
        I = course.rows(run.day + 2).take(run.at)
        total_I.append(I.sum())
    total_I = np.array(total_I) if run.virgin.size else _read_course(course, run, total_I)

    onset_day = run.onset_day
    frac = np.cumsum(np.bincount(onset_day[onset_day >= 0], minlength=total_I.shape[0])) / matrix.n
    return PrevalenceSeries(
        prevalence=total_I / float(matrix.populations.sum()),
        frac_locations=frac,
        total_I=total_I,
        onset_days=onset_day,
        seed_location=seed_loc,
        course=course,
    )
