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

A day is draw, step, seed (``advance_day``): ``introduce`` draws which
virgin locations the hazard hits, from the day-t state; ``sir_step``
applies the deterministic update to every location at once; and
``CompartmentState.seed`` writes one case into each hit. Where I = 0
both flows are exactly zero, so virgin and burned-out locations come out
of the step unchanged without being masked out. A location is virgin
iff its ``onset_day`` is -1, and ``seed`` is the only writer of
``onset_day``. This is the same as I = R = 0 on every state a run
reaches: a seeded location keeps I = 1 until its next step, which gives
it R = gamma > 0, R never falls, and an unseeded location's flows are
exactly 0. A run keeps one state, with S, I and R as the rows of one
(3, n) block, and advances it in place in six whole-array calls; a
day's totals are recorded by one reduction over the block. S and I
never go below zero, so the update needs no clamp: new infections are
capped at S; recoveries gamma*I are at most I since gamma <= 1, and
I + new infections is at least I; and a seeded location starts at
S = N - 1 >= 0, since populations are at least ``POPULATION_FLOOR``.

Once no location is virgin the hazard cannot act, and nothing couples the
locations any more: ``sir_step`` is elementwise, so a location's S, I and
R depend only on its N and on the days since its onset. A ``CourseTable``
holds them for every location at ages 0, 1, ... after seeding; it is
stepped by ``sir_step`` from a block in which every location is seeded on
day 0, so it holds the same numbers a run would reach. From the day every
location has a case, a run reads the rest of its series from the table,
in chunks of days, instead of stepping it. The table grows only as far
as runs read it and is kept on the ``EpidemicParams`` for one populations
array (``EpidemicParams.course``), so every run of a sweep with those
params shares it: thinned matrices share their parent's populations.

Compartments are real-valued; runs end when total infecteds drop below
an extinction threshold, since real-valued I never reaches exactly 0.
The module does no file I/O: ``cli`` writes a run's ``PrevalenceSeries``
as the prevalence CSV.
"""

from __future__ import annotations

import logging
import math
import mmap
from dataclasses import dataclass
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

    @cached_property
    def rates(self) -> np.ndarray:
        """(beta, gamma) as a read-only (2, 1) float column, built once:
        ``sir_step`` multiplies the S and I rows by it in one call."""
        rates = np.array(((self.beta,), (self.gamma,)), dtype=float)
        rates.flags.writeable = False
        return rates

    def course(self, populations: np.ndarray) -> "CourseTable":
        """The course table of these params on ``populations``. The last
        one built is kept on this instance while it is asked for the same
        array (by identity), and is freed with the instance."""
        table = self.__dict__.get("_course")
        if table is None or table.populations is not populations:
            table = self.__dict__["_course"] = CourseTable(populations)
        return table


def _row(i: int, name: str) -> property:
    def get(self) -> np.ndarray:
        return self.rows[i]

    def set(self, value) -> None:
        self.rows[i][...] = value

    return property(get, set, doc=f"{name} per location: row {i} of ``SIR``; assigning copies into it.")


class CompartmentState:
    """Per-location S/I/R counts at one day, plus onset bookkeeping.

    S, I and R are the rows of one (3, n) float array ``SIR``, which the
    constructor fills with copies of its S, I and R, so a day's three
    totals take one reduction. ``rows`` holds the views of those rows, and
    ``S``, ``I`` and ``R`` return them; writing through them, or assigning
    to them, changes the block. ``SI`` (rows S and I) and ``IR`` (rows I
    and R) are views of the block as well, built once, which ``sir_step``
    updates by one call each. ``flows`` is a (2, n) scratch array that
    ``sir_step`` reuses for new infections and recoveries.
    ``onset_day[j]`` is the first day location j had I > 0, or -1 while
    it is virgin; ``seed`` alone writes it.

    ``sir_step`` and ``seed`` keep S and I at zero or above
    without a clamp, as long as they start there and N is at least
    ``POPULATION_FLOOR`` (see the module docstring).
    """

    S = _row(0, "Susceptibles")
    I = _row(1, "Infecteds")
    R = _row(2, "Recovereds")

    def __init__(self, S, I, R, N, day: int = 0, onset_day: np.ndarray | None = None):
        self.SIR = np.array((S, I, R), dtype=float)
        self.rows = tuple(self.SIR)
        self.SI = self.SIR[:2]
        self.IR = self.SIR[1:]
        self.flows = np.empty((2, self.SIR.shape[1]))
        self.N = N
        self.day = day
        self.onset_day = np.full(self.SIR.shape[1], -1, dtype=np.int64) if onset_day is None else onset_day

    @classmethod
    def fully_susceptible(cls, populations: np.ndarray) -> "CompartmentState":
        n = populations.shape[0]
        N = populations.astype(float)
        return cls(S=N, I=np.zeros(n), R=np.zeros(n), N=N)

    def seed(self, j) -> None:
        """Place one infected case into location j, or into each location
        of the index array j, with onset on the current day. Every j must
        be virgin. The only writer of a new case: a run's first case and
        every introduction go through it."""
        self.I[j] = 1.0
        self.S[j] = self.N[j] - 1.0
        self.onset_day[j] = self.day


def _hazard_kernel(beta, S, inner):
    """Outbreak probability from transmission rate, susceptibles, and
    the summed exposure term inside the exponential. Clamped to [0, 1]."""
    with np.errstate(over="ignore"):
        h = beta * S * (-np.expm1(-inner)) / (1.0 + beta * S)
    return np.clip(h, 0.0, 1.0)


def hazard_vector(
    state: CompartmentState, matrix: ContactMatrix, params: EpidemicParams, rows: np.ndarray | None = None
) -> np.ndarray:
    """Daily outbreak probability for every location, or for the
    locations indexed by ``rows`` only, in that order.

    The exposure sum excludes each location's self-flow. Only meaningful
    for virgin locations; callers mask accordingly. With ``rows``, only
    those rows of the matrix are read.
    """
    x = state.I / state.N
    if rows is None:
        inner = matrix.m @ x - np.diagonal(matrix.m) * x
        S = state.S
    else:
        inner = matrix.m[rows] @ x - matrix.m[rows, rows] * x[rows]
        S = state.S[rows]
    if params.hazard_variant == "as_printed":
        inner = inner * S
    return _hazard_kernel(params.beta, S, inner)


def sir_step(state: CompartmentState, params: EpidemicParams) -> CompartmentState:
    """Advance the deterministic dynamics one day, in place, as one
    whole-array update in six NumPy calls; returns ``state``.

    One multiply of the S and I rows by the (beta, gamma) column
    ``params.rates`` writes both rows of ``state.flows``: beta*S, which
    becomes the new infections once multiplied by I, divided by N and
    capped at S, and the recoveries gamma*I. Then ``IR += flows`` and
    ``SI -= flows``: I and R gain them, then S and I lose them, so each
    compartment sees the same operations in the same order as
    S - inf, I + inf - rec and R + rec. The cap at S keeps S at zero or
    above: the uncapped update overshoots S for beta*I/N > 1, which is a
    discretization artifact, not an epidemic one. I stays at zero or
    above too, since gamma <= 1 makes gamma*I at most I and adding new
    infections leaves I + inf at least I, so no clamp is needed. Where
    I = 0 the new infections min(0, S) and recoveries are exactly zero,
    so virgin and burned-out locations pass through bit-identical.
    """
    flows = state.flows
    new_inf = flows[0]
    np.multiply(state.SI, params.rates, out=flows)
    new_inf *= state.I
    new_inf /= state.N
    np.minimum(new_inf, state.S, out=new_inf)
    state.IR += flows
    state.SI -= flows
    state.day += 1
    return state


def introduce(
    state: CompartmentState,
    matrix: ContactMatrix,
    params: EpidemicParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """The ascending indices of the virgin locations (``onset_day`` -1)
    that gain a case on day t+1, each with probability h(t, j). Reads the
    day-t ``state`` and changes nothing.

    On every day on which some location is virgin, one uniform is drawn
    for every location. A location with a case never becomes virgin
    again, so the draws fill a prefix of the days and day t's uniforms
    are the same in every run with the same seed: paired runs on
    different matrices consume the same stream. On a day with no virgin
    location neither the hazard nor a uniform is computed. While a
    quarter of the locations or fewer are virgin, only their rows of the
    matrix are read. Such a row's sum can differ from the whole
    product's in the last bit (BLAS groups rows), which moves an
    introduction only if its uniform falls within that bit of the hazard.
    """
    virgin = np.flatnonzero(state.onset_day < 0)
    if not virgin.size:
        return virgin
    n = state.S.shape[0]
    if 4 * virgin.size <= n:
        h = hazard_vector(state, matrix, params, virgin)
    else:
        h = hazard_vector(state, matrix, params)[virgin]
    return virgin[rng.random(n)[virgin] < h]


def advance_day(
    state: CompartmentState,
    matrix: ContactMatrix,
    params: EpidemicParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """One full day, in place: draw the hits from day t, step every
    location to day t+1, then seed the hits with onset day t+1; returns
    the hits, the locations whose onset is day t+1. The step leaves the
    still-virgin hits as they were, and the draw reads day-t values only,
    so this is an exact simultaneous update."""
    hits = introduce(state, matrix, params, rng)
    sir_step(state, params)
    if hits.size:
        state.seed(hits)
    return hits


# A run reads its course table in chunks of days: the first of
# COURSE_FIRST_CHUNK days, then doubling up to max(1, COURSE_CHUNK // n)
# days, about COURSE_CHUNK elements per compartment.
COURSE_FIRST_CHUNK = 4
COURSE_CHUNK = 8192


class CourseTable:
    """S, I and R of every location at ages 0, 1, ... days after its onset,
    for one populations array and one (beta, gamma).

    ``block[a]`` is the (3, n) state, rows S, I and R, of a run in which
    every location was seeded ``a`` days ago. ``ages`` fills it on demand
    by ``sir_step`` on a state in which every location is seeded on day 0,
    so it holds what stepping a run gives, bit for bit, and only as many
    ages as runs have read: its memory follows the longest run, not the
    horizon. The rows live in a store whose capacity doubles (up to the
    horizon) when a read needs more, so filling copies the table once at
    most. The store is an anonymous memory map of its own (``_unpaged``):
    the rows past the filled ones take no memory, and a freed store goes
    back to the system at once.
    """

    def __init__(self, populations: np.ndarray):
        self.populations = populations
        self._state = CompartmentState.fully_susceptible(populations)
        self._state.seed(np.arange(populations.shape[0]))
        self._store = self._state.SIR[None].copy()
        self._filled = 1

    @property
    def block(self) -> np.ndarray:
        """The filled ages, a (ages, 3, n) view."""
        return self._store[: self._filled]

    def ages(self, count: int, params: EpidemicParams) -> np.ndarray:
        """The table, flattened, once it holds at least ``count`` ages."""
        if self._filled < count:
            capacity = self._store.shape[0]
            if capacity < count:
                store = _unpaged((min(max(count, 2 * capacity), params.horizon + 1), *self._store.shape[1:]))
                store[: self._filled] = self.block
                self._store = store
            for row in self._store[self._filled : count]:
                row[...] = sir_step(self._state, params).SIR
            self._filled = count
        return self.block.reshape(-1)


def _unpaged(shape: tuple) -> np.ndarray:
    """A float array of zeros in a private anonymous memory map of its
    own, unmapped when the array is freed; a page takes memory only once
    written. NumPy's allocator would take a course table's store from the
    malloc heap, which keeps what is freed (a sweep's tables then stayed
    in the process's peak memory after the sweep), or, from 4 MB on, ask
    for huge pages, which can make rows never written resident."""
    flags = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}
    return np.frombuffer(mmap.mmap(-1, math.prod(shape) * 8, **flags)).reshape(shape)


def _room(totals: np.ndarray, rows: int, horizon: int) -> np.ndarray:
    """``totals`` with room for ``rows`` days, doubled (up to the horizon)
    when it has less: memory follows the days simulated, not the horizon."""
    if rows <= totals.shape[0]:
        return totals
    grown = min(max(rows, 2 * totals.shape[0]), horizon + 1)
    return np.concatenate((totals, np.empty((grown - totals.shape[0], 3))))


def _read_course(table: CourseTable, params: EpidemicParams, onset_day: np.ndarray, totals: np.ndarray, days: int):
    """Record a run's days after ``days``, the day every location has a
    case, from the course table, and end it where stepping would: at the
    horizon, or on the first day total I falls below the extinction
    threshold. Returns (totals, last day).

    Day t of compartment c at location j is the table's age
    t - onset_day[j]. A chunk of days starting on day t is one ``np.take``
    from the flat table shifted by t - ``days`` ages into a contiguous
    (days, 3, n) buffer, and one row sum over its last axis records those
    days. Every offset is at least 0, since no onset comes after ``days``,
    and below the table's size, since the seed location's onset is day 0
    and the table is filled up to the chunk's last day first. Chunks
    double from ``COURSE_FIRST_CHUNK`` days up to ``COURSE_CHUNK // n``,
    so a run that ends soon after its last onset reads little past its end.
    """
    n = onset_day.shape[0]
    age = 3 * n  # elements per age in the flat table
    k = max(1, COURSE_CHUNK // n)
    full = days
    base = (full - onset_day) * age + np.arange(age).reshape(3, n)
    # offsets[a] = base + a * age, written as the chunks grow into them
    offsets = np.empty((k, 3, n), dtype=base.dtype)
    chunk = np.empty((k, 3, n))
    size = 0
    while days < params.horizon and not totals[days, 1] < params.extinction_threshold:
        if size < k:
            grown = min(k, max(COURSE_FIRST_CHUNK, 2 * size))
            np.add(base, np.arange(size * age, grown * age, age)[:, None, None], out=offsets[size:grown])
            size = grown
        t = days + 1
        last = min(size, params.horizon + 1 - t)
        flat = table.ages(t + last, params)
        totals = _room(totals, t + last, params.horizon)
        # offsets are in range, so "clip" reads the same as "raise" without its copy of out
        np.take(flat[(t - full) * age :], offsets[:last], out=chunk[:last], mode="clip")
        chunk[:last].sum(axis=-1, out=totals[t : t + last])
        ended = np.flatnonzero(totals[t : t + last, 1] < params.extinction_threshold)
        days = t + int(ended[0]) if ended.size else t + last - 1
    return totals, days


def check_scale(params: EpidemicParams, matrix: ContactMatrix) -> None:
    """Raise ValueError unless beta * max(N) is finite: ``sir_step`` forms
    beta*S first, and an overflow to inf times I = 0 turns a run into NaN."""
    top = float(matrix.populations.max())
    if not math.isfinite(params.beta * top):
        raise ValueError(f"beta {params.beta!r} overflows against a population of {top!r}")


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
    """Day-indexed aggregates of one simulation run."""

    prevalence: np.ndarray
    frac_locations: np.ndarray
    total_S: np.ndarray
    total_I: np.ndarray
    total_R: np.ndarray
    onset_days: np.ndarray
    final_size: float
    seed_location: int

    def __len__(self) -> int:
        return self.prevalence.shape[0]


def run_simulation(
    matrix: ContactMatrix,
    params: EpidemicParams,
    seed_rule,
    rng_seed,
) -> PrevalenceSeries:
    """Run one epidemic realization and collect its prevalence series.

    Starts all-susceptible, seeds one case, then iterates daily updates
    until the horizon or until total infecteds fall below the extinction
    threshold. Identical (matrix, params, seed_rule, rng_seed) inputs
    reproduce the series bit for bit. Raises ValueError first if the
    params do not fit the matrix (``check_scale``).

    A day is recorded by one reduction, ``SIR.sum(axis=1)``, into a
    buffer that doubles when full, so memory follows the days simulated,
    not the horizon. The onset count starts at 1, the seeded location,
    and grows by the hits ``advance_day`` returns, since each hit was
    virgin. While some location is virgin a day is ``advance_day``. Once
    none is, nothing more is drawn and the fraction stays exactly 1.0:
    the rest of the series is read from ``params.course`` for the
    matrix's populations (``_read_course``), not stepped.
    """
    check_scale(params, matrix)
    rng = np.random.default_rng(rng_seed)
    state = CompartmentState.fully_susceptible(matrix.populations)
    seed_loc = seed_outbreak(matrix, seed_rule, rng)
    state.seed(seed_loc)

    n = matrix.n
    total_pop = float(matrix.populations.sum())
    SIR = state.SIR
    totals = np.empty((min(params.horizon + 1, 256), 3))
    SIR.sum(axis=1, out=totals[0])
    onsets = 1
    frac_loc = [onsets / n]
    days = 0
    while onsets < n and days < params.horizon and not totals[days, 1] < params.extinction_threshold:
        onsets += advance_day(state, matrix, params, rng).size
        frac_loc.append(onsets / n)
        days += 1
        totals = _room(totals, days + 1, params.horizon)
        SIR.sum(axis=1, out=totals[days])
    if onsets == n:
        totals, days = _read_course(params.course(matrix.populations), params, state.onset_day, totals, days)

    frac = np.ones(days + 1)
    frac[: len(frac_loc)] = frac_loc
    total_S, total_I, total_R = totals[: days + 1].T.copy()
    final_size = float((total_pop - total_S[-1]) / total_pop)
    return PrevalenceSeries(
        prevalence=total_I / total_pop,
        frac_locations=frac,
        total_S=total_S,
        total_I=total_I,
        total_R=total_R,
        onset_days=state.onset_day,
        final_size=final_size,
        seed_location=seed_loc,
    )
