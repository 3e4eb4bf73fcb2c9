"""Metapopulation SIR dynamics with stochastic inter-location introductions.

One time step is one day, matching the daily contact matrix. Locations
that have never seen a case are "virgin": each day one of them becomes
infected with the outbreak hazard

    h(t, j) = beta * S_j * (1 - exp(-sum_k m[j,k] * x_k * S_j)) / (1 + beta * S_j)

where x_k = I_k / N_k and the sum runs over k != j. The inner S_j factor
is kept as printed (the default), with a conventional alternative
selectable via ``hazard_variant="no_inner_s"`` for sensitivity checks.
Locations with cases evolve deterministically:

    S' = S - beta*S*I/N,  I' = I + beta*S*I/N - gamma*I,  R' = R + gamma*I

The deterministic update is applied to every location at once: where
I = 0 both flows are exactly zero, so virgin and burned-out locations
come out unchanged without being masked out. A run keeps one state, with
S, I and R as the rows of one (3, n) block, and advances it in place; a
day's totals are recorded by one reduction over the block. Once no
location is virgin the hazard cannot act, so the run skips the
introduction step: no virgin mask, hazard or uniform is computed, and
the day is the deterministic update alone. While a quarter of the
locations or fewer are virgin, only their rows of the matrix are read.
Such a row's sum can differ from the whole product's in the last bit
(BLAS groups rows), which moves an introduction only if its uniform
falls within that bit of the hazard. Compartments are real-valued;
runs end when total infecteds drop below an extinction threshold, since
real-valued I never reaches exactly 0.
"""

from __future__ import annotations

import logging
from collections.abc import Callable
from dataclasses import dataclass

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
            raise ValueError(f"beta must be a number >= 0, got {self.beta!r}")
        if not is_real(self.gamma) or not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma!r}")
        if not is_int(self.horizon) or self.horizon < 1:
            raise ValueError(f"horizon must be an integer >= 1, got {self.horizon!r}")
        if not is_real(self.extinction_threshold) or self.extinction_threshold < 0:
            raise ValueError(f"extinction_threshold must be a number >= 0, got {self.extinction_threshold!r}")
        if self.hazard_variant not in HAZARD_VARIANTS:
            raise ValueError(f"hazard_variant must be one of {HAZARD_VARIANTS}, got {self.hazard_variant!r}")

    @property
    def r0(self) -> float:
        return self.beta / self.gamma


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
    to them, changes the block. ``flows`` is a (2, n) scratch array that
    ``sir_step`` reuses for new infections and recoveries.
    ``onset_day[j]`` is the first day location j had I > 0, or -1.
    """

    S = _row(0, "Susceptibles")
    I = _row(1, "Infecteds")
    R = _row(2, "Recovereds")

    def __init__(self, S, I, R, N, day: int = 0, onset_day: np.ndarray | None = None):
        self.SIR = np.array((S, I, R), dtype=float)
        self.rows = tuple(self.SIR)
        self.flows = np.empty((2, self.SIR.shape[1]))
        self.N = N
        self.day = day
        self.onset_day = np.full(self.SIR.shape[1], -1, dtype=np.int64) if onset_day is None else onset_day

    @classmethod
    def fully_susceptible(cls, populations: np.ndarray) -> "CompartmentState":
        n = populations.shape[0]
        N = populations.astype(float)
        return cls(S=N, I=np.zeros(n), R=np.zeros(n), N=N)

    def copy(self) -> "CompartmentState":
        return CompartmentState(*self.SIR, N=self.N, day=self.day, onset_day=self.onset_day.copy())

    def seed(self, j: int) -> None:
        """Place one infected case into location j."""
        self.I[j] = 1.0
        self.S[j] = self.N[j] - 1.0
        if self.onset_day[j] < 0:
            self.onset_day[j] = self.day

    @property
    def virgin_mask(self) -> np.ndarray:
        """Locations that have never seen a case."""
        return (self.I == 0.0) & (self.R == 0.0)


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
    whole-array update; returns ``state``.

    New infections and recoveries are written into ``state.flows`` and
    applied to the S/I/R block in two calls: I and R gain them, then S and
    I lose them, so each compartment sees the same operations in the same
    order as S - inf, I + inf - rec and R + rec. New infections are capped
    at the available susceptibles: the update overshoots S for
    beta*I/N > 1, which is a discretization artifact, not an epidemic
    one. One minimum over the S and I rows finds any residual float
    round-off below zero, which is clamped with the deficit rebalanced
    into R so S+I+R stays at N. Where I = 0 the new infections min(0, S)
    and recoveries are exactly zero, so virgin and burned-out locations
    pass through bit-identical.
    """
    SIR, flows = state.SIR, state.flows
    S, I, R = state.rows
    new_inf, recov = flows
    np.multiply(S, params.beta, out=new_inf)
    new_inf *= I
    new_inf /= state.N
    np.minimum(new_inf, S, out=new_inf)
    np.multiply(I, params.gamma, out=recov)
    SIR[1:] += flows
    SIR[:2] -= flows
    if SIR[:2].min() < 0.0:
        for arr in (S, I):
            neg = arr < 0.0
            R[neg] += arr[neg]
            arr[neg] = 0.0
    state.day += 1
    return state


def introduce(
    state: CompartmentState,
    matrix: ContactMatrix,
    params: EpidemicParams,
    rng: np.random.Generator,
    step: Callable[[CompartmentState, EpidemicParams], CompartmentState] | None = None,
) -> CompartmentState:
    """Bernoulli introductions into virgin locations, in place; returns
    ``state``.

    Each virgin location j gains exactly one case with probability
    h(t, j), computed from ``state`` at day t. Then ``step(state,
    params)``, when given, moves the state to day t+1 in place
    (``advance_day`` passes ``sir_step``); without it only the day
    advances. The outcomes are written last, with onset day t+1.

    On every day on which some location is virgin, one uniform is drawn
    for every location. A location with a case never becomes virgin
    again, so the draws fill a prefix of the days and day t's uniforms
    are the same in every run with the same seed: paired runs on
    different matrices consume the same stream. On a day with no virgin
    location nothing can be introduced, and neither the hazard nor a
    uniform is computed. While a quarter of the locations or fewer are
    virgin, the hazard is computed for those locations only.
    """
    virgin = np.flatnonzero(state.virgin_mask)
    hits = None
    if virgin.size:
        n = state.S.shape[0]
        if 4 * virgin.size <= n:
            h = hazard_vector(state, matrix, params, virgin)
        else:
            h = hazard_vector(state, matrix, params)[virgin]
        hits = virgin[rng.random(n)[virgin] < h]
    if step is None:
        state.day += 1
    else:
        step(state, params)
    if hits is not None and hits.size:
        state.I[hits] = 1.0
        state.S[hits] = state.N[hits] - 1.0
        state.onset_day[hits] = state.day
    return state


def advance_day(
    state: CompartmentState,
    matrix: ContactMatrix,
    params: EpidemicParams,
    rng: np.random.Generator,
) -> CompartmentState:
    """One full day, in place: stochastic introductions around the
    deterministic step; returns ``state``.

    The two halves change disjoint location sets (I > 0 versus virgin)
    and both read day-t values, since the introductions are drawn before
    ``sir_step`` runs and written after it, so composing them is an
    exact simultaneous update.
    """
    return introduce(state, matrix, params, rng, step=sir_step)


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

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("day,prevalence,frac_locations_infected,total_S,total_I,total_R\n")
            for t in range(len(self)):
                row = (
                    self.prevalence[t], self.frac_locations[t],
                    self.total_S[t], self.total_I[t], self.total_R[t],
                )
                fh.write(f"{t}," + ",".join(repr(float(v)) for v in row) + "\n")


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
    reproduce the series bit for bit.

    A day is recorded by one reduction, ``SIR.sum(axis=1)``, into a
    buffer that doubles when full, so memory follows the days simulated,
    not the horizon. While some location is virgin a day is
    ``advance_day`` and the onset fraction is recounted. Once none is,
    no introduction can happen and none draws a uniform, so a day is
    ``sir_step`` alone and the fraction stays exactly 1.0.
    """
    rng = np.random.default_rng(rng_seed)
    state = CompartmentState.fully_susceptible(matrix.populations)
    seed_loc = seed_outbreak(matrix, seed_rule, rng)
    state.seed(seed_loc)

    n = matrix.n
    total_pop = float(matrix.populations.sum())
    SIR, onset_day = state.SIR, state.onset_day
    totals = np.empty((min(params.horizon + 1, 256), 3))
    SIR.sum(axis=1, out=totals[0])
    onsets = np.count_nonzero(onset_day >= 0)
    frac_loc = [onsets / n]
    days = 0
    while days < params.horizon and not totals[days, 1] < params.extinction_threshold:
        if onsets < n:
            advance_day(state, matrix, params, rng)
            onsets = np.count_nonzero(onset_day >= 0)
            frac_loc.append(onsets / n)
        else:
            sir_step(state, params)
        days += 1
        if days == totals.shape[0]:
            totals = np.concatenate((totals, np.empty((min(days, params.horizon + 1 - days), 3))))
        SIR.sum(axis=1, out=totals[days])

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
