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
come out unchanged without being masked out. A run keeps one state and
advances it in place. Once no location is virgin the hazard cannot act,
so it is neither computed nor sampled. Compartments are real-valued;
runs end when total infecteds drop below an extinction threshold, since
real-valued I never reaches exactly 0.
"""

from __future__ import annotations

import logging
from collections.abc import Callable
from dataclasses import dataclass, field

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


@dataclass
class CompartmentState:
    """Per-location S/I/R counts at one day, plus onset bookkeeping.

    ``onset_day[j]`` is the first day location j had I > 0, or -1.
    """

    S: np.ndarray
    I: np.ndarray
    R: np.ndarray
    N: np.ndarray
    day: int = 0
    onset_day: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.onset_day is None:
            self.onset_day = np.full(self.S.shape, -1, dtype=np.int64)

    @classmethod
    def fully_susceptible(cls, populations: np.ndarray) -> "CompartmentState":
        n = populations.shape[0]
        return cls(
            S=populations.astype(float),
            I=np.zeros(n),
            R=np.zeros(n),
            N=populations.astype(float),
        )

    def copy(self) -> "CompartmentState":
        return CompartmentState(
            S=self.S.copy(),
            I=self.I.copy(),
            R=self.R.copy(),
            N=self.N,
            day=self.day,
            onset_day=self.onset_day.copy(),
        )

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


def hazard_vector(state: CompartmentState, matrix: ContactMatrix, params: EpidemicParams) -> np.ndarray:
    """Daily outbreak probability for every location.

    The exposure sum excludes each location's self-flow. Only meaningful
    for virgin locations; callers mask accordingly.
    """
    x = state.I / state.N
    inner = matrix.m @ x - np.diagonal(matrix.m) * x
    if params.hazard_variant == "as_printed":
        inner = inner * state.S
    return _hazard_kernel(params.beta, state.S, inner)


def sir_step(state: CompartmentState, params: EpidemicParams) -> CompartmentState:
    """Advance the deterministic dynamics one day, in place, as one
    whole-array update; returns ``state``.

    New infections are capped at the available susceptibles: the update
    overshoots S for beta*I/N > 1, which is a discretization artifact,
    not an epidemic one. Any residual float round-off below zero is
    clamped with the deficit rebalanced into R so S+I+R stays at N.
    Where I = 0 the new infections min(0, S) and recoveries are exactly
    zero, so virgin and burned-out locations pass through bit-identical.
    """
    S, I, R = state.S, state.I, state.R
    new_inf = params.beta * S
    new_inf *= I
    new_inf /= state.N
    np.minimum(new_inf, S, out=new_inf)
    recov = params.gamma * I
    S -= new_inf
    I += new_inf
    I -= recov
    R += recov
    for arr in (S, I):
        if arr.min() < 0.0:
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
    uniform is computed.
    """
    virgin = state.virgin_mask
    hits = None
    if virgin.any():
        h = hazard_vector(state, matrix, params)
        hits = virgin & (rng.random(state.S.shape[0]) < h)
    if step is None:
        state.day += 1
    else:
        step(state, params)
    if hits is not None and hits.any():
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
    """
    rng = np.random.default_rng(rng_seed)
    state = CompartmentState.fully_susceptible(matrix.populations)
    seed_loc = seed_outbreak(matrix, seed_rule, rng)
    state.seed(seed_loc)

    n = matrix.n
    total_pop = float(matrix.populations.sum())
    frac_loc, tot_s, tot_i, tot_r = [], [], [], []

    def record(s):
        frac_loc.append(np.count_nonzero(s.onset_day >= 0) / n)
        tot_s.append(s.S.sum())
        tot_i.append(s.I.sum())
        tot_r.append(s.R.sum())

    record(state)
    for _ in range(params.horizon):
        if tot_i[-1] < params.extinction_threshold:
            break
        advance_day(state, matrix, params, rng)
        record(state)

    final_size = float((total_pop - tot_s[-1]) / total_pop)
    return PrevalenceSeries(
        prevalence=np.array(tot_i) / total_pop,
        frac_locations=np.array(frac_loc),
        total_S=np.array(tot_s),
        total_I=np.array(tot_i),
        total_R=np.array(tot_r),
        onset_days=state.onset_day,
        final_size=final_size,
        seed_location=seed_loc,
    )
