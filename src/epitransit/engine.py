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

Compartments are real-valued; runs end when total infecteds drop below
an extinction threshold, since real-valued I never reaches exactly 0.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .mobility import ContactMatrix

log = logging.getLogger(__name__)

HAZARD_VARIANTS = ("as_printed", "no_inner_s")


@dataclass(frozen=True)
class EpidemicParams:
    """Transmission and run-control parameters."""

    beta: float
    gamma: float
    horizon: int = 300
    extinction_threshold: float = 1e-3
    hazard_variant: str = "as_printed"

    def __post_init__(self):
        if self.beta < 0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if self.hazard_variant not in HAZARD_VARIANTS:
            raise ValueError(f"hazard_variant must be one of {HAZARD_VARIANTS}")

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
            S=populations.astype(float).copy(),
            I=np.zeros(n),
            R=np.zeros(n),
            N=populations.astype(float).copy(),
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
    def x(self) -> np.ndarray:
        """Per-location infected fraction I/N."""
        return self.I / self.N

    @property
    def virgin_mask(self) -> np.ndarray:
        """Locations that have never seen a case."""
        return (self.I == 0.0) & (self.R == 0.0)

    @property
    def infected_mask(self) -> np.ndarray:
        return self.I > 0.0


def _hazard_kernel(beta, S, inner):
    """Outbreak probability from transmission rate, susceptibles, and
    the summed exposure term inside the exponential. Clamped to [0, 1]."""
    beta = np.asarray(beta, dtype=float)
    S = np.asarray(S, dtype=float)
    inner = np.asarray(inner, dtype=float)
    with np.errstate(over="ignore"):
        h = beta * S * (-np.expm1(-inner)) / (1.0 + beta * S)
    return np.clip(h, 0.0, 1.0)


def _exposure(state: CompartmentState, matrix: ContactMatrix, params: EpidemicParams) -> np.ndarray:
    """Inner exponent of the hazard for every location, self-flow excluded."""
    x = state.x
    flow_in = matrix.m @ x - np.diagonal(matrix.m) * x
    if params.hazard_variant == "as_printed":
        return flow_in * state.S
    return flow_in


def hazard_vector(state: CompartmentState, matrix: ContactMatrix, params: EpidemicParams) -> np.ndarray:
    """Daily outbreak probability for every location.

    Only meaningful for virgin locations; callers mask accordingly.
    """
    return _hazard_kernel(params.beta, state.S, _exposure(state, matrix, params))


def sir_step(state: CompartmentState, params: EpidemicParams) -> CompartmentState:
    """Advance the deterministic dynamics one day in locations with cases.

    New infections are capped at the available susceptibles: the update
    overshoots S for beta*I/N > 1, which is a discretization artifact,
    not an epidemic one. Any residual float round-off below zero is
    clamped with the deficit rebalanced into R so S+I+R stays at N.
    Virgin and burned-out locations pass through unchanged.
    """
    new = state.copy()
    new.day = state.day + 1
    mask = state.infected_mask
    if not mask.any():
        return new
    S, I, N = state.S[mask], state.I[mask], state.N[mask]
    new_inf = np.minimum(params.beta * S * I / N, S)
    recov = params.gamma * I
    new.S[mask] = S - new_inf
    new.I[mask] = I + new_inf - recov
    new.R[mask] = state.R[mask] + recov
    for arr in (new.S, new.I):
        neg = arr < 0.0
        if neg.any():
            new.R[neg] += arr[neg]
            arr[neg] = 0.0
    return new


def introduce(
    state: CompartmentState,
    matrix: ContactMatrix,
    params: EpidemicParams,
    rng: np.random.Generator,
    into: CompartmentState | None = None,
) -> CompartmentState:
    """Bernoulli introductions into virgin locations.

    Each virgin location j gains exactly one case with probability
    h(t, j). Hazards are computed from ``state`` (day t); outcomes are
    written into ``into`` (day t+1) when given, so the stochastic and
    deterministic halves of a day can be composed. One uniform is drawn
    for every location every day, which keeps paired runs on different
    matrices consuming the same stream.
    """
    if into is None:
        into = state.copy()
        into.day = state.day + 1
    h = hazard_vector(state, matrix, params)
    u = rng.random(state.S.shape[0])
    hits = state.virgin_mask & (u < h)
    if hits.any():
        into.I[hits] = 1.0
        into.S[hits] = state.N[hits] - 1.0
        into.onset_day[hits] = into.day
    return into


def advance_day(
    state: CompartmentState,
    matrix: ContactMatrix,
    params: EpidemicParams,
    rng: np.random.Generator,
) -> CompartmentState:
    """One full day: deterministic step plus stochastic introductions.

    The two halves touch disjoint location sets (I > 0 versus virgin)
    and both read day-t values, so composing them is an exact
    simultaneous update.
    """
    return introduce(state, matrix, params, rng, into=sir_step(state, params))


def seed_outbreak(matrix: ContactMatrix, rule, rng: np.random.Generator) -> int:
    """Pick the initially infected location.

    rule is "proportional" (probability N_j / sum N), "most_populous",
    or an integer index for a fixed choice.
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
    rng_seed: object

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
    if params.horizon <= 0:
        raise ValueError(f"horizon must be positive, got {params.horizon}")
    rng = np.random.default_rng(rng_seed)
    state = CompartmentState.fully_susceptible(matrix.populations)
    seed_loc = seed_outbreak(matrix, seed_rule, rng)
    state.seed(seed_loc)

    n = matrix.n
    total_pop = float(matrix.populations.sum())
    prevalence, frac_loc, tot_s, tot_i, tot_r = [], [], [], [], []

    def record(s):
        prevalence.append(s.I.sum() / total_pop)
        frac_loc.append(np.count_nonzero(s.onset_day >= 0) / n)
        tot_s.append(s.S.sum())
        tot_i.append(s.I.sum())
        tot_r.append(s.R.sum())

    record(state)
    for _ in range(params.horizon):
        if state.I.sum() < params.extinction_threshold:
            break
        state = advance_day(state, matrix, params, rng)
        record(state)

    final_size = float((total_pop - state.S.sum()) / total_pop)
    return PrevalenceSeries(
        prevalence=np.array(prevalence),
        frac_locations=np.array(frac_loc),
        total_S=np.array(tot_s),
        total_I=np.array(tot_i),
        total_R=np.array(tot_r),
        onset_days=state.onset_day.copy(),
        final_size=final_size,
        seed_location=seed_loc,
        rng_seed=rng_seed,
    )
