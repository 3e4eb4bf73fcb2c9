"""Closed-form inter-location transmission and invasion probabilities.

Two readings of the exponent coefficient exist because the source
derivation is internally inconsistent: the printed form uses beta*gamma
while the stated linear limit equals R0 * m * n, which requires
beta/gamma. The R0-consistent form is the default; the printed form
stays selectable so both are testable.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import engine
from .mobility import ContactMatrix

VARIANTS = ("r0_consistent", "as_printed")


def _coefficient(beta: float, gamma: float, variant: str) -> float:
    if variant == "r0_consistent":
        return beta / gamma
    if variant == "as_printed":
        return beta * gamma
    raise ValueError(f"variant must be one of {VARIANTS}")


@dataclass(frozen=True)
class PairInvasion:
    """Invasion probability of one susceptible location from one infected
    neighbor, with its small-flow linear approximation."""

    p_invade: float
    linear_approx: float


def transmission_probability(
    beta: float, gamma: float, m_ji: float, n_i: float, n_j: float, variant: str = "r0_consistent"
) -> float:
    """Probability that the disease passes from infected location i to
    susceptible location j via the flow m_ji, per individual pairing."""
    if n_i <= 0:
        raise ValueError(f"source population n_i must be positive, got {n_i}")
    return -math.expm1(-_coefficient(beta, gamma, variant) * m_ji * n_j / n_i)


def invasion_probability(
    beta: float, gamma: float, m_ji: float, n_j: float, variant: str = "r0_consistent"
) -> PairInvasion:
    """Probability that at least one case reaches susceptible location j
    from infected location i, with the linear term R0 * m_ji * n_j.

    m_ji and n_j may also be arrays, for many destinations at once; the
    two probabilities then come back as arrays.
    """
    p = -np.expm1(-_coefficient(beta, gamma, variant) * m_ji * n_j)
    return PairInvasion(p_invade=p, linear_approx=(beta / gamma) * m_ji * n_j)


def invasion_ranking(
    matrix: ContactMatrix, source: int, params: engine.EpidemicParams, variant: str = "r0_consistent"
):
    """All destinations ranked by invasion probability from one source.

    Returns [(location_id, theta), ...] in descending theta order, ties
    broken by location order. Used to see which destinations a thinned
    matrix starves of infection.
    """
    thetas = invasion_probability(params.beta, params.gamma, matrix.m[:, source], matrix.populations, variant).p_invade
    order = sorted(
        (j for j in range(matrix.n) if j != source), key=lambda j: (-thetas[j], j)
    )
    return [(matrix.table.ids[j], float(thetas[j])) for j in order]


def write_ranking_csv(
    matrix: ContactMatrix,
    transit_matrix: ContactMatrix,
    source: int,
    params: engine.EpidemicParams,
    path,
    variant: str = "r0_consistent",
) -> None:
    """Per-destination invasion probabilities under both matrices, which
    must list the same location ids in the same order."""
    if transit_matrix.table.ids != matrix.table.ids:
        raise ValueError("the transit matrix does not list the matrix's location ids in the same order")
    ranked = invasion_ranking(matrix, source, params, variant)
    sub = dict(invasion_ranking(transit_matrix, source, params, variant))
    src_id = matrix.table.ids[source]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(("source_id", "dest_id", "theta", "theta_transit", "ratio"))
        for dest_id, theta in ranked:
            theta_t = sub[dest_id]
            ratio = repr(theta_t / theta) if theta > 0 else ""
            out.writerow((src_id, dest_id, repr(theta), repr(theta_t), ratio))

