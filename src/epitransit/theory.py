"""Closed-form inter-location transmission and invasion probabilities.

Two readings of the exponent coefficient exist because the source
derivation is internally inconsistent: the printed form uses beta*gamma
while the stated linear limit equals R0 * m * n, which requires
beta/gamma. The R0-consistent form is the default; the printed form
stays selectable so both are testable.
"""

from __future__ import annotations

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
    p_transmit: float | None = None


def transmission_probability(
    beta: float, gamma: float, m_ji: float, n_i: float, n_j: float, variant: str = "r0_consistent"
) -> float:
    """Probability that the disease passes from infected location i to
    susceptible location j via the flow m_ji, per individual pairing."""
    if n_i <= 0:
        raise ValueError(f"source population n_i must be positive, got {n_i}")
    return -math.expm1(-_coefficient(beta, gamma, variant) * m_ji * n_j / n_i)


def invasion_probability(
    beta: float,
    gamma: float,
    m_ji: float,
    n_j: float,
    variant: str = "r0_consistent",
    n_i: float | None = None,
) -> PairInvasion:
    """Probability that at least one case reaches susceptible location j
    from infected location i, with the linear term R0 * m_ji * n_j.

    Passing n_i also fills the per-pair transmission probability.
    """
    coeff = _coefficient(beta, gamma, variant)
    p = -math.expm1(-coeff * m_ji * n_j)
    linear = (beta / gamma) * m_ji * n_j
    p_transmit = None
    if n_i is not None:
        p_transmit = transmission_probability(beta, gamma, m_ji, n_i, n_j, variant)
    return PairInvasion(p_invade=p, linear_approx=linear, p_transmit=p_transmit)


def invasion_ranking(
    matrix: ContactMatrix, source: int, params: engine.EpidemicParams, variant: str = "r0_consistent"
):
    """All destinations ranked by invasion probability from one source.

    Returns [(location_id, theta), ...] in descending theta order, ties
    broken by location order. Used to see which destinations a thinned
    matrix starves of infection.
    """
    coeff = _coefficient(params.beta, params.gamma, variant)
    thetas = -np.expm1(-coeff * matrix.m[:, source] * matrix.populations)
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
    """Per-destination invasion probabilities under both matrices."""
    ranked = invasion_ranking(matrix, source, params, variant)
    sub = dict(invasion_ranking(transit_matrix, source, params, variant))
    src_id = matrix.table.ids[source]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("source_id,dest_id,theta,theta_transit,ratio\n")
        for dest_id, theta in ranked:
            theta_t = sub[dest_id]
            ratio = repr(theta_t / theta) if theta > 0 else ""
            fh.write(f"{src_id},{dest_id},{theta!r},{theta_t!r},{ratio}\n")

