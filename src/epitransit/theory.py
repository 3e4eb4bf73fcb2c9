"""Closed-form invasion probabilities, and the ranking CSV of
``epitransit theory``.

The probability that an infected location i seeds at least one case in a
susceptible location j through the daily flow m_ji is
1 - exp(-c * m_ji * n_j) (Colizza & Vespignani, PRL 99, 148701, 2007).
Two readings of the coefficient c exist because the source derivation
is internally inconsistent: the printed form uses beta*gamma, while the
stated small-flow limit R0 * m * n requires beta/gamma. The
R0-consistent form is the default; the printed form stays selectable so
both are testable.

The ranking CSV lists these probabilities from one source under a
matrix and under its transit copy, to show which destinations a thinned
matrix starves of infection.
"""

from __future__ import annotations

import csv

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


def invasion_probability(beta: float, gamma: float, m_ji, n_j, variant: str = "r0_consistent"):
    """Probability that at least one case reaches susceptible location j
    from infected location i, 1 - exp(-c * m_ji * n_j), with c = beta/gamma
    = R0 under "r0_consistent" and c = beta*gamma under "as_printed". For
    small flows it tends to its linear term c * m_ji * n_j.

    m_ji and n_j may be arrays, for many destinations at once; the
    probability then comes back as an array, else as a float.
    """
    return -np.expm1(-_coefficient(beta, gamma, variant) * m_ji * n_j)


def write_ranking_csv(
    matrix: ContactMatrix,
    transit_matrix: ContactMatrix,
    source: int,
    params: engine.EpidemicParams,
    path,
    variant: str = "r0_consistent",
) -> None:
    """Invasion probability from ``source`` of every other destination
    under both matrices, which must list the same location ids in the
    same order. Rows run in descending theta under ``matrix``, ties in
    location order; the ratio theta_transit / theta is empty where theta
    is 0."""
    if transit_matrix.table.ids != matrix.table.ids:
        raise ValueError("the transit matrix does not list the matrix's location ids in the same order")
    theta, theta_t = (
        invasion_probability(params.beta, params.gamma, mat.m[:, source], mat.populations, variant).tolist()
        for mat in (matrix, transit_matrix)
    )
    order = sorted((j for j in range(matrix.n) if j != source), key=lambda j: (-theta[j], j))
    ids = matrix.table.ids
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(("source_id", "dest_id", "theta", "theta_transit", "ratio"))
        for j in order:
            ratio = repr(theta_t[j] / theta[j]) if theta[j] > 0 else ""
            out.writerow((ids[source], ids[j], repr(theta[j]), repr(theta_t[j]), ratio))
