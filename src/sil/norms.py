"""Lebesgue norms of radial profiles, plus the paired norms.

Radial integrals use trapezoid quadrature in log-radius with the measure's
radial weight; the declared power tail beyond the last node is the
measure's own tail integral.  The same node masses feed the rearrangement
machinery so that equimeasurability is exact up to the shared quadrature.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import DomainError
from .grids import RadialFunction, trapezoid_weights_log
from .measures import MeasureDensity, lebesgue


def require_radial(f) -> None:
    """Norms, rearrangements and functionals take radial profiles only."""
    if not isinstance(f, RadialFunction):
        raise DomainError(f"expected a RadialFunction, got {type(f).__name__}")


def node_masses(f: RadialFunction, nu: Optional[MeasureDensity] = None) -> np.ndarray:
    """Per-node measure masses m_j with int h dnu ~ sum_j m_j h(r_j)."""
    measure = nu if nu is not None else lebesgue(f.n)
    return trapezoid_weights_log(f.grid) * measure.radial_weight(f.grid)


def head_mass(f: RadialFunction, nu: Optional[MeasureDensity] = None) -> float:
    """Measure of the ball below the first grid node."""
    measure = nu if nu is not None else lebesgue(f.n)
    return measure.ball_mass_origin(float(f.grid[0]))


def cells(f: RadialFunction, nu: Optional[MeasureDensity] = None):
    """(values, masses) decomposition of |f| over the whole space: one cell
    per node, preceded by the head cell, the ball below the first node,
    carrying the first node's value.
    """
    require_radial(f)
    vals = f.magnitude()
    return (np.concatenate([[vals[0]], vals]),
            np.concatenate([[head_mass(f, nu)], node_masses(f, nu)]))


def lp_norm(f: RadialFunction, p: float,
            nu: Optional[MeasureDensity] = None) -> float:
    """(int |f|^p dnu)^{1/p}: log-grid trapezoid with the measure weight
    plus analytic head and tail pieces."""
    if p < 1:
        raise DomainError(f"norm exponent must be >= 1, got p={p}")
    vals, masses = cells(f, nu)
    # nodes first, then the head cell, then the tail
    bulk = float(np.sum(masses[1:] * vals[1:] ** p))
    head = float(masses[0]) * float(vals[0]) ** p
    tail = 0.0
    if f.tail_exponent is not None and vals[-1] != 0.0:
        measure = nu if nu is not None else lebesgue(f.n)
        tail = measure.tail_integral(float(f.grid[-1]), p * f.tail_exponent,
                                     float(vals[-1]) ** p)
    return (bulk + head + tail) ** (1.0 / p)


def pair_q_norm(a: float, b: float, params) -> float:
    """The q-family norm evaluated on a precomputed pair of norms."""
    if math.isinf(params.q):
        return max(a, b)
    qp = params.q * params.p_crit
    return (a**qp + b**qp) ** (1.0 / qp)
