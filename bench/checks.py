"""Reference values computed apart from `sil`, used to check its outputs.

Nothing here imports `sil`: each helper is a closed form or an exact
quadrature, so a fault in the library cannot hide in its own check.
"""

from __future__ import annotations

import math

import numpy as np


def exact_exp_integral(y, f) -> float:
    """Integral of e^{-F} over [y_0, y_K] for F linear between the samples.

    On a segment of width h where F goes from f0 to f1 = f0 + d, the
    integral is h e^{-f0} (1 - e^{-d}) / d, which tends to h e^{-f0} as
    d -> 0; expm1 keeps both limits accurate.
    """
    y = np.asarray(y, dtype=float)
    f = np.asarray(f, dtype=float)
    if y.ndim != 1 or y.shape != f.shape or y.size < 2:
        raise ValueError("need matching 1-D sample arrays with >= 2 points")
    h = np.diff(y)
    d = np.diff(f)
    flat = np.abs(d) < 1e-12
    safe = np.where(flat, 1.0, d)
    shape = np.where(flat, 1.0 - 0.5 * d, -np.expm1(-d) / safe)
    return float(np.sum(h * np.exp(-f[:-1]) * shape))


def inverse_radius_rearrangement(t) -> np.ndarray:
    """f*(t) of f = |x|^{-1} 1_{B_1} in the plane: sqrt(pi / t) for t <= pi.

    {f > s} is the disc of radius 1/s for s >= 1, of area pi / s^2.
    """
    t = np.asarray(t, dtype=float)
    if np.any((t <= 0) | (t > math.pi)):
        raise ValueError("closed form holds for 0 < t <= pi")
    return np.sqrt(math.pi / t)


def ball_potential_n3(r) -> np.ndarray:
    """Newtonian-type potential int_{B_1} |x - y|^{-1} dy in R^3 for |x| >= 1.

    Outside the ball the mean-value property gives |B_1| / |x| = (4 pi / 3) / r.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 1.0):
        raise ValueError("closed form holds outside the unit ball")
    return (4.0 * math.pi / 3.0) / r


def gradient_center_value(eps: float) -> float:
    """|T f(0)| for the planar gradient kernel omega / (2 pi |z|) acting on
    the outward radial-vector source (y / |y|) |y|^{-1} / (2 pi) on
    eps <= |y| <= 1: int_eps^1 (2 pi)^{-2} r^{-2} 2 pi r dr = log(1/eps) / (2 pi).
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("need 0 < eps < 1")
    return math.log(1.0 / eps) / (2.0 * math.pi)


def hyperbolic_green_h3(rho) -> np.ndarray:
    """Green kernel of the Laplacian on H^3: (1 / 4 pi) int_rho^inf sinh^{-2} r dr
    = (coth rho - 1) / (4 pi)."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0):
        raise ValueError("geodesic radius must be positive")
    return (1.0 / np.tanh(rho) - 1.0) / (4.0 * math.pi)


def lp_norm_pth_log_grid(r, values, n: int, p: float) -> float:
    """int |f|^p dx for a radial f sampled on a log grid, by the trapezoid
    rule in log r (the head ball and the tail are taken as zero)."""
    r = np.asarray(r, dtype=float)
    area = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    integrand = np.abs(np.asarray(values, dtype=float)) ** p * r**n
    return float(area * np.trapezoid(integrand, np.log(r)))


def max_relative_gap(got, want) -> float:
    """max |got - want| / max |want| over the arrays."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    scale = float(np.max(np.abs(want)))
    return float(np.max(np.abs(got - want))) / scale if scale > 0 else \
        float(np.max(np.abs(got)))
