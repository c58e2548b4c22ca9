"""Closed-form and quadrature evaluation of the sharp exponential constants.

All gamma-function evaluations go through math.lgamma / math.gamma, which
carry 15+ significant digits; constants computed here feed exponents, so
relative error must stay near machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import DegenerateOddCase, DomainError, QuadratureNotConverged

if TYPE_CHECKING:  # pragma: no cover
    from .kernels import KernelSpec


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere S^{n-1}: 2 pi^{n/2} / Gamma(n/2)."""
    if n < 1:
        raise DomainError(f"sphere dimension must be >= 1, got n={n}")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def ball_volume(n: int) -> float:
    """Volume of the unit ball: sphere_area(n) / n."""
    return sphere_area(n) / n


def riesz_normalization(n: int, alpha: float) -> float:
    """Normalization c_alpha = Gamma((n-a)/2) / (2^a pi^{n/2} Gamma(a/2))."""
    if not 0 < alpha < n:
        raise DomainError(f"need 0 < alpha < n, got alpha={alpha}, n={n}")
    return math.exp(
        math.lgamma((n - alpha) / 2.0)
        - alpha * math.log(2.0)
        - (n / 2.0) * math.log(math.pi)
        - math.lgamma(alpha / 2.0)
    )


def sharp_gamma(n: int, alpha: int) -> float:
    """Largest exponential coefficient for the critical Sobolev inequality.

    Even alpha: c_alpha^{-n/(n-alpha)} / |B_1|.
    Odd alpha with n - alpha - 1 > 0: ((n-alpha-1) c_{alpha+1})^{-n/(n-alpha)} / |B_1|.
    (n, alpha) = (2, 1) is the classical 4*pi.

    Raises DegenerateOddCase for odd alpha = n - 1 with n > 2, where the
    gradient representation degenerates and no sharp value is available.
    """
    if int(alpha) != alpha:
        raise DomainError(f"sharp constant defined for integer order, got {alpha}")
    alpha = int(alpha)
    if not 0 < alpha < n:
        raise DomainError(f"need 0 < alpha < n, got alpha={alpha}, n={n}")
    expo = n / (n - alpha)
    if alpha % 2 == 0:
        return riesz_normalization(n, alpha) ** (-expo) / ball_volume(n)
    if (n, alpha) == (2, 1):
        return 4.0 * math.pi
    if n - alpha - 1 <= 0:
        raise DegenerateOddCase(
            f"odd order alpha={alpha} with n={n} leaves no sharp-constant formula"
        )
    c_next = riesz_normalization(n, alpha + 1)
    return ((n - alpha - 1) * c_next) ** (-expo) / ball_volume(n)


def moser_gamma(n: int) -> float:
    """First-order sharp constant n * omega_{n-1}^{1/(n-1)}."""
    return n * sphere_area(n) ** (1.0 / (n - 1))


def _angular_magnitude(angular, omegas: np.ndarray) -> np.ndarray:
    """|g| on an array of sphere points, for scalar or vector angular parts."""
    vals = np.asarray(angular(omegas), dtype=float)
    if vals.ndim == 1:
        return np.abs(vals)
    # vector-valued: components along the last axis
    return np.sqrt(np.sum(vals * vals, axis=-1))


def _sphere_quadrature_nodes(n: int, order: int):
    """Nodes (unit vectors) and weights integrating over S^{n-1}.

    n = 2: trapezoid on [0, 2pi); n = 3: Gauss-Legendre colatitude x
    trapezoid longitude.  Exact-spectral for smooth angular parts.
    """
    if n == 2:
        theta = np.arange(order) * (2.0 * math.pi / order)
        nodes = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        weights = np.full(order, 2.0 * math.pi / order)
        return nodes, weights
    if n == 3:
        m_lat = order
        m_lon = 2 * order
        x, w = np.polynomial.legendre.leggauss(m_lat)  # x = cos(colatitude)
        phi = np.arange(m_lon) * (2.0 * math.pi / m_lon)
        sin_t = np.sqrt(1.0 - x**2)
        ct, cp = np.meshgrid(x, phi, indexing="ij")
        st = np.sqrt(1.0 - ct**2)
        nodes = np.stack([ct, st * np.cos(cp), st * np.sin(cp)], axis=-1).reshape(-1, 3)
        weights = np.outer(w, np.full(m_lon, 2.0 * math.pi / m_lon)).ravel()
        return nodes, weights
    raise DomainError(f"tensor sphere quadrature implemented for n in {{2, 3}}, got n={n}")


def kernel_sharp_constant(g: "KernelSpec") -> float:
    """A_g = (1/n) * integral over S^{n-1} of |g(omega)|^{n/(n-alpha)}.

    Validated by one refinement doubling; raises QuadratureNotConverged when
    the two levels differ by more than 1e-8 relative.
    """
    if g.kind != "homogeneous":
        raise DomainError("sharp kernel constant defined for homogeneous kernels only")
    n = g.params.n
    beta = g.params.beta
    if g.is_constant_angular:
        c = abs(g.constant_angular_value)
        return sphere_area(n) * c**beta / n

    base = 2048 if n == 2 else 256

    def level(m: int) -> float:
        nodes, weights = _sphere_quadrature_nodes(n, m)
        mag = _angular_magnitude(g.angular, nodes)
        return float(np.sum(weights * mag**beta)) / n

    coarse, fine = level(base), level(2 * base)
    scale = max(abs(fine), 1e-300)
    if abs(fine - coarse) / scale > 1e-8:
        raise QuadratureNotConverged(
            f"sphere quadrature for A_g not converged: {coarse} vs {fine}"
        )
    return fine


@dataclass(frozen=True)
class SharpConstants:
    """The named constants for a given (n, alpha) and optional kernel."""

    omega: float
    ball_vol: float
    c_alpha: float
    gamma: Optional[float]
    A_g: Optional[float]

    @staticmethod
    def compute(n: int, alpha: float, g: "KernelSpec | None" = None) -> "SharpConstants":
        gamma = None
        if float(alpha).is_integer():
            try:
                gamma = sharp_gamma(n, int(alpha))
            except DegenerateOddCase:
                gamma = None
        a_g = kernel_sharp_constant(g) if g is not None else None
        return SharpConstants(
            omega=sphere_area(n),
            ball_vol=ball_volume(n),
            c_alpha=riesz_normalization(n, alpha),
            gamma=gamma,
            A_g=a_g,
        )

    def as_dict(self) -> dict:
        return {
            "omega": self.omega,
            "ball_vol": self.ball_vol,
            "c_alpha": self.c_alpha,
            "gamma": self.gamma,
            "A_g": self.A_g,
        }
