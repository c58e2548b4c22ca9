"""Closed-form evaluation of the sharp exponential constants.

All gamma-function evaluations go through math.lgamma / math.gamma, which
carry 15+ significant digits; constants computed here feed exponents, so
relative error must stay near machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .errors import DegenerateOddCase, DomainError

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


def kernel_sharp_constant(g: "KernelSpec") -> float:
    """A_g = (1/n) * integral over S^{n-1} of |g(omega)|^{n/(n-alpha)}.

    Every homogeneous kernel has an angular part of constant length |a|
    (a scalar constant, or c * omega for the gradient kernels), so the
    integral is omega_{n-1} |a|^{n/(n-alpha)} in closed form.
    """
    if g.kind != "homogeneous":
        raise DomainError("sharp kernel constant defined for homogeneous kernels only")
    n = g.params.n
    return sphere_area(n) * abs(g.constant_angular_value) ** g.params.beta / n


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
