"""Kernel specifications: homogeneous kernels, the Bessel kernel, and the
hyperbolic Green kernel.

A homogeneous kernel is g(z) = a(z/|z|) |z|^{alpha-n} whose angular part
has constant length |a| on the sphere: a scalar constant (Riesz and its
multiples), or c * omega for the vector gradient kernels.  That length is
all the sharp constant A_g = omega_{n-1} |a|^{n/(n-alpha)} / n reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import hyp2f1, kv

from .constants import riesz_normalization, sphere_area
from .errors import DegenerateOddCase, DomainError
from .params import Params


@dataclass(frozen=True)
class KernelSpec:
    """A convolution kernel.

    kind: 'homogeneous' | 'bessel' | 'hyperbolic' (the order-2 Green
          kernel, so alpha must be 2)
    constant_angular_value: the angular part a of a scalar homogeneous
          kernel, or its length |a| = c when vector is set and the angular
          part is c * omega.
    vector: the kernel is vector valued (the gradient kernels) and acts by
          dot product on radial-vector fields.
    """

    kind: str
    params: Params
    constant_angular_value: float = 1.0
    vector: bool = False
    label: str = "kernel"

    def __post_init__(self):
        if self.kind not in ("homogeneous", "bessel", "hyperbolic"):
            raise DomainError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "hyperbolic" and self.params.alpha != 2.0:
            raise DomainError(f"the hyperbolic Green kernel has order 2, "
                              f"got alpha={self.params.alpha}")

    @property
    def is_scalar_homogeneous(self) -> bool:
        """The kernels every engine takes: homogeneous with a constant
        scalar angular part."""
        return self.kind == "homogeneous" and not self.vector


def riesz_kernel(params: Params) -> KernelSpec:
    """|z|^{alpha-n}, with angular part 1."""
    return KernelSpec(kind="homogeneous", params=params,
                      constant_angular_value=1.0, label="riesz")


def constant_kernel(params: Params, value: float, label: str = "const") -> KernelSpec:
    return KernelSpec(kind="homogeneous", params=params,
                      constant_angular_value=value, label=label)


def gradient_kernel(n: int, alpha: int) -> KernelSpec:
    """Vector kernel of the odd-order gradient representation.

    Angular part c_{alpha+1} (n - alpha - 1) * omega (unit-vector valued),
    degree alpha - n; for (n, alpha) = (2, 1) the angular part is
    omega / (2 pi).  The reciprocal of its sharp constant reproduces the
    first-order Moser constant for alpha = 1.
    """
    if alpha % 2 == 0:
        raise DomainError("gradient kernel is defined for odd orders")
    if (n, alpha) != (2, 1) and n - alpha - 1 <= 0:
        raise DegenerateOddCase(
            f"gradient representation degenerates for alpha={alpha}, n={n}")
    if (n, alpha) == (2, 1):
        scale = 1.0 / (2.0 * math.pi)
    else:
        scale = riesz_normalization(n, alpha + 1) * (n - alpha - 1)
    return KernelSpec(kind="homogeneous", params=Params(n=n, alpha=float(alpha)),
                      constant_angular_value=scale, vector=True,
                      label=f"gradient_{n}_{alpha}")


def bessel_kernel(n: int, alpha: float, r) -> np.ndarray:
    """Kernel of (I - Laplacian)^{-alpha/2} in closed form (DLMF 10.32.10):

    G_alpha(r) = 2 (4 pi)^{-a/2} / Gamma(a/2) * (2 pi r)^{(a-n)/2}
                 * K_{(n-a)/2}(r),

    the subordination integral
    (4 pi)^{-a/2} / Gamma(a/2) int_0^inf e^{-pi r^2/t} e^{-t/(4 pi)} t^{(a-n)/2} dt/t
    evaluated through the modified Bessel function K_nu.
    """
    if not 0 < alpha < n:
        raise DomainError("need 0 < alpha < n for the Bessel kernel")
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(r <= 0):
        raise DomainError("Bessel kernel evaluated at positive radii only")
    out = (2.0 * (4.0 * math.pi) ** (-alpha / 2.0) / math.gamma(alpha / 2.0)
           * (2.0 * math.pi * r) ** ((alpha - n) / 2.0) * kv((n - alpha) / 2.0, r))
    return out if out.size > 1 else float(out[0])


def hyperbolic_h2_exact(n: int, rho) -> np.ndarray:
    """Green kernel of the hyperbolic Laplacian, the order-2 kernel on H^n:

    H_2(rho) = (1/omega_{n-1}) int_rho^inf sinh^{1-n} r dr
             = 2^k e^{-k rho} / (k omega_{n-1})
               * 2F1(k/2, k; k/2 + 1; e^{-2 rho}),   k = n - 1,

    by x = e^{-2r}, which turns the tail into an incomplete beta function
    (DLMF 8.17.7, 15.4).  Upward recursions in k cancel at large rho;
    this form does not.
    """
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    if np.any(rho <= 0):
        raise DomainError("geodesic radius must be positive")
    k = n - 1
    out = (2.0**k / (k * sphere_area(n)) * np.exp(-k * rho)
           * hyp2f1(0.5 * k, k, 0.5 * k + 1.0, np.exp(-2.0 * rho)))
    return out if out.size > 1 else float(out[0])


def bessel_kernel_spec(params: Params) -> KernelSpec:
    return KernelSpec(kind="bessel", params=params, label="bessel")


def hyperbolic_kernel_spec(params: Params) -> KernelSpec:
    """The Green kernel hyperbolic_h2_exact; params.alpha must be 2."""
    return KernelSpec(kind="hyperbolic", params=params, label="hyperbolic")
