"""Kernel specifications: homogeneous angular kernels, the Bessel kernel,
and hyperbolic Green kernels.

A homogeneous kernel is g(z) = a(z/|z|) |z|^{alpha-n} with a scalar or
vector angular part a on the sphere; the vector components share the same
homogeneity degree.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import kv

from .constants import riesz_normalization, sphere_area
from .errors import DegenerateOddCase, DomainError
from .params import Params


@dataclass(frozen=True)
class KernelSpec:
    """A convolution kernel.

    kind: 'homogeneous' | 'bessel' | 'hyperbolic_exact' | 'hyperbolic_asymptotic'
    angular: callable on an array of unit vectors (K, n) returning (K,) or
             (K, m) values; None means the constant scalar part.
    constant_angular_value: fast path for angular parts that are constant.
    """

    kind: str
    params: Params
    angular: Optional[Callable[[np.ndarray], np.ndarray]] = None
    constant_angular_value: Optional[float] = 1.0
    vector_arity: int = 1
    label: str = "kernel"

    def __post_init__(self):
        if self.kind not in ("homogeneous", "bessel",
                             "hyperbolic_exact", "hyperbolic_asymptotic"):
            raise DomainError(f"unknown kernel kind {self.kind!r}")
        if self.angular is not None and self.constant_angular_value is not None:
            object.__setattr__(self, "constant_angular_value", None)

    @property
    def is_constant_angular(self) -> bool:
        return self.kind == "homogeneous" and self.angular is None

    @property
    def is_vector(self) -> bool:
        return self.vector_arity > 1


def riesz_kernel(params: Params) -> KernelSpec:
    """|z|^{alpha-n}, with angular part 1."""
    return KernelSpec(kind="homogeneous", params=params,
                      constant_angular_value=1.0, label="riesz")


def constant_kernel(params: Params, value: float, label: str = "const") -> KernelSpec:
    return KernelSpec(kind="homogeneous", params=params,
                      constant_angular_value=value, label=label)


@functools.cache
def gradient_kernel(n: int, alpha: int) -> KernelSpec:
    """Vector kernel of the odd-order gradient representation.

    Angular part c_{alpha+1} (n - alpha - 1) * omega (unit-vector valued),
    degree alpha - n; for (n, alpha) = (2, 1) the angular part is
    omega / (2 pi).  The reciprocal of its sharp constant reproduces the
    first-order Moser constant for alpha = 1.  One spec per (n, alpha), so
    every caller shares its angular callable and equal kernels compare
    equal, which is how radial_convolve recognises gradient_kernel(n, 1).
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
    params = Params(n=n, alpha=float(alpha))

    def angular(omegas: np.ndarray) -> np.ndarray:
        return scale * np.asarray(omegas, dtype=float)

    return KernelSpec(kind="homogeneous", params=params, angular=angular,
                      vector_arity=n, label=f"gradient_{n}_{alpha}")


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
    """Green kernel of the hyperbolic Laplacian:
    H_2(rho) = (1/omega_{n-1}) int_rho^inf sinh^{1-n} r dr.

    The substitution u = e^{-r} maps the tail onto (0, e^{-rho}] where the
    integrand is smooth; fixed Gauss-Legendre there is exact to tolerance.
    """
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    if np.any(rho <= 0):
        raise DomainError("geodesic radius must be positive")
    x, w = np.polynomial.legendre.leggauss(160)
    # int_rho^inf dr / sinh^{n-1} r ; r = rho - log(z), z in (0, 1]
    z = 0.5 * (x + 1.0)
    wz = 0.5 * w
    rr = rho[:, None] - np.log(np.clip(z, 1e-300, None))
    vals = np.where(z > 0, np.sinh(rr) ** (1 - n) / np.clip(z, 1e-300, None), 0.0)
    out = np.sum(wz * vals, axis=1)
    out /= sphere_area(n)
    return out if out.size > 1 else float(out[0])


def hyperbolic_green(n: int, rho, mode: str = "exact_H2",
                     alpha: Optional[float] = None) -> np.ndarray:
    """Hyperbolic Green kernel values.

    mode 'exact_H2': numerical tail integral of sinh^{1-n} (order 2).
    mode 'asymptotic': matched model for general order alpha --
      c_alpha rho^{alpha-n} for rho <= 0.5, the decay envelope
      c' rho^{-1+alpha/2} e^{-(n-1) rho} for rho >= 2 (c' pinned by
      continuity with the small-rho model at rho = 2), log-linear
      interpolation of log H on (0.5, 2).  The blend on (0.5, 2) is a
      modeling choice, adequate for tail-integrability bookkeeping.
    """
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    if mode == "exact_H2":
        return hyperbolic_h2_exact(n, rho)
    if mode != "asymptotic":
        raise DomainError(f"unknown hyperbolic mode {mode!r}")
    if alpha is None:
        raise DomainError("asymptotic mode needs the kernel order alpha")
    c = riesz_normalization(n, alpha)
    lo, hi = 0.5, 2.0
    h_lo = c * lo ** (alpha - n)
    c_prime = c * hi ** (alpha - n) / (hi ** (-1.0 + alpha / 2.0)
                                       * math.exp(-(n - 1) * hi))
    h_hi = c_prime * hi ** (-1.0 + alpha / 2.0) * math.exp(-(n - 1) * hi)
    out = np.empty_like(rho)
    small = rho <= lo
    large = rho >= hi
    mid = ~small & ~large
    out[small] = c * rho[small] ** (alpha - n)
    out[large] = c_prime * rho[large] ** (-1.0 + alpha / 2.0) * np.exp(-(n - 1) * rho[large])
    if np.any(mid):
        t = (np.log(rho[mid]) - math.log(lo)) / (math.log(hi) - math.log(lo))
        out[mid] = np.exp((1 - t) * math.log(h_lo) + t * math.log(h_hi))
    return out if out.size > 1 else float(out[0])


def bessel_kernel_spec(params: Params) -> KernelSpec:
    return KernelSpec(kind="bessel", params=params, label="bessel")


def hyperbolic_kernel_spec(params: Params, exact: bool = True) -> KernelSpec:
    kind = "hyperbolic_exact" if exact else "hyperbolic_asymptotic"
    return KernelSpec(kind=kind, params=params, label=kind)
