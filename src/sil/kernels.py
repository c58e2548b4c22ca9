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


# the odd Taylor coefficients c_1, c_3, ..., c_21 of
# 1/Gamma(1 + z) = sum_k c_k z^k (DLMF 5.7.1 shifted by one; c_1 is Euler's
# gamma), which give gamma_1(mu) = -sum_j c_{2j+1} mu^{2j} of Temme's
# series to roundoff for |mu| <= 1/2
_RGAMMA_ODD = (5.7721566490153286e-01, -4.2002635034095236e-02,
               -4.2197734555544337e-02, 7.2189432466630995e-03,
               -2.1524167411495097e-04, -2.0134854780788239e-05,
               1.1330272319816959e-06, 6.1160951044814158e-09,
               -1.1812745704870201e-09, 7.7822634399050713e-12,
               5.1003702874544760e-13)


def _temme_series(mu: float, x: np.ndarray) -> tuple:
    """(K_mu(x), K_{mu+1}(x)) for 0 < x < 2 and |mu| <= 1/2 by Temme's
    series (Temme, J. Comput. Phys. 19, 1975; Numerical Recipes 6.7).
    Every 4 terms the converged points leave the loop."""
    gampl, gammi = 1.0 / math.gamma(1.0 + mu), 1.0 / math.gamma(1.0 - mu)
    gam1 = -math.fsum(c * mu ** (2 * j) for j, c in enumerate(_RGAMMA_ODD))
    gam2 = 0.5 * (gammi + gampl)
    fact = 1.0 if mu == 0.0 else math.pi * mu / math.sin(math.pi * mu)
    d = -np.log(0.5 * x)
    e = mu * d
    fact2 = 1.0 if mu == 0.0 else np.sinh(e) / e
    ff = fact * (gam1 * np.cosh(e) + gam2 * fact2 * d)
    e = np.exp(e)
    p = 0.5 * e / gampl  # (x/2)^{-mu} Gamma(1 + mu) / 2
    q = 0.5 / (e * gammi)  # (x/2)^{mu} Gamma(1 - mu) / 2
    k0, k1 = np.empty_like(x), np.empty_like(x)
    live = np.arange(x.size)
    total, total1 = ff.copy(), p.copy()
    c = np.ones_like(x)
    x4 = 0.25 * x * x
    for i in range(1, 200):
        ff = (i * ff + p + q) / (i * i - mu * mu)
        c *= x4 / i
        p /= i - mu
        q /= i + mu
        term = c * ff
        total += term
        total1 += c * (p - i * ff)
        if i % 4 == 0:
            done = np.abs(term) <= 1e-17 * np.abs(total)
            k0[live[done]] = total[done]
            k1[live[done]] = total1[done]
            live, ff, p, q, c, x4, total, total1 = (
                v[~done] for v in (live, ff, p, q, c, x4, total, total1))
            if not live.size:
                break
    k0[live], k1[live] = total, total1
    return k0, k1 * 2.0 / x


def _steed_cf2(mu: float, x: np.ndarray) -> tuple:
    """(K_mu(x), K_{mu+1}(x)) for x >= 2 by Steed's continued fraction CF2
    (Numerical Recipes 6.7).  Every 8 steps the converged points leave the
    loop; the steps a point takes past convergence add terms below
    roundoff."""
    k0, k1 = np.empty_like(x), np.empty_like(x)

    def finish(sel):
        idx = live[sel]
        xs = x[idx]
        k0[idx] = np.sqrt(math.pi / (2.0 * xs)) * np.exp(-xs) / s[sel]
        k1[idx] = k0[idx] * (mu + xs + 0.5 - a1 * h[sel]) / xs

    live = np.arange(x.size)
    b = 2.0 * (1.0 + x)
    d = delh = 1.0 / b
    h = d.copy()
    q1, q2 = np.zeros_like(x), np.ones_like(x)
    a1 = 0.25 - mu * mu
    c = a1  # the coefficients a and c do not depend on x
    a = -a1
    q = np.full_like(x, a1)
    s = 1.0 + q * delh
    for i in range(2, 1000):
        a -= 2 * (i - 1)
        c = -a * c / i
        q1, q2 = q2, (q1 - b * q2) / a
        q += c * q2
        b += 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h += delh
        dels = q * delh
        s += dels
        if i % 8 == 0:
            done = np.abs(dels) < 1e-17 * np.abs(s)
            finish(done)
            live, b, d, h, delh, q1, q2, q, s = (
                v[~done] for v in (live, b, d, h, delh, q1, q2, q, s))
            if not live.size:
                return k0, k1
    finish(np.ones(live.size, dtype=bool))
    return k0, k1


def bessel_k(nu: float, x: np.ndarray) -> np.ndarray:
    """The modified Bessel function K_nu(x), nu >= 0, x > 0: K_mu and
    K_{mu+1} at mu = nu - round(nu) by Temme's series below x = 2 and
    Steed's CF2 above, then the upward recurrence
    K_{mu+i+1} = K_{mu+i-1} + 2 (mu + i) K_{mu+i} / x."""
    x = np.asarray(x, dtype=float)
    steps = int(nu + 0.5)
    mu = nu - steps
    k0, k1 = np.empty_like(x), np.empty_like(x)
    small = x < 2.0
    for sel, method in ((small, _temme_series), (~small, _steed_cf2)):
        if np.any(sel):
            k0[sel], k1[sel] = method(mu, x[sel])
    for i in range(1, steps + 1):
        k0, k1 = k1, k0 + (mu + i) * (2.0 / x) * k1
    return k0


def bessel_kernel(n: int, alpha: float, r) -> np.ndarray:
    """Kernel of (I - Laplacian)^{-alpha/2} in closed form (DLMF 10.32.10):

    G_alpha(r) = 2 (4 pi)^{-a/2} / Gamma(a/2) * (2 pi r)^{(a-n)/2}
                 * K_{(n-a)/2}(r),

    the subordination integral
    (4 pi)^{-a/2} / Gamma(a/2) int_0^inf e^{-pi r^2/t} e^{-t/(4 pi)} t^{(a-n)/2} dt/t
    evaluated through the modified Bessel function K_nu (bessel_k).
    """
    if not 0 < alpha < n:
        raise DomainError("need 0 < alpha < n for the Bessel kernel")
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(r <= 0):
        raise DomainError("Bessel kernel evaluated at positive radii only")
    out = (2.0 * (4.0 * math.pi) ** (-alpha / 2.0) / math.gamma(alpha / 2.0)
           * (2.0 * math.pi * r) ** ((alpha - n) / 2.0)
           * bessel_k((n - alpha) / 2.0, r))
    return out if out.size > 1 else float(out[0])


def hyperbolic_h2_exact(n: int, rho) -> np.ndarray:
    """Green kernel of the hyperbolic Laplacian, the order-2 kernel on H^n:

    H_2(rho) = (1/omega_{n-1}) I_k(rho),  I_k(rho) = int_rho^inf csch^k r dr,
    k = n - 1.

    For rho >= log(2)/2, csch^k r = 2^k e^{-kr} (1 - e^{-2r})^{-k} expanded
    in x = e^{-2 rho} <= 1/2 integrates term by term:
    I_k = 2^k e^{-k rho} sum_j binom(k + j - 1, j) x^j / (k + 2j).
    Below, the reduction I_k = (csch^{k-2} rho coth rho - (k-2) I_{k-2})/(k-1)
    runs up from I_1 = log coth(rho/2) and I_2 = 2/expm1(2 rho); its first
    term is at least 4.8 times the second there, so each step loses under
    a bit.  Neither rule rounds e^{-2 rho} next to 1.
    """
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    if np.any(rho <= 0):
        raise DomainError("geodesic radius must be positive")
    k = n - 1
    out = np.empty_like(rho)
    far = rho >= 0.5 * math.log(2.0)
    if np.any(far):
        e1 = np.exp(-rho[far])  # powers of e^{-rho}, not exp(-k rho),
        x = e1 * e1  # keep k rho from rounding before the exponential
        # the coefficients binom(k + j - 1, j) / (k + 2j) while the term at
        # the largest x exceeds 1e-17 of the leading 1/k, summed by Horner
        x_max, coef = float(np.max(x)), [1.0 / k]
        j = 1
        while math.comb(k + j - 1, j) / (k + 2 * j) * x_max**j > 1e-17 / k:
            coef.append(math.comb(k + j - 1, j) / (k + 2 * j))
            j += 1
        total = np.full_like(x, coef[-1])
        for c in reversed(coef[:-1]):
            total *= x
            total += c
        out[far] = (2.0 * e1) ** k * total
    near = rho[~far]
    if near.size:
        if k % 2:
            tail, j = -np.log(np.tanh(0.5 * near)), 1
        else:
            tail, j = 2.0 / np.expm1(2.0 * near), 2
        while j < k:
            j += 2
            tail = (np.cosh(near) / np.sinh(near) ** (j - 1)
                    - (j - 2) * tail) / (j - 1)
        out[~far] = tail
    out /= sphere_area(n)
    return out if out.size > 1 else float(out[0])


def bessel_kernel_spec(params: Params) -> KernelSpec:
    return KernelSpec(kind="bessel", params=params, label="bessel")


def hyperbolic_kernel_spec(params: Params) -> KernelSpec:
    """The Green kernel hyperbolic_h2_exact; params.alpha must be 2."""
    return KernelSpec(kind="hyperbolic", params=params, label="hyperbolic")
