"""Saturating families for the sharp exponential inequalities.

The truncated-power family (ExtremalFamily) lives on the annulus
eps <= |y| <= 1; its moment-cancelled version subtracts the L^2(B_1)
projection onto polynomials of degree <= 2n, which forces the potential to
decay fast enough at infinity for the critical norm to be finite.  Log-plateau
families (LogFamily, Euclidean and hyperbolic) drive the first-order
blow-up tests.

Every kernel here is rotation-equivariant, so the projection reduces to a
small radial moment system solved in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import DomainError
from .grids import RadialFunction, anchored_log_grid
from .kernels import KernelSpec
from .measures import MeasureDensity, hyperbolic_volume, lebesgue
from .norms import lp_norm, pair_q_norm
from .params import Params
from .potentials import far_field_from_moments, radial_convolve

FAMILY_R_MIN = 1e-7
FAMILY_R_MAX = 1e3


# ---------------------------------------------------------------------------
# truncated-power families
# ---------------------------------------------------------------------------

def _power_integral(expo: float, lo: float, hi: float) -> float:
    """int_lo^hi rho^{expo - 1} d rho with the log case handled."""
    if abs(expo) < 1e-13:
        return math.log(hi / lo)
    return (hi**expo - lo**expo) / expo


def _power_offset(vector: bool) -> int:
    """o in the projection's powers rho^{2k + o}: radial-vector data pairs
    with odd powers, scalar data with even ones."""
    return 1 if vector else 0


def _radial_projection_coeffs(n: int, alpha: float, eps: float, c_phi: float,
                              vector: bool) -> np.ndarray:
    """L^2(B_1) projection of the truncated power profile onto the
    rotation-equivariant part of the degree-2n polynomials.

    Scalar data projects onto even radial polynomials sum_k c_k rho^{2k},
    k <= n; radial-vector data onto (y/|y|) sum_k c_k rho^{2k+1}, k <= n-1.
    Returns the coefficients c_k; this matches the full-ball projection by
    rotational averaging.
    """
    o = _power_offset(vector)
    ks = np.arange(n + 1 - o)
    gram = 1.0 / (ks[:, None] + ks[None, :] + o + n / 2.0) / 2.0
    rhs = np.array([c_phi * _power_integral(2 * k + o - alpha + n, eps, 1.0)
                    for k in ks])
    return np.linalg.solve(gram, rhs)


@dataclass(slots=True)
class ExtremalFamily:
    """One member of a truncated-power (Adams) family.

    kind: 'adams_phi' | 'adams_corrected' | 'adams_normalized' |
    'adams_dilated'.  profile holds the (scalar) radial values; for a
    vector kernel it is the radial magnitude of the field
    (y/|y|) * profile.  potential is T_g of the profile, filled in by
    attach_potential; norm_pth_power caches ||f||_{n/a}^{n/a};
    potential_norm_pth the same for T f.  proj_coeffs is read-only, as the
    arrays of every RadialFunction are, so callers can share a family.
    """

    kind: str
    eps: float
    params: Params
    kernel: KernelSpec
    profile: RadialFunction
    r_dilation: float = 1.0
    potential: Optional[RadialFunction] = None
    proj_coeffs: Optional[np.ndarray] = None
    c_phi: float = 0.0
    norm_pth_power: Optional[float] = None
    potential_norm_pth: Optional[float] = None
    normalization: float = 1.0

    def even_moments(self, jmax: int) -> np.ndarray:
        """Analytic radial moments of the profile, exact for truncated-power
        families.

        Scalar data: int phi_tilde rho^{2j + n - 1} d rho (the first n + 1
        vanish for the corrected kind).  Radial-vector data pairs against
        odd polynomials, so the cancelled multipoles are
        int phi_tilde rho^{2j + n} d rho (the first n vanish).
        """
        if self.kind not in ("adams_phi", "adams_corrected", "adams_normalized"):
            raise DomainError("moments available for truncated-power families")
        n, alpha = self.params.n, self.params.alpha
        o = _power_offset(self.kernel.vector)
        out = np.empty(jmax + 1)
        for j in range(jmax + 1):
            val = self.c_phi * _power_integral(2 * j + o + n - alpha, self.eps, 1.0)
            if self.proj_coeffs is not None:
                for k, c in enumerate(self.proj_coeffs):
                    val -= c / (2 * j + 2 * k + 2 * o + n)
            out[j] = val
        return out

    def far_field(self, r: np.ndarray) -> np.ndarray:
        """Potential far from the support via the even-moment expansion."""
        if not self.kernel.is_scalar_homogeneous:
            raise DomainError("moment far field needs a scalar homogeneous kernel")
        moments = self.even_moments(40)
        return far_field_from_moments(self.kernel, moments, r) / self.normalization


def _family_grid(eps: float, per_decade: int = 400) -> np.ndarray:
    return anchored_log_grid(1.0, min(FAMILY_R_MIN, eps / 30.0), FAMILY_R_MAX,
                             per_decade=per_decade)


def adams_family(g: KernelSpec, eps: float, corrected: bool = True,
                 per_decade: int = 400) -> ExtremalFamily:
    """Truncated power profile kappa^{a/(n-a)} |y|^{-a} on eps <= |y| <= 1,
    optionally with its degree-2n polynomial projection subtracted.

    kappa = |a| is the constant length of the kernel's angular part; the
    vector (gradient) kernels produce the radial-vector family.
    """
    if not 0 < eps < 1:
        raise DomainError("family parameter must lie in (0, 1)")
    p = g.params
    n, alpha = p.n, p.alpha
    if g.kind != "homogeneous":
        raise DomainError("truncated-power families need a homogeneous kernel")
    c_phi = abs(g.constant_angular_value) ** (alpha / (n - alpha))

    grid = _family_grid(eps, per_decade)
    # snap eps to the grid so the support edge is a node
    j_eps = int(np.argmin(np.abs(np.log(grid) - math.log(eps))))
    eps_snapped = float(grid[j_eps])

    coeffs = None
    values = np.where((grid >= eps_snapped) & (grid <= 1.0),
                      c_phi * grid ** (-alpha), 0.0)
    # half-value jump nodes for trapezoid consistency
    values[j_eps] *= 0.5
    j_one = int(np.argmin(np.abs(grid - 1.0)))
    values[j_one] *= 0.5
    if corrected:
        coeffs = _radial_projection_coeffs(n, alpha, eps_snapped, c_phi, g.vector)
        coeffs.setflags(write=False)
        powers = 2 * np.arange(len(coeffs)) + _power_offset(g.vector)
        poly = np.zeros_like(grid)
        inside = grid <= 1.0
        for c, k in zip(coeffs, powers):
            poly[inside] += c * grid[inside] ** k
        poly[j_one] *= 0.5
        values = values - poly
    profile = RadialFunction(grid, values, n, tail_exponent=None)
    return ExtremalFamily(
        kind="adams_corrected" if corrected else "adams_phi",
        eps=eps_snapped, params=p, kernel=g, profile=profile,
        proj_coeffs=coeffs, c_phi=c_phi)


def attach_potential(fam: ExtremalFamily) -> ExtremalFamily:
    """The family with T_g of its profile and both critical norms filled in.

    Corrected families annihilate moments up to degree 2n, so their
    potentials decay at the first surviving multipole order rather than the
    generic homogeneous rate; the tail exponent is set accordingly.
    """
    n, alpha = fam.params.n, fam.params.alpha
    if fam.kind == "adams_corrected":
        tail = alpha - n - (2 * n + 2 - _power_offset(fam.kernel.vector))
    else:
        tail = alpha - n
    tf = radial_convolve(fam.profile, fam.kernel, tail_exponent_out=tail)
    pc = fam.params.p_crit
    return replace(fam, potential=tf,
                   norm_pth_power=lp_norm(fam.profile, pc) ** pc,
                   potential_norm_pth=lp_norm(tf, pc) ** pc)


def _require_potential(fam: ExtremalFamily) -> None:
    if fam.potential is None:
        raise DomainError("attach the potential first (attach_potential)")


def normalize_ruf(fam: ExtremalFamily) -> ExtremalFamily:
    """Divide by the paired-norm normalizer so that
    (||f||^{n/a} + ||Tf||^{n/a})^{a/n} = 1, propagating to the potential."""
    if fam.kind != "adams_corrected":
        raise DomainError("normalization applies to the corrected family")
    _require_potential(fam)
    pc = fam.params.p_crit
    d = (fam.norm_pth_power + fam.potential_norm_pth) ** (1.0 / pc)
    return replace(
        fam, kind="adams_normalized",
        profile=fam.profile.with_values(fam.profile.values / d),
        potential=fam.potential.with_values(fam.potential.values / d),
        norm_pth_power=fam.norm_pth_power / d**pc,
        potential_norm_pth=fam.potential_norm_pth / d**pc,
        normalization=d)


def dilated_family(fam: ExtremalFamily, q: float, theta: float) -> ExtremalFamily:
    """Dilation-coupled family normalized in the q-norm.

    r = (1-theta)^{-1/(n q')} and the coupling log(1/eps^n) = r^{n q'} fix
    eps; the dilation f -> r^{-a} f(./r) shifts the log grid, leaves
    ||f||_{n/a} unchanged, and scales ||Tf||_{n/a} by r^a.
    """
    if not 0 < theta < 1:
        raise DomainError("theta must lie in (0, 1)")
    p = Params(n=fam.params.n, alpha=fam.params.alpha, q=q, sigma=fam.params.sigma)
    qc = p.q_conj
    r = (1.0 - theta) ** (-1.0 / (p.n * qc))
    _require_potential(fam)
    pc = p.p_crit
    a_norm = fam.norm_pth_power ** (1.0 / pc)
    b_norm = (fam.potential_norm_pth ** (1.0 / pc)) * r**p.alpha
    d = pair_q_norm(a_norm, b_norm, p)
    grid = fam.profile.grid * r
    prof = RadialFunction(grid, fam.profile.values * r ** (-p.alpha) / d, p.n)
    pot = RadialFunction(grid, fam.potential.values / d, p.n,
                         tail_exponent=fam.potential.tail_exponent)
    return ExtremalFamily(
        kind="adams_dilated", eps=fam.eps, params=p, kernel=fam.kernel,
        profile=prof, r_dilation=r,
        potential=pot, proj_coeffs=fam.proj_coeffs, c_phi=fam.c_phi,
        norm_pth_power=(a_norm / d) ** pc,
        potential_norm_pth=(b_norm / d) ** pc,
        normalization=d)


def coupling_eps(n: int, q: float, theta: float) -> float:
    """eps solving log(1/eps^n) = r^{n q'} with r = (1-theta)^{-1/(n q')}."""
    qc = math.inf if q == 1.0 else (1.0 if math.isinf(q) else q / (q - 1.0))
    r = (1.0 - theta) ** (-1.0 / (n * qc))
    return math.exp(-(r ** (n * qc)) / n)


# ---------------------------------------------------------------------------
# log-plateau families
# ---------------------------------------------------------------------------

def _smoothstep(x: np.ndarray) -> np.ndarray:
    x = np.clip(x, 0.0, 1.0)
    return x**3 * (10.0 - 15.0 * x + 6.0 * x**2)


def _smoothstep_int(x: np.ndarray) -> np.ndarray:
    """Antiderivative of the quintic smoothstep with value 0 at 0."""
    x = np.clip(x, 0.0, 1.0)
    return 2.5 * x**4 - 3.0 * x**5 + x**6


def _bump(x: np.ndarray) -> np.ndarray:
    """30 x^2 (1-x)^2 on [0, 1]: unit mass, vanishing with its derivative
    at both ends; its antiderivative is the quintic smoothstep."""
    inside = (x > 0.0) & (x < 1.0)
    return np.where(inside, 30.0 * x**2 * (1.0 - x) ** 2, 0.0)


def log_plateau_profile(eps: float, smoothing_width: float):
    """C^1 profile: log(1/eps) inside eps, log(1/r) in the middle, 0 on
    r >= 1; the plateau value is exactly log(1/eps).

    Returns (value, derivative) callables.  The two corners are mollified
    in t = log(1/r) over windows of width log(1 + 2 w / eps) (default
    w = eps/2 gives the classical [eps, 2 eps] inner corner) by shaping
    dv/dt with a quintic-smoothstep ramp plus a mass-matching bump; this
    keeps the derivative overshoot near its convexity minimum, so the
    gradient-norm excess over the log-length stays well under one unit.
    """
    if not 0 < eps < 0.25:
        raise DomainError("plateau parameter must lie in (0, 1/4)")
    if not 0 < smoothing_width <= eps:
        raise DomainError("smoothing width must lie in (0, eps]")
    # work in t = log(1/r); slopes below are dv/dt
    delta = math.log(1.0 + 2.0 * smoothing_width / eps)
    t_p = math.log(1.0 / eps)
    t_c = t_p - delta                       # inner corner window [t_c, t_p]
    if 2.0 * delta > t_p:
        raise DomainError("corner windows overlap: reduce the smoothing width")
    l_eps = t_p

    def _slope_t(t: np.ndarray) -> np.ndarray:
        out = np.zeros_like(t)
        outer = (t > 0.0) & (t < delta)     # support-edge corner at r = 1
        tau = t[outer] / delta
        out[outer] = _smoothstep(tau) + 0.5 * _bump(tau)
        core = (t >= delta) & (t <= t_c)
        out[core] = 1.0
        inner = (t > t_c) & (t < t_p)
        tau2 = (t[inner] - t_c) / delta
        out[inner] = 1.0 - _smoothstep(tau2) + 0.5 * _bump(tau2)
        return out

    def value(r):
        r = np.asarray(r, dtype=float)
        t = np.log(1.0 / np.clip(r, 1e-300, None))
        out = np.zeros_like(t)
        outer = (t > 0.0) & (t < delta)
        tau = np.clip(t / delta, 0.0, 1.0)
        out = np.where(outer,
                       delta * (_smoothstep_int(tau) + 0.5 * _smoothstep(tau)),
                       out)
        core = (t >= delta) & (t <= t_c)
        out = np.where(core, t, out)
        inner = (t > t_c) & (t < t_p)
        tau2 = np.clip((t - t_c) / delta, 0.0, 1.0)
        out = np.where(inner, t_c + delta * (tau2 - _smoothstep_int(tau2)
                                             + 0.5 * _smoothstep(tau2)), out)
        out = np.where(t >= t_p, l_eps, out)
        return out

    def derivative(r):
        r = np.asarray(r, dtype=float)
        rr = np.clip(r, 1e-300, None)
        t = np.log(1.0 / rr)
        # dv/dr = -(dv/dt)/r
        return -_slope_t(t) / rr

    return value, derivative


@dataclass(slots=True)
class LogFamily:
    """One member of a log-plateau family: the profile v, its gradient
    magnitude |v'| on the same grid, and the measure both integrate against
    (Lebesgue, or the hyperbolic volume in geodesic polar coordinates)."""

    eps: float
    params: Params
    profile: RadialFunction
    gradient: RadialFunction
    measure: MeasureDensity


def moser_log_family(n: int, alpha: float, eps: float,
                     smoothing_width: Optional[float] = None,
                     per_decade: int = 400) -> LogFamily:
    """Mollified log-plateau family; for alpha = 1 the first-order gradient
    norm grows like omega_{n-1} log(1/eps) + O(1)."""
    w = smoothing_width if smoothing_width is not None else eps / 2.0
    value, derivative = log_plateau_profile(eps, w)
    grid = anchored_log_grid(1.0, eps / 30.0, 10.0, per_decade=per_decade)
    return LogFamily(eps=eps, params=Params(n=n, alpha=alpha),
                     profile=RadialFunction(grid, value(grid), n),
                     gradient=RadialFunction(grid, np.abs(derivative(grid)), n),
                     measure=lebesgue(n))


def hyperbolic_log_family(n: int, alpha: float, eps: float,
                          smoothing_width: Optional[float] = None,
                          per_decade: int = 400) -> LogFamily:
    """Same profile in geodesic polar coordinates with sinh^{n-1} volume."""
    return replace(moser_log_family(n, alpha, eps, smoothing_width, per_decade),
                   measure=hyperbolic_volume(n))


def gradient_norm_pth(fam: LogFamily) -> float:
    """||grad v||_{n/a}^{n/a} of a log family against its measure."""
    pc = fam.params.p_crit
    return lp_norm(fam.gradient, pc, fam.measure) ** pc

