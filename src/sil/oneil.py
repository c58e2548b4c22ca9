"""Kernel rearrangements, the convolution majorant, and the exponential
change of variables that reduces the sharp bound to a level-set estimate.

The majorant for (Tf)**(t) combines a local average term with the tail
integral of k1* f*.  The chain runs one configuration, sigma = 1, p = 1,
q = beta, where the first-term constant is the classical O'Neil value
C0 = beta' A^{1/beta}; any other exponent pair would need a fitted C0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .constants import ball_volume, kernel_sharp_constant, riesz_normalization
from .errors import (DomainError, JInfinite, MassNotCaptured,
                     TailNotConverged)
from .grids import log_grid
from .kernels import KernelSpec, bessel_kernel, hyperbolic_h2_exact
from .measures import hyperbolic_ball_masses
from .params import Params
from .rearrange import RearrangedProfile


@dataclass
class KernelProfile:
    """Rearrangement data of a kernel: k1*(t), the constants of the power
    bound k1*(t) <= A^{1/beta} t^{-1/beta}, and the tail integral
    J = (1/A) int_1^inf (k1*)^beta dt.

    A truncated homogeneous profile is that power law up to the mass t_cut
    and 0 past it.  A sampled (Bessel, hyperbolic) profile keeps nodes
    (t_i, k_i) of the radially decreasing kernel, k_i = k(r_i) at the ball
    masses t_i = nu(B(0, r_i)): k1* is a power law between nodes, follows
    c t^{-1/beta} through the first node and below it, and is 0 past the
    last node.
    """

    beta: float
    A: float
    J: float
    t_cut: Optional[float] = None  # pure truncated profiles vanish past this
    t_nodes: Optional[np.ndarray] = None  # sampled profiles: ball masses
    k_nodes: Optional[np.ndarray] = None  # and the kernel's values there

    def k1star(self, t) -> np.ndarray:
        """k1*(t), vectorized in t."""
        t = np.asarray(t, dtype=float)
        if self.t_cut is not None:
            vals = (self.A / np.clip(t, 1e-300, None)) ** (1.0 / self.beta)
            return np.where(t > self.t_cut, 0.0, vals)
        tn, kn = self.t_nodes, self.k_nodes
        i = _segment(tn, t)
        s = np.where(t < tn[0], -1.0 / self.beta, _slopes(tn, kn)[i])
        return np.where(t > tn[-1], 0.0, kn[i] * (t / tn[i]) ** s)

    def k1_antideriv(self, u) -> np.ndarray:
        """int_0^u k1*(s) ds in closed form, exact for both profiles."""
        u = np.asarray(u, dtype=float)
        bc = self.beta / (self.beta - 1.0)
        if self.t_cut is not None:
            uu = np.minimum(u, self.t_cut)
            return self.A ** (1.0 / self.beta) * bc * uu ** (1.0 / bc)
        tn, kn = self.t_nodes, self.k_nodes
        u = np.minimum(u, tn[-1])
        head = kn[0] * tn[0] * bc * (np.minimum(u, tn[0]) / tn[0]) ** (1.0 / bc)
        e = _slopes(tn, kn) + 1.0
        done = np.concatenate([[0.0], np.cumsum(_power_integral(
            kn[:-1] * tn[:-1], e, np.log(tn[1:] / tn[:-1])))])
        i = _segment(tn, u)
        part = _power_integral(kn[i] * tn[i], e[i],
                               np.log(np.maximum(u, tn[0]) / tn[i]))
        return head + done[i] + part


def _segment(tn: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Index i of the node segment [t_i, t_{i+1}] that holds each t: the
    first segment for t below it, the last for t above it."""
    return np.clip(np.searchsorted(tn, t, side="right") - 1, 0, tn.size - 2)


def _slopes(tn: np.ndarray, kn: np.ndarray) -> np.ndarray:
    """Log-log slopes of the node segments."""
    return np.log(kn[1:] / kn[:-1]) / np.log(tn[1:] / tn[:-1])


def _power_integral(wa, e, ell):
    """int_a^{a e^ell} w (t/a)^{e-1} dt = w a ell (e^{e ell} - 1)/(e ell),
    given wa = w a; the ratio is 1 at e ell = 0."""
    x = np.asarray(e * ell, dtype=float)
    ratio = np.divide(np.expm1(x), x, out=np.ones_like(x), where=x != 0.0)
    return wa * ell * ratio


def kernel_profile(kernel: KernelSpec, truncation_radius: Optional[float] = None,
                   grid: Optional[np.ndarray] = None) -> KernelProfile:
    """Rearrangement profile of a kernel with its bound constants.

    Homogeneous kernels, scalar or vector, give the exact power profile of
    |g| = |a| r^{alpha-n}; with a truncation radius the tail integral J is
    finite, without one it diverges (JInfinite).  Bessel and hyperbolic
    kernels decrease radially, so k1*(nu(B(0, r))) = k(r) needs no sort:
    their profiles keep the positive samples of a radial grid at the
    closed-form ball masses, and J is summed over the pieces exactly.
    """
    p = kernel.params
    beta = p.beta
    if kernel.kind == "homogeneous":
        a_g = kernel_sharp_constant(kernel)
        if truncation_radius is None:
            raise JInfinite(
                "purely homogeneous kernels have a divergent tail integral; "
                "truncate to a ball to make J finite")
        # mass where the truncated kernel first vanishes
        t_cut = ball_volume(p.n) * truncation_radius**p.n
        return KernelProfile(beta=beta, A=a_g, J=_exact_pure_j(t_cut),
                             t_cut=t_cut)
    if kernel.kind == "bessel":
        r = grid if grid is not None else log_grid(1e-5, 60.0, 4096)
        k = bessel_kernel(p.n, p.alpha, r)
        t = ball_volume(p.n) * r**p.n
    else:
        r = grid if grid is not None else log_grid(1e-5, 40.0, 4096)
        k = hyperbolic_h2_exact(p.n, r)
        t = hyperbolic_ball_masses(p.n, r)
    keep = k > 0
    tn, kn = t[keep], k[keep]
    a = ball_volume(p.n) * riesz_normalization(p.n, p.alpha)**beta
    return KernelProfile(beta=beta, A=a, J=_sampled_j(tn, kn, a, beta),
                         t_nodes=tn, k_nodes=kn)


def _exact_pure_j(t_cut: float) -> float:
    """J of the truncated power profile: (1/A) int_1^{t_cut} (A/t) dt."""
    if t_cut <= 1.0:
        return 0.0
    return math.log(t_cut)


def _sampled_j(tn: np.ndarray, kn: np.ndarray, a: float, beta: float) -> float:
    """J of a sampled profile: (1/A) times the closed-form integrals of
    (k1*)^beta over the head and every node segment, clipped to [1, inf)."""
    s = np.concatenate([[-1.0 / beta], _slopes(tn, kn)])
    t_anchor = np.concatenate([tn[:1], tn[:-1]])
    k_anchor = np.concatenate([kn[:1], kn[:-1]])
    lo = np.maximum(np.concatenate([[0.0], tn[:-1]]), 1.0)
    hi = np.maximum(tn, 1.0)
    v = k_anchor * (lo / t_anchor) ** s
    return float(np.sum(_power_integral(v**beta * lo, beta * s + 1.0,
                                        np.log(hi / lo)))) / a


# ---------------------------------------------------------------------------
# the convolution majorant
# ---------------------------------------------------------------------------

def oneil_constant(profile: KernelProfile) -> float:
    """Classical first-term constant C0 = beta' A^{1/beta} of the majorant."""
    beta = profile.beta
    bc = beta / (beta - 1.0)
    return bc * profile.A ** (1.0 / beta)


def _require_sigma_one(params: Params) -> None:
    """The chain knows C0 for sigma = 1 only; nothing computes a fitted C0
    for sigma < 1."""
    if params.sigma != 1.0:
        raise DomainError(f"the O'Neil-Garsia chain needs sigma = 1, "
                          f"got sigma={params.sigma}")


def oneil_rhs(fstar: RearrangedProfile, profile: KernelProfile, t):
    """Majorant C0 t^{-1/beta} int_0^t f* du + int_t^inf k1* f* du for
    (Tf)**(t), with C0 = oneil_constant(profile); vectorized in t.

    The classical C0 is the value needed for the majorant to actually
    dominate; a unit constant fails on concentrated inputs.
    """
    t = np.asarray(t, dtype=float)
    breaks = np.concatenate([[0.0], fstar.t_grid])
    vals = fstar.fstar
    # prefix sums of int f* du and int k1* f* du on the steps
    s1 = np.concatenate([[0.0], np.cumsum(vals * np.diff(breaks))])
    k1a_b = profile.k1_antideriv(breaks)
    s2 = np.concatenate([[0.0], np.cumsum(vals * np.diff(k1a_b))])
    j = np.clip(np.searchsorted(breaks, t, side="right") - 1, 0, len(vals) - 1)
    inside = t < breaks[-1]
    x = np.minimum(t, breaks[-1])
    first = s1[j] + vals[j] * (x - breaks[j]) * inside
    first = np.where(t >= breaks[-1], s1[-1], first)
    partial2 = s2[j] + vals[j] * (profile.k1_antideriv(x) - k1a_b[j]) * inside
    partial2 = np.where(t >= breaks[-1], s2[-1], partial2)
    second = s2[-1] - partial2
    out = oneil_constant(profile) * t ** (-1.0 / profile.beta) * first + second
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# exponential change of variables and the level-set machinery
# ---------------------------------------------------------------------------

@dataclass
class GarsiaState:
    """The transformed profile phi(x) with its constants.

    phi(x) = f*(e^{-x}) e^{-x (b-1)/b}; the change of variables is an
    isometry of the b'-norm.  C2 = C0^b / A feeds the piecewise comparison
    kernel, and d* = C2 + J.
    """

    x_grid: np.ndarray
    phi: np.ndarray
    profile: KernelProfile
    beta: float = field(init=False)
    c2: float = field(init=False)
    d_star: float = field(init=False)
    _prefix: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.beta = self.profile.beta
        self.c2 = oneil_constant(self.profile)**self.beta / self.profile.A
        self.d_star = self.c2 + self.profile.J
        self._prefix = self._integral_pieces()

    def phi_norm_bc(self) -> float:
        bc = self.beta / (self.beta - 1.0)
        return float(np.trapezoid(self.phi**bc, self.x_grid)) ** (1.0 / bc)

    def _integral_pieces(self) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
        """The y-independent pieces (left, xp, mid_cum, tail) of
        int g(x, y) phi(x) dx.

        left: the x <= 0 branch integral (constant in y);
        mid(y): cumulative of phi over [0, y];
        right(y) = C2^{1/b} e^{y/b} * tail(y), tail(y) = int_y^inf e^{-x/b} phi.
        A grid with no node at x >= 0 gives zero mid and tail.
        """
        x, phi = self.x_grid, self.phi
        beta = self.beta
        neg = x <= 0
        if np.any(neg):
            gl = self.profile.A ** (-1.0 / beta) \
                * np.asarray(self.profile.k1star(np.exp(-x[neg]))) \
                * np.exp(-x[neg] / beta)
            left = float(np.trapezoid(gl * phi[neg], x[neg]))
        else:
            left = 0.0
        pos = x >= 0
        xp, php = (x[pos], phi[pos]) if np.any(pos) else (np.zeros(1),
                                                          np.zeros(1))
        mid_cum = np.concatenate([[0.0], np.cumsum(
            0.5 * (php[1:] + php[:-1]) * np.diff(xp))])
        tail_integrand = np.exp(-xp / beta) * php
        pieces = 0.5 * (tail_integrand[1:] + tail_integrand[:-1]) * np.diff(xp)
        # accumulate from the right: no cancellation for e^{y/b} to amplify
        tail = np.concatenate([np.cumsum(pieces[::-1])[::-1], [0.0]])
        return left, xp, mid_cum, tail


def garsia_transform(fstar: RearrangedProfile, profile: KernelProfile,
                     params: Params, x_max: float = 80.0) -> GarsiaState:
    """Build phi on a symmetric x-window capturing all but 1e-6 of the
    b'-norm mass; asserts the change-of-variables isometry to 1e-4."""
    _require_sigma_one(params)
    beta = profile.beta
    bc = beta / (beta - 1.0)
    x = np.linspace(-x_max, x_max, 8001)
    if fstar.t_grid.size <= 256:
        # few-step profiles: make the jump abscissae explicit double nodes so
        # the trapezoid rule sees the discontinuities exactly
        xb = -np.log(np.clip(fstar.t_grid, 1e-300, None))
        xb = xb[(xb > -x_max) & (xb < x_max)]
        x = np.sort(np.concatenate([x, xb - 1e-9, xb + 1e-9]))
    phi = fstar.fstar_at(np.exp(-x)) * np.exp(-(beta - 1.0) / beta * x)
    state = GarsiaState(x_grid=x, phi=np.asarray(phi, dtype=float),
                        profile=profile)
    # exact step-function isometry: the b'-mass inside the x-window equals
    # the f* mass on [e^{-x_max}, e^{x_max}]; the window must capture all
    # but 1e-6 and the grid sampling must agree to 1e-4 of it
    target = fstar.p_norm_pth_power(bc)
    window = fstar.p_norm_pth_power_window(bc, math.exp(-x_max),
                                           math.exp(x_max))
    if target > 0 and target - window > 1e-6 * max(target, 1.0):
        raise MassNotCaptured(
            f"x-window captured {window:.8g} of {target:.8g} b'-mass")
    return state


def state_from_phi(phi_values: np.ndarray, x_grid: np.ndarray,
                   profile: KernelProfile, params: Params) -> GarsiaState:
    """GarsiaState from a directly supplied transformed profile.

    Used by the random-ensemble checks; phi must be admissible
    (nonnegative with b'-norm at most 1).
    """
    _require_sigma_one(params)
    state = GarsiaState(x_grid=np.asarray(x_grid, dtype=float),
                        phi=np.asarray(phi_values, dtype=float),
                        profile=profile)
    norm = state.phi_norm_bc()
    if norm > 1.0 + 1e-3:
        raise DomainError(f"phi must have b'-norm <= 1, got {norm}")
    return state


def inner_integral(y, state: GarsiaState):
    """int g(x, y) phi(x) dx, vectorized over y >= 0."""
    left, xp, mid_cum, tail_cum = state._prefix
    y = np.asarray(y, dtype=float)
    mid = np.interp(y, xp, mid_cum, left=0.0, right=mid_cum[-1])
    tail = np.interp(y, xp, tail_cum, left=tail_cum[0], right=0.0)
    right = state.c2 ** (1.0 / state.beta) * np.exp(y / state.beta) * tail
    out = left + mid + right
    return out if out.ndim else float(out)


def F_functional(y, state: GarsiaState):
    """F(y) = y - (int g(x, y) phi(x) dx)^beta, vectorized over y >= 0."""
    y = np.asarray(y, dtype=float)
    out = y - inner_integral(y, state) ** state.beta
    return out if out.ndim else float(out)


def level_set_measure(lams, ys: np.ndarray, fs: np.ndarray):
    """|{F <= lam}| of the piecewise-linear interpolant of the samples
    (ys, fs), for each lam (an array for an array, a float for a scalar).

    A segment counts whole at every lam at or above its upper end, and
    counts its linearly interpolated part at every lam in [lower end,
    upper end).  One pass serves all levels: one search places every
    sample among the sorted levels, so each segment's crossing levels are
    the contiguous run between its two ends' places, and the segments
    whole at a level are those whose upper end is placed at or below it,
    summed in upper-end order.  The (segment, lam) crossing pairs are
    those a loop over the levels would interpolate, so no term is negative
    and nothing cancels; the working memory is O(segments + levels +
    crossing pairs).  A NaN level gives NaN.
    """
    ys = np.asarray(ys, dtype=float)
    fs = np.asarray(fs, dtype=float)
    lam_arr = np.atleast_1d(np.asarray(lams, dtype=float))
    dy = np.diff(ys)
    f0, f1 = fs[:-1], fs[1:]
    order = np.argsort(lam_arr, kind="stable")
    lam_sorted = lam_arr[order]
    # a NaN sample sorts after every finite level: its segments are never
    # whole and cross every level from their other end up, as in a level loop
    place = np.searchsorted(lam_sorted, fs, side="left")
    # segment k crosses the sorted levels first[k], ..., first[k] + count[k] - 1
    # and is whole from level first[k] + count[k] on
    first = np.minimum(place[:-1], place[1:])
    top = np.maximum(place[:-1], place[1:])
    count = top - first
    by_hi = np.argsort(np.maximum(f0, f1), kind="stable")
    whole = np.concatenate([[0.0], np.cumsum(dy[by_hi])])
    n_whole = np.cumsum(np.bincount(top, minlength=lam_sorted.size + 1))
    measure = whole[n_whole[:-1]]
    seg = np.repeat(np.arange(dy.size), count)
    idx = np.arange(seg.size) + np.repeat(first - (np.cumsum(count) - count),
                                          count)
    lam = lam_sorted[idx]
    frac = np.clip((lam - f0[seg]) / (f1[seg] - f0[seg]), 0.0, 1.0)
    part = dy[seg] * np.where(f0[seg] <= lam, frac, 1.0 - frac)
    measure += np.bincount(idx, weights=part, minlength=lam_sorted.size)
    out = np.empty(lam_arr.shape)
    out[order] = measure
    out[np.isnan(lam_arr)] = np.nan
    return out if np.ndim(lams) else float(out[0])


_Y_STEP = 0.01
_Y_SAMPLES = 20001  # y = 0, 0.01, ..., 200


def garsia_samples(state: GarsiaState) -> tuple[np.ndarray, np.ndarray]:
    """Samples (ys, fs) of F with step 0.01 on [0, 200], cut once F > 40
    past its last dip below; TailNotConverged if the window never reaches
    that threshold or ends below it.

    Past the last x node the interpolated prefixes are constant, so F(y) =
    y - (left + mid_cum[-1])^beta rises with slope 1 there: once it is above
    40 it stays above, and no sample past the one after its first rise
    above 40 is kept.  F is evaluated only through that sample, and one
    more covers the roundoff of the offset computed here.  Only the prefix
    of the window that reaches it is built: y_i = 0.01 i is sample i of
    np.arange(0.0, 200.01, 0.01) bit for bit, and at most
    int(rise / 0.01) + 2 samples lie at or below the rise, the larger of
    the last node and 40 + offset.
    """
    left, xp, mid_cum, _ = state._prefix
    offset = (left + mid_cum[-1]) ** state.beta
    rise = np.maximum(xp[-1], 40.0 + offset)
    # a rise past 200, or a NaN one, takes the whole window
    size = min(int(rise / _Y_STEP) + 5, _Y_SAMPLES) if rise < 200.0 \
        else _Y_SAMPLES
    ys = np.arange(size) * _Y_STEP
    first_above = np.searchsorted(ys, rise, side="right")
    fs = F_functional(ys[: first_above + 3], state)
    past = np.nonzero(fs > 40.0)[0]
    if past.size == 0:
        raise TailNotConverged("F never exceeded the tail threshold")
    last_low = np.nonzero(fs <= 40.0)[0][-1]
    cut = min(last_low + 2, _Y_SAMPLES - 1)
    if fs[cut] <= 40.0:
        raise TailNotConverged("F did not stay above the tail threshold")
    return ys[: cut + 1], fs[: cut + 1]


def garsia_integral(state: GarsiaState) -> dict:
    """int_0^inf e^{-F(y)} dy on the samples of garsia_samples, with a
    layer-cake cross check."""
    ys, fs = garsia_samples(state)
    direct = float(np.trapezoid(np.exp(-fs), ys))
    # layer cake: int_{-d*}^inf |E_lambda| e^{-lambda} d lambda; on seeded
    # admissible profiles the lambda-trapezoid is within 0.04% of the exact
    # integral at 4000 levels, but up to 1% off at 400
    lams = np.linspace(-state.d_star, 40.0, 4000)
    measures = level_set_measure(lams, ys, fs)
    layer = float(np.trapezoid(measures * np.exp(-lams), lams))
    return {"integral": direct, "layer_cake": layer,
            "f_min": float(np.min(fs)), "d_star": state.d_star,
            "y_grid": ys, "f_values": fs}


def dual_path_values(fstar: RearrangedProfile, profile: KernelProfile,
                     params: Params) -> dict:
    """Evaluate int_0^1 exp[M(t)^beta / A] dt two ways.

    Path A integrates directly in t with the majorant M(t) built from f*;
    path B applies the exponential change of variables and integrates
    e^{-F(y)}.  The two parameterize the same quantity when the kernel
    profile is an exact truncated power, so agreement checks both code
    paths end to end.  Both leave out t < 1e-6.
    """
    _require_sigma_one(params)
    beta = profile.beta
    # path A: t-side quadrature on a log grid
    s = np.linspace(math.log(1e-6), 0.0, 400)
    t = np.exp(s)
    expo = (1.0 / profile.A) * oneil_rhs(fstar, profile, t) ** beta
    path_a = float(np.trapezoid(np.exp(expo) * t, s))
    # path B: y-side samples of F
    ys, fs = garsia_samples(garsia_transform(fstar, profile, params))
    mask = ys <= -math.log(1e-6)
    path_b = float(np.trapezoid(np.exp(-fs[mask]), ys[mask]))
    return {"path_a": path_a, "path_b": path_b}
