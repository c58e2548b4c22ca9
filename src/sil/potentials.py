"""Convolution against singular homogeneous kernels.

Radial reduction: the kernel decides it.  A scalar homogeneous kernel
(constant angular part) acts on a radial profile and reduces to a 1-D
integral against the angular weight W(r, rho) = integral over S^{n-1} of
g(r e1 - rho omega).  On a uniform log grid W(r_j / r_i) depends only on
j - i, so the convolution is a log-space correlation plus a corrected band
around the integrable diagonal singularity.  The gradient kernels act, by
dot product, on the radial-vector field f(y) = (y/|y|) h(|y|), stored as
the scalar profile h; by Newton's shell theorem the potential is
-integral_r^inf h in every dimension, a cumulative sum with no table.
The Cartesian engine convolves a box of samples with the scalar kernels,
and serves as the radial engine's cross-check.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy import fft

from .constants import sphere_area
from .errors import DomainError, SingularOnDiagonal, UnboundedResult
from .grids import CartesianField, RadialFunction, trapezoid_weights_log
from .kernels import KernelSpec, gradient_kernel
from .norms import require_radial

_GL16 = np.polynomial.legendre.leggauss(16)
_SLAB_BYTES = 1 << 19  # bytes per slab or block of cartesian_convolve's passes


# ---------------------------------------------------------------------------
# angular slices W-hat(u) = integral over S^{n-1} of the kernel at e1 - u w
# ---------------------------------------------------------------------------

_ALPHA_ONE_GUARD = 3e-5  # |alpha - 1| below which n = 2 slices interpolate


def _circle_slice(alpha: float, u: np.ndarray) -> np.ndarray:
    """integral over S^1 of |e1 - u w|^{alpha-2}: 2 pi 2F1(lam, lam; 1; s^2)
    with lam = (2 - alpha)/2 and s = min(u, 1/u), times u^{alpha-2} if u > 1.

    The terms of the connection formula in _circle_hyp cancel like
    eps/|alpha - 1|, so orders within _ALPHA_ONE_GUARD of 1 (but not 1)
    interpolate the 2F1 factor quadratically in alpha through alpha = 1 and
    1 +- _ALPHA_ONE_GUARD.
    """
    d = _ALPHA_ONE_GUARD
    if alpha == 1.0 or abs(alpha - 1.0) >= d:
        inner = _circle_hyp(alpha, u)
    else:
        lo, mid, hi = (_circle_hyp(a, u) for a in (1.0 - d, 1.0, 1.0 + d))
        x = (alpha - 1.0) / d
        inner = mid + x * (hi - lo) / 2.0 + x * x * (hi - 2.0 * mid + lo) / 2.0
    return np.maximum(u, 1.0) ** (alpha - 2.0) * inner


def _agm(b: np.ndarray) -> np.ndarray:
    """The arithmetic-geometric mean of 1 and each b in (0, 1], in place.

    The ratio b/a of a pair rises toward 1 under every step, and a smaller
    ratio never overtakes a larger one, so the steps that bring the
    smallest b to a == b to roundoff bring every entry there.
    """
    lo, hi = float(np.min(b)), 1.0
    steps = 0
    while hi - lo > 1e-15 * hi:
        lo, hi = math.sqrt(lo * hi), 0.5 * (lo + hi)
        steps += 1
    a = np.ones_like(b)
    prod = np.empty_like(b)
    for _ in range(steps + 1):
        np.multiply(a, b, out=prod)
        a += b
        a *= 0.5
        np.sqrt(prod, out=b)
    return a


def _circle_hyp(alpha: float, u: np.ndarray) -> np.ndarray:
    """2 pi 2F1(lam, lam; 1; s^2): at alpha = 1 the complete elliptic integral
    4 max(u, 1) K(k) / (1 + u), k' = |1 - u| / (1 + u), by
    K = pi / (2 AGM(1, k')) (DLMF 19.2, 19.8.5); else near u = 1 the 1 - z
    connection formula (DLMF 15.8.4), with 1 - s^2 taken from u without
    cancellation."""
    big = np.maximum(u, 1.0)
    if alpha == 1.0:
        return 2.0 * math.pi * big / ((1.0 + u) * _agm(np.abs(1.0 - u) / (1.0 + u)))
    from scipy.special import hyp2f1  # no default scenario runs alpha != 1

    lam, e = (2.0 - alpha) / 2.0, alpha - 1.0
    w = np.abs((1.0 - u) * (1.0 + u)) / big**2  # 1 - s^2
    out = np.empty_like(u)
    far = w >= 0.5
    out[far] = hyp2f1(lam, lam, 1.0, np.minimum(u, 1.0 / u)[far] ** 2)
    wn = w[~far]
    out[~far] = (math.gamma(e) / math.gamma(1.0 - lam) ** 2
                 * hyp2f1(lam, lam, 1.0 - e, wn)
                 + wn**e * math.gamma(-e) / math.gamma(lam) ** 2
                 * hyp2f1(1.0 - lam, 1.0 - lam, 1.0 + e, wn))
    return 2.0 * math.pi * out


def _sphere_slice(alpha: float, u: np.ndarray) -> np.ndarray:
    """(1/(2 pi)) integral over S^2 of |e1 - u w|^{alpha-3}: the colatitude
    integral ((1 + u)^{alpha-1} - |1 - u|^{alpha-1}) / (u (alpha - 1)), or
    log((1 + u)/|1 - u|) / u at alpha = 1.

    With s = min(u, 1/u), d = 1 - s = |1 - u| / max(u, 1) and
    w = 2 atanh(s) = log1p(2 s / d), the bracket is
    d^{alpha-1} expm1((alpha - 1) w) / (alpha - 1), or w at alpha = 1,
    divided by u for u < 1 and times u^{alpha-2} for u > 1: no difference
    of nearly equal terms at any u.
    """
    s = np.minimum(u, 1.0 / u)
    d = np.abs(1.0 - u) / np.maximum(u, 1.0)
    w = np.log1p(2.0 * s / d)
    if alpha == 1.0:
        bracket = w
    else:
        bracket = d ** (alpha - 1.0) * np.expm1((alpha - 1.0) * w) / (alpha - 1.0)
    return np.where(u < 1.0, bracket / u, bracket * u ** (alpha - 2.0))


def angular_slice(kernel: KernelSpec, u) -> np.ndarray:
    """W-hat(u): the angular weight at unit radius, W(r, rho) = r^{a-n} W-hat(rho/r).

    Closed forms for scalar homogeneous kernels, in n = 2 (_circle_slice)
    and n = 3 (_sphere_slice).  Other kernels raise DomainError.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if np.any(u <= 0):
        raise DomainError("radius ratio must be positive")
    if np.any(u == 1.0):
        raise SingularOnDiagonal("angular weight is singular at r = rho")
    n, alpha = kernel.params.n, kernel.params.alpha
    if n not in (2, 3):
        raise DomainError("radial reduction implemented for n in {2, 3}")
    if not kernel.is_scalar_homogeneous:
        raise DomainError("radial slices exist for scalar homogeneous "
                          "kernels only")
    if n == 2:
        out = kernel.constant_angular_value * _circle_slice(alpha, u)
    else:
        out = 2.0 * math.pi * kernel.constant_angular_value * _sphere_slice(alpha, u)
    return out if out.size > 1 else float(out[0])


# ---------------------------------------------------------------------------
# tabulated slices with a corrected singular band
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AngularWeightTable:
    """W-hat sampled on the relative log grid k*h, k = -(M-1) .. M-1.

    Entries within _BAND cells of the diagonal hold cell averages (Gauss-
    Legendre in log-offset); the diagonal cell integrates a local singular
    model fitted from W-hat at offsets {h/4, h/2, h} on each side.  Entry
    k depends on (kernel, h) only, so the table of an m-node grid is the
    centred window of any longer table with the same step.
    """

    values: np.ndarray  # length 2*M - 1, index k + (M - 1)

    @property
    def m(self) -> int:
        return (self.values.size + 1) // 2

    def window(self, m: int) -> np.ndarray:
        """The entries |k| <= m - 1: the table of an m-node grid."""
        return self.values[self.m - m: self.m + m - 1]


_TABLE_CACHE: OrderedDict[tuple, AngularWeightTable] = OrderedDict()
_TABLE_CACHE_SIZE = 32  # tables kept, least recently used evicted first
_BAND = 4  # off-diagonal cells on each side that hold cell averages


def _diag_cell_average(kernel: KernelSpec, h: float) -> float:
    """(1/h) * integral over |t| <= h/2 of W-hat(e^t) via the local model."""
    alpha = kernel.params.alpha
    c = h / 2.0
    if alpha < 1.0:
        # leading singular power plus three correction terms; fitted on
        # four offsets, since the h^alpha error scale of a short expansion
        # decays too slowly for the refinement contract when alpha < 1
        basis = [lambda t: t ** (alpha - 1.0), lambda t: np.ones_like(t),
                 lambda t: t**alpha, lambda t: t]
        ints = [c**alpha / alpha, c, c ** (alpha + 1.0) / (alpha + 1.0),
                c**2 / 2.0]
    elif abs(alpha - 1.0) <= 1e-12:
        basis = [lambda t: np.log(1.0 / t), lambda t: np.ones_like(t), lambda t: t]
        ints = [c * (1.0 + math.log(1.0 / c)), c, c**2 / 2.0]
    elif alpha < 2.0:
        basis = [lambda t: t ** (alpha - 1.0), lambda t: np.ones_like(t), lambda t: t]
        ints = [c**alpha / alpha, c, c**2 / 2.0]
    else:
        basis = [lambda t: np.ones_like(t), lambda t: t, lambda t: t**2]
        ints = [c, c**2 / 2.0, c**3 / 3.0]
    total = 0.0
    fit_t = np.array([h / 8.0, h / 4.0, h / 2.0, h])[-len(basis):]
    for side in (-1.0, 1.0):
        vals = angular_slice(kernel, np.exp(side * fit_t))
        design = np.stack([b(fit_t) for b in basis], axis=1)
        coef, *_ = np.linalg.lstsq(design, np.atleast_1d(vals), rcond=None)
        total += float(np.dot(coef, ints))
    return total / h


def _near_cell_average(kernel: KernelSpec, k: int, h: float) -> float:
    """Cell average of W-hat over t in [k h - h/2, k h + h/2] by 16-pt GL."""
    x16, w16 = _GL16
    t = k * h + 0.5 * h * x16
    vals = angular_slice(kernel, np.exp(t))
    return float(np.sum(w16 * np.atleast_1d(vals))) / 2.0


def angular_weight_table(kernel: KernelSpec, h: float, m: int) -> AngularWeightTable:
    """A table of at least 2m - 1 entries for step h; use .window(m).

    Scalar homogeneous kernels only.  Cached on what fixes the table,
    (n, alpha, constant angular value, h), with h the exact float; a longer
    request extends the cached table by its new entries.
    """
    if not kernel.is_scalar_homogeneous:
        raise DomainError("radial tables need a scalar homogeneous kernel")
    key = (kernel.params.n, kernel.params.alpha, kernel.constant_angular_value, h)
    old = _TABLE_CACHE.get(key)
    if old is not None:
        _TABLE_CACHE.move_to_end(key)
        if old.m >= m:
            return old
    known = 0 if old is None else old.m  # offsets |k| < known are filled
    vals = np.empty(2 * m - 1)
    if old is None:
        vals[m - 1] = _diag_cell_average(kernel, h)
    else:
        vals[m - known: m + known - 1] = old.values
    for j in range(max(known, 1), min(_BAND + 1, m)):
        vals[(m - 1) + j] = _near_cell_average(kernel, j, h)
        vals[(m - 1) - j] = _near_cell_average(kernel, -j, h)
    k = np.arange(max(known, _BAND + 1), m)
    k = np.concatenate([-k[::-1], k])
    if k.size:
        vals[k + (m - 1)] = np.atleast_1d(angular_slice(kernel, np.exp(k * h)))
    table = AngularWeightTable(values=vals)
    _TABLE_CACHE[key] = table
    if len(_TABLE_CACHE) > _TABLE_CACHE_SIZE:
        _TABLE_CACHE.popitem(last=False)
    return table


# ---------------------------------------------------------------------------
# radial convolution
# ---------------------------------------------------------------------------

def _five_smooth(m: int) -> int:
    """The smallest 2^a 3^b 5^c >= m: the lengths pocketfft transforms
    fastest, as scipy.fft.next_fast_len(m, real=True) finds them."""
    best = 1 << max(m - 1, 0).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:  # odd * (the least power of 2 reaching m)
            best = min(best, odd << (-(-m // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


def _cyclic_length(m: int) -> int:
    """The real-FFT length with which the radial engine convolves m source
    samples with the 2m - 1 kernel entries of every offset it holds.

    The linear convolution has length 3m - 2, and only its entries
    m - 1 ... 2m - 2 are kept.  A cyclic one of length L >= 2m - 1 adds to
    entry k only the linear entries k +- L, which lie below 0 or past
    3m - 3 for every kept k, so nothing wraps into the kept range.
    """
    return _five_smooth(2 * m - 1)


def _uniform_log_step(grid: np.ndarray) -> float:
    """The log step of a uniform-in-log grid, from its whole span: dt[0]
    alone errs by about eps |log r0| / h."""
    t = np.log(grid)
    if t.size < 2 or not np.allclose(np.diff(t), (t[-1] - t[0]) / (t.size - 1),
                                     rtol=1e-8, atol=1e-12):
        raise DomainError("radial convolution needs a uniform-in-log grid")
    return float((t[-1] - t[0]) / (t.size - 1))


def _log_correlation(weights: np.ndarray, table: np.ndarray, grid: np.ndarray,
                     h: float, a_n: float) -> tuple:
    """r_i^{a-n} sum_j weights_j table[j - i + m - 1], with a bound per row.

    Bias 0 correlates weights with the table and scales by r^{a-n}; bias 1
    correlates weights rho^{a-n} with the table times u^{n-a}, which gives
    the result on its own scale (the FFTLog power-law bias, Hamilton 2000).
    Bias 0 ends before bias 1 starts, so one pair of length-L spectra is
    held at a time.
    FFT roundoff of a correlation is bounded by 64 eps |w|_1 |table|_inf on
    its own scale; each row keeps the bias with the smaller bound.  Rows
    whose bound still exceeds 1e-4 of their value (a potential that is 0 or
    changes sign there) are summed directly, each in a fixed order.
    """
    m = grid.size
    length = _cyclic_length(m)

    def correlate(w: np.ndarray, t: np.ndarray) -> np.ndarray:
        spec = fft.rfft(w, length)
        spec *= fft.rfft(t[::-1], length)
        full = fft.irfft(spec, length)
        del spec
        return full[m - 1: 2 * m - 1].copy()  # nothing of length L outlives it

    eps64 = 64.0 * np.finfo(float).eps
    scale = grid**a_n
    corr0 = correlate(weights, table)
    corr0 *= scale
    bound0 = scale * (eps64 * np.sum(np.abs(weights)) * np.max(np.abs(table)))
    w1 = weights * scale
    t1 = np.exp(np.arange(1 - m, m) * (-a_n * h))
    t1 *= table
    corr1 = correlate(w1, t1)
    bound1 = eps64 * np.sum(np.abs(w1)) * np.max(np.abs(t1))
    del w1, t1
    vals = np.where(bound1 < bound0, corr1, corr0)
    bound = np.minimum(bound0, bound1)
    nz = np.nonzero(weights)[0]
    for i in np.nonzero(bound > 1e-4 * np.abs(vals))[0]:
        terms = table[nz - i + (m - 1)] * weights[nz]
        vals[i] = scale[i] * np.sum(terms)
        bound[i] = scale[i] * eps64 * np.sum(np.abs(terms))
    return vals, bound


def radial_convolve(f: RadialFunction, kernel: KernelSpec,
                    source: Optional[str] = None,
                    tail_exponent_out: Optional[float] = None) -> RadialFunction:
    """T_g f on the grid of f; the kernel decides the reduction.

    A scalar homogeneous kernel acts on the radial profile f.  gradient_kernel(n, 1) acts on f(y) = (y/|y|) h(|y|), with h stored
    as the (scalar) values of f.  source, if given, must name that reduction
    ('scalar' or 'radial_vector').  Output carries the generic homogeneous
    tail exponent alpha - n unless tail_exponent_out overrides it.
    """
    require_radial(f)
    p = kernel.params
    if f.n != p.n:
        raise DomainError(f"profile in dimension {f.n}, kernel in "
                          f"dimension {p.n}")
    if f.is_vector:
        raise DomainError("store a radial-vector field (y/|y|) h(|y|) as the "
                          "scalar profile h")
    implied = "radial_vector" if kernel.vector else "scalar"
    if source is not None and source != implied:
        raise DomainError(f"kernel {kernel.label!r} reduces on {implied} "
                          f"sources, not {source!r}")

    if kernel.vector:
        if kernel != gradient_kernel(p.n, 1):
            raise DomainError("the only vector kernels with a radial "
                              "reduction are gradient_kernel(n, 1)")
        # Newton's shell theorem: T f(r) = -integral_r^inf h, a trapezoid in
        # log r summed from the outer end, so rows past the support are 0
        hr = f.values * f.grid
        segments = 0.5 * (hr[:-1] + hr[1:]) * np.diff(np.log(f.grid))
        vals = np.append(-np.cumsum(segments[::-1])[::-1], 0.0)
        far_coefficient = -1.0
    else:
        h = _uniform_log_step(f.grid)
        m = f.grid.size
        table = angular_weight_table(kernel, h, m).window(m)
        weights = trapezoid_weights_log(f.grid) * f.grid ** (p.n - 1) * f.values
        vals, _ = _log_correlation(weights, table, f.grid, h, p.alpha - p.n)
        # W-hat(u) ~ far_coefficient * u^{a-n} as u -> inf, from entry m - 1
        far_coefficient = table[-1] * math.exp((m - 1) * h) ** (p.n - p.alpha)

    tail = 0.0
    if f.tail_exponent is not None and f.values[-1] != 0.0:
        pt = f.tail_exponent
        if pt + p.alpha >= 0:
            raise UnboundedResult(
                "source tail r^{:+.3g} makes the potential diverge".format(pt))
        tail = far_coefficient * float(f.values[-1]) \
            * float(f.grid[-1]) ** p.alpha / (-(pt + p.alpha))
    out_tail = (p.alpha - p.n) if tail_exponent_out is None else tail_exponent_out
    return RadialFunction(f.grid, vals + tail, p.n, tail_exponent=out_tail)


# ---------------------------------------------------------------------------
# cartesian convolution
# ---------------------------------------------------------------------------

_FACE_ORDER = 32  # Gauss-Legendre nodes per face axis of the origin cell


def _even_length(m: int) -> int:
    """The FFT length, per axis, with which the Cartesian engine convolves a
    box of m cells per axis: the smallest even 5-smooth length >= 2m - 1.

    A kept output entry takes kernel offsets -(m - 1) ... m - 1, and a
    cyclic convolution of length L >= 2m - 1 holds each at its own index
    mod L, so nothing wraps onto a kept entry.  L is even because a DCT-I
    of L/2 + 1 points is the DFT of a sequence of period L that is
    symmetric about 0 (_even_spectrum).
    """
    return 2 * _five_smooth(m)


@functools.cache
def _leggauss():
    """The Gauss-Legendre nodes and weights on [-1, 1] of the origin cell's
    face rule, computed once."""
    nodes, weights = np.polynomial.legendre.leggauss(_FACE_ORDER)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _origin_cell_integral(kernel: KernelSpec, h: float) -> float:
    """Exact-to-quadrature integral of g over the origin-centered cell.

    In face coordinates: a face point p, at distance h/2 from the centre
    along one axis, ends the ray of direction p/|p|, along which the radial
    integral of r^{alpha-1} is |p|^alpha / alpha, and the face element dA
    subtends the solid angle (h/2) |p|^{-n} dA.  So the cell integral is the
    sum over the 2n faces of integral a |p|^{alpha-n} (h/2)/alpha dA, with
    a the constant angular part, whose integrand is smooth (|p| >= h/2): a
    tensor Gauss-Legendre rule of _FACE_ORDER nodes per face axis is exact
    to roundoff.
    """
    n = kernel.params.n
    alpha = kernel.params.alpha
    x, w = _leggauss()
    half = h / 2.0
    face = np.stack(np.meshgrid(*([x * half] * (n - 1)), indexing="ij"),
                    axis=-1).reshape(-1, n - 1)
    weights = functools.reduce(np.multiply.outer, [w * half] * (n - 1)).ravel()
    points = np.concatenate([np.insert(face, axis, side, axis=1)
                             for axis in range(n) for side in (half, -half)])
    r = np.sqrt(np.sum(points**2, axis=1))
    values = kernel.constant_angular_value * r ** (alpha - n)
    return float(np.sum(np.tile(weights, 2 * n) * values) * half / alpha)


def _even_spectrum(kernel: KernelSpec, h: float, res: int,
                   length: int) -> np.ndarray:
    """The real spectrum, on frequencies 0 ... length/2 of each axis, of a
    kernel with constant angular part sampled on every displacement a box of
    res^n cells holds, the displacement d at cyclic index d mod length.

    The kernel is even in every coordinate, so that sequence is symmetric
    about 0 on each axis, and its DFT is the DCT-I of its samples on the
    nonnegative orthant (symmetric convolution, Martucci 1994): res^n
    samples, zero-padded to (length/2 + 1)^n.  The other frequencies follow
    from R[k] = R[length - k] on each axis.  The sample at zero
    displacement is the origin-cell average.
    """
    p = kernel.params
    even = np.zeros((length // 2 + 1,) * p.n)
    r = even[(slice(0, res),) * p.n]
    squares = (np.arange(res) * h) ** 2
    for axis in range(p.n):
        r += squares.reshape((-1,) + (1,) * (p.n - 1 - axis))
    np.sqrt(r, out=r)
    origin = (0,) * p.n
    r[origin] = 1.0
    np.power(r, p.alpha - p.n, out=r)
    r *= kernel.constant_angular_value
    r[origin] = _origin_cell_integral(kernel, h) / h**p.n
    _dct1(even)
    return even


def _dct1(x: np.ndarray) -> None:
    """The unnormalised DCT-I of x over every axis in turn, in place.

    Along one axis, the DCT-I of N + 1 points is the real part of the real
    DFT of their even extension x_0 ... x_N, x_{N-1} ... x_1 of period 2N,
    as scipy.fft.dct(type=1) computes it.  Each axis is done in slabs of
    at most _SLAB_BYTES of extension.
    """
    n, size = x.ndim, x.shape[0]
    period = 2 * (size - 1)
    step = max(1, _SLAB_BYTES // (8 * period * size ** (n - 2)))
    for axis in range(n):
        lines = np.moveaxis(x, axis, -1)  # a view, the transformed axis last
        for first in range(0, size, step):
            slab = lines[first: first + step]
            ext = np.concatenate([slab, slab[..., size - 2: 0: -1]], axis=-1)
            slab[...] = fft.rfft(ext).real


def cartesian_convolve(f: CartesianField, kernel: KernelSpec) -> CartesianField:
    """Discrete convolution by a cyclic FFT, of length L = _even_length(res)
    per axis, of the box against the kernel sampled on every displacement
    the box holds.

    The kernel sample at zero displacement is replaced by its exact cell
    average; with the source supported inside the box, displacements never
    exceed the sampled range, so no additional far-field term enters values
    inside the box.

    The kernel must be scalar homogeneous, as in radial_convolve.  It is then even in every coordinate, so its spectrum
    is real and comes from one orthant of samples by a DCT-I
    (_even_spectrum); the frequencies past L/2 on a leading axis read it
    reversed.  The source is transformed along the last axis only.  Its
    frequencies are then taken in blocks of about _SLAB_BYTES of complex
    workspace: each block is zero-padded and transformed over the leading
    axes, multiplied by the kernel, inverted, and cut to the box, which
    overwrites the block.  A last inverse along the last axis, in blocks of
    rows, fills the res^n output, which is allocated only after the kernel
    spectrum is freed.
    """
    p = kernel.params
    if not kernel.is_scalar_homogeneous:
        raise DomainError("the cartesian engine needs a scalar homogeneous "
                          "kernel")
    if f.n != p.n:
        raise DomainError("field and kernel dimensions differ")
    h = f.h
    res = f.resolution
    n = f.n
    length = _even_length(res)
    half = length // 2
    kernel_spec = _even_spectrum(kernel, h, res, length)
    # (block, kernel) slices of each leading axis: R[k] = R[L - k]
    axis_halves = ((slice(0, half + 1), slice(0, half + 1)),
                   (slice(half + 1, None), slice(half - 1, 0, -1)))
    pieces = [tuple(zip(*halves))
              for halves in itertools.product(axis_halves, repeat=n - 1)]
    box = slice(0, res)
    step = max(1, _SLAB_BYTES // (8 * length * res ** (n - 2)))
    slabs = [slice(first, first + step) for first in range(0, res, step)]
    spec = np.empty((res,) * (n - 1) + (half + 1,), dtype=complex)
    for rows in slabs:
        fft.rfft(f.values[rows], length, axis=-1, out=spec[rows])
    step = max(1, _SLAB_BYTES // (16 * length ** (n - 1)))
    for first in range(0, half + 1, step):
        cols = slice(first, first + step)
        block = spec[..., cols]
        for axis in reversed(range(n - 1)):
            block = fft.fft(block, length, axis=axis)
        for lines, kernel_lines in pieces:
            block[lines] *= kernel_spec[kernel_lines + (cols,)]
        for axis in range(n - 1):
            block = fft.ifft(block, axis=axis, norm="forward",
                             out=block)[(slice(None),) * axis + (box,)]
        spec[..., cols] = block
    del kernel_spec, block
    out = np.empty((res,) * n)
    for rows in slabs:
        out[rows] = fft.irfft(spec[rows], length, axis=-1,
                              norm="forward")[..., box]
    out *= (h / length) ** n
    return CartesianField(n, f.extent, out)


# ---------------------------------------------------------------------------
# far field by even-moment expansion
# ---------------------------------------------------------------------------

def gegenbauer_sphere_means(n: int, alpha: float, jmax: int) -> np.ndarray:
    """S_{2j} = integral over S^{n-1} of C_{2j}^{lambda}(omega_1), lambda=(n-a)/2.

    These are the even coefficients of the expansion of the angular slice
    W-hat(u) = sum_j S_{2j} u^{2j} for u < 1 (constant angular part), the
    series of |S^{n-1}| 2F1(lam, lam - n/2 + 1; n/2; u^2): S_0 = |S^{n-1}|
    and S_{2j+2} = S_{2j} (lam + j)(lam + 1 - n/2 + j) / ((j + 1)(n/2 + j)).
    """
    lam = (n - alpha) / 2.0
    out = np.empty(jmax + 1)
    out[0] = sphere_area(n)
    for j in range(jmax):
        out[j + 1] = out[j] * (lam + j) * (lam + 1.0 - n / 2.0 + j) \
            / ((j + 1) * (n / 2.0 + j))
    return out


def far_field_from_moments(kernel: KernelSpec, even_moments: np.ndarray,
                           r: np.ndarray) -> np.ndarray:
    """T(r) = a r^{a-n} sum_j S_{2j} r^{-2j} M_{2j} for r > 1, outside the
    unit-ball support.

    even_moments[j] = integral of phi(rho) rho^{2j + n - 1} d rho.  This is
    the numerically clean way to evaluate potentials of moment-cancelled
    profiles far from their support, where direct quadrature is all noise.
    """
    if not kernel.is_scalar_homogeneous:
        raise DomainError("moment far field implemented for scalar "
                          "homogeneous kernels")
    p = kernel.params
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(r <= 1.0):
        raise DomainError("far field valid outside the unit support radius only")
    jmax = len(even_moments) - 1
    s2j = gegenbauer_sphere_means(p.n, p.alpha, jmax)
    acc = np.zeros_like(r)
    for j in range(jmax + 1):
        acc += s2j[j] * even_moments[j] * r ** (-2 * j)
    out = kernel.constant_angular_value * r ** (p.alpha - p.n) * acc
    return out if out.size > 1 else float(out[0])
