"""Distribution functions, nonincreasing rearrangements, and the
regularized exponential with its two-sided splitting bounds.

Rearrangements of grid functions are computed by exact sorting of
(value, cell-mass) pairs followed by prefix sums; no binning, so the
p-norm of f* matches the p-norm of f up to the shared quadrature rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, SandwichViolated, UnboundedDistribution
from .grids import RadialFunction
from .measures import MeasureDensity, lebesgue
from .norms import cells, head_mass, require_radial

INFINITE = math.inf


def distribution_function(f: RadialFunction, s: float,
                          nu: Optional[MeasureDensity] = None) -> float:
    """nu({|f| > s}); returns math.inf when the super-level set is unbounded.

    Level crossings inside grid cells are resolved by log-log
    interpolation (exact for power-law profiles).
    """
    if s < 0:
        raise DomainError("level must be nonnegative")
    return _distribution(f, nu)(s)


def _distribution(f: RadialFunction, nu: Optional[MeasureDensity]):
    """s -> nu({|f| > s}) for levels s >= 0, with the work that does not
    depend on s (magnitudes, segment masses, head mass) done once."""
    require_radial(f)
    mag = f.magnitude()
    tail = f.tail_exponent
    measure = nu if nu is not None else lebesgue(f.n)
    r = f.grid
    # segment-wise trapezoid mass, with fractional cells at level crossings
    wr = measure.radial_weight(r) * r
    seg = 0.5 * (wr[:-1] + wr[1:]) * np.diff(np.log(r))
    head = head_mass(f, nu)

    def measure_above(s: float) -> float:
        if tail is not None and mag[-1] > s and (tail >= 0 or s == 0.0):
            return INFINITE
        above = mag > s
        lo, hi = above[:-1], above[1:]
        contrib = np.where(lo & hi, seg, 0.0)
        for j in np.flatnonzero(lo != hi):
            contrib[j] = seg[j] * _crossing_fraction(mag[j], mag[j + 1], s, lo[j])
        # cumsum adds in cell order, so the sum rounds as a per-cell loop would
        total = np.cumsum(np.concatenate([[head if above[0] else 0.0],
                                          contrib]))[-1]
        if tail is not None and tail < 0 and mag[-1] > s:
            # radius where the tail model crosses s
            r_cross = r[-1] * (s / mag[-1]) ** (1.0 / tail)
            total += measure.ball_mass_origin(r_cross) - measure.ball_mass_origin(r[-1])
        return float(total)

    return measure_above


def _crossing_fraction(v0: float, v1: float, s: float, left_above: bool) -> float:
    """Fraction of a log-cell where |f| > s.

    The crossing abscissa is located by log-log interpolation (exact for
    power-law profiles), falling back to linear interpolation when a value
    or the level is nonpositive.
    """
    if v0 > 0 and v1 > 0 and s > 0 and v0 != v1:
        lam = (math.log(s) - math.log(v0)) / (math.log(v1) - math.log(v0))
    elif v1 != v0:
        lam = (s - v0) / (v1 - v0)
    else:
        lam = 0.5
    lam = min(max(lam, 0.0), 1.0)
    # lam = position of the crossing; the side above s contributes its share
    return lam if left_above else 1.0 - lam


@dataclass(frozen=True)
class RearrangedProfile:
    """Nonincreasing rearrangement f* and its running average f**.

    t_grid holds the cumulative-mass breakpoints T_1 <= T_2 <= ...; fstar[k]
    is the (constant) value of f* on (T_{k-1}, T_k]; fstarstar[k] is the
    exact running average at T_k.
    """

    t_grid: np.ndarray
    fstar: np.ndarray
    fstarstar: np.ndarray

    def fstar_at(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        idx = np.searchsorted(self.t_grid, t, side="left")
        out = np.where(idx < len(self.fstar), self.fstar[np.minimum(idx, len(self.fstar) - 1)], 0.0)
        return out if out.size > 1 else float(out[0])

    def fstarstar_at(self, t) -> np.ndarray:
        """Exact (1/t) int_0^t f*: piecewise-constant f* integrates in closed form."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        cum = np.concatenate([[0.0], np.cumsum(self.fstar * np.diff(np.concatenate([[0.0], self.t_grid])))])
        idx = np.searchsorted(self.t_grid, t, side="left")
        idx = np.minimum(idx, len(self.fstar) - 1)
        t_lo = np.where(idx > 0, self.t_grid[idx - 1], 0.0)
        partial = cum[idx] + self.fstar[idx] * np.clip(t - t_lo, 0.0, None)
        total = cum[-1]
        val = np.where(t <= self.t_grid[-1], partial, total) / np.maximum(t, 1e-300)
        return val if val.size > 1 else float(val[0])

    def p_norm_pth_power(self, p: float) -> float:
        """int (f*)^p dt, exact for the stored step function."""
        widths = np.diff(np.concatenate([[0.0], self.t_grid]))
        return float(np.sum(self.fstar**p * widths))

    def p_norm_pth_power_window(self, p: float, t_lo: float, t_hi: float) -> float:
        """int_{t_lo}^{t_hi} (f*)^p dt, exact on the step breakpoints."""
        breaks = np.concatenate([[0.0], self.t_grid])
        lo = np.clip(breaks[:-1], t_lo, t_hi)
        hi = np.clip(breaks[1:], t_lo, t_hi)
        return float(np.sum(self.fstar**p * np.maximum(hi - lo, 0.0)))


def decreasing_rearrangement(f: RadialFunction,
                             nu: Optional[MeasureDensity] = None
                             ) -> RearrangedProfile:
    """Sort (value, cell-mass) pairs into the nonincreasing rearrangement.

    Raises UnboundedDistribution when some positive level has infinite
    super-level measure (non-decaying declared tail).
    """
    vals, masses = cells(f, nu)
    if f.tail_exponent is not None and float(f.magnitude()[-1]) > 0:
        if f.tail_exponent >= 0:
            raise UnboundedDistribution("profile does not decay: rearrangement undefined")
        # append tail cells following the declared power decay
        r_max = float(f.grid[-1])
        v_end = float(f.magnitude()[-1])
        measure = nu if nu is not None else lebesgue(f.n)
        radii = r_max * np.exp(np.linspace(0.0, math.log(1e4), 512))
        tail_vals = v_end * (0.5 * (radii[1:] + radii[:-1]) / r_max) ** f.tail_exponent
        widths = np.diff(radii)
        mids = 0.5 * (radii[1:] + radii[:-1])
        tail_masses = measure.radial_weight(mids) * widths
        vals = np.concatenate([vals, tail_vals])
        masses = np.concatenate([masses, tail_masses])
    order = np.argsort(vals)[::-1]
    v = vals[order]
    m = masses[order]
    keep = m > 0
    v, m = v[keep], m[keep]
    t = np.cumsum(m)
    cum_int = np.cumsum(v * m)
    fss = cum_int / t
    return RearrangedProfile(t_grid=t, fstar=v, fstarstar=fss)


def rearrangement_value(f: RadialFunction, t: float,
                        nu: Optional[MeasureDensity] = None) -> float:
    """f*(t) = inf{s : lambda(s) <= t} by 60 bisection steps on the
    distribution function (with its sub-cell crossing interpolation).

    Pointwise-accurate inversion; the sorted-profile path is exact in the
    equimeasurability sense but pins values to whole cells.  Linear steps
    resolve nothing below max|f| 2^-60; when f*(t) lies there, 60 more
    steps bisect geometrically down to the smallest normal float, and
    f*(t) below that is 0.
    """
    if t <= 0:
        raise DomainError("mass level must be positive")
    lam = _distribution(f, nu)
    hi = float(np.max(f.magnitude()))
    if hi == 0.0 or lam(hi) > t:
        return hi
    lo = 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if lam(mid) <= t:
            hi = mid
        else:
            lo = mid
    if lo == 0.0:
        lo = float(np.finfo(float).tiny)
        if lam(lo) <= t:
            return 0.0
        for _ in range(60):
            # the product of square roots neither underflows nor overflows
            mid = math.sqrt(lo) * math.sqrt(hi)
            if lam(mid) <= t:
                hi = mid
            else:
                lo = mid
        return math.sqrt(lo) * math.sqrt(hi)
    return 0.5 * (lo + hi)


def _tail_stop(ts: np.ndarray, first: np.ndarray, n_strip: int) -> int:
    """One past the last index k that the tail series of exp_regularized
    sums, for arguments ts whose terms k = n_strip + 1 are `first`.

    term_k / acc <= |t|^{k-N-1} (N+1)! / k! grows with |t|, so the largest
    argument needs the most terms: its own recurrence, in the same float
    operations, runs until a term falls below 1e-18 acc (at most
    n_strip + 400).  Such a term is under half an ulp of acc, so the terms
    it leaves out, or adds for smaller arguments, round away.
    """
    if ts.size == 0:
        return n_strip + 2
    i = int(np.argmax(np.abs(ts)))
    x, term = abs(float(ts[i])), abs(float(first[i]))
    acc = term
    k = n_strip + 2
    while True:
        term = term * x / k
        acc += term
        k += 1
        if not term > 1e-18 * max(acc, 1e-300) or k > n_strip + 400:
            return k


def exp_regularized(t, n_strip: int):
    """exp_N(t) = e^t - sum_{k<=N} t^k/k!, via the tail series for small t.

    The tail series sum_{k>N} t^k/k! avoids catastrophic cancellation when
    t < N + 1; both branches are vectorized.
    """
    if n_strip < 0:
        raise DomainError("regularization order must be >= 0")
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    small = t < n_strip + 1.0
    # tail series on the small branch
    ts = t[small]
    term = ts ** (n_strip + 1) / math.factorial(n_strip + 1)
    acc = term.copy()
    for k in range(n_strip + 2, _tail_stop(ts, term, n_strip)):
        term *= ts
        term /= k
        acc += term
    out[small] = acc
    tb = t[~small]
    poly = np.zeros_like(tb)
    fact = 1.0
    for k in range(n_strip + 1):
        if k > 0:
            fact *= k
        poly += tb**k / fact
    with np.errstate(over="ignore"):  # inf is the honest answer past ~709
        out[~small] = np.exp(tb) - poly
    return out if out.ndim else float(out)


def regularization_sandwich(u: RadialFunction, alpha_coeff: float, p: float,
                            nu: Optional[MeasureDensity] = None):
    """Two-sided splitting of the regularized whole-space exponential.

    Returns (lower, middle, upper) where middle is the exp_N-regularized
    integral with N = ceil(p - 2), and
      lower = int_{|u|>=1} e^{a|u|^{p'}} - e^a ||u||_p^p,
      upper = int_{|u|>=1} e^{a|u|^{p'}} + e^a ||u||_p^p.
    The ordering lower <= middle <= upper is asserted.
    """
    if not 1 < p < math.inf:
        raise DomainError("need 1 < p < inf")
    p_conj = p / (p - 1.0)
    n_strip = max(0, math.ceil(p - 2.0))
    vals, masses = cells(u, nu)
    norm_p = float(np.sum(masses * vals**p)) ** (1.0 / p)
    over = vals >= 1.0
    with np.errstate(over="ignore"):
        core = float(np.sum(masses[over] * np.exp(alpha_coeff * vals[over] ** p_conj)))
    middle = float(np.sum(masses * exp_regularized(alpha_coeff * vals**p_conj, n_strip)))
    shift = math.exp(alpha_coeff) * norm_p**p
    lower, upper = core - shift, core + shift
    if not (lower <= middle * (1 + 1e-12) + 1e-12 and middle <= upper * (1 + 1e-12) + 1e-12):
        raise SandwichViolated(
            f"regularization sandwich violated: {lower} <= {middle} <= {upper}")
    return lower, middle, upper
