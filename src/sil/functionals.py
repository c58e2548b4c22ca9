"""Exponential functionals of radial profiles over Lebesgue sets, trace
measures, and hyperbolic volume.

All integrals accumulate in log space (max-shifted), so coefficients that
push |u|^beta past the float exponent range still produce meaningful
log-values; results report both the value (possibly inf) and its log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DivergentIntegral, DomainError, HypothesisViolated
from .grids import RadialFunction
from .measures import MeasureDensity, lebesgue
from .norms import cells
from .params import Params
from .rearrange import exp_regularized


@dataclass(frozen=True)
class Domain:
    """Set descriptor: the radial window inner <= |x| <= outer, with
    0 <= inner < outer (a ball, an annulus, a ball complement or all of
    space), or, with half=True, its part in a half space through the
    origin, which integrates half of a radial integral by symmetry."""

    inner: float = 0.0
    outer: float = math.inf
    half: bool = False

    def __post_init__(self):
        if not 0.0 <= self.inner < self.outer:
            raise DomainError(f"domain radii need 0 <= inner < outer, got "
                              f"{self.inner}, {self.outer}")

    @staticmethod
    def ball(radius: float) -> "Domain":
        return Domain(0.0, radius)

    @staticmethod
    def annulus(inner: float, outer: float) -> "Domain":
        return Domain(inner, outer)

    @staticmethod
    def ball_complement(radius: float) -> "Domain":
        return Domain(radius, math.inf)

    @staticmethod
    def whole_space() -> "Domain":
        return Domain()

    @staticmethod
    def half_space() -> "Domain":
        return Domain(half=True)

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.outer)

    @staticmethod
    def parse(text: str) -> "Domain":
        """all, ball:r, annulus:a,b, complement:r or halfspace; any other
        text raises DomainError."""
        kind, _, rest = text.partition(":")
        try:
            if text == "all":
                return Domain.whole_space()
            if text == "halfspace":
                return Domain.half_space()
            if kind == "ball":
                return Domain.ball(float(rest))
            if kind == "annulus":
                a, b = rest.split(",")
                return Domain.annulus(float(a), float(b))
            if kind == "complement":
                return Domain.ball_complement(float(rest))
        except ValueError as exc:
            raise DomainError(f"cannot parse domain {text!r}: {exc}") from exc
        raise DomainError(f"cannot parse domain {text!r}")


@dataclass(frozen=True)
class FunctionalSpec:
    """Exponential functional: int_E exp(gamma |u|^power) d nu, optionally
    regularized (Taylor polynomial of the given order stripped) on
    unbounded domains."""

    gamma_coeff: float
    power: float
    domain: Domain
    regularized: bool = False
    order: int = 0
    measure: Optional[MeasureDensity] = None

    @staticmethod
    def sharp(params: Params, coefficient: float, domain: Domain,
              regularized: bool = False,
              measure: Optional[MeasureDensity] = None) -> "FunctionalSpec":
        return FunctionalSpec(
            gamma_coeff=coefficient, power=params.beta, domain=domain,
            regularized=regularized, order=params.regularization_order,
            measure=measure)


@dataclass(frozen=True)
class FunctionalResult:
    value: float
    log_value: float
    truncation_error: float = 0.0


def _in_domain(u: RadialFunction, spec: FunctionalSpec):
    """The (values, masses) cells of u restricted to spec.domain.

    Radial masses are scaled by the share of each log-cell inside the
    domain (the head cell counts when the domain reaches the origin); the
    half space takes half of every cell.  Cells left with zero mass are
    dropped.
    """
    vals, masses = cells(u, spec.measure)
    share = 0.5 if spec.domain.half else 1.0
    head = share if spec.domain.inner <= u.grid[0] else 0.0
    masses = masses * np.concatenate(
        [[head], _cell_fractions(u.grid, spec.domain) * share])
    keep = masses > 0
    return vals[keep], masses[keep]


def _cell_fractions(grid: np.ndarray, domain: Domain) -> np.ndarray:
    """Fraction of each node's log-cell inside the domain window.

    Node j owns [t_j - h/2, t_j + h/2] in t = log r; boundary cells get the
    clipped overlap so that set additivity and ball volumes hold to O(h^2).
    """
    t = np.log(grid)
    half = np.empty_like(t)
    half[1:-1] = 0.25 * (t[2:] - t[:-2])
    half[0] = 0.5 * (t[1] - t[0])
    half[-1] = 0.5 * (t[-1] - t[-2])
    lo = t - half
    hi = t + half
    t_in = math.log(domain.inner) if domain.inner > 0 else -math.inf
    t_out = math.log(domain.outer) if math.isfinite(domain.outer) else math.inf
    overlap = np.minimum(hi, t_out) - np.maximum(lo, t_in)
    return np.clip(overlap / (hi - lo), 0.0, 1.0)


def _log_accumulate(exponents: np.ndarray, log_masses: np.ndarray) -> float:
    terms = exponents + log_masses
    peak = float(np.max(terms)) if terms.size else -math.inf
    if not math.isfinite(peak):
        return peak
    return peak + math.log(float(np.sum(np.exp(terms - peak))))


def mt_functional(u: RadialFunction, spec: FunctionalSpec) -> FunctionalResult:
    """Evaluate the exponential functional; regularized form required on
    unbounded domains (DivergentIntegral otherwise)."""
    if not spec.domain.bounded and not spec.regularized:
        nu = spec.measure
        if nu is None or nu.kind in ("lebesgue", "hyperbolic"):
            raise DivergentIntegral(
                "whole-space exponential integral needs the regularized form")
    vals, masses = _in_domain(u, spec)
    t = spec.gamma_coeff * vals**spec.power
    truncation = 0.0
    if spec.regularized:
        big = t >= 500.0
        direct = float(np.sum(masses[~big] * exp_regularized(t[~big], spec.order)))
        log_big = _log_accumulate(t[big], np.log(np.clip(masses[big], 1e-300, None))) \
            if np.any(big) else -math.inf
        log_value = np.logaddexp(math.log(max(direct, 1e-300)), log_big) \
            if direct > 0 or math.isfinite(log_big) else -math.inf
        value = float(np.exp(log_value)) if math.isfinite(log_value) else 0.0
        if not spec.domain.bounded:
            truncation = _tail_estimate(u, spec)
            value += truncation
            log_value = math.log(max(value, 1e-300))
    else:
        log_masses = np.log(np.clip(masses, 1e-300, None))
        log_value = _log_accumulate(t, log_masses)
        value = float(np.exp(log_value)) if log_value < 709.0 else math.inf
    return FunctionalResult(value=value, log_value=float(log_value),
                            truncation_error=truncation)


def _tail_estimate(u: RadialFunction, spec: FunctionalSpec) -> float:
    """Leading Taylor term gamma^k |u|^{power k} / k! of the regularized
    integrand, integrated over the declared tail beyond the grid."""
    mag_end = float(u.magnitude()[-1])
    if mag_end == 0.0 or u.tail_exponent is None:
        return 0.0
    k = spec.order + 1
    nu = spec.measure if spec.measure is not None else lebesgue(u.n)
    coef = spec.gamma_coeff**k * mag_end ** (spec.power * k) / math.factorial(k)
    return nu.tail_integral(float(u.grid[-1]), u.tail_exponent * spec.power * k,
                            coef)


# ---------------------------------------------------------------------------
# additive-shift bounds (the seminorm splitting device)
# ---------------------------------------------------------------------------

def holder_split_inequality(a, b, theta, beta):
    """(lhs, rhs) of a theta^{1/b'} + b (1-theta)^{1/b'} <= (a^b + b^b)^{1/b}."""
    a = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    theta = np.asarray(theta, dtype=float)
    beta = np.asarray(beta, dtype=float)
    bc = beta / (beta - 1.0)
    lhs = a * theta ** (1.0 / bc) + b_arr * (1.0 - theta) ** (1.0 / bc)
    rhs = (a**beta + b_arr**beta) ** (1.0 / beta)
    return lhs, rhs


@dataclass(frozen=True)
class ShiftBounds:
    shifted_a: float
    bound_a: float
    shifted_b: float
    bound_b: float


def shifted_functional_bounds(tf: RadialFunction, K: float, p_f: float,
                              spec: FunctionalSpec, c0: float) -> ShiftBounds:
    """Evaluate the two additive-shift functionals and their closed-form
    bounds, given the measured unshifted bound c0.

    Shift (a): exponent (|Tf| + K)^beta, bound
      c0 * exp[gamma (K^{b'} / (1 - p_f^{b'}))^{beta/b'}]; needs p_f < 1.
    Shift (b): exponent (|Tf| + K (1 - p_f^{b'})^{1/b'})^beta, bound
      c0 * exp[gamma K^beta].
    """
    beta = spec.power
    bc = beta / (beta - 1.0)
    if p_f < 0 or p_f > 1:
        raise HypothesisViolated("seminorm value must lie in [0, 1]")
    vals, masses = _in_domain(tf, spec)
    log_masses = np.log(np.clip(masses, 1e-300, None))

    def shifted(shift: float) -> float:
        t = spec.gamma_coeff * (vals + shift) ** beta
        return float(np.exp(_log_accumulate(t, log_masses)))

    shifted_b = shifted(K * (1.0 - p_f**bc) ** (1.0 / bc))
    bound_b = c0 * math.exp(spec.gamma_coeff * K**beta)
    if p_f >= 1.0:
        raise HypothesisViolated("shift (a) needs seminorm strictly below 1")
    shifted_a = shifted(K)
    bound_a = c0 * math.exp(spec.gamma_coeff
                            * (K**bc / (1.0 - p_f**bc)) ** (beta / bc))
    return ShiftBounds(shifted_a=shifted_a, bound_a=bound_a,
                       shifted_b=shifted_b, bound_b=bound_b)
