"""Radial Borel measures, their ball masses and their power tails.

A measure is either Lebesgue, a radial density w(|x|) dx, or the
hyperbolic volume (geodesic polar weight sinh^{n-1}).  Only the radial
weight enters quadrature.

Every measure built here has closed-form ball masses and power tails,
the hyperbolic volume through a series or a reduction formula for every
n; `quad` serves only a user's density, and is imported where called, so
that `import sil` does not load scipy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .constants import sphere_area
from .errors import DomainError, NegativeDensity, NonIntegrableTail


@dataclass(frozen=True)
class MeasureDensity:
    """A measure given by its radial weight profile.

    kind: 'lebesgue' | 'radial' | 'hyperbolic'
    radial_density: w(r) for kind='radial' (w >= 0)
    density_exponent: e for kind='radial' with w(r) = r^e, in place of
        radial_density; ball masses and tails then have closed forms
    """

    kind: str
    n: int
    radial_density: Optional[Callable[[np.ndarray], np.ndarray]] = None
    density_exponent: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("lebesgue", "radial", "hyperbolic"):
            raise DomainError(f"unknown measure kind {self.kind!r}")
        if self.kind == "radial" and \
                (self.radial_density is None) == (self.density_exponent is None):
            raise DomainError(
                "radial measure needs a density profile or a power exponent")
        if self.density_exponent is not None and self.density_exponent <= -self.n:
            raise DomainError("power density r^e needs e > -n to be locally "
                              "integrable")

    def radial_weight(self, r: np.ndarray) -> np.ndarray:
        """Weight W(r) with integral h -> int h(|x|) dnu = int h(r) W(r) dr."""
        r = np.asarray(r, dtype=float)
        if self.kind == "lebesgue":
            return sphere_area(self.n) * r ** (self.n - 1)
        if self.kind == "radial":
            w = self._density(r)
            if np.any(w < 0):
                raise NegativeDensity("measure density must be nonnegative")
            return sphere_area(self.n) * w * r ** (self.n - 1)
        return sphere_area(self.n) * np.sinh(r) ** (self.n - 1)

    def _density(self, r: np.ndarray) -> np.ndarray:
        """w(r) of a radial measure."""
        if self.density_exponent is not None:
            return np.asarray(r, dtype=float) ** self.density_exponent
        return np.asarray(self.radial_density(r), dtype=float)

    def _ball_exponent(self) -> Optional[float]:
        """d with nu(B(0, r)) = omega r^d / d, for Lebesgue and power
        densities; None for the other measures."""
        if self.kind == "lebesgue":
            return self.n
        if self.density_exponent is not None:
            return self.n + self.density_exponent
        return None

    def ball_mass_origin(self, r: float) -> float:
        """nu(B(0, r)): closed forms, with quadrature only for a user's
        density.  The hyperbolic volume is omega V_{n-1}(r), with
        V_k(r) = int_0^r sinh^k (_sinh_power_integral)."""
        if self.kind == "lebesgue":
            return sphere_area(self.n) / self.n * r**self.n
        d = self._ball_exponent()
        if d is not None:
            return sphere_area(self.n) * r**d / d
        if self.kind == "hyperbolic":
            return sphere_area(self.n) * _sinh_power_integral(self.n - 1, r)
        from scipy.integrate import quad

        val, _ = quad(
            lambda s: float(self._density(np.array([s]))[0]) * s ** (self.n - 1),
            0.0, r, limit=200)
        return sphere_area(self.n) * val

    def tail_integral(self, r_max: float, expo: float, coef: float = 1.0) -> float:
        """coef * int_{|x| > r_max} (|x|/r_max)^expo dnu: a power tail declared
        beyond the last grid node, integrated out to infinity.

        Closed form for Lebesgue and power densities; the
        hyperbolic volume grows like e^{(n-1) r}, which no power tail
        offsets; a user's density goes through quadrature.  Raises
        NonIntegrableTail when the integral diverges, including when
        quadrature warns.
        """
        d = self._ball_exponent()
        if d is not None:
            if expo + d >= 0:
                raise NonIntegrableTail(
                    f"tail r^{expo:+.3g} is not integrable against a ball mass "
                    f"growing like r^{d:.3g}")
            return sphere_area(self.n) * coef * r_max**d / (-(expo + d))
        if self.kind == "hyperbolic":
            raise NonIntegrableTail(
                "no power tail is integrable under the hyperbolic volume")
        from scipy.integrate import IntegrationWarning, quad

        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            try:
                val, _ = quad(
                    lambda r: (r / r_max) ** expo
                    * float(self.radial_weight(np.array([r]))[0]),
                    r_max, np.inf, limit=200)
            except IntegrationWarning as exc:
                raise NonIntegrableTail(
                    f"tail r^{expo:+.3g} does not converge under the density"
                ) from exc
        if not math.isfinite(val):
            raise NonIntegrableTail("tail integral diverges under the density")
        return coef * val


def _sinh_power_integral(k: int, r: float) -> float:
    """V_k(r) = int_0^r sinh^k s ds.

    For r <= 1, the Pfaff transform of sinh^{k+1} r / (k + 1)
    * 2F1(1/2, (k+1)/2; (k+3)/2; -sinh^2 r) (by t = sinh^2 s; DLMF 15.8.1),
    a series of positive terms:
    sinh^{k+1} r / ((k + 1) cosh r) * sum_j (1/2)_j / ((k+3)/2)_j tanh^{2j} r.
    Above, the reduction V_k = (sinh^{k-1} r cosh r - (k - 1) V_{k-2}) / k
    from V_0 = r and V_1 = 2 sinh^2(r/2), whose first term is at least
    1.8 times the second for r > 1.
    """
    if r <= 1.0:
        return _sinh_power_series(k, r, math)
    return _sinh_power_reduction(k, r, math)


def hyperbolic_ball_masses(n: int, r: np.ndarray) -> np.ndarray:
    """omega V_{n-1}(r) over an array of radii in one pass, by the series
    and the reduction of _sinh_power_integral.

    numpy's sinh, cosh, tanh and power round apart from math's in the last
    bit, so these masses agree with ball_mass_origin within 16 ulps, not
    bit for bit.
    """
    r = np.asarray(r, dtype=float)
    out = np.empty(r.shape)
    low = r <= 1.0
    out[low] = _sinh_power_series(n - 1, r[low], np)
    out[~low] = _sinh_power_reduction(n - 1, r[~low], np)
    return sphere_area(n) * out


def _sinh_power_series(k: int, r, xp):
    """V_k(r) for r <= 1 by the tanh^2 series, for a float (xp = math) or
    an array (xp = numpy).  An array sums on until its slowest radius
    converges: a term below 1e-17 of its sum is under half an ulp of it,
    so the terms past a radius's own stop leave its sum unchanged."""
    t2 = xp.tanh(r) ** 2
    term = total = 1.0
    j = 0
    while (np.any(term > 1e-17 * total) if xp is np
           else term > 1e-17 * total):
        term *= t2 * (0.5 + j) / (0.5 * (k + 3) + j)
        total += term
        j += 1
    return xp.sinh(r) ** (k + 1) / ((k + 1) * xp.cosh(r)) * total


def _sinh_power_reduction(k: int, r, xp):
    """V_k(r) by the reduction formula, for a float (xp = math) or an
    array (xp = numpy)."""
    if k % 2:
        vol, j = 2.0 * xp.sinh(0.5 * r) ** 2, 1
    else:
        vol, j = r, 0
    while j < k:
        j += 2
        vol = (xp.sinh(r) ** (j - 1) * xp.cosh(r) - (j - 1) * vol) / j
    return vol


def lebesgue(n: int) -> MeasureDensity:
    return MeasureDensity(kind="lebesgue", n=n)


def hyperbolic_volume(n: int) -> MeasureDensity:
    return MeasureDensity(kind="hyperbolic", n=n)


def singular_measure(n: int, sigma: float) -> MeasureDensity:
    """Density |x|^{(sigma-1) n}: mass of B(0,r) is omega r^{sigma n}/(sigma n).

    The density is radially decreasing, so no ball of radius r carries
    more mass than the one centred at the origin.
    """
    if not 0 < sigma <= 1:
        raise DomainError("sigma must lie in (0, 1]")
    return MeasureDensity(
        kind="lebesgue" if sigma == 1.0 else "radial",
        n=n,
        density_exponent=None if sigma == 1.0 else (sigma - 1.0) * n,
    )

