"""Known-answer tests for the reference values in checks.py.

    python3 -m pytest bench/test_checks.py
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import checks


class TestExactExpIntegral:
    def test_constant(self):
        y = np.linspace(0.0, 3.0, 7)
        assert checks.exact_exp_integral(y, np.full(7, 2.0)) == \
            pytest.approx(3.0 * math.exp(-2.0), rel=1e-14)

    def test_linear_is_exact_on_any_partition(self):
        y = np.array([0.0, 0.3, 1.1, 2.0, 5.0])
        want = (1.0 - math.exp(-1.5 * 5.0)) / 1.5
        assert checks.exact_exp_integral(y, 1.5 * y) == pytest.approx(want, rel=1e-14)

    def test_kinked_against_fine_quadrature(self):
        y = np.array([-1.0, 0.0, 0.5, 3.0])
        f = np.array([2.0, -0.5, 0.7, 0.7])
        fine = np.linspace(-1.0, 3.0, 400001)
        want = np.trapezoid(np.exp(-np.interp(fine, y, f)), fine)
        assert checks.exact_exp_integral(y, f) == pytest.approx(want, rel=1e-9)

    def test_flat_limit_is_continuous(self):
        y = np.array([0.0, 1.0])
        flat = checks.exact_exp_integral(y, np.array([1.0, 1.0]))
        tilted = checks.exact_exp_integral(y, np.array([1.0, 1.0 + 1e-9]))
        assert tilted == pytest.approx(flat, rel=1e-8)

    def test_rejects_mismatched_samples(self):
        with pytest.raises(ValueError):
            checks.exact_exp_integral([0.0, 1.0], [0.0])


def test_inverse_radius_rearrangement():
    # {1/|x| > s} inside the unit disc is the disc of radius 1/s
    assert checks.inverse_radius_rearrangement(math.pi) == pytest.approx(1.0)
    assert checks.inverse_radius_rearrangement(math.pi / 4) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        checks.inverse_radius_rearrangement(4.0)


@pytest.mark.parametrize("r", [1.5, 2.0, 7.0])
def test_ball_potential_n3_against_quadrature(r):
    # int_0^1 rho^2 d rho int_{-1}^1 2 pi du / sqrt(r^2 + rho^2 - 2 r rho u)
    x, w = np.polynomial.legendre.leggauss(80)
    rho, u = np.meshgrid(0.5 * (x + 1.0), x, indexing="ij")
    wt = np.outer(0.5 * w, w)
    integrand = 2.0 * math.pi * rho**2 / np.sqrt(r**2 + rho**2 - 2.0 * r * rho * u)
    assert checks.ball_potential_n3(r) == pytest.approx(np.sum(wt * integrand),
                                                        rel=1e-10)


def test_gradient_center_value_against_quadrature():
    eps = 1e-3
    # kernel magnitude (2 pi)^{-1} r^{-1} times source magnitude (2 pi)^{-1} r^{-1}
    val, _ = quad(lambda r: (2.0 * math.pi) ** -2 * r**-2 * 2.0 * math.pi * r,
                  eps, 1.0, limit=200)
    assert checks.gradient_center_value(eps) == pytest.approx(val, rel=1e-10)


@pytest.mark.parametrize("rho", [0.3, 1.0, 4.0])
def test_hyperbolic_green_h3_against_quadrature(rho):
    # the integrand decays like 4 e^{-2r}: past rho + 40 nothing is left
    val, _ = quad(lambda r: math.sinh(r) ** -2, rho, rho + 40.0, limit=200)
    assert checks.hyperbolic_green_h3(rho) == pytest.approx(val / (4.0 * math.pi),
                                                            rel=1e-9)


@pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
def test_lp_norm_pth_of_gaussian(p):
    # int_{R^2} e^{-p |x|^2} dx = pi / p
    r = np.exp(np.linspace(math.log(1e-6), math.log(30.0), 20001))
    got = checks.lp_norm_pth_log_grid(r, np.exp(-r**2), 2, p)
    assert got == pytest.approx(math.pi / p, rel=1e-7)


def test_max_relative_gap():
    assert checks.max_relative_gap([1.0, 2.0], [1.0, 4.0]) == pytest.approx(0.5)
    assert checks.max_relative_gap([0.0], [0.0]) == 0.0
