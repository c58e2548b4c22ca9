import math

import pytest

from sil.constants import (SharpConstants, ball_volume, kernel_sharp_constant,
                           riesz_normalization, sharp_gamma, sphere_area)
from sil.errors import DegenerateOddCase, DomainError
from sil.kernels import constant_kernel, gradient_kernel
from sil.params import Params


class TestSphereArea:
    def test_circle(self):
        assert sphere_area(2) == pytest.approx(2 * math.pi, rel=1e-14)

    def test_two_sphere(self):
        assert sphere_area(3) == pytest.approx(4 * math.pi, rel=1e-14)

    def test_three_sphere(self):
        # 2 pi^{n/2} / Gamma(n/2) at n = 4 evaluates to 2 pi^2
        assert sphere_area(4) == pytest.approx(2 * math.pi**2, rel=1e-14)

    def test_ball_volume_ratio(self):
        for n in range(2, 9):
            assert ball_volume(n) == pytest.approx(sphere_area(n) / n, rel=1e-15)


class TestRieszNormalization:
    def test_n2(self):
        # Gamma(1/2) cancels, leaving 1/(2 pi)
        assert riesz_normalization(2, 1.0) == pytest.approx(1 / (2 * math.pi), rel=1e-13)

    def test_n4(self):
        assert riesz_normalization(4, 2.0) == pytest.approx(1 / (4 * math.pi**2), rel=1e-13)

    def test_n3(self):
        assert riesz_normalization(3, 2.0) == pytest.approx(1 / (4 * math.pi), rel=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            riesz_normalization(2, 2.5)


class TestSharpGamma:
    def test_first_order_plane(self):
        assert sharp_gamma(2, 1) == pytest.approx(4 * math.pi, rel=1e-14)

    def test_second_order_n4(self):
        assert sharp_gamma(4, 2) == pytest.approx(32 * math.pi**2, rel=1e-13)

    def test_odd_branch_matches_first_order_formula(self):
        # ((n-2) c_2)^{-n/(n-1)} / |B_1| against n omega^{1/(n-1)}
        for n in range(3, 9):
            moser = n * sphere_area(n) ** (1.0 / (n - 1))
            assert sharp_gamma(n, 1) == pytest.approx(moser, rel=1e-12)

    def test_n3_value(self):
        assert sharp_gamma(3, 1) == pytest.approx(6 * math.sqrt(math.pi), rel=1e-13)

    def test_reciprocity_even(self):
        for (n, a) in [(3, 2), (4, 2), (5, 2), (6, 4)]:
            gamma = sharp_gamma(n, a)
            assert 1.0 / gamma == pytest.approx(
                riesz_normalization(n, a) ** (n / (n - a)) * ball_volume(n),
                rel=1e-12)

    def test_degenerate_odd(self):
        with pytest.raises(DegenerateOddCase):
            sharp_gamma(4, 3)

    def test_non_integer(self):
        with pytest.raises(DomainError):
            sharp_gamma(3, 1.5)


class TestKernelSharpConstant:
    def test_unit_kernel_is_ball_volume(self):
        for (n, a) in [(2, 1.0), (3, 2.0), (3, 1.0)]:
            k = constant_kernel(Params(n, a), 1.0)
            assert kernel_sharp_constant(k) == pytest.approx(ball_volume(n), rel=1e-12)

    def test_scaling(self):
        # |g|^{n/(n-a)} scaling: g = 2 on the circle, beta = 2
        k = constant_kernel(Params(2, 1.0), 2.0)
        assert kernel_sharp_constant(k) == pytest.approx(4 * math.pi, rel=1e-12)

    def test_gradient_vector_kernel_n2(self):
        k = gradient_kernel(2, 1)
        a_g = kernel_sharp_constant(k)
        assert a_g == pytest.approx(1 / (4 * math.pi), rel=1e-10)
        assert 1.0 / a_g == pytest.approx(sharp_gamma(2, 1), rel=1e-10)

    def test_gradient_vector_kernel_n3(self):
        a_g = kernel_sharp_constant(gradient_kernel(3, 1))
        expected = (1 / 3) * 4 * math.pi * (4 * math.pi) ** (-1.5)
        assert a_g == pytest.approx(expected, rel=1e-10)
        assert 1.0 / a_g == pytest.approx(sharp_gamma(3, 1), rel=1e-10)

    @pytest.mark.parametrize("n,alpha", [(2, 1), (3, 1), (4, 1), (5, 1),
                                         (5, 3), (6, 3)])
    def test_gradient_kernel_closed_form(self, n, alpha):
        # |g| = (n - alpha - 1) c_{alpha+1} on the sphere, so A_g is the
        # reciprocal of the odd-order sharp constant to roundoff
        a_g = kernel_sharp_constant(gradient_kernel(n, alpha))
        assert abs(a_g * sharp_gamma(n, alpha) - 1.0) <= 1e-14


def test_sharp_constants_bundle():
    sc = SharpConstants.compute(2, 1.0, constant_kernel(Params(2, 1.0), 1.0))
    assert sc.ball_vol == pytest.approx(sc.omega / 2, rel=1e-14)
    assert sc.A_g == pytest.approx(sc.ball_vol, rel=1e-12)
    assert sc.gamma == pytest.approx(4 * math.pi, rel=1e-13)
    assert set(sc.as_dict()) == {"omega", "ball_vol", "c_alpha", "gamma", "A_g"}
