import math

import numpy as np
import pytest

from sil.constants import sphere_area
from sil.errors import DivergentIntegral, DomainError, HypothesisViolated
from sil.functionals import (Domain, FunctionalSpec, holder_split_inequality,
                             mt_functional, shifted_functional_bounds)
from sil.grids import RadialFunction, anchored_log_grid, indicator_values, \
    log_grid
from sil.measures import singular_measure
from sil.norms import lp_norm
from sil.params import Params

P2 = Params(2, 1.0)
GRID = log_grid(1e-6, 1e3, 4096)
AGRID = anchored_log_grid(1.0, 1e-6, 1e3)


class TestDomain:
    def test_parse(self):
        assert Domain.parse("ball:2.5").outer == 2.5
        d = Domain.parse("annulus:0.5,2")
        assert (d.inner, d.outer) == (0.5, 2.0)
        assert not Domain.parse("all").bounded
        assert Domain.parse("halfspace") == Domain.half_space()
        for text in ("wedge:1", "slab:0,-1,1", "ball:abc", "annulus:1",
                     "halfspace:x", "halfspace:1", "ball:-1", "annulus:2,1"):
            with pytest.raises(DomainError):
                Domain.parse(text)

    def test_halfspace_radial_is_half(self):
        u = RadialFunction(GRID, np.exp(-GRID), 2)
        full = mt_functional(u, FunctionalSpec.sharp(P2, 0.5, Domain.ball(2.0)))
        # half space over the same radial window
        half_dom = Domain("halfspace", 0.0, 2.0)
        half = mt_functional(u, FunctionalSpec.sharp(P2, 0.5, half_dom))
        assert half.value == pytest.approx(0.5 * full.value, rel=1e-9)


class TestMtFunctional:
    def test_zero_on_ball(self):
        u = RadialFunction(AGRID, np.zeros_like(AGRID), 2)
        spec = FunctionalSpec.sharp(P2, 1.0, Domain.ball(1.0))
        assert mt_functional(u, spec).value == pytest.approx(math.pi, rel=1e-4)

    def test_zero_regularized(self):
        u = RadialFunction(AGRID, np.zeros_like(AGRID), 2)
        spec = FunctionalSpec.sharp(P2, 1.0, Domain.whole_space(),
                                    regularized=True)
        assert mt_functional(u, spec).value == 0.0

    def test_unit_function_unit_mass(self):
        # u = 1 on a set of measure 1: integral is e
        radius = math.sqrt(1.0 / math.pi)
        g = anchored_log_grid(radius, 1e-6, 1e2)
        u = RadialFunction(g, indicator_values(g, radius), 2)
        spec = FunctionalSpec(gamma_coeff=1.0, power=2.0,
                              domain=Domain.ball(radius))
        assert mt_functional(u, spec).value == pytest.approx(math.e, rel=2e-2)

    def test_set_additivity(self):
        u = RadialFunction(GRID, np.exp(-GRID), 2)
        s_all = FunctionalSpec.sharp(P2, 0.7, Domain.ball(2.0))
        s_in = FunctionalSpec.sharp(P2, 0.7, Domain.ball(1.0))
        s_out = FunctionalSpec.sharp(P2, 0.7, Domain.annulus(1.0, 2.0))
        total = mt_functional(u, s_all).value
        parts = mt_functional(u, s_in).value + mt_functional(u, s_out).value
        assert total == pytest.approx(parts, rel=1e-3)

    def test_monotone_in_gamma(self):
        u = RadialFunction(GRID, np.exp(-GRID) * 2.0, 2)
        vals = [mt_functional(u, FunctionalSpec.sharp(P2, g, Domain.ball(1.0))).value
                for g in (0.5, 1.0, 2.0)]
        assert vals[0] <= vals[1] <= vals[2]

    def test_whole_space_plain_raises(self):
        u = RadialFunction(GRID, np.exp(-GRID), 2)
        with pytest.raises(DivergentIntegral):
            mt_functional(u, FunctionalSpec.sharp(P2, 1.0, Domain.whole_space()))

    def test_regularized_plain_consistency(self):
        # |regularized whole space - plain over {u >= 1}| <= e^g ||u||^p_p
        rng = np.random.default_rng(8)
        for _ in range(10):
            vals = np.zeros_like(GRID)
            t = np.log(GRID)
            for _ in range(3):
                c = rng.uniform(math.log(1e-2), 0.0)
                vals += rng.uniform(0.2, 1.5) * np.exp(-((t - c) / 0.5) ** 2)
            vals[GRID > 2.0] = 0.0
            u = RadialFunction(GRID, vals, 2)
            scale = max(lp_norm(u, 2.0), 0.25 * float(np.max(vals)), 1e-12)
            u = u.with_values(u.values / scale * rng.uniform(0.3, 1.0))
            gamma = rng.uniform(0.3, 1.5)
            reg = mt_functional(u, FunctionalSpec.sharp(
                P2, gamma, Domain.whole_space(), regularized=True)).value
            mask = u.magnitude() >= 1.0
            from sil.norms import node_masses
            m = node_masses(u)
            plain_over = float(np.sum(
                m[mask] * np.exp(gamma * u.magnitude()[mask] ** 2)))
            bound = math.exp(gamma) * lp_norm(u, 2.0) ** 2
            assert abs(reg - plain_over) <= bound * (1 + 1e-9) + 1e-12

    def test_log_value_survives_overflow(self):
        u = RadialFunction(AGRID, 30.0 * indicator_values(AGRID, 1.0), 2)
        spec = FunctionalSpec(gamma_coeff=1.0, power=2.0, domain=Domain.ball(1.0))
        res = mt_functional(u, spec)
        assert res.value == math.inf
        assert res.log_value == pytest.approx(900.0 + math.log(math.pi), rel=1e-3)


class TestAdachiFunctional:
    def test_coupled_family_sweep_bounded(self):
        # along the dilation-coupled gradient-kernel families (u = the
        # potential, the vector source = its gradient) the whole-space
        # regularized integral of exp(theta 4 pi (|u| / ||grad u||)^2)
        # stays below a stable multiple of (1 - theta)^{-1} times the scale
        # (||u|| / ||grad u||)^2
        from sil.extremals import (adams_family, attach_potential,
                                   coupling_eps, dilated_family)
        from sil.kernels import gradient_kernel
        k = gradient_kernel(2, 1)
        normalized = []
        for theta in (0.5, 0.8, 0.95):
            eps = coupling_eps(2, 2.0, theta)
            fam = dilated_family(attach_potential(adams_family(k, eps)),
                                 2.0, theta)
            grad_sq = fam.norm_pth_power
            spec = FunctionalSpec(gamma_coeff=theta * 4.0 * math.pi / grad_sq,
                                  power=2.0, domain=Domain.whole_space(),
                                  regularized=True)
            lhs = mt_functional(fam.potential, spec).value
            scale = fam.potential_norm_pth / grad_sq
            normalized.append(lhs / scale * (1.0 - theta))
        assert max(normalized) <= 20.0
        assert max(normalized) <= 2.5 * min(normalized)


class TestHolderSplit:
    def test_equality_case(self):
        lhs, rhs = holder_split_inequality(3.0, 3.0, 0.5, 2.0)
        assert lhs == pytest.approx(math.sqrt(2) * 3.0, rel=1e-14)
        assert rhs == pytest.approx(math.sqrt(2) * 3.0, rel=1e-14)

    def test_monte_carlo(self):
        rng = np.random.default_rng(123)
        m = 10**6
        a = rng.uniform(0.0, 10.0, m)
        b = rng.uniform(0.0, 10.0, m)
        theta = rng.uniform(0.0, 1.0, m)
        beta = rng.uniform(1.01, 8.0, m)
        lhs, rhs = holder_split_inequality(a, b, theta, beta)
        assert int(np.sum(lhs > rhs * (1 + 1e-12) + 1e-12)) == 0


class TestShiftBounds:
    def _spec(self):
        return FunctionalSpec(gamma_coeff=1.0 / math.pi, power=2.0,
                              domain=Domain.ball(1.0))

    def test_zero_shift_identity(self):
        u = RadialFunction(GRID, 0.5 * np.exp(-GRID), 2)
        spec = self._spec()
        base = mt_functional(u, spec).value
        sb = shifted_functional_bounds(u, 0.0, 0.5, spec, base)
        assert sb.shifted_a == pytest.approx(base, rel=1e-9)
        assert sb.shifted_b == pytest.approx(base, rel=1e-9)

    def test_hypothesis_violation(self):
        u = RadialFunction(GRID, 0.5 * np.exp(-GRID), 2)
        with pytest.raises(HypothesisViolated):
            shifted_functional_bounds(u, 1.0, 1.5, self._spec(), 1.0)


class TestTraceMeasures:
    def test_sigma_one_is_lebesgue(self):
        nu = singular_measure(2, 1.0)
        assert nu.kind == "lebesgue"
        assert nu.ball_mass_origin(1.0) == pytest.approx(math.pi, rel=1e-12)

    def test_singular_half_plane_mass(self):
        nu = singular_measure(2, 0.5)
        for r in (0.1, 1.0, 5.0):
            assert nu.ball_mass_origin(r) == pytest.approx(
                2 * math.pi * r, rel=1e-9)

    def test_singular_mass_formula_general(self):
        # mass of B(0,r) is omega r^{sigma n} / (sigma n)
        for (n, sigma) in [(2, 0.75), (3, 0.5)]:
            nu = singular_measure(n, sigma)
            r = 2.0
            expected = sphere_area(n) * r ** (sigma * n) / (sigma * n)
            assert nu.ball_mass_origin(r) == pytest.approx(expected, rel=1e-8)


class TestNoBoundaryCoefficient:
    def test_boundary_sequence_saturates(self):
        # half-space geometry halves the norms of the log family, so the
        # halved coefficient keeps the functional stable along the sweep
        from sil.extremals import gradient_norm_pth, moser_log_family
        vals = []
        for eps in (1e-2, 1e-3, 1e-4):
            fam = moser_log_family(2, 1.0, eps)
            # restrict to a half plane: radial integrals halve by symmetry
            grad_half = 0.5 * gradient_norm_pth(fam)
            plateau = math.log(1.0 / eps)
            u_norm_sq = plateau**2 / grad_half  # |u(0)|^2 / ||grad u||^2
            # the sharp coefficient without boundary conditions is
            # 2^{-1/(n-1)} times Moser's n omega_{n-1}^{1/(n-1)} = 4 pi
            vals.append(0.5 * 2.0 * sphere_area(2) * u_norm_sq
                        - 2.0 * math.log(1.0 / eps))
        # exponent balance: coefficient * |u|^2 - n log(1/eps) stays bounded
        assert max(vals) - min(vals) <= 2.0
