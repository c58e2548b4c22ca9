import math

import numpy as np
import pytest

from sil.constants import sphere_area
from sil.errors import DomainError
from sil.extremals import (adams_family, attach_potential, coupling_eps,
                           dilated_family,
                           gradient_norm_pth, hyperbolic_log_family,
                           log_plateau_profile, moser_log_family,
                           normalize_ruf)
from sil.kernels import gradient_kernel, riesz_kernel
from sil.norms import lp_norm, pair_q_norm
from sil.params import Params

P2 = Params(2, 1.0)
K2 = riesz_kernel(P2)
N_A_G = 2 * math.pi  # n * A_g for the unit kernel in the plane


def _ball_projection(field, eps, degree, rho):
    """The L^2(B_1) projection of field(r, theta), which vanishes for
    r < eps, onto every 2-D monomial x^i y^j with i + j <= degree.

    Least squares on a polar rule: Gauss-Legendre in r on [0, eps] and
    [eps, 1], so the jump at eps is a node boundary, and the trapezoid rule
    in theta.  For a truncated power r^{-1} times cos(theta)^o the rule is
    exact.  Returns the projection on the points (rho, 0).
    """
    x, w = np.polynomial.legendre.leggauss(24)
    pieces = ((0.0, eps), (eps, 1.0))
    r = np.concatenate([lo + (hi - lo) * (x + 1.0) / 2.0 for lo, hi in pieces])
    wr = np.concatenate([(hi - lo) / 2.0 * w for lo, hi in pieces]) * r
    m_theta = 64
    theta = np.arange(m_theta) * (2.0 * math.pi / m_theta)
    rr, tt = np.meshgrid(r, theta, indexing="ij")
    root = np.sqrt(np.outer(wr, np.full(m_theta, 2.0 * math.pi / m_theta))).ravel()
    px, py = (rr * np.cos(tt)).ravel(), (rr * np.sin(tt)).ravel()
    exps = [(i, j) for i in range(degree + 1) for j in range(degree + 1 - i)]
    design = np.stack([px**i * py**j for i, j in exps], axis=1)
    coeffs = np.linalg.lstsq(design * root[:, None], field(rr, tt).ravel() * root,
                             rcond=None)[0]
    return sum(c * rho**i for c, (i, j) in zip(coeffs, exps) if j == 0)


def _plateau_norm(fam):
    """||v||_{n/a} of a log family against its measure."""
    return lp_norm(fam.profile, fam.params.p_crit, fam.measure)


class TestAdamsFamily:
    def test_uncorrected_norm(self):
        eps = math.exp(-5)
        fam = adams_family(K2, eps, corrected=False)
        # squared critical norm is n A_g log(1/eps) exactly
        val = lp_norm(fam.profile, 2.0) ** 2
        assert val == pytest.approx(N_A_G * 5.0, rel=5e-3)

    def test_support(self):
        fam = adams_family(K2, 1e-2, corrected=False)
        mag = fam.profile.magnitude()
        g = fam.profile.grid
        assert np.all(mag[(g < fam.eps * 0.99) | (g > 1.01)] == 0.0)

    def test_corrected_moments_vanish(self):
        for eps in (1e-1, 1e-3):
            fam = adams_family(K2, eps)
            moments = fam.even_moments(P2.n)
            assert np.max(np.abs(moments)) <= 1e-10

    def test_corrected_zero_mean_on_ball(self):
        fam = adams_family(K2, 1e-2)
        # orthogonality to constants: the radial 0th moment vanishes
        assert abs(fam.even_moments(0)[0]) <= 1e-12

    def test_projection_bounded_by_l1(self):
        sups, l1s = [], []
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            fam = adams_family(K2, eps)
            # sup over B_1 of the subtracted even polynomial sum c_k rho^{2k}
            rho = np.linspace(0.0, 1.0, 2001)
            poly = np.polynomial.polynomial.polyval(rho**2, fam.proj_coeffs)
            sups.append(float(np.max(np.abs(poly))))
            l1s.append(lp_norm(adams_family(K2, eps, corrected=False).profile,
                               1.0))
        ratio = [s / l for s, l in zip(sups, l1s)]
        # sup |P phi| <= C ||phi||_1 with a single bounded constant; the
        # ratio settles near 0.95 as the family parameter shrinks
        assert max(ratio) <= 1.0
        assert abs(ratio[-1] - ratio[-2]) <= 0.01

    def test_norm_excess_bounded(self):
        # ||phi_tilde||^2 - n A_g log(1/eps) stays bounded along the sweep
        excess = []
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            fam = adams_family(K2, eps)
            val = lp_norm(fam.profile, 2.0) ** 2
            excess.append(val - N_A_G * math.log(1.0 / fam.eps))
        assert np.max(np.abs(excess)) <= 25.0
        # and the drift settles: the last two differ by well under 1
        assert abs(excess[-1] - excess[-2]) <= 1.0

    def test_norm_slope_converges_to_n_a_g(self):
        # local slope of ||phi_tilde||^2 versus log(1/eps) at the small end
        vals = {}
        for eps in (1e-3, 1e-4):
            fam = adams_family(K2, eps)
            vals[eps] = (math.log(1.0 / fam.eps),
                         lp_norm(fam.profile, 2.0) ** 2)
        (l1, v1), (l2, v2) = vals[1e-3], vals[1e-4]
        slope = (v2 - v1) / (l2 - l1)
        assert slope == pytest.approx(N_A_G, rel=1e-2)

    def test_vector_family_moments(self):
        k = gradient_kernel(2, 1)
        fam = adams_family(k, 1e-2)
        moments = fam.even_moments(P2.n - 1)
        assert np.max(np.abs(moments)) <= 1e-12

    def test_radial_moment_system_matches_full_projection(self):
        # the projection onto all 2-D monomials of degree <= 2n, computed
        # here by least squares, is the library's radial polynomial:
        # sum c_k rho^{2k} for scalar data, (y/|y|) sum c_k rho^{2k+1} for
        # the radial-vector data of the gradient kernel (its x component
        # on the x axis)
        rho = np.linspace(0.05, 0.95, 25)
        for kernel, o in ((K2, 0), (gradient_kernel(2, 1), 1)):
            fam = adams_family(kernel, 1e-2)

            def field(r, theta):
                body = fam.c_phi * r ** (-P2.alpha) * np.cos(theta) ** o
                return np.where(r >= fam.eps, body, 0.0)

            full = _ball_projection(field, fam.eps, 2 * P2.n, rho)
            radial = sum(c * rho ** (2 * k + o)
                         for k, c in enumerate(fam.proj_coeffs))
            assert np.max(np.abs(full - radial)) <= 1e-12 * np.max(np.abs(radial))


class TestNormalization:
    def test_potential_required(self):
        # every caller attaches the potential first; a family without one
        # is refused rather than convolved on the way
        fam = adams_family(K2, 1e-2)
        for call in (lambda: normalize_ruf(fam),
                     lambda: dilated_family(fam, 2.0, 0.7)):
            with pytest.raises(DomainError, match="attach the potential"):
                call()

    def test_ruf_norm_one(self):
        for eps in (1e-1, 1e-3):
            psi = normalize_ruf(attach_potential(adams_family(K2, eps)))
            ruf = (psi.norm_pth_power + psi.potential_norm_pth) ** 0.5
            assert ruf == pytest.approx(1.0, abs=1e-6)

    def test_center_lower_bound(self):
        # |T psi|^2 near the origin >= n A_g L - C (n A_g L)^{1/2} with a
        # stable fitted C along the sweep
        cs = []
        for eps in (1e-2, 1e-3, 1e-4):
            psi = normalize_ruf(attach_potential(adams_family(K2, eps)))
            ell = math.log(1.0 / psi.eps)
            j = int(np.argmin(np.abs(psi.potential.grid - psi.eps / 3)))
            center = psi.potential.values[j] ** 2
            cs.append((N_A_G * ell - center) / math.sqrt(N_A_G * ell))
        assert all(0 <= c <= 6.0 for c in cs)

    def test_potential_far_decay_recorded(self):
        psi = normalize_ruf(attach_potential(adams_family(K2, 1e-3)))
        r = np.array([3.0, 10.0, 30.0])
        vals = np.abs(psi.far_field(r))
        # far field bounded by C |x|^{a - 2n - 1} (amply: true decay is faster)
        assert np.all(vals * r ** (2 * P2.n + 1 - P2.alpha) <= 1.0)

    def test_far_tail_lp_mass_uniform(self):
        masses = []
        for eps in (1e-1, 1e-3):
            fam = attach_potential(adams_family(K2, eps))
            tf = fam.potential
            mask = tf.grid >= 3.0
            cut = tf.with_values(np.where(mask, tf.values, 0.0))
            masses.append(lp_norm(cut, 2.0) ** 2)
        assert max(masses) <= 10.0 * max(min(masses), 1e-12) + 1e-9


class TestFarField:
    def test_uniform_in_eps(self):
        r = np.exp(np.linspace(math.log(3.0), math.log(30.0), 40))
        sups = []
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            fam = normalize_ruf(attach_potential(adams_family(K2, eps)))
            vals = np.abs(fam.far_field(r)) * r ** (2 * P2.n + 1 - P2.alpha)
            sups.append(float(np.max(vals)))
        assert max(sups) <= 3.0 * min(sups)


class TestDilatedFamily:
    def test_scaling_laws(self):
        base = attach_potential(adams_family(K2, 1e-2))
        fam = dilated_family(base, 2.0, 0.7)
        r = fam.r_dilation
        pc = P2.p_crit
        # profile norm preserved, potential norm scaled by r^alpha, both
        # then divided by the common q-normalizer
        d = fam.normalization
        assert lp_norm(fam.profile, pc) == pytest.approx(
            lp_norm(base.profile, pc) / d, rel=1e-6)
        assert fam.potential_norm_pth ** (1 / pc) * d == pytest.approx(
            r ** P2.alpha * base.potential_norm_pth ** (1 / pc), rel=1e-9)

    def test_q_norm_is_one(self):
        base = attach_potential(adams_family(K2, 1e-2))
        for q, theta in [(2.0, 0.6), (math.inf, 0.8)]:
            fam = dilated_family(base, q, theta)
            qn = pair_q_norm(fam.norm_pth_power ** (1 / P2.p_crit),
                             fam.potential_norm_pth ** (1 / P2.p_crit),
                             fam.params)
            assert qn == pytest.approx(1.0, abs=1e-9)

    def test_coupling(self):
        for q, theta in [(2.0, 0.9), (math.inf, 0.95)]:
            eps = coupling_eps(2, q, theta)
            qc = 1.0 if math.isinf(q) else q / (q - 1.0)
            r = (1.0 - theta) ** (-1.0 / (2 * qc))
            assert math.log(1.0 / eps**2) == pytest.approx(r ** (2 * qc),
                                                           rel=1e-12)

    def test_unit_dilation_regime(self):
        # at theta with lambda(theta) = 1 the dilation radius is moderate
        p = Params(2, 1.0, q=2.0)
        theta0 = 2.0 ** (-p.alpha / (p.q_conj * (p.n - p.alpha)))
        base = attach_potential(adams_family(K2, coupling_eps(2, 2.0, theta0)))
        fam = dilated_family(base, 2.0, theta0)
        assert fam.r_dilation == pytest.approx(
            (1.0 - theta0) ** (-1.0 / (2 * p.q_conj)), rel=1e-12)


class TestDeclaredFields:
    def test_undeclared_attribute_rejected(self):
        for fam in (adams_family(K2, 1e-2), moser_log_family(2, 1.0, 1e-2),
                    hyperbolic_log_family(2, 1.0, 1e-2)):
            with pytest.raises(AttributeError):
                fam.value_fn = None

    def test_hyperbolic_family_differs_only_in_measure(self):
        eu = moser_log_family(3, 1.0, 1e-2)
        hy = hyperbolic_log_family(3, 1.0, 1e-2)
        assert eu.measure.kind == "lebesgue" and hy.measure.kind == "hyperbolic"
        assert np.array_equal(eu.profile.values, hy.profile.values)
        assert np.array_equal(eu.gradient.values, hy.gradient.values)


class TestLogFamilies:
    def test_plateau_value(self):
        for eps in (1e-2, 1e-3):
            fam = moser_log_family(2, 1.0, eps)
            assert fam.profile.values[0] == pytest.approx(
                math.log(1.0 / eps), rel=1e-12)

    def test_profile_c1(self):
        value, deriv = log_plateau_profile(1e-2, 5e-3)
        r = np.linspace(1e-3, 0.9, 5000)
        v = value(r)
        fd = np.gradient(v, r)
        dv = deriv(r)
        # finite differences track the analytic derivative away from corners
        mask = (np.abs(dv) > 1e-9)
        assert np.median(np.abs(fd[mask] - dv[mask])
                         / np.maximum(np.abs(dv[mask]), 1e-9)) <= 1e-2

    def test_gradient_norm_growth(self):
        # first-order growth: omega_{n-1} log(1/eps) + O(1)
        for n in (2, 3):
            vals = {}
            for eps in (1e-2, 1e-3, 1e-4):
                fam = moser_log_family(n, 1.0, eps)
                vals[eps] = gradient_norm_pth(fam)
            omega = sphere_area(n)
            slope = (vals[1e-4] - vals[1e-3]) / math.log(10.0)
            assert slope == pytest.approx(omega, rel=0.02)
        # plane case: the corner excess keeps the value within 5% of the
        # leading term at eps = 1e-3 for a quarter-width smoothing
        val = gradient_norm_pth(moser_log_family(2, 1.0, 1e-3,
                                                 smoothing_width=2.5e-4))
        ratio = val / (2 * math.pi * math.log(1e3))
        assert 0.95 <= ratio <= 1.05
        # default-width excess stays at the convexity floor
        val_d = gradient_norm_pth(moser_log_family(2, 1.0, 1e-3))
        assert val_d / (2 * math.pi * math.log(1e3)) <= 1.06

    def test_plateau_norm_bounded(self):
        norms = [_plateau_norm(moser_log_family(2, 1.0, eps))
                 for eps in (1e-2, 1e-3, 1e-4)]
        assert max(norms) <= 1.2 * min(norms) + 0.5

    def test_hyperbolic_log_slope_matches_euclidean(self):
        for n in (2, 3):
            eu, hy = [], []
            for eps in (1e-2, 1e-3, 1e-4):
                eu.append(gradient_norm_pth(moser_log_family(n, 1.0, eps)))
                hy.append(gradient_norm_pth(hyperbolic_log_family(n, 1.0, eps)))
            se = (eu[2] - eu[1]) / math.log(10.0)
            sh = (hy[2] - hy[1]) / math.log(10.0)
            assert abs(sh - se) / se <= 0.02

    def test_hyperbolic_norm_and_plateau(self):
        fam = hyperbolic_log_family(3, 1.0, 1e-3)
        assert fam.profile.values[0] == pytest.approx(math.log(1e3), rel=1e-12)
        assert _plateau_norm(fam) <= 5.0
