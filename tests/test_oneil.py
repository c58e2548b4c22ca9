import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from sil.errors import (DomainError, JInfinite, MassNotCaptured,
                        TailNotConverged)
from sil.grids import RadialFunction, log_grid
from sil.kernels import (bessel_kernel_spec, constant_kernel, gradient_kernel,
                         hyperbolic_kernel_spec, riesz_kernel)
from sil.measures import hyperbolic_ball_masses, hyperbolic_volume
from sil.norms import lp_norm
from sil.oneil import (F_functional, GarsiaState, dual_path_values,
                       garsia_integral, garsia_samples, garsia_transform,
                       kernel_profile, level_set_measure, oneil_constant,
                       oneil_rhs, state_from_phi)
from sil.params import Params
from sil.potentials import radial_convolve
from sil.rearrange import RearrangedProfile, decreasing_rearrangement

P2 = Params(2, 1.0)
RIESZ_PROFILE = kernel_profile(riesz_kernel(P2), truncation_radius=1.0)
GRID = log_grid(1e-6, 1e3, 3000)


def random_source(rng, support=1.0):
    t = np.log(GRID)
    vals = np.zeros_like(GRID)
    for _ in range(rng.integers(2, 5)):
        c = rng.uniform(math.log(support * 1e-3), math.log(support))
        vals += rng.uniform(0.2, 2.0) * np.exp(
            -((t - c) / rng.uniform(0.2, 1.5)) ** 2)
    vals[GRID > support] = 0.0
    f = RadialFunction(GRID, vals, 2)
    return f.with_values(f.values / lp_norm(f, 2.0))


STEP = RearrangedProfile(t_grid=np.array([1.0]), fstar=np.array([1.0]),
                         fstarstar=np.array([1.0]))


class TestKernelProfile:
    def test_truncated_riesz(self):
        prof = RIESZ_PROFILE
        assert prof.A == pytest.approx(math.pi, rel=1e-12)
        assert prof.J == pytest.approx(math.log(math.pi), rel=1e-12)
        for t in (1e-3, 0.5, 3.0):
            assert prof.k1star(np.array([t]))[0] == pytest.approx(
                math.sqrt(math.pi / t), rel=1e-12)
        assert prof.k1star(np.array([4.0]))[0] == 0.0

    def test_vector_kernel_profiles_as_its_magnitude(self):
        # |g| of gradient_kernel(2, 1) is r^{-1}/(2 pi): the same truncated
        # profile as the scalar kernel of that constant, bit for bit
        vec = kernel_profile(gradient_kernel(2, 1), truncation_radius=1.0)
        scalar = kernel_profile(constant_kernel(P2, 1.0 / (2.0 * math.pi)),
                                truncation_radius=1.0)
        t = np.geomspace(1e-6, 10.0, 50)
        assert (vec.A, vec.J, vec.t_cut) == (scalar.A, scalar.J, scalar.t_cut)
        assert np.array_equal(vec.k1star(t), scalar.k1star(t))

    def test_untruncated_diverges(self):
        with pytest.raises(JInfinite):
            kernel_profile(riesz_kernel(P2))

    def test_bessel_profile(self):
        p3 = Params(3, 1.0)
        prof = kernel_profile(bessel_kernel_spec(p3))
        assert np.isfinite(prof.J) and prof.J > 0
        # local agreement with the homogeneous power profile
        t = np.array([1e-4, 1e-3, 1e-2])
        power = prof.A ** (1 / prof.beta) * t ** (-1 / prof.beta)
        numeric = np.asarray(prof.k1star(t))
        assert np.max(np.abs(numeric - power) / power) <= 0.03

    def test_hyperbolic_profile(self):
        prof = kernel_profile(hyperbolic_kernel_spec(Params(3, 2.0)))
        assert np.isfinite(prof.J)
        assert prof.beta == pytest.approx(3.0, rel=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_hyperbolic_ball_masses_match_scalar(self, n):
        # the profile's ball masses come from one array pass; numpy's sinh,
        # cosh and tanh round apart from math's in the last bit, which the
        # powers and the reduction scale up: the largest gap measured for
        # n <= 8 is 11 ulps, 10 at n = 4 just above the switch at r = 1
        vol = hyperbolic_volume(n)
        tol = 16 * np.finfo(float).eps
        r = np.linspace(0.9, 1.1, 2001)
        scalar = np.array([vol.ball_mass_origin(float(x)) for x in r])
        assert np.max(np.abs(hyperbolic_ball_masses(n, r) / scalar - 1)) <= tol
        prof = kernel_profile(hyperbolic_kernel_spec(Params(n, 2.0)))
        r = log_grid(1e-5, 40.0, 4096)
        assert prof.t_nodes.size == r.size
        scalar = np.array([vol.ball_mass_origin(float(x)) for x in r])
        assert np.max(np.abs(prof.t_nodes / scalar - 1)) <= tol

    def test_sampled_antiderivative(self):
        # the Green kernel of H^3 is (coth r - 1) / (4 pi) and the geodesic
        # ball of radius R has volume 4 pi (sinh(2R)/4 - R/2), so int_0^u k1*
        # is R/2 + expm1(-2R)/4 at that u; the largest measured gap is 1.2e-6
        prof = kernel_profile(hyperbolic_kernel_spec(Params(3, 2.0)))
        big_r = np.geomspace(1e-4, 30.0, 41)
        u = 4.0 * math.pi * (np.sinh(2.0 * big_r) / 4.0 - big_r / 2.0)
        exact = big_r / 2.0 + np.expm1(-2.0 * big_r) / 4.0
        np.testing.assert_allclose(prof.k1_antideriv(u), exact, rtol=5e-6)
        # f* = chi_[0,1): C0 t^{-1/3} t + int_t^1 k1*
        c0 = oneil_constant(prof)
        for t in (0.04, 0.25, 0.64):
            tail = prof.k1_antideriv(1.0) - prof.k1_antideriv(t)
            assert oneil_rhs(STEP, prof, t) == pytest.approx(
                c0 * t ** (2.0 / 3.0) + tail, rel=1e-12)

    def test_bessel_antiderivative_closed_form(self):
        # G_2 in R^3 is e^{-r} / (4 pi r), so int_0^u k1* is the mass of the
        # ball of volume u: 1 - (1 + R) e^{-R}, R = (3u / (4 pi))^{1/3}; the
        # largest measured gap is 1.7e-6, from the power-law head below the
        # first node up to the mass of the last one
        prof = kernel_profile(bessel_kernel_spec(Params(3, 2.0)))
        u = np.geomspace(1e-12, 100.0, 29)
        r = (3.0 * u / (4.0 * math.pi)) ** (1.0 / 3.0)
        exact = -np.expm1(-r) - r * np.exp(-r)
        np.testing.assert_allclose(prof.k1_antideriv(u), exact, rtol=5e-6)

    def test_hyperbolic_plane_has_no_power_profile(self):
        with pytest.raises(DomainError):
            kernel_profile(hyperbolic_kernel_spec(Params(2, 1.0)))

    @pytest.mark.parametrize("make", [
        lambda: RIESZ_PROFILE,
        lambda: kernel_profile(bessel_kernel_spec(Params(3, 1.0))),
        lambda: kernel_profile(hyperbolic_kernel_spec(Params(3, 2.0))),
    ])
    def test_hypothesis_inheritance_sampled(self, make):
        # the power bound A^{1/beta} t^{-1/beta} holds on (0, inf), with no
        # log correction, and J is finite
        prof = make()
        t = np.exp(np.linspace(math.log(1e-6), math.log(1e3), 80))
        bound = prof.A ** (1 / prof.beta) * t ** (-1 / prof.beta)
        assert np.all(prof.k1star(t) <= bound * (1 + 1e-6))
        assert np.isfinite(prof.J) and prof.J >= 0.0

    @pytest.mark.parametrize("kernel,n,alpha", [
        ("bessel", 2, 1.0), ("bessel", 3, 1.0), ("bessel", 3, 2.0),
        ("bessel", 4, 1.0), ("hyperbolic", 3, 2.0)])
    def test_sampled_profile_under_power_bound(self, kernel, n, alpha):
        # G_alpha <= I_alpha pointwise (subordination), so k1* of the exact
        # profile stays under A^{1/beta} t^{-1/beta} from below the first
        # node (mass 5e-20 at n = 4) to past the last (about 1e35 in H^3)
        spec = {"bessel": bessel_kernel_spec,
                "hyperbolic": hyperbolic_kernel_spec}[kernel]
        prof = kernel_profile(spec(Params(n, alpha)))
        t = np.geomspace(1e-25, 1e40, 200_001)
        bound = prof.A ** (1 / prof.beta) * t ** (-1 / prof.beta)
        assert np.all(prof.k1star(t) <= bound * (1 + 1e-12))

    @pytest.mark.parametrize("n,alpha,j", [
        (2, 1.0, 0.355262), (3, 1.0, 1.583674), (3, 2.0, 0.178083),
        (4, 1.0, 2.983942)])
    def test_bessel_j_matches_sorted_samples(self, n, alpha, j):
        # J of the exact profile against the values the sorted step function
        # gave on the same grid, which carried a resolution artefact
        prof = kernel_profile(bessel_kernel_spec(Params(n, alpha)))
        assert prof.J == pytest.approx(j, rel=1e-4)


class TestOneilMajorant:
    def test_zero_source(self):
        zero = RearrangedProfile(np.array([1.0]), np.array([0.0]),
                                 np.array([0.0]))
        assert oneil_rhs(zero, RIESZ_PROFILE, 0.5) == 0.0

    def test_step_closed_form(self):
        # f* = chi_[0,1): first term c0 t^{-1/2} * t for t < 1; second term
        # int_t^1 sqrt(pi/u) du = 2 sqrt(pi) (1 - sqrt(t))
        c0 = oneil_constant(RIESZ_PROFILE)
        for t in (0.04, 0.25, 0.64):
            expected = c0 * math.sqrt(t) \
                + 2.0 * math.sqrt(math.pi) * (1.0 - math.sqrt(t))
            assert oneil_rhs(STEP, RIESZ_PROFILE, t) == pytest.approx(
                expected, rel=1e-9)

    def test_classical_constant(self):
        # beta' A^{1/beta} at beta = 2, A = pi
        assert oneil_constant(RIESZ_PROFILE) == pytest.approx(
            2.0 * math.sqrt(math.pi), rel=1e-12)

    def test_domination_pipeline(self):
        rng = np.random.default_rng(42)
        kernel = riesz_kernel(P2)
        worst = math.inf
        for _ in range(12):
            f = random_source(rng)
            tf = radial_convolve(f, kernel)
            fs = decreasing_rearrangement(f)
            tfs = decreasing_rearrangement(tf)
            for t in np.exp(rng.uniform(math.log(1e-3), math.log(10.0), 10)):
                rhs = oneil_rhs(fs, RIESZ_PROFILE, float(t))
                slack = (rhs - tfs.fstarstar_at(float(t))) / rhs
                worst = min(worst, slack)
        assert worst >= -1e-3


class TestGarsiaTransform:
    def test_step_profile_formula(self):
        state = garsia_transform(STEP, RIESZ_PROFILE, P2)
        xs = np.array([0.5, 1.0, 2.0, 5.0])
        idx = np.searchsorted(state.x_grid, xs)
        expected = np.exp(-xs / 2.0)
        assert np.allclose(state.phi[idx], expected, rtol=1e-2)
        assert np.all(state.phi[state.x_grid < -1e-6] == 0.0)

    def test_isometry(self):
        rng = np.random.default_rng(3)
        f = random_source(rng)
        fs = decreasing_rearrangement(f)
        state = garsia_transform(fs, RIESZ_PROFILE, P2)
        assert state.phi_norm_bc() ** 2 == pytest.approx(
            fs.p_norm_pth_power(2.0), rel=1e-3)

    def test_chain_needs_sigma_one(self):
        # O'Neil's C0 is known for sigma = 1 only: no call may pair it with
        # another sigma
        p = Params(2, 1.0, sigma=0.5)
        x = np.linspace(-5.0, 5.0, 101)
        calls = [lambda: state_from_phi(np.zeros_like(x), x, RIESZ_PROFILE, p),
                 lambda: garsia_transform(STEP, RIESZ_PROFILE, p),
                 lambda: dual_path_values(STEP, RIESZ_PROFILE, p)]
        for call in calls:
            with pytest.raises(DomainError, match="sigma = 1"):
                call()

    def test_window_capture_guard(self):
        with pytest.raises(MassNotCaptured):
            garsia_transform(STEP, RIESZ_PROFILE, P2, x_max=0.5)

    def test_constants(self):
        state = garsia_transform(STEP, RIESZ_PROFILE, P2)
        assert state.c2 == pytest.approx(4.0, rel=1e-12)  # (2 sqrt(pi))^2/pi
        assert state.d_star == pytest.approx(4.0 + math.log(math.pi), rel=1e-12)

    def test_grid_without_positive_half(self):
        # no node at x >= 0: the mid and tail prefixes are zero, so
        # F(y) = y - left^beta and int_0^inf e^{-F} = e^{left^beta}
        x = np.linspace(-5.0, -1.0, 41)
        state = state_from_phi(0.1 * np.ones(41), x, RIESZ_PROFILE, P2)
        left = state._prefix[0]
        assert left > 0.0
        assert F_functional(2.0, state) == pytest.approx(2.0 - left**2,
                                                         rel=1e-12)
        res = garsia_integral(state)
        assert res["integral"] == pytest.approx(math.exp(left**2), rel=1e-4)
        assert res["layer_cake"] == pytest.approx(math.exp(left**2), rel=1e-2)

    def test_state_holds_only_declared_fields(self):
        # the y-free prefixes are a declared field set at construction, so
        # garsia_integral adds no attribute to the state
        state = garsia_transform(STEP, RIESZ_PROFILE, P2)
        garsia_integral(state)
        assert set(vars(state)) == {f.name for f in dataclasses.fields(state)}


class TestLevelSetMachinery:
    def test_zero_profile(self):
        zero = RearrangedProfile(np.array([1e-12]), np.array([0.0]),
                                 np.array([0.0]))
        state = garsia_transform(zero, RIESZ_PROFILE, P2)
        assert F_functional(3.0, state) == pytest.approx(3.0, abs=1e-12)
        res = garsia_integral(state)
        assert res["integral"] == pytest.approx(1.0, rel=1e-4)
        ys, fs = res["y_grid"], res["f_values"]
        assert level_set_measure(3.0, ys, fs) == pytest.approx(3.0, abs=1e-6)
        assert level_set_measure(-0.5, ys, fs) == 0.0

    def test_level_sets_nested(self):
        state = garsia_transform(STEP, RIESZ_PROFILE, P2)
        res = garsia_integral(state)
        ys, fs = res["y_grid"], res["f_values"]
        m1 = level_set_measure(0.5, ys, fs)
        m2 = level_set_measure(2.0, ys, fs)
        assert m1 <= m2 + 1e-12

    def test_lower_bound_random_ensemble(self):
        rng = np.random.default_rng(9)
        x = np.linspace(-40.0, 40.0, 2001)
        for _ in range(30):
            raw = np.abs(rng.normal(size=x.size))
            raw[np.abs(x) > rng.uniform(5.0, 30.0)] = 0.0
            nrm = float(np.trapezoid(raw**2, x)) ** 0.5
            phi = raw / nrm * rng.uniform(0.3, 1.0)
            state = state_from_phi(phi, x, RIESZ_PROFILE, P2)
            res = garsia_integral(state)
            assert res["f_min"] >= -state.d_star - 1e-9

    def test_layer_cake_identity(self):
        rng = np.random.default_rng(13)
        x = np.linspace(-40.0, 40.0, 2001)
        for _ in range(10):
            raw = np.abs(rng.normal(size=x.size))
            raw[np.abs(x) > 20.0] = 0.0
            phi = raw / float(np.trapezoid(raw**2, x)) ** 0.5
            state = state_from_phi(phi, x, RIESZ_PROFILE, P2)
            res = garsia_integral(state)
            assert res["layer_cake"] == pytest.approx(res["integral"], rel=0.01)

    def test_concentrated_step_minimum(self):
        # phi = chi_[0,Y] Y^{-1/2}: closed-form inner integral gives
        # F(Y) = 0 exactly for the pure power profile; the minimum sits
        # just left of Y and stays within the shifted-constant floor
        for Y in (5.0, 10.0, 20.0):
            x = np.linspace(-5.0, Y + 25.0, 4001)
            phi = np.where((x >= 0) & (x <= Y), Y ** (-0.5), 0.0)
            phi /= max(float(np.trapezoid(phi**2, x)) ** 0.5, 1.0)
            state = state_from_phi(phi, x, RIESZ_PROFILE, P2)
            f_at_y = F_functional(Y, state)
            assert abs(f_at_y) <= 0.05
            res = garsia_integral(state)
            assert -state.d_star - 1e-9 <= res["f_min"] <= 0.0

    def test_fitted_c5_stable(self):
        state = garsia_transform(STEP, RIESZ_PROFILE, P2)
        res = garsia_integral(state)
        lams = np.linspace(-state.d_star + 0.5, 20.0, 30)
        cs = level_set_measure(lams, res["y_grid"], res["f_values"]) \
            / (np.abs(lams) + state.d_star)
        assert max(cs) <= 10.0


def full_window_samples(state):
    """F on all 20,001 points of [0, 200], cut once F > 40 past its last
    dip below: the reference garsia_samples must match bit for bit."""
    ys = np.arange(0.0, 200.0 + 0.01, 0.01)
    fs = np.atleast_1d(F_functional(ys, state))
    if not np.any(fs > 40.0):
        raise TailNotConverged("F never exceeded the tail threshold")
    last_low = np.nonzero(fs <= 40.0)[0][-1]
    cut = min(last_low + 2, len(ys) - 1)
    if fs[cut] <= 40.0:
        raise TailNotConverged("F did not stay above the tail threshold")
    return ys[: cut + 1], fs[: cut + 1]


def block_state(x_max, lo, hi, height, step=0.01):
    """GarsiaState of phi = height on [lo, hi], on an x grid of the given
    step over [-5, x_max]; phi need not be admissible."""
    x = np.linspace(-5.0, x_max, int(round((x_max + 5.0) / step)) + 1)
    phi = np.where((x >= lo) & (x <= hi), height, 0.0)
    return GarsiaState(x_grid=x, phi=phi, profile=RIESZ_PROFILE)


class TestGarsiaSamples:
    def check(self, state):
        ref_ys, ref_fs = full_window_samples(state)
        ys, fs = garsia_samples(state)
        assert np.array_equal(ys, ref_ys) and np.array_equal(fs, ref_fs)
        res = garsia_integral(state)
        assert np.array_equal(res["y_grid"], ref_ys)
        assert np.array_equal(res["f_values"], ref_fs)
        assert res["integral"] == float(np.trapezoid(np.exp(-ref_fs), ref_ys))
        assert res["f_min"] == float(np.min(ref_fs))
        lams = np.linspace(-state.d_star, 40.0, 4000)
        layer = np.trapezoid(level_set_measure(lams, ref_ys, ref_fs)
                             * np.exp(-lams), lams)
        assert res["layer_cake"] == float(layer)
        return ys

    def test_seeded_phi_states(self):
        # x to 40: every window runs on into the linear tail past the grid
        rng = np.random.default_rng(23)
        x = np.linspace(-40.0, 40.0, 2001)
        for _ in range(10):
            raw = np.abs(rng.normal(size=x.size))
            raw[np.abs(x) > rng.uniform(5.0, 30.0)] = 0.0
            nrm = float(np.trapezoid(raw**2, x)) ** 0.5
            phi = raw / nrm * rng.uniform(0.3, 1.0)
            ys = self.check(state_from_phi(phi, x, RIESZ_PROFILE, P2))
            assert ys[-1] > x[-1]

    def test_seeded_source_states(self):
        # x to 80, with the steps of f* as double nodes
        rng = np.random.default_rng(24)
        for _ in range(4):
            fs = decreasing_rearrangement(random_source(rng))
            self.check(garsia_transform(fs, RIESZ_PROFILE, P2))

    def test_grid_past_the_window(self):
        # the x grid ends at 250 > 200: F is evaluated on the whole window
        self.check(block_state(250.0, 0.0, 30.0, 30.0 ** -0.5))

    def test_last_dip_just_before_the_last_node(self):
        # a spike of mass 3 at x = 59.9 pulls F below 40 at y = 59.9, just
        # before the last node at 60; past the spike F rises above 40
        state = block_state(60.0, 59.875, 59.925, 3.0 / 0.05)
        ys, fs = full_window_samples(state)
        last_low = np.nonzero(fs <= 40.0)[0][-1]
        assert 59.8 < ys[last_low] < 60.0
        self.check(state)

    @pytest.mark.parametrize("state, message", [
        # F = y - (inner)^2 stays far below 40, inside and past the grid
        (block_state(60.0, 0.0, 60.0, 1.0, step=0.1), "never exceeded"),
        (block_state(250.0, 0.0, 250.0, 1.0, step=0.1), "never exceeded"),
        # F exceeds 40 near y = 45, then a block of mass 13 on [50, 55]
        # holds it at y - 169 in the linear tail, below 40 up to 200
        (block_state(55.0, 50.0, 55.0, 13.0 / 5.0), "did not stay above"),
        # the grid runs past 200 and a block on [200, 205] pulls F(200)
        # below 40
        (block_state(210.0, 200.0, 205.0, 4.0), "did not stay above"),
    ])
    def test_tail_not_converged(self, state, message):
        with pytest.raises(TailNotConverged, match=message):
            full_window_samples(state)
        with pytest.raises(TailNotConverged, match=message):
            garsia_samples(state)
        with pytest.raises(TailNotConverged, match=message):
            garsia_integral(state)


class TestGarsiaSamplesMemory:
    def test_peak_follows_the_evaluated_prefix(self):
        # F is evaluated on about 4,300 samples of these states; the whole
        # 20,001-sample window alone was 160 KB, about 4.7 such arrays, and
        # with it the peak read 9.5 to 10 arrays, against 6 for the prefix
        rng = np.random.default_rng(23)
        x = np.linspace(-40.0, 40.0, 2001)
        for _ in range(6):
            raw = np.abs(rng.normal(size=x.size))
            raw[np.abs(x) > rng.uniform(5.0, 30.0)] = 0.0
            nrm = float(np.trapezoid(raw**2, x)) ** 0.5
            phi = raw / nrm * rng.uniform(0.3, 1.0)
            state = state_from_phi(phi, x, RIESZ_PROFILE, P2)
            garsia_samples(state)  # warm-up: first-call allocations
            tracemalloc.start()
            try:
                ys, _ = garsia_samples(state)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert 3000 < ys.size < 6000
            assert peak <= 8 * (ys.size + 3) * 8


def reference_measure(ys, fs, lam):
    """|{F <= lam}| by a plain loop over the segments of (ys, fs)."""
    below = fs <= lam
    if not np.any(below):
        return 0.0
    total = 0.0
    for k in range(len(ys) - 1):
        a, b = below[k], below[k + 1]
        if a and b:
            total += ys[k + 1] - ys[k]
        elif a != b:
            frac = (lam - fs[k]) / (fs[k + 1] - fs[k])
            frac = min(max(frac, 0.0), 1.0)
            total += (ys[k + 1] - ys[k]) * (frac if a else 1.0 - frac)
    return total


class TestLevelSetMeasure:
    def check(self, lams, ys, fs):
        ys, fs = np.asarray(ys, dtype=float), np.asarray(fs, dtype=float)
        got = level_set_measure(lams, ys, fs)
        ref = np.array([reference_measure(ys, fs, lam) for lam in lams])
        assert got.shape == ref.shape
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)
        return got

    def test_matches_loop_on_random_states(self):
        rng = np.random.default_rng(21)
        x = np.linspace(-40.0, 40.0, 2001)
        for _ in range(4):
            raw = np.abs(rng.normal(size=x.size))
            raw[np.abs(x) > rng.uniform(5.0, 30.0)] = 0.0
            nrm = float(np.trapezoid(raw**2, x)) ** 0.5
            phi = raw / nrm * rng.uniform(0.3, 1.0)
            state = state_from_phi(phi, x, RIESZ_PROFILE, P2)
            ys, fs = garsia_samples(state)
            lams = np.linspace(-state.d_star, 40.0, 80)
            # the whole segments sum in upper-end order and each crossing
            # adds once per level, which on these samples rounds exactly as
            # the loop does
            ref = np.array([reference_measure(ys, fs, lam) for lam in lams])
            np.testing.assert_array_equal(level_set_measure(lams, ys, fs), ref)

    @pytest.mark.parametrize("lams, ys, fs, expected", [
        # every level below min F
        ([-5.0, 0.5, 0.999], [0.0, 1.0, 2.0], [1.0, 3.0, 2.0], [0.0] * 3),
        # a flat segment f_k = f_{k+1} = lam counts whole
        ([1.0], [0.0, 1.0, 2.0, 3.0], [2.0, 1.0, 1.0, 2.0], [1.0]),
        # lam equal to a sample value
        ([1.0], [0.0, 1.0, 2.0], [0.0, 1.0, 2.0], [1.0]),
        # non-monotone F: a quarter of each unit zig-zag segment, rising
        # or falling, and a sixth of the last half-unit one
        ([0.5], [0.0, 1.0, 2.0, 3.0, 4.0, 4.5],
         [0.0, 2.0, 0.0, 2.0, 0.0, 3.0], [1.0 + 0.5 / 6.0]),
    ])
    def test_edge_cases(self, lams, ys, fs, expected):
        np.testing.assert_allclose(self.check(lams, ys, fs), expected,
                                   rtol=1e-14, atol=0.0)

    def test_unsorted_and_repeated_levels(self):
        rng = np.random.default_rng(31)
        ys = np.sort(rng.uniform(0.0, 10.0, 300))
        fs = np.cumsum(rng.normal(size=ys.size))
        lams = rng.uniform(fs.min() - 1.0, fs.max() + 1.0, 60)
        lams = rng.permutation(np.concatenate([lams, lams[:20], lams[:5]]))
        got = self.check(lams, ys, fs)
        for lam in np.unique(lams):
            assert np.ptp(got[lams == lam]) == 0.0

    def test_levels_at_sample_values(self):
        rng = np.random.default_rng(32)
        ys = np.cumsum(rng.uniform(0.01, 0.1, 400))
        fs = rng.normal(size=ys.size)
        lams = rng.choice(fs, 50, replace=False)
        self.check(lams, ys, fs)

    def test_flat_runs_at_levels(self):
        rng = np.random.default_rng(33)
        levels = rng.integers(-4, 5, 80).astype(float)
        fs = np.repeat(levels, rng.integers(1, 6, levels.size))
        ys = np.linspace(0.0, 20.0, fs.size)
        self.check(np.arange(-5.0, 6.0), ys, fs)
        self.check(np.arange(-5.0, 6.0) + 0.5, ys, fs)

    def test_zigzag_crosses_many_levels(self):
        # every segment spans most of [-10, 10], so each crosses hundreds of
        # the 500 levels
        rng = np.random.default_rng(34)
        ys = np.linspace(0.0, 50.0, 201)
        fs = np.where(np.arange(ys.size) % 2 == 0, -10.0, 10.0) \
            + rng.uniform(-1.0, 1.0, ys.size)
        self.check(np.linspace(-9.5, 9.5, 500), ys, fs)

    def test_no_crossing_segment(self):
        # levels outside the range of F, and at the value of a flat F
        rng = np.random.default_rng(35)
        ys = np.cumsum(rng.uniform(0.1, 1.0, 50))
        fs = rng.uniform(1.0, 2.0, ys.size)
        got = self.check([3.0, 0.5, 2.0, -1.0], ys, fs)
        length = ys[-1] - ys[0]
        np.testing.assert_allclose(got, [length, 0.0, length, 0.0],
                                   rtol=1e-14, atol=0.0)
        flat = self.check([1.5, 1.5], ys, np.full(ys.size, 1.5))
        np.testing.assert_allclose(flat, [length, length], rtol=1e-14, atol=0.0)

    def test_nan_sample_spreads_like_the_loop(self):
        rng = np.random.default_rng(36)
        ys = np.linspace(0.0, 5.0, 60)
        fs = rng.uniform(0.0, 1.0, ys.size)
        fs[[10, 30, 31]] = np.nan
        got = self.check(np.linspace(-0.5, 1.5, 41), ys, fs)
        assert np.isnan(got).any() and not np.isnan(got).all()

    def test_nan_level_gives_nan(self):
        got = level_set_measure([np.nan, 0.5], [0.0, 1.0, 2.0, 3.0],
                                [0.0, 2.0, 1.0, 0.0])
        assert np.isnan(got[0]) and got[1] == 0.75
        assert np.isnan(level_set_measure(np.nan, [0.0, 1.0], [0.0, 1.0]))
        # finite levels keep their bits when NaN levels ride along
        rng = np.random.default_rng(37)
        ys = np.sort(rng.uniform(0.0, 10.0, 300))
        fs = np.cumsum(rng.normal(size=ys.size))
        lams = rng.uniform(fs.min() - 1.0, fs.max() + 1.0, 60)
        mixed = rng.permutation(np.concatenate([lams, np.full(7, np.nan)]))
        got = level_set_measure(mixed, ys, fs)
        finite = ~np.isnan(mixed)
        assert np.isnan(got[~finite]).all()
        np.testing.assert_array_equal(
            got[finite], level_set_measure(mixed[finite], ys, fs))

    def test_scalar_level(self):
        ys, fs = [0.0, 1.0, 2.0], [0.0, 2.0, 0.0]
        assert isinstance(level_set_measure(1.0, ys, fs), float)
        assert level_set_measure(1.0, ys, fs) == pytest.approx(1.0)


class TestDualPath:
    def test_agreement(self):
        rng = np.random.default_rng(7)
        for _ in range(3):
            f = random_source(rng)
            fs = decreasing_rearrangement(f)
            res = dual_path_values(fs, RIESZ_PROFILE, P2)
            assert res["path_a"] == pytest.approx(res["path_b"], rel=0.02)
