import math

import numpy as np
import pytest

import sil.rearrange
from sil.errors import SilError, UnboundedDistribution
from sil.functionals import Domain, FunctionalSpec, mt_functional
from sil.grids import RadialFunction, indicator_values, log_grid
from sil.measures import hyperbolic_volume, lebesgue, singular_measure
from sil.norms import head_mass, lp_norm
from sil.rearrange import (decreasing_rearrangement, distribution_function,
                           exp_regularized, rearrangement_value,
                           regularization_sandwich)

GRID = log_grid(1e-6, 1e3, 4096)


def random_step_profile(rng, n=2):
    vals = np.zeros_like(GRID)
    t = np.log(GRID)
    for _ in range(rng.integers(2, 6)):
        c = rng.uniform(math.log(1e-2), 0.0)
        w = rng.uniform(0.1, 1.0)
        vals += rng.uniform(0.1, 2.0) * ((t > c - w) & (t < c + w))
    vals[GRID > 2.0] = 0.0
    return RadialFunction(GRID, vals, n)


class TestDistribution:
    def test_ball_indicator(self):
        # support edges off the grid smear the level set by one cell: O(h)
        for R in (0.5, 1.0, 3.0):
            f = RadialFunction(GRID, indicator_values(GRID, R), 2)
            lam = distribution_function(f, 0.5)
            assert lam == pytest.approx(math.pi * R**2, rel=1e-2)

    def test_inverse_power_exact(self):
        f = RadialFunction(GRID, 1.0 / GRID, 2, tail_exponent=-1.0)
        for s in (0.1, 1.0, 7.3):
            assert distribution_function(f, s) == pytest.approx(
                math.pi / s**2, rel=1e-4)

    def test_above_max_is_zero(self):
        f = RadialFunction(GRID, indicator_values(GRID, 1.0), 2)
        assert distribution_function(f, 2.0) == 0.0

    def test_unbounded_marker(self):
        f = RadialFunction(GRID, np.ones_like(GRID), 2, tail_exponent=0.0)
        assert distribution_function(f, 0.5) == math.inf


def _reference_crossing_fraction(v0, v1, s, left_above):
    if v0 > 0 and v1 > 0 and s > 0 and v0 != v1:
        lam = (math.log(s) - math.log(v0)) / (math.log(v1) - math.log(v0))
    elif v1 != v0:
        lam = (s - v0) / (v1 - v0)
    else:
        lam = 0.5
    lam = min(max(lam, 0.0), 1.0)
    return lam if left_above else 1.0 - lam


def _reference_distribution(f, s, nu=None):
    """The per-cell loop that distribution_function must match bit for bit."""
    mag = f.magnitude()
    if f.tail_exponent is not None and mag[-1] > s:
        if f.tail_exponent >= 0 or s == 0.0:
            return math.inf
    measure = nu if nu is not None else lebesgue(f.n)
    r, w = f.grid, measure.radial_weight(f.grid)
    above = mag > s
    total = 0.0
    if above[0]:
        total += head_mass(f, nu)
    t = np.log(r)
    for j in range(len(r) - 1):
        a, b = above[j], above[j + 1]
        seg = 0.5 * (w[j] * r[j] + w[j + 1] * r[j + 1]) * (t[j + 1] - t[j])
        if a and b:
            total += seg
        elif a != b:
            total += seg * _reference_crossing_fraction(mag[j], mag[j + 1], s, a)
    if f.tail_exponent is not None and f.tail_exponent < 0 and mag[-1] > s:
        r_cross = r[-1] * (s / mag[-1]) ** (1.0 / f.tail_exponent)
        total += measure.ball_mass_origin(r_cross) - measure.ball_mass_origin(r[-1])
    return float(total)


def _reference_rearrangement(f, t, nu=None):
    hi = float(np.max(f.magnitude()))
    if hi == 0.0 or _reference_distribution(f, hi, nu) > t:
        return hi
    lo = 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _reference_distribution(f, mid, nu) <= t:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def seeded_profile(seed, n=2, tail=None, grid=GRID):
    """Smooth bumps in log r over a slowly decaying floor, so every cell
    carries a distinct positive value and the last node is above zero."""
    rng = np.random.default_rng(seed)
    t = np.log(grid)
    vals = 0.05 / (1.0 + grid)
    for _ in range(4):
        c = rng.uniform(math.log(1e-3), math.log(3.0))
        w = rng.uniform(0.3, 2.0)
        z = np.clip(1.0 - ((t - c) / w) ** 2, 1e-12, None)
        vals = vals + rng.uniform(0.1, 2.0) * np.exp(-1.0 / z) * (z > 1e-12)
    return RadialFunction(grid, vals, n, tail)


def _levels(f):
    """s = 0, a level under the last node (tail mass), node values, levels
    between nodes, the maximum and above it."""
    mag = f.magnitude()
    top = float(np.max(mag))
    nodes = [float(mag[k]) for k in (0, len(mag) // 3, int(np.argmax(mag)) + 7, -1)]
    return [0.0, 0.5 * float(mag[-1]), *nodes, 0.013 * top, 0.37 * top,
            0.81 * top, top, 2.0 * top]


def _vector_profile():
    vals = np.stack([np.cos(3.0 * GRID), np.sin(GRID)], axis=1) * np.exp(-GRID)[:, None]
    return RadialFunction(GRID, vals, 2)


class TestDistributionBitIdentity:
    """distribution_function and rearrangement_value give the same bits as
    the per-cell loop: compared with ==, not approx."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("tail", [None, -2.5, 0.0])
    def test_seeded_scalar_profiles(self, n, tail):
        for seed in (3, 4):
            f = seeded_profile(seed, n, tail)
            for s in _levels(f):
                assert distribution_function(f, s) == _reference_distribution(f, s)

    def test_vector_profile(self):
        f = _vector_profile()
        for s in _levels(f):
            assert distribution_function(f, s) == _reference_distribution(f, s)

    @pytest.mark.parametrize("nu", [lebesgue(2), singular_measure(2, 0.5),
                                    hyperbolic_volume(2)],
                             ids=["lebesgue", "singular", "hyperbolic"])
    def test_measures(self, nu):
        f = seeded_profile(8, 2, -2.5, grid=log_grid(1e-4, 10.0, 1024))
        for s in _levels(f):
            assert distribution_function(f, s, nu) == _reference_distribution(f, s, nu)

    def test_zero_nodes_take_linear_crossing(self):
        rng = np.random.default_rng(12)
        vals = np.maximum(rng.normal(0.3, 0.5, GRID.size), 0.0)
        f = RadialFunction(GRID, vals, 2)
        assert np.count_nonzero(vals == 0.0) > 100
        for s in _levels(f):
            assert distribution_function(f, s) == _reference_distribution(f, s)

    def test_crossings_use_libm_logarithm(self):
        # levels whose numpy logarithm differs from math.log in the last bit
        # on this platform (none where the two agree); the crossing cells
        # carry most of the mass, so such a bit shows in the result
        rng = np.random.default_rng(21)
        levels = [x for x in rng.uniform(0.2, 0.9, 50_000).tolist()
                  if np.log(x) != math.log(x)][:8]
        grid = log_grid(1e-2, 1.0, 32)
        vals = np.full(grid.size, 0.1)
        vals[10:13] = 1.0
        vals[20] = 0.95
        f = RadialFunction(grid, vals, 2)
        for s in levels:
            assert distribution_function(f, s) == _reference_distribution(f, s)

    @pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
    def test_rearrangement_value(self, vector):
        f = _vector_profile() if vector else seeded_profile(5, 2, -2.5)
        for t in (1e-3, 0.1, 1.0):
            assert rearrangement_value(f, t) == _reference_rearrangement(f, t)


class TestRearrangement:
    def test_indicator(self):
        f = RadialFunction(GRID, indicator_values(GRID, 1.0), 2)
        prof = decreasing_rearrangement(f)
        # f* = chi_[0, pi): value 1 out to mass pi
        assert prof.fstar_at(1.0) == pytest.approx(1.0)
        assert prof.fstar_at(math.pi * 1.01) <= 0.5
        mass_at_one = prof.t_grid[np.nonzero(prof.fstar >= 0.999)[0][-1]]
        assert mass_at_one == pytest.approx(math.pi, rel=2e-2)

    def test_riesz_kernel_profile_inversion(self):
        # |x|^{-1} truncated to the disk: k1*(t) = sqrt(pi/t) for t <= pi
        from sil.rearrange import rearrangement_value
        vals = indicator_values(GRID, 1.0) / GRID
        f = RadialFunction(GRID, vals, 2)
        for t in (1e-3, 1e-2, 0.1, 1.0, 3.0):
            assert rearrangement_value(f, t) == pytest.approx(
                math.sqrt(math.pi / t), rel=1e-3)
        # the sorted step profile agrees to within its half-cell convention
        prof = decreasing_rearrangement(f)
        for t in (1e-3, 0.1, 1.0):
            assert prof.fstar_at(t) == pytest.approx(
                math.sqrt(math.pi / t), rel=5e-3)

    def test_inversion_below_linear_bisection(self):
        # exp(-(r/a)^2) in 2-D: f*(t) = exp(-t / (pi a^2)), here ~1e-27 and
        # ~1e-35, far below max|f| 2^-60 ~ 8.7e-19
        a = 0.01
        f = RadialFunction(GRID, np.exp(-(GRID / a) ** 2), 2)
        for t in (0.0195, 0.025):
            assert rearrangement_value(f, t) == pytest.approx(
                math.exp(-t / (math.pi * a * a)), rel=2e-3, abs=0.0)
        # past the support's measure f* is exactly 0
        disk = RadialFunction(GRID, indicator_values(GRID, 0.1), 2)
        assert rearrangement_value(disk, 1.0) == 0.0

    def test_equimeasurability(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            f = random_step_profile(rng)
            prof = decreasing_rearrangement(f)
            for p in (1.0, 2.0, 4.0):
                assert prof.p_norm_pth_power(p) == pytest.approx(
                    lp_norm(f, p) ** p, rel=1e-6)

    def test_hardy_littlewood(self):
        from sil.norms import head_mass, node_masses
        rng = np.random.default_rng(5)
        for _ in range(10):
            f, g = random_step_profile(rng), random_step_profile(rng)
            m = node_masses(f)
            lhs = float(np.sum(m * f.values * g.values)) \
                + head_mass(f) * f.values[0] * g.values[0]
            rf = decreasing_rearrangement(f)
            rg = decreasing_rearrangement(g)
            # int f* g* dt: both are step functions on the union of breaks
            breaks = np.union1d(rf.t_grid, rg.t_grid)
            widths = np.diff(np.concatenate([[0.0], breaks]))
            mids = breaks - 0.5 * widths
            rhs = float(np.sum(rf.fstar_at(mids) * rg.fstar_at(mids) * widths))
            assert lhs <= rhs * (1 + 1e-9) + 1e-12

    def test_running_average_dominates(self):
        rng = np.random.default_rng(7)
        f = random_step_profile(rng)
        prof = decreasing_rearrangement(f)
        assert np.all(prof.fstarstar >= prof.fstar - 1e-12)
        assert np.all(np.diff(prof.fstar) <= 1e-12)
        assert np.all(np.diff(prof.fstarstar) <= 1e-12)

    def test_unbounded_raises(self):
        f = RadialFunction(GRID, np.ones_like(GRID), 2, tail_exponent=0.5)
        with pytest.raises(UnboundedDistribution):
            decreasing_rearrangement(f)


class TestExpRegularized:
    def test_order_zero(self):
        assert exp_regularized(1.0, 0) == pytest.approx(math.e - 1.0, rel=1e-14)

    def test_zero_argument(self):
        for n in range(5):
            assert exp_regularized(0.0, n) == 0.0

    def test_order_two(self):
        # ceil(n/alpha - 2) = 2 at n = 4, alpha = 1; exp_2(2) = e^2 - 5
        assert exp_regularized(2.0, 2) == pytest.approx(math.e**2 - 5.0, rel=1e-13)

    def test_monotone_in_order(self):
        t = np.linspace(0.0, 10.0, 200)
        prev = np.exp(t)
        for n in range(4):
            cur = exp_regularized(t, n)
            assert np.all(cur <= prev + 1e-12)
            prev = cur

    def test_no_cancellation_small_t(self):
        # tail-series branch: exp_5(1e-4) ~ t^6/720, far below e^t - poly noise
        val = exp_regularized(1e-4, 5)
        assert val == pytest.approx(1e-24 / 720.0, rel=1e-10)


    def test_negative_arguments(self):
        # the alternating tail series needs as many terms as |t| does; a
        # count that watched the positive terms only stopped after one
        for t, n in ((-5.0, 1), (-0.5, 0), (-2.0, 2), (-0.5, 1)):
            exact = math.exp(t) - sum(t**k / math.factorial(k)
                                      for k in range(n + 1))
            assert exp_regularized(t, n) == pytest.approx(exact, rel=1e-13)

    @staticmethod
    def _adaptive_tail(ts, n_strip):
        """The tail series summed until every term is below 1e-18 of its
        sum (or n_strip + 400 terms), checked after each term: the loop
        exp_regularized ran before it took the count from its largest
        argument."""
        term = ts ** (n_strip + 1) / math.factorial(n_strip + 1)
        acc = term.copy()
        k = n_strip + 2
        while True:
            term = term * ts / k
            acc += term
            k += 1
            if not np.any(term > 1e-18 * np.maximum(acc, 1e-300)) \
                    or k > n_strip + 400:
                return acc

    @pytest.mark.parametrize("n_strip", range(6))
    def test_tail_series_matches_adaptive_loop(self, n_strip):
        # a term under 1e-18 of the sum is under half an ulp, so the count
        # taken from the largest argument leaves every sum bit for bit
        rng = np.random.default_rng(n_strip)
        sweep = np.concatenate([[0.0], np.logspace(-300, math.log10(800.0), 6000)])
        batches = [sweep] + [
            np.exp(rng.uniform(math.log(1e-300), math.log(800.0), size))
            for size in rng.integers(1, 60, 40)] + [sweep[i:i + 1]
                                                    for i in range(0, 6001, 97)]
        for t in batches:
            small = t < n_strip + 1.0
            got = np.atleast_1d(exp_regularized(t, n_strip))
            assert np.array_equal(got[small],
                                  self._adaptive_tail(t[small], n_strip))


class TestSandwich:
    def test_zero(self):
        f = RadialFunction(GRID, np.zeros_like(GRID), 2)
        lower, middle, upper = regularization_sandwich(f, 1.0, 2.0)
        assert lower == 0.0 and middle == 0.0 and upper == 0.0

    def test_disk_indicator(self):
        f = RadialFunction(GRID, indicator_values(GRID, 1.0), 2)
        lower, middle, upper = regularization_sandwich(f, 1.0, 2.0)
        # middle = (e - 1) * pi (half-valued edge contributes exp_0(1/4) band)
        assert middle == pytest.approx((math.e - 1.0) * math.pi, rel=1e-2)
        assert lower <= middle <= upper

    def test_random_profiles_hold(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            f = random_step_profile(rng)
            scale = max(lp_norm(f, 2.0), 1e-9)
            f = f.with_values(f.values / scale * rng.uniform(0.2, 1.0))
            lower, middle, upper = regularization_sandwich(
                f, rng.uniform(0.3, 2.0), 2.0)
            assert lower <= middle * (1 + 1e-10) + 1e-12
            assert middle <= upper * (1 + 1e-10) + 1e-12

    def test_middle_is_regularized_whole_space_functional(self):
        # both integrate exp_N(a |u|^{p'}) over the same norms.cells
        rng = np.random.default_rng(5)
        for u in (random_step_profile(rng, n=2), random_step_profile(rng, n=3)):
            u = u.with_values(u.values / lp_norm(u, 2.0))
            for a, p in ((0.8, 2.0), (1.5, 3.0)):
                _, middle, _ = regularization_sandwich(u, a, p)
                spec = FunctionalSpec(
                    gamma_coeff=a, power=p / (p - 1.0),
                    domain=Domain.whole_space(), regularized=True,
                    order=max(0, math.ceil(p - 2.0)))
                assert mt_functional(u, spec).value == pytest.approx(
                    middle, rel=1e-12)

    def test_violation_is_sil_error(self, monkeypatch):
        # an inflated regularized exponential pushes middle above upper; the
        # failure must reach the CLI's SilError exit code and still be an
        # AssertionError for the callers that count violations
        monkeypatch.setattr(sil.rearrange, "exp_regularized",
                            lambda t, n: np.full_like(t, 1e6))
        f = RadialFunction(GRID, indicator_values(GRID, 1.0), 2)
        with pytest.raises(SilError, match="sandwich violated") as info:
            regularization_sandwich(f, 1.0, 2.0)
        assert isinstance(info.value, AssertionError)
