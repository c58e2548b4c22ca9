import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from sil.errors import DomainError, NonIntegrableTail
from sil.grids import (CartesianField, RadialFunction, anchored_log_grid,
                       indicator_values, log_grid)
from sil.functionals import (Domain, FunctionalSpec, mt_functional,
                             shifted_functional_bounds)
from sil.kernels import riesz_kernel
from sil.measures import (MeasureDensity, hyperbolic_volume, lebesgue,
                          singular_measure)
from sil.norms import cells, lp_norm, pair_q_norm
from sil.params import Params
from sil.potentials import radial_convolve
from sil.rearrange import (decreasing_rearrangement, distribution_function,
                           rearrangement_value)


GRID = log_grid(1e-6, 1e3, 4096)


def radial(fn, n=2, tail=None):
    return RadialFunction(GRID, fn(GRID), n, tail_exponent=tail)


class TestGrids:
    def test_log_grid_monotone(self):
        g = log_grid(1e-4, 10.0, 128)
        assert np.all(np.diff(g) > 0) and g[0] == pytest.approx(1e-4)

    def test_anchored_contains_anchor(self):
        g = anchored_log_grid(math.exp(-5), 1e-8, 100.0)
        assert np.min(np.abs(g - math.exp(-5))) < 1e-12 * math.exp(-5)

    def test_bad_grid(self):
        with pytest.raises(DomainError):
            RadialFunction(np.array([1.0, 0.5]), np.array([1.0, 1.0]), 2)

    def test_vector_magnitude(self):
        vals = np.stack([GRID * 0 + 3.0, GRID * 0 + 4.0], axis=1)
        f = RadialFunction(GRID, vals, 2)
        assert np.allclose(f.magnitude(), 5.0)

    def test_vector_arity_cap(self):
        vals = np.ones((GRID.size, 4))
        with pytest.raises(DomainError):
            RadialFunction(GRID, vals, 2)

    @pytest.mark.parametrize("n,res", [(2, 512), (3, 64)])
    def test_cartesian_from_callable_holds_about_two_boxes(self, n, res):
        # fn gets read-only coordinate views broadcast to the box, not n
        # full coordinate arrays: the peak is fn's own output and one
        # temporary, and every value equals the meshgrid construction
        fn = lambda *xs: np.exp(-sum(x * x for x in xs))
        CartesianField.from_callable(fn, n, 1.5, res)
        tracemalloc.start()
        try:
            f = CartesianField.from_callable(fn, n, 1.5, res)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 8 * res**n
        full = np.meshgrid(*([f.axes()] * n), indexing="ij")
        assert np.array_equal(f.values, fn(*full))
        assert np.array_equal(f.radii(), np.sqrt(sum(x**2 for x in full)))
        with pytest.raises(ValueError):
            CartesianField.from_callable(lambda *xs: xs[0].__iadd__(1.0), n,
                                         1.5, res)


class TestSerialization:
    def test_radial_csv_roundtrip(self):
        f = radial(lambda r: np.exp(-r) * np.sin(r), tail=None)
        g = RadialFunction.from_csv(f.to_csv())
        assert np.max(np.abs(g.grid - f.grid) / f.grid) <= 1e-12
        scale = np.max(np.abs(f.values))
        assert np.max(np.abs(g.values - f.values)) <= 1e-12 * scale
        assert g.n == f.n and g.tail_exponent is None

    def test_radial_json_roundtrip(self):
        f = radial(lambda r: 1.0 / (1.0 + r**2), tail=-2.0)
        g = RadialFunction.from_json(f.to_json())
        assert np.max(np.abs(g.values - f.values)) <= 1e-12
        assert g.tail_exponent == -2.0

    def test_vector_roundtrip(self):
        vals = np.stack([np.cos(GRID), np.sin(GRID)], axis=1)
        f = RadialFunction(GRID, vals, 2)
        g = RadialFunction.from_csv(f.to_csv())
        assert np.max(np.abs(g.values - f.values)) <= 1e-12

    def test_cartesian_roundtrip(self):
        f = CartesianField.from_callable(
            lambda x, y: np.exp(-(x**2 + y**2)), 2, 1.5, 32)
        g = CartesianField.from_json(f.to_json())
        assert np.max(np.abs(g.values - f.values)) <= 1e-12
        h = CartesianField.from_csv(f.to_csv())
        assert np.max(np.abs(h.values - f.values)) <= 1e-12

    def test_csv_rows_starting_nan_or_inf_are_data(self):
        # only the column-name line is a header; a row whose first field is
        # nan or inf reaches the checks instead of vanishing
        text = "r,value\n0.1,1.0\nnan,2.0\n0.3,3.0\ninf,4.0\n"
        with pytest.raises(DomainError, match="strictly increasing"):
            RadialFunction.from_csv(text)
        f = CartesianField.from_callable(lambda x, y: x + y, 2, 1.0, 4)
        for row in ("nan,0,1.0", "inf,0,1.0"):
            with pytest.raises(ValueError):
                CartesianField.from_csv(f.to_csv() + row + "\n")

    @pytest.mark.parametrize("reader,text", [
        (RadialFunction.from_csv, "r,value\nnp.float64(0.1),1\n"),
        (CartesianField.from_csv, "i0,i1,value\n0,0,1.0\n"),
        (CartesianField.from_csv,
         "# cartesian n=2 extent=1 resolution=2\ni0,i1,value\n2,0,1.0\n"),
        (CartesianField.from_csv,
         "# cartesian n=2 extent=1 resolution=2\ni0,i1,value\n-1,0,1.0\n"),
    ], ids=["radial_no_rows", "cartesian_no_header", "cartesian_index_past_end",
            "cartesian_negative_index"])
    def test_bad_csv_raises_domain_error(self, reader, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                reader(text)


def _reference_radial_csv(f):
    lines = [f"# radial n={f.n} tail_exponent={f.tail_exponent}",
             ",".join(["r"] + [f"v{i}" for i in range(f.arity)])]
    vals = f.values if f.is_vector else f.values[:, None]
    for j in range(len(f.grid)):
        lines.append(",".join(f"{float(x):.17g}" for x in (f.grid[j], *vals[j])))
    return "\n".join(lines) + "\n"


def _reference_radial_json(f):
    vals = f.values if f.is_vector else f.values[:, None]
    return json.dumps({
        "schema": 1, "kind": "radial", "n": f.n,
        "tail_exponent": f.tail_exponent,
        "r": [float(x) for x in f.grid],
        "values": [[float(x) for x in row] for row in vals]})


def _reference_cartesian_csv(f):
    lines = [f"# cartesian n={f.n} extent={f.extent:.17g} "
             f"resolution={f.resolution}",
             ",".join(f"i{k}" for k in range(f.n)) + ",value"]
    for idx in np.ndindex(f.values.shape):
        lines.append(",".join(str(i) for i in idx)
                     + f",{float(f.values[idx]):.17g}")
    return "\n".join(lines) + "\n"


class TestSerializationBytes:
    """The text exports are byte-equal to per-element formatting."""

    def test_radial_scalar_and_vector(self):
        rng = np.random.default_rng(9)
        scalar = RadialFunction(GRID, rng.normal(size=GRID.size) * np.exp(-GRID),
                                2, -2.5)
        vector = RadialFunction(GRID, rng.normal(size=(GRID.size, 3)), 2)
        # to_json writes scalar values from the flat list's text: -0.0,
        # subnormals, the extremes, and NaN/Infinity in the other fields
        edges = rng.normal(size=GRID.size)
        edges[:4] = [-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308]
        grid_inf = np.append(GRID[:-1], np.inf)
        for f in (scalar, vector, radial(lambda r: -np.zeros_like(r)),
                  RadialFunction(grid_inf, edges, 3, math.nan),
                  RadialFunction(grid_inf, edges[:, None], 2, -math.inf)):
            assert f.to_csv() == _reference_radial_csv(f)
            assert f.to_json() == _reference_radial_json(f)

    def test_radial_csv_parse_is_float_of_each_field(self):
        # from_csv parses in one numpy call; every value must equal float()
        # of its field, including -0.0, subnormals and the extremes
        rng = np.random.default_rng(11)
        vals = rng.normal(size=GRID.size) * np.exp(rng.uniform(-700, 700, GRID.size))
        vals[:4] = [-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308]
        for f in (RadialFunction(GRID, vals, 3, -2.5),
                  RadialFunction(GRID, rng.normal(size=(GRID.size, 2)), 2)):
            text = f.to_csv()
            rows = [ln.split(",") for ln in text.splitlines()[2:]]
            ref = np.array([[float(x) for x in row] for row in rows])
            back = RadialFunction.from_csv(text)
            parsed = np.column_stack([back.grid, back.values])
            assert np.array_equal(parsed.view(np.int64), ref.view(np.int64))
            assert back.n == f.n and back.tail_exponent == f.tail_exponent

    @pytest.mark.parametrize("n, res", [(2, 48), (3, 12)])
    def test_cartesian(self, n, res):
        rng = np.random.default_rng(n)
        f = CartesianField(n, 1.5, rng.normal(size=(res,) * n) * 1e-7)
        assert f.to_csv() == _reference_cartesian_csv(f)


class TestLpNorm:
    def test_unit_disk_indicator(self):
        # jump cells carry an O(h) representation error under |.|^p, p > 1
        g = anchored_log_grid(1.0, 1e-6, 1e3)
        f = RadialFunction(g, indicator_values(g, 1.0), 2)
        assert lp_norm(f, 2.0) == pytest.approx(math.sqrt(math.pi), rel=5e-3)

    def test_annular_inverse_power(self):
        # f = 1/r on [e^-5, 1]: squared 2-norm is 2 pi log(1/eps)
        eps = math.exp(-5)
        g = anchored_log_grid(1.0, 1e-7, 1e3)
        vals = indicator_values(g, 1.0, eps) / g
        f = RadialFunction(g, vals, 2)
        assert lp_norm(f, 2.0) == pytest.approx(math.sqrt(10 * math.pi), rel=2e-3)

    def test_zero(self):
        f = radial(lambda r: 0.0 * r)
        assert lp_norm(f, 2.0) == 0.0

    def test_homogeneity(self):
        f = radial(lambda r: np.exp(-(np.log(r)) ** 2))
        base = lp_norm(f, 3.0)
        scaled = lp_norm(f.with_values(f.values * -7.5), 3.0)
        assert scaled == pytest.approx(7.5 * base, rel=1e-12)

    def test_refinement_change_within_h2(self):
        # doubling the resolution moves the norm by no more than O(h^2);
        # smooth integrands are spectrally exact on the log grid
        hat = lambda r: np.clip(1.0 - r, 0.0, None)
        vals = []
        for m in (512, 1024, 2048):
            g = log_grid(1e-6, 10.0, m)
            vals.append(lp_norm(RadialFunction(g, hat(g), 2), 2.0))
        h = math.log(10.0 / 1e-6) / 512
        assert abs(vals[1] - vals[0]) <= h**2
        assert abs(vals[2] - vals[1]) <= (h / 2) ** 2
        smooth = lambda r: np.exp(-r**2)
        exact = math.sqrt(math.pi / 2)
        g = log_grid(1e-6, 50.0, 512)
        assert abs(lp_norm(RadialFunction(g, smooth(g), 2), 2.0) - exact) < 1e-12

    def test_tail_analytic(self):
        # f = (1+r^2)^{-1} in n=2: int f^2 = pi^2... use pure power tail:
        g = log_grid(1e-6, 1e2, 2048)
        f = RadialFunction(g, 1.0 / g, 2, tail_exponent=-1.0)
        with pytest.raises(NonIntegrableTail):
            lp_norm(f, 2.0)  # 2*(-1) + 2 = 0: diverges
        val = lp_norm(f, 3.0)  # converges
        assert np.isfinite(val)

    def test_measure_weighted(self):
        nu = singular_measure(2, 0.5)
        f = RadialFunction(GRID, indicator_values(GRID, 1.0), 2)
        # int_B1 |x|^{-1} dx = 2 pi
        assert lp_norm(f, 1.0, nu) == pytest.approx(2 * math.pi, rel=1e-4)


_CART = CartesianField.from_callable(lambda x, y: np.exp(-(x**2 + y**2)),
                                     2, 2.0, 16)
_BALL = FunctionalSpec(gamma_coeff=0.3, power=2.0, domain=Domain.ball(1.0))


@pytest.mark.parametrize("call", [
    lambda: cells(_CART),
    lambda: lp_norm(_CART, 2.0),
    lambda: distribution_function(_CART, 0.5),
    lambda: decreasing_rearrangement(_CART),
    lambda: rearrangement_value(_CART, 0.1),
    lambda: mt_functional(_CART, _BALL),
    lambda: shifted_functional_bounds(_CART, 0.5, 0.5, _BALL, 1.0),
    lambda: radial_convolve(_CART, riesz_kernel(Params(2, 1.0))),
], ids=["cells", "lp_norm", "distribution_function",
        "decreasing_rearrangement", "rearrangement_value", "mt_functional",
        "shifted_functional_bounds", "radial_convolve"])
def test_cartesian_engine_is_only_a_cross_check(call):
    # a Cartesian field only carries the Cartesian engine's potentials;
    # norms, rearrangements, functionals and the radial engine take radial
    # profiles
    with pytest.raises(DomainError):
        call()


class TestPairNorms:
    # the paired norm of (f, Tf) is pair_q_norm of their two critical norms;
    # at q = 1 it is (||f||^{n/a} + ||Tf||^{n/a})^{a/n}

    def test_zero(self):
        z = radial(lambda r: 0.0 * r)
        a = lp_norm(z, 2.0)
        assert pair_q_norm(a, a, Params(2, 1.0)) == 0.0

    def test_definition_cross_check(self):
        p = Params(2, 1.0)
        f = radial(lambda r: np.exp(-(np.log(r)) ** 2))
        tf = radial(lambda r: np.exp(-(np.log(r) - 0.3) ** 2))
        a, b = lp_norm(f, 2.0), lp_norm(tf, 2.0)
        assert pair_q_norm(a, b, p) == pytest.approx((a**2 + b**2) ** 0.5, rel=1e-12)

    def test_q_infinity_max(self):
        assert pair_q_norm(0.3, 0.8, Params(2, 1.0, q=math.inf)) == 0.8

    def test_q2_direct_formula(self):
        p = Params(2, 1.0, q=2.0)
        t = 0.37
        val = pair_q_norm(t, t, p)
        assert val == pytest.approx((2 * t**4) ** 0.25, rel=1e-12)

    def test_monotone_in_q(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, b = rng.uniform(0.01, 2.0, 2)
            qs = [1.0, 1.5, 2.0, 4.0, math.inf]
            vals = [pair_q_norm(a, b, Params(2, 1.0, q=q)) for q in qs]
            assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))


class TestTailIntegral:
    """The norm and the regularized functional both integrate the declared
    power tail through the measure's own tail_integral."""

    G = log_grid(1e-3, 10.0, 2000)
    MEASURES = {"lebesgue": lebesgue(2),
                "singular": singular_measure(2, 0.5)}

    def profile(self, tail):
        vals = (1.0 + self.G) ** tail
        return (RadialFunction(self.G, vals, 2, tail_exponent=tail),
                RadialFunction(self.G, vals, 2))

    @staticmethod
    def spec(nu, order=1):
        return FunctionalSpec(gamma_coeff=1.5, power=2.0,
                              domain=Domain.whole_space(), regularized=True,
                              order=order, measure=nu)

    @pytest.mark.parametrize("name", sorted(MEASURES))
    def test_norm_tail_is_the_measure_tail(self, name):
        nu = self.MEASURES[name]
        f, cut = self.profile(-3.0)
        got = lp_norm(f, 2.0, nu) ** 2 - lp_norm(cut, 2.0, nu) ** 2
        want = nu.tail_integral(10.0, -6.0, float(f.values[-1]) ** 2)
        assert want > 0
        assert got == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("name", sorted(MEASURES))
    def test_functional_tail_is_the_measure_tail(self, name):
        nu = self.MEASURES[name]
        f, _ = self.profile(-3.0)
        # order 1: the leading Taylor term is gamma^2 |u|^4 / 2!
        coef = 1.5**2 * float(f.values[-1]) ** 4 / 2.0
        want = nu.tail_integral(10.0, -12.0, coef)
        assert want > 0
        got = mt_functional(f, self.spec(nu)).truncation_error
        assert got == pytest.approx(want, rel=1e-14)

    def test_closed_forms(self):
        nu = lebesgue(3)
        assert nu.tail_integral(2.0, -5.0, 3.0) == pytest.approx(
            3.0 * 4.0 * math.pi * 2.0**3 / 2.0, rel=1e-15)

    def test_hyperbolic_raises(self):
        f, _ = self.profile(-3.0)
        nu = hyperbolic_volume(2)
        with pytest.raises(NonIntegrableTail):
            lp_norm(f, 2.0, nu)
        with pytest.raises(NonIntegrableTail):
            mt_functional(f, self.spec(nu))

    @pytest.mark.parametrize("order", [0, 1])
    def test_divergent_density_tail_raises(self, order):
        # tail r^{-1/4} against the weight 2 pi of |x|^{-1} dx in the plane:
        # quadrature only warns, and its value made the norm complex
        f, _ = self.profile(-0.25)
        nu = singular_measure(2, 0.5)
        with pytest.raises(NonIntegrableTail):
            lp_norm(f, 2.0, nu)
        with pytest.raises(NonIntegrableTail):
            mt_functional(f, self.spec(nu, order))

    def test_divergent_closed_form_tails_raise(self):
        with pytest.raises(NonIntegrableTail):
            lebesgue(2).tail_integral(1.0, -2.0)


class TestClosedFormMasses:
    """Ball masses and power tails of the built-in measures against mpmath
    quadrature of their definitions at 40 digits."""

    @staticmethod
    def omega(mp, n):
        return 2 * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2)

    # among them the radii 3.3e-5 ... 3.3e-3 the hyperbolic scenario asks for
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("r", [1e-8, 3.3e-5, 3.3e-3, 0.1, 0.4999,
                                   0.5, 0.5001, 1.0, 3.0, 20.0])
    def test_hyperbolic_ball_mass(self, n, r):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            # s = r u keeps the integrand near 1 for small r, where mpmath's
            # absolute error target would swamp a mass of order r^n
            r_mp = mp.mpf(r)
            want = self.omega(mp, n) * r_mp**n * mp.quad(
                lambda u: (mp.sinh(r_mp * u) / r_mp) ** (n - 1), [0, 1])
            got = hyperbolic_volume(n).ball_mass_origin(r)
            assert abs(got / want - 1) <= 1e-14

    @pytest.mark.parametrize("n", [3, 5])
    def test_hyperbolic_ball_mass_sweep(self, n):
        # omega sinh^n r / n * 2F1(1/2, n/2; n/2 + 1; -sinh^2 r) at 40 digits
        # over r in [1e-6, 30], across the switch from the series in
        # tanh^2 r to the reduction formula at r = 1
        mp = pytest.importorskip("mpmath")
        nu = hyperbolic_volume(n)
        with mp.workdps(40):
            for r in np.append(np.geomspace(1e-6, 30.0, 61), [1.0, 15.7]):
                s = mp.sinh(mp.mpf(r))
                want = self.omega(mp, n) * s**n / n * mp.hyp2f1(
                    mp.mpf(1) / 2, mp.mpf(n) / 2, mp.mpf(n) / 2 + 1, -s * s)
                assert abs(nu.ball_mass_origin(float(r)) / want - 1) <= 1e-14, r

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("sigma", [0.25, 0.5, 0.75])
    def test_singular_ball_mass_and_tail(self, n, sigma):
        mp = pytest.importorskip("mpmath")
        nu = singular_measure(n, sigma)
        e = mp.mpf((sigma - 1.0) * n)
        with mp.workdps(40):
            omega = self.omega(mp, n)
            for r in (1e-6, 0.3, 2.0, 50.0):
                want = omega * mp.quad(lambda s: s ** (e + n - 1),
                                       [0, mp.mpf(r)])
                assert abs(nu.ball_mass_origin(r) / want - 1) <= 1e-14
            for r_max, expo, coef in ((0.5, -4.0, 1.7), (3.0, -sigma * n - 0.5,
                                                         0.2)):
                R = mp.mpf(r_max)
                want = coef * omega * mp.quad(
                    lambda s: (s / R) ** expo * s ** (e + n - 1), [R, mp.inf])
                got = nu.tail_integral(r_max, expo, coef)
                assert abs(got / want - 1) <= 1e-14

    @pytest.mark.parametrize("n, sigma", [(2, 0.25), (2, 0.5), (3, 0.75)])
    def test_singular_tail_diverges(self, n, sigma):
        nu = singular_measure(n, sigma)
        for expo in (-sigma * n, -sigma * n + 0.1, 0.0):
            with pytest.raises(NonIntegrableTail):
                nu.tail_integral(1.0, expo)

    def test_power_density_is_declared(self):
        nu = singular_measure(3, 0.5)
        assert nu.radial_density is None and nu.density_exponent == -1.5
        # r^e is locally integrable only for e > -n
        with pytest.raises(DomainError):
            MeasureDensity(kind="radial", n=2, density_exponent=-2.0)
        with pytest.raises(DomainError):
            MeasureDensity(kind="radial", n=2)
