"""One shape rule for the vectorized functions: a scalar in gives a float
out, and an array in gives an array of its own shape, size 1 included."""

import numpy as np
import pytest

from sil.grids import RadialFunction, log_grid
from sil.kernels import bessel_kernel, hyperbolic_h2_exact, riesz_kernel
from sil.oneil import (F_functional, inner_integral, kernel_profile,
                       oneil_rhs, state_from_phi)
from sil.params import Params
from sil.potentials import angular_slice, far_field_from_moments
from sil.rearrange import decreasing_rearrangement

P2 = Params(2, 1.0)
K2 = riesz_kernel(P2)
_G = log_grid(1e-3, 10.0, 400)
FSTAR = decreasing_rearrangement(RadialFunction(_G, np.exp(-_G), 2))
PROFILE = kernel_profile(K2, truncation_radius=1.0)
_X = np.linspace(-40.0, 40.0, 201)
_BC = PROFILE.beta / (PROFILE.beta - 1.0)
_PHI = np.exp(-_X**2)
STATE = state_from_phi(
    0.5 * _PHI / np.trapezoid(_PHI**_BC, _X) ** (1.0 / _BC), _X, PROFILE, P2)

FUNCTIONS = {
    "bessel_kernel": (lambda v: bessel_kernel(3, 1.0, v), 2.0),
    "hyperbolic_h2_exact": (lambda v: hyperbolic_h2_exact(3, v), 0.5),
    "angular_slice": (lambda v: angular_slice(K2, v), 0.5),
    "far_field_from_moments": (
        lambda v: far_field_from_moments(K2, np.array([1.0, 0.1]), v), 2.0),
    "oneil_rhs": (lambda v: oneil_rhs(FSTAR, PROFILE, v), 0.5),
    "inner_integral": (lambda v: inner_integral(v, STATE), 0.5),
    "F_functional": (lambda v: F_functional(v, STATE), 0.5),
    "fstar_at": (FSTAR.fstar_at, 0.5),
    "fstarstar_at": (FSTAR.fstarstar_at, 0.5),
}


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_scalar_gives_float_and_array_keeps_its_shape(name):
    fn, x = FUNCTIONS[name]
    value = fn(x)
    assert type(value) is float
    assert type(fn(np.array(x))) is float
    for shape in [(1,), (3,), (2, 2)]:
        out = fn(np.full(shape, x))
        assert isinstance(out, np.ndarray) and out.shape == shape
        assert np.all(out == value)
