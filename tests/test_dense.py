"""The in-house least-squares routine against exact and LAPACK solutions."""

from fractions import Fraction

import numpy as np
import pytest

from sil.dense import lstsq
from sil.errors import DomainError
from sil.extremals import _power_integral, _power_offset

EPS = np.finfo(float).eps


def _exact_solve(a, b):
    """Gauss-Jordan elimination in rationals on the floats as given."""
    size = len(b)
    rows = [[Fraction(float(v)) for v in row] + [Fraction(float(rhs))]
            for row, rhs in zip(a, b)]
    for col in range(size):
        pivot = next(r for r in range(col, size) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(size):
            if r != col:
                f = rows[r][col] / rows[col][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [rows[i][size] / rows[i][i] for i in range(size)]


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("vector", [False, True])
@pytest.mark.parametrize("alpha,eps", [(1.0, 1e-3), (0.5, 1e-2), (2.0, 1e-4)])
def test_adams_gram_systems_match_exact_solve(n, vector, alpha, eps):
    # the Gram system of extremals._radial_projection_coeffs, c_phi = 1
    o = _power_offset(vector)
    ks = np.arange(n + 1 - o)
    gram = 1.0 / (ks[:, None] + ks[None, :] + o + n / 2.0) / 2.0
    rhs = np.array([_power_integral(2 * k + o - alpha + n, eps, 1.0)
                    for k in ks])
    exact = np.array([float(v) for v in _exact_solve(gram, rhs)])
    got = lstsq(gram, rhs)
    bound = np.linalg.cond(gram) * EPS
    assert np.max(np.abs(got - exact)) <= bound * np.max(np.abs(exact))


@pytest.mark.parametrize("shape", [(6, 3), (12, 4), (20, 2), (5, 5)])
def test_tall_systems_match_lapack(shape):
    rng = np.random.default_rng(sum(shape))
    a = rng.standard_normal(shape)
    b = rng.standard_normal(shape[0])
    want = np.linalg.lstsq(a, b, rcond=None)[0]
    np.testing.assert_allclose(lstsq(a, b), want, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("shape", [(2, 3), (1, 3), (3, 5)])
def test_wide_systems_give_the_least_norm_solution(shape):
    rng = np.random.default_rng(sum(shape))
    a = rng.standard_normal(shape)
    b = rng.standard_normal(shape[0])
    got = lstsq(a, b)
    np.testing.assert_allclose(a @ got, b, rtol=1e-12, atol=1e-13)
    want = np.linalg.lstsq(a, b, rcond=None)[0]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("a", [
    [[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]],     # dependent columns
    [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]],       # dependent rows
    [[0.0, 0.0], [0.0, 0.0]],
    [[1.0, 1.0], [1.0, 1.0 + 1e-17]]])        # 1 + 1e-17 rounds to 1
def test_rank_deficient_systems_raise(a):
    with pytest.raises(DomainError, match="rank-deficient"):
        lstsq(np.array(a), np.ones(len(a)))


def test_inputs_are_not_modified():
    a = np.array([[2.0, 1.0], [1.0, 3.0], [0.0, 1.0]])
    b = np.array([1.0, 2.0, 3.0])
    a0, b0 = a.copy(), b.copy()
    lstsq(a, b)
    assert np.array_equal(a, a0) and np.array_equal(b, b0)
