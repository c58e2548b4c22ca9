import math

import pytest

from sil.errors import DomainError
from sil.params import Params


def test_beta_derived_exactly():
    for (n, a) in [(2, 1.0), (3, 1.0), (3, 2.0), (4, 2.0), (5, 2.5)]:
        p = Params(n, a)
        assert p.beta == n / (n - a)
        assert p.p_crit == n / a
        # conjugate pairing: the conjugate of beta is n/alpha
        assert 1.0 / p.beta + 1.0 / p.p_crit == pytest.approx(1.0, abs=1e-15)


def test_regularization_order():
    assert Params(2, 1.0).regularization_order == 0   # ceil(0)
    assert Params(4, 1.0).regularization_order == 2   # ceil(2)
    assert Params(3, 2.0).regularization_order == 0   # ceil(-0.5) -> 0
    assert Params(5, 1.0).regularization_order == 3


def test_q_conjugate():
    assert Params(2, 1.0, q=2.0).q_conj == 2.0
    assert Params(2, 1.0, q=math.inf).q_conj == 1.0
    assert Params(2, 1.0, q=1.0).q_conj == math.inf
    assert Params(2, 1.0, q=3.0).q_conj == pytest.approx(1.5)


def test_validation():
    with pytest.raises(DomainError):
        Params(1, 0.5)
    with pytest.raises(DomainError):
        Params(3, 3.0)
    with pytest.raises(DomainError):
        Params(3, -1.0)
    with pytest.raises(DomainError):
        Params(3, 1.0, q=0.5)
    with pytest.raises(DomainError):
        Params(3, 1.0, sigma=0.0)
    with pytest.raises(DomainError):
        Params(3, 1.0, sigma=1.5)


def test_immutability():
    p = Params(2, 1.0)
    with pytest.raises(Exception):
        p.alpha = 0.5
