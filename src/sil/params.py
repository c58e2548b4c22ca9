"""Ambient parameter tuple shared by every module.

The tuple (n, alpha) fixes the critical integrability exponent n/alpha and
the exponential power beta = n/(n - alpha); q selects a norm family and
sigma a measure growth class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError


@dataclass(frozen=True)
class Params:
    """Dimension n, order alpha, and the derived/auxiliary exponents.

    beta is always stored as n/(n - alpha); q in (1, inf] or exactly 1;
    sigma in (0, 1].
    """

    n: int
    alpha: float
    q: float = 1.0
    sigma: float = 1.0
    beta: float = field(init=False)

    def __post_init__(self):
        if self.n < 2 or int(self.n) != self.n:
            raise DomainError(f"dimension must be an integer >= 2, got {self.n}")
        if not 0 < self.alpha < self.n:
            raise DomainError(f"order must satisfy 0 < alpha < n, got alpha={self.alpha}")
        if not (self.q == 1.0 or 1.0 < self.q):
            raise DomainError(f"norm-family index q must be 1 or in (1, inf], got {self.q}")
        if not 0 < self.sigma <= 1:
            raise DomainError(f"growth exponent sigma must lie in (0, 1], got {self.sigma}")
        object.__setattr__(self, "beta", self.n / (self.n - self.alpha))

    @property
    def p_crit(self) -> float:
        """Critical Lebesgue exponent n/alpha."""
        return self.n / self.alpha

    @property
    def q_conj(self) -> float:
        """Conjugate of q (q' = q/(q-1); q = inf gives 1)."""
        if math.isinf(self.q):
            return 1.0
        if self.q == 1.0:
            return math.inf
        return self.q / (self.q - 1.0)

    @property
    def regularization_order(self) -> int:
        """Taylor order stripped from the exponential: ceil(n/alpha - 2)."""
        return max(0, math.ceil(self.p_crit - 2))
