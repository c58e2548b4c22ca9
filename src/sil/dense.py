"""Least squares for the package's few small dense systems, without LAPACK.

The systems are tiny: the 3 x 3 or 4 x 4 fit of the diagonal table cell,
the (n+1) x (n+1) Gram system of the Adams projection and the harness's
line and three-term fits.  Householder QR solves them in a few numpy
passes, so no `sil` path loads numpy's LAPACK, whose first calls add
1.5-1.8 MB to the resident set (see the potentials module).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError


def _householder(a: np.ndarray) -> tuple:
    """Householder QR of a tall or square matrix, in place.

    Returns the unit reflector vectors (v_j acts on rows j onward); a's
    upper triangle becomes R.  Raises DomainError when a column depends on
    the ones before it: some |R_jj| is at most max(rows, cols) ulps of the
    largest, the cutoff numpy.linalg.lstsq applies to singular values.
    """
    rows, cols = a.shape
    reflectors = []
    diag = np.empty(cols)
    for j in range(cols):
        x = a[j:, j]
        norm = math.hypot(*x)
        v = x.copy()
        v[0] += math.copysign(norm, x[0])
        v_norm = math.hypot(*v)
        if v_norm > 0.0:
            v /= v_norm
            a[j:, j:] -= 2.0 * np.outer(v, v @ a[j:, j:])
        reflectors.append(v)
        diag[j] = a[j, j]
    scale = np.max(np.abs(diag), initial=0.0)
    if not np.all(np.abs(diag) > max(rows, cols) * np.finfo(float).eps * scale):
        raise DomainError(f"least-squares system of shape {rows} x {cols} "
                          "is rank-deficient")
    return reflectors


def _back_substitute(r: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x with R x = y, R upper triangular."""
    x = np.empty(len(y))
    for i in range(len(y) - 1, -1, -1):
        x[i] = (y[i] - r[i, i + 1:] @ x[i + 1:]) / r[i, i]
    return x


def lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The least-squares solution of a x = b for a full-rank matrix a.

    Square and tall systems give the x minimizing |a x - b|; a wide
    full-row-rank one gives, of its exact solutions, the one of least norm,
    as numpy.linalg.lstsq does.  A rank-deficient a raises DomainError.
    """
    a = np.array(a, dtype=float)
    b = np.asarray(b, dtype=float)
    rows, cols = a.shape
    if rows >= cols:
        reflectors = _householder(a)
        y = b.copy()
        for j, v in enumerate(reflectors):
            y[j:] -= 2.0 * v * (v @ y[j:])
        return _back_substitute(a[:cols, :cols], y[:cols])
    # wide: a^T = Q R, so a x = b reads R^T (Q^T x) = b, and the least-norm
    # x is Q z with z solving the lower-triangular R^T z = b
    at = a.T.copy()
    reflectors = _householder(at)
    z = _back_substitute(at[:rows, :rows].T[::-1, ::-1], b[::-1])[::-1]
    x = np.zeros(cols)
    x[:rows] = z
    for j, v in reversed(list(enumerate(reflectors))):
        x[j:] -= 2.0 * v * (v @ x[j:])
    return x
