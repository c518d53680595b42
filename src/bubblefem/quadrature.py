"""Gauss-Legendre quadrature with exactness-degree guarantees.

An n-point rule integrates polynomials of degree <= 2n - 1 exactly, which
is what the verification norms and the 2D functional rely on.  The rules
are numpy's ``leggauss``, validated, memoised and made read-only here.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

MAX_POINTS = 10


@dataclass(frozen=True)
class QuadratureRule:
    """Points and weights of an n-point Gauss-Legendre rule on [-1, 1];
    both arrays are read-only, since one rule object serves every caller."""

    points: np.ndarray
    weights: np.ndarray
    order: int


def gauss_rule(n: int) -> QuadratureRule:
    """Return the n-point Gauss-Legendre rule on [-1, 1], 1 <= n <= 10.

    Each rule is computed once per process and shared."""
    if not isinstance(n, (int, np.integer)) or not 1 <= n <= MAX_POINTS:
        raise ValueError(f"rule size must be an integer in [1, {MAX_POINTS}], got {n!r}")
    return _gauss_rule(int(n))


@functools.cache
def _gauss_rule(n: int) -> QuadratureRule:
    points, weights = leggauss(n)
    points.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(points=points, weights=weights, order=n)
