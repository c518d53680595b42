"""Gauss-Legendre quadrature with exactness-degree guarantees.

An n-point rule integrates polynomials of degree <= 2n - 1 exactly, which
is what element assembly and the verification norms rely on.  Nodes are
computed by Newton iteration on the Legendre recurrence (no hard-coded
tables), so every order up to MAX_POINTS is available.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

MAX_POINTS = 10
_NEWTON_TOL = 1e-15


@dataclass(frozen=True)
class QuadratureRule:
    """Points and weights of an n-point Gauss-Legendre rule on [-1, 1];
    both arrays are read-only, since one rule object serves every caller."""

    points: np.ndarray
    weights: np.ndarray
    order: int


def _legendre_and_derivative(n: int, x: float) -> tuple[float, float]:
    """Evaluate P_n(x) and P_n'(x) by the three-term recurrence."""
    p_prev, p = 1.0, x
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


def gauss_rule(n: int) -> QuadratureRule:
    """Return the n-point Gauss-Legendre rule on [-1, 1], 1 <= n <= 10.

    Each rule is computed once per process and shared."""
    if not isinstance(n, (int, np.integer)) or not 1 <= n <= MAX_POINTS:
        raise ValueError(f"rule size must be an integer in [1, {MAX_POINTS}], got {n!r}")
    return _gauss_rule(int(n))


@functools.cache
def _gauss_rule(n: int) -> QuadratureRule:
    points = np.zeros(n)
    weights = np.zeros(n)
    # Roots come in +/- pairs; compute one half and mirror for exact symmetry.
    for i in range((n + 1) // 2):
        x = np.cos(np.pi * (i + 0.75) / (n + 0.5))
        for _ in range(100):
            p, dp = _legendre_and_derivative(n, x)
            dx = p / dp
            x -= dx
            if abs(dx) <= _NEWTON_TOL:
                break
        p, dp = _legendre_and_derivative(n, x)
        w = 2.0 / ((1.0 - x * x) * dp * dp)
        points[i], weights[i] = x, w
        points[n - 1 - i], weights[n - 1 - i] = -x, w
    if n % 2 == 1:
        points[n // 2] = 0.0
    order = np.argsort(points)
    points, weights = points[order], weights[order]
    points.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(points=points, weights=weights, order=n)


def integrate(fn: Callable[[np.ndarray], np.ndarray], a: float, b: float, n: int) -> float:
    """Integrate ``fn`` over [a, b] with the affine-mapped n-point rule.

    ``fn`` must accept an ndarray of evaluation points.
    """
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    rule = gauss_rule(n)
    half = 0.5 * (b - a)
    xs = half * rule.points + 0.5 * (a + b)
    return float(half * np.sum(rule.weights * np.asarray(fn(xs), dtype=float)))
