"""Least-squares bubble coefficients.

The enriched trial on a master element [0, l] is

    u(x) = (l - x)/l * u0 + x/l * ul + sum_k c_k x^k (l - x),   k = 1..p-1.

Inserting it into the operator L = epsilon d2/dx2 + kappa d/dx + lambda
leaves a polynomial residual R(x); the coefficients c_k are chosen to
minimise J = int_0^l R^2 dx.  J is a convex quadratic in the c_k.  With
x = l s the minimiser depends only on the weight row
(epsilon/l^2, kappa/l, lambda) of the operator on the unit element, so the
normal equations are formed there for all elements at once by one matrix
product, and solved in closed form at orders 2 and 3 and by stacked LAPACK
calls above (``unit_bubble_coefficients``).  Assembly and the solution
field use those unit-element amplitudes d_k = c_k l^(k+1) as they are;
only the one-element view behind ``ls_bubble`` converts them to the
x-coordinates c_k.  That numeric minimiser is the only coefficient source;
``residual_functional`` evaluates J in x on a path of its own, as the
oracle the minimiser is checked against, and the closed forms in
:mod:`bubblefem.oracles` are cross-checks of it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import DegenerateOperatorError
from .model import TransportCoefficients

# a unit-element Gram matrix is degenerate beyond this condition number
_MAX_CONDITION = 1e12


@dataclass(frozen=True)
class BubbleSolution:
    """Minimiser of the residual functional for one element.

    ``coeffs`` holds the p-1 coefficients multiplying x^k (l - x) and
    ``residual_value`` the value of the functional at the minimiser.

    ``residual_value`` keeps few correct digits when J at the minimiser is
    many orders of magnitude below J of the linear element: it is then the
    small remainder of cancelling terms.  At order 7, (epsilon, kappa, lambda)
    = (-4.73, 7.38, 2.39) and l = 0.0135, J is 1.5e-25 and 3.7e-25 against
    4.0e3 and 9.1e3 for plain hats, and 3.5e-3 and 1.3e-3 relative off an
    exact rational evaluation at the same coefficients, for (u0, ul) = (1, 0)
    and (0.3, -1.2).
    """

    order: int
    coeffs: np.ndarray
    residual_value: float


def residual_functional(
    coeffs: TransportCoefficients,
    l: float,
    u0: float,
    ul: float,
    bubble: "BubbleSolution | Sequence[float]",
) -> float:
    """Integrated squared residual J = int_0^l R^2 dx, by exact integration
    of the residual polynomial in x.

    Independent of the unit-element tensor the minimiser solves with, so it
    serves as the oracle that minimiser is checked against.
    """
    if not (l > 0 and math.isfinite(l)):
        raise ValueError(f"element length must be positive and finite, got {l}")
    if not (math.isfinite(u0) and math.isfinite(ul)):
        raise ValueError(f"nodal values must be finite, got u0={u0}, ul={ul}")
    c = np.atleast_1d(
        np.asarray(bubble.coeffs if isinstance(bubble, BubbleSolution) else bubble, dtype=float)
    )
    # trial u0 + (ul - u0)/l x + sum_k c_k (l x^k - x^(k+1)) in powers of x
    trial = np.zeros(c.size + 2)
    trial[:2] = u0, (ul - u0) / l
    trial[1:-1] += l * c
    trial[2:] -= c
    d1 = npoly.polyder(trial)
    residual = npoly.polyadd(
        npoly.polyadd(coeffs.epsilon * npoly.polyder(d1), coeffs.kappa * d1),
        coeffs.lambda_ * trial,
    )
    return float(npoly.polyval(l, npoly.polyint(npoly.polymul(residual, residual))))


@functools.cache
def _unit_tensor(order: int) -> np.ndarray:
    """T[a, b, i, j] = int_0^1 D_a f_i D_b f_j ds on the unit element, with
    D = (d2/ds2, d/ds, 1) and f = (1 - s, s, s (1 - s), ..., s^(order-1) (1 - s)).

    Integrated exactly in integers over the common denominator
    lcm(1, ..., 2 order + 1) and rounded once, so entries that are equal in
    exact arithmetic are equal floats.  Memoised per order and read-only.
    """
    funcs = np.zeros((order + 1, order + 1), dtype=int)  # row i: f_i in powers s^0..s^order
    funcs[0, :2] = (1, -1)
    funcs[1, 1] = 1
    for k in range(1, order):
        funcs[k + 1, k : k + 2] = (1, -1)

    def derivative(p: np.ndarray) -> np.ndarray:
        out = np.zeros_like(p)
        out[:, :-1] = p[:, 1:] * np.arange(1, p.shape[1])
        return out

    d1 = derivative(funcs)
    ops = np.stack([derivative(d1), d1, funcs]).astype(object)
    denominator = math.lcm(*range(1, 2 * order + 2))
    hankel = np.array(
        [[denominator // (p + q + 1) for q in range(order + 1)] for p in range(order + 1)],
        dtype=object,
    )
    tensor = (((ops @ hankel)[:, None] @ ops.swapaxes(1, 2)[None]) / denominator).astype(float)
    tensor.setflags(write=False)
    return tensor


@functools.cache
def _bubble_rows(order: int) -> np.ndarray:
    """The bubble rows of :func:`_unit_tensor` as one (9, (order - 1)(order + 1))
    matrix: row 3 a + b holds T[a, b, 2:, :], so the products w_a w_b of a
    weight row, flattened in the same order, give every bubble row of the
    quadratic form in one matrix product.  Memoised per order and read-only."""
    rows = np.ascontiguousarray(_unit_tensor(order)[:, :, 2:, :].reshape(9, -1))
    rows.setflags(write=False)
    return rows


def unit_bubble_coefficients(
    coeffs: TransportCoefficients, lengths: np.ndarray, order: int
) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares bubble coefficients of the unit nodal values on every
    element length at once (order >= 2).

    With x = l s the operator becomes (eps/l^2) d2/ds2 + (kappa/l) d/ds +
    lambda on the unit basis s^k (1 - s), so each Gram matrix and both
    unit-nodal right-hand sides are quadratic forms in the weight row
    w = (eps/l^2, kappa/l, lambda) against the constant tensors of
    ``_unit_tensor``.  Each row of w is divided by its largest magnitude,
    which leaves the minimiser unchanged and prevents overflow; one matrix
    product of the (n, 9) products w_a w_b with :func:`_bubble_rows` gives
    every Gram matrix and right-hand side.  At order 2 the Gram matrix is
    1x1 and the minimiser a quotient; at order 3 it is 2x2, with extreme
    eigenvalues lmax = (a + c)/2 + hypot((a - c)/2, b) and lmin = det / lmax
    (free of cancellation) and the minimiser by its adjugate; higher orders
    take a stacked ``eigvalsh`` and ``solve``.

    Returns ``(unit, degenerate)``.  ``unit`` has shape (n, order - 1, 2):
    ``unit[e, :, 0]`` is the minimiser for (u0, ul) = (1, 0) and
    ``unit[e, :, 1]`` for (0, 1), so by linearity ``unit[e] @ (u0, ul)``
    serves any nodal pair.  ``degenerate[e]`` flags a non-finite weight row,
    or a unit Gram matrix with a smallest eigenvalue <= 0 or a condition
    number above 1e12; those rows hold no usable values.  At orders 2 and 3
    only a row that is not finite or all zero is flagged: the condition
    number of the normalised Gram matrix stays below about 5.5e2 there.
    """
    if not isinstance(order, (int, np.integer)) or order < 2:
        raise ValueError(f"bubble order must be an integer >= 2, got {order!r}")
    l = np.asarray(lengths, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        w = np.stack(
            [coeffs.epsilon / l**2, coeffs.kappa / l, np.full_like(l, coeffs.lambda_)], axis=1
        )
        scale = np.abs(w).max(axis=1)
        ok = np.isfinite(scale) & (scale > 0.0)
        # a bad row gets a harmless stand-in so that the batched solve runs
        w = np.where(ok[:, None], w / scale[:, None], 1.0)
        products = (w[:, :, None] * w[:, None, :]).reshape(-1, 9)
        q = (products @ _bubble_rows(order)).reshape(-1, order - 1, order + 1)
        gram, rhs = q[:, :, 2:], -q[:, :, :2]
        # the Gram matrices are positive semi-definite and symmetric to
        # rounding; order 3 reads their lower triangle, as eigvalsh does
        if order == 2:
            g = gram[:, 0, 0]
            ok &= g > 0.0
            unit = rhs / g[:, None, None]
        elif order == 3:
            a, b, c = gram[:, 0, 0, None], gram[:, 1, 0, None], gram[:, 1, 1, None]
            det = a * c - b * b
            lmax = 0.5 * (a + c) + np.hypot(0.5 * (a - c), b)
            lmin = det / lmax
            ok &= (lmin[:, 0] > 0.0) & (lmax[:, 0] <= _MAX_CONDITION * lmin[:, 0])
            r0, r1 = rhs[:, 0], rhs[:, 1]
            unit = np.stack([c * r0 - b * r1, a * r1 - b * r0], axis=1) / det[:, None]
        else:
            eig = np.linalg.eigvalsh(gram)
            ok &= (eig[:, 0] > 0.0) & (eig[:, -1] <= _MAX_CONDITION * eig[:, 0])
            unit = np.linalg.solve(gram, rhs)
    return unit, ~ok


def _unit_bubble(coeffs: TransportCoefficients, l: float, order: int) -> np.ndarray:
    """One-element x-coordinate view of :func:`unit_bubble_coefficients`:
    the (order - 1, 2) unit-nodal coefficients c_k = d_k / l^(k+1) of the
    basis x^k (l - x), raising on a degenerate operator or when the
    conversion leaves the floating-point range."""
    if not (l > 0 and math.isfinite(l)):
        raise ValueError(f"element length must be positive and finite, got {l}")
    unit, degenerate = unit_bubble_coefficients(coeffs, np.array([l], dtype=float), order)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        x_coeffs = unit[0] / l ** np.arange(2, order + 1)[:, None]
    if degenerate[0] or not np.isfinite(x_coeffs).all():
        raise DegenerateOperatorError(
            f"bubble coefficients degenerate for coefficients {coeffs} and l={l}"
        )
    return x_coeffs


def ls_bubble(
    coeffs: TransportCoefficients, l: float, u0: float, ul: float, order: int = 2
) -> BubbleSolution:
    """Minimise the residual functional for the bubble coefficients.

    The one-element view of the batched unit-element minimiser
    :func:`unit_bubble_coefficients`, applied to the nodal pair (u0, ul).
    This is the canonical coefficient source for the whole package; every
    closed form in :mod:`bubblefem.oracles` is checked against it, never the
    other way round.
    """
    solution = _unit_bubble(coeffs, l, order) @ np.array([u0, ul], dtype=float)
    value = residual_functional(coeffs, l, u0, ul, solution)
    return BubbleSolution(order=order, coeffs=solution, residual_value=value)


@dataclass(frozen=True)
class QuadraticEnrichment:
    """Per-element map from nodal values to the quadratic bubble coefficient:
    c = (A - B) u0 + (A + B) ul with A = a_coef, B = b_coef."""

    a_coef: float
    b_coef: float
    length: float

    def coefficient(self, u0: float, ul: float) -> float:
        return (self.a_coef - self.b_coef) * u0 + (self.a_coef + self.b_coef) * ul


def quadratic_ab(coeffs: TransportCoefficients, l: float) -> QuadraticEnrichment:
    """Nodal-to-bubble coefficient map from the two unit-nodal-value
    minimisations of the one-element view of the batched minimiser.

    For a symmetric operator (kappa = 0) the two unit solves agree to the
    last bit, because the unit-element tensors are exact, so B is exactly
    zero.
    """
    left, right = _unit_bubble(coeffs, l, 2)[0]
    return QuadraticEnrichment(
        a_coef=float(0.5 * (left + right)), b_coef=float(0.5 * (right - left)), length=l
    )
