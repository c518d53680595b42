"""Test oracles: closed forms, exact solutions and the reference Gauss rule.

The package computes bubble coefficients and element matrices only through
the least-squares minimiser and the exact unit-element tensors.  The
expressions here are independent cross-checks of those paths: the quadratic
nodal map, the transient coefficient |c| = 0.206, the cubic pair, the 2D
bubble, the element matrices of quadratic enrichment, the exact
solutions of the two benchmarks and the exact trapezoidal march of a
discrete sine mode on a mesh of equal elements.  The acceptance suite,
the CLI's cross-check rows and the tests read them; none of ``model``,
``enrichment``, ``linalg``, ``steady`` or ``transient`` imports this module.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .enrichment import QuadraticEnrichment
from .errors import DegenerateOperatorError
from .model import TransportCoefficients

# A closed-form denominator is degenerate when it is this small relative to
# the magnitudes of the terms that formed it (catastrophic cancellation).
DEGENERACY_TOL = 1e-12
MAX_POINTS = 10
# tensor-product rule size of the 2D functional: exact for its degree-4 integrand
_QUAD_2D_POINTS = 4


@dataclass(frozen=True)
class QuadratureRule:
    """Points and weights of an n-point Gauss-Legendre rule on [-1, 1];
    both arrays are read-only, since one rule object serves every caller.
    An n-point rule integrates polynomials of degree <= 2n - 1 exactly."""

    points: np.ndarray
    weights: np.ndarray
    order: int


def gauss_rule(n: int) -> QuadratureRule:
    """Return the n-point Gauss-Legendre rule on [-1, 1], 1 <= n <= 10:
    numpy's ``leggauss``, validated, computed once per process and shared."""
    if not isinstance(n, (int, np.integer)) or not 1 <= n <= MAX_POINTS:
        raise ValueError(f"rule size must be an integer in [1, {MAX_POINTS}], got {n!r}")
    return _gauss_rule(int(n))


@functools.cache
def _gauss_rule(n: int) -> QuadratureRule:
    points, weights = leggauss(n)
    points.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(points=points, weights=weights, order=n)


def _check_length(l: float) -> None:
    if not l > 0:
        raise ValueError(f"element length must be positive, got {l}")


def _check_denominator(den: float, terms: Sequence[float], context: str) -> None:
    if abs(den) <= DEGENERACY_TOL * max(abs(t) for t in terms):
        raise DegenerateOperatorError(f"degenerate denominator in {context}")


def _closed_form_terms(build, context: str) -> tuple:
    """Evaluate closed-form denominator terms, mapping float overflow to
    the degenerate-operator error."""
    try:
        return build()
    except OverflowError as exc:
        raise DegenerateOperatorError(f"coefficient overflow in {context}") from exc


def quadratic_ab_closed(coeffs: TransportCoefficients, l: float) -> QuadraticEnrichment:
    """Closed-form counterpart of :func:`~bubblefem.enrichment.quadratic_ab`."""
    _check_length(l)
    eps, kap, lam = coeffs.epsilon, coeffs.kappa, coeffs.lambda_
    terms = _closed_form_terms(
        lambda: (lam**2 * l**5, -20 * eps * lam * l**3, 10 * kap**2 * l**3, 120 * eps**2 * l),
        "quadratic enrichment",
    )
    den = sum(terms)
    _check_denominator(den, terms, "quadratic enrichment")
    a = 2.5 * (-(lam**2) * l**3 + 12 * eps * lam * l) / den
    b = 2.5 * (24 * eps * kap) / den
    return QuadraticEnrichment(a_coef=a, b_coef=b, length=l)


def transient_coefficient(epsilon: float, l: float) -> float:
    """Quadratic bubble coefficient of the transient operator (kappa = 0,
    lambda = 1, unit nodal sum), in closed form:

        c = -(5/2) (l^2 - 12 eps) / (l^4 - 20 eps l^2 + 120 eps^2)

    Note the least-squares sign: for epsilon = -1, l = pi/2 this yields
    c = -0.2062, while the stored reference tables for the transient
    benchmark are reproduced by the sign-flipped value +0.2062 (see the
    ``sign_compat`` flags).
    """
    _check_length(l)
    terms = _closed_form_terms(
        lambda: (l**4, -20 * epsilon * l**2, 120 * epsilon**2), "transient coefficient"
    )
    den = sum(terms)
    _check_denominator(den, terms, "transient coefficient")
    return -2.5 * (l**2 - 12 * epsilon) / den


def cubic_closed_forms(
    coeffs: TransportCoefficients, l: float, u0: float, ul: float
) -> tuple[float, float]:
    """Reference closed-form expressions for the cubic coefficient pair.

    Kept verbatim for comparison purposes only: both numerators are known
    to deviate from the true normal-equation solution except in special
    cases (their common denominator is correct).  Never a computation path.
    """
    _check_length(l)
    eps, kap, lam = coeffs.epsilon, coeffs.kappa, coeffs.lambda_
    den_terms = (
        l**8 * lam**4,
        52 * l**6 * lam**2 * (kap**2 - 2 * lam * eps),
        l**4 * (4320 * lam**2 * eps**2 - 1680 * lam * kap**2 * eps + 420 * kap**4),
        l**2 * eps**2 * (5040 * kap**2 - 60480 * lam * eps),
        302400 * eps**4,
    )
    den = sum(den_terms)
    _check_denominator(den, den_terms, "cubic enrichment")
    c_num = (
        l**7 * lam**4 * (ul - 6 * u0)
        - 40 * l**5 * lam**3 * eps * (ul - 13 * u0)
        - 70 * l**5 * lam**2 * kap**2 * (ul + 2 * u0)
        - 60 * l**4 * lam**2 * kap * eps * (13 * ul + 22 * u0)
        - 840 * l**3 * lam**2 * eps**2 * (5 * ul - 16 * u0)
        + 840 * l**3 * lam * eps * kap**2 * (-ul + 4 * u0)
        + 5040 * l**2 * eps**2 * kap * lam * (-ul + 6 * u0)
        + 2520 * l**2 * kap**3 * eps * (ul - u0)
        + 50400 * l * lam * eps**3 * (ul + 2 * u0)
        + 25200 * l * kap**2 * eps**2 * (ul - u0)
        + 151200 * kap * eps**3 * (ul - u0)
    )
    f_num = 7 * (
        l**6 * lam**4 * (-ul + u0)
        - 80 * l**4 * lam**3 * eps * (-ul + u0)
        + 10 * l**4 * lam**2 * kap**2 * (-ul + u0)
        + 300 * l**3 * lam**2 * kap * eps * (ul + u0)
        + 1320 * l**2 * lam**2 * eps**2 * (-ul + u0)
        - 600 * l**2 * lam * eps * kap**2 * (-ul + u0)
        - 3600 * l * eps**2 * kap * lam * (ul + u0)
        + 2520 * l**2 * kap**3 * eps * (ul - u0)
        - 7200 * l * lam * eps**3 * (-ul + u0)
        + 7200 * kap**2 * eps**2 * (-ul + u0)
    )
    return c_num / (l * den), f_num / (l * den)


def bubble_2d_coefficient(
    l: float, h: float, u00: float, u0h: float, ul0: float, ulh: float
) -> float:
    """Bubble coefficient on the rectangular master element [0,l] x [0,h]
    for the operator d2/dx2 - d/dy, driven by the four corner values."""
    if not (l > 0 and h > 0):
        raise ValueError(f"element sides must be positive, got l={l}, h={h}")
    return 15.0 * (u00 - u0h + ul0 - ulh) / (h * (l**4 + 12 * h**2))


def residual_functional_2d(
    l: float, h: float, corners: Sequence[float], c: float
) -> float:
    """Squared-residual functional of the 2D trial, by tensor-product
    Gauss quadrature (exact: the integrand is polynomial of degree 4)."""
    if not (l > 0 and h > 0):
        raise ValueError(f"element sides must be positive, got l={l}, h={h}")
    u00, u0h, ul0, ulh = (float(v) for v in corners)
    rule = gauss_rule(_QUAD_2D_POINTS)
    xs = 0.5 * l * (rule.points + 1.0)
    ys = 0.5 * h * (rule.points + 1.0)
    wx = 0.5 * l * rule.weights
    wy = 0.5 * h * rule.weights
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    W = np.outer(wx, wy)
    # residual of (bilinear + c x y (l-x)(h-y)) under d2/dx2 - d/dy
    r = (
        -2.0 * c * Y * (h - Y)
        - ((l - X) * (u0h - u00) + X * (ulh - ul0)) / (l * h)
        - c * X * (l - X) * (h - 2.0 * Y)
    )
    return float(np.sum(W * r * r))


def element_stiffness_closed(
    coeffs: TransportCoefficients, l: float, a: float, b: float
) -> np.ndarray:
    """Closed-form 2x2 steady element matrix for quadratic enrichment
    (A, B) = (a, b), against :func:`~bubblefem.steady.element_integrals`."""
    _check_length(l)
    eps, kap, lam = coeffs.epsilon, coeffs.kappa, coeffs.lambda_
    am, ap = a - b, a + b
    e = (
        -30 * eps + 10 * lam * l**2 - 15 * kap * l
        + lam * l**6 * am**2 + 5 * lam * l**4 * am - 10 * eps * l**4 * am**2
    ) / (30 * l)
    f = (
        60 * eps + 10 * lam * l**2 + 30 * kap * l
        + 2 * lam * l**6 * (a**2 - b**2) + 10 * lam * l**4 * a
        + 20 * kap * l**3 * a - 20 * eps * l**4 * (a**2 - b**2)
    ) / (60 * l)
    g = (
        60 * eps + 10 * lam * l**2 - 30 * kap * l
        + 2 * lam * l**6 * (a**2 - b**2) + 10 * lam * l**4 * a
        - 20 * kap * l**3 * a - 20 * eps * l**4 * (a**2 - b**2)
    ) / (60 * l)
    h = (
        -30 * eps + 10 * lam * l**2 + 15 * kap * l
        + lam * l**6 * ap**2 + 5 * lam * l**4 * ap - 10 * eps * l**4 * ap**2
    ) / (30 * l)
    return np.array([[e, f], [g, h]])


@dataclass(frozen=True)
class TransientElementMatrices:
    """Element mass [[L, M], [M, L]] and stiffness [[N, P], [P, N]] entries
    for enriched weights w = hat + c x (l - x)."""

    mass_diag: float
    mass_off: float
    stiff_diag: float
    stiff_off: float


def transient_element_matrices(epsilon: float, l: float, c: float) -> TransientElementMatrices:
    """Closed-form transient element matrices, against the element kernel."""
    _check_length(l)
    mass_diag = (c**2 * l**6 + 5 * c * l**4 + 10 * l**2) / (30 * l)
    mass_off = (c**2 * l**6 + 5 * c * l**4 + 5 * l**2) / (30 * l)
    stiff_diag = -epsilon * (10 * c**2 * l**4 + 30) / (30 * l)
    stiff_off = -epsilon * (10 * c**2 * l**4 - 30) / (30 * l)
    return TransientElementMatrices(mass_diag, mass_off, stiff_diag, stiff_off)


def exact_steady_benchmark(x):
    """Exact solution of the steady benchmark, in overflow-safe form.

    The textbook form carries exp(100) factors; dividing them out gives
        u(x) = 3/2 (exp(-10x) + exp(10x - 200)) / (1 + exp(-200)),
    which never exceeds unit-scale exponents on [0, 10].
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 10.0):
        raise ValueError("x outside the benchmark domain [0, 10]")
    val = 1.5 * (np.exp(-10.0 * arr) + np.exp(10.0 * arr - 200.0)) / (1.0 + np.exp(-200.0))
    return float(val) if arr.ndim == 0 else val


def steady_benchmark_bubble_coefficient(l: float, u0: float, ul: float) -> float:
    """Reference closed-form quadratic bubble coefficient of the steady
    benchmark (specialisation eps = -1/100, kappa = 0, lambda = 1)."""
    _check_length(l)
    return -25.0 * (25.0 * l**2 + 3.0) / (250.0 * l**4 + 50.0 * l**2 + 3.0) * (ul + u0)


def exact_transient_benchmark(x: float, t: float) -> float:
    """Exact transient benchmark solution sin(x) exp(-2t)."""
    if not 0.0 <= x <= math.pi:
        raise ValueError(f"x={x} outside the benchmark domain [0, pi]")
    if t < 0.0:
        raise ValueError(f"t={t} must be nonnegative")
    return math.sin(x) * math.exp(-2.0 * t)


def sine_mode_march(system, dt: float, steps, k: int = 1) -> np.ndarray:
    """Exact trapezoidal march of the k-th discrete sine mode on a mesh of N
    equal elements: one row of interior states per step count in ``steps``.

    ``system`` is a :class:`~bubblefem.transient.TransientSystem`.  Its
    elements all have one length, so every element has the same blocks,
    symmetric under reflection, and Mg and A are symmetric Toeplitz
    tridiagonal, (m_d, m_o) and (a_d, a_o); a system that is not raises
    ValueError.  With theta = k pi / N, the interpolant v_j = sin(j theta)
    of sin(k pi (x - a) / (b - a)) at the interior nodes j = 1 .. N - 1 is
    an eigenvector of both: T v = mu_T v, with mu_T = t_d + 2 t_o cos theta
    = (t_d + 2 t_o) - 4 t_o sin^2(theta / 2).  A trapezoidal step
    (Mg + dt/2 A) a' = (Mg - dt/2 A) a multiplies it by
    r = (mu_M - dt/2 mu_A) / (mu_M + dt/2 mu_A), so after n steps the state
    is r^n v.  The row sums are formed from the first interior row's
    stored entries, exactly where t_d and -2 t_o cancel (Sterbenz), so r
    carries a few rounding errors of O(1) quantities and not of the
    O(1/h^2) entries: it is the rate of the stored matrices, not of the
    step matrices a march forms from them in floats.
    """
    n = system.size + 1
    lengths = np.diff(system.mesh.nodes)
    if not (lengths == lengths[0]).all():
        raise ValueError("the sine modes are exact only on a mesh of equal elements")
    eigenvalues = []
    for diag, off in ((system.mass_diag, system.mass_off), (system.op_diag, system.op_off)):
        if not ((diag == diag[0]).all() and (off == off[:1]).all()):
            raise ValueError("the mass and operator matrices are not Toeplitz")
        t_d, t_o = float(diag[0]), float(off[0]) if off.size else 0.0
        eigenvalues.append((t_d + 2.0 * t_o) - 4.0 * t_o * math.sin(0.5 * k * math.pi / n) ** 2)
    mu_m, mu_a = eigenvalues
    r = (mu_m - 0.5 * dt * mu_a) / (mu_m + 0.5 * dt * mu_a)
    mode = np.sin(k * math.pi / n * np.arange(1, n))
    return np.power(r, np.asarray(steps, dtype=float))[:, None] * mode
