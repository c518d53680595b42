"""Batched element kernel, global assembly, boundary conditions, and the
steady solve.

The weak form of epsilon*u'' + kappa*u' + lambda*u = 0 on one element reads

    -eps int w' u' + kap int w u' + lam int w u  =  -eps {w u'}_0^l

with Bubnov-Galerkin weights equal to the enriched trial basis.  One
kernel integrates the three weight-trial products over all elements at
once by Gauss quadrature; steady and transient assembly both combine its
blocks.  The closed-form element matrix is a test oracle only.
"""

from __future__ import annotations

import warnings

import numpy as np

from .enrichment import unit_bubble_coefficients
from .linalg import TridiagonalSystem, solve_tridiagonal
from .model import (
    EnrichmentKind,
    LINEAR,
    Mesh1D,
    SolutionField,
    SteadyProblem,
    TransportCoefficients,
    bubble_poly,
)
from .quadrature import gauss_rule

_DOMAIN_MATCH_TOL = 1e-12


def element_shapes(
    coeffs: TransportCoefficients, mesh: Mesh1D, enrichment: EnrichmentKind
) -> tuple[np.ndarray, np.ndarray]:
    """Bubble coefficients of the left and right nodal shape functions,
    each of shape (n_elements, order - 1): the least-squares bubble applied
    to unit nodal values.  One batched minimiser on the unit element
    (:func:`~bubblefem.enrichment.unit_bubble_coefficients`) serves every
    distinct element length and every order at once.

    A degenerate operator on some length falls back to plain hats (a zero
    row) for the elements of that length and emits one warning per such
    length.
    """
    if enrichment.order == 1:
        empty = np.zeros((mesh.n_elements, 0))
        return empty, empty
    lengths, index = np.unique(mesh.lengths, return_inverse=True)
    unit, degenerate = unit_bubble_coefficients(coeffs, lengths, enrichment.order)
    unit[degenerate] = 0.0
    for l in lengths[degenerate].tolist():
        warnings.warn(
            f"bubble coefficients degenerate for l={l}; falling back to linear elements",
            stacklevel=2,
        )
    unit = unit[index]
    return unit[..., 0], unit[..., 1]


def default_quad_points(order: int) -> int:
    """Rule size that integrates the element matrix exactly (degree 2*order)."""
    if order + 1 > 10:
        raise ValueError(
            f"enrichment order {order} exceeds exact-quadrature reach (order <= 9)"
        )
    return min(max(4, order + 2), 10)


def element_basis(
    lengths: np.ndarray, coeff_left: np.ndarray, coeff_right: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Enriched nodal shape functions and their derivatives on every element.

    N_left  = (l - x)/l + x (l - x) * poly(coeff_left)
    N_right = x/l       + x (l - x) * poly(coeff_right)

    with poly(c) = c_1 + c_2 x + ...; zero coefficients give the plain hats.
    ``x`` holds local coordinates in [0, l] of shape (n_elements, n_points);
    both results have shape (n_elements, 2, n_points).  The bubble factor is
    kept in product form, so N_left(0) = 1, N_left(l) = 0 (and mirrored)
    hold exactly.
    """
    l = lengths[:, None, None]
    x = x[:, None, :]
    coeffs = np.stack([coeff_left, coeff_right], axis=1)
    factor = x * (l - x)
    p = bubble_poly(coeffs, x)
    dp = bubble_poly(coeffs[..., 1:] * np.arange(1, coeffs.shape[-1]), x)
    n = np.concatenate([(l - x) / l, x / l], axis=1) + factor * p
    dn = np.concatenate([-1.0 / l, 1.0 / l], axis=1) + ((l - 2.0 * x) * p + factor * dp)
    return n, dn


def element_integrals(
    lengths: np.ndarray, coeff_left: np.ndarray, coeff_right: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The integrals int N_i' N_j', int N_i N_j' and int N_i N_j over every
    element, each of shape (n_elements, 2, 2), by the Gauss rule that is
    exact for the enrichment order."""
    rule = gauss_rule(default_quad_points(coeff_left.shape[1] + 1))
    l = lengths[:, None]
    n, dn = element_basis(lengths, coeff_left, coeff_right, 0.5 * l * (rule.points + 1.0))
    w = (0.5 * l * rule.weights)[:, None, :]
    wn, dn_t = w * n, dn.swapaxes(1, 2)
    return (w * dn) @ dn_t, wn @ dn_t, wn @ n.swapaxes(1, 2)


def element_stiffness_closed(
    coeffs: TransportCoefficients, l: float, a: float, b: float
) -> np.ndarray:
    """Closed-form 2x2 element matrix for quadratic enrichment (A, B) = (a, b).

    Test oracle only; assembly always integrates numerically.
    """
    if not l > 0:
        raise ValueError(f"element length must be positive, got {l}")
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


def _check_mesh_covers(problem_domain: tuple[float, float], mesh: Mesh1D) -> None:
    a, b = problem_domain
    span = b - a
    if abs(mesh.a - a) > _DOMAIN_MATCH_TOL * span or abs(mesh.b - b) > _DOMAIN_MATCH_TOL * span:
        raise ValueError(
            f"mesh [{mesh.a}, {mesh.b}] does not cover problem domain [{a}, {b}]"
        )


def _assemble(
    problem: SteadyProblem, mesh: Mesh1D, coeff_left: np.ndarray, coeff_right: np.ndarray
) -> TridiagonalSystem:
    c = problem.coefficients
    dd, cd, mm = element_integrals(mesh.lengths, coeff_left, coeff_right)
    k = -c.epsilon * dd + c.kappa * cd + c.lambda_ * mm
    diag = np.zeros(mesh.n_elements + 1)
    diag[:-1] += k[:, 0, 0]
    diag[1:] += k[:, 1, 1]
    sub = k[:, 1, 0].copy()
    sup = k[:, 0, 1].copy()
    rhs = np.zeros_like(diag)

    # natural boundary term -eps {w u'}: +eps*g at the left end, -eps*g at the right
    if not problem.bc_left.is_dirichlet:
        rhs[0] += c.epsilon * problem.bc_left.value
    if not problem.bc_right.is_dirichlet:
        rhs[-1] += -c.epsilon * problem.bc_right.value

    # Dirichlet by row replacement and column elimination into neighbour rhs
    if problem.bc_left.is_dirichlet:
        value = problem.bc_left.value
        rhs[1] -= sub[0] * value
        sub[0] = 0.0
        diag[0] = 1.0
        sup[0] = 0.0
        rhs[0] = value
    if problem.bc_right.is_dirichlet:
        value = problem.bc_right.value
        rhs[-2] -= sup[-1] * value
        sup[-1] = 0.0
        diag[-1] = 1.0
        sub[-1] = 0.0
        rhs[-1] = value
    return TridiagonalSystem(sub=sub, diag=diag, sup=sup, rhs=rhs)


def assemble_steady(
    problem: SteadyProblem, mesh: Mesh1D, enrichment: EnrichmentKind = LINEAR
) -> TridiagonalSystem:
    """Assemble the global tridiagonal system with boundary conditions applied."""
    _check_mesh_covers(problem.domain, mesh)
    return _assemble(problem, mesh, *element_shapes(problem.coefficients, mesh, enrichment))


def solve_steady(
    problem: SteadyProblem, mesh: Mesh1D, enrichment: EnrichmentKind = LINEAR
) -> SolutionField:
    """Solve the steady problem; the field carries per-element bubble
    coefficients reconstructed from the nodal solution."""
    _check_mesh_covers(problem.domain, mesh)
    coeff_left, coeff_right = element_shapes(problem.coefficients, mesh, enrichment)
    nodal = solve_tridiagonal(_assemble(problem, mesh, coeff_left, coeff_right))
    bubble = coeff_left * nodal[:-1, None] + coeff_right * nodal[1:, None]
    return SolutionField(mesh, nodal, enrichment, bubble)
