"""Batched element kernel, global assembly, boundary conditions, and the
steady solve.

The weak form of epsilon*u'' + kappa*u' + lambda*u = 0 on one element reads

    -eps int w' u' + kap int w u' + lam int w u  =  -eps {w u'}_0^l

with Bubnov-Galerkin weights equal to the enriched trial basis.  One
kernel builds the three weight-trial products of every element at once,
at any enrichment order, from the exact unit-element tensor that the
bubble coefficients are solved with; steady and transient assembly both
combine its blocks.  The closed-form element matrix is a test oracle only.
"""

from __future__ import annotations

import warnings

import numpy as np

from .enrichment import _unit_tensor, unit_bubble_coefficients
from .linalg import TridiagonalSystem, solve_tridiagonal
from .model import (
    EnrichmentKind,
    LINEAR,
    Mesh1D,
    SolutionField,
    SteadyProblem,
    TransportCoefficients,
)

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


def element_bubbles(
    coeff_left: np.ndarray, coeff_right: np.ndarray, nodal: np.ndarray
) -> np.ndarray:
    """Bubble coefficients, shape (n_elements, order - 1), of the field with
    nodal values ``nodal`` in the shape pair of :func:`element_shapes`."""
    return coeff_left * nodal[:-1, None] + coeff_right * nodal[1:, None]


def default_quad_points(order: int) -> int:
    """Gauss rule size that integrates the element products exactly
    (degree 2*order): the rule of the oracle for :func:`element_integrals`."""
    if order + 1 > 10:
        raise ValueError(
            f"enrichment order {order} exceeds exact-quadrature reach (order <= 9)"
        )
    return min(max(4, order + 2), 10)


def element_integrals(
    lengths: np.ndarray, coeff_left: np.ndarray, coeff_right: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The integrals int N_i' N_j', int N_i N_j' and int N_i N_j over every
    element, each of shape (n_elements, 2, 2), exact at every order.

    With x = l s the shape pair is f E in the unit basis f of
    :func:`~bubblefem.enrichment._unit_tensor`, with the (order + 1, 2)
    matrix E = [[1, 0], [0, 1], [c_left l^(k+1), c_right l^(k+1)]], so the
    blocks are E^T T E / l, E^T T E and l E^T T E for the matching T.
    """
    order = coeff_left.shape[1] + 1
    l = lengths[:, None, None]
    e = np.zeros((lengths.size, order + 1, 2))
    e[:, 0, 0] = e[:, 1, 1] = 1.0
    e[:, 2:] = np.stack([coeff_left, coeff_right], axis=2) * l ** np.arange(2, order + 1)[:, None]
    # int D_a f_i D_b f_j for (D_a, D_b) = (d/ds, d/ds), (1, d/ds), (1, 1)
    tensors = _unit_tensor(order)[(1, 2, 2), (1, 1, 2), None]
    dd, cd, mm = (e.swapaxes(1, 2) @ tensors) @ e
    return dd / l, cd, mm * l


def element_stiffness_closed(
    coeffs: TransportCoefficients, l: float, a: float, b: float
) -> np.ndarray:
    """Closed-form 2x2 element matrix for quadratic enrichment (A, B) = (a, b).

    Test oracle only; assembly always uses :func:`element_integrals`.
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
    return SolutionField(mesh, nodal, enrichment, element_bubbles(coeff_left, coeff_right, nodal))
