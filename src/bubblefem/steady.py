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
) -> np.ndarray:
    """Bubble amplitudes of the nodal shape functions on the unit element,
    shape (n_elements, order - 1, 2): ``[..., 0]`` is the least-squares
    bubble of the unit nodal values (1, 0), the left shape, and ``[..., 1]``
    that of (0, 1), the right shape.  Row e holds the amplitudes d_k of
    s^k (1 - s) with s = x / l; the x-coordinate coefficients are
    d_k / l^(k+1).  One batched minimiser on the unit element
    (:func:`~bubblefem.enrichment.unit_bubble_coefficients`) serves every
    distinct element length and every order at once.

    A degenerate operator on some length falls back to plain hats (a zero
    row) for the elements of that length.  One warning per call names the
    degenerate length, or the count and range of such lengths, and the
    number of elements that fell back.
    """
    if enrichment.order == 1:
        return np.zeros((mesh.n_elements, 0, 2))
    lengths, index = np.unique(mesh.lengths, return_inverse=True)
    unit, degenerate = unit_bubble_coefficients(coeffs, lengths, enrichment.order)
    unit[degenerate] = 0.0
    if degenerate.any():
        bad = lengths[degenerate]
        lo, hi = float(bad[0]), float(bad[-1])
        where = f"l={lo}" if bad.size == 1 else f"{bad.size} lengths in [{lo}, {hi}]"
        count = int(np.count_nonzero(degenerate[index]))
        warnings.warn(
            f"bubble coefficients degenerate for {where}; falling back to linear elements "
            f"on {count} of {mesh.n_elements} elements",
            stacklevel=2,
        )
    return unit[index]


def element_bubbles(shapes: np.ndarray, nodal: np.ndarray) -> np.ndarray:
    """Unit-element bubble amplitudes, shape (n_elements, order - 1), of the
    field with nodal values ``nodal`` in the shapes of :func:`element_shapes`."""
    return shapes[..., 0] * nodal[:-1, None] + shapes[..., 1] * nodal[1:, None]


def default_quad_points(order: int) -> int:
    """Gauss rule size that integrates the element products exactly
    (degree 2*order): the rule of the oracle for :func:`element_integrals`."""
    if order + 1 > 10:
        raise ValueError(
            f"enrichment order {order} exceeds exact-quadrature reach (order <= 9)"
        )
    return min(max(4, order + 2), 10)


def element_integrals(
    lengths: np.ndarray, shapes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The integrals int N_i' N_j', int N_i N_j' and int N_i N_j over every
    element, each of shape (n_elements, 2, 2), exact at every order.

    With x = l s the shape pair is f E in the unit basis f of
    :func:`~bubblefem.enrichment._unit_tensor`, with the (order + 1, 2)
    matrix E = [[1, 0], [0, 1], [shapes]] of the unit-element amplitudes of
    :func:`element_shapes`, so the blocks are E^T T E / l, E^T T E and
    l E^T T E for the matching T.
    """
    order = shapes.shape[1] + 1
    e = np.concatenate([np.broadcast_to(np.eye(2), (lengths.size, 2, 2)), shapes], axis=1)
    # int D_a f_i D_b f_j for (D_a, D_b) = (d/ds, d/ds), (1, d/ds), (1, 1)
    tensors = _unit_tensor(order)[(1, 2, 2), (1, 1, 2), None]
    dd, cd, mm = (e.swapaxes(1, 2) @ tensors) @ e
    l = lengths[:, None, None]
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


def _scatter(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Global (sub, diag, sup) over all nodes of the (n_elements, 2, 2)
    element blocks, each node's diagonal the sum of its two blocks' entries."""
    diag = np.zeros(blocks.shape[0] + 1)
    diag[:-1] += blocks[:, 0, 0]
    diag[1:] += blocks[:, 1, 1]
    return blocks[:, 1, 0].copy(), diag, blocks[:, 0, 1].copy()


def _assemble(problem: SteadyProblem, mesh: Mesh1D, shapes: np.ndarray) -> TridiagonalSystem:
    c = problem.coefficients
    dd, cd, mm = element_integrals(mesh.lengths, shapes)
    k = -c.epsilon * dd + c.kappa * cd + c.lambda_ * mm
    sub, diag, sup = _scatter(k)
    rhs = np.zeros_like(diag)

    # natural boundary term -eps {w u'}: +eps*g at the left end, -eps*g at the right
    if not problem.bc_left.is_dirichlet:
        rhs[0] += c.epsilon * problem.bc_left.value
    if not problem.bc_right.is_dirichlet:
        rhs[-1] += -c.epsilon * problem.bc_right.value

    # Dirichlet by row replacement and column elimination into neighbour rhs.
    # The replaced row reads s u = s g, with s the largest power of two not
    # above the largest element-matrix entry: on the matrix's own scale, so
    # the solver's relative pivot test does not take it for singular, and
    # (s g) / s is exactly g.
    scale = np.ldexp(1.0, np.frexp(np.abs(k).max())[1] - 1)
    if problem.bc_left.is_dirichlet:
        value = problem.bc_left.value
        rhs[1] -= sub[0] * value
        sub[0] = 0.0
        diag[0] = scale
        sup[0] = 0.0
        rhs[0] = scale * value
    if problem.bc_right.is_dirichlet:
        value = problem.bc_right.value
        rhs[-2] -= sup[-1] * value
        sup[-1] = 0.0
        diag[-1] = scale
        sub[-1] = 0.0
        rhs[-1] = scale * value
    return TridiagonalSystem(sub=sub, diag=diag, sup=sup, rhs=rhs)


def assemble_steady(
    problem: SteadyProblem, mesh: Mesh1D, enrichment: EnrichmentKind = LINEAR
) -> TridiagonalSystem:
    """Assemble the global tridiagonal system with boundary conditions applied."""
    _check_mesh_covers(problem.domain, mesh)
    return _assemble(problem, mesh, element_shapes(problem.coefficients, mesh, enrichment))


def solve_steady(
    problem: SteadyProblem, mesh: Mesh1D, enrichment: EnrichmentKind = LINEAR
) -> SolutionField:
    """Solve the steady problem; the field carries per-element bubble
    amplitudes reconstructed from the nodal solution."""
    _check_mesh_covers(problem.domain, mesh)
    shapes = element_shapes(problem.coefficients, mesh, enrichment)
    nodal = solve_tridiagonal(_assemble(problem, mesh, shapes))
    return SolutionField(mesh, nodal, enrichment, element_bubbles(shapes, nodal))
