"""Batched element kernel, global assembly, boundary conditions, and the
steady solve.

The weak form of epsilon*u'' + kappa*u' + lambda*u = 0 on one element reads

    -eps int w' u' + kap int w u' + lam int w u  =  -eps {w u'}_0^l

with Bubnov-Galerkin weights equal to the enriched trial basis.  One
kernel builds the three weight-trial products of many elements at once,
at any enrichment order, from the exact unit-element tensor that the
bubble coefficients are solved with; steady and transient assembly both
combine its blocks.  At enrichment orders 2 and above the coefficients
and the kernel run once per distinct element length (a uniform mesh has a
few, a graded one one per element) and the combined blocks are gathered
to the elements, bit for bit the blocks of the kernel run per element;
linear elements run it per element.
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


def _distinct_shapes(
    coeffs: TransportCoefficients, mesh: Mesh1D, enrichment: EnrichmentKind, stacklevel: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The element lengths to run the kernel on, the unit-element shapes of
    each, shape (n_rows, order - 1, 2), and the index that gathers the rows
    to the elements, so that ``_gather(unit, index)`` is
    :func:`element_shapes`.  At order 2 and above the rows are the sorted
    distinct lengths (a uniform mesh has one or a few, a graded one as many
    as it has elements).  At order 1 there are no shapes to share, and
    every element is its own row with no ``np.unique``: the lengths are
    the mesh's and the index is None.

    The fallback warning is issued ``stacklevel`` frames above the caller of
    this helper, as :func:`warnings.warn` counts them, so that every public
    entry point reports the line that called it.
    """
    if enrichment.order == 1:
        return mesh.lengths, np.zeros((mesh.n_elements, 0, 2)), None
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
            stacklevel=stacklevel + 1,
        )
    return lengths, unit, index


def _gather(rows: np.ndarray, index: np.ndarray | None) -> np.ndarray:
    """The rows of the elements, for the ``index`` of :func:`_distinct_shapes`:
    ``rows`` itself when every element is its own row (order 1), else one ``take``
    along the first axis, which copies whole rows where fancy indexing
    copies entry by entry (about 7x faster on (n, 2, 2) blocks)."""
    return rows if index is None else rows.take(index, axis=0)


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
    distinct element length and every order at once, and its rows are
    gathered to the elements.

    A degenerate operator on some length falls back to plain hats (a zero
    row) for the elements of that length.  One warning per call, at the
    caller's line, names the degenerate length, or the count and range of
    such lengths, and the number of elements that fell back.
    """
    _, unit, index = _distinct_shapes(coeffs, mesh, enrichment, stacklevel=2)
    return _gather(unit, index)


def element_bubbles(shapes: np.ndarray, nodal: np.ndarray) -> np.ndarray:
    """Unit-element bubble amplitudes, shape (n_elements, order - 1), of the
    field with nodal values ``nodal`` in the shapes of :func:`element_shapes`."""
    return shapes[..., 0] * nodal[:-1, None] + shapes[..., 1] * nodal[1:, None]


def default_quad_points(order: int) -> int:
    """Gauss rule size that integrates the element products exactly
    (degree 2*order).  No package code calls it: its readers are the Gauss
    oracle of :func:`element_integrals` in ``tests/test_steady.py`` and the
    benchmark harness (``perfbench/workloads.py`` and its smoke test)."""
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
    l E^T T E for the matching T.  At order 1, E is the identity and the
    blocks are the hat blocks of T scaled by 1/l, 1 and l, with no products;
    they equal the product form bit for bit.
    """
    order = shapes.shape[1] + 1
    # int D_a f_i D_b f_j for (D_a, D_b) = (d/ds, d/ds), (1, d/ds), (1, 1)
    tensors = _unit_tensor(order)[(1, 2, 2), (1, 1, 2), None]
    l = lengths[:, None, None]
    if order == 1:
        dd, cd, mm = tensors[:, 0]
        return dd / l, np.repeat(cd[None], lengths.size, axis=0), mm * l
    e = np.concatenate([np.broadcast_to(np.eye(2), (lengths.size, 2, 2)), shapes], axis=1)
    dd, cd, mm = (e.swapaxes(1, 2) @ tensors) @ e
    return dd / l, cd, mm * l


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


def _assemble(
    problem: SteadyProblem, lengths: np.ndarray, unit: np.ndarray, index: np.ndarray | None
) -> TridiagonalSystem:
    """The global system with boundary conditions applied, from the element
    kernel run once per row of :func:`_distinct_shapes` (``lengths``,
    ``unit`` and ``index``): each row's block -eps dd + kap cd + lam mm is
    formed once and gathered to its elements before the scatter.  The
    arithmetic is elementwise, so the blocks equal those of the kernel run
    per element bit for bit."""
    c = problem.coefficients
    dd, cd, mm = element_integrals(lengths, unit)
    k = _gather(-c.epsilon * dd + c.kappa * cd + c.lambda_ * mm, index)
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
    return _assemble(
        problem, *_distinct_shapes(problem.coefficients, mesh, enrichment, stacklevel=2)
    )


def solve_steady(
    problem: SteadyProblem, mesh: Mesh1D, enrichment: EnrichmentKind = LINEAR
) -> SolutionField:
    """Solve the steady problem; the field carries per-element bubble
    amplitudes reconstructed from the nodal solution."""
    _check_mesh_covers(problem.domain, mesh)
    lengths, unit, index = _distinct_shapes(problem.coefficients, mesh, enrichment, stacklevel=2)
    nodal = solve_tridiagonal(_assemble(problem, lengths, unit, index))
    return SolutionField(mesh, nodal, enrichment, element_bubbles(_gather(unit, index), nodal))
