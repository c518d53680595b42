"""Shared domain types: operator coefficients, meshes, boundary conditions,
problem definitions, and the evaluable solution field.

The steady operator is ``epsilon*u'' + kappa*u' + lambda*u = 0`` with the
coefficients stored exactly as given (no sign normalisation); diffusion-
dominated benchmarks therefore carry a negative ``epsilon``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import IllPosedProblemError

_PROFILE_END_TOL = 1e-8


@dataclass(frozen=True)
class TransportCoefficients:
    """Coefficient triple of the operator epsilon*u'' + kappa*u' + lambda*u."""

    epsilon: float
    kappa: float
    lambda_: float

    def __post_init__(self):
        vals = (self.epsilon, self.kappa, self.lambda_)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"coefficients must be finite, got {vals}")
        if all(v == 0.0 for v in vals):
            raise ValueError("null operator: at least one coefficient must be nonzero")


class BCType(Enum):
    DIRICHLET = "dirichlet"
    NEUMANN_FLUX = "neumann"


@dataclass(frozen=True)
class BoundaryCondition:
    """Dirichlet value or prescribed boundary derivative du/dx."""

    kind: BCType
    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError(f"boundary value must be finite, got {self.value}")

    @staticmethod
    def dirichlet(value: float) -> "BoundaryCondition":
        return BoundaryCondition(BCType.DIRICHLET, float(value))

    @staticmethod
    def neumann_flux(value: float) -> "BoundaryCondition":
        return BoundaryCondition(BCType.NEUMANN_FLUX, float(value))

    @property
    def is_dirichlet(self) -> bool:
        return self.kind is BCType.DIRICHLET


@dataclass(frozen=True)
class EnrichmentKind:
    """Trial-space choice: order 1 keeps plain hat functions, order p >= 2
    adds the polynomial bubble span {x^k (l - x), k = 1..p-1} per element."""

    order: int

    def __post_init__(self):
        if not isinstance(self.order, (int, np.integer)) or self.order < 1:
            raise ValueError(f"enrichment order must be an integer >= 1, got {self.order!r}")

    @property
    def bubble_count(self) -> int:
        """Number of bubble coefficients carried per element."""
        return max(0, self.order - 1)

    @property
    def name(self) -> str:
        return {1: "linear", 2: "quadratic", 3: "cubic"}.get(self.order, f"poly{self.order}")


LINEAR = EnrichmentKind(1)
QUADRATIC_BUBBLE = EnrichmentKind(2)
CUBIC_BUBBLE = EnrichmentKind(3)


def polynomial_bubble(order: int) -> EnrichmentKind:
    """Bubble enrichment of polynomial order ``order`` (>= 2)."""
    if order < 2:
        raise ValueError(f"polynomial bubble order must be >= 2, got {order}")
    return EnrichmentKind(order)


class Mesh1D:
    """Strictly increasing node coordinates x_0 < x_1 < ... < x_N."""

    def __init__(self, nodes: Sequence[float]):
        arr = np.array(nodes, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("mesh needs at least two nodes")
        if not np.all(np.isfinite(arr)):
            raise ValueError("mesh nodes must be finite")
        if not np.all(np.diff(arr) > 0):
            raise ValueError("mesh nodes must be strictly increasing")
        arr.setflags(write=False)
        lengths = np.diff(arr)
        lengths.setflags(write=False)
        self._nodes, self._lengths = arr, lengths

    @property
    def nodes(self) -> np.ndarray:
        """The node coordinates, a read-only array that cannot be reassigned
        either, so nothing built from it goes stale."""
        return self._nodes

    @property
    def lengths(self) -> np.ndarray:
        """The element lengths x_{j+1} - x_j, read-only as ``nodes`` is."""
        return self._lengths

    @property
    def n_elements(self) -> int:
        return self.nodes.size - 1

    @property
    def a(self) -> float:
        return float(self.nodes[0])

    @property
    def b(self) -> float:
        return float(self.nodes[-1])

    @cached_property
    def _node_list(self) -> list[float]:
        """The nodes as Python floats, for scalar lookups; built on first use."""
        return self.nodes.tolist()

    def element_index(self, x: float) -> int:
        """Index of the element containing x: right-open, so a node starts the
        element to its right, except b, which belongs to the last element.
        x outside [a, b] or NaN raises ValueError.  The index
        :meth:`_locate` finds, and the one :meth:`SolutionField.value` finds
        by the same bisection."""
        return self._locate(x)[0]

    def _locate(self, x: float) -> tuple[int, float, float]:
        """The element index of x (see :meth:`element_index`) with the local
        coordinate x - x_j and the length of that element, in Python floats;
        the length is x_{j+1} - x_j, the subtraction ``lengths`` holds.

        One bisection on the nodes as Python floats, with no numpy call.  Its
        upper bound leaves b out of the search, so b falls in the last
        element; x outside [a, b] or NaN raises ValueError.
        :meth:`Trajectory.value <bubblefem.transient.Trajectory.value>` locates
        through here; :meth:`SolutionField.value` runs the same bisection and
        subtractions in its own frame."""
        nodes = self._node_list
        if not nodes[0] <= x <= nodes[-1]:
            raise ValueError(f"x={x} outside domain [{self.a}, {self.b}]")
        j = bisect_right(nodes, x, 0, len(nodes) - 1) - 1
        left = nodes[j]
        return j, x - left, nodes[j + 1] - left

    def __repr__(self):
        return f"Mesh1D({self.n_elements} elements on [{self.a}, {self.b}])"


def uniform_mesh(a: float, b: float, n_elements: int) -> Mesh1D:
    """Mesh with ``n_elements`` equal sub-intervals of [a, b]."""
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    if not isinstance(n_elements, (int, np.integer)) or n_elements < 1:
        raise ValueError(f"n_elements must be an integer >= 1, got {n_elements!r}")
    return Mesh1D(np.linspace(a, b, n_elements + 1))


@dataclass(frozen=True)
class SteadyProblem:
    """Boundary value problem for the steady transport operator on [a, b]."""

    coefficients: TransportCoefficients
    domain: tuple[float, float]
    bc_left: BoundaryCondition
    bc_right: BoundaryCondition

    def __post_init__(self):
        a, b = self.domain
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise ValueError(f"invalid domain {self.domain}")
        if not (self.bc_left.is_dirichlet or self.bc_right.is_dirichlet):
            raise IllPosedProblemError(
                "at least one boundary condition must be Dirichlet"
            )


@dataclass(frozen=True)
class TransientProblem:
    """Diffusion with lateral loss: du/dt + epsilon*u'' + lambda*u = 0 on [a, b],
    homogeneous Dirichlet ends, initial profile u(x, 0) = f(x).  No convection."""

    epsilon: float
    domain: tuple[float, float]
    initial_profile: Callable[[float], float]
    lambda_: float = 1.0

    def __post_init__(self):
        a, b = self.domain
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise ValueError(f"invalid domain {self.domain}")
        if not (math.isfinite(self.epsilon) and math.isfinite(self.lambda_)):
            raise ValueError("epsilon and lambda must be finite")
        scale = max(1.0, abs(float(self.initial_profile(0.5 * (a + b)))))
        for end in (a, b):
            v = float(self.initial_profile(end))
            if abs(v) > _PROFILE_END_TOL * scale:
                raise ValueError(
                    f"initial profile must vanish at the boundary: f({end}) = {v}"
                )


class SolutionField:
    """Nodal values plus per-element bubble amplitudes, evaluable anywhere.

    Within element j with local coordinate t = x - x_j, length l and
    s = t / l:

        u(x) = u_j (1 - s) + u_{j+1} s + s (1 - s) sum_k d_{j,k} s^(k-1)

    ``bubble_coeffs[j]`` holds the unit-element amplitudes d_{j,k},
    k = 1..order-1, as :func:`~bubblefem.steady.element_bubbles` returns
    them; the coefficients of x^k (l - x) in x are d_{j,k} / l^(k+1).  The
    bubble factor s (1 - s) is kept in product form so it vanishes exactly
    at both element endpoints.  The field holds read-only copies of the
    nodal values and amplitudes, so no in-place write changes it, and its
    attributes cannot be reassigned, so the lists :meth:`value` builds on
    its first call stay those of :meth:`eval_on_element`.
    """

    def __init__(
        self,
        mesh: Mesh1D,
        nodal_values: Sequence[float],
        enrichment: EnrichmentKind = LINEAR,
        bubble_coeffs: np.ndarray | None = None,
    ):
        values = np.array(nodal_values, dtype=float)
        if values.shape != mesh.nodes.shape:
            raise ValueError(
                f"expected {mesh.nodes.size} nodal values, got {values.size}"
            )
        n_bub = enrichment.bubble_count
        if bubble_coeffs is None:
            bubble_coeffs = np.zeros((mesh.n_elements, n_bub))
        coeffs = np.array(bubble_coeffs, dtype=float).reshape(mesh.n_elements, -1)
        if coeffs.shape[1] != n_bub:
            raise ValueError(
                f"expected {n_bub} bubble coefficients per element, got {coeffs.shape[1]}"
            )
        values.setflags(write=False)
        coeffs.setflags(write=False)
        self._mesh = mesh
        self._nodal_values = values
        self._enrichment = enrichment
        self._bubble_coeffs = coeffs

    @property
    def mesh(self) -> Mesh1D:
        return self._mesh

    @property
    def nodal_values(self) -> np.ndarray:
        return self._nodal_values

    @property
    def enrichment(self) -> EnrichmentKind:
        return self._enrichment

    @property
    def bubble_coeffs(self) -> np.ndarray:
        return self._bubble_coeffs

    def eval_on_element(self, j: int | np.ndarray, local: np.ndarray) -> np.ndarray:
        """Evaluate at local coordinates in [0, l_j] of element ``j``.

        ``j`` is one element index, and ``local`` then holds points of that
        element in any shape; or ``j`` is a 1-D index array, and row i of
        ``local`` (a scalar or a 1-D row) lies on element ``j[i]``.  The
        result has the shape of ``local``.  ``benchmarks.error_report`` and
        ``Trajectory.value`` evaluate through :func:`element_values` too, and
        :meth:`value` runs its float operations inline.
        """
        local = np.asarray(local, dtype=float)
        j = np.asarray(j)
        if j.size and not (0 <= j.min() and j.max() < self.mesh.n_elements):
            raise ValueError(f"element index outside 0..{self.mesh.n_elements - 1}")
        t = local.reshape(j.shape + (-1,))
        u, l = self.nodal_values, self.mesh.lengths[j][..., None]
        out = element_values(l, u[j][..., None], u[j + 1][..., None], self.bubble_coeffs[j], t)
        return out.reshape(local.shape)

    @cached_property
    def _lists(self) -> tuple[list[float], int, list[float], list[list[float]]]:
        """What the scalar :meth:`value` reads, built on its first call: the
        mesh's nodes as a Python list with the index of its last node, the
        nodal values as a list, and the amplitudes as one list per element
        (:func:`_element_rows`), highest power first, the order in which
        Horner's rule takes them."""
        return (self.mesh._node_list, self.mesh.n_elements, self.nodal_values.tolist(),
                _element_rows(self.bubble_coeffs[:, ::-1]))

    def value(self, x: float) -> float:
        """Field value at one point x, as a Python float; x outside the mesh,
        NaN or infinite raises ValueError.

        All in this one frame, on Python floats and lists, with no numpy
        call: the bisection of :meth:`Mesh1D._locate`, then s = t / l and
        Horner's rule on the element's row of amplitudes as
        :func:`element_values` runs them, the same float operations in the
        same order, so the value is the one :meth:`eval_on_element` gives at
        x - x_j.  It is the stored nodal value exactly at nodes: the
        bisection is right-open, so s = 0 exactly at a node, and at b t is
        the same subtraction as the last length, so s = 1 exactly.  A point
        costs about 0.45-0.7 us on a steady field of 200-1000 elements of
        orders 1-3, against 0.65-1.05 us through a locate call and a kernel
        call (2-core AMD EPYC, Python 3.11)."""
        x = float(x)
        nodes, last, u, rows = self._lists
        if not nodes[0] <= x <= nodes[last]:
            raise ValueError(f"x={x} outside domain [{nodes[0]}, {nodes[last]}]")
        j = bisect_right(nodes, x, 0, last) - 1
        left = nodes[j]
        s = (x - left) / (nodes[j + 1] - left)
        out = u[j] * (1.0 - s) + u[j + 1] * s
        row = rows[j]
        if row:
            poly = 0.0
            for d in row:
                poly = poly * s + d
            out = out + s * (1.0 - s) * poly
        return out

    __call__ = value


def _element_rows(per_element: np.ndarray) -> list[list]:
    """``per_element.tolist()``, one row per element, for the scalar
    evaluations; when the rows are empty (order 1), one empty list that
    every element shares, so that no list is made per element."""
    return per_element.tolist() if per_element.size else [[]] * len(per_element)


def element_values(
    l: np.ndarray | float,
    u0: np.ndarray | float,
    u1: np.ndarray | float,
    coeffs: np.ndarray | list,
    t: np.ndarray | float,
) -> np.ndarray | float:
    """The one evaluation kernel: u0 (1 - s) + u1 s + s (1 - s) p(s) with
    s = t / l at local coordinates ``t``, and p(s) = d_1 + d_2 s + ... the
    polynomial of the unit-element amplitudes ``coeffs``, by Horner's rule.
    ``l``, ``u0`` and ``u1`` broadcast against ``t``, as ``coeffs`` without
    its last axis does, so one call serves a single element or all of them.
    Python floats for ``l``, ``u0``, ``u1`` and ``t`` with a list of floats
    for ``coeffs`` (taken as it is) evaluate one point in floats, with no
    numpy call and no Python-level call, bit for bit as an array
    call would: the same operations in the same order, none fused.
    :meth:`Trajectory.value <bubblefem.transient.Trajectory.value>` is the
    one scalar caller of that list branch; :meth:`SolutionField.value` runs
    the same operations inline, in its own frame."""
    s = t / l
    out = u0 * (1.0 - s) + u1 * s
    if not isinstance(coeffs, list):
        coeffs = [coeffs[..., k, None] for k in range(coeffs.shape[-1])]
    if coeffs:
        poly = 0.0
        for d in reversed(coeffs):
            poly = poly * s + d
        out = out + s * (1.0 - s) * poly
    return out
