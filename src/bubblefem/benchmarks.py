"""Benchmark problems, exact solutions, error norms, and reference tables.

Two benchmarks are covered:

* steady reaction-diffusion with a sharp boundary layer,
      -u''/100 + u = 0 on [0, 10], u(0) = 3/2, u'(10) = 0;
* transient diffusion with lateral loss,
      du/dt - u'' + u = 0 on [0, pi], u(x, 0) = sin(x), zero ends,
  whose exact solution is sin(x) exp(-2t).

Reference tables for the two-element transient case are stored verbatim
so reproductions can be checked cell by cell at their 3-decimal precision
(tolerance +/- 0.001).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .model import (
    BoundaryCondition,
    EnrichmentKind,
    LINEAR,
    QUADRATIC_BUBBLE,
    SolutionField,
    SteadyProblem,
    TransientProblem,
    TransportCoefficients,
    uniform_mesh,
)
from .quadrature import gauss_rule
from .steady import solve_steady
from .transient import semi_analytic_two_element

TABLE_TOL = 1e-3
_NORM_QUAD_POINTS = 8  # Gauss points per element of the error report's L2 norm


@dataclass(frozen=True)
class ErrorReport:
    """Nodal max error and L2 error of a field against an exact solution."""

    nodal_linf: float
    l2: float
    element_count: int
    enrichment: EnrichmentKind


def steady_benchmark_problem() -> SteadyProblem:
    """Boundary-layer reaction-diffusion problem on [0, 10]."""
    return SteadyProblem(
        coefficients=TransportCoefficients(epsilon=-0.01, kappa=0.0, lambda_=1.0),
        domain=(0.0, 10.0),
        bc_left=BoundaryCondition.dirichlet(1.5),
        bc_right=BoundaryCondition.neumann_flux(0.0),
    )


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
    if not l > 0:
        raise ValueError(f"element length must be positive, got {l}")
    return -25.0 * (25.0 * l**2 + 3.0) / (250.0 * l**4 + 50.0 * l**2 + 3.0) * (ul + u0)


def transient_benchmark_problem() -> TransientProblem:
    """Heat flow with lateral loss on [0, pi], initial profile sin(x)."""
    return TransientProblem(
        epsilon=-1.0, domain=(0.0, math.pi), initial_profile=math.sin, lambda_=1.0
    )


def exact_transient_benchmark(x: float, t: float) -> float:
    """Exact transient benchmark solution sin(x) exp(-2t)."""
    if not 0.0 <= x <= math.pi:
        raise ValueError(f"x={x} outside the benchmark domain [0, pi]")
    if t < 0.0:
        raise ValueError(f"t={t} must be nonnegative")
    return math.sin(x) * math.exp(-2.0 * t)


def error_report(
    field: SolutionField, exact: Callable[[np.ndarray], np.ndarray]
) -> ErrorReport:
    """Nodal L-infinity and element-quadrature L2 error of a field.

    ``exact`` takes an ndarray of points of any shape and returns the exact
    solution there; a result that broadcasts to the points' shape, such as a
    constant, is accepted.  It is called twice: on the mesh nodes, and on
    the ``(n_elements, 8)`` array of Gauss points of the L2 norm.
    """
    mesh = field.mesh
    nodal_linf = float(np.max(np.abs(field.nodal_values - _exact_at(exact, mesh.nodes))))
    rule = gauss_rule(_NORM_QUAD_POINTS)
    l = mesh.lengths[:, None]
    local = 0.5 * l * (rule.points + 1.0)
    num = field.eval_on_element(np.arange(mesh.n_elements), local)
    ref = _exact_at(exact, mesh.nodes[:-1, None] + local)
    total = float(np.sum(0.5 * l * rule.weights * (num - ref) ** 2))
    return ErrorReport(
        nodal_linf=nodal_linf,
        l2=math.sqrt(total),
        element_count=mesh.n_elements,
        enrichment=field.enrichment,
    )


def _exact_at(exact: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    return np.broadcast_to(np.asarray(exact(x), dtype=float), x.shape)


@dataclass(frozen=True)
class TableRow:
    """One benchmark table row: computed values next to the reference ones."""

    coordinate: float
    exact: float
    bubble: float
    linear: float
    reference_exact: float
    reference_bubble: float
    reference_linear: float

    @property
    def passes(self) -> bool:
        """Computed columns match the reference ones at 3-decimal precision."""
        return (
            abs(self.bubble - self.reference_bubble) <= TABLE_TOL
            and abs(self.linear - self.reference_linear) <= TABLE_TOL
        )


# two-element reference values, rows (exact, bubble, linear)
REFERENCE_PROFILE_T0 = (
    (0.0, 0.0, 0.0),
    (0.195, 0.180, 0.125),
    (0.382, 0.345, 0.25),
    (0.555, 0.494, 0.375),
    (0.707, 0.627, 0.5),
    (0.831, 0.744, 0.625),
    (0.923, 0.845, 0.75),
    (0.980, 0.930, 0.875),
    (1.0, 1.0, 1.0),
    (0.980, 0.930, 0.875),
    (0.923, 0.845, 0.75),
    (0.831, 0.744, 0.625),
    (0.707, 0.627, 0.5),
    (0.555, 0.494, 0.375),
    (0.382, 0.345, 0.25),
    (0.195, 0.180, 0.125),
    (0.0, 0.0, 0.0),
)

REFERENCE_HISTORY = (
    (0.0, 0.382, 0.345, 0.25),
    (0.1, 0.313, 0.281, 0.200),
    (0.2, 0.256, 0.230, 0.160),
    (0.3, 0.210, 0.187, 0.128),
    (0.4, 0.171, 0.153, 0.103),
    (0.5, 0.140, 0.125, 0.082),
    (0.6, 0.115, 0.102, 0.066),
    (0.7, 0.094, 0.083, 0.053),
    (0.8, 0.077, 0.067, 0.042),
    (0.9, 0.063, 0.055, 0.034),
    (1.0, 0.051, 0.045, 0.027),
)

HISTORY_PROBE = 7.0 * math.pi / 8.0


def _table_rows(points, references) -> list[TableRow]:
    """Rows of the two-element semi-analytic solutions at ``(coordinate, x,
    t)`` points, next to their reference (exact, bubble, linear) triples."""
    problem = transient_benchmark_problem()
    bubble = semi_analytic_two_element(problem, QUADRATIC_BUBBLE, sign_compat=True)
    linear = semi_analytic_two_element(problem, LINEAR)
    return [
        TableRow(
            coordinate=coordinate,
            exact=exact_transient_benchmark(x, t),
            bubble=bubble(x, t),
            linear=linear(x, t),
            reference_exact=ref[0],
            reference_bubble=ref[1],
            reference_linear=ref[2],
        )
        for (coordinate, x, t), ref in zip(points, references)
    ]


def profile_table() -> list[TableRow]:
    """Solution profiles at t = 0: 17 rows at x = k pi/16, k = 0..16,
    two-element semi-analytic solutions against the exact profile."""
    xs = [k * math.pi / 16.0 for k in range(len(REFERENCE_PROFILE_T0))]
    return _table_rows([(x, x, 0.0) for x in xs], REFERENCE_PROFILE_T0)


def history_table() -> list[TableRow]:
    """Decay histories at the probe x = 7 pi/8: 11 rows at t = 0, 0.1, ..., 1."""
    points = [(t, HISTORY_PROBE, t) for t, *_ in REFERENCE_HISTORY]
    return _table_rows(points, [ref for _, *ref in REFERENCE_HISTORY])


def convergence_study(
    problem: SteadyProblem,
    exact: Callable[[np.ndarray], np.ndarray],
    enrichments: Iterable[EnrichmentKind],
    element_counts: Sequence[int],
) -> list[ErrorReport]:
    """Error reports for each (enrichment, element count) pair on uniform
    meshes; ``exact`` follows ``error_report``'s array contract."""
    if any(n < 1 for n in element_counts):
        raise ValueError("element counts must be >= 1")
    a, b = problem.domain
    reports = []
    for enrichment in enrichments:
        for count in element_counts:
            field = solve_steady(problem, uniform_mesh(a, b, count), enrichment)
            reports.append(error_report(field, exact))
    return reports
