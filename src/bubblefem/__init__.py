"""Finite elements for 1D convection-diffusion-reaction transport with
least-squares bubble-function enrichment.

Standard linear elements are enhanced per element by polynomial bubble
functions x^k (l - x) whose coefficients minimise the integrated squared
operator residual, adding boundary-layer resolution without any extra
global degrees of freedom.
"""

from .benchmarks import (
    ErrorReport,
    HISTORY_PROBE,
    REFERENCE_HISTORY,
    REFERENCE_PROFILE_T0,
    TableRow,
    convergence_study,
    error_report,
    exact_steady_benchmark,
    exact_transient_benchmark,
    history_table,
    profile_table,
    steady_benchmark_bubble_coefficient,
    steady_benchmark_problem,
    transient_benchmark_problem,
)
from .enrichment import (
    BubbleSolution,
    QuadraticEnrichment,
    bubble_2d_coefficient,
    cubic_closed_forms,
    ls_bubble,
    quadratic_ab,
    quadratic_ab_closed,
    residual_functional,
    residual_functional_2d,
    transient_coefficient,
)
from .errors import (
    AssemblyError,
    DegenerateOperatorError,
    IllPosedProblemError,
    LinearSolveError,
)
from .linalg import TridiagonalSystem, solve_tridiagonal
from .model import (
    BCType,
    BoundaryCondition,
    CUBIC_BUBBLE,
    EnrichmentKind,
    LINEAR,
    Mesh1D,
    QUADRATIC_BUBBLE,
    SolutionField,
    SteadyProblem,
    TransientProblem,
    TransportCoefficients,
    polynomial_bubble,
    uniform_mesh,
)
from .quadrature import QuadratureRule, gauss_rule
from .steady import (
    assemble_steady,
    element_stiffness_closed,
    solve_steady,
)
from .transient import (
    Trajectory,
    TransientElementMatrices,
    TransientSystem,
    assemble_transient,
    semi_analytic_two_element,
    slowest_decay_rate,
    solve_transient,
    transient_element_matrices,
)

__version__ = "0.1.0"

__all__ = [
    "AssemblyError",
    "BCType",
    "BoundaryCondition",
    "BubbleSolution",
    "CUBIC_BUBBLE",
    "DegenerateOperatorError",
    "EnrichmentKind",
    "ErrorReport",
    "HISTORY_PROBE",
    "IllPosedProblemError",
    "LINEAR",
    "LinearSolveError",
    "Mesh1D",
    "QUADRATIC_BUBBLE",
    "QuadraticEnrichment",
    "QuadratureRule",
    "REFERENCE_HISTORY",
    "REFERENCE_PROFILE_T0",
    "SolutionField",
    "SteadyProblem",
    "TableRow",
    "Trajectory",
    "TransientElementMatrices",
    "TransientProblem",
    "TransientSystem",
    "TransportCoefficients",
    "TridiagonalSystem",
    "assemble_steady",
    "assemble_transient",
    "bubble_2d_coefficient",
    "convergence_study",
    "cubic_closed_forms",
    "element_stiffness_closed",
    "error_report",
    "exact_steady_benchmark",
    "exact_transient_benchmark",
    "gauss_rule",
    "history_table",
    "ls_bubble",
    "polynomial_bubble",
    "profile_table",
    "quadratic_ab",
    "quadratic_ab_closed",
    "residual_functional",
    "residual_functional_2d",
    "semi_analytic_two_element",
    "slowest_decay_rate",
    "solve_steady",
    "solve_transient",
    "solve_tridiagonal",
    "steady_benchmark_bubble_coefficient",
    "steady_benchmark_problem",
    "transient_benchmark_problem",
    "transient_coefficient",
    "transient_element_matrices",
    "uniform_mesh",
]
