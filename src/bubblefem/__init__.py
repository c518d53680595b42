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
    history_table,
    profile_table,
    steady_benchmark_problem,
    transient_benchmark_problem,
)
from .enrichment import (
    BubbleSolution,
    QuadraticEnrichment,
    ls_bubble,
    quadratic_ab,
    residual_functional,
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
from .oracles import gauss_rule  # read by the benchmark harness's traced replay
from .steady import assemble_steady, solve_steady
from .transient import (
    Trajectory,
    TransientSystem,
    assemble_transient,
    semi_analytic_two_element,
    slowest_decay_rate,
    solve_transient,
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
    "REFERENCE_HISTORY",
    "REFERENCE_PROFILE_T0",
    "SolutionField",
    "SteadyProblem",
    "TableRow",
    "Trajectory",
    "TransientProblem",
    "TransientSystem",
    "TransportCoefficients",
    "TridiagonalSystem",
    "assemble_steady",
    "assemble_transient",
    "convergence_study",
    "error_report",
    "gauss_rule",
    "history_table",
    "ls_bubble",
    "polynomial_bubble",
    "profile_table",
    "quadratic_ab",
    "residual_functional",
    "semi_analytic_two_element",
    "slowest_decay_rate",
    "solve_steady",
    "solve_transient",
    "solve_tridiagonal",
    "steady_benchmark_problem",
    "transient_benchmark_problem",
    "uniform_mesh",
]
