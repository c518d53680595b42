import ast
from pathlib import Path

import bubblefem
from bubblefem import oracles

REMOVED = (
    "ElementPolynomial",
    "ElementStiffness",
    "QuadratureRule",
    "ShapeFunctions",
    "TransientElementMatrices",
    "apply_operator",
    "bubble_2d_coefficient",
    "bubble_basis",
    "cubic_closed_forms",
    "cubic_coefficients",
    "element_stiffness_closed",
    "element_stiffness_quadrature",
    "eval_field",
    "exact_steady_benchmark",
    "exact_transient_benchmark",
    "integrate",
    "quadratic_ab_closed",
    "quadratic_coefficient_closed",
    "residual_functional_2d",
    "shape_functions",
    "steady_benchmark_bubble_coefficient",
    "step_trapezoidal",
    "transient_coefficient",
    "transient_element_matrices",
    "transient_element_matrices_quadrature",
)

# closed forms, exact solutions and the reference Gauss rule: test oracles only
ORACLES = (
    "DEGENERACY_TOL",
    "QuadratureRule",
    "TransientElementMatrices",
    "bubble_2d_coefficient",
    "cubic_closed_forms",
    "element_stiffness_closed",
    "exact_steady_benchmark",
    "exact_transient_benchmark",
    "gauss_rule",
    "quadratic_ab_closed",
    "residual_functional_2d",
    "steady_benchmark_bubble_coefficient",
    "transient_coefficient",
    "transient_element_matrices",
)

RUNTIME_MODULES = ("model", "enrichment", "linalg", "steady", "transient")


def test_every_exported_name_resolves():
    missing = [name for name in bubblefem.__all__ if not hasattr(bubblefem, name)]
    assert missing == []
    assert len(set(bubblefem.__all__)) == len(bubblefem.__all__)


def test_removed_names_are_gone():
    assert [name for name in REMOVED if name in bubblefem.__all__] == []
    assert [name for name in REMOVED if hasattr(bubblefem, name)] == []


def test_every_oracle_resolves_in_the_oracles_module():
    assert [name for name in ORACLES if not hasattr(oracles, name)] == []


def imports_oracles(source: str) -> bool:
    """Whether an ``import`` or ``from`` statement in ``source`` reads a
    module named ``oracles``, in any of the forms ``from .oracles import x``,
    ``from . import oracles`` or ``import bubblefem.oracles``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        else:
            continue
        if any("oracles" in name.split(".") for name in names):
            return True
    return False


def test_runtime_modules_do_not_import_the_oracles():
    package = Path(bubblefem.__file__).parent
    assert imports_oracles((package / "benchmarks.py").read_text())
    assert [m for m in RUNTIME_MODULES if imports_oracles((package / f"{m}.py").read_text())] == []
