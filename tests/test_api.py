import bubblefem

REMOVED = (
    "ElementPolynomial",
    "ElementStiffness",
    "ShapeFunctions",
    "apply_operator",
    "bubble_basis",
    "cubic_coefficients",
    "element_stiffness_quadrature",
    "eval_field",
    "integrate",
    "quadratic_coefficient_closed",
    "shape_functions",
    "step_trapezoidal",
    "transient_element_matrices_quadrature",
)


def test_every_exported_name_resolves():
    missing = [name for name in bubblefem.__all__ if not hasattr(bubblefem, name)]
    assert missing == []
    assert len(set(bubblefem.__all__)) == len(bubblefem.__all__)


def test_removed_names_are_gone():
    assert [name for name in REMOVED if name in bubblefem.__all__] == []
    assert [name for name in REMOVED if hasattr(bubblefem, name)] == []
