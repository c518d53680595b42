import contextlib
import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bubblefem import (
    BoundaryCondition,
    CUBIC_BUBBLE,
    DegenerateOperatorError,
    LINEAR,
    LinearSolveError,
    Mesh1D,
    QUADRATIC_BUBBLE,
    SteadyProblem,
    TransientProblem,
    TransportCoefficients,
    TridiagonalSystem,
    assemble_steady,
    assemble_transient,
    ls_bubble,
    polynomial_bubble,
    quadratic_ab,
    solve_steady,
    solve_transient,
    solve_tridiagonal,
    steady_benchmark_problem,
    uniform_mesh,
)
from bubblefem import linalg, steady
from bubblefem.linalg import _BLOCK, tridiagonal_matvec
from bubblefem.model import SolutionField
from bubblefem.oracles import (
    element_stiffness_closed,
    exact_steady_benchmark,
    gauss_rule,
    quadratic_ab_closed,
)
from bubblefem.enrichment import _unit_tensor
from bubblefem.steady import _scatter, default_quad_points, element_bubbles, element_integrals, element_shapes

RNG_SEED = 55441


def diffusion_problem(alpha, beta, epsilon=-1.0, domain=(0.0, 1.0)):
    return SteadyProblem(
        coefficients=TransportCoefficients(epsilon, 0.0, 0.0),
        domain=domain,
        bc_left=BoundaryCondition.dirichlet(alpha),
        bc_right=BoundaryCondition.dirichlet(beta),
    )


def one_element(coeffs, l, enrichment):
    """Lengths and unit-element shapes of a one-element mesh [0, l]."""
    mesh = Mesh1D([0.0, l])
    return mesh.lengths, element_shapes(coeffs, mesh, enrichment)


def x_coefficients(lengths, shapes):
    """The shapes' bubble coefficients c_k = d_k / l^(k+1) of x^k (l - x),
    shape (n_elements, 2, order - 1)."""
    powers = np.arange(2, shapes.shape[1] + 2)
    return shapes.swapaxes(1, 2) / np.asarray(lengths)[:, None, None] ** powers


def basis_at(coeffs, l, enrichment, x):
    """Left and right shape function values at the points x of [0, l]: the
    fields of unit nodal values."""
    mesh = Mesh1D([0.0, l])
    shapes = element_shapes(coeffs, mesh, enrichment)
    return tuple(
        SolutionField(mesh, nodal, enrichment, shapes[..., i]).eval_on_element(
            0, np.asarray(x, float)
        )
        for i, nodal in enumerate(([1.0, 0.0], [0.0, 1.0]))
    )


def bubble_poly(coeffs, x):
    """poly(c) = c_1 + c_2 x + ... by Horner's rule, with the coefficients on
    the last axis of ``coeffs``, whose leading axes broadcast against ``x``
    without the last one."""
    poly = 0.0
    for k in reversed(range(coeffs.shape[-1])):
        poly = poly * x + coeffs[..., k, None]
    return poly


def element_basis(lengths, shapes, x):
    """Oracle: the enriched nodal shape functions and their derivatives on
    every element, in x-coordinates,

        N_left  = (l - x)/l + x (l - x) * poly(c_left)
        N_right = x/l       + x (l - x) * poly(c_right)

    with poly(c) = c_1 + c_2 x + ... and c the :func:`x_coefficients` of
    the unit-element shapes.  ``x`` holds local coordinates in [0, l] of
    shape (n_elements, n_points); both results have shape
    (n_elements, 2, n_points).
    """
    l = lengths[:, None, None]
    x = x[:, None, :]
    coeffs = x_coefficients(lengths, shapes)
    factor = x * (l - x)
    p = bubble_poly(coeffs, x)
    dp = bubble_poly(coeffs[..., 1:] * np.arange(1, coeffs.shape[-1]), x)
    n = np.concatenate([(l - x) / l, x / l], axis=1) + factor * p
    dn = np.concatenate([-1.0 / l, 1.0 / l], axis=1) + ((l - 2.0 * x) * p + factor * dp)
    return n, dn


def element_matrix(coeffs, l, enrichment):
    """The steady 2x2 element matrix -eps D + kap C + lam M from the kernel."""
    dd, cd, mm = element_integrals(*one_element(coeffs, l, enrichment))
    return (-coeffs.epsilon * dd + coeffs.kappa * cd + coeffs.lambda_ * mm)[0]


def gauss_integrals(lengths, shapes, points, weights):
    """Oracle for the element kernel: the blocks int N_i' N_j', int N_i N_j'
    and int N_i N_j integrated by a rule on [-1, 1] through element_basis."""
    l = lengths[:, None]
    n, dn = element_basis(lengths, shapes, 0.5 * l * (points + 1.0))
    w = (0.5 * l * weights)[:, None, :]
    wn, dn_t = w * n, dn.swapaxes(1, 2)
    return (w * dn) @ dn_t, wn @ dn_t, wn @ n.swapaxes(1, 2)


def quadratic_ab_of(coeffs, l):
    """The nodal map (A, B) of the kernel's quadratic shape coefficients."""
    lengths, shapes = one_element(coeffs, l, QUADRATIC_BUBBLE)
    left, right = x_coefficients(lengths, shapes)[0, :, 0]
    return 0.5 * (left + right), 0.5 * (right - left)


class TestShapeFunctions:
    def test_linear_hats(self):
        _, shapes = one_element(TransportCoefficients(-1, 0, 1), 2.0, LINEAR)
        assert shapes.shape == (1, 0, 2)
        n_left, n_right = basis_at(TransportCoefficients(-1, 0, 1), 2.0, LINEAR, [1.0])
        assert n_left[0] == 0.5
        assert n_right[0] == 0.5

    def test_endpoint_values_exact(self):
        n_left, n_right = basis_at(
            TransportCoefficients(-0.01, 3.0, 1.0), 0.7, QUADRATIC_BUBBLE, [0.0, 0.7]
        )
        assert n_left.tolist() == [1.0, 0.0]
        assert n_right.tolist() == [0.0, 1.0]

    def test_midpoint_partition_defect(self):
        # N_left + N_right at l/2 equals 1 + 2A l^2/4: partition of unity
        # holds only for A = 0
        coeffs = TransportCoefficients(-0.01, 0.0, 1.0)
        l = 0.2
        n_left, n_right = basis_at(coeffs, l, QUADRATIC_BUBBLE, [l / 2])
        a_coef, _ = quadratic_ab_of(coeffs, l)
        assert n_left[0] + n_right[0] == pytest.approx(1.0 + 2 * a_coef * l**2 / 4, rel=1e-13)

    def test_benchmark_element_midpoint(self):
        coeffs = TransportCoefficients(-0.01, 0.0, 1.0)
        ab = quadratic_ab(coeffs, 0.2)
        n_left, _ = basis_at(coeffs, 0.2, QUADRATIC_BUBBLE, [0.1])
        assert n_left[0] == pytest.approx(0.5 + ab.a_coef * 0.01, rel=1e-13)

    def test_cubic_coefficients_from_unit_solves(self):
        coeffs = TransportCoefficients(-1.0, 1.0, 1.0)
        coeff_left, coeff_right = x_coefficients(*one_element(coeffs, 0.5, CUBIC_BUBBLE))[0]
        left = ls_bubble(coeffs, 0.5, 1.0, 0.0, order=3).coeffs
        right = ls_bubble(coeffs, 0.5, 0.0, 1.0, order=3).coeffs
        assert coeff_left == pytest.approx(left)
        assert coeff_right == pytest.approx(right)

    def test_cubic_derivatives_match_finite_differences(self):
        coeffs = TransportCoefficients(-1.0, 1.0, 1.0)
        l, h = 0.5, 1e-6
        x = np.array([[0.1, 0.27, 0.4]])
        args = one_element(coeffs, l, CUBIC_BUBBLE)
        _, dn = element_basis(*args, x)
        n_up, _ = element_basis(*args, x + h)
        n_dn, _ = element_basis(*args, x - h)
        assert dn == pytest.approx((n_up - n_dn) / (2 * h), rel=1e-7)

    @pytest.mark.parametrize("order", range(2, 10))
    def test_ls_bubble_is_the_x_coordinate_view_of_the_shapes(self, order):
        # ls_bubble's c_k times l^(k+1) is the unit-element shape applied to
        # the nodal pair, for diffusion-reaction, convection-diffusion and
        # convection-reaction operators across six decades of length
        nodal = np.array([0.7, -1.3])
        powers = np.arange(2, order + 1)
        for coeffs in (TransportCoefficients(-1.0, 0.0, 1.0),
                       TransportCoefficients(-1.0, 20.0, 0.0),
                       TransportCoefficients(0.0, 1.0, 1.0)):
            for l in np.logspace(-6.0, 1.0, 15):
                shapes = element_shapes(coeffs, Mesh1D([0.0, l]), polynomial_bubble(order))[0]
                got = ls_bubble(coeffs, l, *nodal, order=order).coeffs * l**powers
                bound = 1e-14 * np.abs(shapes) @ np.abs(nodal)
                assert np.all(np.abs(got - shapes @ nodal) <= bound)

    def test_shapes_follow_lengths(self):
        # equal lengths share coefficients; rows follow the element order
        coeffs = TransportCoefficients(-1.0, 1.0, 1.0)
        mesh = Mesh1D([0.0, 0.5, 0.75, 1.25])
        shapes = element_shapes(coeffs, mesh, CUBIC_BUBBLE)
        assert shapes.shape == (3, 2, 2)
        assert shapes[0].tolist() == shapes[2].tolist()
        left = x_coefficients(mesh.lengths, shapes)[1, 0]
        assert left == pytest.approx(ls_bubble(coeffs, 0.25, 1.0, 0.0, order=3).coeffs)


class TestElementStiffness:
    def test_pure_diffusion_hats(self):
        k = element_matrix(TransportCoefficients(-1.0, 0.0, 0.0), 1.0, LINEAR)
        assert k == pytest.approx(np.array([[1.0, -1.0], [-1.0, 1.0]]), abs=1e-14)

    def test_pure_convection_hats(self):
        k = element_matrix(TransportCoefficients(0.0, 1.0, 0.0), 1.0, LINEAR)
        assert k == pytest.approx(np.array([[-0.5, 0.5], [-0.5, 0.5]]), abs=1e-14)

    def test_closed_form_hat_pattern(self):
        # with A = B = 0 the first diagonal entry is -eps/l + lam*l/3 - kap/2
        for eps, kap, lam, l in [(-1, 0, 0, 1), (-0.3, 1.7, 2.0, 0.4), (-2, -3, 5, 1.3)]:
            closed = element_stiffness_closed(TransportCoefficients(eps, kap, lam), l, 0.0, 0.0)
            assert closed[0, 0] == pytest.approx(-eps / l + lam * l / 3 - kap / 2, rel=1e-13)
        unit = element_stiffness_closed(TransportCoefficients(-1, 0, 0), 1.0, 0.0, 0.0)
        assert unit == pytest.approx(np.array([[1.0, -1.0], [-1.0, 1.0]]), abs=1e-14)

    def test_benchmark_element_closed_vs_quadrature(self):
        coeffs = TransportCoefficients(-0.01, 0.0, 1.0)
        quad = element_matrix(coeffs, 0.2, QUADRATIC_BUBBLE)
        closed = element_stiffness_closed(coeffs, 0.2, *quadratic_ab_of(coeffs, 0.2))
        assert np.abs(closed - quad).max() <= 1e-12 * np.abs(quad).max()

    def test_transient_element_closed_vs_quadrature(self):
        coeffs = TransportCoefficients(-1.0, 0.0, 1.0)
        l = math.pi / 2
        quad = element_matrix(coeffs, l, QUADRATIC_BUBBLE)
        closed = element_stiffness_closed(coeffs, l, *quadratic_ab_of(coeffs, l))
        assert np.abs(closed - quad).max() <= 1e-12 * np.abs(quad).max()

    def test_closed_vs_quadrature_randomized(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(200):
            coeffs = TransportCoefficients(
                epsilon=-rng.uniform(1e-3, 10.0),
                kappa=rng.uniform(-10.0, 10.0),
                lambda_=rng.uniform(0.0, 10.0),
            )
            l = rng.uniform(0.01, 5.0)
            quad = element_matrix(coeffs, l, QUADRATIC_BUBBLE)
            closed = element_stiffness_closed(coeffs, l, *quadratic_ab_of(coeffs, l))
            scale = max(np.abs(quad).max(), np.abs(closed).max())
            assert np.abs(closed - quad).max() <= 1e-12 * scale


def magnitudes(low, high):
    return st.floats(low, high) | st.floats(-high, -low)


@st.composite
def pivoting_systems(draw, sizes=st.integers(2, 12)):
    """Tridiagonals with zero, tiny or small diagonals under larger
    off-diagonals, so that elimination interchanges rows."""
    n = draw(sizes)
    diag = draw(st.lists(st.just(0.0) | magnitudes(1e-18, 1e-9) | magnitudes(0.01, 1.0),
                         min_size=n, max_size=n))
    offdiag = st.lists(magnitudes(0.1, 10.0), min_size=n - 1, max_size=n - 1)
    rhs = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    return draw(offdiag), diag, draw(offdiag), np.array(rhs)


@st.composite
def dominant_systems(draw, sizes=st.integers(2, 12)):
    """Tridiagonals whose diagonal exceeds the rest of its column by at
    least 1e-3, so that elimination interchanges no row; the transpose is
    row diagonally dominant, so cond_1 <= 1e3 ||A||_1 (Varah)."""
    n = draw(sizes)
    offdiag = st.lists(magnitudes(0.1, 10.0), min_size=n - 1, max_size=n - 1)
    sub, sup = np.array(draw(offdiag)), np.array(draw(offdiag))
    excess = np.array(draw(st.lists(magnitudes(1e-3, 10.0), min_size=n, max_size=n)))
    rest = np.abs(np.append(sub, 0.0)) + np.abs(np.append(0.0, sup))
    rhs = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    return sub, np.sign(excess) * rest + excess, sup, np.array(rhs)


def interchanges(sub, diag, sup):
    """Whether elimination with partial pivoting interchanges a row: the
    first interchange is at the first row whose subdiagonal exceeds the
    pivot that elimination without interchanges leaves there."""
    pivot = float(diag[0])
    for i in range(len(sub)):
        if abs(sub[i]) > abs(pivot):
            return True
        pivot = float(diag[i + 1]) - float(sub[i]) / pivot * float(sup[i])
    return False


@contextlib.contextmanager
def recorded_block_operators(block=_BLOCK):
    """Blocks of ``block`` rows, and a list that gets the block operators
    each march step builds before it is first applied, or None where one
    overflows (``linalg._march_step``)."""
    built = []

    def recording(*args, _build=linalg._block_operators):
        built.append(_build(*args))
        return built[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_BLOCK", block)
        patch.setattr(linalg, "_block_operators", recording)
        yield built


def identity(n):
    """The n x n identity as a tridiagonal (sub, diag, sup)."""
    return np.zeros(n - 1), np.ones(n), np.zeros(n - 1)


def row_sweep(sub, diag, sup, v):
    """L^-1 v by the one-shot row sweep of the pivoted factorisation of L =
    (sub, diag, sup) (``linalg._factorise``), into a new array."""
    x = np.empty(len(diag))
    linalg._factorise(sub, diag, sup)[0](v, x)
    return x


def march_solve(sub, diag, sup, right=None):
    """``v -> x`` by the step a march takes with this factorisation and the
    right factor ``right``, the identity if None (``linalg._march_step``),
    into a new array each call."""
    step = linalg._march_step(sub, diag, sup, identity(len(diag)) if right is None else right)

    def solve(v):
        x = np.empty(len(diag))
        step(np.asarray(v, dtype=float), x)
        return x

    return solve


def assert_row_sweep_is_kept(system, block=_BLOCK, right=None):
    """A factorisation that interchanged a row builds no block operators,
    so every step of a march is its one-shot row sweep bit for bit; one
    that interchanged none builds them."""
    sub, diag, sup, v = system
    try:
        swept = row_sweep(sub, diag, sup, v if right is None else tridiagonal_matvec(*right, v))
    except LinearSolveError:
        return  # singular
    if not np.isfinite(swept).all():
        return  # too ill-conditioned for a finite x
    with recorded_block_operators(block) as built:
        solve = march_solve(sub, diag, sup, right)
        steps = [solve(v), solve(v)]
    if interchanges(sub, diag, sup):
        assert built == []
        assert all(np.array_equal(x, swept) for x in steps)
    else:
        assert len(built) == 1


class TestSolveTridiagonal:
    def test_identity(self):
        rhs = np.array([3.0, -1.0, 2.0])
        system = TridiagonalSystem(np.zeros(2), np.ones(3), np.zeros(2), rhs)
        assert solve_tridiagonal(system) == pytest.approx(rhs)

    def test_two_by_two(self):
        system = TridiagonalSystem([-1.0], [2.0, 2.0], [-1.0], [1.0, 1.0])
        assert solve_tridiagonal(system) == pytest.approx([1.0, 1.0])

    def test_random_diagonally_dominant(self):
        rng = np.random.default_rng(RNG_SEED + 1)
        n = 100
        sub = rng.uniform(-1, 1, n - 1)
        sup = rng.uniform(-1, 1, n - 1)
        diag = 4.0 + rng.uniform(0, 1, n)
        rhs = rng.uniform(-5, 5, n)
        system = TridiagonalSystem(sub, diag, sup, rhs)
        x = solve_tridiagonal(system)
        residual = tridiagonal_matvec(sub, diag, sup, x) - rhs
        assert np.abs(residual).max() <= 1e-10 * np.abs(rhs).max()

    def test_zero_diagonal_is_solved_by_pivoting(self):
        system = TridiagonalSystem([1.0], [0.0, 0.0], [1.0], [1.0, 2.0])
        assert solve_tridiagonal(system) == pytest.approx([2.0, 1.0])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(system=pivoting_systems())
    def test_pivoting_matches_dense_solve(self, system):
        sub, diag, sup, rhs = system
        dense = np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)
        condition = np.linalg.cond(dense)
        assume(condition <= 1e12)
        x = solve_tridiagonal(TridiagonalSystem(sub, diag, sup, rhs))
        reference = np.linalg.solve(dense, rhs)
        error = np.linalg.norm(x - reference)
        assert error <= 1e-15 * len(diag) * condition * np.linalg.norm(reference)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        # fewer rows than a block, whole blocks, and a partial last block
        size=st.sampled_from([1, _BLOCK - 1, _BLOCK, 2 * _BLOCK, 3 * _BLOCK + 1])
        | st.integers(2, 4 * _BLOCK + 3),
        data=st.data(),
    )
    def test_reused_factorisation_matches_dense_solve(self, size, data):
        sub, diag, sup, rhs = data.draw(dominant_systems(st.just(size)))
        dense = np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)
        condition = np.linalg.cond(dense)
        with recorded_block_operators() as built:
            solve = march_solve(sub, diag, sup)
            x = solve(rhs)  # the block operators, built before the first step
        assert len(built) == 1 and built[0] is not None
        reference = np.linalg.solve(dense, rhs)
        error = np.linalg.norm(x - reference)
        assert error <= 1e-15 * len(diag) * condition * np.linalg.norm(reference)
        bad = rhs.copy()
        bad[data.draw(st.integers(0, len(diag) - 1))] = math.nan
        with pytest.raises(LinearSolveError):
            solve_tridiagonal(TridiagonalSystem(sub, diag, sup, bad))
        assert not np.isfinite(solve(bad)).all()  # which the march raises for
        assert_row_sweep_is_kept(data.draw(pivoting_systems(st.just(size))))

    def test_reused_factorisation_where_a_block_inverse_overflows(self):
        # pivots of 2e-14 under unit superdiagonals: the inverse of a block
        # of U overflows, while x = U^-1 e_0 is finite and stays so
        n = 2 * _BLOCK
        factors = np.zeros(n - 1), np.full(n, 2e-14), np.ones(n - 1)
        rhs = np.eye(n)[0]
        first = row_sweep(*factors, rhs)
        assert first[0] == 5e13 and not first[1:].any()
        assert np.array_equal(march_solve(*factors)(rhs), first)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(block=st.sampled_from([2, 3, 4]), data=st.data())
    def test_reused_factorisation_over_several_groups_of_blocks(self, block, data):
        # with blocks of `block` rows a group of blocks spans block^2 rows:
        # one, two and three or more groups, with a partial last group
        rows = block * block
        sizes = st.sampled_from([rows, rows + 1, 2 * rows, 2 * rows + block + 1, 3 * rows + 1])
        n = data.draw(sizes | st.integers(1, 5 * rows + 3))
        sub, diag, sup, rhs = data.draw(dominant_systems(st.just(n)))
        dense = np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)
        condition = np.linalg.cond(dense)
        bad = rhs.copy()
        bad[data.draw(st.integers(0, n - 1))] = math.nan
        with recorded_block_operators(block) as built:
            solve = march_solve(sub, diag, sup)
            x = solve(rhs)
            assert not np.isfinite(solve(bad)).all()
        assert len(built) == 1 and built[0] is not None
        reference = np.linalg.solve(dense, rhs)
        error = np.linalg.norm(x - reference)
        assert error <= 1e-15 * n * condition * np.linalg.norm(reference)
        assert_row_sweep_is_kept(data.draw(pivoting_systems(st.just(n))), block)

    @pytest.mark.parametrize("n", [_BLOCK**2, _BLOCK**2 + 1, 3 * _BLOCK**2 + 7])
    def test_reused_factorisation_of_several_groups_matches_the_row_sweep(self, n):
        # each column's diagonal exceeds the rest of the column by at least
        # 1, so ||A^-1||_1 <= 1 (Varah, on the transpose), cond_1(A) <=
        # ||A||_1, and elimination interchanges no row
        rng = np.random.default_rng(RNG_SEED + n)
        sub, sup = rng.uniform(-8.0, 8.0, n - 1), rng.uniform(-2.0, 2.0, n - 1)
        rest = np.abs(np.append(sub, 0.0)) + np.abs(np.append(0.0, sup))
        diag = rng.choice([-1.0, 1.0], n) * (rest + rng.uniform(1.0, 2.0, n))
        condition = (rest + np.abs(diag)).max()
        rhs = rng.uniform(-1.0, 1.0, n)
        swept = row_sweep(sub, diag, sup, rhs)
        with recorded_block_operators() as built:
            solve = march_solve(sub, diag, sup)
            blocked = [solve(rhs), solve(rhs)]
        assert len(built) == 1 and built[0] is not None
        # both solves are within 1e-15 n cond ||x|| of the exact one
        bound = 2e-15 * n * condition * np.abs(swept).max()
        for x in blocked:
            assert np.abs(x - swept).max() <= bound
        # the same magnitudes, each row's diagonal exceeding the rest of its
        # row instead: subdiagonals larger than the pivots above them make
        # elimination interchange rows, and the row sweep stays
        row_rest = np.abs(np.append(0.0, sub)) + np.abs(np.append(sup, 0.0))
        row_diag = rng.choice([-1.0, 1.0], n) * (row_rest + rng.uniform(1.0, 2.0, n))
        assert interchanges(sub, row_diag, sup)
        assert_row_sweep_is_kept((sub, row_diag, sup, rhs))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(block=st.sampled_from([2, 3, 4]), data=st.data())
    def test_reused_factorisation_with_a_right_factor_matches_dense_solve(self, block, data):
        # one row, a partial block, one whole block, two blocks, one whole
        # group, two groups and a partial fourth group of blocks
        size = data.draw(st.sampled_from([1, block - 1, block, block + 1, block**2, block**2 + 1,
                                          3 * block**2 + 7]).filter(bool))
        sub, diag, sup, v = data.draw(dominant_systems(st.just(size)))
        general = st.lists(st.floats(-10.0, 10.0), min_size=size - 1, max_size=size - 1)
        right = (np.array(data.draw(general)),
                 np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=size, max_size=size))),
                 np.array(data.draw(general)))
        lhs = np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)
        rhs = np.diag(right[1]) + np.diag(right[0], -1) + np.diag(right[2], 1)
        condition = np.linalg.cond(lhs)
        reference = np.linalg.solve(lhs, rhs @ v)
        # the computed x solves (L + dL) x = R v + dr with |dL| <= c n u |L|
        # and |dr| <= c n u |R| |v|, so |x - x*| <= c n u cond(L) (|x*| +
        # |R| |v| / |L|); the same c n u = 1e-15 n as the solves above
        bound = 1e-15 * size * condition * (
            np.linalg.norm(reference) + np.linalg.norm(rhs, 2) * np.linalg.norm(v) / np.linalg.norm(lhs, 2))
        bad = v.copy()
        bad[data.draw(st.integers(0, size - 1))] = data.draw(st.sampled_from([math.nan, math.inf]))
        assert np.linalg.norm(row_sweep(sub, diag, sup, tridiagonal_matvec(*right, v)) - reference) <= bound
        with recorded_block_operators(block) as built:
            solve = march_solve(sub, diag, sup, right)
            for _ in range(2):  # every step applies the block operators
                assert np.linalg.norm(solve(v) - reference) <= bound
            # inf - inf in the products is NaN, which numpy reports
            with np.errstate(invalid="ignore"):
                assert not np.isfinite(solve(bad)).all()
        assert len(built) == 1 and built[0] is not None
        assert_row_sweep_is_kept(data.draw(pivoting_systems(st.just(size))), block, right)

    def test_reused_factorisation_where_the_fused_right_factor_overflows(self):
        # pivots of 0.5 under a right factor of 1e308: each block's x over
        # its window, (block inverse) R_k, overflows, while L^-1 R v is 2e8
        # for v = 1e-300
        n = 2 * _BLOCK
        factors = np.zeros(n - 1), np.full(n, 0.5), np.zeros(n - 1)
        right = np.zeros(n - 1), np.full(n, 1e308), np.zeros(n - 1)
        v = np.full(n, 1e-300)
        first = row_sweep(*factors, tridiagonal_matvec(*right, v))
        assert np.all(first == 1e308 * 1e-300 / 0.5)
        assert np.array_equal(march_solve(*factors, right)(v), first)

    def test_reused_factorisation_where_an_interface_operator_overflows(self):
        # superdiagonals of 2.1 over unit pivots: a block's inverse stays
        # finite (2.1^31), the response across a group of blocks does not
        n = _BLOCK**2
        factors = np.zeros(n - 1), np.ones(n), np.full(n - 1, 2.1)
        rhs = np.eye(n)[0]
        assert np.array_equal(row_sweep(*factors, rhs), rhs)
        assert np.array_equal(march_solve(*factors)(rhs), rhs)

    @pytest.mark.parametrize("n", [3, 2 * _BLOCK + 1])
    def test_right_hand_side_of_the_wrong_length(self, n):
        # no field can be reassigned after the construction checks, and a
        # replaced one is checked again; on the row sweep (n = 3) and on
        # cyclic reduction (a dominant matrix of more than _BLOCK rows).  At
        # n = 3 the reassigned sub [1, 1, 5] is one that a mutable system
        # solved to [0.25, 0.309, 0.513], with no error
        system = TridiagonalSystem(np.ones(n - 1), np.full(n, 4.0), np.ones(n - 1), np.arange(1.0, n + 1))
        dense = np.diag(system.diag) + np.diag(system.sub, -1) + np.diag(system.sup, 1)
        with recorded_reductions() as reduced:
            x = solve_tridiagonal(system)
            for name, wrong in (("sub", np.append(np.ones(n - 1), 5.0)), ("diag", np.full(n + 1, 4.0)),
                                ("sup", np.ones(n)), ("rhs", np.ones(n + 1)), ("rhs", np.ones(n - 1))):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(system, name, wrong)
            with pytest.raises(ValueError, match="inconsistent shapes"):
                dataclasses.replace(system, rhs=np.ones(n + 1))
            assert np.array_equal(solve_tridiagonal(system), x)
        assert reduced == ([n, n] if n > _BLOCK else [])
        assert np.allclose(x, np.linalg.solve(dense, system.rhs), rtol=1e-14, atol=0.0)

    def test_single_unknown(self):
        system = TridiagonalSystem([], [4.0], [], [2.0])
        assert solve_tridiagonal(system).tolist() == [0.5]

    def test_singular_matrix_raises(self):
        system = TridiagonalSystem([1.0], [1.0, 1.0], [1.0], [1.0, 2.0])
        with pytest.raises(LinearSolveError):
            solve_tridiagonal(system)

    def test_pivot_tolerance(self):
        # a pivot of 1e-15 of the largest entry is singular, 1e-13 is not
        nearly = TridiagonalSystem([1.0], [1.0, 1.0 + 1e-15], [1.0], [1.0, 2.0])
        with pytest.raises(LinearSolveError):
            solve_tridiagonal(nearly)
        regular = TridiagonalSystem([1.0], [1.0, 1.0 + 1e-13], [1.0], [1.0, 2.0])
        x = solve_tridiagonal(regular)
        assert x == pytest.approx([1.0 - 1e13, 1e13], rel=1e-3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("n", [1, 2, 17, 1000])
    def test_non_finite_matrix_entry_raises_without_a_warning(self, n, bad):
        # on any diagonal, in the one-shot solve and in a march's step
        # matrix: the pivot scale is NaN or inf, so no pivot passes its test
        for which in range(3) if n > 1 else (1,):
            entries = [np.ones(n - 1), np.full(n, 4.0), np.ones(n - 1)]
            entries[which][len(entries[which]) // 2] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(LinearSolveError, match="singular"):
                    linalg._factorise(*entries)
                with pytest.raises(LinearSolveError, match="singular"):
                    linalg._march_step(*entries, identity(n))

    def test_pure_convection_is_solved_in_linear_memory(self):
        # the interior diagonal vanishes, so elimination must interchange
        # rows; memory must stay O(N), not that of an N x N matrix
        problem = SteadyProblem(
            coefficients=TransportCoefficients(0.0, 1.0, 0.0),
            domain=(0.0, 1.0),
            bc_left=BoundaryCondition.dirichlet(1.0),
            bc_right=BoundaryCondition.neumann_flux(0.0),
        )
        mesh = uniform_mesh(0.0, 1.0, 2000)
        tracemalloc.start()
        try:
            field = solve_steady(problem, mesh, LINEAR)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.abs(field.nodal_values - 1.0).max() <= 1e-12
        assert peak < 8 * 2**20

    def test_length_validation(self):
        with pytest.raises(ValueError):
            TridiagonalSystem([1.0], [1.0, 1.0], [], [1.0, 2.0])

    def test_no_unknowns(self):
        with pytest.raises(ValueError, match="at least one unknown"):
            TridiagonalSystem([], [], [], [])

    @pytest.mark.parametrize("n", [3, 40])
    def test_fields_of_another_shape_raise_at_construction(self, n):
        # a (1, N) diag and an (N, 1) rhs have the right sizes, not shapes
        sub, diag, sup, rhs = np.ones(n - 1), np.full(n, 4.0), np.ones(n - 1), np.ones(n)
        TridiagonalSystem(sub, diag, sup, rhs)
        with pytest.raises(ValueError, match="inconsistent shapes"):
            TridiagonalSystem(sub, diag.reshape(1, n), sup, rhs)
        with pytest.raises(ValueError, match="inconsistent shapes"):
            TridiagonalSystem(sub, diag, sup, rhs.reshape(n, 1))

    @pytest.mark.parametrize("n", [3, 2 * _BLOCK + 1])
    def test_arrays_edited_in_place_are_solved(self, n):
        # float arrays are kept uncopied and writable: a system solves the
        # entries it holds, bit for bit as a system built from them
        arrays = np.ones(n - 1), np.full(n, 4.0), np.ones(n - 1), np.arange(1.0, n + 1)
        system = TridiagonalSystem(*arrays)
        assert all(kept is given for kept, given in zip((system.sub, system.diag, system.sup, system.rhs), arrays))
        before = solve_tridiagonal(system)
        system.sub[-1], system.diag[0], system.sup[0], system.rhs[1] = 1.5, 5.0, 0.5, -1.0
        with recorded_reductions() as reduced:
            after = solve_tridiagonal(system)
            fresh = solve_tridiagonal(TridiagonalSystem(*(a.copy() for a in arrays)))
        assert reduced == ([n, n] if n > _BLOCK else [])
        assert not np.array_equal(after, before)
        assert after.view(np.int64).tolist() == fresh.view(np.int64).tolist()


@contextlib.contextmanager
def recorded_reductions():
    """A list that gets the size of every system ``solve_tridiagonal``
    hands to cyclic reduction."""
    sizes = []

    def recording(system, scale, _reduce=linalg._cyclic_reduction):
        sizes.append(system.size)
        return _reduce(system, scale)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_cyclic_reduction", recording)
        yield sizes


def neumann_laplacian(n, last=1.0):
    """The (n, n) Laplacian [-1, 2, -1] with Neumann rows [1, -1] at both
    ends, the last diagonal entry being ``last``: singular for last = 1,
    weakly diagonally dominant by rows and by columns for last >= 1."""
    diag = np.full(n, 2.0)
    diag[0], diag[-1] = 1.0, last
    return -np.ones(n - 1), diag, -np.ones(n - 1)


class TestCyclicReduction:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        # the row sweep alone up to _BLOCK rows, then one level above it,
        # and 2^k +- 1 rows on either side of a level
        size=st.sampled_from([1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 63, 65, 127, 129, 255, 257])
        | st.integers(2, 300),
        by_rows=st.booleans(),
        data=st.data(),
    )
    def test_matches_dense_solve(self, size, by_rows, data):
        sub, diag, sup, rhs = data.draw(dominant_systems(st.just(size)))
        if by_rows:
            sub, sup = sup, sub  # the transpose: dominant by rows
        dense = np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)
        condition = np.linalg.cond(dense)
        with recorded_reductions() as reduced:
            x = solve_tridiagonal(TridiagonalSystem(sub, diag, sup, rhs))
        assert reduced == ([size] if size > _BLOCK else [])
        reference = np.linalg.solve(dense, rhs)
        error = np.linalg.norm(x - reference)
        assert error <= 1e-15 * size * condition * np.linalg.norm(reference)
        bad = rhs.copy()
        bad[data.draw(st.integers(0, size - 1))] = math.nan
        with pytest.raises(LinearSolveError):
            solve_tridiagonal(TridiagonalSystem(sub, diag, sup, bad))

    @pytest.mark.parametrize("n", [33, 100, 4097])
    def test_singular_neumann_laplacian_raises(self, n):
        sub, diag, sup = neumann_laplacian(n)
        with recorded_reductions() as reduced, pytest.raises(LinearSolveError):
            solve_tridiagonal(TridiagonalSystem(sub, diag, sup, np.ones(n)))
        assert reduced == [n]

    @pytest.mark.parametrize("n", [33, 100, 4097])
    def test_pivot_tolerance(self, n):
        # the last pivot of elimination is last - 1; the scale is 2, so a
        # pivot of 1e-15 of it is singular and 1e-13 is not.  The exact
        # solution for the last unit vector is all 1 / (last - 1)
        nearly = TridiagonalSystem(*neumann_laplacian(n, 1.0 + 2e-15), np.eye(n)[-1])
        with pytest.raises(LinearSolveError):
            solve_tridiagonal(nearly)
        last = 1.0 + 2e-13
        with recorded_reductions() as reduced:
            x = solve_tridiagonal(TridiagonalSystem(*neumann_laplacian(n, last), np.eye(n)[-1]))
        assert reduced == [n]
        assert x == pytest.approx(np.full(n, 1.0 / (last - 1.0)), rel=1e-9)

    @pytest.mark.parametrize("row", [1, 2, 0, 96])
    @pytest.mark.parametrize("tau, singular", [(1e-15, True), (5e-15, True), (1e-13, False)])
    def test_pivot_tolerance_at_every_level(self, row, tau, singular):
        # a decoupled row of diagonal 2 tau in [-1, 2, -1], 100 rows, two
        # levels: its divisor is eliminated at level 0 (row 1) or 1 (row
        # 2), or left in the tail (rows 0 and 96).  A pivot of tau of the
        # scale 2 raises below 1e-14, as in the row sweep.  At row 0 the
        # tail's own largest entry is 0.5, on whose scale 2 tau = 1e-14
        # would pass: the tail keeps the scale of the whole matrix.
        n = 100
        sub, diag, sup = -np.ones(n - 1), np.full(n, 2.0), -np.ones(n - 1)
        sub[max(row - 1, 0):row + 1] = 0.0
        sup[max(row - 1, 0):row + 1] = 0.0
        diag[row] = 2.0 * tau
        system = TridiagonalSystem(sub, diag, sup, np.eye(n)[row])
        with recorded_reductions() as reduced:
            if singular:
                with pytest.raises(LinearSolveError):
                    solve_tridiagonal(system)
            else:
                x = solve_tridiagonal(system)
                assert x[row] == 1.0 / diag[row] and np.count_nonzero(x) == 1
        assert reduced == [n]

    def test_entries_near_the_largest_float(self):
        # |sub| + |sup| = 2e308 overflows, which is not dominated by 1.5e308:
        # the row sweep, with no numpy warning; 1.6e308 is dominated by 1.7e308
        n = 2 * _BLOCK
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for off, middle, reduced_sizes in ((1e308, 1.5e308, []), (0.8e308, 1.7e308, [n])):
                sub, diag, sup = np.full(n - 1, off), np.full(n, middle), np.full(n - 1, off)
                with recorded_reductions() as reduced:
                    x = solve_tridiagonal(TridiagonalSystem(sub, diag, sup, np.ones(n)))
                assert reduced == reduced_sizes
                residual = tridiagonal_matvec(sub, diag, sup, x) - 1.0
                assert np.abs(residual).max() <= 1e-12

    def test_infinite_right_hand_side_raises(self):
        n = 2 * _BLOCK
        rhs = np.ones(n)
        rhs[5] = math.inf
        with recorded_reductions() as reduced, pytest.raises(LinearSolveError):
            solve_tridiagonal(TridiagonalSystem(-np.ones(n - 1), np.full(n, 3.0), -np.ones(n - 1), rhs))
        assert reduced == [n]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(system=pivoting_systems(st.integers(2, 12) | st.integers(_BLOCK + 1, 200)))
    def test_other_systems_keep_the_row_sweep(self, system):
        sub, diag, sup, rhs = system
        dominant = any(
            (np.abs(diag) >= np.abs(np.append(0.0, a)) + np.abs(np.append(b, 0.0))).all()
            for a, b in ((sub, sup), (sup, sub))
        )
        assume(not dominant or len(diag) <= _BLOCK)
        try:
            want = row_sweep(sub, diag, sup, rhs)
        except LinearSolveError:
            want = None  # singular
        with recorded_reductions() as reduced:
            if want is None or not np.isfinite(want).all():
                with pytest.raises(LinearSolveError):
                    solve_tridiagonal(TridiagonalSystem(sub, diag, sup, rhs))
            else:
                assert np.array_equal(solve_tridiagonal(TridiagonalSystem(sub, diag, sup, rhs)), want)
        assert reduced == []

    @pytest.mark.parametrize(
        "coefficients, enrichment",
        [
            (TransportCoefficients(-1.0, 400.0, 0.0), LINEAR),  # mesh Peclet number 2
            (TransportCoefficients(-1.0, 400.0, 0.0), CUBIC_BUBBLE),
            (TransportCoefficients(0.0, 1.0, 0.0), LINEAR),  # pure convection
            (TransportCoefficients(-1.0, 0.0, -100.0), QUADRATIC_BUBBLE),  # lambda < 0
        ],
    )
    def test_steady_systems_that_are_not_dominant_keep_the_row_sweep(self, coefficients, enrichment):
        problem = SteadyProblem(
            coefficients=coefficients,
            domain=(0.0, 1.0),
            bc_left=BoundaryCondition.dirichlet(1.0),
            bc_right=BoundaryCondition.neumann_flux(0.0),
        )
        system = assemble_steady(problem, uniform_mesh(0.0, 1.0, 100), enrichment)
        with recorded_reductions() as reduced:
            x = solve_tridiagonal(system)
        assert reduced == []
        assert np.array_equal(x, row_sweep(system.sub, system.diag, system.sup, system.rhs))

    def test_dominant_solve_in_linear_memory(self):
        # the steady benchmark at N = 1e5, whose dense matrix would take 80 GB;
        # the solve took 106 bytes a row at N = 1e4, 1e5 and 1e6
        n = 100_000
        system = assemble_steady(steady_benchmark_problem(), uniform_mesh(0.0, 10.0, n), QUADRATIC_BUBBLE)
        tracemalloc.start()
        try:
            with recorded_reductions() as reduced:
                x = solve_tridiagonal(system)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert reduced == [n + 1]
        assert np.isfinite(x).all()
        assert peak < 200 * n


def assert_scaled_dirichlet_row(system, row, value):
    """A Dirichlet row is decoupled and reads s u = s value with s a power
    of two."""
    assert system.sub[0 if row == 0 else -1] == 0.0
    assert system.sup[0 if row == 0 else -1] == 0.0
    scale = system.diag[row]
    assert scale > 0 and math.frexp(scale)[0] == 0.5
    assert system.rhs[row] == scale * value


class TestAssembleSteady:
    def test_two_elements_single_free_unknown(self):
        problem = diffusion_problem(2.0, 0.0)
        system = assemble_steady(problem, uniform_mesh(0.0, 1.0, 2), LINEAR)
        # boundary rows replaced by scaled identity rows, one coupled row remains
        assert_scaled_dirichlet_row(system, 0, 2.0)
        assert_scaled_dirichlet_row(system, -1, 0.0)
        x = solve_tridiagonal(system)
        assert x == pytest.approx([2.0, 1.0, 0.0], abs=1e-13)

    def test_benchmark_structure(self):
        system = assemble_steady(
            steady_benchmark_problem(), uniform_mesh(0.0, 10.0, 50), QUADRATIC_BUBBLE
        )
        assert system.size == 51
        assert_scaled_dirichlet_row(system, 0, 1.5)
        assert system.diag[-1] != 1.0  # right end is a flux condition

    @pytest.mark.parametrize("epsilon, b", [(-1e13, 10.0), (-1.0, 1e-12)])
    def test_dirichlet_row_on_the_matrix_scale(self, epsilon, b):
        # element matrices near 1e13: a unit Dirichlet row would fall below
        # the solver's relative pivot bound and read as singular
        problem = SteadyProblem(
            coefficients=TransportCoefficients(epsilon, 0.0, 1.0),
            domain=(0.0, b),
            bc_left=BoundaryCondition.dirichlet(1.5),
            bc_right=BoundaryCondition.neumann_flux(0.0),
        )
        mesh = uniform_mesh(0.0, b, 50)
        field = solve_steady(problem, mesh, LINEAR)
        # u = 1.5 cosh(m (b - x)) / cosh(m b) with m^2 = -1/epsilon
        m = math.sqrt(-1.0 / epsilon)
        exact = 1.5 * np.cosh(m * (b - mesh.nodes)) / np.cosh(m * b)
        assert field.nodal_values[0] == 1.5
        assert np.abs(field.nodal_values - exact).max() <= 1e-12

    def test_right_neumann_flux_value(self):
        # -u'' = 0, u(0) = 0, u'(1) = 1 has exact solution u = x
        problem = SteadyProblem(
            coefficients=TransportCoefficients(-1.0, 0.0, 0.0),
            domain=(0.0, 1.0),
            bc_left=BoundaryCondition.dirichlet(0.0),
            bc_right=BoundaryCondition.neumann_flux(1.0),
        )
        field = solve_steady(problem, uniform_mesh(0.0, 1.0, 4), LINEAR)
        assert field.nodal_values == pytest.approx(np.linspace(0, 1, 5), abs=1e-13)

    def test_left_neumann_flux_value(self):
        # -u'' = 0, u'(0) = 1, u(1) = 0 has exact solution u = x - 1
        problem = SteadyProblem(
            coefficients=TransportCoefficients(-1.0, 0.0, 0.0),
            domain=(0.0, 1.0),
            bc_left=BoundaryCondition.neumann_flux(1.0),
            bc_right=BoundaryCondition.dirichlet(0.0),
        )
        field = solve_steady(problem, uniform_mesh(0.0, 1.0, 4), LINEAR)
        assert field.nodal_values == pytest.approx(np.linspace(-1, 0, 5), abs=1e-13)

    def test_single_element_both_dirichlet(self):
        # both rows end up as identity rows; cross-row elimination must not
        # corrupt the already-replaced boundary rhs
        problem = diffusion_problem(3.0, -2.0)
        field = solve_steady(problem, uniform_mesh(0.0, 1.0, 1), QUADRATIC_BUBBLE)
        assert field.nodal_values.tolist() == [3.0, -2.0]

    def test_mesh_domain_mismatch(self):
        with pytest.raises(ValueError):
            assemble_steady(diffusion_problem(0, 1), uniform_mesh(0.0, 2.0, 4), LINEAR)


class TestSolveSteady:
    @pytest.mark.parametrize("enrichment", [LINEAR, QUADRATIC_BUBBLE, CUBIC_BUBBLE])
    def test_pure_diffusion_nodally_exact(self, enrichment):
        problem = diffusion_problem(0.7, -0.4, domain=(0.0, 2.0))
        mesh = uniform_mesh(0.0, 2.0, 7)
        field = solve_steady(problem, mesh, enrichment)
        line = 0.7 + (-0.4 - 0.7) * mesh.nodes / 2.0
        assert np.abs(field.nodal_values - line).max() <= 1e-12

    def test_nonuniform_mesh_pure_diffusion(self):
        problem = diffusion_problem(1.0, 3.0)
        mesh = Mesh1D([0.0, 0.05, 0.3, 0.35, 0.8, 1.0])
        field = solve_steady(problem, mesh, QUADRATIC_BUBBLE)
        assert field.nodal_values == pytest.approx(1.0 + 2.0 * mesh.nodes, abs=1e-12)

    def test_dirichlet_values_bit_equal(self):
        field = solve_steady(
            steady_benchmark_problem(), uniform_mesh(0.0, 10.0, 30), QUADRATIC_BUBBLE
        )
        assert field.nodal_values[0] == 1.5

    def test_flux_balance_pure_diffusion(self):
        problem = diffusion_problem(2.0, -1.0, epsilon=-0.7)
        mesh = Mesh1D([0.0, 0.2, 0.5, 0.6, 1.0])
        field = solve_steady(problem, mesh, LINEAR)
        flux = 0.7 * np.diff(field.nodal_values) / mesh.lengths
        assert np.abs(flux - flux[0]).max() <= 1e-10 * abs(flux[0])

    @pytest.mark.parametrize("count", [30, 50])
    def test_benchmark_bubble_beats_linear(self, count):
        problem = steady_benchmark_problem()
        mesh = uniform_mesh(0.0, 10.0, count)
        exact = exact_steady_benchmark(mesh.nodes)
        err_linear = np.abs(
            solve_steady(problem, mesh, LINEAR).nodal_values - exact
        ).max()
        err_bubble = np.abs(
            solve_steady(problem, mesh, QUADRATIC_BUBBLE).nodal_values - exact
        ).max()
        assert err_bubble < err_linear
        if count == 50:
            assert err_bubble <= 0.10 * err_linear

    def test_benchmark_far_from_layer(self):
        problem = steady_benchmark_problem()
        mesh = uniform_mesh(0.0, 10.0, 50)
        for enrichment in (LINEAR, QUADRATIC_BUBBLE):
            field = solve_steady(problem, mesh, enrichment)
            far = field.nodal_values[mesh.nodes >= 2.0]
            assert np.abs(far).max() <= 1e-3

    def test_bubble_reconstruction_matches_ab_map(self):
        problem = steady_benchmark_problem()
        mesh = uniform_mesh(0.0, 10.0, 10)
        field = solve_steady(problem, mesh, QUADRATIC_BUBBLE)
        l = float(mesh.lengths[0])
        ab = quadratic_ab(problem.coefficients, l)
        u = field.nodal_values
        expected = ab.coefficient(u[3], u[4]) * l**2  # the field holds d = c l^2
        assert field.bubble_coeffs[3, 0] == pytest.approx(expected, rel=1e-12)


class TestKernelAssembly:
    def test_mixed_fallback_on_cubic_mesh(self, monkeypatch):
        coeffs = TransportCoefficients(-0.3, 1.2, 2.0)
        mesh = Mesh1D([0.0, 0.25, 0.75, 1.0, 1.5, 2.0])
        degenerate = 0.5
        real = steady.unit_bubble_coefficients

        def unit_bubble_degenerate_at(c, lengths, order):
            # the batched layer flags the length but leaves finite values in its row
            unit, flags = real(c, lengths, order)
            assert np.isfinite(unit[lengths == degenerate]).all()
            return unit, flags | (lengths == degenerate)

        monkeypatch.setattr(steady, "unit_bubble_coefficients", unit_bubble_degenerate_at)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            shapes = element_shapes(coeffs, mesh, CUBIC_BUBBLE)
        assert sum("falling back to linear elements" in str(w.message) for w in caught) == 1
        fallback = mesh.lengths == degenerate
        assert fallback.sum() == 3
        assert not shapes[fallback].any()
        assert shapes[~fallback].all()

        dd, cd, mm = element_integrals(mesh.lengths, shapes)
        k = -coeffs.epsilon * dd + coeffs.kappa * cd + coeffs.lambda_ * mm
        hats = element_stiffness_closed(coeffs, degenerate, 0.0, 0.0)
        for block in k[fallback]:
            assert np.abs(block - hats).max() <= 1e-12 * np.abs(hats).max()

        problem = SteadyProblem(
            coefficients=coeffs,
            domain=(0.0, 2.0),
            bc_left=BoundaryCondition.dirichlet(1.0),
            bc_right=BoundaryCondition.neumann_flux(0.5),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            field = solve_steady(problem, mesh, CUBIC_BUBBLE)
        assert np.all(np.isfinite(field.nodal_values))
        assert not field.bubble_coeffs[fallback].any()

    def test_global_assembly_matches_closed_form_scatter(self):
        rng = np.random.default_rng(RNG_SEED + 2)
        coeffs = TransportCoefficients(-0.2, 1.5, 3.0)
        nodes = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 2.0, 24)), [2.0]))
        mesh = Mesh1D(nodes)
        assert np.unique(mesh.lengths).size == mesh.n_elements
        problem = SteadyProblem(
            coefficients=coeffs,
            domain=(0.0, 2.0),
            bc_left=BoundaryCondition.dirichlet(1.0),
            bc_right=BoundaryCondition.dirichlet(-0.5),
        )
        system = assemble_steady(problem, mesh, QUADRATIC_BUBBLE)

        n_nodes = mesh.n_elements + 1
        diag, sub, sup = np.zeros(n_nodes), np.zeros(n_nodes - 1), np.zeros(n_nodes - 1)
        for j, l in enumerate(mesh.lengths):
            ab = quadratic_ab(coeffs, float(l))
            k = element_stiffness_closed(coeffs, float(l), ab.a_coef, ab.b_coef)
            diag[j] += k[0, 0]
            diag[j + 1] += k[1, 1]
            sup[j] += k[0, 1]
            sub[j] += k[1, 0]
        # rows 1..N-1 keep their couplings except the eliminated boundary columns
        got = np.concatenate((system.diag[1:-1], system.sub[1:-1], system.sup[1:-1]))
        want = np.concatenate((diag[1:-1], sub[1:-1], sup[1:-1]))
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestTensorKernel:
    @staticmethod
    def random_elements(order, seed):
        """A random non-uniform mesh's lengths with bubble amplitudes of
        unit size on the unit element."""
        rng = np.random.default_rng(seed)
        lengths = rng.uniform(0.01, 3.0, 40)
        shapes = np.stack(rng.normal(size=(2, 40, order - 1)), axis=-1)
        return lengths, shapes

    @staticmethod
    def assert_blocks_match(got, want, rtol):
        for g, w in zip(got, want):
            per_element = np.abs(g - w).max(axis=(1, 2)) / np.abs(w).max(axis=(1, 2))
            assert per_element.max() <= rtol

    @pytest.mark.parametrize("order", range(2, 10))
    def test_matches_gauss_oracle(self, order):
        lengths, shapes = self.random_elements(order, RNG_SEED + order)
        rule = gauss_rule(default_quad_points(order))
        want = gauss_integrals(lengths, shapes, rule.points, rule.weights)
        self.assert_blocks_match(element_integrals(lengths, shapes), want, 1e-14)

    def test_default_quad_points_stop_at_order_nine(self):
        assert default_quad_points(9) == 10
        with pytest.raises(ValueError, match="exceeds exact-quadrature reach"):
            default_quad_points(10)

    @pytest.mark.parametrize("order", [10, 11])
    def test_beyond_gauss_oracle_reach(self, order):
        lengths, shapes = self.random_elements(order, RNG_SEED + order)
        points, weights = np.polynomial.legendre.leggauss(order + 2)
        want = gauss_integrals(lengths, shapes, points, weights)
        self.assert_blocks_match(element_integrals(lengths, shapes), want, 1e-14)

    def test_hat_matrices_at_order_one(self):
        lengths = np.array([0.5, 2.0])
        dd, cd, mm = element_integrals(lengths, np.zeros((2, 0, 2)))
        assert dd.tolist() == [[[2.0, -2.0], [-2.0, 2.0]], [[0.5, -0.5], [-0.5, 0.5]]]
        assert cd.tolist() == [[[-0.5, 0.5], [-0.5, 0.5]]] * 2
        hat_mass = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6
        assert mm == pytest.approx(lengths[:, None, None] * hat_mass, rel=1e-15)

    def test_order_one_blocks_equal_product_form(self):
        # order 1 scales the unit tensor's hat blocks with no products; the
        # product form E^T T E with E = I gives the same floats
        lengths = np.concatenate(
            [np.random.default_rng(RNG_SEED).uniform(1e-8, 10.0, 200), [1e-300, 1e300]]
        )
        e = np.broadcast_to(np.eye(2), (lengths.size, 2, 2))
        dd, cd, mm = (e.swapaxes(1, 2) @ _unit_tensor(1)[(1, 2, 2), (1, 1, 2), None]) @ e
        l = lengths[:, None, None]
        got = element_integrals(lengths, np.zeros((lengths.size, 0, 2)))
        for block, want in zip(got, (dd / l, cd, mm * l)):
            assert block.shape == want.shape and np.array_equal(block, want)

    @pytest.mark.parametrize("order", [10, 11])
    def test_high_order_solve(self, order):
        problem = SteadyProblem(
            coefficients=TransportCoefficients(-1.0, 2.0, 1.0),
            domain=(0.0, 1.0),
            bc_left=BoundaryCondition.dirichlet(1.0),
            bc_right=BoundaryCondition.dirichlet(0.0),
        )
        # u = (exp(r2 x) - exp(r1 x + r2 - r1)) / (1 - exp(r2 - r1)), r = 1 +- sqrt(2)
        r1, r2 = 1.0 + math.sqrt(2.0), 1.0 - math.sqrt(2.0)
        mesh = uniform_mesh(0.0, 1.0, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            field = solve_steady(problem, mesh, polynomial_bubble(order))
        x = mesh.nodes
        exact = (np.exp(r2 * x) - np.exp(r1 * x + r2 - r1)) / (1 - np.exp(r2 - r1))
        assert field.nodal_values == pytest.approx(exact, abs=1e-10)


class TestFineElements:
    """Element lengths near 1e-6 are well posed; only a non-finite operator
    weight may fall back to linear elements."""

    COEFFS = TransportCoefficients(-1.0, 20.0, 0.0)
    MESH = Mesh1D([0.0, 2e-7, 2e-7 + 1e-6, 0.5, 1.0])

    @staticmethod
    def shapes_and_fallbacks(coeffs, mesh, enrichment):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            shapes = element_shapes(coeffs, mesh, enrichment)
        return shapes, [w for w in caught if "falling back to linear" in str(w.message)]

    @pytest.mark.parametrize("order", [3, 5])
    def test_no_spurious_fallback(self, order):
        shapes, fallbacks = self.shapes_and_fallbacks(
            self.COEFFS, self.MESH, polynomial_bubble(order)
        )
        assert fallbacks == []
        assert np.isfinite(shapes).all()
        assert shapes.any(axis=1).all()
        for l in self.MESH.lengths[:2]:
            assert np.isfinite(ls_bubble(self.COEFFS, l, 1.0, 0.0, order=order).coeffs).all()

    @pytest.mark.parametrize(
        "coeffs, length, order",
        [(TransportCoefficients(-1.0, 20.0, 0.0), 1e-40, 9),
         (TransportCoefficients(0.0, 1.0, 1.0), 1e-160, 3)],
    )
    def test_no_fallback_where_only_x_coordinates_leave_float_range(self, coeffs, length, order):
        # l^(k+1) underflows, but the unit-element Gram matrix is well posed
        shapes, fallbacks = self.shapes_and_fallbacks(
            coeffs, Mesh1D([0.0, length, 1.0]), polynomial_bubble(order)
        )
        assert fallbacks == []
        assert np.isfinite(shapes).all()
        assert shapes.any(axis=1).all()
        # only the x-coordinate view d_k / l^(k+1) leaves the float range
        with pytest.raises(DegenerateOperatorError):
            ls_bubble(coeffs, length, 1.0, 0.0, order=order)

    def test_quadratic_matches_closed_form(self):
        shapes, fallbacks = self.shapes_and_fallbacks(
            self.COEFFS, self.MESH, QUADRATIC_BUBBLE
        )
        assert fallbacks == []
        left, right = x_coefficients(self.MESH.lengths, shapes)[..., 0].T
        for j, l in enumerate(self.MESH.lengths):
            closed = quadratic_ab_closed(self.COEFFS, float(l))
            for got, want in ((left, closed.a_coef - closed.b_coef),
                              (right, closed.a_coef + closed.b_coef)):
                assert abs(got[j] - want) <= 1e-10 * abs(want)

    @pytest.mark.parametrize("order", [3, 5])
    def test_overflowing_operator_weight_falls_back(self, order):
        # eps / l^2 overflows for l = 1e-160
        mesh = Mesh1D([0.0, 1e-160, 1.0])
        shapes, fallbacks = self.shapes_and_fallbacks(
            self.COEFFS, mesh, polynomial_bubble(order)
        )
        assert len(fallbacks) == 1 and "l=1e-160" in str(fallbacks[0].message)
        assert not shapes[0].any()
        assert shapes[1].all()
        with pytest.raises(DegenerateOperatorError):
            ls_bubble(self.COEFFS, 1e-160, 1.0, 0.0, order=order)

    def test_one_warning_for_many_fallback_lengths(self):
        mesh = Mesh1D([0.0, 1e-160, 3e-160, 6e-160, 1e-159])
        assert np.unique(mesh.lengths).size == 4
        shapes, fallbacks = self.shapes_and_fallbacks(self.COEFFS, mesh, CUBIC_BUBBLE)
        assert len(fallbacks) == 1
        assert "4 lengths" in str(fallbacks[0].message)
        assert not shapes.any()

    @pytest.mark.parametrize("entry", ["element_shapes", "assemble_steady", "solve_steady",
                                       "assemble_transient", "solve_transient"])
    def test_fallback_warning_names_the_caller(self, entry):
        # eps / l^2 overflows for l = 1e-160, for the steady operator and for
        # the transient one (kappa = 0, lambda = 1)
        mesh = Mesh1D([0.0, 1e-160, 1.0])
        steady_problem = SteadyProblem(
            coefficients=self.COEFFS,
            domain=(0.0, 1.0),
            bc_left=BoundaryCondition.dirichlet(1.0),
            bc_right=BoundaryCondition.dirichlet(0.0),
        )
        transient_problem = TransientProblem(-1.0, (0.0, 1.0), lambda x: math.sin(math.pi * x))
        calls = {
            "element_shapes": lambda: element_shapes(self.COEFFS, mesh, CUBIC_BUBBLE),
            "assemble_steady": lambda: assemble_steady(steady_problem, mesh, CUBIC_BUBBLE),
            "solve_steady": lambda: solve_steady(steady_problem, mesh, CUBIC_BUBBLE),
            "assemble_transient": lambda: assemble_transient(transient_problem, mesh, CUBIC_BUBBLE),
            "solve_transient": lambda: solve_transient(
                transient_problem, mesh, CUBIC_BUBBLE, dt=0.01, t_end=0.02
            ),
        }
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            calls[entry]()
        fallbacks = [w for w in caught if "falling back to linear" in str(w.message)]
        assert [str(w.message) for w in fallbacks] == [
            "bubble coefficients degenerate for l=1e-160; "
            "falling back to linear elements on 1 of 2 elements"
        ]
        assert fallbacks[0].filename == __file__


@st.composite
def kernel_meshes(draw):
    """Meshes of three kinds: a few repeated dyadic lengths, whose node sums
    are exact, so the lengths repeat exactly; ``uniform_mesh`` up to
    N = 1e3; and graded meshes whose lengths are all distinct.  Some begin
    with an element of length 1e-160, on which eps / l^2 overflows."""
    kind = draw(st.sampled_from(["repeated", "uniform", "graded"]))
    if kind == "repeated":
        pool = draw(st.lists(st.integers(1, 64), min_size=1, max_size=4, unique=True))
        picks = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=200))
        nodes = np.concatenate(([0.0], np.cumsum(picks) / 64.0))
    elif kind == "uniform":
        nodes = uniform_mesh(0.0, draw(st.sampled_from([1.0, 3.0, 10.0])), draw(st.integers(2, 1000))).nodes
    else:
        n = draw(st.integers(2, 200))
        s = np.linspace(0.0, 1.0, n + 1)
        s[1:-1] += np.random.default_rng(draw(st.integers(0, 2**16))).uniform(-0.3, 0.3, n - 1) / n
        nodes = 2.0 * s**2
        assume(np.unique(np.diff(nodes)).size == n)
    if draw(st.booleans()):
        nodes = np.concatenate(([0.0, 1e-160], nodes[1:]))
    return Mesh1D(nodes)


def per_element_system(coeffs, mesh, enrichment):
    """(sub, diag, sup, rhs) of the kernel run on every element, with
    u = 0 at the left end and a flux of -2 at the right."""
    dd, cd, mm = element_integrals(mesh.lengths, element_shapes(coeffs, mesh, enrichment))
    k = -coeffs.epsilon * dd + coeffs.kappa * cd + coeffs.lambda_ * mm
    sub, diag, sup = _scatter(k)
    # the Dirichlet row u = 0 on the blocks' scale, and the flux term
    sub[0], diag[0], sup[0] = 0.0, np.ldexp(1.0, np.frexp(np.abs(k).max())[1] - 1), 0.0
    rhs = np.zeros_like(diag)
    rhs[-1] = -coeffs.epsilon * -2.0
    return sub, diag, sup, rhs


class TestDistinctLengthKernel:
    """Assembly runs the element kernel once per distinct length and gathers
    the blocks to the elements; the systems equal the scatter of the kernel
    run on every element bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        mesh=kernel_meshes(),
        order=st.integers(1, 6),
        coeffs=st.sampled_from([TransportCoefficients(-1.0, 20.0, 0.0),
                                TransportCoefficients(-0.2, 1.5, 3.0),
                                TransportCoefficients(-1.0, 1.0, -2.0)]),
    )
    def test_steady_equals_per_element_scatter(self, mesh, order, coeffs):
        enrichment = LINEAR if order == 1 else polynomial_bubble(order)
        problem = SteadyProblem(
            coefficients=coeffs,
            domain=(mesh.a, mesh.b),
            bc_left=BoundaryCondition.dirichlet(0.0),
            bc_right=BoundaryCondition.neumann_flux(-2.0),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            system = assemble_steady(problem, mesh, enrichment)
            want = per_element_system(coeffs, mesh, enrichment)
        for got, w in zip((system.sub, system.diag, system.sup, system.rhs), want):
            assert np.array_equal(got, w)

    @pytest.mark.parametrize("order", [2, 3])
    @pytest.mark.parametrize("n", [3, 200, 1000])
    def test_all_distinct_lengths_take_the_distinct_length_rows(self, n, order):
        # every length distinct: the kernel still runs on the sorted
        # distinct lengths, and gathering its blocks to the elements gives
        # the system and the field of the kernel run on every element
        s = np.linspace(0.0, 1.0, n + 1)
        s[1:-1] += np.random.default_rng(RNG_SEED + n).uniform(-0.3, 0.3, n - 1) / n
        mesh = Mesh1D(2.0 * s**2)
        assert np.unique(mesh.lengths).size == n
        coeffs = TransportCoefficients(-0.2, 1.5, 3.0)
        enrichment = polynomial_bubble(order)
        lengths, _, index = steady._distinct_shapes(coeffs, mesh, enrichment, stacklevel=1)
        assert index is not None and np.array_equal(lengths, np.sort(mesh.lengths))
        assert np.array_equal(lengths[index], mesh.lengths)
        problem = SteadyProblem(coeffs, (mesh.a, mesh.b), BoundaryCondition.dirichlet(0.0),
                                BoundaryCondition.neumann_flux(-2.0))
        system = assemble_steady(problem, mesh, enrichment)
        want = per_element_system(coeffs, mesh, enrichment)
        for got, w in zip((system.sub, system.diag, system.sup, system.rhs), want):
            assert np.array_equal(got, w)
        field = solve_steady(problem, mesh, enrichment)
        nodal = solve_tridiagonal(TridiagonalSystem(*want))
        assert np.array_equal(field.nodal_values, nodal)
        shapes = element_shapes(coeffs, mesh, enrichment)
        assert np.array_equal(field.bubble_coeffs, element_bubbles(shapes, nodal))

    @settings(max_examples=150, deadline=None)
    @given(
        mesh=kernel_meshes(),
        order=st.integers(1, 6),
        epsilon_lambda=st.sampled_from([(-1.0, 1.0), (-0.5, 0.0), (0.0, 2.0), (0.0, 0.0)]),
        sign_compat=st.booleans(),
    )
    def test_transient_equals_per_element_scatter(self, mesh, order, epsilon_lambda, sign_compat):
        epsilon, lambda_ = epsilon_lambda
        enrichment = LINEAR if order == 1 else polynomial_bubble(order)
        a, b = mesh.a, mesh.b
        problem = TransientProblem(epsilon, (a, b), lambda x: math.sin(math.pi * (x - a) / (b - a)), lambda_)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            system = assemble_transient(problem, mesh, enrichment, sign_compat=sign_compat)
            if epsilon == lambda_ == 0.0:
                shapes = np.zeros((mesh.n_elements, enrichment.bubble_count, 2))
            else:
                coeffs = TransportCoefficients(epsilon, 0.0, lambda_)
                shapes = element_shapes(coeffs, mesh, enrichment)
                shapes = -shapes if sign_compat else shapes
        stiff, _, mass = element_integrals(mesh.lengths, shapes)
        _, mass_diag, mass_off = (v[1:-1] for v in _scatter(mass))
        _, stiff_diag, stiff_off = (v[1:-1] for v in _scatter(-epsilon * stiff))
        want = (mass_diag, mass_off, lambda_ * mass_diag + stiff_diag,
                lambda_ * mass_off + stiff_off, shapes)
        got = (system.mass_diag, system.mass_off, system.op_diag, system.op_off, system.shapes)
        for g, w in zip(got, want):
            assert g.shape == w.shape and np.array_equal(g, w)
