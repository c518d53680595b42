import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bubblefem import (
    DegenerateOperatorError,
    TransportCoefficients,
    ls_bubble,
    quadratic_ab,
    residual_functional,
)
from bubblefem.oracles import (
    bubble_2d_coefficient,
    cubic_closed_forms,
    quadratic_ab_closed,
    residual_functional_2d,
    steady_benchmark_bubble_coefficient,
    transient_coefficient,
)
from bubblefem.enrichment import _bubble_rows, _unit_tensor, unit_bubble_coefficients

RNG_SEED = 987123


def random_inputs(rng):
    coeffs = TransportCoefficients(
        epsilon=-rng.uniform(1e-3, 10.0),
        kappa=rng.uniform(-10.0, 10.0),
        lambda_=rng.uniform(0.0, 10.0),
    )
    return coeffs, rng.uniform(0.01, 5.0), rng.uniform(-2, 2), rng.uniform(-2, 2)


def _trapezoid_once(coeffs, l, u0, ul, bubble_coeffs, n):
    xs = np.linspace(0.0, l, n + 1)
    u_lin = (l - xs) / l * u0 + xs / l * ul
    d1 = (ul - u0) / l
    d2 = 0.0
    for k, c in enumerate(bubble_coeffs, start=1):
        u_lin = u_lin + c * xs**k * (l - xs)
        d1 = d1 + c * (k * l * xs ** (k - 1) - (k + 1) * xs**k)
        curv = -(k + 1) * k * xs ** (k - 1)
        if k >= 2:
            curv = curv + k * (k - 1) * l * xs ** (k - 2)
        d2 = d2 + c * curv
    r = coeffs.epsilon * d2 + coeffs.kappa * d1 + coeffs.lambda_ * u_lin
    return float(np.trapezoid(r * r, xs))


LOG_UNIFORM = st.floats(-3.0, 2.0).map(lambda e: 10.0**e)


def assert_gradient_vanishes(
    coeffs, l, u0, ul, bubble_coeffs, rel_step=1e-6, unit_element=False
):
    """Central differences of the residual functional vanish at the
    minimiser, relative to its curvature along each coefficient.

    J is exactly quadratic in the coefficients, so a central difference is
    exact at any step; ``rel_step=1`` keeps rounding in J below the
    curvature term across the whole coefficient space.  With
    ``unit_element`` the coefficients given, and the coordinates of the
    check, are the unit-element amplitudes d_k = c_k l^(k+1), in which the
    check does not depend on the length.
    """
    coords = np.asarray(bubble_coeffs, dtype=float)
    scale = l ** np.arange(2, coords.size + 2) if unit_element else 1.0

    def functional(y):
        return residual_functional(coeffs, l, u0, ul, y / scale)

    value = functional(coords)
    for k in range(coords.size):
        step = rel_step * max(1.0, abs(coords[k]))
        up, dn = coords.copy(), coords.copy()
        up[k] += step
        dn[k] -= step
        j_up, j_dn = functional(up), functional(dn)
        grad = (j_up - j_dn) / (2 * step)
        curvature = (j_up - 2 * value + j_dn) / step**2
        scale_k = max(curvature * max(1.0, abs(coords[k])), abs(grad), 1e-300)
        assert abs(grad) / scale_k <= 1e-8


def trapezoid_residual_integral(coeffs, l, u0, ul, bubble_coeffs, n=10_000):
    """Independent oracle: composite trapezoid on a 10^4-interval grid with
    one Richardson step to push the h^2 discretisation error below 1e-10."""
    coarse = _trapezoid_once(coeffs, l, u0, ul, bubble_coeffs, n)
    fine = _trapezoid_once(coeffs, l, u0, ul, bubble_coeffs, 2 * n)
    return (4.0 * fine - coarse) / 3.0


class TestResidualFunctional:
    def test_linear_is_residual_free_for_pure_diffusion(self):
        coeffs = TransportCoefficients(-1.0, 0.0, 0.0)
        assert residual_functional(coeffs, 2.0, 0.3, -1.7, [0.0]) == 0.0

    def test_convexity_around_minimiser(self):
        coeffs = TransportCoefficients(-1.0, 2.0, 3.0)
        sol = ls_bubble(coeffs, 1.2, 1.0, -0.5, order=2)
        for delta in (-0.31, -0.01, 0.02, 0.5):
            perturbed = residual_functional(coeffs, 1.2, 1.0, -0.5, sol.coeffs + delta)
            assert perturbed >= sol.residual_value

    def test_matches_fine_grid_integration(self):
        coeffs = TransportCoefficients(-0.01, 0.0, 1.0)
        l, u0, ul = 1.0 / 3.0, 1.0, 0.0
        c = steady_benchmark_bubble_coefficient(l, u0, ul)
        value = residual_functional(coeffs, l, u0, ul, [c])
        oracle = trapezoid_residual_integral(coeffs, l, u0, ul, [c])
        assert abs(value - oracle) <= 1e-10 * max(value, oracle)

    def test_length_validation(self):
        with pytest.raises(ValueError):
            residual_functional(TransportCoefficients(-1, 0, 1), 0.0, 0, 1, [0.0])

    @pytest.mark.parametrize(
        "l, u0, ul",
        [(-1.0, 0.0, 1.0), (math.inf, 0.0, 1.0), (math.nan, 0.0, 1.0),
         (1.0, math.nan, 1.0), (1.0, 0.0, math.inf), (1.0, -math.inf, 0.0)],
    )
    def test_non_finite_or_non_positive_inputs_rejected(self, l, u0, ul):
        with pytest.raises(ValueError):
            residual_functional(TransportCoefficients(-1, 0, 1), l, u0, ul, [0.5])


class TestLsBubble:
    def test_matches_benchmark_closed_form(self):
        coeffs = TransportCoefficients(-0.01, 0.0, 1.0)
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(50):
            l = rng.uniform(0.01, 5.0)
            u0, ul = rng.uniform(-2, 2, size=2)
            expected = steady_benchmark_bubble_coefficient(l, u0, ul)
            got = ls_bubble(coeffs, l, u0, ul, order=2).coeffs[0]
            assert abs(got - expected) <= 1e-12 * max(abs(got), abs(expected), 1e-30)

    @pytest.mark.parametrize("order", [2, 3])
    def test_zero_for_pure_diffusion(self, order):
        sol = ls_bubble(TransportCoefficients(-2.5, 0.0, 0.0), 1.7, 1.0, -1.0, order=order)
        assert sol.coeffs == pytest.approx(np.zeros(order - 1), abs=1e-15)
        assert sol.residual_value == pytest.approx(0.0, abs=1e-15)

    def test_brute_force_scan_for_transient_element(self):
        # scan J over a fine coefficient grid as an independent minimiser
        coeffs = TransportCoefficients(-1.0, 0.0, 1.0)
        l = math.pi / 2
        grid = np.arange(-1.0, 1.0, 1e-4)
        values = [residual_functional(coeffs, l, 0.0, 1.0, [c]) for c in grid]
        scan_min = grid[int(np.argmin(values))]
        sol = ls_bubble(coeffs, l, 0.0, 1.0, order=2)
        assert abs(sol.coeffs[0] - scan_min) <= 1e-4
        assert sol.coeffs[0] == pytest.approx(-0.2062, abs=5e-4)

    def test_validation(self):
        coeffs = TransportCoefficients(-1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            ls_bubble(coeffs, -1.0, 0.0, 1.0, order=2)
        with pytest.raises(ValueError):
            ls_bubble(coeffs, 1.0, 0.0, 1.0, order=1)

    def test_gradient_vanishes_at_minimiser(self):
        rng = np.random.default_rng(RNG_SEED + 1)
        for _ in range(40):
            coeffs, _, u0, ul = random_inputs(rng)
            l = rng.uniform(0.01, 10.0)
            order = int(rng.integers(2, 5))
            sol = ls_bubble(coeffs, l, u0, ul, order=order)
            assert_gradient_vanishes(coeffs, l, u0, ul, sol.coeffs)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        eps=LOG_UNIFORM,
        kap=LOG_UNIFORM,
        kap_sign=st.sampled_from((-1.0, 1.0)),
        lam=LOG_UNIFORM,
        lengths=st.lists(LOG_UNIFORM, min_size=1, max_size=6),
        order=st.integers(2, 5),
        u0=st.floats(-2.0, 2.0),
        ul=st.floats(-2.0, 2.0),
    )
    def test_batched_minimiser_across_coefficient_space(
        self, eps, kap, kap_sign, lam, lengths, order, u0, ul
    ):
        coeffs = TransportCoefficients(-eps, kap_sign * kap, lam)
        unit, degenerate = unit_bubble_coefficients(coeffs, np.array(lengths), order)
        assert not degenerate.any()
        for l, row in zip(lengths, unit):
            if order == 2:
                closed = quadratic_ab_closed(coeffs, l)
                left, right = row[0] / l**2
                scale = max(abs(closed.a_coef), abs(closed.b_coef))
                assert abs(0.5 * (left + right) - closed.a_coef) <= 1e-10 * scale
                assert abs(0.5 * (right - left) - closed.b_coef) <= 1e-10 * scale
            else:
                assert_gradient_vanishes(
                    coeffs, l, u0, ul, row @ (u0, ul), rel_step=1.0, unit_element=True
                )

    def test_residual_orthogonal_to_basis_response(self):
        # the minimiser makes int R * L(b_k) dx vanish for every basis bubble
        from numpy.polynomial import polynomial as npoly

        def apply_operator(coeffs, p):
            d1 = npoly.polyder(p)
            return npoly.polyadd(
                npoly.polyadd(coeffs.epsilon * npoly.polyder(d1), coeffs.kappa * d1),
                coeffs.lambda_ * p,
            )

        rng = np.random.default_rng(RNG_SEED + 2)
        for _ in range(40):
            coeffs, l, u0, ul = random_inputs(rng)
            order = int(rng.integers(2, 5))
            sol = ls_bubble(coeffs, l, u0, ul, order=order)
            residual = apply_operator(coeffs, np.array([u0, (ul - u0) / l]))
            responses = []
            for k, c in enumerate(sol.coeffs, start=1):
                bubble = np.zeros(k + 2)
                bubble[k:] = l, -1.0  # x^k (l - x)
                r_k = apply_operator(coeffs, bubble)
                responses.append(r_k)
                residual = npoly.polyadd(residual, c * r_k)
            for r_k in responses:
                prod = npoly.polymul(residual, r_k)
                powers = np.arange(prod.size)
                inner = float(np.sum(prod * l ** (powers + 1) / (powers + 1)))
                scale = float(np.sum(np.abs(prod) * l ** (powers + 1) / (powers + 1)))
                assert abs(inner) <= 1e-10 * max(scale, 1e-300)

    def test_monotone_refinement(self):
        rng = np.random.default_rng(RNG_SEED + 3)
        for _ in range(40):
            coeffs, l, u0, ul = random_inputs(rng)
            j0 = residual_functional(coeffs, l, u0, ul, [0.0])
            j2 = ls_bubble(coeffs, l, u0, ul, order=2).residual_value
            j3 = ls_bubble(coeffs, l, u0, ul, order=3).residual_value
            slack = 1e-12 * max(j0, 1.0)
            assert j3 <= j2 + slack
            assert j2 <= j0 + slack


EPS = np.finfo(float).eps
# lengths whose weight rows are not finite (0, nan, 1e-200 overflows eps/l^2),
# all zero when lambda = 0 (inf), or of extreme ratios (1e-150, 1e150)
SPECIAL_LENGTHS = st.sampled_from((0.0, math.nan, math.inf, 1e-200, 1e-150, 1e150, 1e300))
EXTREME = st.floats(-150.0, 150.0).map(lambda e: 10.0**e)


def weight_rows(coeffs, lengths):
    """The weight rows (eps/l^2, kappa/l, lambda) scaled to a largest
    magnitude of 1, and which of them are finite and nonzero; the others
    hold ones, as in unit_bubble_coefficients."""
    l = np.asarray(lengths, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        w = np.stack(
            [coeffs.epsilon / l**2, coeffs.kappa / l, np.full_like(l, coeffs.lambda_)], axis=1
        )
        scale = np.abs(w).max(axis=1)
        ok = np.isfinite(scale) & (scale > 0.0)
        return np.where(ok[:, None], w / scale[:, None], 1.0), ok


def lapack_minimiser(gram, rhs, ok):
    """Reference: a stacked eigvalsh for the 1e12 gate and a stacked solve."""
    eig = np.linalg.eigvalsh(gram)
    ok = ok & (eig[:, 0] > 0.0) & (eig[:, -1] <= 1e12 * eig[:, 0])
    return np.linalg.solve(gram, rhs), ~ok


class TestUnitBubbleCoefficients:
    @pytest.mark.parametrize("order", [1, 0, -1, 2.5, 3.0, "3", None])
    def test_order_below_two_or_not_an_integer_rejected(self, order):
        with pytest.raises(ValueError, match="integer >= 2"):
            unit_bubble_coefficients(TransportCoefficients(-1.0, 1.0, 1.0), np.ones(3), order)

    def test_numpy_integer_order(self):
        coeffs, lengths = TransportCoefficients(-1.0, 1.0, 1.0), np.array([0.1, 1.0, 10.0])
        for order in (2, 3, 5):
            unit, degenerate = unit_bubble_coefficients(coeffs, lengths, np.int64(order))
            want, want_degenerate = unit_bubble_coefficients(coeffs, lengths, order)
            assert np.array_equal(unit, want) and np.array_equal(degenerate, want_degenerate)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        eps=LOG_UNIFORM | st.just(0.0),
        kap=LOG_UNIFORM | st.just(0.0),
        kap_sign=st.sampled_from((-1.0, 1.0)),
        lam=LOG_UNIFORM | st.just(0.0),
        lengths=st.lists(LOG_UNIFORM | EXTREME | SPECIAL_LENGTHS, min_size=1, max_size=8),
        order=st.sampled_from((2, 3)),
    )
    def test_closed_forms_match_lapack(self, eps, kap, kap_sign, lam, lengths, order):
        # orders 2 and 3 solve their 1x1 and 2x2 Gram matrices in closed
        # form; the reference takes LAPACK on the same Gram matrices
        assume(eps or kap or lam)
        coeffs = TransportCoefficients(-eps, kap_sign * kap, lam)
        unit, degenerate = unit_bubble_coefficients(coeffs, np.array(lengths), order)
        w, ok = weight_rows(coeffs, lengths)
        q = ((w[:, :, None] * w[:, None, :]).reshape(-1, 9) @ _bubble_rows(order)).reshape(
            -1, order - 1, order + 1
        )
        want, want_degenerate = lapack_minimiser(q[:, :, 2:], -q[:, :, :2], ok)
        assert np.array_equal(degenerate, want_degenerate)
        assert np.array_equal(degenerate, ~ok)
        good = ~degenerate
        gap = np.abs(unit[good] - want[good]).max(axis=(1, 2))
        # measured at most 3.8e-15 over 3e5 operators of this space, and
        # 4.0e-14 over 4e5 random signed weight rows of ratios up to 1e12
        assert (gap <= 1e-13 * np.abs(want[good]).max(axis=(1, 2))).all()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        eps=LOG_UNIFORM,
        kap=LOG_UNIFORM | st.just(0.0),
        kap_sign=st.sampled_from((-1.0, 1.0)),
        lam=LOG_UNIFORM | st.just(0.0),
        lengths=st.lists(LOG_UNIFORM | SPECIAL_LENGTHS, min_size=1, max_size=8),
        order=st.integers(4, 7),
    )
    def test_matrix_product_matches_einsum_at_higher_orders(
        self, eps, kap, kap_sign, lam, lengths, order
    ):
        # the quadratic form by one matrix product against the einsum over
        # the whole tensor; both sum nine products w_a w_b T[a, b] in their
        # own order, so they differ by a perturbation of each entry of at
        # most 8 eps times the same form taken in magnitudes (|w|, |T|),
        # and the minimisers by that perturbation through the inverse Gram
        coeffs = TransportCoefficients(-eps, kap_sign * kap, lam)
        unit, degenerate = unit_bubble_coefficients(coeffs, np.array(lengths), order)
        w, ok = weight_rows(coeffs, lengths)
        tensor = _unit_tensor(order)
        q = np.einsum("ea,eb,abij->eij", w, w, tensor)[:, 2:]
        gram, rhs = q[:, :, 2:], -q[:, :, :2]
        want, want_degenerate = lapack_minimiser(gram, rhs, ok)
        assert np.array_equal(degenerate, want_degenerate)
        good = ~degenerate
        magnitudes = np.einsum("ea,eb,abij->eij", np.abs(w), np.abs(w), np.abs(tensor))[good, 2:]
        size = np.abs(want[good]).max(axis=(1, 2))
        lmin = np.linalg.eigvalsh(gram[good])[:, 0]
        bound = (
            16.0 * EPS
            * (magnitudes[:, :, :2].max(axis=(1, 2)) + magnitudes[:, :, 2:].sum(2).max(1) * size)
            / lmin
        )
        # the gap measured at most 1.5 times the first-order bound with 1 eps
        assert (np.abs(unit[good] - want[good]).max(axis=(1, 2)) <= bound).all()

    def test_gate_cannot_flip_at_orders_two_and_three(self):
        # only rows that are not finite or all zero are degenerate at orders
        # 2 and 3.  Order 2: the 1x1 Gram of a weight row w is w^T M w with
        # M = T[:, :, 2, 2], at least lambda_min(M) |w|^2 >= lambda_min(M)
        # when the largest |w_a| is 1.
        assert np.linalg.eigvalsh(_unit_tensor(2)[:, :, 2, 2])[0] >= 5e-3
        # Order 3: the condition number of the 2x2 Gram over weight rows
        # peaked at 5.5e2 on a 2.9e6-point grid of the unit sphere, at
        # w = (0.085, 0.263, 1), far below the gate's 1e12
        rng = np.random.default_rng(RNG_SEED + 8)
        sample = rng.normal(size=(100_000, 3))
        magnitudes = np.array([0.0, 1e-16, 1e-8, 1e-3, 0.085, 0.263, 1.0])
        values = np.concatenate([-magnitudes[1:], magnitudes])
        grid = np.stack(np.meshgrid(values, values, values), axis=-1).reshape(-1, 3)
        w = np.concatenate([sample, grid[np.abs(grid).max(axis=1) > 0.0], [[0.085, 0.263, 1.0]]])
        w /= np.abs(w).max(axis=1)[:, None]
        eig = np.linalg.eigvalsh(np.einsum("ea,eb,abij->eij", w, w, _unit_tensor(3)[:, :, 2:, 2:]))
        assert (eig[:, 0] > 0.0).all()
        condition = eig[:, 1] / eig[:, 0]
        assert condition.max() <= 6e2
        assert condition[-1] >= 5e2  # the measured peak is in the set

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        eps=LOG_UNIFORM | st.just(0.0),
        lam=LOG_UNIFORM | st.just(0.0),
        lengths=st.lists(LOG_UNIFORM | EXTREME, min_size=1, max_size=8),
    )
    def test_symmetric_operator_has_zero_b(self, eps, lam, lengths):
        # for kappa = 0 the two unit-nodal right-hand sides are the same
        # sums of the same products, so B is exactly zero
        assume(eps or lam)
        coeffs = TransportCoefficients(-eps, 0.0, lam)
        for l in lengths:
            try:
                ab = quadratic_ab(coeffs, l)
            except DegenerateOperatorError:
                continue
            assert ab.b_coef == 0.0


class TestQuadraticAB:
    def test_benchmark_element(self):
        ab = quadratic_ab(TransportCoefficients(-0.01, 0.0, 1.0), 1.0 / 3.0)
        assert ab.a_coef == pytest.approx(-12.407, abs=1e-3)
        assert ab.b_coef == 0.0

    def test_pure_diffusion_gives_hats(self):
        ab = quadratic_ab(TransportCoefficients(-3.7, 0.0, 0.0), 2.0)
        assert ab.a_coef == pytest.approx(0.0, abs=1e-15)
        assert ab.b_coef == 0.0

    def test_transient_element(self):
        ab = quadratic_ab(TransportCoefficients(-1.0, 0.0, 1.0), math.pi / 2)
        assert ab.a_coef == pytest.approx(-0.2062, abs=5e-4)
        assert ab.b_coef == 0.0

    def test_composition_matches_ls_bubble(self):
        rng = np.random.default_rng(RNG_SEED + 4)
        for _ in range(200):
            coeffs, l, u0, ul = random_inputs(rng)
            ab = quadratic_ab(coeffs, l)
            direct = ls_bubble(coeffs, l, u0, ul, order=2).coeffs[0]
            composed = ab.coefficient(u0, ul)
            assert abs(composed - direct) <= 1e-12 * max(abs(composed), abs(direct), 1e-30)

    def test_closed_form_agrees_with_canonical(self):
        rng = np.random.default_rng(RNG_SEED + 5)
        for _ in range(200):
            coeffs, l, _, _ = random_inputs(rng)
            canonical = quadratic_ab(coeffs, l)
            closed = quadratic_ab_closed(coeffs, l)
            scale = max(abs(canonical.a_coef), abs(canonical.b_coef), 1e-30)
            assert abs(canonical.a_coef - closed.a_coef) <= 1e-10 * scale
            assert abs(canonical.b_coef - closed.b_coef) <= 1e-10 * scale

    @pytest.mark.parametrize("l", [math.inf, math.nan])
    @pytest.mark.parametrize(
        "entry",
        [lambda c, l: quadratic_ab(c, l), lambda c, l: ls_bubble(c, l, 0.0, 1.0, order=2),
         lambda c, l: ls_bubble(c, l, 0.0, 1.0, order=3)],
        ids=["quadratic_ab", "ls_bubble-2", "ls_bubble-3"],
    )
    def test_non_finite_length_rejected(self, entry, l):
        # both entry points check the length before the minimiser, with the
        # message of residual_functional
        with pytest.raises(ValueError, match="element length must be positive and finite"):
            entry(TransportCoefficients(-1.0, 1.0, 1.0), l)

    def test_closed_coefficient_helper(self):
        coeffs = TransportCoefficients(-0.4, 1.3, 2.0)
        got = quadratic_ab_closed(coeffs, 0.8).coefficient(0.5, -1.0)
        direct = ls_bubble(coeffs, 0.8, 0.5, -1.0, order=2).coeffs[0]
        assert got == pytest.approx(direct, rel=1e-12)


class TestTransientCoefficient:
    def test_reference_value(self):
        c = transient_coefficient(-1.0, math.pi / 2)
        assert abs(c) == pytest.approx(0.206, abs=5e-4)
        assert c == pytest.approx(-0.2062, abs=5e-4)

    def test_zero_numerator(self):
        l = 0.6
        assert transient_coefficient(l * l / 12.0, l) == 0.0

    def test_equals_normal_equation_solve(self):
        rng = np.random.default_rng(RNG_SEED + 6)
        for _ in range(100):
            eps = -rng.uniform(1e-3, 10.0)
            l = rng.uniform(0.01, 5.0)
            closed = transient_coefficient(eps, l)
            solved = ls_bubble(
                TransportCoefficients(eps, 0.0, 1.0), l, 0.0, 1.0, order=2
            ).coeffs[0]
            assert abs(closed - solved) <= 1e-12 * max(abs(closed), abs(solved))

    def test_overflowing_length_is_degenerate(self):
        with pytest.raises(DegenerateOperatorError):
            transient_coefficient(-1.0, 1e200)

    def test_length_validation(self):
        # every closed form of the one-element operator shares one length check
        coeffs = TransportCoefficients(-1.0, 1.0, 1.0)
        closed_forms = (
            lambda l: transient_coefficient(-1.0, l),
            lambda l: quadratic_ab_closed(coeffs, l),
            lambda l: cubic_closed_forms(coeffs, l, 1.0, 0.0),
            lambda l: steady_benchmark_bubble_coefficient(l, 1.0, 0.0),
        )
        for closed_form in closed_forms:
            for l in (0.0, -1.0, math.nan):
                with pytest.raises(ValueError):
                    closed_form(l)


def brute_force_two_coefficients(coeffs, l, u0, ul, center=(0.0, 0.0), span=4.0):
    """Grid search with local refinement for the (c, f) pair."""
    c0, f0 = center
    for _ in range(9):
        cs = np.linspace(c0 - span, c0 + span, 41)
        fs = np.linspace(f0 - span, f0 + span, 41)
        best = (math.inf, c0, f0)
        for c in cs:
            for f in fs:
                val = residual_functional(coeffs, l, u0, ul, [c, f])
                if val < best[0]:
                    best = (val, c, f)
        _, c0, f0 = best
        span *= 0.2
    return c0, f0


class TestCubicCoefficients:
    def test_zero_for_pure_diffusion(self):
        sol = ls_bubble(TransportCoefficients(-1.0, 0.0, 0.0), 1.0, 1.0, -2.0, order=3)
        assert sol.coeffs == pytest.approx([0.0, 0.0], abs=1e-15)

    def test_cubic_never_worse_than_quadratic(self):
        coeffs = TransportCoefficients(-0.01, 0.0, 1.0)
        j2 = ls_bubble(coeffs, 1.0 / 3.0, 1.0, 0.0, order=2).residual_value
        j3 = ls_bubble(coeffs, 1.0 / 3.0, 1.0, 0.0, order=3).residual_value
        assert j3 <= j2

    def test_matches_brute_force_grid(self):
        coeffs = TransportCoefficients(-1.0, 1.0, 1.0)
        sol = ls_bubble(coeffs, 0.5, 1.0, 2.0, order=3)
        c_ref, f_ref = brute_force_two_coefficients(coeffs, 0.5, 1.0, 2.0)
        assert sol.coeffs[0] == pytest.approx(c_ref, abs=1e-6)
        assert sol.coeffs[1] == pytest.approx(f_ref, abs=1e-6)
        # frozen values from an exact rational solve of the 2x2 normal equations
        assert sol.coeffs[0] == pytest.approx(-1.48987894840, abs=1e-9)
        assert sol.coeffs[1] == pytest.approx(-0.894701002710, abs=1e-9)

    def test_closed_forms_match_only_in_special_cases(self):
        # the stored cubic closed forms are defective away from special
        # cases; they collapse onto the true solution for kappa=0, u0=0, l=1
        coeffs = TransportCoefficients(-0.7, 0.0, 2.3)
        sol = ls_bubble(coeffs, 1.0, 0.0, 1.4, order=3)
        closed = cubic_closed_forms(coeffs, 1.0, 0.0, 1.4)
        assert closed[0] == pytest.approx(sol.coeffs[0], rel=1e-10)
        assert closed[1] == pytest.approx(sol.coeffs[1], rel=1e-10)

        general = TransportCoefficients(-1.0, 1.0, 1.0)
        sol = ls_bubble(general, 0.5, 1.0, 2.0, order=3)
        closed = cubic_closed_forms(general, 0.5, 1.0, 2.0)
        assert abs(closed[0] - sol.coeffs[0]) / abs(sol.coeffs[0]) > 1e-8
        assert abs(closed[1] - sol.coeffs[1]) / abs(sol.coeffs[1]) > 1e-8


class TestBubble2D:
    def test_reference_value(self):
        assert bubble_2d_coefficient(1, 1, 1, 0, 1, 0) == pytest.approx(30.0 / 13.0, rel=1e-14)

    def test_equal_corners_zero(self):
        assert bubble_2d_coefficient(2.0, 0.5, 0.3, 0.3, 0.3, 0.3) == 0.0

    def test_antisymmetry(self):
        c1 = bubble_2d_coefficient(1.3, 0.7, 1.0, -0.5, 0.25, 2.0)
        c2 = bubble_2d_coefficient(1.3, 0.7, -0.5, 1.0, 2.0, 0.25)
        assert c1 == -c2

    def test_zero_data_zero_functional(self):
        assert residual_functional_2d(1.0, 1.0, (0, 0, 0, 0), 0.0) == 0.0

    def test_formula_is_functional_minimiser(self):
        corners = (1.0, 0.0, 1.0, 0.0)
        c_star = bubble_2d_coefficient(1.0, 1.0, *corners)
        j = [residual_functional_2d(1.0, 1.0, corners, c) for c in (c_star - 1, c_star, c_star + 1)]
        vertex = c_star - (j[2] - j[0]) / (2 * (j[0] - 2 * j[1] + j[2]))
        assert vertex == pytest.approx(30.0 / 13.0, rel=1e-12)
        for delta in (-0.01, 0.01):
            assert residual_functional_2d(1.0, 1.0, corners, c_star + delta) >= j[1]

    def test_random_convexity(self):
        rng = np.random.default_rng(RNG_SEED + 7)
        for _ in range(50):
            l, h = rng.uniform(0.1, 5.0, size=2)
            corners = tuple(rng.uniform(-2, 2, size=4))
            c_star = bubble_2d_coefficient(l, h, *corners)
            j_star = residual_functional_2d(l, h, corners, c_star)
            for delta in (-0.01, 0.01):
                assert residual_functional_2d(l, h, corners, c_star + delta) >= j_star

    def test_side_validation(self):
        with pytest.raises(ValueError):
            bubble_2d_coefficient(0.0, 1.0, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            residual_functional_2d(1.0, -1.0, (0, 0, 0, 0), 0.0)
