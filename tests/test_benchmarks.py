import math

import numpy as np
import pytest

from bubblefem import (
    BoundaryCondition,
    EnrichmentKind,
    HISTORY_PROBE,
    LINEAR,
    Mesh1D,
    QUADRATIC_BUBBLE,
    SolutionField,
    SteadyProblem,
    TransportCoefficients,
    convergence_study,
    error_report,
    history_table,
    ls_bubble,
    profile_table,
    solve_steady,
    steady_benchmark_problem,
    uniform_mesh,
)
from bubblefem.oracles import (
    exact_steady_benchmark,
    exact_transient_benchmark,
    gauss_rule,
    steady_benchmark_bubble_coefficient,
)

TOL = 1e-3


class TestExactSteadyBenchmark:
    def test_left_boundary_value(self):
        assert exact_steady_benchmark(0.0) == pytest.approx(1.5, rel=1e-15)

    def test_unit_point(self):
        assert abs(exact_steady_benchmark(1.0) - 1.5 * math.exp(-10.0)) <= 1e-9

    def test_right_boundary_value(self):
        expected = 3.0 * math.exp(-100.0) / (1.0 + math.exp(-200.0))
        assert exact_steady_benchmark(10.0) == pytest.approx(expected, rel=1e-12)

    def test_never_overflows(self):
        xs = np.linspace(0.0, 10.0, 2001)
        with np.errstate(over="raise"):
            values = exact_steady_benchmark(xs)
        assert np.all(np.isfinite(values))
        assert values.max() <= 1.5

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            exact_steady_benchmark(-0.1)
        with pytest.raises(ValueError):
            exact_steady_benchmark(10.1)

    def test_solves_the_ode(self):
        # -u''/100 + u = 0 checked by central differences
        for x in (0.05, 0.4, 1.3, 7.0):
            h = 1e-5
            u = exact_steady_benchmark(x)
            upp = (
                exact_steady_benchmark(x + h) - 2 * u + exact_steady_benchmark(x - h)
            ) / h**2
            assert -upp / 100.0 + u == pytest.approx(0.0, abs=1e-5)


class TestExactTransientBenchmark:
    def test_center_initial_value(self):
        assert exact_transient_benchmark(math.pi / 2, 0.0) == 1.0

    def test_probe_values(self):
        assert exact_transient_benchmark(HISTORY_PROBE, 0.0) == pytest.approx(0.382, abs=TOL)
        assert exact_transient_benchmark(HISTORY_PROBE, 0.5) == pytest.approx(0.140, abs=TOL)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            exact_transient_benchmark(-0.1, 0.0)
        with pytest.raises(ValueError):
            exact_transient_benchmark(0.1, -0.5)


class TestBenchmarkCoefficient:
    def test_matches_normal_equations(self):
        coeffs = TransportCoefficients(-0.01, 0.0, 1.0)
        for l in (0.2, 1.0 / 3.0, 1.0):
            got = steady_benchmark_bubble_coefficient(l, 1.0, 0.0)
            ref = ls_bubble(coeffs, l, 1.0, 0.0, order=2).coeffs[0]
            assert got == pytest.approx(ref, rel=1e-12)

    def test_benchmark_element_value(self):
        assert steady_benchmark_bubble_coefficient(1.0 / 3.0, 1.0, 0.0) == pytest.approx(
            -12.407, abs=1e-3
        )


class TestErrorReport:
    def test_exact_linear_field_has_tiny_errors(self):
        mesh = uniform_mesh(0.0, 2.0, 6)
        field = SolutionField(mesh, 1.0 + 0.5 * mesh.nodes, LINEAR)
        report = error_report(field, lambda x: 1.0 + 0.5 * x)
        assert report.nodal_linf <= 1e-10
        assert report.l2 <= 1e-10

    def test_benchmark_bubble_beats_linear(self):
        problem = steady_benchmark_problem()
        mesh = uniform_mesh(0.0, 10.0, 50)
        linear = error_report(solve_steady(problem, mesh, LINEAR), exact_steady_benchmark)
        bubble = error_report(
            solve_steady(problem, mesh, QUADRATIC_BUBBLE), exact_steady_benchmark
        )
        assert bubble.nodal_linf < linear.nodal_linf
        assert bubble.element_count == 50
        assert bubble.enrichment == QUADRATIC_BUBBLE

    def test_refinement_reduces_linear_l2(self):
        problem = steady_benchmark_problem()
        errors = [
            error_report(
                solve_steady(problem, uniform_mesh(0.0, 10.0, n), LINEAR),
                exact_steady_benchmark,
            ).l2
            for n in (10, 20, 40, 80)
        ]
        assert all(errors[i + 1] < errors[i] for i in range(3))

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_matches_per_element_reference_loop(self, order):
        problem = steady_benchmark_problem()
        mesh = Mesh1D(10.0 * np.linspace(0.0, 1.0, 41) ** 2)
        field = solve_steady(problem, mesh, EnrichmentKind(order))
        report = error_report(field, exact_steady_benchmark)
        nodal, l2 = per_element_error(field, exact_steady_benchmark)
        assert report.nodal_linf == nodal
        assert report.l2 == pytest.approx(l2, rel=1e-14, abs=0.0)

    def test_exact_is_called_twice_on_arrays(self):
        problem = steady_benchmark_problem()
        field = solve_steady(problem, uniform_mesh(0.0, 10.0, 30), QUADRATIC_BUBBLE)
        shapes = []

        def counting_exact(x):
            shapes.append(np.shape(x))
            return exact_steady_benchmark(x)

        error_report(field, counting_exact)
        assert sorted(shapes) == [(30, 8), (31,)]

    def test_constant_exact(self):
        mesh = uniform_mesh(0.0, 2.0, 6)
        field = SolutionField(mesh, 1.0 + 0.5 * mesh.nodes, LINEAR)
        report = error_report(field, lambda x: 1.0)
        assert report.nodal_linf == pytest.approx(1.0, rel=1e-14)
        # int_0^2 (x/2)^2 dx = 2/3, integrated exactly by the Gauss rule
        assert report.l2 == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-14)


def per_element_error(field, exact):
    """Reference for error_report: one scalar exact call per point and one
    kernel call per element."""
    mesh = field.mesh
    nodal_exact = np.array([float(exact(x)) for x in mesh.nodes])
    nodal_linf = float(np.max(np.abs(field.nodal_values - nodal_exact)))
    rule = gauss_rule(8)
    total = 0.0
    for j in range(mesh.n_elements):
        l = mesh.lengths[j]
        local = 0.5 * l * (rule.points + 1.0)
        w = 0.5 * l * rule.weights
        num = field.eval_on_element(j, local)
        ref = np.array([float(exact(mesh.nodes[j] + t)) for t in local])
        total += float(np.sum(w * (num - ref) ** 2))
    return nodal_linf, math.sqrt(total)


class TestReferenceTables:
    def test_all_cells_match_printed_values(self):
        rows = profile_table() + history_table()
        assert len(rows) == 28
        for row in rows:
            assert abs(row.exact - row.reference_exact) <= TOL
            assert abs(row.bubble - row.reference_bubble) <= TOL
            assert abs(row.linear - row.reference_linear) <= TOL
            assert row.passes

    def test_profile_spot_rows(self):
        rows = profile_table()
        assert len(rows) == 17
        quarter = rows[4]
        assert (quarter.exact, quarter.bubble, quarter.linear) == pytest.approx(
            (0.707, 0.627, 0.5), abs=TOL
        )
        center = rows[8]
        assert (center.exact, center.bubble, center.linear) == pytest.approx(
            (1.0, 1.0, 1.0), abs=TOL
        )

    def test_profile_symmetry(self):
        rows = profile_table()
        for k in range(len(rows)):
            mirror = rows[len(rows) - 1 - k]
            assert rows[k].bubble == pytest.approx(mirror.bubble, abs=1e-12)
            assert rows[k].linear == pytest.approx(mirror.linear, abs=1e-12)

    def test_history_spot_rows(self):
        rows = history_table()
        assert len(rows) == 11
        assert (rows[0].exact, rows[0].bubble, rows[0].linear) == pytest.approx(
            (0.382, 0.345, 0.25), abs=TOL
        )
        assert (rows[-1].exact, rows[-1].bubble, rows[-1].linear) == pytest.approx(
            (0.051, 0.045, 0.027), abs=TOL
        )

    def test_history_is_single_exponential_mode(self):
        rows = history_table()
        amplitude = rows[0].bubble
        rate = -math.log(rows[1].bubble / amplitude) / 0.1
        for row in rows:
            assert row.bubble == pytest.approx(amplitude * math.exp(-rate * row.coordinate),
                                               rel=1e-10)
        assert rate == pytest.approx(2.031, abs=1e-3)


class TestConvergenceStudy:
    def test_benchmark_pairs(self):
        reports = convergence_study(
            steady_benchmark_problem(),
            exact_steady_benchmark,
            [LINEAR, QUADRATIC_BUBBLE],
            [30, 50],
        )
        assert len(reports) == 4
        by_key = {(r.enrichment, r.element_count): r for r in reports}
        for count in (30, 50):
            assert (
                by_key[(QUADRATIC_BUBBLE, count)].nodal_linf
                < by_key[(LINEAR, count)].nodal_linf
            )
        for enrichment in (LINEAR, QUADRATIC_BUBBLE):
            assert (
                by_key[(enrichment, 50)].nodal_linf < by_key[(enrichment, 30)].nodal_linf
            )

    def test_pure_diffusion_always_exact(self):
        problem = SteadyProblem(
            coefficients=TransportCoefficients(-1.0, 0.0, 0.0),
            domain=(0.0, 1.0),
            bc_left=BoundaryCondition.dirichlet(1.0),
            bc_right=BoundaryCondition.dirichlet(0.0),
        )
        reports = convergence_study(
            problem, lambda x: 1.0 - x, [LINEAR, QUADRATIC_BUBBLE], [1, 3, 9]
        )
        for report in reports:
            assert report.nodal_linf <= 1e-10
            assert report.l2 <= 1e-10

    def test_count_validation(self):
        with pytest.raises(ValueError):
            convergence_study(
                steady_benchmark_problem(), exact_steady_benchmark, [LINEAR], [0]
            )
