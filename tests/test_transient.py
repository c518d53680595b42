import math
from dataclasses import replace

import numpy as np
import pytest

from bubblefem import (
    AssemblyError,
    EnrichmentKind,
    LINEAR,
    LinearSolveError,
    QUADRATIC_BUBBLE,
    TransientProblem,
    TransientSystem,
    Trajectory,
    assemble_transient,
    semi_analytic_two_element,
    slowest_decay_rate,
    solve_transient,
    transient_benchmark_problem,
    transient_coefficient,
    transient_element_matrices,
    uniform_mesh,
)
from bubblefem.linalg import nonpositive_pivots, tridiagonal_matvec
from bubblefem.model import Mesh1D
from bubblefem.steady import element_integrals

RNG_SEED = 777002


def two_element_mesh():
    return uniform_mesh(0.0, math.pi, 2)


def dense_slowest_rate(system):
    """Smallest generalized eigenvalue of (A, Mg) by Cholesky reduction and
    a dense symmetric eigensolver."""

    def full(diag, off):
        return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)

    lower = np.linalg.cholesky(full(system.mass_diag, system.mass_off))
    a = full(system.op_diag, system.op_off)
    inv = np.linalg.inv(lower)
    return float(np.linalg.eigvalsh(inv @ a @ inv.T)[0])


def step_matrix(system, dt):
    """Diagonal and off-diagonal of the trapezoidal step matrix Mg + dt/2 A,
    with the float64 arithmetic of the package."""
    half = 0.5 * dt
    return system.mass_diag + half * system.op_diag, system.mass_off + half * system.op_off


def long_double_march(system, dt, state, steps):
    """The trapezoidal states after each of ``steps`` steps from ``state``,
    computed in long double from the float64 step matrices: a long-double
    product with Mg - dt/2 A, then a Thomas sweep (the symmetric positive
    definite Mg + dt/2 A needs no interchange)."""
    ld = np.longdouble
    lhs_diag, lhs_off = (np.asarray(v, dtype=ld) for v in step_matrix(system, dt))
    rhs_diag, rhs_off = (np.asarray(v, dtype=ld) for v in step_matrix(system, -dt))
    off, pivots, multipliers = list(lhs_off), [lhs_diag[0]], []
    for i in range(1, system.size):
        multipliers.append(off[i - 1] / pivots[-1])
        pivots.append(lhs_diag[i] - multipliers[-1] * off[i - 1])
    x, states = np.asarray(state, dtype=ld), []
    for _ in range(steps):
        b = list(tridiagonal_matvec(rhs_off, rhs_diag, rhs_off, x))
        for i in range(1, len(b)):
            b[i] -= multipliers[i - 1] * b[i - 1]
        b[-1] /= pivots[-1]
        for i in range(len(b) - 2, -1, -1):
            b[i] = (b[i] - off[i] * b[i + 1]) / pivots[i]
        x = np.array(b, dtype=ld)
        states.append(x)
    return np.array(states)


def kernel_entries(epsilon, l, c):
    """Mass and stiffness entries (L, M, N, P) of one element from the kernel,
    for the x-coordinate bubble coefficient c of both shapes."""
    dd, _, mm = element_integrals(np.array([l]), np.full((1, 1, 2), c * l**2))
    return np.array([mm[0, 0, 0], mm[0, 0, 1], -epsilon * dd[0, 0, 0], -epsilon * dd[0, 0, 1]])


def closed_entries(epsilon, l, c):
    em = transient_element_matrices(epsilon, l, c)
    return np.array([em.mass_diag, em.mass_off, em.stiff_diag, em.stiff_off])


class TestElementMatrices:
    def test_hat_mass_matrix(self):
        em = transient_element_matrices(-1.0, 1.0, 0.0)
        assert em.mass_diag == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert em.mass_off == pytest.approx(1.0 / 6.0, rel=1e-15)

    def test_hat_stiffness(self):
        em = transient_element_matrices(-1.0, 1.0, 0.0)
        assert em.stiff_diag == pytest.approx(1.0, rel=1e-15)
        assert em.stiff_off == pytest.approx(-1.0, rel=1e-15)

    def test_matches_quadrature_at_reference_element(self):
        closed = closed_entries(-1.0, math.pi / 2, 0.206)
        quad = kernel_entries(-1.0, math.pi / 2, 0.206)
        for a, b in zip(closed, quad):
            assert abs(a - b) <= 1e-12 * max(abs(a), abs(b))

    def test_matches_quadrature_randomized(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(200):
            eps = -rng.uniform(1e-3, 10.0)
            l = rng.uniform(0.01, 5.0)
            c = rng.uniform(-5.0, 5.0)
            vals = closed_entries(eps, l, c)
            refs = kernel_entries(eps, l, c)
            assert np.abs(vals - refs).max() <= 1e-12 * np.abs(refs).max()

    def test_mass_eigenvalues_positive(self):
        # both eigenvalues L +/- M of the element mass matrix stay positive
        rng = np.random.default_rng(RNG_SEED + 1)
        for _ in range(200):
            l = rng.uniform(0.01, 5.0)
            c = rng.uniform(-5.0, 5.0)
            em = transient_element_matrices(-1.0, l, c)
            assert em.mass_diag > abs(em.mass_off)

    def test_length_validation(self):
        with pytest.raises(ValueError):
            transient_element_matrices(-1.0, 0.0, 0.0)


class TestAssembleTransient:
    def test_two_linear_elements_reduce_to_scalar(self):
        system = assemble_transient(transient_benchmark_problem(), two_element_mesh(), LINEAR)
        assert system.size == 1
        assert system.mass_diag[0] == pytest.approx(math.pi / 3.0, rel=1e-14)
        # A = lambda M + K with lambda = 1 and the hat stiffness 4 / pi
        assert system.op_diag[0] == pytest.approx(math.pi / 3.0 + 4.0 / math.pi, rel=1e-14)

    def test_two_bubble_elements_use_flipped_coefficient(self):
        system = assemble_transient(
            transient_benchmark_problem(), two_element_mesh(), QUADRATIC_BUBBLE, sign_compat=True
        )
        c = -transient_coefficient(-1.0, math.pi / 2)
        assert c > 0
        assert system.shapes[:, 0, 0] / (math.pi / 2) ** 2 == pytest.approx([c, c])
        assert np.array_equal(system.shapes[..., 1], system.shapes[..., 0])
        em = transient_element_matrices(-1.0, math.pi / 2, c)
        assert system.mass_diag[0] == pytest.approx(2 * em.mass_diag, rel=1e-14)
        # A = lambda M + K, lambda = 1
        assert system.op_diag[0] == pytest.approx(2 * (em.mass_diag + em.stiff_diag), rel=1e-14)

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_dimension_and_spd(self, n):
        mesh = uniform_mesh(0.0, math.pi, n)
        system = assemble_transient(
            transient_benchmark_problem(), mesh, QUADRATIC_BUBBLE, sign_compat=True
        )
        assert system.size == n - 1
        assert system.mass_off.size == n - 2
        assert nonpositive_pivots(system.mass_diag, system.mass_off) == 0

    @pytest.mark.parametrize("order", [3, 4])
    def test_assembles_higher_enrichment(self, order):
        mesh = uniform_mesh(0.0, math.pi, 8)
        system = assemble_transient(
            transient_benchmark_problem(), mesh, EnrichmentKind(order), sign_compat=True
        )
        assert system.shapes.shape == (8, order - 1, 2)
        assert nonpositive_pivots(system.mass_diag, system.mass_off) == 0

    def test_rejects_single_element(self):
        with pytest.raises(ValueError):
            assemble_transient(
                transient_benchmark_problem(), uniform_mesh(0.0, math.pi, 1), LINEAR
            )

    def test_mesh_domain_mismatch(self):
        with pytest.raises(ValueError):
            assemble_transient(transient_benchmark_problem(), uniform_mesh(0.0, 1.0, 4), LINEAR)

    def test_linear_without_diffusion_or_reaction(self):
        problem = TransientProblem(
            epsilon=0.0, domain=(0.0, math.pi), initial_profile=math.sin, lambda_=0.0
        )
        system = assemble_transient(problem, uniform_mesh(0.0, math.pi, 4), LINEAR)
        assert not system.op_diag.any() and not system.op_off.any()
        assert system.mass_diag == pytest.approx(np.full(3, 2 * math.pi / 12), rel=1e-14)

    @pytest.mark.parametrize("sign_compat", [False, True])
    def test_matches_closed_form_scatter(self, sign_compat):
        rng = np.random.default_rng(RNG_SEED + 3)
        epsilon = -0.7
        problem = TransientProblem(epsilon=epsilon, domain=(0.0, math.pi), initial_profile=math.sin)
        nodes = np.concatenate(([0.0], np.sort(rng.uniform(0.0, math.pi, 20)), [math.pi]))
        mesh = Mesh1D(nodes)
        assert np.unique(mesh.lengths).size == mesh.n_elements
        system = assemble_transient(problem, mesh, QUADRATIC_BUBBLE, sign_compat=sign_compat)

        sign = -1.0 if sign_compat else 1.0
        c = np.array([sign * transient_coefficient(epsilon, float(l)) for l in mesh.lengths])
        left = system.shapes[:, 0, 0] / mesh.lengths**2
        assert np.abs(left - c).max() <= 1e-12 * np.abs(c).max()
        assert np.array_equal(system.shapes[..., 1], system.shapes[..., 0])
        n_nodes = mesh.n_elements + 1
        diag = {"mass": np.zeros(n_nodes), "stiff": np.zeros(n_nodes)}
        off = {"mass": np.zeros(n_nodes - 1), "stiff": np.zeros(n_nodes - 1)}
        for j, l in enumerate(mesh.lengths):
            em = transient_element_matrices(epsilon, float(l), c[j])
            for name in ("mass", "stiff"):
                diag[name][j : j + 2] += getattr(em, f"{name}_diag")
                off[name][j] += getattr(em, f"{name}_off")
        # A = lambda M + K, lambda = 1
        diag["op"], off["op"] = diag["mass"] + diag["stiff"], off["mass"] + off["stiff"]
        for name in ("mass", "op"):
            got = np.concatenate((getattr(system, f"{name}_diag"), getattr(system, f"{name}_off")))
            want = np.concatenate((diag[name][1:-1], off[name][1:-1]))
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestDecayRates:
    def test_linear_rate(self):
        system = assemble_transient(transient_benchmark_problem(), two_element_mesh(), LINEAR)
        omega = slowest_decay_rate(system)
        assert omega == pytest.approx(1.0 + 12.0 / math.pi**2, rel=1e-13)
        assert omega == pytest.approx(2.216, abs=1e-3)

    def test_bubble_rate_with_sign_compat(self):
        system = assemble_transient(
            transient_benchmark_problem(), two_element_mesh(), QUADRATIC_BUBBLE, sign_compat=True
        )
        assert slowest_decay_rate(system) == pytest.approx(2.031, abs=1e-3)

    def test_bubble_rate_closer_to_exact(self):
        problem = transient_benchmark_problem()
        linear = slowest_decay_rate(assemble_transient(problem, two_element_mesh(), LINEAR))
        bubble = slowest_decay_rate(
            assemble_transient(problem, two_element_mesh(), QUADRATIC_BUBBLE, sign_compat=True)
        )
        assert abs(bubble - 2.0) < abs(linear - 2.0)

    @pytest.mark.parametrize("order", [3, 4])
    @pytest.mark.parametrize("sign_compat", [False, True])
    def test_higher_order_rate_converges(self, order, sign_compat):
        # exact slowest decay rate of the heat benchmark: 1 + 1 = 2
        problem = transient_benchmark_problem()
        systems = [
            assemble_transient(problem, uniform_mesh(0.0, math.pi, n), EnrichmentKind(order),
                               sign_compat)
            for n in (2, 4, 8, 16, 32)
        ]
        errors = [abs(slowest_decay_rate(system) - 2.0) for system in systems]
        for coarse, fine in zip(errors, errors[1:]):
            assert fine <= coarse / 3.5
        assert errors[-1] <= (1e-8 if sign_compat else 4e-3)

    def test_refined_mesh_against_dense_eigensolver(self):
        problem = transient_benchmark_problem()
        mesh = uniform_mesh(0.0, math.pi, 8)
        system = assemble_transient(problem, mesh, QUADRATIC_BUBBLE, sign_compat=True)
        omega = slowest_decay_rate(system)
        n = system.size
        mass = (
            np.diag(system.mass_diag)
            + np.diag(system.mass_off, 1)
            + np.diag(system.mass_off, -1)
        )
        stiff = (
            np.diag(system.op_diag)
            + np.diag(system.op_off, 1)
            + np.diag(system.op_off, -1)
        )
        eigs = np.linalg.eigvals(np.linalg.solve(mass, stiff))
        assert omega == pytest.approx(float(np.min(eigs.real)), rel=1e-8)
        assert n == 7

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize("epsilon", [-10.0, -1.0, -1e-2, -1e-3, -1e-5])
    def test_against_dense_generalized_eigensolver(self, epsilon, order):
        # at epsilon = -1e-5, lambda = 10 the two slowest rates differ by 3e-6 relative
        for lambda_ in (0.0, 1.0, 10.0):
            problem = TransientProblem(
                epsilon=epsilon, domain=(0.0, math.pi), initial_profile=math.sin, lambda_=lambda_
            )
            for n in (2, 3, 13, 100, 400):
                for sign_compat in (False, True):
                    system = assemble_transient(
                        problem, uniform_mesh(0.0, math.pi, n), EnrichmentKind(order), sign_compat
                    )
                    want = dense_slowest_rate(system)
                    assert abs(slowest_decay_rate(system) - want) <= 1e-10 * abs(want)

    @pytest.mark.parametrize("n", [2, 4, 1000])
    def test_null_operator_rate_is_zero(self, n):
        problem = TransientProblem(
            epsilon=0.0, domain=(0.0, math.pi), initial_profile=math.sin, lambda_=0.0
        )
        system = assemble_transient(problem, uniform_mesh(0.0, math.pi, n), QUADRATIC_BUBBLE)
        assert slowest_decay_rate(system) == 0.0

    def test_growing_mode_against_dense_eigensolver(self):
        # lambda = -10: the slowest mode grows, omega_1 close to -9
        problem = TransientProblem(
            epsilon=-1.0, domain=(0.0, math.pi), initial_profile=math.sin, lambda_=-10.0
        )
        system = assemble_transient(problem, uniform_mesh(0.0, math.pi, 50), LINEAR)
        want = dense_slowest_rate(system)
        assert want == pytest.approx(-9.0, abs=1e-3)
        assert abs(slowest_decay_rate(system) - want) <= 1e-10 * abs(want)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_operator_raises(self, bad):
        system = assemble_transient(
            transient_benchmark_problem(), uniform_mesh(0.0, math.pi, 6), LINEAR
        )
        system.op_diag[2] = bad
        with pytest.raises(LinearSolveError):
            slowest_decay_rate(system)

    def test_non_spd_mass_raises(self):
        # indefinite, NaN, and singular positive semidefinite mass matrices
        for mass_diag, mass_off in (
            (np.array([-1.0]), np.zeros(0)),
            (np.array([1.0, math.nan]), np.array([0.1])),
            (np.array([1.0, 1.0]), np.array([1.0])),
        ):
            system = TransientSystem(
                mass_diag=mass_diag,
                mass_off=mass_off,
                op_diag=np.ones(mass_diag.size),
                op_off=np.zeros(mass_off.size),
                mesh=uniform_mesh(0.0, math.pi, mass_diag.size + 1),
                enrichment=LINEAR,
                shapes=np.zeros((mass_diag.size + 1, 0, 2)),
            )
            with pytest.raises(AssemblyError):
                slowest_decay_rate(system)


class TestNonpositivePivots:
    def test_matches_eigenvalue_sign_count(self):
        rng = np.random.default_rng(RNG_SEED + 4)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            diag = rng.normal(size=n) + rng.uniform(-1.0, 2.0)
            off = rng.normal(size=n - 1)
            eigs = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
            assert nonpositive_pivots(diag, off) == int(np.sum(eigs <= 0.0))

    def test_singular_positive_semidefinite(self):
        # eigenvalues 0 and 2: the zero eigenvalue counts
        assert nonpositive_pivots(np.array([1.0, 1.0]), np.array([1.0])) == 1

    def test_zero_first_pivot(self):
        # eigenvalues (1 -+ sqrt 5) / 2, and -sqrt 2, 0, sqrt 2
        assert nonpositive_pivots(np.array([0.0, 1.0]), np.array([1.0])) == 1
        assert nonpositive_pivots(np.zeros(3), np.array([1.0, 1.0])) == 2
        assert nonpositive_pivots(np.zeros(3), np.array([10.0, 1e-3])) == 2

    def test_nan_pivot_counts(self):
        assert nonpositive_pivots(np.array([math.nan]), np.zeros(0)) == 1
        assert nonpositive_pivots(np.array([1.0, 2.0]), np.array([math.nan])) == 1


class TestStepTrapezoidal:
    """Trapezoidal steps, as ``solve_transient`` takes them: its first step
    sweeps the rows of the factorisation, and every later one applies the
    block operators (one block here, n <= 32 rows)."""

    def test_scalar_recurrence(self):
        dt = 0.05
        trajectory = solve_transient(
            transient_benchmark_problem(), two_element_mesh(), LINEAR, dt=dt, t_end=20 * dt
        )
        omega = slowest_decay_rate(trajectory.system)
        growth = (1 - omega * dt / 2) / (1 + omega * dt / 2)
        assert trajectory.states[0, 0] == 1.0
        assert trajectory.times.size == 21
        for n in range(1, 21):
            assert trajectory.states[n, 0] == pytest.approx(growth**n, abs=1e-14)

    def test_second_order_convergence(self):
        problem = transient_benchmark_problem()
        system = assemble_transient(problem, two_element_mesh(), QUADRATIC_BUBBLE, sign_compat=True)
        omega = slowest_decay_rate(system)
        errors = []
        for dt in (0.1, 0.05, 0.025):
            trajectory = solve_transient(
                problem, two_element_mesh(), QUADRATIC_BUBBLE, dt=dt, t_end=1.0, sign_compat=True
            )
            assert trajectory.states[0, 0] == 1.0 and trajectory.times[-1] == 1.0
            errors.append(abs(trajectory.states[-1, 0] - math.exp(-omega)))
        orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
        for order in orders:
            assert 1.9 <= order <= 2.1

    def test_energy_never_grows(self):
        # random states on the one-block systems of 1 to 7 unknowns
        rng = np.random.default_rng(RNG_SEED + 2)
        problem = transient_benchmark_problem()
        for _ in range(10):
            n = int(rng.integers(2, 9))
            mesh = uniform_mesh(0.0, math.pi, n)
            state = rng.uniform(-1, 1, n - 1)
            dt = float(rng.uniform(0.001, 0.5))
            # the interpolant of the state is exact at the nodes
            start = replace(
                problem, initial_profile=lambda x: np.interp(x, mesh.nodes, [0, *state, 0])
            )
            trajectory = solve_transient(
                start, mesh, QUADRATIC_BUBBLE, dt=dt, t_end=25 * dt, sign_compat=True
            )
            assert np.array_equal(trajectory.states[0], state)
            assert trajectory.times.size == 26
            m_diag, m_off = trajectory.system.mass_diag, trajectory.system.mass_off
            energy = [float(a @ tridiagonal_matvec(m_off, m_diag, m_off, a))
                      for a in trajectory.states]
            for before, after in zip(energy, energy[1:]):
                assert after <= before * (1 + 1e-13)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            solve_transient(transient_benchmark_problem(), two_element_mesh(), LINEAR, dt=0.0)


class TestSolveTransient:
    def test_probe_values_match_reference_table(self):
        problem = transient_benchmark_problem()
        probe = 7 * math.pi / 8
        bubble = solve_transient(
            problem, two_element_mesh(), QUADRATIC_BUBBLE, dt=1e-3, t_end=1.0, sign_compat=True
        )
        assert bubble.value(probe, 0.5) == pytest.approx(0.125, abs=1e-3)
        linear = solve_transient(problem, two_element_mesh(), LINEAR, dt=1e-3, t_end=1.0)
        assert linear.value(probe, 1.0) == pytest.approx(0.027, abs=1e-3)

    def test_zero_profile_stays_zero(self):
        problem = TransientProblem(
            epsilon=-1.0, domain=(0.0, math.pi), initial_profile=lambda x: 0.0
        )
        trajectory = solve_transient(problem, uniform_mesh(0.0, math.pi, 6), LINEAR, dt=0.1, t_end=1.0)
        assert np.abs(trajectory.states).max() == 0.0

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_null_operator_keeps_initial_state(self, order):
        # du/dt = 0: every bubble minimises the null residual, so plain hats
        problem = TransientProblem(
            epsilon=0.0, domain=(0.0, math.pi), initial_profile=math.sin, lambda_=0.0
        )
        mesh = uniform_mesh(0.0, math.pi, 4)
        trajectory = solve_transient(problem, mesh, EnrichmentKind(order), dt=0.05, t_end=0.5)
        initial = np.sin(mesh.nodes[1:-1])
        assert trajectory.times.size == 11
        assert np.abs(trajectory.states - initial).max() <= 1e-14
        assert not trajectory.system.shapes.any()

    def test_storage_stride(self):
        problem = transient_benchmark_problem()
        trajectory = solve_transient(
            problem, two_element_mesh(), LINEAR, dt=0.1, t_end=1.0, store_stride=4
        )
        assert trajectory.times == pytest.approx([0.0, 0.4, 0.8, 1.0])
        assert np.all(np.diff(trajectory.times) > 0)

    @pytest.mark.parametrize("name, value", [
        ("dt", -0.1), ("dt", math.inf), ("dt", math.nan),
        ("t_end", -0.1), ("t_end", math.inf), ("t_end", math.nan), ("t_end", 1e308),
        ("store_stride", 0), ("store_stride", 2.5), ("store_stride", 2.0),
    ])
    def test_rejects_invalid_time_arguments(self, name, value):
        arguments = {"dt": 0.1, "t_end": 1.0, name: value}
        with pytest.raises(ValueError):
            solve_transient(transient_benchmark_problem(), two_element_mesh(), LINEAR, **arguments)

    def test_last_step_can_pass_the_end_time(self):
        # ceil(t_end / dt) whole steps
        trajectory = solve_transient(
            transient_benchmark_problem(), two_element_mesh(), LINEAR, dt=0.1, t_end=0.25
        )
        assert trajectory.times.tolist() == [0.0, 0.1, 0.2, 0.30000000000000004]

    def test_times_outside_the_stored_range_take_the_nearest_level(self):
        trajectory = solve_transient(
            transient_benchmark_problem(), two_element_mesh(), QUADRATIC_BUBBLE, dt=0.1, t_end=0.3
        )
        x = 3 * math.pi / 8
        assert trajectory.value(x, -5.0) == trajectory.value(x, 0.0)
        assert trajectory.value(x, 1e6) == trajectory.value(x, 0.3)
        assert trajectory.field_at(1e6).value(x) == trajectory.value(x, 0.3)

    def test_initial_state_is_nodal_interpolation(self):
        problem = transient_benchmark_problem()
        mesh = uniform_mesh(0.0, math.pi, 8)
        trajectory = solve_transient(problem, mesh, QUADRATIC_BUBBLE, dt=0.1, t_end=0.0)
        assert trajectory.states[0] == pytest.approx(np.sin(mesh.nodes[1:-1]))

    def test_converges_to_exact_solution(self):
        problem = transient_benchmark_problem()
        mesh = uniform_mesh(0.0, math.pi, 40)
        trajectory = solve_transient(problem, mesh, LINEAR, dt=1e-3, t_end=0.5)
        x = math.pi / 2
        assert trajectory.value(x, 0.5) == pytest.approx(math.exp(-1.0), abs=2e-3)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_value_equals_field_value(self, order):
        problem = transient_benchmark_problem()
        rng = np.random.default_rng(RNG_SEED + order)
        mesh = Mesh1D(np.concatenate(([0.0], np.sort(rng.uniform(0.0, math.pi, 9)), [math.pi])))
        trajectory = solve_transient(problem, mesh, EnrichmentKind(order), dt=0.05, t_end=0.3)
        xs = np.concatenate((mesh.nodes, rng.uniform(0.0, math.pi, 40)))
        for t in (0.0, 0.12, 0.3):
            field = trajectory.field_at(t)
            for x in xs.tolist():
                assert trajectory.value(x, t) == field.value(x)

    def test_value_rejects_nan(self):
        problem = transient_benchmark_problem()
        trajectory = solve_transient(
            problem, two_element_mesh(), QUADRATIC_BUBBLE, dt=0.1, t_end=0.2
        )
        with pytest.raises(ValueError):
            trajectory.value(math.nan, 0.1)

    @pytest.mark.parametrize("width", [2, 4])
    def test_rejects_states_of_the_wrong_width(self, width):
        # a fourth entry would be read as the value of the zero Dirichlet end
        system = assemble_transient(
            transient_benchmark_problem(), uniform_mesh(0.0, math.pi, 4), LINEAR
        )
        assert system.size == 3
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0]), np.array([[1.0, 1.0, 1.0, 7.0][:width]]), system)

    @pytest.mark.parametrize("n", [200, 1000])
    @pytest.mark.parametrize("enrichment", [LINEAR, QUADRATIC_BUBBLE], ids=["linear", "quadratic"])
    def test_march_against_long_double_reference(self, enrichment, n):
        # the same float64 step matrices marched in long double: the largest
        # relative distance over 200 steps stays within 2x of what the
        # row-by-row solve gave (measured with it, at the march's own sizes)
        row_sweep_distance = {
            (1, 200): 9.87e-15, (2, 200): 2.79e-14, (1, 1000): 2.41e-13, (2, 1000): 4.29e-13,
        }[enrichment.order, n]
        problem = transient_benchmark_problem()
        mesh = uniform_mesh(0.0, math.pi, n)
        compat = enrichment is QUADRATIC_BUBBLE
        trajectory = solve_transient(problem, mesh, enrichment, dt=1e-3, t_end=0.2, sign_compat=compat)
        system = assemble_transient(problem, mesh, enrichment, compat)
        reference = long_double_march(system, 1e-3, trajectory.states[0], 200)
        distance = max(
            float(np.linalg.norm(state - exact) / np.linalg.norm(exact))
            for state, exact in zip(trajectory.states[1:], reference.astype(float))
        )
        assert distance <= 2 * row_sweep_distance

    def test_energy_never_grows_along_the_march(self):
        # a march of 100 elements reuses its factorisation across blocks
        rng = np.random.default_rng(RNG_SEED + 4)
        problem = transient_benchmark_problem()
        for enrichment, compat in ((LINEAR, False), (QUADRATIC_BUBBLE, True)):
            system = assemble_transient(problem, uniform_mesh(0.0, math.pi, 100), enrichment, compat)
            for _ in range(3):
                dt = float(rng.uniform(0.001, 0.5))
                trajectory = solve_transient(
                    problem, system.mesh, enrichment, dt=dt, t_end=25 * dt, sign_compat=compat
                )
                energy = [
                    float(state @ tridiagonal_matvec(system.mass_off, system.mass_diag, system.mass_off, state))
                    for state in trajectory.states
                ]
                assert len(energy) >= 26
                for before, after in zip(energy, energy[1:]):
                    assert after <= before * (1 + 1e-13)


class TestSemiAnalytic:
    def test_linear_center_values(self):
        solution = semi_analytic_two_element(transient_benchmark_problem(), LINEAR)
        assert solution(math.pi / 2, 0.0) == pytest.approx(1.0)
        assert solution(math.pi / 2, 1.0) == pytest.approx(0.1089, abs=5e-4)

    def test_bubble_profile_value(self):
        solution = semi_analytic_two_element(
            transient_benchmark_problem(), QUADRATIC_BUBBLE, sign_compat=True
        )
        assert solution(math.pi / 16, 0.0) == pytest.approx(0.180, abs=1e-3)

    @pytest.mark.parametrize("enrichment,compat", [(LINEAR, False), (QUADRATIC_BUBBLE, True)])
    def test_boundaries_stay_zero(self, enrichment, compat):
        solution = semi_analytic_two_element(
            transient_benchmark_problem(), enrichment, sign_compat=compat
        )
        for t in (0.0, 0.3, 1.0, 5.0):
            assert solution(0.0, t) == 0.0
            assert solution(math.pi, t) == 0.0

    def test_trapezoidal_march_approaches_semi_analytic(self):
        problem = transient_benchmark_problem()
        reference = semi_analytic_two_element(problem, QUADRATIC_BUBBLE, sign_compat=True)
        trajectory = solve_transient(
            problem, two_element_mesh(), QUADRATIC_BUBBLE, dt=1e-3, t_end=1.0, sign_compat=True
        )
        x = 5 * math.pi / 8
        assert trajectory.value(x, 1.0) == pytest.approx(reference(x, 1.0), abs=1e-6)
