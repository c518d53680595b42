import math
import re
import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    uniform_mesh,
)
from bubblefem import linalg, transient
from bubblefem.linalg import (
    nonpositive_pivots,
    tridiagonal_matvec,
    twisted_count,
)
from bubblefem.model import Mesh1D
from bubblefem.oracles import sine_mode_march, transient_coefficient, transient_element_matrices
from bubblefem.steady import element_integrals

RNG_SEED = 777002


def two_element_mesh():
    return uniform_mesh(0.0, math.pi, 2)


def full_matrix(diag, off):
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def dense_slowest_rate(system):
    """Smallest generalized eigenvalue of (A, Mg) by Cholesky reduction and
    a dense symmetric eigensolver."""
    lower = np.linalg.cholesky(full_matrix(system.mass_diag, system.mass_off))
    a = full_matrix(system.op_diag, system.op_off)
    inv = np.linalg.inv(lower)
    return float(np.linalg.eigvalsh(inv @ a @ inv.T)[0])


def jittered_mesh(n, rng):
    """n elements on [0, pi], each interior node moved by up to 30% of the
    uniform length."""
    nodes = np.linspace(0.0, math.pi, n + 1)
    nodes[1:-1] += rng.uniform(-0.3, 0.3, n - 1) * (math.pi / n)
    return Mesh1D(nodes)


def rates_at_or_below(system, omega):
    """Sturm count of the rates <= omega, by the plain top-down count."""
    return nonpositive_pivots(
        system.op_diag - omega * system.mass_diag, system.op_off - omega * system.mass_off
    )


def unit_mass_system(op_diag, op_off):
    """A TransientSystem with Mg = I and the given operator, on a dummy mesh."""
    n = len(op_diag)
    return TransientSystem(
        mass_diag=np.ones(n),
        mass_off=np.zeros(n - 1),
        op_diag=np.asarray(op_diag, dtype=float),
        op_off=np.asarray(op_off, dtype=float),
        mesh=uniform_mesh(0.0, math.pi, n + 1),
        enrichment=LINEAR,
        shapes=np.zeros((n + 1, 0, 2)),
    )


def count_passes(monkeypatch):
    """A list that gets the number of O(N) passes over the rows of each
    inertia call ``slowest_decay_rate`` makes from now on: one per count."""
    passes = []
    for name in ("nonpositive_pivots", "twisted_count"):
        def counting(*args, _helper=getattr(transient, name)):
            passes.append(1)
            return _helper(*args)

        monkeypatch.setattr(transient, name, counting)
    return passes


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


def recorded_block_operators(monkeypatch):
    """A list that gets the block operators each march step builds from now
    on, before the march's first step, or None where one overflows."""
    built = []

    def recording(*args, _build=linalg._block_operators):
        built.append(_build(*args))
        return built[-1]

    monkeypatch.setattr(linalg, "_block_operators", recording)
    return built


def recorded_row_sweeps(monkeypatch):
    """A list that gets one entry for each row sweep of every factorisation
    made from now on."""
    swept = []

    def factorise(*args, _factorise=linalg._factorise):
        sweep_rows, factors = _factorise(*args)

        def counting(v, out):
            swept.append(1)
            sweep_rows(v, out)

        return counting, factors

    monkeypatch.setattr(linalg, "_factorise", factorise)
    return swept


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
    def test_fields_cannot_be_reassigned_and_replace_builds_a_new_system(self):
        system = assemble_transient(transient_benchmark_problem(), uniform_mesh(0.0, math.pi, 4),
                                    QUADRATIC_BUBBLE, sign_compat=True)
        for name in ("mass_diag", "op_off", "mesh", "shapes"):
            with pytest.raises(FrozenInstanceError):
                setattr(system, name, getattr(system, name))
        doubled = replace(system, op_diag=2.0 * system.op_diag)
        assert np.array_equal(doubled.op_diag, 2.0 * system.op_diag)
        assert doubled.mass_off is system.mass_off and doubled.mesh is system.mesh
        assert slowest_decay_rate(doubled) != slowest_decay_rate(system)

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

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize("epsilon", [-10.0, -1.0, -1e-2, -1e-3, -1e-5])
    def test_nonuniform_meshes_against_dense_generalized_eigensolver(self, epsilon, order):
        rng = np.random.default_rng(RNG_SEED + order)
        for lambda_ in (0.0, 1.0, 10.0):
            problem = TransientProblem(
                epsilon=epsilon, domain=(0.0, math.pi), initial_profile=math.sin, lambda_=lambda_
            )
            for n in (2, 3, 13, 100, 400):
                mesh = jittered_mesh(n, rng)
                for sign_compat in (False, True):
                    system = assemble_transient(problem, mesh, EnrichmentKind(order), sign_compat)
                    want = dense_slowest_rate(system)
                    assert abs(slowest_decay_rate(system) - want) <= 1e-10 * abs(want)

    def test_slow_mode_vanishing_at_the_twist_row(self, monkeypatch):
        # rates close to 1, 2, 2.5 with modes close to e_2, e_1, e_0: the tent
        # over the uniform interior nodes, proportional to [1, 2, 1], has
        # quotient 23/12, with one rate below it, and peaks at row 1, where
        # the slowest mode is about 1e-6.  gamma_1 then has its pole within
        # 1e-12 of the slowest rate, so hi is never on its branch and every
        # step is a midpoint.
        system = unit_mass_system([2.5, 2.0, 1.0], [1e-6, 1e-6])
        mode = np.linalg.eigh(np.diag(system.op_diag) + np.diag(system.op_off, 1)
                              + np.diag(system.op_off, -1))[1][:, 0]
        assert abs(mode[1]) < 1e-5
        x = system.mesh.nodes[1:-1]
        assert np.argmax(np.minimum(x - system.mesh.a, system.mesh.b - x)) == 1
        assert twisted_count(system.op_diag - 23.0 / 12.0, system.op_off, 1)[0] == 1
        passes = count_passes(monkeypatch)
        omega = slowest_decay_rate(system)
        want = dense_slowest_rate(system)
        assert abs(omega - want) <= 1e-10 * abs(want)
        assert rates_at_or_below(system, omega * (1.0 - 1e-10)) == 0
        assert rates_at_or_below(system, omega) == 1
        # a plain Sturm bisection makes 37 passes: the mass check, two counts
        # for the lower end and 34 halvings of [0, 23/12]; the count at the
        # quotient adds one, and the plain count's confirmation of both ends
        # two
        assert sum(passes) <= 42

    @pytest.mark.parametrize("graded", [False, True])
    def test_benchmark_system_pass_count(self, monkeypatch, graded):
        # N = 1e3 quadratic sign-compat, the system of the benchmark's march,
        # where a plain Sturm bisection makes 36 passes over the rows, on the
        # uniform mesh and on nodes pi s^3 crowded at x = 0
        s = np.linspace(0.0, 1.0, 1001)
        mesh = Mesh1D(math.pi * s**3) if graded else uniform_mesh(0.0, math.pi, 1000)
        system = assemble_transient(
            transient_benchmark_problem(), mesh, QUADRATIC_BUBBLE, sign_compat=True
        )
        passes = count_passes(monkeypatch)
        omega = slowest_decay_rate(system)
        assert sum(passes) <= 12
        assert rates_at_or_below(system, omega * (1.0 - 1e-10)) == 0
        assert rates_at_or_below(system, omega) >= 1

    @pytest.mark.parametrize("n", [2, 4, 1000])
    def test_null_operator_rate_is_zero(self, n):
        problem = TransientProblem(
            epsilon=0.0, domain=(0.0, math.pi), initial_profile=math.sin, lambda_=0.0
        )
        system = assemble_transient(problem, uniform_mesh(0.0, math.pi, n), QUADRATIC_BUBBLE)
        assert slowest_decay_rate(system) == 0.0

    @pytest.mark.parametrize("lambda_", [1.0, 3.0, 10.0])
    @pytest.mark.parametrize("enrichment", [LINEAR, QUADRATIC_BUBBLE])
    def test_pure_reaction_rate_in_few_passes(self, monkeypatch, lambda_, enrichment):
        # epsilon = 0: A = lambda Mg, so every rate is lambda to rounding,
        # and the count at the quotient is decided by the entries' last
        # bits.  A first count above one is followed by one count at
        # hi (1 - 1e-10), where none is left; bisecting [0, hi] instead
        # took 37 passes
        problem = TransientProblem(
            epsilon=0.0, domain=(0.0, math.pi), initial_profile=math.sin, lambda_=lambda_
        )
        system = assemble_transient(problem, uniform_mesh(0.0, math.pi, 1000), enrichment)
        passes = count_passes(monkeypatch)
        omega = slowest_decay_rate(system)
        assert sum(passes) <= 6
        assert omega == pytest.approx(lambda_, rel=1e-10)
        assert rates_at_or_below(system, omega * (1.0 - 1e-10)) == 0

    def test_null_operator_rate_in_four_passes(self, monkeypatch):
        # A = 0: gamma = 0 at the quotient 0 makes the next iterate half a
        # tolerance below it, which closes the bracket [-1, 0] at once
        problem = TransientProblem(
            epsilon=0.0, domain=(0.0, math.pi), initial_profile=math.sin, lambda_=0.0
        )
        system = assemble_transient(problem, uniform_mesh(0.0, math.pi, 1000), QUADRATIC_BUBBLE)
        passes = count_passes(monkeypatch)
        assert slowest_decay_rate(system) == 0.0
        # the mass check, the counts at 0 and at -1, and one at -5e-11
        assert sum(passes) == 4

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

    @pytest.mark.parametrize("n_elements", [3, 5])
    def test_rejects_a_mesh_of_the_wrong_interior_count(self, monkeypatch, n_elements):
        # three rows, on meshes with two and four interior nodes: rejected
        # before any pass over the rows
        system = replace(
            unit_mass_system([1.0, 2.0, 3.0], [0.5, 0.5]),
            mesh=uniform_mesh(0.0, math.pi, n_elements),
        )
        passes = count_passes(monkeypatch)
        with pytest.raises(ValueError, match="interior"):
            slowest_decay_rate(system)
        assert passes == []


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


class TestTwistedCount:
    @staticmethod
    def draws(rng, count):
        for _ in range(count):
            n = int(rng.integers(1, 30))
            diag = rng.normal(size=n) + rng.uniform(-1.0, 2.0)
            off = rng.normal(size=n - 1)
            yield diag, off, np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)

    def test_count_matches_eigenvalue_sign_count_at_every_row(self):
        rng = np.random.default_rng(RNG_SEED + 5)
        for diag, off, full in self.draws(rng, 200):
            want = int(np.sum(np.linalg.eigvalsh(full) <= 0.0))
            for r in range(diag.size):
                assert twisted_count(diag, off, r)[0] == want

    def test_gamma_is_the_inverse_diagonal(self):
        # draws whose eigenvalues all lie at least 0.1 from 0
        rng = np.random.default_rng(RNG_SEED + 6)
        tested = 0
        for diag, off, full in self.draws(rng, 400):
            if np.min(np.abs(np.linalg.eigvalsh(full))) < 0.1:
                continue
            inverse = np.linalg.inv(full)
            for r in range(diag.size):
                want = 1.0 / inverse[r, r]
                assert abs(twisted_count(diag, off, r)[1] - want) <= 1e-10 * abs(want)
            tested += 1
        assert tested >= 100

    def test_last_row_is_the_plain_count(self):
        rng = np.random.default_rng(RNG_SEED + 7)
        for diag, off, _ in self.draws(rng, 100):
            assert twisted_count(diag, off, diag.size - 1)[0] == nonpositive_pivots(diag, off)

    def test_zero_pivots_count_at_every_row(self):
        # eigenvalues 0 and 2; (1 -+ sqrt 5) / 2; -sqrt 2, 0, sqrt 2; two
        # negative ones of the last
        for diag, off, want in (
            ([1.0, 1.0], [1.0], 1),
            ([0.0, 1.0], [1.0], 1),
            ([0.0, 0.0, 0.0], [1.0, 1.0], 2),
            ([0.0, 0.0, 0.0], [10.0, 1e-3], 2),
        ):
            for r in range(len(diag)):
                assert twisted_count(np.array(diag), np.array(off), r)[0] == want
        # a singular twist returns gamma = 0 as computed, and counts it
        assert twisted_count(np.array([1.0, 1.0]), np.array([1.0]), 0) == (1, 0.0)

    def test_nan_counts_at_every_row(self):
        count, gamma = twisted_count(np.array([math.nan]), np.zeros(0), 0)
        assert count == 1 and math.isnan(gamma)
        for r in range(2):
            count, gamma = twisted_count(np.array([1.0, 2.0]), np.array([math.nan]), r)
            assert count == 1 and math.isnan(gamma)


class TestStepTrapezoidal:
    """Trapezoidal steps, as ``solve_transient`` takes them: every step
    applies the block operators built before the first (one block here,
    n <= 32 rows)."""

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

    @pytest.mark.parametrize("dt, t_end", [(1e-300, 1.0), (1.0, 1e9 + 1)])
    def test_rejects_more_steps_than_the_limit_before_assembling(self, monkeypatch, dt, t_end):
        # with assembly stubbed out, a march that is not rejected fails at
        # once instead of running for hours
        def assemble(*args):
            raise AssertionError("assembled")

        monkeypatch.setattr(transient, "_assemble_transient", assemble)
        with pytest.raises(ValueError, match="step count"):
            solve_transient(transient_benchmark_problem(), two_element_mesh(), LINEAR, dt=dt, t_end=t_end)

    @pytest.mark.parametrize("t_end, store_stride, rejected", [
        (9.0, 1, False),  # 10 levels of 1000 rows: the limit of 10^4 values
        (10.0, 1, True),
        (18.0, 2, False),  # 10 levels, the last one a stride level
        (19.0, 2, True),  # one more: the last level is always stored
    ])
    def test_rejects_more_stored_values_than_the_limit_before_assembling(
        self, monkeypatch, t_end, store_stride, rejected
    ):
        # the march stores its levels in one array allocated up front, so
        # the limit is scaled down to a march of milliseconds
        assembled = []

        def assemble(*args, _assemble=transient._assemble_transient):
            assembled.append(1)
            return _assemble(*args)

        monkeypatch.setattr(transient, "_MAX_STORED", 10**4)
        monkeypatch.setattr(transient, "_assemble_transient", assemble)
        mesh = uniform_mesh(0.0, math.pi, 1001)
        arguments = {"dt": 1.0, "t_end": t_end, "store_stride": store_stride}
        if rejected:
            with pytest.raises(ValueError, match="values"):
                solve_transient(transient_benchmark_problem(), mesh, LINEAR, **arguments)
            assert assembled == []
        else:
            trajectory = solve_transient(transient_benchmark_problem(), mesh, LINEAR, **arguments)
            assert trajectory.states.shape == (10, 1000) and assembled == [1]

    def test_stored_values_limit_is_a_billion(self, monkeypatch):
        def assemble(*args):
            raise AssertionError("assembled")

        monkeypatch.setattr(transient, "_assemble_transient", assemble)
        assert transient._MAX_STORED == 10**9
        message = ("1000001 stored levels of 1000 interior rows are 1e+09 values, more than 1e+09; "
                   "raise the store stride or coarsen the march")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            solve_transient(transient_benchmark_problem(), uniform_mesh(0.0, math.pi, 1001), LINEAR,
                            dt=1.0, t_end=1e6)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("n", [8, 200, 2100])  # one block, several, several groups
    def test_non_finite_initial_value_raises(self, n, bad):
        problem = transient_benchmark_problem()
        mesh = uniform_mesh(0.0, math.pi, n)
        node = mesh.nodes[n // 3]
        start = replace(problem, initial_profile=lambda x: bad if x == node else math.sin(x))
        # the interpolated state is checked before the first step, so no
        # product meets the value and numpy does not warn
        with pytest.raises(LinearSolveError, match="initial state"):
            solve_transient(start, mesh, LINEAR, dt=0.01, t_end=0.05)
        # the same step matrices meet it in the block operators of a later
        # step, where inf - inf in the products is NaN, which numpy reports:
        # the step is not finite, which the march checks after every step
        system = assemble_transient(problem, mesh, LINEAR)
        lhs_diag, lhs_off = step_matrix(system, 0.01)
        rhs_diag, rhs_off = step_matrix(system, -0.01)
        step = linalg._march_step(lhs_off, lhs_diag, lhs_off, (rhs_off, rhs_diag, rhs_off))
        state = np.sin(mesh.nodes[1:-1])
        step(state, state)
        state[n // 3 - 1] = bad
        with np.errstate(invalid="ignore"):
            step(state, state)
        assert not np.isfinite(state).all()

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
        # numpy times, ties between levels included, take the levels of the same floats
        for t in (-5.0, 0.0, 0.05, 0.15, 0.25, 0.3, 1e6):
            assert trajectory._level(np.float64(t)) == trajectory._level(t)

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

    @pytest.mark.parametrize("order", [1, 2, 3, 5])
    def test_value_equals_field_value(self, order):
        # byte for byte at random (x, t), at every node, b and the points
        # next to the ends, and at every stored level; dt = 1/8 makes the
        # midpoints between levels exact ties, which go to the earlier level
        problem = transient_benchmark_problem()
        rng = np.random.default_rng(RNG_SEED + order)
        mesh = Mesh1D(np.concatenate(([0.0], np.sort(rng.uniform(0.0, math.pi, 9)), [math.pi])))
        trajectory = solve_transient(problem, mesh, EnrichmentKind(order), dt=0.125, t_end=1.0)
        times = trajectory.times
        midpoints = 0.5 * (times[:-1] + times[1:])
        ends = [mesh.b, float(np.nextafter(mesh.a, mesh.b)), float(np.nextafter(mesh.b, mesh.a))]
        xs = np.concatenate((mesh.nodes, rng.uniform(0.0, math.pi, 40), ends)).tolist()
        ts = np.concatenate((rng.uniform(-0.5, 1.5, 20), midpoints, times, [-3.0, 40.0]))
        for t in ts.tolist():
            field = trajectory.field_at(t)
            nearest = int(np.argmin(np.abs(times - t)))
            assert np.array_equal(field.nodal_values[1:-1], trajectory.states[nearest])
            for x in xs:
                value = trajectory.value(x, t)
                assert type(value) is float
                assert np.float64(value).tobytes() == np.float64(field.value(x)).tobytes()
        for k, t in enumerate(midpoints.tolist()):
            assert np.array_equal(trajectory.field_at(t).nodal_values[1:-1], trajectory.states[k])

    def test_value_rejects_nan(self):
        problem = transient_benchmark_problem()
        trajectory = solve_transient(
            problem, two_element_mesh(), QUADRATIC_BUBBLE, dt=0.1, t_end=0.2
        )
        for x in (math.nan, math.inf, -math.inf, -0.01, math.pi + 0.01):
            with pytest.raises(ValueError):
                trajectory.value(x, 0.1)
        for t in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="time must be finite"):
                trajectory.value(1.0, t)

    def test_keeps_a_read_only_copy_of_the_states(self):
        system = assemble_transient(
            transient_benchmark_problem(), uniform_mesh(0.0, math.pi, 4), LINEAR
        )
        states = np.array([[0.5, 1.0, 0.5]])
        trajectory = Trajectory(np.array([0.0]), states, system)
        before = trajectory.value(1.0, 0.0)
        states[:] = 7.0
        assert trajectory.value(1.0, 0.0) == before
        assert not trajectory.states.flags.writeable
        # a march's own trajectory keeps its states without a copy, and
        # read-only; the constructor copies them
        marched = solve_transient(transient_benchmark_problem(), system.mesh, LINEAR, dt=0.1, t_end=0.3)
        assert not marched.states.flags.writeable and not marched.times.flags.writeable
        copied = Trajectory(marched.times, marched.states, system)
        assert not np.shares_memory(copied.states, marched.states)
        assert np.array_equal(copied.states, marched.states)
        assert not copied.states.flags.writeable

    def test_times_states_and_system_cannot_be_reassigned(self):
        # value and field_at read levels from a list built once from times
        system = assemble_transient(
            transient_benchmark_problem(), uniform_mesh(0.0, math.pi, 4), LINEAR
        )
        states = np.outer([1.0, 0.9, 0.8, 0.7], [0.5, 1.0, 0.5])
        trajectory = Trajectory(np.array([0.0, 0.1, 0.2, 0.3]), states, system)
        before = trajectory.value(1.0, 0.35)
        other = assemble_transient(
            transient_benchmark_problem(), uniform_mesh(0.0, math.pi, 4), QUADRATIC_BUBBLE
        )
        replacements = {
            "times": np.array([0.3, 0.4, 0.5, 0.6]),
            "states": np.zeros((4, 3)),
            "system": other,
        }
        for name, new in replacements.items():
            with pytest.raises(AttributeError):
                setattr(trajectory, name, new)
        assert trajectory.value(1.0, 0.35) == before
        assert np.array_equal(trajectory.field_at(0.35).nodal_values[1:-1], states[3])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_times(self, bad):
        # a NaN time compares false both ways, so it would pass an ordering
        # check written as "no step <= 0"
        system = assemble_transient(
            transient_benchmark_problem(), uniform_mesh(0.0, math.pi, 4), LINEAR
        )
        states = np.array([[0.5, 1.0, 0.5], [0.4, 0.8, 0.4], [0.3, 0.6, 0.3]])
        for times in ([0.0, bad, 0.2], [bad, 0.1, 0.2], [0.0, 0.1, bad]):
            with pytest.raises(ValueError):
                Trajectory(np.array(times), states, system)

    def test_rejects_states_that_are_not_one_row_per_time(self):
        system = assemble_transient(
            transient_benchmark_problem(), uniform_mesh(0.0, math.pi, 4), LINEAR
        )
        row = [0.5, 1.0, 0.5]
        for times, states in (([0.0, 0.1], [row]), ([0.0], [row, row]), ([0.0], row)):
            with pytest.raises(ValueError, match="one interior vector per stored time"):
                Trajectory(np.array(times), np.array(states), system)

    @pytest.mark.parametrize("times", [[0.0, 0.0, 0.2], [0.1, 0.0, 0.2], [0.0, 0.2, 0.1]])
    def test_rejects_times_that_do_not_increase(self, times):
        system = assemble_transient(
            transient_benchmark_problem(), uniform_mesh(0.0, math.pi, 4), LINEAR
        )
        states = np.array([[0.5, 1.0, 0.5], [0.4, 0.8, 0.4], [0.3, 0.6, 0.3]])
        with pytest.raises(ValueError, match="strictly increasing"):
            Trajectory(np.array(times), states, system)

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

    # (epsilon, dt lambda, elements, dt, mesh, order, sign_compat, blocks):
    # well-posed step matrices Mg + dt/2 A interchange no row, so the
    # march builds block operators before its first step and sweeps no
    # row; a backward heat equation (epsilon > 0) and dt lambda <= -2
    # interchange rows and sweep them on every step
    @pytest.mark.parametrize("epsilon, dt_lambda, n, dt, graded, order, compat, blocks", [
        # the benchmark march: N = 1e3, dt = 1e-3, linear and quadratic sign-compat
        (-1.0, 1e-3, 1000, 1e-3, False, 1, False, True),
        (-1.0, 1e-3, 1000, 1e-3, False, 2, True, True),
        *((-1.0, dt_lambda, 100, 0.01, graded, order, compat, True)
          for dt_lambda in (-1.999, 0.0, 10.0) for graded in (False, True)
          for order in (1, 2, 3) for compat in ((False,) if order == 1 else (False, True))),
        *((-1.0, -3.0, 100, 0.01, False, order, False, False) for order in (1, 2, 3)),
        *((0.5, 0.01, 100, 0.01, False, order, False, False) for order in (1, 2, 3)),
    ])
    def test_block_operators_only_for_marches_without_interchanges(
        self, monkeypatch, epsilon, dt_lambda, n, dt, graded, order, compat, blocks
    ):
        problem = TransientProblem(epsilon=epsilon, domain=(0.0, math.pi), initial_profile=math.sin,
                                   lambda_=dt_lambda / dt)
        s = np.linspace(0.0, 1.0, n + 1)
        mesh = Mesh1D(math.pi * s**3) if graded else uniform_mesh(0.0, math.pi, n)
        built = recorded_block_operators(monkeypatch)
        swept = recorded_row_sweeps(monkeypatch)
        steps = 10
        trajectory = solve_transient(problem, mesh, EnrichmentKind(order), dt=dt, t_end=steps * dt,
                                     sign_compat=compat)
        if blocks:
            assert len(built) == 1 and built[0] is not None
            assert swept == []
        else:
            assert built == []
            assert len(swept) == steps
        # each step against one dense np.linalg.solve from the march's own
        # previous state, within 1e-13 relative to it; these cases read at
        # most 2.3e-14 (dt lambda = -3, linear).  A dense march is no
        # reference where rows interchange: it amplifies its own rounding
        # by the growing modes, and after 10 steps it stood 0.5-1.9
        # (epsilon = 0.5) and 7e-4-0.4 (dt lambda = -3) from the row sweep,
        # relative to the state
        lhs, rhs = (full_matrix(*step_matrix(trajectory.system, h)) for h in (dt, -dt))
        for before, state in zip(trajectory.states, trajectory.states[1:]):
            exact = np.linalg.solve(lhs, rhs @ before)
            assert np.linalg.norm(state - exact) <= 1e-13 * np.linalg.norm(exact)

    @pytest.mark.parametrize("rows", [33, 1025, 2100])  # two blocks, two groups, three groups
    def test_march_builds_before_its_first_step_and_sweeps_no_row(self, monkeypatch, rows):
        built = recorded_block_operators(monkeypatch)
        swept = recorded_row_sweeps(monkeypatch)
        trajectory = solve_transient(transient_benchmark_problem(), uniform_mesh(0.0, math.pi, rows + 1),
                                     QUADRATIC_BUBBLE, dt=0.01, t_end=0.1, sign_compat=True)
        assert trajectory.states.shape == (11, rows)
        assert len(built) == 1 and built[0] is not None
        assert swept == []

    @pytest.mark.parametrize("rows", [1, 31, 33, 1025, 2100])  # one block, then one to three groups
    def test_march_step_writes_in_place_bit_for_bit(self, rows):
        # at every reuse of its operators, the march's step writes the same
        # x into a separate output and in place over its input, within
        # 1e-13 relative of a one-shot row sweep from the same input
        system = assemble_transient(transient_benchmark_problem(), uniform_mesh(0.0, math.pi, rows + 1),
                                    QUADRATIC_BUBBLE, sign_compat=True)
        (l_diag, l_off), (r_diag, r_off) = step_matrix(system, 0.01), step_matrix(system, -0.01)
        step = linalg._march_step(l_off, l_diag, l_off, (r_off, r_diag, r_off))
        state = np.sin(system.mesh.nodes[1:-1])
        out, swept = np.empty(rows), np.empty(rows)
        sweep_rows = linalg._factorise(l_off, l_diag, l_off)[0]
        for _ in range(3):
            sweep_rows(tridiagonal_matvec(r_off, r_diag, r_off, state), swept)
            step(state, out)
            step(state, state)
            assert np.array_equal(state, out)
            assert np.linalg.norm(out - swept) <= 1e-13 * np.linalg.norm(swept)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(size=st.sampled_from([1, 31, 32, 33, 1024, 1025, 3073]) | st.integers(1, 1100),
           seed=st.integers(0, 2**32 - 1))
    def test_march_with_a_random_right_factor_matches_dense_solves(self, size, seed):
        # Mg and A such that dt = 2 makes the step matrix L = Mg + A a random
        # symmetric tridiagonal whose diagonal exceeds the rest of its row by
        # 1 to 2 (so no interchange, and ||L^-1||_inf <= 1) and its right
        # factor R = Mg - A a random symmetric tridiagonal
        rng = np.random.default_rng(seed)
        off = rng.uniform(-1.0, 1.0, size - 1)
        rest = np.abs(np.append(off, 0.0)) + np.abs(np.append(0.0, off))
        l_diag = rng.choice([-1.0, 1.0], size) * (rest + rng.uniform(1.0, 2.0, size))
        r_diag, r_off = rng.uniform(-2.0, 2.0, size), rng.uniform(-2.0, 2.0, size - 1)
        mesh = uniform_mesh(0.0, math.pi, size + 1)
        system = TransientSystem(
            mass_diag=0.5 * (l_diag + r_diag), mass_off=0.5 * (off + r_off),
            op_diag=0.5 * (l_diag - r_diag), op_off=0.5 * (off - r_off),
            mesh=mesh, enrichment=LINEAR, shapes=np.zeros((size + 1, 0, 2)),
        )
        nodal = np.concatenate(([0.0], rng.uniform(-1.0, 1.0, size), [0.0]))
        problem = TransientProblem(epsilon=-1.0, domain=(0.0, math.pi),
                                   initial_profile=lambda x: float(np.interp(x, mesh.nodes, nodal)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(transient, "_assemble_transient", lambda *args: system)
            swept = recorded_row_sweeps(patch)
            every, strided = [solve_transient(problem, mesh, LINEAR, dt=2.0, t_end=14.0, store_stride=stride)
                              for stride in (1, 3)]
        assert swept == []
        assert np.array_equal(every.states[0], nodal[1:-1])
        # every third step stored, and the last: the same states bit for bit
        assert np.array_equal(strided.states, every.states[[0, 3, 6, 7]])
        # each step against one dense solve from the march's own previous
        # state, within 1e-13 relative to it
        (lhs_diag, lhs_off), (rhs_diag, rhs_off) = step_matrix(system, 2.0), step_matrix(system, -2.0)
        products = [tridiagonal_matvec(rhs_off, rhs_diag, rhs_off, state) for state in every.states[:-1]]
        exact = np.linalg.solve(full_matrix(lhs_diag, lhs_off), np.transpose(products)).T
        for state, x in zip(every.states[1:], exact):
            assert np.linalg.norm(state - x) <= 1e-13 * np.linalg.norm(x)

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


def sine_mode_problem(n, k=1):
    """The benchmark rescaled to [0, n]: epsilon = -(n / pi)^2, lambda = 1,
    from the k-th sine mode, on whose ``uniform_mesh(0, n, n)`` the nodes
    are the integers and every element has length 1."""
    return TransientProblem(epsilon=-(n / math.pi) ** 2, domain=(0.0, float(n)),
                            initial_profile=lambda x: math.sin(k * math.pi * x / n), lambda_=1.0)


class TestSineModeMarch:
    @pytest.mark.parametrize("n, k", [(1000, 1), (1000, 500), (10000, 1)])
    @pytest.mark.parametrize("enrichment", [LINEAR, QUADRATIC_BUBBLE], ids=["linear", "quadratic"])
    def test_march_follows_the_exact_sine_mode(self, enrichment, n, k):
        # the stored states against r^n times the mode over 200 steps: the
        # largest deviation relative to the mode's amplitude stays within 2x
        # of what was measured.  It grows with n^2, as the condition of the
        # step matrix Mg + dt/2 A does: a rate taken from the step matrices'
        # own entries instead reads nearly the same
        measured = {
            (1, 1000, 1): 1.62e-12, (2, 1000, 1): 2.61e-12, (1, 1000, 500): 6.43e-13,
            (2, 1000, 500): 6.09e-13, (1, 10000, 1): 1.63e-10, (2, 10000, 1): 3.87e-11,
        }[enrichment.order, n, k]
        dt, steps = 1e-3, 200
        trajectory = solve_transient(sine_mode_problem(n, k), uniform_mesh(0.0, float(n), n), enrichment,
                                     dt=dt, t_end=steps * dt, sign_compat=enrichment is QUADRATIC_BUBBLE)
        exact = sine_mode_march(trajectory.system, dt, np.arange(steps + 1), k)
        assert trajectory.states.shape == exact.shape
        deviation = max(float(np.abs(state - want).max() / np.abs(want).max())
                        for state, want in zip(trajectory.states, exact))
        assert deviation <= 2 * measured

    @pytest.mark.parametrize("n", [2, 16])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_oracle_against_dense_solves(self, n, order):
        # ten steps of dense solves of the stored matrices from the oracle's
        # own first state, for the slowest and the fastest mode; they read
        # at most 5.1e-15 from the oracle
        system = assemble_transient(sine_mode_problem(n), uniform_mesh(0.0, float(n), n),
                                    EnrichmentKind(order), sign_compat=order > 1)
        lhs, rhs = (full_matrix(*step_matrix(system, h)) for h in (0.05, -0.05))
        for k in sorted({1, n - 1}):
            exact = sine_mode_march(system, 0.05, range(11), k)
            x = exact[0]
            for want in exact[1:]:
                x = np.linalg.solve(lhs, rhs @ x)
                assert np.abs(x - want).max() <= 1e-14 * np.abs(want).max()

    def test_oracle_rejects_unequal_elements_and_other_matrices(self):
        problem = sine_mode_problem(8)
        with pytest.raises(ValueError, match="equal elements"):
            sine_mode_march(assemble_transient(problem, Mesh1D(np.arange(9.0) ** 1.5 * 8 / 8**1.5), LINEAR),
                            1e-3, [1])
        system = assemble_transient(problem, uniform_mesh(0.0, 8.0, 8), LINEAR)
        sine_mode_march(system, 1e-3, [1])
        for field in ("mass_diag", "mass_off", "op_diag", "op_off"):
            values = getattr(system, field).copy()
            values[-1] *= 1.0 + 1e-15
            with pytest.raises(ValueError, match="Toeplitz"):
                sine_mode_march(replace(system, **{field: values}), 1e-3, [1])


class TestMarchScaling:
    # (n, order, dt lambda): one block, several blocks and several groups
    # of blocks, and the row sweep of a step matrix that interchanges rows
    @pytest.mark.parametrize("n, order, dt_lambda", [
        *((n, order, 0.01) for n in (8, 1000, 2100) for order in (1, 2)),
        (1000, 1, -3.0), (1000, 2, -3.0),
    ])
    def test_power_of_two_profile_scales_every_state_exactly(self, monkeypatch, n, order, dt_lambda):
        # 2^600 sin x: every product scales exactly, so every state is 2^600
        # times that of sin x bit for bit; the states' squares overflow, which
        # the march's finiteness check must take for finite, with no warning
        scale = 2.0 ** 600
        problem = TransientProblem(epsilon=-1.0, domain=(0.0, math.pi), initial_profile=math.sin,
                                   lambda_=dt_lambda / 0.01)
        mesh, enrichment = uniform_mesh(0.0, math.pi, n), EnrichmentKind(order)
        swept = recorded_row_sweeps(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plain, scaled = (
                solve_transient(replace(problem, initial_profile=profile), mesh, enrichment,
                                dt=0.01, t_end=0.1, sign_compat=order == 2)
                for profile in (math.sin, lambda x: scale * math.sin(x))
            )
        assert np.abs(scaled.states).max() > 2.0**512  # past the square root of the largest float
        assert np.array_equal(scaled.states, scale * plain.states)
        assert len(swept) == (20 if dt_lambda == -3.0 else 0)

    def test_overflowing_march_raises_without_a_warning(self):
        # dt lambda = -3 amplifies the growing modes at every step: the
        # states pass 1e154, where their squares overflow, and then the
        # largest float, which raises at the step that makes it
        problem = TransientProblem(epsilon=-1.0, domain=(0.0, math.pi), initial_profile=math.sin,
                                   lambda_=-300.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LinearSolveError, match="non-finite"):
                solve_transient(problem, uniform_mesh(0.0, math.pi, 64), LINEAR, dt=0.01, t_end=2.0)


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

    def test_negative_time_is_rejected(self):
        solution = semi_analytic_two_element(transient_benchmark_problem(), LINEAR)
        assert solution(math.pi / 2, -0.0) == solution(math.pi / 2, 0.0)
        with pytest.raises(ValueError, match="nonnegative"):
            solution(math.pi / 2, -1e-3)

    def test_trapezoidal_march_approaches_semi_analytic(self):
        problem = transient_benchmark_problem()
        reference = semi_analytic_two_element(problem, QUADRATIC_BUBBLE, sign_compat=True)
        trajectory = solve_transient(
            problem, two_element_mesh(), QUADRATIC_BUBBLE, dt=1e-3, t_end=1.0, sign_compat=True
        )
        x = 5 * math.pi / 8
        assert trajectory.value(x, 1.0) == pytest.approx(reference(x, 1.0), abs=1e-6)
