"""Partial-discretisation transient solver.

Space is discretised by linear elements, optionally enriched with bubbles
of any order, while time stays continuous, giving the ODE system

    Mg a'(t) + A a(t) = 0,    A = lambda Mg + Kg,

over the interior nodal values, with Mg the consistent mass matrix and
Kg = -eps * int w' w' the diffusion stiffness.  The nodal shapes are those
of the steady operator with kappa = 0, and assembly and reconstruction use
the steady element kernel, scatter and element shapes.  Homogeneous
Dirichlet rows are eliminated.  :func:`solve_transient` integrates the
system by trapezoidal steps with its step matrix factorised once per
march; from the second step on its solves apply block operators instead of
sweeping the rows (:func:`~bubblefem.linalg.factor_tridiagonal`).  The
two-element benchmark case is also solved in closed form through its single
decaying mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AssemblyError, LinearSolveError
from .linalg import factor_tridiagonal, nonpositive_pivots, tridiagonal_matvec
from .model import (
    EnrichmentKind,
    LINEAR,
    Mesh1D,
    QUADRATIC_BUBBLE,
    SolutionField,
    TransientProblem,
    TransportCoefficients,
    element_values,
    uniform_mesh,
)
from .steady import (
    _check_mesh_covers,
    _scatter,
    element_bubbles,
    element_integrals,
    element_shapes,
)

_EIG_TOL = 1e-10


@dataclass(frozen=True)
class TransientElementMatrices:
    """Element mass [[L, M], [M, L]] and stiffness [[N, P], [P, N]] entries
    for enriched weights w = hat + c x (l - x)."""

    mass_diag: float
    mass_off: float
    stiff_diag: float
    stiff_off: float


def transient_element_matrices(epsilon: float, l: float, c: float) -> TransientElementMatrices:
    """Closed-form element matrices; a test oracle for the element kernel."""
    if not l > 0:
        raise ValueError(f"element length must be positive, got {l}")
    mass_diag = (c**2 * l**6 + 5 * c * l**4 + 10 * l**2) / (30 * l)
    mass_off = (c**2 * l**6 + 5 * c * l**4 + 5 * l**2) / (30 * l)
    stiff_diag = -epsilon * (10 * c**2 * l**4 + 30) / (30 * l)
    stiff_off = -epsilon * (10 * c**2 * l**4 - 30) / (30 * l)
    return TransientElementMatrices(mass_diag, mass_off, stiff_diag, stiff_off)


@dataclass
class TransientSystem:
    """The two interior-node matrices of Mg a' + A a = 0, each symmetric
    tridiagonal as its diagonal and off-diagonal: the mass Mg and the
    operator A = lambda Mg + Kg; with the mesh, the enrichment and the
    (n_elements, order - 1, 2) unit-element shapes of
    :func:`~bubblefem.steady.element_shapes` they were assembled with
    (negated under ``sign_compat``)."""

    mass_diag: np.ndarray
    mass_off: np.ndarray
    op_diag: np.ndarray
    op_off: np.ndarray
    mesh: Mesh1D
    enrichment: EnrichmentKind
    shapes: np.ndarray

    @property
    def size(self) -> int:
        return self.mass_diag.size


def assemble_transient(
    problem: TransientProblem,
    mesh: Mesh1D,
    enrichment: EnrichmentKind = LINEAR,
    sign_compat: bool = False,
) -> TransientSystem:
    """Assemble the mass Mg and the operator A = lambda Mg + Kg over the
    interior nodes.

    The nodal shapes are the least-squares ones of the operator with
    kappa = 0 (:func:`~bubblefem.steady.element_shapes`).
    ``sign_compat`` negates them, matching the sign convention of the
    published two-element transient solution.
    """
    _check_mesh_covers(problem.domain, mesh)
    if mesh.n_elements < 2:
        raise ValueError("transient mesh needs at least one interior node")

    if problem.epsilon == problem.lambda_ == 0.0:
        # du/dt = 0: every bubble minimises the null residual, so keep the
        # zero shapes of a degenerate operator
        shapes = np.zeros((mesh.n_elements, enrichment.bubble_count, 2))
    else:
        coeffs = TransportCoefficients(epsilon=problem.epsilon, kappa=0.0, lambda_=problem.lambda_)
        shapes = element_shapes(coeffs, mesh, enrichment)
        if sign_compat:
            shapes = -shapes
    stiff, _, mass = element_integrals(mesh.lengths, shapes)
    stiff *= -problem.epsilon
    # homogeneous Dirichlet ends: drop the boundary rows and columns
    _, mass_diag, mass_off = (v[1:-1] for v in _scatter(mass))
    _, stiff_diag, stiff_off = (v[1:-1] for v in _scatter(stiff))
    return TransientSystem(
        mass_diag=mass_diag,
        mass_off=mass_off,
        op_diag=problem.lambda_ * mass_diag + stiff_diag,
        op_off=problem.lambda_ * mass_off + stiff_off,
        mesh=mesh,
        enrichment=enrichment,
        shapes=shapes,
    )


def slowest_decay_rate(system: TransientSystem) -> float:
    """Decay exponent of the slowest mode: smallest omega with
    A v = omega Mg v, so solutions behave like exp(-omega t).

    Mg is SPD, so the non-positive LDL^T pivots of A - omega Mg count the
    rates <= omega (Sylvester's law of inertia).  Bisection on that count
    from the Rayleigh quotient of a tent vector brackets the slowest rate
    to 1e-10 relative (or to adjacent floats); the upper end is returned.
    A rate at or below 0 needs a step down from min(0, bound); it is
    bracketed to 1e-10 of the first step, so a zero rate (du/dt = 0) ends
    the bisection at exactly 0.
    """
    m_diag, m_off = system.mass_diag, system.mass_off
    if nonpositive_pivots(m_diag, m_off):
        raise AssemblyError("mass matrix is not positive definite")
    a_diag, a_off = system.op_diag, system.op_off

    def rates_at_or_below(omega: float) -> int:
        return nonpositive_pivots(a_diag - omega * m_diag, a_off - omega * m_off)

    # the tent vanishes next to both Dirichlet ends, like the slowest mode
    i = np.arange(1, system.size + 1)
    v = np.minimum(i, system.size + 1 - i).astype(float)
    hi = float(v @ tridiagonal_matvec(a_off, a_diag, a_off, v)) / float(
        v @ tridiagonal_matvec(m_off, m_diag, m_off, v)
    )
    if not math.isfinite(hi):
        raise LinearSolveError("decay rate bound is not finite")
    lo, step, floor = min(0.0, hi), abs(hi) or 1.0, 0.0
    while rates_at_or_below(lo):
        floor = floor or step
        lo, step = lo - step, 2.0 * step
        if not math.isfinite(lo):
            raise LinearSolveError("decay rate bound is not finite")
    while hi - lo > _EIG_TOL * max(abs(lo), abs(hi), floor):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if rates_at_or_below(mid):
            hi = mid
        else:
            lo = mid
    return hi


class Trajectory:
    """Stored time levels of a transient solve of ``system``, evaluable at
    (x, t).  Spatial reconstruction uses the system's element shapes, as
    the steady solve does (:func:`~bubblefem.steady.element_bubbles`).
    """

    def __init__(self, times: np.ndarray, states: np.ndarray, system: TransientSystem):
        self.times = np.asarray(times, dtype=float)
        self.states = np.asarray(states, dtype=float)
        if self.states.ndim != 2 or self.states.shape[0] != self.times.size:
            raise ValueError("states must be one interior vector per stored time")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("stored times must be strictly increasing")
        if self.states.shape[1] != system.size:
            raise ValueError(
                f"state width {self.states.shape[1]} does not match system {system.size}"
            )
        self.system = system

    def _state_at(self, t: float) -> np.ndarray:
        """Interior state at the stored time nearest to t, for any finite t,
        also one outside the stored range."""
        if not math.isfinite(t):
            raise ValueError(f"time must be finite, got {t}")
        return self.states[int(np.argmin(np.abs(self.times - t)))]

    def field_at(self, t: float) -> SolutionField:
        """Solution field at the stored time nearest to t (any finite t)."""
        s = self.system
        nodal = np.concatenate(([0.0], self._state_at(t), [0.0]))
        bubbles = element_bubbles(s.shapes, nodal)
        return SolutionField(s.mesh, nodal, s.enrichment, bubbles)

    def value(self, x: float, t: float) -> float:
        """``field_at(t).value(x)``, evaluated on the element holding x only:
        the stored time nearest to t, for any finite t."""
        s, state = self.system, self._state_at(t)
        j = s.mesh.element_index(x)
        ends = np.array([state[j - 1] if j > 0 else 0.0, state[j] if j < state.size else 0.0])
        bubbles = element_bubbles(s.shapes[j : j + 1], ends)
        t = np.array([x - s.mesh.nodes[j]])
        return float(element_values(s.mesh.lengths[j], ends[0], ends[1], bubbles[0], t)[0])


def solve_transient(
    problem: TransientProblem,
    mesh: Mesh1D,
    enrichment: EnrichmentKind = LINEAR,
    dt: float = 1e-3,
    t_end: float = 1.0,
    sign_compat: bool = False,
    store_stride: int = 1,
) -> Trajectory:
    """March the semi-discrete system by trapezoidal steps from the nodal
    interpolation of the initial profile:
    (Mg + dt/2 A) a_{k+1} = (Mg - dt/2 A) a_k, with Mg + dt/2 A factorised
    once.  Second order, and the energy a^T Mg a never grows when A is
    positive semidefinite.

    The march takes ceil(t_end / dt) whole steps, so the last stored time
    can pass ``t_end``: ``dt=0.1, t_end=0.25`` ends at 0.30000000000000004.
    Every ``store_stride``-th level is stored, and the last one always.
    A time step or end time that is not finite, a ratio ``t_end / dt`` that
    overflows, and a stride that is not an integer raise ValueError.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"time step must be positive and finite, got {dt}")
    if not (math.isfinite(t_end) and t_end >= 0):
        raise ValueError(f"end time must be nonnegative and finite, got {t_end}")
    if not isinstance(store_stride, (int, np.integer)) or store_stride < 1:
        raise ValueError(f"store stride must be an integer >= 1, got {store_stride!r}")
    if not math.isfinite(t_end / dt):
        raise ValueError(f"step count t_end / dt = {t_end} / {dt} is not finite")
    system = assemble_transient(problem, mesh, enrichment, sign_compat)
    state = np.array([problem.initial_profile(x) for x in mesh.nodes[1:-1]], dtype=float)
    n_steps = max(0, int(math.ceil(t_end / dt - 1e-12)))
    half = 0.5 * dt
    lhs_off = system.mass_off + half * system.op_off
    solve = factor_tridiagonal(lhs_off, system.mass_diag + half * system.op_diag, lhs_off)
    rhs_diag = system.mass_diag - half * system.op_diag
    rhs_off = system.mass_off - half * system.op_off
    times = [0.0]
    states = [state.copy()]
    for k in range(1, n_steps + 1):
        state = solve(tridiagonal_matvec(rhs_off, rhs_diag, rhs_off, state))
        if k % store_stride == 0 or k == n_steps:
            times.append(k * dt)
            states.append(state.copy())
    return Trajectory(np.array(times), np.array(states), system)


def semi_analytic_two_element(
    problem: TransientProblem,
    enrichment: EnrichmentKind = QUADRATIC_BUBBLE,
    sign_compat: bool = False,
):
    """Closed-form single-mode solution on a uniform two-element mesh.

    The reduced system has one unknown, so it decays exactly like
    a(0) exp(-omega t).  The mode is the :class:`SolutionField` of the unit
    midpoint value (nodal values 0, 1, 0) in the system's element shapes;
    the returned callable is a(0) exp(-omega t) times its value at x.
    """
    a, b = problem.domain
    mesh = uniform_mesh(a, b, 2)
    system = assemble_transient(problem, mesh, enrichment, sign_compat)
    omega = slowest_decay_rate(system)
    amplitude = float(problem.initial_profile(mesh.nodes[1]))
    nodal = np.array([0.0, 1.0, 0.0])
    mode = SolutionField(mesh, nodal, enrichment, element_bubbles(system.shapes, nodal))

    def evaluate(x: float, t: float) -> float:
        if t < 0:
            raise ValueError(f"time must be nonnegative, got {t}")
        return amplitude * math.exp(-omega * t) * mode.value(x)

    evaluate.decay_rate = omega
    evaluate.amplitude = amplitude
    return evaluate
