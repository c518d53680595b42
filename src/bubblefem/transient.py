"""Partial-discretisation transient solver.

Space is discretised by linear elements, optionally enriched with bubbles
of any order, while time stays continuous, giving the ODE system

    Mg a'(t) + A a(t) = 0,    A = lambda Mg + Kg,

over the interior nodal values, with Mg the consistent mass matrix and
Kg = -eps * int w' w' the diffusion stiffness.  The nodal shapes are those
of the steady operator with kappa = 0, and assembly and reconstruction use
the steady element kernel, scatter and element shapes.  Homogeneous
Dirichlet rows are eliminated.  :func:`solve_transient` integrates the
system by trapezoidal steps, at most ``_MAX_STEPS`` of them, with its step
matrix factorised once per march.  The first step sweeps the rows of the
factors; every later step applies them as block operators with a few numpy
calls and no Python loop over rows or blocks: one fused product per block
of rows, then one interface operator that couples the blocks
(:func:`~bubblefem.linalg.factor_tridiagonal`).  The two-element benchmark
case is also solved in closed form through its single decaying mode.
"""

from __future__ import annotations

import bisect
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
_MAX_STEPS = 10**9  # steps per march: over five hours at 20 us a step


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
    ``times`` and ``states``, one interior vector per time, may be arrays or
    lists; both are kept as read-only copies.
    """

    def __init__(self, times, states, system: TransientSystem):
        self.times = np.array(times, dtype=float)
        self.times.setflags(write=False)
        self.states = np.array(states, dtype=float)
        self.states.setflags(write=False)
        if self.states.ndim != 2 or self.states.shape[0] != self.times.size:
            raise ValueError("states must be one interior vector per stored time")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("stored times must be strictly increasing")
        if self.states.shape[1] != system.size:
            raise ValueError(
                f"state width {self.states.shape[1]} does not match system {system.size}"
            )
        self.system = system
        self._time_list = self.times.tolist()

    def _state_at(self, t: float) -> np.ndarray:
        """Interior state at the stored time nearest to t, for any finite t,
        also one outside the stored range; on a tie, the earlier one.

        A bisection finds the stored times on either side of t and keeps the
        nearer by the same rounded distances |t_k - t| that an argmin over
        all levels compares.  The two differ only where the distances of
        several levels round to one value, far outside the stored range
        (t = 1e17 after times 0, 0.1, ...): an argmin then takes the first
        level, and this the nearer end.
        """
        if not math.isfinite(t):
            raise ValueError(f"time must be finite, got {t}")
        times = self._time_list
        k = bisect.bisect_left(times, t)
        if k == len(times) or (k > 0 and abs(times[k - 1] - t) <= abs(times[k] - t)):
            k -= 1
        return self.states[k]

    def field_at(self, t: float) -> SolutionField:
        """Solution field at the stored time nearest to t (any finite t)."""
        s = self.system
        nodal = np.concatenate(([0.0], self._state_at(t), [0.0]))
        bubbles = element_bubbles(s.shapes, nodal)
        return SolutionField(s.mesh, nodal, s.enrichment, bubbles)

    def value(self, x: float, t: float) -> float:
        """``field_at(t).value(x)`` bit for bit, from the element holding x
        only: the stored time nearest to t, for any finite t.  The element's
        two nodal values and its amplitudes p0 u0 + p1 u1
        (:func:`~bubblefem.steady.element_bubbles`) are formed in Python
        floats, and :func:`~bubblefem.model.element_values` evaluates them."""
        s, state = self.system, self._state_at(t)
        j, local, l = s.mesh._locate(float(x))
        u0 = state[j - 1].item() if j > 0 else 0.0
        u1 = state[j].item() if j < state.size else 0.0
        bubbles = [p0 * u0 + p1 * u1 for p0, p1 in s.shapes[j].tolist()]
        return element_values(l, u0, u1, bubbles, local)


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
    overflows, more than ``_MAX_STEPS`` (10^9) steps and a stride that is
    not an integer raise ValueError, before anything is assembled.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"time step must be positive and finite, got {dt}")
    if not (math.isfinite(t_end) and t_end >= 0):
        raise ValueError(f"end time must be nonnegative and finite, got {t_end}")
    if not isinstance(store_stride, (int, np.integer)) or store_stride < 1:
        raise ValueError(f"store stride must be an integer >= 1, got {store_stride!r}")
    if not math.isfinite(t_end / dt):
        raise ValueError(f"step count t_end / dt = {t_end} / {dt} is not finite")
    n_steps = max(0, int(math.ceil(t_end / dt - 1e-12)))
    if n_steps > _MAX_STEPS:
        raise ValueError(f"step count t_end / dt = {t_end / dt:.3g} exceeds {_MAX_STEPS:.0e}")
    system = assemble_transient(problem, mesh, enrichment, sign_compat)
    state = np.array([problem.initial_profile(x) for x in mesh.nodes[1:-1]], dtype=float)
    half = 0.5 * dt
    lhs_off = system.mass_off + half * system.op_off
    solve = factor_tridiagonal(lhs_off, system.mass_diag + half * system.op_diag, lhs_off)
    rhs_diag = system.mass_diag - half * system.op_diag
    rhs_off = system.mass_off - half * system.op_off
    # store copies, not the block solve's views of its work arrays: that
    # frees each work array, and the march runs faster reusing its memory
    times = [0.0]
    states = [state.copy()]
    for k in range(1, n_steps + 1):
        state = solve(tridiagonal_matvec(rhs_off, rhs_diag, rhs_off, state))
        if k % store_stride == 0 or k == n_steps:
            times.append(k * dt)
            states.append(state.copy())
    return Trajectory(times, states, system)


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
