"""Partial-discretisation transient solver.

Space is discretised by linear elements, optionally enriched with bubbles
of any order, while time stays continuous, giving the ODE system

    Mg a'(t) + A a(t) = 0,    A = lambda Mg + Kg,

over the interior nodal values, with Mg the consistent mass matrix and
Kg = -eps * int w' w' the diffusion stiffness.  The nodal shapes are those
of the steady operator with kappa = 0, and assembly and reconstruction use
the steady element kernel, scatter and element shapes.  Homogeneous
Dirichlet rows are eliminated.  :func:`solve_transient` integrates the
system by trapezoidal steps, at most ``_MAX_STEPS`` of them and at most
``_MAX_STORED`` stored values, with its step matrix factorised once per
march together with the right-hand matrix Mg - dt/2 A, so that a step is
one call on the state.  The first step forms the right-hand side and
sweeps the rows of the factors; every later step applies them as block
operators with three batched products and no Python loop over rows or
blocks: one fused product per block of rows straight from the state,
one interface operator that couples the blocks, and one response that
adds the coupling in (:func:`~bubblefem.linalg.factor_tridiagonal`).
:func:`slowest_decay_rate` finds the slowest rate by a safeguarded regula
falsi on the twisted pivot of A - omega Mg, with every iterate checked by
a Sturm count.  The two-element benchmark case is also solved in closed
form through its single decaying mode.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import AssemblyError, LinearSolveError
from .linalg import (
    best_twist,
    factor_tridiagonal,
    nonpositive_pivots,
    tridiagonal_matvec,
    twisted_count,
)
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
# no twist row is chosen once the bracket is within five halvings of the
# tolerance: the choice, the falsi steps and the final plain counts would
# cost more passes than the halvings left
_TWIST_WIDTH = 32.0
_MAX_STEPS = 10**9  # steps per march: over five hours at 20 us a step
_MAX_STORED = 10**9  # stored values per march, levels x interior rows: about 8 GB


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

    Mg is SPD, so the non-positive pivots of A - s Mg count the rates <= s
    (Sylvester's law of inertia).  A bracket [lo, hi] with no rate at or
    below lo and one at or below hi starts from the Rayleigh quotient of a
    tent vector and shrinks until it is 1e-10 relative wide (or adjacent
    floats); its upper end is returned.  A rate at or below 0 needs a step
    down from min(0, bound); it is bracketed to 1e-10 of the first step, so
    a zero rate (du/dt = 0) ends at exactly 0.  No rate at or below the
    quotient, which bounds the slowest rate from above, means that the two
    agree to rounding: the quotient is returned.

    Each iterate is one twisted pass at a row r
    (:func:`~bubblefem.linalg.twisted_count`): with the count it gives
    gamma_r(s) = 1 / [(A - s Mg)^-1]_rr, which falls through 0 at the
    slowest rate and has no pole below the next one.  r is chosen where
    |gamma_k| is least, that is, where the slowest mode is largest
    (:func:`~bubblefem.linalg.best_twist`), at the first upper end with a
    count of 1, normally the quotient, unless the bracket is by then within
    ``_TWIST_WIDTH`` tolerances; until then the count is the plain one of
    the last row.  While hi lies on that branch (a count of 1 and
    gamma_r(hi) <= 0), the iterate is the regula falsi point of gamma_r,
    kept half a tolerance from either end; an end kept twice in a row has
    its gamma scaled down by the Anderson-Bjorck rule
    (:func:`_kept_scale`), so that both ends close in on the rate.  The
    same point is taken when gamma_r(hi) = 0 whatever the count: hi is then
    a rate, the point lies half a tolerance below it, and a zero rate
    (du/dt = 0) ends in one pass.  Otherwise, when the falsi point is not
    strictly inside the bracket, and when the bracket is more than four
    halvings behind bisection's, the iterate is the midpoint, so the loop
    never lags bisection by more than a few passes.

    The counts at two rows are exact for two slightly different roundings
    of A - s Mg, so near the rate they can disagree: on jittered benchmark
    meshes, linear and quadratic sign-compat, the points where the counts
    at the top, middle and bottom rows change sign spread by 2e-14-5e-14,
    3e-12-7e-12 and 9e-11-1.2e-10 relative at N = 1e3, 1e4 and 1e5, so
    at N = 1e5 the rows disagree by about the 1e-10 tolerance.  The plain
    count of the last row
    (:func:`~bubblefem.linalg.nonpositive_pivots`) therefore confirms both
    ends of the bracket found at r; where it does not, the bracket widens
    and the same loop narrows it again on that count.  On the benchmark's
    N = 1e3 systems the call makes 13 passes over the rows, against 36 for
    bisection alone.
    """
    m_diag, m_off = system.mass_diag, system.mass_off
    if nonpositive_pivots(m_diag, m_off):
        raise AssemblyError("mass matrix is not positive definite")
    a_diag, a_off = system.op_diag, system.op_off
    last = system.size - 1
    row = None  # the twist row r, chosen at the first count of 1; the last row until then

    # A - omega Mg of both diagonals in one subtraction per pass
    a_both, m_both = np.concatenate((a_diag, a_off)), np.concatenate((m_diag, m_off))

    def shifted(omega: float, twist: bool = False) -> tuple[int, float]:
        nonlocal row, gamma_lo
        both = a_both - omega * m_both
        diag, off = both[:system.size], both[system.size:]
        if row is not None:
            return twisted_count(diag, off, row)
        count, gamma = twisted_count(diag, off, last)
        if twist and count == 1 and last:
            row, count, gamma = best_twist(diag, off)
            gamma_lo = math.nan  # taken at another row
        return count, gamma

    # the tent vanishes next to both Dirichlet ends, like the slowest mode
    i = np.arange(1, system.size + 1)
    v = np.minimum(i, system.size + 1 - i).astype(float)
    hi = float(v @ tridiagonal_matvec(a_off, a_diag, a_off, v)) / float(
        v @ tridiagonal_matvec(m_off, m_diag, m_off, v)
    )
    if not math.isfinite(hi):
        raise LinearSolveError("decay rate bound is not finite")
    gamma_lo = math.nan
    count_hi, gamma_hi = shifted(hi, twist=True)
    if not count_hi:
        return hi
    lo, step, floor = min(0.0, hi), abs(hi) or 1.0, 0.0
    count, gamma = (count_hi, gamma_hi) if lo == hi else shifted(lo)
    while count:
        floor = floor or step
        lo, step = lo - step, 2.0 * step
        if not math.isfinite(lo):
            raise LinearSolveError("decay rate bound is not finite")
        count, gamma = shifted(lo)
    gamma_lo = gamma
    while True:
        lagging = 16.0 * (hi - lo)  # bisection's width, four halvings behind
        kept = 0  # 1 after hi moved, -1 after lo moved
        while hi - lo > (tol := _EIG_TOL * max(abs(lo), abs(hi), floor)):
            omega = 0.5 * (lo + hi)
            if not lo < omega < hi:
                break
            on_branch = (count_hi == 1 and gamma_hi <= 0.0) or gamma_hi == 0.0
            if on_branch and hi - lo <= lagging:
                falsi = hi - gamma_hi * (hi - lo) / (gamma_hi - gamma_lo)
                falsi = min(max(falsi, lo + 0.5 * tol), hi - 0.5 * tol)
                if lo < falsi < hi:
                    omega = falsi
            lagging *= 0.5
            count, gamma = shifted(omega, twist=hi - lo > _TWIST_WIDTH * tol)
            if count:
                if kept > 0:
                    gamma_lo *= _kept_scale(gamma, gamma_hi)
                hi, count_hi, gamma_hi = omega, count, gamma
                kept = 1
            else:
                if kept < 0:
                    gamma_hi *= _kept_scale(gamma, gamma_lo)
                lo, gamma_lo = omega, gamma
                kept = -1
        if row is None or row == last:
            return hi
        # confirm both ends by the plain count, widening where it disagrees
        row, step = last, hi - lo
        while not (count_hi := shifted(hi)[0]):
            lo, hi, step = hi, hi + step, 2.0 * step
        while shifted(lo)[0]:
            lo, hi, step = lo - step, lo, 2.0 * step
        gamma_lo = gamma_hi = math.nan


def _kept_scale(new: float, old: float) -> float:
    """Factor on the gamma of a bracket end kept twice in a row, when the
    other end's gamma went from ``old`` to ``new``: 1 - new / old, or 1/2
    where that is not positive (Anderson-Bjorck; Illinois takes 1/2)."""
    scale = 1.0 - new / old if old else 0.5
    return scale if scale > 0.0 else 0.5


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
    once and Mg - dt/2 A as its right factor, so that each step is
    a_{k+1} = step(a_k) (:func:`~bubblefem.linalg.factor_tridiagonal`).
    Second order, and the energy a^T Mg a never grows when A is positive
    semidefinite.  A state that turns non-finite raises LinearSolveError
    at the step that makes it.

    The march takes ceil(t_end / dt) whole steps, so the last stored time
    can pass ``t_end``: ``dt=0.1, t_end=0.25`` ends at 0.30000000000000004.
    Every ``store_stride``-th level is stored, and the last one always.
    A time step or end time that is not finite, a ratio ``t_end / dt`` that
    overflows, more than ``_MAX_STEPS`` (10^9) steps, a stride that is not
    an integer and stored levels times interior rows above ``_MAX_STORED``
    (10^9 values, about 8 GB) raise ValueError, before anything is
    assembled.
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
    levels = 1 + n_steps // store_stride + (n_steps % store_stride > 0)
    rows = mesh.n_elements - 1
    if levels * rows > _MAX_STORED:
        raise ValueError(
            f"{levels} stored levels of {rows} interior rows are {levels * rows:.3g} values, "
            f"more than {_MAX_STORED:.0e}; raise the store stride or coarsen the march"
        )
    system = assemble_transient(problem, mesh, enrichment, sign_compat)
    state = np.array([problem.initial_profile(x) for x in mesh.nodes[1:-1]], dtype=float)
    half = 0.5 * dt
    lhs_off = system.mass_off + half * system.op_off
    rhs_off = system.mass_off - half * system.op_off
    step = factor_tridiagonal(
        lhs_off, system.mass_diag + half * system.op_diag, lhs_off,
        right=(rhs_off, system.mass_diag - half * system.op_diag, rhs_off),
    )
    # store copies, not the block solve's views of its work arrays: that
    # frees each work array, and the march runs faster reusing its memory
    times = [0.0]
    states = [state.copy()]
    for k in range(1, n_steps + 1):
        state = step(state)
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
