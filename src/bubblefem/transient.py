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
one call on the state that writes the next state into its stored row.
A step matrix that is not positive definite, which the march could not
follow, raises before the first step (:func:`~bubblefem.linalg._march_step`).
:func:`slowest_decay_rate` finds the slowest rate by a safeguarded regula
falsi on the twisted pivot of A - omega Mg at the peak of a sine arch over
the domain, from the arch's Rayleigh quotient, with every iterate checked
by a Sturm count.  The two-element benchmark case is also solved in
closed form through its single decaying mode.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AssemblyError, LinearSolveError
from .linalg import (
    _march_step,
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
    _element_rows,
    uniform_mesh,
)
from .steady import (
    _check_mesh_covers,
    _distinct_shapes,
    _gather,
    _scatter,
    element_bubbles,
    element_integrals,
)

_EIG_TOL = 1e-10
_MAX_STEPS = 10**9  # steps per march: over five hours at 20 us a step
_MAX_STORED = 10**9  # stored values per march, levels x interior rows: about 8 GB


@dataclass(frozen=True)
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
    published two-element transient solution.  Where element lengths
    repeat, the element kernel runs once per distinct length
    (:func:`~bubblefem.steady._distinct_shapes`) and its stiffness and
    mass blocks are gathered to the elements before the scatter, bit for
    bit the blocks of the kernel run per element; the system keeps the
    shapes per element.
    """
    return _assemble_transient(problem, mesh, enrichment, sign_compat)


def _assemble_transient(
    problem: TransientProblem, mesh: Mesh1D, enrichment: EnrichmentKind, sign_compat: bool
) -> TransientSystem:
    """:func:`assemble_transient`.  Every public entry point calls it
    directly, so a fallback warning three frames up names their caller."""
    _check_mesh_covers(problem.domain, mesh)
    if mesh.n_elements < 2:
        raise ValueError("transient mesh needs at least one interior node")

    if problem.epsilon == problem.lambda_ == 0.0:
        # du/dt = 0: every bubble minimises the null residual, so keep the
        # zero shapes of a degenerate operator
        lengths, index = mesh.lengths, None
        unit = np.zeros((mesh.n_elements, enrichment.bubble_count, 2))
    else:
        coeffs = TransportCoefficients(epsilon=problem.epsilon, kappa=0.0, lambda_=problem.lambda_)
        lengths, unit, index = _distinct_shapes(coeffs, mesh, enrichment, stacklevel=3)
        if sign_compat:
            unit = -unit
    stiff, _, mass = element_integrals(lengths, unit)
    stiff *= -problem.epsilon
    # homogeneous Dirichlet ends: drop the boundary rows and columns
    _, mass_diag, mass_off = (v[1:-1] for v in _scatter(_gather(mass, index)))
    _, stiff_diag, stiff_off = (v[1:-1] for v in _scatter(_gather(stiff, index)))
    return TransientSystem(
        mass_diag=mass_diag,
        mass_off=mass_off,
        op_diag=problem.lambda_ * mass_diag + stiff_diag,
        op_off=problem.lambda_ * mass_off + stiff_off,
        mesh=mesh,
        enrichment=enrichment,
        shapes=_gather(unit, index),
    )


def slowest_decay_rate(system: TransientSystem) -> float:
    """Decay exponent of the slowest mode: smallest omega with
    A v = omega Mg v, so solutions behave like exp(-omega t).

    Mg must be positive definite: a mass that is strictly diagonally
    dominant with a positive diagonal is (Gershgorin), a test of the stored
    entries that needs no pass over the rows; any other is checked by its
    plain Sturm count.  Then the non-positive pivots of A - s Mg count the
    rates <= s (Sylvester's law of inertia).  A bracket [lo, hi] with no
    rate at or below lo and one at or below hi starts from the Rayleigh
    quotient of the arch sin(pi (x - a) / (b - a)) over the interior nodes
    of the system's mesh, and shrinks until it is 1e-10 relative wide (or
    adjacent floats); its upper end is returned.  The quotient bounds the
    slowest rate from above.  One rate at or below it makes it hi, and a
    step down from min(0, hi) finds lo: a rate at or below 0 is bracketed
    to 1e-10 of the first step, so a zero rate (du/dt = 0) ends at exactly
    0.  No rate at or below it means that the two agree to rounding, as on
    uniform meshes, where the arch is the exact discrete slowest mode: the
    quotient is lo, and steps up from it of a quarter of the tolerance,
    doubling, find hi.  More than one means either rates well below it, or
    several rates equal to it to rounding, as for pure reaction
    (epsilon = 0, A = lambda Mg).  One plain count at the quotient less
    1e-10 of it then tells them apart: if it finds a rate, that point is
    the new hi; if not, a plain count at the quotient confirms it as hi and
    it is returned, after three passes where bisecting took 37, or finds
    no rate there either, and it is lo.  A mesh without one interior node
    per row raises ValueError.

    Each iterate is one twisted pass at a row r
    (:func:`~bubblefem.linalg.twisted_count`): with the count it gives
    gamma_r(s) = 1 / [(A - s Mg)^-1]_rr, which falls through 0 at the
    slowest rate and has no pole below the next one.  r is the row where
    the arch peaks: for epsilon <= 0 the slowest mode is close to the arch
    on any mesh, so it is largest there.  The first pass, at the quotient,
    is taken at r; if it counts more than one rate, the rest of the search
    counts at the last row, the plain count, from that pass's gamma_r on.
    While hi lies on that branch (a count of 1 and
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
    ends of a bracket found at r; where it does not, the bracket widens by
    a quarter of its width, doubling, and the same loop narrows it again
    on that count.  On the benchmark's N = 1e3 systems, linear and
    quadratic sign-compat, uniform or graded, the call makes 4-5 passes
    over the rows, against 36 for bisection alone; the same systems make
    5-9 at N = 1e4 and 6-10 at N = 1e5, and a jittered N = 1e5 mesh 12.
    """
    x = system.mesh.nodes[1:-1]
    if x.size != system.size:
        raise ValueError(f"mesh has {x.size} interior nodes for a system of {system.size} rows")
    m_diag, m_off = system.mass_diag, system.mass_off
    # strict diagonal dominance with a positive diagonal proves Mg positive
    # definite (Gershgorin); rounding is monotone, so the float test is
    # exact for the stored entries, and NaN fails it
    reach = np.abs(np.concatenate(([0.0], m_off, [0.0])))
    if not (m_diag > reach[:-1] + reach[1:]).all() and nonpositive_pivots(m_diag, m_off):
        raise AssemblyError("mass matrix is not positive definite")
    a_diag, a_off = system.op_diag, system.op_off
    last = system.size - 1

    # the arch the slowest mode stays close to for epsilon <= 0
    v = np.sin((x - system.mesh.a) * (math.pi / (system.mesh.b - system.mesh.a)))
    row = int(np.argmax(v))  # the twist row r; the last row after a first count above 1

    # A - omega Mg of both diagonals in one subtraction per pass
    a_both, m_both = np.concatenate((a_diag, a_off)), np.concatenate((m_diag, m_off))

    def shifted(omega: float) -> tuple[int, float]:
        both = a_both - omega * m_both
        return twisted_count(both[:system.size], both[system.size:], row)

    hi = float(v @ tridiagonal_matvec(a_off, a_diag, a_off, v)) / float(
        v @ tridiagonal_matvec(m_off, m_diag, m_off, v)
    )
    if not math.isfinite(hi):
        raise LinearSolveError("decay rate bound is not finite")
    count_hi, gamma_hi = shifted(hi)
    if count_hi > 1:
        row = last
        if hi:
            # several rates at or below the quotient, an upper bound of the
            # slowest: they may all equal it to rounding, as for A = lambda Mg
            below = hi - _EIG_TOL * abs(hi)
            count, gamma = shifted(below)
            if count:
                hi, count_hi, gamma_hi = below, count, gamma
            else:
                count_hi, gamma_hi = shifted(hi)
                if count_hi:
                    return hi
    floor = 0.0
    if not count_hi:
        # the quotient is the rate to rounding: it is the lower end, and an
        # upper end is a short step up
        step = 0.25 * _EIG_TOL * (abs(hi) or 1.0)
        while not count_hi:
            lo, gamma_lo = hi, gamma_hi
            hi, step = hi + step, 2.0 * step
            if not math.isfinite(hi):
                raise LinearSolveError("decay rate bound is not finite")
            count_hi, gamma_hi = shifted(hi)
    else:
        lo, step = min(0.0, hi), abs(hi) or 1.0
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
            count, gamma = shifted(omega)
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
        if row == last:
            return hi
        # confirm both ends by the plain count, widening where it disagrees
        # by a quarter of the bracket width, doubling
        row, step = last, 0.25 * (hi - lo)
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
    lists; both are kept as read-only copies.  :func:`solve_transient`
    hands over its own arrays, which are kept read-only without a copy.
    ``times``, ``states`` and ``system`` cannot be reassigned, so the lists
    built from them for :meth:`value` and :meth:`field_at` stay theirs.
    """

    def __init__(self, times, states, system: TransientSystem):
        self._keep(np.array(times, dtype=float), np.array(states, dtype=float), system)

    @classmethod
    def _of_march(cls, times: np.ndarray, states: np.ndarray, system: TransientSystem) -> Trajectory:
        """:func:`solve_transient`'s trajectory, keeping its arrays uncopied."""
        trajectory = cls.__new__(cls)
        trajectory._keep(times, states, system)
        return trajectory

    def _keep(self, times: np.ndarray, states: np.ndarray, system: TransientSystem) -> None:
        self._times, self._states = times, states
        times.setflags(write=False)
        states.setflags(write=False)
        if states.ndim != 2 or states.shape[0] != times.size:
            raise ValueError("states must be one interior vector per stored time")
        if not np.isfinite(times).all():
            raise ValueError("stored times must be finite")
        if not (np.diff(times) > 0).all():
            raise ValueError("stored times must be strictly increasing")
        if states.shape[1] != system.size:
            raise ValueError(f"state width {states.shape[1]} does not match system {system.size}")
        self._system = system
        self._time_list = times.tolist()

    @property
    def times(self) -> np.ndarray:
        return self._times

    @property
    def states(self) -> np.ndarray:
        return self._states

    @property
    def system(self) -> TransientSystem:
        return self._system

    def _level(self, t: float) -> int:
        """Index of the stored time nearest to t, for any finite t, also one
        outside the stored range; on a tie, the earlier one.

        A bisection finds the stored times on either side of t and keeps the
        nearer by the same rounded distances |t_k - t| that an argmin over
        all levels compares.  The two differ only where the distances of
        several levels round to one value, far outside the stored range
        (t = 1e17 after times 0, 0.1, ...): an argmin then takes the first
        level, and this the nearer end.
        """
        if not math.isfinite(t):
            raise ValueError(f"time must be finite, got {t}")
        t = float(t)  # a numpy scalar would make every comparison below a numpy call
        times = self._time_list
        k = bisect.bisect_left(times, t)
        if k == len(times) or (k > 0 and abs(times[k - 1] - t) <= abs(times[k] - t)):
            k -= 1
        return k

    def field_at(self, t: float) -> SolutionField:
        """Solution field at the stored time nearest to t, for any finite t
        (:meth:`_level`)."""
        s = self.system
        nodal = np.concatenate(([0.0], self.states[self._level(t)], [0.0]))
        bubbles = element_bubbles(s.shapes, nodal)
        return SolutionField(s.mesh, nodal, s.enrichment, bubbles)

    @cached_property
    def _lists(self) -> tuple[list[float], int, list[list[list[float]]]]:
        """What :meth:`value` reads, built on its first call: the mesh's
        nodes as a Python list with the index of its last node, and the
        element shapes as one list of (p0, p1) pairs per element
        (:func:`~bubblefem.model._element_rows`), highest power first, the
        order in which Horner's rule takes them."""
        mesh = self._system.mesh
        return mesh._node_list, mesh.n_elements, _element_rows(self._system.shapes[:, ::-1])

    def value(self, x: float, t: float) -> float:
        """``field_at(t).value(x)`` bit for bit, from the element holding x
        only: the stored time nearest to t, for any finite t.

        One level lookup (:meth:`_level`), then all in this one frame, with
        no numpy call beyond reading the element's two nodal values from
        the stored states: the bisection of
        :meth:`SolutionField.value <bubblefem.model.SolutionField.value>`,
        and Horner's rule on the element's row of shapes, each amplitude
        p0 u0 + p1 u1 (:func:`~bubblefem.steady.element_bubbles`) formed as
        the rule takes it, the float operations of
        :func:`~bubblefem.model.element_values` in the same order."""
        k = self._level(t)
        x = float(x)
        nodes, last, rows = self._lists
        if not nodes[0] <= x <= nodes[last]:
            raise ValueError(f"x={x} outside domain [{nodes[0]}, {nodes[last]}]")
        j = bisect.bisect_right(nodes, x, 0, last) - 1
        left = nodes[j]
        s = (x - left) / (nodes[j + 1] - left)
        states = self._states
        u0 = states.item(k, j - 1) if j > 0 else 0.0
        u1 = states.item(k, j) if j < last - 1 else 0.0
        out = u0 * (1.0 - s) + u1 * s
        row = rows[j]
        if row:
            poly = 0.0
            for p0, p1 in row:
                poly = poly * s + (p0 * u0 + p1 * u1)
            out = out + s * (1.0 - s) * poly
        return out


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
    a_{k+1} = step(a_k) (:func:`~bubblefem.linalg._march_step`), by block
    operators built before the first step (at N = 1e3 the build takes
    1.00-1.02 ms and a step 14-21 us, its check included, on a loaded
    2-core AMD EPYC).  Second order, and the energy a^T Mg a never grows
    when A is positive semidefinite.  Each step is written straight into
    its row of one (levels, rows) array, or into one spare row when it is
    not stored, and the trajectory keeps that array without a copy.

    The step matrix is congruent to I + dt/2 Mg^-1/2 A Mg^-1/2, so it is
    positive definite exactly when no rate has dt omega <= -2 (Sylvester),
    the modes whose factor (1 - dt omega/2) / (1 + dt omega/2) is at most
    -1 or undefined.  A march with any raises LinearSolveError before its
    first step, naming their count and dt (8 for the CLI's ``transient
    --lambda=-300 --dt 0.01 --t-end 0.05 --elements 64``).  With epsilon <=
    0, Mg a Gram matrix and -epsilon Kg positive semidefinite, every dt
    lambda > -2 is accepted; so is a backward heat equation (epsilon > 0)
    at a dt small enough to leave no such mode.

    A non-finite initial state raises LinearSolveError before the first
    step, and a state that turns non-finite at the step that makes it, with
    no numpy warning.  Each state is checked by the sum of its squares
    (``np.vdot``, which does not warn where it overflows), and entry by
    entry only where that sum is not finite, as for entries above 1e154.

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
    system = _assemble_transient(problem, mesh, enrichment, sign_compat)
    states = np.empty((levels, rows))
    state = states[0]
    state[:] = [problem.initial_profile(x) for x in mesh.nodes[1:-1]]
    if not np.isfinite(state).all():
        raise LinearSolveError("initial state is not finite")
    half = 0.5 * dt
    rhs_off = system.mass_off - half * system.op_off
    try:
        step = _march_step(
            system.mass_diag + half * system.op_diag, system.mass_off + half * system.op_off,
            (rhs_off, system.mass_diag - half * system.op_diag, rhs_off),
        )
    except LinearSolveError as exc:
        raise LinearSolveError(f"{exc} (dt = {dt!r})") from None
    # each step is written into its stored row, or else into one spare row
    spare = np.empty(rows) if store_stride > 1 else None
    level = 1
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_steps + 1):
            if k % store_stride == 0 or k == n_steps:
                out = states[level]
                level += 1
            else:
                out = spare
            step(state, out)
            if not math.isfinite(np.vdot(out, out)) and not np.isfinite(out).all():
                raise LinearSolveError("linear solve produced non-finite values")
            state = out
    times = np.append(np.arange(0, n_steps, store_stride), n_steps) * dt
    return Trajectory._of_march(times, states, system)


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
    system = _assemble_transient(problem, mesh, enrichment, sign_compat)
    omega = slowest_decay_rate(system)
    amplitude = float(problem.initial_profile(mesh.nodes[1]))
    nodal = np.array([0.0, 1.0, 0.0])
    mode = SolutionField(mesh, nodal, enrichment, element_bubbles(system.shapes, nodal))

    def evaluate(x: float, t: float) -> float:
        if t < 0:
            raise ValueError(f"time must be nonnegative, got {t}")
        return amplitude * math.exp(-omega * t) * mode.value(x)

    return evaluate
