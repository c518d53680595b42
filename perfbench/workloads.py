"""Benchmark workloads: seeded inputs, the calls each case makes into the
package, the correctness gate, and the per-layer metrics of a traced pass.

Every case calls only public functions of ``bubblefem``.  The correctness
gate compares the package's outputs with the exact solutions in
``oracles.py``; a case fails if a call raises or an error exceeds the
case's bound.
"""

from __future__ import annotations

import math
import time
import warnings
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as npoly

import bubblefem as bf
from bubblefem import linalg as bf_linalg, steady as bf_steady

import oracles
from spans import Recorder, Span, self_times

STEADY_EVAL_POINTS = 1000
GRADING_POWER = 3.0  # x = s^3 near the layer; the finest element is ~ (b - a) / N^3
JITTER = 0.25  # interior nodes move by up to a quarter of their parameter spacing
RULE_REPEATS = 20  # gauss_rule calls timed per replayed case
STEP_REPLAYS = 100  # trapezoidal steps (and step solves) replayed per transient case
FALLBACK_MARKER = "falling back to linear"


@dataclass(frozen=True)
class SteadyCase:
    id: str
    problem: bf.SteadyProblem
    mesh: bf.Mesh1D
    enrichment: bf.EnrichmentKind
    exact: Callable
    points: np.ndarray
    tol: float


@dataclass(frozen=True)
class TransientCase:
    id: str
    problem: bf.TransientProblem
    mesh: bf.Mesh1D
    enrichment: bf.EnrichmentKind
    dt: float
    t_end: float
    points: np.ndarray  # one x per stored time level
    tol: float
    rate_tol: float  # bound on |slowest decay rate - 2|


def _boundary_layer_problem() -> bf.SteadyProblem:
    return bf.SteadyProblem(
        bf.TransportCoefficients(epsilon=-0.01, kappa=0.0, lambda_=1.0), (0.0, 10.0),
        bf.BoundaryCondition.dirichlet(1.5), bf.BoundaryCondition.neumann_flux(0.0))


def _convection_diffusion_problem() -> bf.SteadyProblem:
    return bf.SteadyProblem(
        bf.TransportCoefficients(epsilon=-1.0, kappa=oracles.CONVECTION_RATE, lambda_=0.0),
        (0.0, 1.0), bf.BoundaryCondition.dirichlet(0.0), bf.BoundaryCondition.dirichlet(1.0))


def _pure_convection_problem() -> bf.SteadyProblem:
    return bf.SteadyProblem(
        bf.TransportCoefficients(epsilon=0.0, kappa=1.0, lambda_=0.0), (0.0, 1.0),
        bf.BoundaryCondition.dirichlet(1.0), bf.BoundaryCondition.neumann_flux(0.0))


def _heat_problem() -> bf.TransientProblem:
    return bf.TransientProblem(epsilon=-1.0, domain=(0.0, math.pi),
                               initial_profile=math.sin, lambda_=1.0)


PROBLEMS = {
    "bl": (_boundary_layer_problem, oracles.boundary_layer, "left"),
    "cd": (_convection_diffusion_problem, oracles.convection_diffusion, "right"),
    "pc": (_pure_convection_problem, oracles.pure_convection, "right"),
}
KINDS = {"linear": bf.LINEAR, "quadratic": bf.QUADRATIC_BUBBLE, "cubic": bf.CUBIC_BUBBLE}

# (problem, enrichment, N, error bound) at full size and at smoke size.
# Each bound is 4x the largest error the seed code gave over seeds 0-15,
# rounded up to one digit; the error is the largest of the nodal error, the
# pointwise error at the evaluation points and the L2 error.  The pure
# convection solution is exact, so its error is rounding only (seed: 9e-15)
# and its bound is 1e-12.
STEADY_CASES = {
    "steady_uniform": {
        "full": [("bl", "linear", 1000, 8e-3), ("bl", "quadratic", 1000, 5e-5),
                 ("bl", "cubic", 1000, 2e-6)],
        "smoke": [("bl", "linear", 40, 2.0), ("bl", "quadratic", 40, 0.3),
                  ("bl", "cubic", 40, 0.2)],
    },
    "steady_graded": {
        "full": [("bl", "quadratic", 200, 3e-5), ("bl", "cubic", 200, 2e-6),
                 ("cd", "quadratic", 200, 4e-6), ("cd", "cubic", 200, 8e-8),
                 ("pc", "linear", 800, 1e-12)],
        "smoke": [("bl", "quadratic", 20, 0.03), ("bl", "cubic", 20, 0.01),
                  ("cd", "quadratic", 20, 5e-3), ("cd", "cubic", 20, 8e-4),
                  ("pc", "linear", 21, 1e-12)],
    },
}
# (enrichment, N, dt, t_end, error bound), bounds set as above.
TRANSIENT_CASES = {
    "full": [("linear", 1000, 1e-3, 0.2, 5e-6), ("quadratic", 1000, 1e-3, 0.2, 4e-7)],
    "smoke": [("linear", 16, 0.05, 0.2, 0.02), ("quadratic", 16, 0.05, 0.2, 1e-3)],
}
# Bound on |slowest decay rate - 2|, 4x the seed's linear-element deviation
# (full: 8.2e-7, smoke: 3.2e-3); quadratic elements deviate far less.
DECAY_RATE_TOL = {"full": 4e-6, "smoke": 2e-2}


def _reference_kernel() -> None:
    """Fixed work, unrelated to the package, in the package's own mix: a
    scalar elimination loop over rows, small dense solves and polynomial
    products like those of the bubble coefficients, and a dense LAPACK
    factorisation like the singular-system fallback."""
    d = np.full(600, 2.0)
    off = np.full(599, -0.5)
    for i in range(off.size):
        w = off[i] / d[i]
        d[i + 1] -= w * off[i]
    gram = np.array([[2.0, 0.3, 0.1], [0.3, 2.0, 0.2], [0.1, 0.2, 2.0]])
    ones = np.ones(3)
    for _ in range(50):
        np.linalg.solve(gram, ones)
        npoly.polymul(ones, ones)
    np.linalg.svd(np.eye(60) + np.tri(60) / 60.0)


def reference_seconds() -> float:
    """Fastest of three runs of the reference kernel."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _reference_kernel()
        times.append(time.perf_counter() - start)
    return min(times)


def graded_nodes(a: float, b: float, n: int, layer: str, rng: np.random.Generator) -> np.ndarray:
    """Nodes graded towards the ``layer`` end, with seeded jitter so that every
    element length is distinct.  Both end nodes are exactly a and b."""
    s = np.linspace(0.0, 1.0, n + 1)
    s[1:-1] += rng.uniform(-JITTER, JITTER, n - 1) / n
    g = s**GRADING_POWER if layer == "left" else 1.0 - (1.0 - s) ** GRADING_POWER
    return a + (b - a) * g


def build_cases(workload: str, seed: int, size: str = "full") -> list:
    """The workload's cases; ``seed`` drives mesh jitter and evaluation points."""
    rng = np.random.default_rng(seed)
    if workload == "transient_march":
        cases = []
        for kind, n, dt, t_end, tol in TRANSIENT_CASES[size]:
            n_levels = int(math.ceil(t_end / dt - 1e-12)) + 1
            cases.append(TransientCase(
                id=f"heat-{kind}-{n}", problem=_heat_problem(),
                mesh=bf.uniform_mesh(0.0, math.pi, n), enrichment=KINDS[kind], dt=dt,
                t_end=t_end, points=rng.uniform(0.0, math.pi, n_levels), tol=tol,
                rate_tol=DECAY_RATE_TOL[size]))
        return cases
    cases = []
    for name, kind, n, tol in STEADY_CASES[workload][size]:
        make_problem, exact, layer = PROBLEMS[name]
        problem = make_problem()
        a, b = problem.domain
        if workload == "steady_uniform":
            mesh = bf.uniform_mesh(a, b, n)
        else:
            mesh = bf.Mesh1D(graded_nodes(a, b, n, layer, rng))
        cases.append(SteadyCase(
            id=f"{name}-{kind}-{n}", problem=problem, mesh=mesh, enrichment=KINDS[kind],
            exact=exact, points=rng.uniform(a, b, STEADY_EVAL_POINTS), tol=tol))
    return cases


def warm_up(cases: list) -> None:
    """One small call through the first case's solver."""
    case = cases[0]
    a, b = case.problem.domain
    mesh = bf.uniform_mesh(a, b, 8)
    if isinstance(case, TransientCase):
        bf.solve_transient(case.problem, mesh, case.enrichment, dt=0.1, t_end=0.1,
                           sign_compat=True)
    else:
        bf.solve_steady(case.problem, mesh, case.enrichment)


def _count_fallbacks(caught: list) -> int:
    return sum(FALLBACK_MARKER in str(w.message) for w in caught)


def run_steady(case: SteadyCase, rec: Recorder, replay: bool) -> str | None:
    """Solve, verify and evaluate one steady case; returns a failure message
    or None.  With ``replay`` the layer calls inside the solve are repeated
    one by one under their own spans."""
    n_el = case.mesh.n_elements
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with rec.span("steady.solve_steady", case.id, "solve", count=n_el + 1) as solve:
            field = bf.solve_steady(case.problem, case.mesh, case.enrichment)
    rec.add("linear_fallbacks", _count_fallbacks(caught))
    rec.add("nodes_solved", n_el + 1)
    with rec.span("benchmarks.error_report", case.id, "postprocess", count=n_el):
        report = bf.error_report(field, case.exact)
    with rec.span("model.SolutionField.value", case.id, "postprocess", count=case.points.size):
        values = np.array([field.value(x) for x in case.points])
    with rec.span("harness.verify", case.id, "verify"):
        message = _verify_steady(case, field, report, values)
    if replay:
        _replay(_replay_steady, case, rec, solve)
    return message


def _verify_steady(case: SteadyCase, field, report, values: np.ndarray) -> str | None:
    nodal_err = float(np.max(np.abs(field.nodal_values - case.exact(case.mesh.nodes))))
    point_err = float(np.max(np.abs(values - case.exact(case.points))))
    if not abs(report.nodal_linf - nodal_err) <= 1e-9 * max(nodal_err, 1e-6):
        return f"error_report nodal error {report.nodal_linf:.3e} != {nodal_err:.3e}"
    err = max(nodal_err, point_err, report.l2)
    if not err <= case.tol:
        return f"error {err:.3e} exceeds bound {case.tol:.1e}"
    return None


def _replay(replay, case, rec: Recorder, *args) -> None:
    """Run a replay; if the package no longer offers a layer call it uses,
    note that and carry on: the replay's layer metrics then read 0."""
    try:
        replay(case, rec, *args)
    except Exception as exc:  # the replay is instrumentation, not the workload
        rec.replay_errors.add(f"{case.id}: {type(exc).__name__}: {exc}")


def _replay_steady(case: SteadyCase, rec: Recorder, solve: Span) -> None:
    coeffs, n_el = case.problem.coefficients, case.mesh.n_elements
    quad_points, element_shapes = bf_steady.default_quad_points, bf_steady.element_shapes
    with rec.span("replay", case.id):
        with rec.span("model.Mesh1D", case.id):
            bf.Mesh1D(case.mesh.nodes)
        sizes = (quad_points(case.enrichment.order), 8)  # assembly, error norm
        with rec.span("quadrature.gauss_rule", case.id, count=RULE_REPEATS):
            for i in range(RULE_REPEATS):
                bf.gauss_rule(sizes[i % 2])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with rec.span("steady.assemble_steady", case.id, parent=solve, count=n_el) as asm:
                system = bf.assemble_steady(case.problem, case.mesh, case.enrichment)
            with rec.span("steady.element_shapes", case.id, parent=asm,
                          count=np.unique(case.mesh.lengths).size) as shapes:
                element_shapes(coeffs, case.mesh, case.enrichment)
        with rec.span("linalg.solve_tridiagonal", case.id, parent=solve, count=system.size):
            x = bf.solve_tridiagonal(system)
    rec.add("distinct_lengths", shapes.count)
    rec.peak("rel_residual", _rel_residual(system.sub, system.diag, system.sup, x, system.rhs))


def _rel_residual(sub, diag, sup, x, rhs) -> float:
    r = bf_linalg.tridiagonal_matvec(sub, diag, sup, x) - rhs
    return float(np.linalg.norm(r) / np.linalg.norm(rhs))


def run_transient(case: TransientCase, rec: Recorder, replay: bool) -> str | None:
    """March, take the decay rate and evaluate one transient case; returns a
    failure message or None."""
    with rec.span("transient.solve_transient", case.id, "solve") as solve:
        traj = bf.solve_transient(case.problem, case.mesh, case.enrichment, dt=case.dt,
                                  t_end=case.t_end, sign_compat=True)
    steps = traj.times.size - 1
    if solve is not None:
        solve.count = steps
    rec.add("steps", steps)
    rec.add("nodes_solved", (case.mesh.n_elements - 1) * steps)
    with rec.span("transient.assemble_transient", case.id, "postprocess"):
        system = bf.assemble_transient(case.problem, case.mesh, case.enrichment,
                                       sign_compat=True)
    with rec.span("transient.slowest_decay_rate", case.id, "postprocess"):
        rate = bf.slowest_decay_rate(system)
    with rec.span("transient.Trajectory.value", case.id, "postprocess", count=traj.times.size):
        values = np.array([traj.value(x, t) for x, t in zip(case.points, traj.times)])
    with rec.span("harness.verify", case.id, "verify"):
        message = _verify_transient(case, traj, values, rate)
    if replay:
        _replay(_replay_transient, case, rec, solve, system)
    return message


def _verify_transient(case: TransientCase, traj, values: np.ndarray, rate: float) -> str | None:
    steps = traj.times.size - 1
    if steps != case.points.size - 1:
        return f"{steps} steps stored, expected {case.points.size - 1}"
    err = float(np.max(np.abs(values - oracles.heat_with_loss(case.points, traj.times))))
    if not err <= case.tol:
        return f"error {err:.3e} exceeds bound {case.tol:.1e}"
    if not abs(rate - oracles.EXACT_DECAY_RATE) <= case.rate_tol:
        return f"decay rate {rate:.8f} is not within {case.rate_tol:.0e} of 2"
    return None


def _replay_transient(case: TransientCase, rec: Recorder, solve: Span,
                      system: bf.TransientSystem) -> None:
    replays = min(STEP_REPLAYS, int(math.ceil(case.t_end / case.dt - 1e-12)))
    state0 = np.sin(case.mesh.nodes[1:-1])
    half = 0.5 * case.dt
    a_diag = system.lambda_ * system.mass_diag + system.stiff_diag
    a_off = system.lambda_ * system.mass_off + system.stiff_off
    lhs = bf.TridiagonalSystem(
        sub=system.mass_off + half * a_off, diag=system.mass_diag + half * a_diag,
        sup=system.mass_off + half * a_off,
        rhs=bf_linalg.tridiagonal_matvec(system.mass_off - half * a_off,
                                         system.mass_diag - half * a_diag,
                                         system.mass_off - half * a_off, state0))
    with rec.span("replay", case.id):
        with rec.span("model.Mesh1D", case.id):
            bf.uniform_mesh(*case.problem.domain, case.mesh.n_elements)
        state = state0
        for _ in range(replays):  # interleaved, so drift in machine speed hits both alike
            with rec.span("transient.step_trapezoidal", case.id, parent=solve) as step:
                state = bf.step_trapezoidal(system, state, case.dt)
            with rec.span("linalg.solve_tridiagonal.step", case.id, parent=step):
                x = bf.solve_tridiagonal(lhs)
    rec.peak("rel_residual", _rel_residual(lhs.sub, lhs.diag, lhs.sup, x, lhs.rhs))


def run_case(case, rec: Recorder, replay: bool = False) -> str | None:
    runner = run_transient if isinstance(case, TransientCase) else run_steady
    return runner(case, rec, replay)


LAYER_METRICS = {
    "quadrature.rule_us": "us",
    "enrichment.coeff_s": "s",
    "enrichment.coeff_us_per_length": "us",
    "enrichment.distinct_lengths": "count",
    "enrichment.linear_fallbacks": "count",
    "steady.assemble_self_s": "s",
    "steady.kernel_us_per_elem": "us",
    "steady.reconstruct_s": "s",
    "linalg.solve_s": "s",
    "linalg.solve_us_per_row": "us",
    "linalg.rel_residual": "ratio",
    "linalg.step_solve_us": "us",
    "transient.assemble_s": "s",
    "transient.step_us": "us",
    "transient.step_self_us": "us",
    "transient.decay_rate_s": "s",
    "transient.steps": "count",
    "model.mesh_s": "s",
    "model.eval_us_per_point": "us",
    "benchmarks.error_report_s": "s",
    "benchmarks.error_report_us_per_elem": "us",
    "harness.trace_overhead_ref": "ref",
}


SOLVE_SIDE = {
    "steady.element_shapes": "enrichment.coeff_s",
    "steady.assemble_steady": "steady.assemble_self_s",
    "steady.solve_steady": "steady.reconstruct_s",
    "linalg.solve_tridiagonal": "linalg.solve_s",
}


def _per(total: float, count: float) -> float:
    """Microseconds per unit, or 0 for a layer that did no work."""
    return 1e6 * total / count if count else 0.0


def layer_metrics(rec: Recorder, pass_index: int) -> dict[str, float]:
    """Per-layer figures of one traced pass.  A layer the workload never
    calls reads 0."""
    spans = [s for s in rec.spans if s.pass_index == pass_index]
    own = self_times(spans)
    t, n, self_t = defaultdict(float), defaultdict(int), defaultdict(float)
    for s in spans:
        t[s.name] += s.duration
        n[s.name] += s.count
        self_t[s.name] += own[s.id]

    def c(name):
        return rec.counts.get((pass_index, name), 0.0)

    evaluated = ("model.SolutionField.value", "transient.Trajectory.value")
    return {
        "quadrature.rule_us": _per(t["quadrature.gauss_rule"], n["quadrature.gauss_rule"]),
        "enrichment.coeff_s": t["steady.element_shapes"],
        "enrichment.coeff_us_per_length": _per(t["steady.element_shapes"], c("distinct_lengths")),
        "enrichment.distinct_lengths": c("distinct_lengths"),
        "enrichment.linear_fallbacks": c("linear_fallbacks"),
        "steady.assemble_self_s": self_t["steady.assemble_steady"],
        "steady.kernel_us_per_elem": _per(self_t["steady.assemble_steady"],
                                          n["steady.assemble_steady"]),
        "steady.reconstruct_s": self_t["steady.solve_steady"],
        "linalg.solve_s": t["linalg.solve_tridiagonal"],
        "linalg.solve_us_per_row": _per(t["linalg.solve_tridiagonal"],
                                        n["linalg.solve_tridiagonal"]),
        "linalg.rel_residual": c("rel_residual"),
        "linalg.step_solve_us": _per(t["linalg.solve_tridiagonal.step"],
                                     n["linalg.solve_tridiagonal.step"]),
        "transient.assemble_s": t["transient.assemble_transient"],
        "transient.step_us": _per(t["transient.step_trapezoidal"],
                                  n["transient.step_trapezoidal"]),
        "transient.step_self_us": _per(self_t["transient.step_trapezoidal"],
                                       n["transient.step_trapezoidal"]),
        "transient.decay_rate_s": t["transient.slowest_decay_rate"],
        "transient.steps": c("steps"),
        "model.mesh_s": t["model.Mesh1D"],
        "model.eval_us_per_point": _per(sum(t[name] for name in evaluated),
                                        sum(n[name] for name in evaluated)),
        "benchmarks.error_report_s": t["benchmarks.error_report"],
        "benchmarks.error_report_us_per_elem": _per(t["benchmarks.error_report"],
                                                    n["benchmarks.error_report"]),
    }


def case_breakdown(rec: Recorder, pass_index: int) -> dict[str, dict[str, float]]:
    """Solve-side layer times in seconds, per case, of one traced pass: self
    times of the steady layers, and for a transient case its solve against
    steps x mean replayed step time."""
    spans = [s for s in rec.spans if s.pass_index == pass_index]
    own = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    steps: dict[str, list[float]] = {}
    for s in spans:
        row = out.setdefault(s.case, {})
        if s.name in SOLVE_SIDE:
            row[SOLVE_SIDE[s.name]] = own[s.id]
        elif s.name == "transient.solve_transient":
            row["transient.solve_s"] = s.duration
            row["transient.steps"] = s.count
        elif s.name == "transient.step_trapezoidal":
            steps.setdefault(s.case, []).append(s.duration)
    for case, durations in steps.items():
        out[case]["transient.steps_x_step_s"] = (
            out[case]["transient.steps"] * sum(durations) / len(durations))
    return out
