"""Command-line front end.

Subcommands: ``coeff`` (bubble coefficients with closed-form cross-checks),
``steady`` and ``transient`` (solver runs emitted as samples), ``tables``
(reference-table reproduction with a pass column), ``convergence`` (error
reports over mesh refinements), and ``selftest`` (the acceptance suite).

Each option is declared once, with its default, in ``_OPTIONS``.  Options may
also come from a JSON config file (``--config``): its keys are option names
(``lambda`` or ``lambda_``, ``t_end`` or ``t-end``), each non-null key becomes
one ``--name=value`` token in front of the flags, and the command line is
parsed again, so file values pass the same type and choice checks as flags,
``null`` leaves an option at its default and explicit flags override the file.
``transient`` fills ``u_exact`` on every run: its initial profile is ``sin x``
and the domain ends are zeros of it, so ``sin x exp((epsilon - lambda) t)`` is
exact.  Exit codes: 0 success, 1 invalid input, 2 numerical failure,
3 acceptance-test failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import Sequence

import numpy as np

from . import acceptance
from .benchmarks import (
    convergence_study,
    history_table,
    profile_table,
    steady_benchmark_problem,
)
from .enrichment import ls_bubble, quadratic_ab
from .errors import AssemblyError, DegenerateOperatorError, LinearSolveError
from .model import (
    BoundaryCondition,
    CUBIC_BUBBLE,
    EnrichmentKind,
    LINEAR,
    QUADRATIC_BUBBLE,
    SteadyProblem,
    TransientProblem,
    TransportCoefficients,
    polynomial_bubble,
    uniform_mesh,
)
from .oracles import (
    cubic_closed_forms,
    exact_steady_benchmark,
    quadratic_ab_closed,
    transient_coefficient,
)
from .steady import solve_steady
from .transient import solve_transient

_ENRICHMENTS = {"linear": LINEAR, "quadratic": QUADRATIC_BUBBLE, "cubic": CUBIC_BUBBLE}

_OPTIONS = {
    "coeff": {
        "epsilon": (-1.0, "diffusion coefficient (signed)"),
        "kappa": (0.0, "convection coefficient"),
        "lambda_": (1.0, "reaction coefficient"),
        "length": (math.pi / 2, "element length"),
        "order": (2, "bubble polynomial order (>= 2)"),
        "u0": (0.0, "left nodal value"),
        "ul": (1.0, "right nodal value"),
    },
    "steady": {
        "epsilon": (-0.01, None),
        "kappa": (0.0, None),
        "lambda_": (1.0, None),
        "a": (0.0, "left end of the domain"),
        "b": (10.0, "right end of the domain"),
        "bc_left": ("dirichlet:1.5", "e.g. dirichlet:1.5 or neumann:0"),
        "bc_right": ("neumann:0", None),
        "elements": (50, "number of uniform elements"),
        "enrichment": ("quadratic", "linear|quadratic|cubic|poly:N"),
        "samples": (0, "emit N+1 equally spaced samples instead of mesh nodes"),
    },
    "transient": {
        "epsilon": (-1.0, None),
        "lambda_": (1.0, None),
        "a": (0.0, "left end of the domain; a zero of sin x, i.e. a multiple of pi"),
        "b": (math.pi, "right end of the domain; a zero of sin x, i.e. a multiple of pi"),
        "elements": (2, None),
        "enrichment": ("quadratic", "linear|quadratic|cubic|poly:N"),
        "dt": (1e-3, "time step"),
        "t_end": (1.0, "final time"),
        "x_samples": (8, "spatial samples per stored time level"),
        "t_stride": (100, "store every n-th time step"),
        "sign_compat": (True, "flip the bubble coefficient sign to match the published tables"),
    },
    "tables": {},
    "convergence": {
        "counts": ("30,50", "comma-separated element counts (default 30,50)"),
        "enrichments": ("linear,quadratic",
                        "comma-separated enrichments (default linear,quadratic)"),
    },
    "selftest": {},
}


def _flag(name: str) -> str:
    """Option name (``lambda_``, ``t_end``, ``t-end``) -> flag (``--lambda``, ``--t-end``)."""
    return "--" + name.rstrip("_").replace("_", "-")


def _parse_bool(text: str) -> bool:
    val = text.strip().lower()
    if val in ("true", "1", "yes", "on"):
        return True
    if val in ("false", "0", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


def _parse_enrichment(text: str) -> EnrichmentKind:
    key = text.strip().lower()
    if key in _ENRICHMENTS:
        return _ENRICHMENTS[key]
    if key.startswith("poly:"):
        return polynomial_bubble(int(key.split(":", 1)[1]))
    raise ValueError(f"unknown enrichment {text!r} (use linear|quadratic|cubic|poly:N)")


def _parse_bc(text: str) -> BoundaryCondition:
    try:
        kind, value = text.split(":", 1)
        value = float(value)
    except ValueError as exc:
        raise ValueError(f"boundary condition must look like 'dirichlet:1.5', got {text!r}") from exc
    kind = kind.strip().lower()
    if kind == "dirichlet":
        return BoundaryCondition.dirichlet(value)
    if kind in ("neumann", "flux"):
        return BoundaryCondition.neumann_flux(value)
    raise ValueError(f"unknown boundary condition kind {kind!r}")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _emit(columns: list[str], rows: list[list], args, title: str) -> None:
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
        text = buf.getvalue()
    elif args.format == "json":
        payload = {"command": title, "columns": columns, "rows": rows}
        text = json.dumps(payload, indent=2) + "\n"
    else:
        widths = [max(len(c), 12) for c in columns]
        lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths))]
        for row in rows:
            cells = []
            for v, w in zip(row, widths):
                if isinstance(v, float):
                    cells.append(f"{v:>{w}.6g}")
                elif v is None:
                    cells.append("-".rjust(w))
                else:
                    cells.append(str(v).rjust(w))
            lines.append("  ".join(cells))
        text = "\n".join(lines) + "\n"
    _write(text, args)


def _write(text: str, args) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_coeff(args) -> int:
    coeffs = TransportCoefficients(args.epsilon, args.kappa, args.lambda_)
    order = args.order
    sol = ls_bubble(coeffs, args.length, args.u0, args.ul, order=order)
    lines = [
        f"bubble coefficients of order {order} for epsilon={args.epsilon:g} "
        f"kappa={args.kappa:g} lambda={args.lambda_:g} length={args.length:g} "
        f"(u0={args.u0:g}, ul={args.ul:g})"
    ]
    rows = []
    names = ["c", "f"] + [f"c{k}" for k in range(3, order)]
    for name, value in zip(names, sol.coeffs):
        lines.append(f"  least-squares {name} = {value:+.10g}")
        rows.append([f"least_squares_{name}", float(value)])
    lines.append(f"  residual functional at minimiser = {sol.residual_value:.6g}")
    rows.append(["residual_value", float(sol.residual_value)])

    if order == 2:
        ab = quadratic_ab(coeffs, args.length)
        closed = quadratic_ab_closed(coeffs, args.length)
        closed_c = closed.coefficient(args.u0, args.ul)
        dev = abs(closed_c - sol.coeffs[0]) / max(abs(closed_c), abs(sol.coeffs[0]), 1e-300)
        lines.append(f"  nodal map: A = {ab.a_coef:+.10g}, B = {ab.b_coef:+.10g}")
        lines.append(f"  closed-form cross-check c = {closed_c:+.10g} "
                     f"(relative deviation {dev:.2e})")
        rows += [["a_coef", ab.a_coef], ["b_coef", ab.b_coef],
                 ["closed_form_c", closed_c], ["closed_form_rel_dev", dev]]
        if args.kappa == 0.0 and args.lambda_ == 1.0:
            canonical = transient_coefficient(args.epsilon, args.length)
            lines.append(
                f"  sign-compat value (reference transient tables use the "
                f"flipped sign): {-canonical:+.10g}"
            )
            rows.append(["sign_compat_c", -canonical])
    elif order == 3:
        closed_c, closed_f = cubic_closed_forms(coeffs, args.length, args.u0, args.ul)
        for name, got, ref in (("c", closed_c, sol.coeffs[0]), ("f", closed_f, sol.coeffs[1])):
            dev = abs(got - ref) / max(abs(got), abs(ref), 1e-300)
            flag = "  [closed form deviates; least-squares value is authoritative]" \
                if dev > 1e-8 else ""
            lines.append(f"  closed-form cross-check {name} = {got:+.10g} "
                         f"(relative deviation {dev:.2e}){flag}")
            rows += [[f"closed_form_{name}", got], [f"closed_form_{name}_rel_dev", dev]]

    if args.format == "table":
        _write("\n".join(lines) + "\n", args)
    else:
        _emit(["quantity", "value"], rows, args, "coeff")
    return 0


def _steady_exact(problem: SteadyProblem):
    if problem == steady_benchmark_problem():
        return exact_steady_benchmark
    c = problem.coefficients
    if c.kappa == 0.0 and c.lambda_ == 0.0 and problem.bc_left.is_dirichlet \
            and problem.bc_right.is_dirichlet:
        a, b = problem.domain
        alpha, beta = problem.bc_left.value, problem.bc_right.value
        return lambda x: alpha + (beta - alpha) * (x - a) / (b - a)
    return None


def _cmd_steady(args) -> int:
    if args.samples < 0:
        raise ValueError(f"samples must be >= 0, got {args.samples}")
    problem = SteadyProblem(
        coefficients=TransportCoefficients(args.epsilon, args.kappa, args.lambda_),
        domain=(args.a, args.b),
        bc_left=_parse_bc(args.bc_left),
        bc_right=_parse_bc(args.bc_right),
    )
    mesh = uniform_mesh(args.a, args.b, args.elements)
    enrichment = _parse_enrichment(args.enrichment)
    field = solve_steady(problem, mesh, enrichment)
    exact = _steady_exact(problem)
    xs = mesh.nodes if args.samples == 0 else np.linspace(args.a, args.b, args.samples + 1)
    rows = []
    for x in xs:
        num = field.value(float(x))
        if exact is None:
            rows.append([float(x), num, None, None])
        else:
            ref = float(exact(float(x)))
            rows.append([float(x), num, ref, abs(num - ref)])
    _emit(["x", "u_numeric", "u_exact", "abs_error"], rows, args, "steady")
    return 0


def _cmd_transient(args) -> int:
    problem = TransientProblem(
        epsilon=args.epsilon, domain=(args.a, args.b),
        initial_profile=math.sin, lambda_=args.lambda_,
    )
    if args.x_samples < 0:
        raise ValueError(f"x samples must be >= 0, got {args.x_samples}")
    mesh = uniform_mesh(args.a, args.b, args.elements)
    enrichment = _parse_enrichment(args.enrichment)
    trajectory = solve_transient(
        problem, mesh, enrichment, dt=args.dt, t_end=args.t_end,
        sign_compat=args.sign_compat, store_stride=args.t_stride,
    )
    # sin x vanishes at both ends (TransientProblem checks it), so
    # sin x exp((epsilon - lambda) t) solves du/dt + epsilon u'' + lambda u = 0
    rate = args.epsilon - args.lambda_
    xs = np.linspace(args.a, args.b, args.x_samples + 1)
    rows = []
    for t in trajectory.times.tolist():
        for x in xs.tolist():
            num = trajectory.value(x, t)
            ref = math.sin(x) * math.exp(rate * t)
            rows.append([t, x, num, ref, abs(num - ref)])
    _emit(["t", "x", "u_numeric", "u_exact", "abs_error"], rows, args, "transient")
    return 0


def _cmd_tables(args) -> int:
    columns = ["x_or_t", "paper_exact", "paper_bubble", "paper_linear",
               "computed_bubble", "computed_linear", "pass"]
    rows = []
    for row in profile_table() + history_table():
        rows.append([
            row.coordinate, row.reference_exact, row.reference_bubble,
            row.reference_linear, row.bubble, row.linear, row.passes,
        ])
    if args.format == "table":
        lines = ["  ".join(c.rjust(15) for c in columns)]
        for r in rows:
            cells = [f"{v:15.3f}" for v in r[:-1]]
            cells.append(("pass" if r[-1] else "FAIL").rjust(15))
            lines.append("  ".join(cells))
        n_fail = sum(1 for r in rows if not r[-1])
        lines.append(f"{len(rows)} rows, {len(rows) - n_fail} pass, {n_fail} fail "
                     f"(tolerance 0.001)")
        _write("\n".join(lines) + "\n", args)
    else:
        _emit(columns, rows, args, "tables")
    return 0


def _cmd_convergence(args) -> int:
    counts = [int(tok) for tok in args.counts.split(",") if tok.strip()]
    enrichments = [_parse_enrichment(tok) for tok in args.enrichments.split(",") if tok.strip()]
    problem = steady_benchmark_problem()
    reports = convergence_study(problem, exact_steady_benchmark, enrichments, counts)
    rows = [[r.enrichment.name, r.element_count, r.nodal_linf, r.l2] for r in reports]
    _emit(["enrichment", "elements", "nodal_linf", "l2"], rows, args, "convergence")
    return 0


def _cmd_selftest(args) -> int:
    results = acceptance.run_all()
    lines = [acceptance.format_result(r) for r in results]
    n_fail = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - n_fail}/{len(results)} criteria passed")
    _write("\n".join(lines) + "\n", args)
    return 3 if n_fail else 0


_COMMANDS = {
    "coeff": (_cmd_coeff, "print bubble coefficients with closed-form cross-checks"),
    "steady": (_cmd_steady, "solve a steady problem"),
    "transient": (_cmd_transient, "run a transient solve from u(x, 0) = sin x"),
    "tables": (_cmd_tables, "reproduce the two-element reference tables with a pass column"),
    "convergence": (_cmd_convergence, "error reports for the steady benchmark over refinements"),
    "selftest": (_cmd_selftest, "run the acceptance criteria"),
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file with option values (flags override)")
    common.add_argument("--format", choices=("table", "csv", "json"), default="table",
                        help="output format (default table)")
    common.add_argument("--out", help="write output to this path instead of stdout")

    parser = argparse.ArgumentParser(
        prog="bubblefem",
        description="1D transport solver with least-squares bubble-enriched elements",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary) in _COMMANDS.items():
        p = sub.add_parser(command, parents=[common], help=summary)
        for dest, (default, text) in _OPTIONS[command].items():
            kind = _parse_bool if isinstance(default, bool) else type(default)
            p.add_argument(_flag(dest), dest=dest, type=kind, default=default, help=text)
        # the epilog lists the defaults argparse holds, the common options' included
        shown = sorted((k, v) for k, v in vars(p.parse_args([])).items() if v is not None)
        p.epilog = "defaults: " + ", ".join(f"{_flag(k)}={v}" for k, v in shown)
    return parser


def _config_tokens(path: str) -> list[str]:
    """One ``--name=value`` token per non-null key of a JSON config object."""
    with open(path) as fh:
        values = json.load(fh)
    if not isinstance(values, dict):
        raise ValueError("config file must contain a JSON object")
    return [f"{_flag(key)}={value}" for key, value in values.items() if value is not None]


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            # file values go in front of the flags: argparse keeps the last occurrence
            rest = argv[argv.index(args.command) + 1:]
            args = parser.parse_args([args.command, *_config_tokens(args.config), *rest])
        return _COMMANDS[args.command][0](args)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    except (DegenerateOperatorError, LinearSolveError, AssemblyError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
