"""Benchmark harness for bubblefem: closed-loop workloads, end-to-end
metrics, and per-layer metrics from a traced run.

Usage, from the repository root:

    python3 perfbench/run.py --workload steady_uniform --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One caller runs the workload's cases back to back, pass after pass, for
``--seconds``.  With ``--trace 0`` the end-to-end metrics are reported;
with ``--trace 1`` untraced and traced passes alternate and the per-layer
metrics are reported.  Every case is checked against an exact solution.
The last line of standard output is one JSON object with the result; a
run record (environment, failures and, when traced, every span) is
written under ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

BLAS_THREADS = "1"  # one BLAS thread: the dense fallback is steadiest there
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
WORKLOAD_CHOICES = ("steady_uniform", "steady_graded", "transient_march")

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_ref": "ref",
    "solve_ref": "ref",
    "postprocess_ref": "ref",
    "node_updates_per_ref": "1/ref",
    "peak_rss_mb": "MB",
}
CATEGORIES = ("solve", "postprocess", "verify")


def pinned_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: BLAS_THREADS for name in BLAS_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def setup_once(workload: str, seed: int, size: str) -> list:
    """What a fresh process does before its first pass: import the package,
    make the seeded inputs, and make one warm-up call."""
    import workloads

    cases = workloads.build_cases(workload, seed, size)
    workloads.warm_up(cases)
    return cases


def measure_setup(workload: str, seed: int, size: str, repeats: int) -> float:
    """Median wall time of ``repeats`` fresh processes that only set up."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", workload, "--seed", str(seed), "--size", size]
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        # no timeout: with one, the wait polls and rounds times to 50 ms
        subprocess.run(command, env=pinned_env(), check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def environment() -> dict:
    import numpy as np

    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "not installed"

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=30)
        commit = result.stdout.strip() or "unknown"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_commit": commit,
        "platform": platform.platform(),
    }


def pass_times(rec, passes) -> dict[str, float]:
    """Per category, the sum over the cases' calls of each call's median
    over ``passes``: in seconds (``*_s``) and in reference units (``*_ref``,
    each call's time divided by its reference time).  A pass is the sum of
    all three categories: solve, evaluate and verify."""
    passes = set(passes)
    seconds, ratios = defaultdict(list), defaultdict(list)
    for p, case, name, category, t, reference in rec.timings:
        if p in passes:
            seconds[case, name, category].append(t)
            ratios[case, name, category].append(t / reference)
    out = {}
    for suffix, samples in (("_s", seconds), ("_ref", ratios)):
        for category in CATEGORIES:
            out[category + suffix] = sum(statistics.median(v) for key, v in samples.items()
                                         if key[2] == category)
        out["pass" + suffix] = sum(out[category + suffix] for category in CATEGORIES)
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", setup_repeats: int = SETUP_REPEATS,
                 cases: list | None = None) -> dict:
    """Run one workload; returns the result object plus a run record."""
    import workloads
    from spans import Recorder

    setup_s = measure_setup(workload, seed, size, setup_repeats)
    if cases is None:
        cases = setup_once(workload, seed, size)
    rec = Recorder(trace=False, reference=workloads.reference_seconds)
    attempted = failed = 0
    failures: list[str] = []
    deadline = time.perf_counter() + seconds
    index = 0
    while index < (2 if trace else 1) or time.perf_counter() < deadline:
        rec.trace = trace and index % 2 == 1
        rec.pass_index = index
        gc.collect()
        for case in cases:
            attempted += 1
            try:
                message = workloads.run_case(case, rec, replay=rec.trace)
            except Exception as exc:  # a case that raises counts as failed
                message = f"{type(exc).__name__}: {exc}"
            if message is not None:
                failed += 1
                failures.append(f"pass {index} {case.id}: {message}")
        index += 1
    untraced = pass_times(rec, range(0, index, 2 if trace else 1))
    if trace:
        layers = [workloads.layer_metrics(rec, i) for i in range(1, index, 2)]
        values = {name: statistics.median(layer[name] for layer in layers)
                  for name in layers[0]}
        traced = pass_times(rec, range(1, index, 2))
        values["harness.trace_overhead_ref"] = traced["pass_ref"] - untraced["pass_ref"]
        units = workloads.LAYER_METRICS
    else:
        values = dict(untraced)
        values["node_updates_per_ref"] = rec.counts[0, "nodes_solved"] / untraced["solve_ref"]
        values["node_updates_per_s"] = rec.counts[0, "nodes_solved"] / untraced["solve_s"]
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "size": size, "passes": index, "cases": [case.id for case in cases],
        "failed_frac": failed / attempted, "failures": failures[:50],
        "setup_s": setup_s, "seconds_per_pass": {k: v for k, v in untraced.items()
                                                  if k.endswith("_s")},
        "reference_s": statistics.median(t[5] for t in rec.timings),
        "timings": rec.timings,
    }
    if not trace:
        record["seconds_per_pass"]["node_updates_per_s"] = values["node_updates_per_s"]
    if trace:
        record["case_breakdown"] = workloads.case_breakdown(rec, 1)
        record["replay_errors"] = sorted(rec.replay_errors)
        record["spans"] = rec.dump()
    return {"result": result, "record": record}


def report(workload: str, run: dict, env: dict) -> None:
    """Human-readable lines: environment, every metric with its unit."""
    result, record = run["result"], run["record"]
    print(f"# {workload}: {record['passes']} passes of {len(record['cases'])} cases "
          f"({', '.join(record['cases'])})")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, metric in result["metrics"].items():
        print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}")
    for name, value in record["seconds_per_pass"].items():
        print(f"{workload} {name} {value:.6g} {'1/s' if name.endswith('per_s') else 's'}")
    print(f"{workload} reference_s {record['reference_s']:.6g} s (1 ref)")
    print(f"{workload} failed_frac {record['failed_frac']:.6g} fraction "
          f"({result['failed']} of {result['attempted']} cases)")
    for line in record["failures"][:10]:
        print(f"# FAILED {line}")
    for line in record.get("replay_errors", []):
        print(f"# REPLAY ERROR (layer metrics read 0) {line}")
    for case, layers in record.get("case_breakdown", {}).items():
        print(f"# {case} " + " ".join(f"{k}={v:.4g}" for k, v in layers.items()))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_CHOICES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny cases that only exercise the harness")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "bubblefem" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC}", file=sys.stderr)
        return 2
    os.environ.update({name: BLAS_THREADS for name in BLAS_VARS})
    sys.path[:0] = [str(SRC), str(HERE)]
    import bubblefem

    if Path(bubblefem.__file__).resolve().parent != SRC / "bubblefem":
        print(f"error: imported bubblefem from {bubblefem.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        setup_once(args.workload, args.seed, args.size)
        return 0

    env = environment()
    names = WORKLOAD_CHOICES if args.workload == "all" else (args.workload,)
    runs = {}
    for name in names:
        runs[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), args.size)
        report(name, runs[name], env)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps({"env": env, **runs[name]}, indent=1))
    if len(names) == 1:
        final = runs[names[0]]["result"]
    else:
        final = {
            "correct": all(r["result"]["correct"] for r in runs.values()),
            "attempted": sum(r["result"]["attempted"] for r in runs.values()),
            "failed": sum(r["result"]["failed"] for r in runs.values()),
            "metrics": {f"{name}.{metric}": value for name, r in runs.items()
                        for metric, value in r["result"]["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
