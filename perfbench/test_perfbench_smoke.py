"""Smoke test of the benchmark harness at tiny sizes.

Checks that every metric BENCHMARK.json names is emitted with its unit,
that metric names are well formed, and that the correctness gate trips
when the oracle is wrong.
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
from types import SimpleNamespace

import pytest

import run

sys.path.insert(0, str(run.SRC))

import oracles  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def smoke_run(workload, trace, cases=None):
    return run.run_workload(workload, seed=3, seconds=0, trace=trace, size="smoke",
                            setup_repeats=1, cases=cases)["result"]


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", run.WORKLOAD_CHOICES)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = smoke_run(workload, trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == {metric["name"]: metric["unit"] for metric in declared}
    assert all(NAME.fullmatch(name) for name in emitted)
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_declared_workloads_match_the_harness():
    assert tuple(w["name"] for w in BENCHMARK["workloads"]) == run.WORKLOAD_CHOICES


@pytest.mark.parametrize("workload", ["steady_uniform", "steady_graded"])
def test_gate_trips_on_a_wrong_steady_oracle(workload):
    cases = workloads.build_cases(workload, 3, "smoke")
    assert all(workloads.run_case(case, Recorder(False)) is None for case in cases)
    wrong = [dataclasses.replace(case, exact=lambda x, f=case.exact, d=10 * case.tol: f(x) + d)
             for case in cases]
    result = smoke_run(workload, False, cases=wrong)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= len(cases)


def test_gate_trips_on_a_wrong_decay_oracle(monkeypatch):
    cases = workloads.build_cases("transient_march", 3, "smoke")
    assert all(workloads.run_case(case, Recorder(False)) is None for case in cases)
    monkeypatch.setattr(oracles, "EXACT_DECAY_RATE", 2.5)
    messages = [workloads.run_case(case, Recorder(False)) for case in cases]
    assert all(message is not None for message in messages)


def test_a_case_that_raises_counts_as_failed():
    case = workloads.build_cases("steady_uniform", 3, "smoke")[0]
    off_domain = dataclasses.replace(case, mesh=workloads.bf.uniform_mesh(0.0, 5.0, 10))
    result = smoke_run("steady_uniform", False, cases=[off_domain])
    assert result["failed"] == result["attempted"] >= 1


def test_a_missing_layer_call_leaves_the_workload_correct(monkeypatch):
    # the harness sees a steady module without element_shapes
    without = SimpleNamespace(default_quad_points=workloads.bf_steady.default_quad_points)
    monkeypatch.setattr(workloads, "bf_steady", without)
    out = run.run_workload("steady_uniform", seed=3, seconds=0, trace=True, size="smoke",
                           setup_repeats=1)
    assert out["result"]["correct"]
    assert out["result"]["metrics"]["enrichment.coeff_s"]["value"] == 0.0
    assert any("element_shapes" in line for line in out["record"]["replay_errors"])
