"""Smoke tests of the benchmark itself, on tiny inputs.

    python3 -m pytest benchmarks/test_smoke.py

Each workload runs once untraced and once traced in smoke mode. The tests
check that every metric BENCHMARK.json names is printed with its unit, that
the outputs pass their checks, and that the traced run's top-level spans
cover its timed region.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def expected(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result = run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected("end_to_end")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric_and_covers_the_timed_region(workload):
    result = run(workload, 1)
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected("per_layer")
    assert result["metrics"]["trace.coverage"]["value"] >= 0.95


def test_spec_matches_the_code():
    sys.path.insert(0, str(HERE))
    import run as bench
    import tracer

    assert set(WORKLOADS) == set(bench.WORKLOADS) == set(bench.SMOKE)
    assert [(n, u) for n, u in bench.END_TO_END] == \
        [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    assert [(n, u, b) for n, u, b in tracer.PER_LAYER] == \
        [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]


def test_fails_without_the_program():
    """A directory holding only the benchmark and its spec has no program to
    measure: the run must fail without printing a result."""
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "benchmarks").mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for f in HERE.glob("*.py"):
            shutil.copy(f, bare / "benchmarks")
        out = subprocess.run(
            [sys.executable, "benchmarks/run.py", "--workload", WORKLOADS[0], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0
    assert out.stdout == ""
