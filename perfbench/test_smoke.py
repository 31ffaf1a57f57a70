"""Smoke test of the benchmark itself, at rank 3.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload with --n-max 3 (about a minute in all): untraced once,
traced twice.  Every metric BENCHMARK.json names must be emitted with its
unit, the outputs must pass the digest gate, and the traced counts must
repeat exactly.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, seed: int = 1) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--n-max", "3"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    return result


def units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def counts(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items() if m["unit"] == "count"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = run(workload, 0)
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = run(workload, 1), run(workload, 1, seed=2)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert units(first) == units(second) == expected
    assert first["metrics"]["verify.checks.failed"]["value"] == 0
    if workload.startswith("verify"):
        assert first["metrics"]["verify.checks.attempted"]["value"] > 0
        assert first["metrics"]["hopf.coproduct_split.calls"]["value"] > 0
    assert counts(first) == counts(second)
