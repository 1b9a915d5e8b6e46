"""Smoke test of the benchmark: a traced run of each workload of
BENCHMARK.json exits 0 and ends in a strict-JSON result line that is
correct and names every per-layer metric."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


def _no_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_run_ends_in_a_correct_result(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1], parse_constant=_no_constant)
    assert result["correct"] is True and result["failed"] == 0, done.stderr
    missing = [m["name"] for m in BENCHMARK["per_layer"] if m["name"] not in result["metrics"]]
    assert missing == []
