"""The benchmark's run contract: a short traced run of every workload that
BENCHMARK.json declares exits 0. perfbench exits 1 when a repeat raises (for
gradcheck: a suite raises, changes its return type or misses its bound) or
when a traced function name is missing from the package."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    WORKLOADS = [w["name"] for w in json.load(f)["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_workload_run_exits_0(workload):
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "7", "--seconds", "0.5", "--trace", "1",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
