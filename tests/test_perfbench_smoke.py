"""Tier-1 guard that the benchmark still runs against this checkout.

Runs each gated workload at its smoke shape with per-layer tracing and
checks only that every output was correct and the layer mapping held; no
timing is asserted.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["montecarlo", "certify"])
def test_smoke_traced(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--smoke",
         "--seconds", "2", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report_line, result_line = proc.stdout.strip().split("\n")[-2:]
    report = json.loads(report_line)["report"]
    result = json.loads(result_line)
    assert result["correct"] is True, (report.get("failures"), report.get("trace_problems"))
    assert report["trace_problems"] == []
