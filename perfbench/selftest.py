"""Smoke self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload the runner knows (also those BENCHMARK.json leaves
out) at tiny job shapes (``--smoke``), untraced and traced, with the output
check on, and requires a correct result line that carries exactly the
metrics BENCHMARK.json declares, with their units.  Then runs
the benchmark in a directory that holds only BENCHMARK.json and the
benchmark's own files, where it must fail without printing a result.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BARE = ROOT / ".perfbench" / "bare"


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "2", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_problems(proc, expected: dict) -> list:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        report = json.loads(proc.stdout.splitlines()[-2])["report"]
        problems.append(f"not correct: {report.get('failures')} {report.get('trace_problems')}")
    got = {name: m["unit"] for name, m in result.get("metrics", {}).items()}
    if got != expected:
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(expected))}")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    failed = False
    for workload in workloads.WHY:
        for trace in (0, 1):
            problems = result_problems(run(ROOT, workload, trace), expected[trace])
            failed |= bool(problems)
            print(f"{workload} --trace {trace}: {'ok' if not problems else problems}")

    shutil.rmtree(BARE, ignore_errors=True)
    BARE.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", BARE)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, BARE / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(BARE, bench["workloads"][0]["name"], 0)
        bare_ok = proc.returncode != 0 and not proc.stdout.strip()
    finally:
        shutil.rmtree(BARE, ignore_errors=True)
    failed |= not bare_ok
    print(f"bare directory: {'fails as it should' if bare_ok else 'did not fail'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
