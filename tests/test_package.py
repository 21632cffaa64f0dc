import os
import subprocess
import sys
from pathlib import Path

import pytest

import privmask

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_export_resolves():
    missing = [name for name in privmask.__all__ if not hasattr(privmask, name)]
    assert missing == []


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(demo):
    # a fresh interpreter on this checkout's sources, as `python demos/<name>` runs it
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
