import inspect
import os
import re
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


def test_library_tour_names_are_exported():
    # the contents column of README's "Library tour" table, less parenthesized text
    readme = (ROOT / "README.md").read_text()
    table = readme.split("## Library tour", 1)[1].split("\n\n", 1)[1].split("\n\n", 1)[0]
    rows = [line.split("|")[2] for line in table.splitlines()[2:]]
    names = []
    for cell in rows:
        names += re.findall(r"`([^`]+)`", re.sub(r"\([^)]*\)", "", cell))
    assert len(rows) == 6 and len(names) > 20
    assert [name for name in names if name not in privmask.__all__] == []
    # and every exported function is named there
    functions = [name for name in privmask.__all__
                 if inspect.isfunction(getattr(privmask, name))]
    assert [name for name in functions if name not in names] == []


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(demo):
    # a fresh interpreter on this checkout's sources, as `python demos/<name>` runs it
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
