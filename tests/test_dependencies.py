import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def declared_dependencies():
    """Import names of the runtime and ``test`` dependencies in ``pyproject.toml``."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    specs = project["dependencies"] + project["optional-dependencies"]["test"]
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower().replace("-", "_")
            for spec in specs}


def test_tests_import_only_the_stdlib_privmask_and_declared_dependencies():
    allowed = set(sys.stdlib_module_names) | {"privmask"} | declared_dependencies()
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name}: import {name}"


def imports_run_on_import(nodes):
    """Top-level names of the imports among ``nodes`` that run when their module is imported.

    Function bodies run later, and ``if TYPE_CHECKING:`` blocks never run; class bodies
    and every other block run on import.
    """
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) in ("TYPE_CHECKING",
                                                                   "typing.TYPE_CHECKING"):
            yield from imports_run_on_import(node.orelse)
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]
        yield from imports_run_on_import(ast.iter_child_nodes(node))


def test_only_the_simulation_layer_imports_numpy_or_scipy_on_import():
    # numpy takes about half of a fresh start; the functions that build arrays import it
    for path in sorted((ROOT / "src" / "privmask").glob("*.py")):
        if path.name == "simulation.py":
            continue
        heavy = {"numpy", "scipy"} & set(imports_run_on_import(ast.parse(path.read_text()).body))
        assert not heavy, f"{path.name} imports {sorted(heavy)} on import"
