"""The names the benchmark reads from the package must keep resolving.

perfbench/tracing.py rebinds each (module, function) of its TRACED list
with getattr, and perfbench/baseline.py imports names from the package and
from the test helpers; a rename or deletion there breaks `run.py --trace`
or the baseline script, which no other test runs.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _imported_names(name):
    """(module, name) for every `from module import name` in a perfbench
    script, the standard library's aside."""
    tree = ast.parse((PERFBENCH / f"{name}.py").read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module.partition(".")[0] not in sys.stdlib_module_names
        for alias in node.names
    ]


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _, _ in _load("tracing").TRACED])
def test_traced_functions_resolve(module, attr):
    assert callable(getattr(importlib.import_module(f"affinelogic.{module}"), attr))


@pytest.mark.parametrize("module, attr", _imported_names("tracing") + _imported_names("baseline"))
def test_imported_names_resolve(module, attr):
    assert hasattr(importlib.import_module(module), attr)
