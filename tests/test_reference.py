"""The slow references stay off the learner's path: no hot-path module
imports ``razor.reference``, and neither does ``import razor``.  And the
reference joins on its own: it uses none of ``razor.datalog``'s join
internals, so the differential tests compare two independent joins."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import razor

SRC = Path(razor.__file__).resolve().parent


def _imported_modules(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "razor." if node.level else ""
            if node.module:
                names.add(base + node.module)
            else:
                names.update(base + alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("module", ["datalog", "generate", "pointless", "search", "logic"])
def test_hot_path_does_not_import_reference(module):
    assert "razor.reference" not in _imported_modules(SRC / f"{module}.py")


def test_guard_sees_the_reference_import(tmp_path):
    module = tmp_path / "uses_reference.py"
    module.write_text("from .reference import coverage\n")
    assert "razor.reference" in _imported_modules(module)


JOIN_INTERNALS = {"_Step", "_Pipeline", "_plan", "_compile", "_projector"}


def _names_used(path: Path) -> set[str]:
    """Every name the module imports, reads or reaches as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_reference_uses_none_of_the_join_internals():
    assert not _names_used(SRC / "reference.py") & JOIN_INTERNALS


def test_guard_sees_the_join_internals(tmp_path):
    module = tmp_path / "uses_internals.py"
    module.write_text("from .datalog import _plan\nfrom . import datalog\ndatalog._Step\n")
    assert _names_used(module) & JOIN_INTERNALS == {"_plan", "_Step"}


def test_import_razor_leaves_the_references_unloaded():
    code = "import sys, razor; print(sorted(m for m in sys.modules if m.startswith('razor')))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    loaded = ast.literal_eval(proc.stdout.strip())
    assert "razor" in loaded
    assert "razor.reference" not in loaded
