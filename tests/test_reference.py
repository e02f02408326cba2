"""The slow references stay off the learner's path: no hot-path module
imports ``razor.reference``, and neither does ``import razor``."""

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


def test_import_razor_leaves_the_references_unloaded():
    code = "import sys, razor; print(sorted(m for m in sys.modules if m.startswith('razor')))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    loaded = ast.literal_eval(proc.stdout.strip())
    assert "razor" in loaded
    assert "razor.reference" not in loaded
