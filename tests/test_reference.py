"""The slow references stay off the learner's path: no hot-path module
imports ``razor.reference``."""

import ast
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


def test_guard_sees_the_reference_import():
    assert "razor.reference" in _imported_modules(SRC / "__init__.py")
