"""The package checks its invariants with raised errors, never `assert`,
which `python -O` strips."""

import ast
from pathlib import Path

import matroid_shift

SOURCES = sorted(Path(matroid_shift.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert SOURCES and found == []
