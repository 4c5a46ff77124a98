"""The package keeps its stack depth bounded: no function calls itself,
by bare name or as ``self.<name>``, so no input size reaches the
interpreter's recursion limit."""

import ast
from pathlib import Path

import matroid_shift

SOURCES = sorted(Path(matroid_shift.__file__).parent.glob("*.py"))


def self_calls(tree: ast.AST) -> list[str]:
    """name:line of every function whose body calls that function."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if (isinstance(f, ast.Name) and f.id == fn.name) or (
                    isinstance(f, ast.Attribute) and f.attr == fn.name
                    and isinstance(f.value, ast.Name) and f.value.id == "self"):
                found.append(f"{fn.name}:{node.lineno}")
    return found


def test_self_calls_are_found():
    source = """
def walk(n):
    return walk(n - 1)

class Tree:
    def depth(self):
        return self.depth() + self.child.depth()

def outer():
    def inner(k):
        return inner(k)
    return super().outer()
"""
    assert self_calls(ast.parse(source)) == ["walk:3", "depth:7", "inner:11"]


def test_package_has_no_recursive_functions():
    found = [f"{path.name}:{hit}" for path in SOURCES
             for hit in self_calls(ast.parse(path.read_text()))]
    assert SOURCES and found == []
