"""The package carries no dead surface: every function, class and method
defined in src/schurbox is either used by the package itself or exported."""

import ast
from pathlib import Path

import schurbox

PACKAGE = Path(schurbox.__file__).parent


def _trees():
    return {path.name: ast.parse(path.read_text())
            for path in sorted(PACKAGE.glob("*.py"))}


def _definitions(tree):
    """(name, line) of every function, class and non-dunder method."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.name, node.lineno


def _references(tree):
    """Every name the code reads or writes, bare or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_definition_is_used_or_exported():
    trees = _trees()
    used = {name for tree in trees.values() for name in _references(tree)}
    unused = [f"{file}:{line} {name}"
              for file, tree in trees.items()
              for name, line in _definitions(tree)
              if name not in used and name not in schurbox.__all__]
    assert not unused, "defined but neither used nor exported: " + \
        ", ".join(unused)
