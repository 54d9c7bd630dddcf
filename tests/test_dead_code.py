"""Every public name in `src/` is used there, or exported."""

from __future__ import annotations

import ast
import pathlib

import reglock

SRC = pathlib.Path(reglock.__file__).resolve().parent


def _definitions(tree: ast.Module):
    """(qualified name, node) for each public top-level function and class,
    and each public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _uses(tree: ast.Module):
    """(name, line) for each name read or attribute taken."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def test_every_public_definition_is_used_or_exported():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    uses = [(module, name, line) for module, tree in trees.items()
            for name, line in _uses(tree)]
    unused = []
    for module, tree in trees.items():
        for qualified, node in _definitions(tree):
            name = qualified.rsplit(".", 1)[-1]
            if name in reglock.__all__:
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(n == name and not (m == module and line in inside)
                       for m, n, line in uses):
                unused.append(f"{module}:{qualified}")
    assert unused == []
