"""Every public name in `src/` is used there, or exported, and every
private function and method is used there."""

from __future__ import annotations

import ast
import pathlib

import reglock

SRC = pathlib.Path(reglock.__file__).resolve().parent


def _public(node: ast.AST) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")


def _private_function(node: ast.AST) -> bool:
    name = getattr(node, "name", "")
    return (isinstance(node, ast.FunctionDef) and name.startswith("_")
            and not (name.startswith("__") and name.endswith("__")))


def _definitions(tree: ast.Module, chosen):
    """(qualified name, node) for each `chosen` top-level function or class,
    and each `chosen` method of a top-level class."""
    for node in tree.body:
        if chosen(node):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if chosen(item):
                    yield f"{node.name}.{item.name}", item


def _uses(tree: ast.Module):
    """(name, line) for each name read or attribute taken."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def _unused(chosen) -> list[str]:
    """The `chosen` definitions that `src/` names nowhere outside their own
    body, exported names aside."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    uses = [(module, name, line) for module, tree in trees.items()
            for name, line in _uses(tree)]
    unused = []
    for module, tree in trees.items():
        for qualified, node in _definitions(tree, chosen):
            name = qualified.rsplit(".", 1)[-1]
            if name in reglock.__all__:
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(n == name and not (m == module and line in inside)
                       for m, n, line in uses):
                unused.append(f"{module}:{qualified}")
    return unused


def test_every_public_definition_is_used_or_exported():
    assert _unused(_public) == []


def test_every_private_function_and_method_is_used():
    """Dunders aside, which Python calls by name."""
    assert _unused(_private_function) == []
