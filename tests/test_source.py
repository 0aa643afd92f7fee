"""Checks on the package source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import repairalloc

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repairalloc"


def test_no_check_lives_in_an_assert():
    """``python -O`` strips every ``assert``, so a check the package relies on must raise explicitly."""
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_all_lists_exactly_the_names_the_package_imports():
    """``__all__`` names each public import of ``__init__.py`` once, plus ``__version__``, and nothing stale."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }
    assert len(repairalloc.__all__) == len(set(repairalloc.__all__))
    assert set(repairalloc.__all__) == imported | {"__version__"}
    assert all(hasattr(repairalloc, name) for name in repairalloc.__all__)


def test_every_private_helper_is_referenced():
    """Each private module-level function or class, and each private method, is named somewhere in the package
    outside its own definition, so a helper whose last caller is gone fails here."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in sorted(PACKAGE.rglob("*.py"))}
    references = [
        (path, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
        for path, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    definitions = []
    for path, tree in trees.items():
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            definitions += [
                (path, definition)
                for definition in [node, *members]
                if isinstance(definition, (ast.FunctionDef, ast.ClassDef))
                and definition.name.startswith("_")
                and not definition.name.endswith("__")
            ]
    assert len(definitions) >= 30  # the scan finds the package's helpers
    unreferenced = [
        f"{path.relative_to(PACKAGE)}:{definition.lineno} {definition.name}"
        for path, definition in definitions
        if not any(
            name == definition.name and not (where == path and definition.lineno <= line <= definition.end_lineno)
            for where, line, name in references
        )
    ]
    assert unreferenced == []
