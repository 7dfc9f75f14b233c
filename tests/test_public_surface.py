"""The package's public surface: each module's __all__ names only what the
module defines, and the package re-exports only names a module declares."""

import ast
import importlib
from pathlib import Path

import pytest

import halftwist

MODULES = ("axioms", "cli", "cyclo", "linalg", "pingeo", "ribbon", "superalgebra", "tqft")


def package_imports():
    """(module, name) for every `from .module import name` in __init__.py."""
    tree = ast.parse(Path(halftwist.__file__).read_text())
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def test_modules_cover_the_package():
    root = Path(halftwist.__file__).parent
    assert {p.stem for p in root.glob("*.py")} - {"__init__"} == set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_star_import_finds_every_exported_name(name):
    module = importlib.import_module(f"halftwist.{name}")
    namespace = {}
    exec(f"from halftwist.{name} import *", namespace)
    for export in getattr(module, "__all__", ()):
        assert namespace[export] is getattr(module, export)


@pytest.mark.parametrize("name", MODULES)
def test_package_imports_only_exported_names(name):
    imported = [n for module, n in package_imports() if module == name]
    if not imported:
        return
    module = importlib.import_module(f"halftwist.{name}")
    assert sorted(set(imported) - set(module.__all__)) == []
    for n in imported:
        assert getattr(halftwist, n) is getattr(module, n)


def test_package_imports_are_read():
    modules = {module for module, _ in package_imports()}
    assert modules == {"axioms", "cyclo", "pingeo", "ribbon", "superalgebra", "tqft"}
