"""Every name a fairpen module imports is read somewhere in that module,
and every function and class it defines is read somewhere in the package
or exported."""

import ast
from pathlib import Path

import pytest

import fairpen

MODULES = sorted(Path(fairpen.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, with their lines; names
    listed in ``__all__`` and ``from __future__`` imports are exempt."""
    tree = ast.parse(source)
    imported, exported = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read | exported]


def test_scan_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "import numpy.linalg\n"
        "from dataclasses import dataclass, field\n"
        "from .x import kept\n"
        "__all__ = ['kept']\n"
        "numpy.linalg.norm(os.sep)\n"
        "@dataclass\n"
        "class C:\n"
        "    n: int\n"
    )
    assert unused_imports(source) == ["osp (line 2)", "field (line 4)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_definitions(sources: dict[str, str], exported: set[str]) -> list[str]:
    """The top-level functions and classes of ``sources`` (module name ->
    source) that no module reads, as a name or an attribute, and that are
    not in ``exported``; each as ``module.name``."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in read | exported
    ]


def test_scan_finds_unread_definitions():
    sources = {
        "a": "def used():\n    pass\n\ndef unused():\n    pass\n\nclass Exported:\n    pass\n",
        "b": "from . import a\n\ndef helper():\n    return a.used()\n\nclass Cls:\n    pass\n\nhelper()\n",
    }
    assert unread_definitions(sources, {"Exported"}) == ["a.unused", "b.Cls"]


def test_no_library_code_exists_only_for_the_tests():
    """No function or class of the package is read only by the tests.
    ``oracles.py`` is exempt: its checkers ship as independent references
    for users to check the library with, not as code the library runs."""
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    unread = unread_definitions(sources, set(fairpen.__all__))
    assert [name for name in unread if not name.startswith("oracles.")] == []
