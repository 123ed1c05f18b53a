"""Every name a fairpen module imports is read somewhere in that module."""

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
