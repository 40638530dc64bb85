"""Every name a module of the package imports is read somewhere in it.

A parse of each module (the package's `__init__` re-exports, so it is left
out): an imported name that no expression loads, and that `__all__` does
not list, is dead.
"""

import ast
from pathlib import Path

import pytest

import aoiq

MODULES = sorted(p for p in Path(aoiq.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_scan_finds_an_unused_import():
    source = "import math\nfrom os import path, sep\nprint(sep)\n"
    assert unused_imports(source) == [(1, "math"), (2, "path")]
    assert unused_imports("import numpy as np\nx = np.pi\n") == []
    assert unused_imports("from . import a\n__all__ = ['a']\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
