"""Every name a module exports in `__all__` exists, so no export outlives its code,
and the package needs nothing outside the standard library."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

MODULES = ["engine", "operators", "packet", "placement", "query", "sim", "tables"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module("icncep." + name)
    exported = module.__all__
    assert len(exported) == len(set(exported))
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_imports_only_the_standard_library():
    src = Path(importlib.import_module("icncep").__file__).parent
    foreign = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue  # relative imports stay inside the package
            foreign += [
                (path.name, r) for r in roots
                if r != "icncep" and r not in sys.stdlib_module_names
            ]
    assert foreign == []
