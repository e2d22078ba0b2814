"""Every name a module exports in `__all__` exists, so no export outlives its code."""

import importlib

import pytest

MODULES = ["engine", "operators", "packet", "placement", "query", "sim", "tables"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module("icncep." + name)
    exported = module.__all__
    assert len(exported) == len(set(exported))
    assert [n for n in exported if not hasattr(module, n)] == []
