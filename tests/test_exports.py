"""Every name a module exports exists, and none is listed twice."""

import importlib
import pkgutil

import pytest

import tsmon

MODULES = ["tsmon"] + [f"tsmon.{m.name}" for m in pkgutil.iter_modules(tsmon.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_once(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)
