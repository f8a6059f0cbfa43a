"""Every name a module exports exists."""

import importlib
import pkgutil

import pytest

import knotcalc

MODULES = ["knotcalc"] + [f"knotcalc.{m.name}"
                          for m in pkgutil.iter_modules(knotcalc.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []
