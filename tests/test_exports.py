"""Every name a module exports in `__all__` resolves."""

import importlib
import pkgutil

import pytest

import mqamlink

MODULES = ["mqamlink", *(f"mqamlink.{m.name}" for m in pkgutil.iter_modules(mqamlink.__path__)
                         if m.name != "__main__")]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []

