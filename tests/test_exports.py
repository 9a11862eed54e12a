"""Every name a kafcm module exports in __all__ exists."""

import importlib
import pkgutil

import pytest

import kafcm

MODULES = ["kafcm"] + [f"kafcm.{m.name}" for m in pkgutil.iter_modules(kafcm.__path__) if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
