"""Public-name tests: every name a module lists in `__all__` resolves."""

import importlib
import pkgutil

import pytest

import spidergda

MODULES = ["spidergda"] + [f"spidergda.{m.name}"
                           for m in pkgutil.iter_modules(spidergda.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__, f"{name} lists no public names"
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
