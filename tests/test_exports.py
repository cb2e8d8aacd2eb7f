"""Every name a defham module lists in ``__all__`` exists, so a deletion
cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import defham

MODULES = ["defham"] + [f"defham.{m.name}" for m in pkgutil.iter_modules(defham.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__, f"{name} exports nothing"
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
