"""Every name in a module's ``__all__`` resolves, so a star-import of the
module works: a name deleted from the module must leave ``__all__`` too."""

import importlib

import pytest

MODULES = ("graphs", "spectral", "averaging", "simulate", "distances", "duality", "harness")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_star_import(name):
    module = importlib.import_module(f"binsplit.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from binsplit.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
