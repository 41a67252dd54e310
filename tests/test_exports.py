"""Every name in a module's ``__all__`` resolves, so a star-import of the
module works: a name deleted from the module must leave ``__all__`` too."""

import importlib
import os
import subprocess
import sys

import pytest

import binsplit

MODULES = ("graphs", "spectral", "averaging", "simulate", "distances", "duality", "harness")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_star_import(name):
    module = importlib.import_module(f"binsplit.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from binsplit.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_monte_carlo_modules_load_without_scipy():
    # the package __init__ imports no module, so the Monte Carlo side of the
    # package loads without scipy
    src = os.path.dirname(os.path.dirname(binsplit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, yaml, binsplit.simulate, binsplit.averaging, binsplit.graphs; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
