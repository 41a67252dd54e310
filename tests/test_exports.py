"""Every name in a module's ``__all__`` resolves, so a star-import of the
module works: a name deleted from the module must leave ``__all__`` too."""

import importlib
import os
import subprocess
import sys

import pytest

import binsplit

MODULES = ("graphs", "spectral", "averaging", "simulate", "distances", "duality", "harness",
           "verify")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_star_import(name):
    module = importlib.import_module(f"binsplit.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from binsplit.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_monte_carlo_modules_load_without_scipy(tmp_path):
    # the package __init__ imports no module and each runner imports the
    # engines it calls, so neither the Monte Carlo modules, nor the harness,
    # nor a crossing run on a tstar grid load scipy or the exact engine
    src = os.path.dirname(os.path.dirname(binsplit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    config = tmp_path / "cdsz.yaml"
    config.write_text("graph: {kind: complete, size: 64}\nreplicas: 4\n"
                      "times: {mode: tstar, multiples: [0.5, 1.0, 1.5]}\n")
    loaded = ("print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m in "
              "('binsplit.duality', 'binsplit.distances', 'binsplit.spectral'))); ")
    code = ("import sys, yaml, binsplit.simulate, binsplit.averaging, binsplit.graphs; "
            + loaded + "import binsplit.harness; " + loaded
            + "from binsplit.cli import main; "
            "main(['cdsz', '--config', sys.argv[1], '--out', sys.argv[2]]); " + loaded)
    out = subprocess.run([sys.executable, "-c", code, str(config), str(tmp_path / "out")],
                         env=env, capture_output=True, text=True, check=True)
    assert [ln for ln in out.stdout.splitlines() if ln.startswith("[")] == ["[]"] * 3
    assert (tmp_path / "out" / "cdsz.csv").exists()


def test_spectral_gap_loads_no_csgraph():
    # one component labeling checks reducibility on every route, so neither
    # a dense solve nor a Lanczos solve (cycle12 at k = 5, 4,368 states)
    # imports scipy.sparse.csgraph
    src = os.path.dirname(os.path.dirname(binsplit.__file__))
    code = ("import sys, binsplit.spectral as s, binsplit.graphs as g; "
            "w = g.uniform_weights(6); "
            "print(s.spectral_gap(s.generator_single_particle(g.cycle_graph(6), w), w.pi).full); "
            "w = g.uniform_weights(12); space = s.enumerate_configs(12, 5); "
            "Q = s.generator_splitting(g.cycle_graph(12), w, 5, space); "
            "print(s.spectral_gap(Q, s.multinomial_measure(w, 5, space)).full, "
            "'scipy.sparse.csgraph' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["True", "False", "False"]
