"""The four benchmark workloads: the experiment config each pass runs, the
harness runner it goes through, the CSV it writes, and how that CSV is checked.

Every config uses only keys the roadmap keeps (no ``threads``, nothing in
``extra`` but ``graphs``), so rejecting unknown keys or dropping the thread
knob cannot break a workload.  The workload seed becomes the config seed.  All
graphs are vertex-transitive, so the seed moves only the Monte Carlo streams
of ``mc_crossing``; the exact values of the other workloads do not depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    runner: str   # public ``binsplit.harness`` function the pass calls
    csv: str      # file the runner writes under ``config.out``
    check: str    # comparison rule in ``checks.py``
    config: dict  # experiment config without ``seed`` and ``out``
    # multiples of t_rel at which the pass also checks the Wilson statistic
    wilson_trel: tuple = ()


WORKLOADS = {
    "exact_cutoff": Workload(
        runner="run_cutoff_bin", csv="cutoff.csv", check="profile",
        config={
            "graph": {"kind": "cycle", "size": 5},
            "weights": {"kind": "uniform"},
            "k": [8, 11, 14],
            "times": {"mode": "trel", "start": 0.05, "stop": 8.0, "num": 40},
            "tol": 1.0e-9,
        }),
    "bound_cutoff": Workload(
        runner="run_cutoff_bin", csv="cutoff.csv", check="profile",
        config={
            "graph": {"kind": "torus", "dims": [6, 6]},
            "weights": {"kind": "uniform"},
            "k": [16],
            "times": {"mode": "trel", "start": 0.05, "stop": 8.0, "num": 20},
            "tol": 1.0e-9,
        },
        wilson_trel=(0.05, 8.0)),
    "mc_crossing": Workload(
        runner="run_complete_cdsz", csv="cdsz.csv", check="montecarlo",
        config={
            "graph": {"kind": "complete", "size": 128},
            "weights": {"kind": "uniform"},
            "times": {"mode": "tstar",
                      "multiples": [0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
                                    1.1, 1.2, 1.3, 1.4, 1.5, 1.6]},
            "replicas": 1500,
        }),
    "gap_sweep": Workload(
        runner="run_gap_sweep", csv="gap_sweep.csv", check="gap",
        config={
            "weights": {"kind": "uniform"},
            "k": [3, 5],
            "tol": 1.0e-9,
            "extra": {"graphs": [
                {"kind": "cycle", "size": 12, "label": "cycle12"},
                {"kind": "torus", "dims": [3, 3], "label": "torus3x3"},
            ]},
        }),
}


def experiment_config(name: str, seed: int, out_dir: str) -> dict:
    """The full config dict one pass of workload ``name`` runs."""
    return {**WORKLOADS[name].config, "seed": int(seed), "out": out_dir}
