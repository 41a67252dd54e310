"""One benchmark pass in a fresh interpreter, as a CLI user runs it.

    python3 one_pass.py SRC_DIR PASS_DIR SPAWN_TIME TRACE

Imports binsplit from SRC_DIR, parses PASS_DIR/config.yaml, runs the
workload's harness runner with ``out`` = PASS_DIR/out, and writes
PASS_DIR/pass.json.  ``setup_s`` runs from SPAWN_TIME (the parent's
``time.monotonic()`` just before it started this process) until binsplit is
imported and the config parsed.  With TRACE = 1 the layer functions are
wrapped first and the spans' per-layer metrics go into pass.json as well.

After the timed run, a workload with ``wilson_trel`` also evaluates
``distances.wilson_report`` directly and puts invariants of it into pass.json
for ``checks.check_wilson``: the runner's own Wilson output is a lower bound
clamped at 0 on the benchmark graph, so no CSV value depends on it.  With
``pin_eigsh`` in meta.json, binsplit's ``eigsh`` gets a fixed start vector so
that the pass is bit-reproducible (``selftest.py`` compares traced and
untraced CSVs byte for byte).
"""

import functools
import json
import os
import resource
import sys
import time

PINNED_EIGSH_RNG = 0


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def wilson_invariants(harness, distances, config, trel_multiples):
    """[multiple, sum_v pi(v) a_t(v), sum_v pi(v) mean_out(v)^2] at each
    t = multiple * t_rel, over every Dirac start v and the config's first k.

    The gap eigenspace of a torus is degenerate, so a single a_t(v) depends
    on which eigenfunction the eigensolver returns; these pi-weighted sums
    depend only on its L^2(pi) norm, the gap and k.
    """
    import numpy as np
    graph = harness.resolve_graph(config.graph)
    weights = harness.resolve_weights(config.weights, graph.n)
    t_rel = distances.single_particle_spectrum(graph, weights).t_rel
    rows = []
    for multiple in trel_multiples:
        a_sum = mean_sq = 0.0
        for v in range(graph.n):
            eta = np.zeros(graph.n)
            eta[v] = 1.0
            rep = distances.wilson_report(graph, weights, config.k[0], eta,
                                          multiple * t_rel)
            a_sum += weights.pi[v] * rep.a_t
            mean_sq += weights.pi[v] * rep.mean_out ** 2
        rows.append([multiple, a_sum, mean_sq])
    return rows


def main() -> None:
    src_dir, pass_dir, spawn_time = sys.argv[1], sys.argv[2], float(sys.argv[3])
    trace = sys.argv[4] == "1"
    sys.path.insert(0, src_dir)
    import binsplit
    from binsplit import distances, harness, spectral

    with open(os.path.join(pass_dir, "meta.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    if meta.get("pin_eigsh") and hasattr(spectral, "eigsh"):
        spectral.eigsh = functools.partial(spectral.eigsh, rng=PINNED_EIGSH_RNG)
    config = harness.load_config(os.path.join(pass_dir, "config.yaml"))
    setup_s = time.monotonic() - spawn_time
    runner = getattr(harness, meta["runner"])

    result = {"setup_s": setup_s}
    if trace:
        from tracing import ROOT, Tracer, layer_metrics
        tracer = Tracer()
        tracer.install(binsplit)
    cpu0, t0 = time.process_time(), time.monotonic()
    if trace:
        tracer.span(ROOT, runner, config)
    else:
        runner(config)
    result["wall_s"] = time.monotonic() - t0
    result["cpu_s"] = time.process_time() - cpu0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        import numpy
        import scipy
        with open(os.path.join(pass_dir, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "parent", "start", "end", "attrs"],
                       "spans": tracer.spans}, fh)
        result["layers"] = layer_metrics(tracer.spans, _dir_bytes(config.out),
                                         meta.get("llc_bytes"))
        result["absent"] = tracer.absent
        result["versions"] = {"python": sys.version.split()[0],
                              "numpy": numpy.__version__, "scipy": scipy.__version__,
                              "binsplit": getattr(binsplit, "__version__", "?")}
    if meta.get("wilson_trel"):
        result["wilson"] = wilson_invariants(harness, distances, config,
                                             meta["wilson_trel"])
    with open(os.path.join(pass_dir, "pass.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
