"""Spans around the calls into binsplit's layers, recorded from outside.

``Tracer.install`` replaces each public layer function listed in ``LAYERS`` at
every binding a binsplit module holds it under (``harness`` calls
``spectral.x``, while ``distances`` and ``duality`` hold ``from .spectral
import x`` copies), so no call path escapes.  A wrapped name that no longer
exists is reported as an absent layer.  Spans stay in memory and are written
out after the run; ``layer_metrics`` turns them into the per-layer numbers.
Counts of bytes and events derived from array sizes are computed, not measured.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import pkgutil
import sys
import time

import numpy as np

# (module, public function, span name).  Several functions may share a name.
LAYERS = (
    ("graphs", "build_graph", "graphs.build"),
    ("spectral", "enumerate_configs", "spectral.enumerate"),
    ("spectral", "generator_splitting", "spectral.assemble"),
    ("spectral", "generator_splitting_labeled", "spectral.labeled"),
    ("spectral", "spectral_gap", "spectral.eig"),
    ("spectral", "transient_distribution", "spectral.transient"),
    ("spectral", "evolve_observable", "spectral.observable"),
    ("distances", "tv_profile_exact", "distances.tv_profile"),
    ("distances", "worst_l2_sq", "distances.worst_l2"),
    ("distances", "wilson_report", "distances.wilson"),
    ("distances", "single_particle_spectrum", "distances.spectrum"),
    ("simulate", "simulate_averaging", "simulate.avg"),
    ("averaging", "transport_norm", "averaging.norm"),
    ("harness", "write_table", "harness.write"),
    ("harness", "write_profile_csv", "harness.write"),
    ("harness", "write_svg_line", "harness.write"),
)
ROOT = "harness.run"

# Per-layer metrics printed by a traced run, with their units.
PER_LAYER = {
    "graphs.build_s": "s", "graphs.edges": "count",
    "spectral.enumerate_s": "s", "spectral.states": "count",
    "spectral.assemble_s": "s", "spectral.assemble_calls": "count",
    "spectral.assemble_distinct": "count", "spectral.assemble_reuse": "ratio",
    "spectral.nnz": "count", "spectral.assemble_ns_per_nnz": "ns",
    "spectral.labeled_s": "s", "spectral.labeled_calls": "count",
    "spectral.labeled_distinct": "count", "spectral.labeled_reuse": "ratio",
    "spectral.eig_s": "s", "spectral.eig_calls": "count",
    "spectral.eig_sparse_calls": "count", "spectral.eig_max_dim": "count",
    "spectral.transient_s": "s", "spectral.transient_calls": "count",
    "spectral.matvecs": "count", "spectral.matvec_bytes": "B",
    "spectral.matvec_gbps": "GB/s",
    "spectral.observable_s": "s", "spectral.observable_calls": "count",
    "distances.tv_profile_self_s": "s", "distances.worst_l2_self_s": "s",
    "distances.wilson_s": "s", "distances.wilson_calls": "count",
    "distances.spectrum_calls": "count", "distances.spectrum_reuse": "ratio",
    "simulate.avg_s": "s", "simulate.replicas": "count",
    "simulate.replica_p50_ms": "ms", "simulate.replica_p98_ms": "ms",
    "simulate.events": "count", "simulate.events_per_s": "1/s",
    "averaging.norm_s": "s", "averaging.norm_calls": "count",
    "harness.self_s": "s", "harness.write_s": "s", "harness.bytes_written": "B",
    "matrix.max_states": "count", "matrix.max_nnz": "count",
    "matrix.max_bytes": "B", "matrix.llc_share": "ratio",
    "process.cpu_s": "s", "process.cpu_util": "ratio", "trace.overhead_s": "s",
}


def _csr_bytes(Q) -> int:
    """Computed storage of a CSR matrix: values, column indices, row pointers."""
    return int(Q.data.nbytes + Q.indices.nbytes + Q.indptr.nbytes)


def _input_key(graph, weights, *rest):
    """Structural identity of a layer input, for counting distinct calls."""
    return hash((graph.n, graph.edges, weights.pi.tobytes()) + rest)


def _describe_matrix(a, Q):
    return {"key": _input_key(a["graph"], a["weights"], a["k"]),
            "states": Q.shape[0], "nnz": Q.nnz, "bytes": _csr_bytes(Q)}


def _describe_uniformized(a, _result):
    Q = a["Q"]
    return {"states": Q.shape[0], "nnz": Q.nnz, "index_bytes": Q.indices.itemsize,
            "rate": float(-Q.diagonal().min()), "t": float(a["t"]),
            "tol": float(a.get("tol", 1e-9))}


# Attributes recorded per span, from the bound arguments and the result.
DESCRIBE = {
    "graphs.build": lambda a, g: {"edges": g.n_edges},
    "spectral.enumerate": lambda a, s: {"states": s.size},
    "spectral.assemble": _describe_matrix,
    "spectral.labeled": _describe_matrix,
    "spectral.eig": lambda a, s: {"dim": int(np.asarray(a["mu"]).size),
                                  "sparse": not getattr(s, "full", True)},
    "spectral.transient": _describe_uniformized,
    "distances.spectrum": lambda a, s: {"key": _input_key(a["graph"], a["weights"])},
    "simulate.avg": lambda a, s: {
        "events": a["graph"].total_conductance * a["opts"].t_end},
}


class Tracer:
    """In-memory span recorder.  A span is [name, parent, start, end, attrs]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.absent = []

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``; return (result, span)."""
        span = [name, self._stack[-1] if self._stack else None, 0.0, 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = time.perf_counter()
        try:
            return fn(*args, **kwargs), span
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name):
        describe = DESCRIBE.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result, span = self.span(name, fn, *args, **kwargs)
            if describe is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span[4] = describe(bound.arguments, result)
                except (TypeError, KeyError, AttributeError, ValueError):
                    span[4] = None  # signature changed: computed counts go missing
            return result

        return wrapper

    def install(self, package):
        """Wrap every LAYERS function at every binding in ``package``'s modules."""
        for info in pkgutil.iter_modules(package.__path__):
            importlib.import_module(f"{package.__name__}.{info.name}")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package.__name__
                                         or key.startswith(package.__name__ + "."))]
        for mod_name, fn_name, span_name in LAYERS:
            original = getattr(sys.modules.get(f"{package.__name__}.{mod_name}"),
                               fn_name, None)
            if not callable(original):
                self.absent.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self.wrap(original, span_name)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)


def poisson_terms(rate_t: float, tol: float) -> int:
    """Matvecs of one uniformized evolution: the Poisson truncation point
    whose tail mass drops below ``tol`` (the rule the spectral module uses)."""
    from scipy.stats import poisson
    if rate_t <= 0.0:
        return 0
    m = max(int(poisson.isf(tol, rate_t)), 1)
    while poisson.sf(m, rate_t) >= tol:
        m += max(5, m // 10)
    return m


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(spans, out_bytes: int, llc_bytes: int | None) -> dict:
    """Per-layer metrics of one traced pass (everything but process/trace)."""
    children = [[] for _ in spans]
    for span in spans:
        if span[1] is not None:
            children[span[1]].append(span)
    by_name = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def total_s(name):
        # time inside the layer, counting a span nested in the same layer once
        return sum(spans[i][3] - spans[i][2] for i in by_name.get(name, ())
                   if spans[i][1] is None or spans[spans[i][1]][0] != name)

    def self_s(name):
        return sum(spans[i][3] - spans[i][2]
                   - _covered([(c[2], c[3]) for c in children[i]])
                   for i in by_name.get(name, ()))

    def attrs(name):
        return [spans[i][4] for i in by_name.get(name, ()) if spans[i][4]]

    def attr_sum(name, key):
        return sum(a[key] for a in attrs(name))

    def distinct(name):
        return len({a["key"] for a in attrs(name)})

    def ratio(num, den):
        return num / den if den else 0.0

    matvecs = matvec_bytes = 0
    for a in attrs("spectral.transient"):
        m = poisson_terms(a["rate"] * a["t"], a["tol"])
        n, nnz, idx = a["states"], a["nnz"], a["index_bytes"]
        matvecs += m
        # per matvec: CSR values, indices and row pointers, read x, write y
        matvec_bytes += m * (nnz * (8 + idx) + (n + 1) * idx + 16 * n)
    replica_ms = [1e3 * (spans[i][3] - spans[i][2]) for i in by_name.get("simulate.avg", ())]
    matrices = attrs("spectral.assemble") + attrs("spectral.labeled")
    largest = max(matrices, key=lambda a: a["bytes"], default=None)

    m = {
        "graphs.build_s": total_s("graphs.build"),
        "graphs.edges": attr_sum("graphs.build", "edges"),
        "spectral.enumerate_s": total_s("spectral.enumerate"),
        "spectral.states": attr_sum("spectral.enumerate", "states"),
        "spectral.assemble_s": total_s("spectral.assemble"),
        "spectral.assemble_calls": calls("spectral.assemble"),
        "spectral.assemble_distinct": distinct("spectral.assemble"),
        "spectral.assemble_reuse": ratio(distinct("spectral.assemble"),
                                         calls("spectral.assemble")),
        "spectral.nnz": attr_sum("spectral.assemble", "nnz"),
        "spectral.assemble_ns_per_nnz": ratio(1e9 * total_s("spectral.assemble"),
                                              attr_sum("spectral.assemble", "nnz")),
        "spectral.labeled_s": total_s("spectral.labeled"),
        "spectral.labeled_calls": calls("spectral.labeled"),
        "spectral.labeled_distinct": distinct("spectral.labeled"),
        "spectral.labeled_reuse": ratio(distinct("spectral.labeled"),
                                        calls("spectral.labeled")),
        "spectral.eig_s": total_s("spectral.eig"),
        "spectral.eig_calls": calls("spectral.eig"),
        "spectral.eig_sparse_calls": sum(bool(a["sparse"]) for a in attrs("spectral.eig")),
        "spectral.eig_max_dim": max((a["dim"] for a in attrs("spectral.eig")), default=0),
        "spectral.transient_s": total_s("spectral.transient"),
        "spectral.transient_calls": calls("spectral.transient"),
        "spectral.matvecs": matvecs,
        "spectral.matvec_bytes": matvec_bytes,
        "spectral.matvec_gbps": ratio(matvec_bytes / 1e9, total_s("spectral.transient")),
        "spectral.observable_s": total_s("spectral.observable"),
        "spectral.observable_calls": calls("spectral.observable"),
        "distances.tv_profile_self_s": self_s("distances.tv_profile"),
        "distances.worst_l2_self_s": self_s("distances.worst_l2"),
        "distances.wilson_s": total_s("distances.wilson"),
        "distances.wilson_calls": calls("distances.wilson"),
        "distances.spectrum_calls": calls("distances.spectrum"),
        "distances.spectrum_reuse": ratio(distinct("distances.spectrum"),
                                          calls("distances.spectrum")),
        "simulate.avg_s": total_s("simulate.avg"),
        "simulate.replicas": calls("simulate.avg"),
        # p98 leaves at least 10 replicas beyond it for any R >= 500
        "simulate.replica_p50_ms": float(np.percentile(replica_ms, 50)) if replica_ms else 0.0,
        "simulate.replica_p98_ms": float(np.percentile(replica_ms, 98)) if replica_ms else 0.0,
        "simulate.events": attr_sum("simulate.avg", "events"),
        "simulate.events_per_s": ratio(attr_sum("simulate.avg", "events"),
                                       total_s("simulate.avg")),
        "averaging.norm_s": total_s("averaging.norm"),
        "averaging.norm_calls": calls("averaging.norm"),
        "harness.self_s": self_s(ROOT),
        "harness.write_s": total_s("harness.write"),
        "harness.bytes_written": out_bytes,
        "matrix.max_states": largest["states"] if largest else 0,
        "matrix.max_nnz": largest["nnz"] if largest else 0,
        "matrix.max_bytes": largest["bytes"] if largest else 0,
        "matrix.llc_share": ratio(largest["bytes"], llc_bytes) if largest and llc_bytes else 0.0,
    }
    return {k: float(v) for k, v in m.items()}
