"""Config-driven experiment runner: config loading, time grids, CSV/SVG
output, and the five runners (gap sweeps, cutoff profiles, averaging mixing
profiles, the complete-graph crossing experiment, heat-kernel dimension
fits).  The verification battery lives in :mod:`binsplit.verify`.

Each runner imports the engine modules it calls in its own body, so a
Monte Carlo run (the crossing experiment on a ``tstar`` grid) loads neither
scipy nor the exact engine.

CSV contract: profile files carry the header
``experiment,k,t,t_normalized,value,stderr,kind`` after a single
``# generated ...`` timestamp comment; floats are written with ``repr`` so
re-runs with the same config and seed are byte-identical apart from the
timestamp line.  A cell holding a comma is quoted.  Every file the harness
writes can be read back with :func:`read_profile_csv` / :func:`read_table`.
"""

from __future__ import annotations

import csv
import datetime as _dt
import math
import os
from dataclasses import dataclass, field

import numpy as np
import yaml

from . import averaging, simulate
from .graphs import (SiteWeights, WeightedGraph, build_graph, load_edge_list,
                     load_site_weights, site_weights, uniform_weights, vertex_orbits)

__all__ = [
    "ProfileRecord",
    "ExperimentConfig",
    "load_config",
    "resolve_graph",
    "resolve_weights",
    "resolve_time_grid",
    "mixing_time",
    "window_times",
    "precutoff_exponents",
    "precutoff_times",
    "complete_graph_crossing_time",
    "level_crossing_time",
    "run_gap_sweep",
    "run_cutoff_bin",
    "run_avg_profile",
    "run_complete_cdsz",
    "run_nash",
    "write_profile_csv",
    "read_profile_csv",
    "write_table",
    "read_table",
    "write_svg_line",
]

# exact cutoff profiles start from the lowest vertex of every vertex orbit, or
# from this many of them drawn from stream 3 of the config seed if there are more
WORST_START_ENUM_MAX_N = 16
# required fields of each graph kind; conductance and label are optional
_GRAPH_FIELDS = {"path": ("size",), "cycle": ("size",), "complete": ("size",),
                 "torus": ("dims",), "sierpinski": ("level",),
                 "percolation_box": ("dims", "p_open", "seed"), "custom": ("path",)}
_GRAPH_NUMBERS = {"size": int, "level": int, "seed": int, "p_open": float}
SVG_WIDTH, SVG_HEIGHT = 640, 400  # pixels of every chart
_K_RULE = (lambda ks: all(k >= 1 for k in ks), "≥ 1")  # a _check_keys rule for 'k'
_SEED_RULE = (lambda seed: 0 <= seed < 1 << 64, "in [0, 2**64)")  # and for 'seed'


@dataclass(frozen=True)
class ProfileRecord:
    """One observation row of a profile experiment."""

    experiment: str
    k: int
    t: float
    t_normalized: float
    value: float
    stderr: float
    kind: str


@dataclass
class ExperimentConfig:
    """Declarative description of one experiment run."""

    graph: dict = field(default_factory=lambda: {"kind": "cycle", "size": 5})
    weights: dict = field(default_factory=lambda: {"kind": "uniform"})
    k: list = field(default_factory=lambda: [1])
    times: dict = field(default_factory=lambda: {"mode": "trel", "multiples": [0.5, 1, 2, 3, 4]})
    replicas: int = 200
    seed: int = 0
    tol: float = 1e-9
    out: str | None = None
    p_norm: float = 2.0
    window_C: list = field(default_factory=lambda: [1.0])
    eta0: object = None
    extra: dict = field(default_factory=dict)


_NUMBER_KEYS = {"replicas": int, "seed": int, "tol": float, "p_norm": float}
_NUMBER_LIST_KEYS = {"k": int, "window_C": float}


def _number(key: str, value, kind):
    """``value`` as ``kind``: a float key takes any non-bool number or numeric
    string (YAML reads ``1e-09`` as a string), an int key a Python or numpy int only.
    Anything else raises a ValueError naming ``key``."""
    if not isinstance(value, bool):
        if kind is int and isinstance(value, (int, np.integer)):
            return int(value)
        if kind is float:
            try:
                return float(value)
            except (TypeError, ValueError):
                pass
    what = "an integer" if kind is int else "a number"
    raise ValueError(f"config key {key!r} must be {what}, got {value!r}")


def _numbers(key: str, value, kind):
    """The list ``value`` with each entry coerced by :func:`_number`."""
    if not isinstance(value, list):
        raise ValueError(f"config key {key!r} must be a list, got {value!r}")
    return [_number(key, v, kind) for v in value]


def load_config(path) -> ExperimentConfig:
    """Read a YAML experiment config.

    Unknown top-level keys raise a ValueError naming them; free-form entries
    go under ``extra``.  Numeric fields are coerced (``tol: 1e-09`` is a
    float) and a value that is not a number raises, naming its key.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh) or {}
    known = set(ExperimentConfig.__dataclass_fields__)
    unknown = sorted(str(key) for key in raw if key not in known)
    if unknown:
        raise ValueError(f"unknown config key(s) {', '.join(unknown)} in {path}; "
                         f"put free-form entries under 'extra'")
    kwargs = dict(raw)
    kwargs["extra"] = dict(_mapping("extra", raw.get("extra") or {}))
    for key, kind in _NUMBER_KEYS.items():
        if key in kwargs:
            kwargs[key] = _number(key, kwargs[key], kind)
    for key, kind in _NUMBER_LIST_KEYS.items():
        if key in kwargs:
            kwargs[key] = _numbers(key, kwargs[key], kind)
    return ExperimentConfig(**kwargs)


def _check_keys(config: ExperimentConfig, **rules) -> None:
    """Raise a ValueError naming the first config key whose value fails its
    rule; ``rules`` maps a key to (test, what the value must be)."""
    for key, (ok, want) in rules.items():
        value = getattr(config, key)
        if not ok(value):
            raise ValueError(f"config key {key!r} must be {want}, got {value}")


def _mapping(key: str, value):
    """``value`` if it is a mapping, else a ValueError naming ``key``."""
    if not isinstance(value, dict):
        raise ValueError(f"config key {key!r} must be a mapping, got {value!r}")
    return value


def _graphs(config: ExperimentConfig):
    """(label, graph, weights) per graph of ``extra.graphs``, else of ``graph``."""
    specs = _mapping("extra", config.extra).get("graphs")
    for i, spec in enumerate(specs or [config.graph]):
        graph = resolve_graph(_mapping(f"extra.graphs[{i}]", spec) if specs else spec)
        yield spec.get("label") or spec["kind"], graph, resolve_weights(config.weights, graph.n)


def resolve_graph(spec: dict) -> WeightedGraph:
    """The graph of a ``graph`` spec; a bad field raises a ValueError naming it."""
    spec = dict(_mapping("graph", spec))
    spec.pop("label", None)
    kind = spec.pop("kind", None)
    if kind not in _GRAPH_FIELDS:
        raise ValueError(f"config key 'graph' has kind {kind!r}, not one of {list(_GRAPH_FIELDS)}")
    fields = _GRAPH_FIELDS[kind]
    bad = ([f"needs field {f!r}" for f in fields if f not in spec]
           + [f"has unknown field {f!r}" for f in sorted(set(spec) - set(fields) - {"conductance"})])
    if bad:
        raise ValueError(f"config key 'graph' of kind {kind!r} {' and '.join(bad)}")
    if "dims" in spec:
        spec["dims"] = _numbers("graph.dims", spec["dims"], int)
    for name in [f for f in _GRAPH_NUMBERS if f in spec]:
        spec[name] = _number(f"graph.{name}", spec[name], _GRAPH_NUMBERS[name])
    if "seed" in spec and not _SEED_RULE[0](spec["seed"]):
        raise ValueError(f"config key 'graph.seed' must be {_SEED_RULE[1]}, got {spec['seed']}")
    try:
        if kind == "custom":
            spec["edge_list"] = load_edge_list(spec.pop("path"))
        return build_graph(kind, **spec)
    except ValueError as err:
        raise ValueError(f"config key 'graph': {err}") from err


def resolve_weights(spec: dict, n: int) -> SiteWeights:
    kind = _mapping("weights", spec).get("kind", "uniform")
    if kind == "uniform":
        return uniform_weights(n)
    if kind not in ("file", "values"):
        raise ValueError(f"config key 'weights.kind' is unknown: {kind!r}")
    path = spec.get("path")
    if kind == "file" and not isinstance(path, str):
        raise ValueError(f"config key 'weights.path' must be a file path, got {path!r}")
    values = _numbers("weights.values", spec.get("values"), float) if kind == "values" else None
    try:
        weights = load_site_weights(path) if kind == "file" else site_weights(values)
    except ValueError as err:
        raise ValueError(f"config key 'weights': {err}") from err
    if weights.n != n:
        raise ValueError(f"config key 'weights' has {weights.n} values for a graph "
                         f"of {n} vertices")
    return weights


def mixing_time(t_rel: float, k: int) -> float:
    """(t_rel / 2) log k, the reference time of the abrupt transition."""
    return 0.5 * t_rel * math.log(k)


def window_times(t_rel: float, k: int, C: float):
    """(t_minus, t_plus) around the mixing time, window C t_rel wide."""
    tm = mixing_time(t_rel, k)
    return tm - C * t_rel, tm + C * t_rel


def precutoff_exponents(n: int, k: int):
    """High-density slope corrections a = 2 log(k/n)/log k, b = 2 log n/log k."""
    if k <= 1:
        raise ValueError("need k > 1")
    a = 2.0 * math.log(k / n) / math.log(k)
    b = 2.0 * math.log(n) / math.log(k)
    return a, b


def precutoff_times(n: int, k: int, t_rel: float, C: float):
    """(T_plus, T_minus) bracketing times in the k >> n^2 regime."""
    a, b = precutoff_exponents(n, k)
    T_plus = a * 0.5 * t_rel * math.log(k) + C * t_rel
    T_minus = b * 0.5 * t_rel * math.log(k) - C * t_rel
    return T_plus, T_minus


def complete_graph_crossing_time(n: int) -> float:
    """log(n) / (n log 2): reference crossing time on the complete graph."""
    return math.log(n) / (n * math.log(2.0))


def resolve_time_grid(spec: dict, t_rel: float, k: int | None = None, key: str = "times"):
    """Concrete strictly increasing times from a declarative grid spec.

    Modes: ``absolute`` (values as given); ``trel`` (multiples of t_rel,
    either an explicit list or start/stop/num with linear or log spacing);
    ``tmix_window`` (the mixing time for k plus/minus C t_rel for each C).
    A bad field, or an empty or negative grid, raises a ValueError naming ``key``.
    """
    mode = _mapping(key, spec).get("mode", "absolute")

    def need(name, many=False):
        if name not in spec:
            raise ValueError(f"config key '{key}.{name}' is required in mode {mode!r}")
        return (_numbers if many else _number)(f"{key}.{name}", spec[name], float)

    if mode == "absolute":
        times = need("values", many=True)
    elif mode == "trel":
        if "multiples" in spec:
            mult = need("multiples", many=True)
        else:
            num = _number(f"{key}.num", spec.get("num", 20), int)
            if num < 1:
                raise ValueError(f"config key '{key}.num' must be ≥ 1, got {num}")
            start, stop = need("start"), need("stop")
            spacing = spec.get("spacing", "linear")
            if spacing not in ("linear", "log"):
                raise ValueError(f"config key '{key}.spacing' must be 'linear' or 'log', "
                                 f"got {spacing!r}")
            if spacing == "log":
                for name, value in (("start", start), ("stop", stop)):
                    if value <= 0:
                        raise ValueError(f"config key '{key}.{name}' must be > 0 for a "
                                         f"log grid, got {value}")
                mult = list(np.geomspace(start, stop, num))
            else:
                mult = list(np.linspace(start, stop, num))
        times = [m * t_rel for m in mult]
    elif mode == "tmix_window":
        if k is None:
            raise ValueError("tmix_window grid needs k")
        tm = mixing_time(t_rel, k)
        widths = _numbers(f"{key}.C", spec.get("C", [1.0]), float)
        times = sorted({tm} | {tm + s * C * t_rel for C in widths for s in (-1, 1)})
        times = [t for t in times if t > 0]
    else:
        raise ValueError(f"config key '{key}.mode' is unknown: {mode!r}")
    if not times or times[0] < 0 or any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError(f"config key {key!r} must give a nonempty, strictly increasing "
                         f"grid of nonnegative times, got {times}")
    return times


# ---------------------------------------------------------------------------
# CSV / SVG emission

PROFILE_COLUMNS = ("experiment", "k", "t", "t_normalized", "value", "stderr", "kind")


def write_table(path, columns, rows) -> None:
    """Comma-separated table with a timestamp comment and a header row; a
    cell holding a comma, a quote or a line break is quoted, every other cell
    written as is."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# generated {_dt.datetime.now().isoformat()}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_fmt(row[c]) for c in columns] for row in rows)


def _fmt(v) -> str:
    return repr(float(v)) if isinstance(v, float) else str(v)


def read_table(path):
    """Read a harness CSV back: (columns, list of dicts with parsed values)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = list(csv.reader(ln for ln in fh if not ln.startswith("#")))
    columns = lines[0]
    rows = []
    for vals in lines[1:]:
        if not vals:
            continue
        row = {}
        for c, v in zip(columns, vals):
            try:
                row[c] = int(v)
            except ValueError:
                try:
                    row[c] = float(v)
                except ValueError:
                    row[c] = v
        rows.append(row)
    return columns, rows


def write_profile_csv(path, records) -> None:
    write_table(path, PROFILE_COLUMNS, [vars(r) for r in records])


def read_profile_csv(path):
    return [ProfileRecord(**row) for row in read_table(path)[1]]


def write_svg_line(path, xs, ys, title: str = "") -> None:
    """Minimal single-series SVG line chart (cosmetic; the CSV is the contract)."""
    width, height = SVG_WIDTH, SVG_HEIGHT
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    pad = 40
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    xr = (x1 - x0) or 1.0
    yr = (y1 - y0) or 1.0

    def sx(x):
        return pad + (x - x0) / xr * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y0) / yr * (height - 2 * pad)

    pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">\n')
        fh.write(f'<text x="{width // 2}" y="16" text-anchor="middle" font-size="13">{title}</text>\n')
        fh.write(f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" height="{height - 2 * pad}" '
                 f'fill="none" stroke="#999"/>\n')
        for frac in (0.0, 0.5, 1.0):
            fh.write(f'<text x="{sx(x0 + frac * xr):.1f}" y="{height - pad + 14}" '
                     f'text-anchor="middle" font-size="10">{x0 + frac * xr:.3g}</text>\n')
            fh.write(f'<text x="{pad - 4}" y="{sy(y0 + frac * yr):.1f}" '
                     f'text-anchor="end" font-size="10">{y0 + frac * yr:.3g}</text>\n')
        fh.write(f'<polyline fill="none" stroke="#1f77b4" stroke-width="1.5" points="{pts}"/>\n')
        fh.write("</svg>\n")


def level_crossing_time(ts, vals, level: float) -> float:
    """First time a decreasing profile crosses a level (linear interpolation)."""
    ts = list(ts)
    vals = list(vals)
    for i, v in enumerate(vals):
        if v <= level:
            if i == 0:
                return ts[0]
            t0, t1 = ts[i - 1], ts[i]
            v0, v1 = vals[i - 1], vals[i]
            if v0 == v1:
                return t1
            return t0 + (t1 - t0) * (v0 - level) / (v0 - v1)
    return math.nan


# ---------------------------------------------------------------------------
# Experiments


def run_gap_sweep(config: ExperimentConfig):
    """Spectral gaps of the k-particle systems across the graph suite,
    flagging any relative deviation from the single-particle gap above 1e-8."""
    from . import spectral
    _check_keys(config, k=_K_RULE)
    rows = []
    for label, graph, weights in _graphs(config):
        gap1 = None
        for k in config.k:
            try:
                space = spectral.enumerate_configs(graph.n, k)
            except spectral.StateSpaceCapError as err:
                rows.append({"graph": label, "k": k, "gap": math.nan,
                             "rel_dev": math.nan, "status": f"skipped: {err}"})
                continue
            Q = spectral.generator_splitting(graph, weights, k, space)
            mu = spectral.multinomial_measure(weights, k, space)
            spec_k = spectral.spectral_gap(Q, mu)
            if gap1 is None:
                gap1 = spectral.spectral_gap(spectral.generator_single_particle(graph, weights),
                                             weights.pi).gap
            rel = abs(spec_k.gap / gap1 - 1.0)
            rows.append({"graph": label, "k": k, "gap": spec_k.gap,
                         "rel_dev": rel,
                         "status": "ok" if rel <= 1e-8 else "FLAG"})
    if config.out:
        write_table(os.path.join(config.out, "gap_sweep.csv"),
                    ("graph", "k", "gap", "rel_dev", "status"), rows)
    return rows


def _worst_dirac_starts(graph: WeightedGraph, weights: SiteWeights, seed: int):
    """The lowest vertex of each vertex orbit, ascending; a sorted sample of
    WORST_START_ENUM_MAX_N of them when there are more orbits."""
    reps = np.sort(np.unique(vertex_orbits(graph, weights), return_index=True)[1])
    if reps.size <= WORST_START_ENUM_MAX_N:
        return reps.tolist()
    rng = simulate.make_rng(seed, stream=3)
    return reps[np.sort(rng.choice(reps.size, size=WORST_START_ENUM_MAX_N,
                                   replace=False))].tolist()


def run_cutoff_bin(config: ExperimentConfig):
    """Worst-start TV profiles of the particle system for each k.

    Exact profiles when the occupation space fits: the worst over piles of
    all k particles on one vertex, one per vertex orbit, since an automorphism
    maps one pile's law onto its image's and fixes the equilibrium (see
    ``WORST_START_ENUM_MAX_N``).  Otherwise the upper/lower bracket from the
    averaged L^2 error and Wilson's statistic, with the two-particle kernel
    built once per k and the Wilson bound maximized over all Diracs.  Rows
    tagged ``tmix``, ``t_plus``, ``t_minus`` annotate the reference times.
    """
    from . import distances, spectral
    _check_keys(config, window_C=(lambda cs: all(C >= 0 for C in cs), "nonnegative"),
                k=_K_RULE, tol=(lambda tol: 0.0 < tol <= 1e-6, "in (0, 1e-6]"), seed=_SEED_RULE)
    graph = resolve_graph(config.graph)
    weights = resolve_weights(config.weights, graph.n)
    spec1 = distances.single_particle_spectrum(graph, weights)
    t_rel = spec1.t_rel
    starts = _worst_dirac_starts(graph, weights, config.seed)
    records = []
    for k in config.k:
        times = resolve_time_grid(config.times, t_rel, k)
        size = math.comb(graph.n + k - 1, k)
        if size <= spectral.DEFAULT_TRANSIENT_CAP:
            space = spectral.enumerate_configs(graph.n, k)
            piles = np.zeros((len(starts), graph.n), dtype=np.int64)
            piles[np.arange(len(starts)), starts] = k
            prof = distances.tv_profile_exact(graph, weights, k, piles, times,
                                              config.tol, space)
            for t, (_, d) in zip(times, prof):
                records.append(ProfileRecord("cutoff", k, t, t / t_rel, float(d.max()),
                                             0.0, "exact_tv"))
        else:
            w2s = distances.worst_l2_sq(graph, weights, times, config.tol)
            lowers = distances.wilson_dirac_lower_bounds(weights, k, times, spec1)
            for t, w2, lb in zip(times, w2s, lowers.max(axis=1).tolist()):
                records.append(ProfileRecord("cutoff", k, t, t / t_rel,
                                             distances.tv_bound_from_l2(k, w2),
                                             0.0, "upper"))
                records.append(ProfileRecord("cutoff", k, t, t / t_rel, lb,
                                             0.0, "lower"))
        tm = mixing_time(t_rel, k) if k > 1 else 0.0
        records.append(ProfileRecord("cutoff", k, tm, tm / t_rel, tm, 0.0, "tmix"))
        for C in config.window_C:
            lo, hi = window_times(t_rel, k, float(C)) if k > 1 else (0.0, 0.0)
            records.append(ProfileRecord("cutoff", k, hi, hi / t_rel, float(C), 0.0, "t_plus"))
            records.append(ProfileRecord("cutoff", k, lo, lo / t_rel, float(C), 0.0, "t_minus"))
        if k > 1 and k > graph.n ** 2:
            a, b = precutoff_exponents(graph.n, k)
            for C in config.window_C:
                Tp, Tm = precutoff_times(graph.n, k, t_rel, float(C))
                records.append(ProfileRecord("cutoff", k, Tp, Tp / t_rel, a, 0.0, "precutoff_t_plus"))
                records.append(ProfileRecord("cutoff", k, Tm, Tm / t_rel, b, 0.0, "precutoff_t_minus"))
    if config.out:
        write_profile_csv(os.path.join(config.out, "cutoff.csv"), records)
        _maybe_svg(config.out, "cutoff", records, "exact_tv")
    return records


def _resolve_eta0(config: ExperimentConfig, graph: WeightedGraph) -> np.ndarray:
    eta0 = config.eta0
    if eta0 is None:
        eta0 = {"dirac": 0}
    n = graph.n
    if isinstance(eta0, dict):
        if set(eta0) != {"dirac"}:
            raise ValueError(f"config key 'eta0' must be a vector or {{dirac: vertex}}, got {eta0}")
        v = _number("eta0.dirac", eta0["dirac"], int)
        if not 0 <= v < n:
            raise ValueError(f"config key 'eta0' puts its dirac on vertex {v} of a graph "
                             f"of {n} vertices")
        out = np.zeros(n)
        out[v] = 1.0
        return out
    eta = np.asarray(eta0, float)
    if eta.shape != (n,):
        raise ValueError(f"config key 'eta0' has shape {eta.shape} for a graph "
                         f"of {n} vertices")
    try:
        return averaging.as_simplex(eta)
    except ValueError as err:
        raise ValueError(f"config key 'eta0': {err}") from err


def run_avg_profile(config: ExperimentConfig):
    """Monte Carlo transport-distance profiles of the averaging dynamics,
    with the exact evolved-density lower curve alongside."""
    from . import distances
    _check_keys(config, k=_K_RULE, replicas=(lambda r: r >= 100, "≥ 100"),
                p_norm=(lambda p: p >= 1, "≥ 1"), seed=_SEED_RULE)
    graph = resolve_graph(config.graph)
    weights = resolve_weights(config.weights, graph.n)
    spec1 = distances.single_particle_spectrum(graph, weights)
    t_rel = spec1.t_rel
    eta0 = _resolve_eta0(config, graph)
    p = config.p_norm
    records = []
    for k in config.k:
        times = resolve_time_grid(config.times, t_rel, k)
        means, errs = simulate.wasserstein_estimate(graph, weights, eta0, times, p,
                                                    config.replicas, config.seed)
        scale = math.sqrt(k)
        for t, m, s in zip(times, means, errs):
            records.append(ProfileRecord("avg_profile", k, t, t / t_rel, m, s,
                                         "wasserstein"))
            records.append(ProfileRecord("avg_profile", k, t, t / t_rel,
                                         scale * m, scale * s, "wasserstein_scaled"))
        for t, h in zip(times, distances.evolved_density(graph, weights, eta0, times)):
            lower = float(np.sum(weights.pi * np.abs(h - 1.0) ** p) ** (1.0 / p))
            records.append(ProfileRecord("avg_profile", k, t, t / t_rel, lower,
                                         0.0, "lower"))
    if config.out:
        write_profile_csv(os.path.join(config.out, "avg_profile.csv"), records)
        _maybe_svg(config.out, "avg_profile", records, "wasserstein")
    return records


def run_complete_cdsz(config: ExperimentConfig):
    """L^1 transport profile on the complete graph around the reference
    crossing time log(n)/(n log 2), with the crossing location reported.

    A Dirac start stands for the sup over Dirac starts only when the
    verified automorphisms (``graphs.vertex_orbits``) move it onto every
    vertex; weights or conductances that break this raise, naming the key.
    """
    _check_keys(config, replicas=(lambda r: r >= 2, "≥ 2"), seed=_SEED_RULE)
    graph = resolve_graph(config.graph)
    n = graph.n
    if n < 64:
        raise ValueError(f"config key 'graph' has {n} vertices; the crossing experiment needs >= 64")
    weights = resolve_weights(config.weights, n)
    t_star = complete_graph_crossing_time(n)
    tspec = _mapping("times", config.times)
    if tspec.get("mode") == "tstar":
        # a trel grid in units of t_star, checked as any other grid
        tspec = {"multiples": list(np.linspace(0.3, 1.8, 25)), **tspec, "mode": "trel"}
        times = resolve_time_grid(tspec, t_star)
    else:
        from . import distances
        times = resolve_time_grid(tspec, distances.single_particle_spectrum(graph, weights).t_rel)
    eta0 = _resolve_eta0(config, graph)
    roots = vertex_orbits(graph, weights)
    if np.count_nonzero(eta0) == 1 and np.any(roots != roots[np.argmax(eta0)]):
        key = "weights" if np.ptp(weights.pi) else "graph.conductance"
        raise ValueError(f"config key {key!r} breaks the vertex symmetry that makes the "
                         f"pile at one vertex the worst Dirac start")
    means, errs = simulate.wasserstein_estimate(graph, weights, eta0, times, 1.0,
                                                config.replicas, config.seed)
    records = [ProfileRecord("cdsz", 1, t, t / t_star, float(m), float(s), "wasserstein")
               for t, m, s in zip(times, means, errs)]
    crossing = level_crossing_time(times, means, 1.0)
    records.append(ProfileRecord("cdsz", 1, crossing, crossing / t_star, crossing,
                                 0.0, "crossing"))
    records.append(ProfileRecord("cdsz", 1, crossing, crossing / t_star,
                                 crossing / t_star, 0.0, "crossing_ratio"))
    if config.out:
        write_profile_csv(os.path.join(config.out, "cdsz.csv"), records)
        _maybe_svg(config.out, "cdsz", records, "wasserstein")
    return records


def run_nash(config: ExperimentConfig):
    """Heat-kernel decay profiles and effective-dimension diagnoses."""
    from . import distances
    rows = []
    records = []
    for label, graph, weights in _graphs(config):
        spec = distances.single_particle_spectrum(graph, weights)
        grid = (resolve_time_grid(config.extra["nash_grid"], spec.t_rel, key="extra.nash_grid")
                if "nash_grid" in config.extra else None)
        grid, prof, diag = distances._nash_diagnosis(spec, grid)
        for t, h in zip(grid, prof):
            records.append(ProfileRecord("nash", 1, float(t), float(t / spec.t_rel),
                                         float(h), 0.0, f"profile:{label}"))
        rows.append({
            "graph": label,
            "d_hat": diag.fit.d_hat if diag.fit else math.nan,
            "t_nash_hat": diag.fit.t_nash_hat if diag.fit else math.nan,
            "r_squared": diag.fit.r_squared if diag.fit else math.nan,
            "finite_dimensional": diag.finite_dimensional,
            "reason": diag.reason,
        })
    if config.out:
        write_table(os.path.join(config.out, "nash_summary.csv"),
                    ("graph", "d_hat", "t_nash_hat", "r_squared",
                     "finite_dimensional", "reason"), rows)
        write_profile_csv(os.path.join(config.out, "nash_profiles.csv"), records)
    return rows


def _maybe_svg(out_dir, name, records, kind):
    pts = [(r.t, r.value) for r in records if r.kind == kind]
    if len(pts) >= 2:
        xs, ys = zip(*sorted(pts))
        write_svg_line(os.path.join(out_dir, f"{name}.svg"), xs, ys, title=name)
