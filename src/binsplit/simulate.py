"""Continuous-time simulation of the averaging dynamics and of the particle-
splitting dynamics (unlabeled, labeled, and multicolored), with reproducible
counter-based random streams.

Independent per-edge clocks are equal in law to one Poisson clock at the
total conductance C whose events pick edge xy with probability c_xy / C.  A
recorded state depends only on the events before it and their edges, not on
their times, so replica r, which owns the Philox stream keyed by
(seed, r, stream 0), draws per record interval of length dt, in this order:
a Poisson(C dt) event count, one uniform mark per event (the mark picks the
edge by conductance), then the redistribution draws of those events in event
order (splitting dynamics only).  A ``fast_binomial`` redistribution is one
binomial draw.  The per-particle runs, unlabeled and multicolored, are views
of one labeled run from the particles sorted by source vertex, where each
coordinate on the edge draws one uniform in coordinate order; so the
color-blind sum of a multicolored run coincides pathwise with an uncolored
run under the same seed.  ``STREAM_LAYOUT`` (still 2) numbers this layout.
Averaging replicas advance in lockstep batches (``simulate_averaging_batch``)
whose rows are bit-identical to the replicas run alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .graphs import SiteWeights, WeightedGraph

__all__ = [
    "STREAM_LAYOUT",
    "SimOptions",
    "make_rng",
    "simulate_averaging",
    "simulate_averaging_batch",
    "simulate_splitting",
    "simulate_splitting_labeled",
    "simulate_multicolored",
]

# Version of the draw order above; results at a fixed seed change with it.
STREAM_LAYOUT = 2

COUPLING_MODES = ("fast_binomial", "per_particle_bernoulli")
DRIFT_TOL = 1e-12          # largest mass defect of a recorded averaging state
GROUP_BYTES = 1 << 21      # working memory of one lockstep group of replicas
MAX_HELD_MARKS = 4096      # marks one replica holds at once in a group
MARK_BYTES = 64            # working bytes per held mark (marks, edges, indices)


def make_rng(seed: int, replica_id: int = 0, stream: int = 0) -> np.random.Generator:
    """Philox stream keyed by (seed, replica_id, stream); bit-stable across runs.

    ``stream`` separates independent draw purposes inside one replica (0 for
    the event stream, nonzero for auxiliary draws such as random initial
    states), so consumers never share or reuse a stream.
    """
    if not (0 <= replica_id < 1 << 56):
        raise ValueError("replica_id must fit in 56 bits")
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF,
                    (replica_id | (stream << 56)) & 0xFFFFFFFFFFFFFFFF],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class SimOptions:
    """Snapshot times and stream identity for one trajectory; a run ends at
    its last record time."""

    record_times: tuple = ()
    seed: int = 0
    replica_id: int = 0
    coupling_mode: str = "fast_binomial"

    def __post_init__(self):
        rec = tuple(float(t) for t in self.record_times)
        if any(b < a for a, b in zip(rec, rec[1:])):
            raise ValueError("record_times must be sorted ascending")
        if rec and rec[0] < 0.0:
            raise ValueError("record_times must be nonnegative")
        if self.coupling_mode not in COUPLING_MODES:
            raise ValueError(f"coupling_mode must be one of {COUPLING_MODES}")
        object.__setattr__(self, "record_times", rec)


@dataclass(frozen=True)
class _Tables:
    """Per-(graph, weights) event tables shared by replicas."""

    total: float       # total conductance, the event rate
    cum: np.ndarray    # cumulative conductances, for marks -> edges
    x: np.ndarray      # edge endpoints
    y: np.ndarray
    px: np.ndarray     # share of the pooled value that goes to x

    def edges_of(self, marks: np.ndarray) -> np.ndarray:
        """Edge picked by each uniform mark, proportionally to conductance."""
        idx = np.searchsorted(self.cum, marks * self.total, side="right")
        return np.minimum(idx, self.cum.size - 1)


@lru_cache(maxsize=16)
def _sim_tables(graph: WeightedGraph, weights: SiteWeights) -> _Tables:
    if graph.n_edges == 0:
        raise ValueError("graph has no edges")
    pi = weights.pi
    x, y = graph.edge_x, graph.edge_y
    cum = np.cumsum(graph.edge_c)
    return _Tables(total=float(cum[-1]), cum=cum, x=x, y=y,
                   px=pi[x] / (pi[x] + pi[y]))


def _group_shape(n: int, expected_events: float):
    """(replicas per lockstep group, marks each of them holds at once): the
    state rows plus the marks of the longest interval fit in GROUP_BYTES."""
    held = int(min(MAX_HELD_MARKS, expected_events + 6.0 * math.sqrt(expected_events) + 1.0))
    return max(1, GROUP_BYTES // (8 * n + MARK_BYTES * held)), held


def _apply_marks(flat: np.ndarray, n: int, tab: _Tables, marks: np.ndarray,
                 counts: np.ndarray) -> None:
    """Apply row r's first counts[r] marks, in order, to row r of the
    row-major state ``flat``; step s updates every row with an s-th mark."""
    order = np.argsort(-counts, kind="stable")
    ranked = counts[order]
    steps = int(ranked[0])
    active = np.searchsorted(-ranked, -np.arange(steps), side="left").tolist()
    edges = tab.edges_of(marks[order, :steps]).T   # (steps, rows)
    row0 = order * n
    fx = tab.x[edges] + row0
    fy = tab.y[edges] + row0
    px = tab.px[edges]
    for s, k in enumerate(active):
        ix, iy = fx[s, :k], fy[s, :k]
        pooled = flat[ix] + flat[iy]
        share = px[s, :k] * pooled
        flat[ix] = share
        flat[iy] = pooled - share


def simulate_averaging_batch(graph: WeightedGraph, weights: SiteWeights, eta0,
                             opts: SimOptions, replicas: int, observe=None):
    """Replicas opts.replica_id, ..., opts.replica_id + replicas - 1 of the
    averaging dynamics, advanced in lockstep groups.

    Returns (values, drift).  ``values[r, i]`` is row r of ``observe(block)``
    applied to the (rows, n) block of states at record time i (the state
    itself when ``observe`` is None), so ``values`` has shape
    (replicas, len(record_times)) plus the trailing shape of ``observe``.
    Float drift is guarded per replica: at each record time a state whose
    mass is off 1 by more than DRIFT_TOL is rescaled (the dynamics are
    linear, so this changes them only within rounding); ``drift`` is the
    total number of rescales over all replicas.
    """
    tab = _sim_tables(graph, weights)
    n = graph.n
    eta0 = np.asarray(eta0, dtype=float)
    if eta0.shape != (n,):
        raise ValueError(f"start must be a vector of length {n}, got shape {eta0.shape}")
    rec = opts.record_times
    lams = [tab.total * (t - s) for s, t in zip((0.0,) + rec, rec)]
    group, held = _group_shape(n, max(lams, default=0.0))
    observe = observe or np.copy
    probe = np.asarray(observe(eta0[None, :]))
    values = np.empty((replicas, len(rec)) + probe.shape[1:], probe.dtype)
    drift = 0
    for g0 in range(0, replicas, group):
        rows = min(group, replicas - g0)
        rngs = [make_rng(opts.seed, opts.replica_id + g0 + r) for r in range(rows)]
        eta = np.tile(eta0, (rows, 1))
        flat = eta.reshape(-1)
        marks = np.zeros((rows, held))
        for i, lam in enumerate(lams):
            left = np.array([rng.poisson(lam) for rng in rngs], dtype=np.int64)
            while left.any():
                take = np.minimum(left, held)
                for r in np.flatnonzero(take).tolist():
                    rngs[r].random(out=marks[r, :take[r]])
                _apply_marks(flat, n, tab, marks, take)
                left -= take
            mass = eta.sum(axis=1)
            off = np.abs(mass - 1.0) > DRIFT_TOL
            eta[off] /= mass[off, None]
            drift += int(off.sum())
            values[g0:g0 + rows, i] = observe(eta)
    return values, drift


def simulate_averaging(graph: WeightedGraph, weights: SiteWeights, eta0,
                       opts: SimOptions):
    """States of the averaging dynamics at the requested record times: the
    lockstep batch of the one replica ``opts.replica_id``."""
    states, _ = simulate_averaging_batch(graph, weights, eta0, opts, 1)
    return list(states[0])


def _redistribute_counts(state, x: int, y: int, p: float, rng: np.random.Generator) -> None:
    """Re-split the m particles on edge xy of an occupation list: Binomial(m, p) on x."""
    m = state[x] + state[y]
    if m == 0:
        return
    k_x = int(rng.binomial(m, p))
    state[x], state[y] = k_x, m - k_x


def _run_replica(graph: WeightedGraph, weights: SiteWeights, opts: SimOptions,
                 update, snapshot):
    """Drive one splitting replica: ``update(x, y, p, rng)`` for each event
    on edge xy (p the x-side share), ``snapshot()`` at each record time.  Per
    record interval the stream draws the event count, then all the marks,
    then the updates' own draws in event order."""
    rng = make_rng(opts.seed, opts.replica_id)
    tab = _sim_tables(graph, weights)
    exs, eys, pxs = tab.x.tolist(), tab.y.tolist(), tab.px.tolist()
    out = []
    t_prev = 0.0
    for t in opts.record_times:
        marks = rng.random(rng.poisson(tab.total * (t - t_prev)))
        for e in tab.edges_of(marks).tolist():
            update(exs[e], eys[e], pxs[e], rng)
        out.append(snapshot())
        t_prev = t
    return out


def _counts(n: int, xi0) -> list:
    """The occupation vector ``xi0`` as a list of n nonnegative ints."""
    xi = [int(v) for v in np.asarray(xi0)]
    if len(xi) != n or min(xi) < 0:
        raise ValueError(f"occupation counts must be a nonnegative vector of length {n}")
    return xi


def simulate_splitting(graph: WeightedGraph, weights: SiteWeights, xi0,
                       opts: SimOptions):
    """Occupation vectors of the unlabeled particle system at record times (in
    the per-particle mode, the counts of the labeled run of xi0's particles)."""
    n = graph.n
    xi = _counts(n, xi0)
    if opts.coupling_mode == "per_particle_bernoulli":
        particles = np.repeat(np.arange(n), xi)
        return [np.bincount(xs, minlength=n)
                for xs in simulate_splitting_labeled(graph, weights, particles, opts)]
    return _run_replica(graph, weights, opts,
                        lambda x, y, p, rng: _redistribute_counts(xi, x, y, p, rng),
                        lambda: np.array(xi, dtype=np.int64))


def simulate_splitting_labeled(graph: WeightedGraph, weights: SiteWeights, xs0,
                               opts: SimOptions):
    """Position tuples of the labeled particle system at record times.

    At an event on xy every coordinate on x or y draws one uniform, in
    coordinate order, and goes to x when it is below p.
    """
    xs = [int(v) for v in xs0]

    def update(x, y, p, rng):
        active = [j for j, v in enumerate(xs) if v == x or v == y]
        if active:
            for j, u in zip(active, rng.random(len(active)).tolist()):
                xs[j] = x if u < p else y

    return _run_replica(graph, weights, opts, update, lambda: tuple(xs))


def simulate_multicolored(graph: WeightedGraph, weights: SiteWeights, xi0,
                          opts: SimOptions):
    """Color-resolved occupation matrices (row = color z = source vertex,
    column = vertex) at record times: the counts of the labeled run of xi0's
    particles sorted by color, so each color on an edge draws one consecutive
    block of the event's uniforms.  Requires the per-particle coupling mode."""
    if opts.coupling_mode != "per_particle_bernoulli":
        raise ValueError("multicolored runs require coupling_mode='per_particle_bernoulli': "
                         "the color-blind sum must reproduce the uncolored run pathwise")
    n = graph.n
    color = np.repeat(np.arange(n), _counts(n, xi0))
    return [np.bincount(color * n + np.array(xs, dtype=np.int64), minlength=n * n).reshape(n, n)
            for xs in simulate_splitting_labeled(graph, weights, color, opts)]
