"""Continuous-time simulation of the averaging dynamics and of the particle-
splitting dynamics (unlabeled, labeled, and multicolored), with reproducible
counter-based random streams.

Independent per-edge clocks are equal in law to one Poisson clock at the
total conductance C whose events pick edge xy with probability c_xy / C, and
a recorded state depends only on the events before it and their edges.  So
replica r, on the Philox stream keyed by (seed, r, stream 0), draws per record
interval of length dt a Poisson(C dt) event count, then per event, in order,
1 + k uniforms: a mark that picks the edge by conductance, then k particle
uniforms, of which the m particles on the edge take the first m in coordinate
order and go to x when theirs is below x's share.  ``STREAM_LAYOUT`` (3)
numbers this layout; the averaging dynamics are its k = 0 case, drawn as in
layout 2.  A guide table finds each mark's edge, the one a binary search over
cumulative conductances picks, so values at a fixed seed do not depend on the
lookup.  Both dynamics run through one lockstep engine whose row r is
bit-identical to replica r run alone.  The Binomial(m, p) re-split of the
unlabeled process is the count of the m choices, so the unlabeled and
multicolored runs count per vertex, or per color and vertex, the labeled run
of the particles sorted by start vertex; the color-blind sum of a
multicolored run is the uncolored run under the same seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import averaging
from .graphs import SiteWeights, WeightedGraph

__all__ = [
    "STREAM_LAYOUT",
    "SimOptions",
    "make_rng",
    "simulate_averaging",
    "simulate_averaging_batch",
    "wasserstein_estimate",
    "simulate_splitting_batch",
    "simulate_splitting",
    "simulate_multicolored",
]

# Version of the draw order above; results at a fixed seed change with it.
STREAM_LAYOUT = 3

DRIFT_TOL = 1e-12          # largest mass defect of a recorded averaging state
GROUP_BYTES = 1 << 21      # working memory of one lockstep group of replicas
MAX_HELD_MARKS = 4096      # uniforms one replica holds at once in a group
MARK_BYTES = 64            # working bytes per held event (mark, edge, indices)


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

    def __post_init__(self):
        rec = tuple(float(t) for t in self.record_times)
        if any(b < a for a, b in zip(rec, rec[1:])):
            raise ValueError("record_times must be sorted ascending")
        if rec and rec[0] < 0.0:
            raise ValueError("record_times must be nonnegative")
        object.__setattr__(self, "record_times", rec)


@dataclass(frozen=True)
class _Tables:
    """Per-(graph, weights) event tables shared by replicas."""

    total: float       # total conductance, the event rate
    cum: np.ndarray    # cumulative conductances, the last one set to +inf
    guide: np.ndarray  # guide[b]: count of cum <= (b - 1) total / E, E edges
    x: np.ndarray      # edge endpoints
    y: np.ndarray
    px: np.ndarray     # share of the pooled value that goes to x

    def edges_of(self, marks: np.ndarray) -> np.ndarray:
        """Edge picked by each uniform mark u, proportionally to conductance:
        the first edge whose cum exceeds u * total, as a binary search finds
        it, reached from guide[floor(u E)] (a bucket below u's whatever the
        rounding) in two steps up, else by binary search.  Overwrites marks."""
        cum, j = self.cum, np.empty(marks.shape, np.intp)
        j = self.guide[np.multiply(marks, cum.size, out=j, casting="unsafe")]
        target = np.multiply(marks, self.total, out=marks)
        for _ in range(2):
            j += cum[j] <= target
        left = np.flatnonzero(cum[j] <= target)
        np.put(j, left, np.searchsorted(cum, target.ravel()[left], side="right"))
        return j


@lru_cache(maxsize=16)
def _sim_tables(graph: WeightedGraph, weights: SiteWeights) -> _Tables:
    if graph.n_edges == 0:
        raise ValueError("graph has no edges")
    pi = weights.pi
    x, y = graph.edge_x, graph.edge_y
    cum = np.cumsum(graph.edge_c)
    total, cum[-1] = float(cum[-1]), np.inf
    guide = np.searchsorted(cum, np.arange(-1, cum.size) * (total / cum.size), side="right")
    return _Tables(total=total, cum=cum, guide=guide, x=x, y=y, px=pi[x] / (pi[x] + pi[y]))


def _group_shape(cols: int, expected_events: float, width: int):
    """(replicas per lockstep group, events each of them holds at once): a
    row's ``cols`` state entries plus the draws of its held events, ``width``
    uniforms each and at most MAX_HELD_MARKS uniforms in all, fit in
    GROUP_BYTES; a row holds the events of the longest interval when it can."""
    held = max(1, int(min(MAX_HELD_MARKS // width,
                          expected_events + 6.0 * math.sqrt(expected_events) + 1.0)))
    row_bytes = 8 * cols + held * (MARK_BYTES + 8 * (width - 1))
    return max(1, GROUP_BYTES // row_bytes), held


def _lockstep(tab: _Tables, opts: SimOptions, start: np.ndarray, width: int,
              step, observe, guard=None) -> np.ndarray:
    """The one replica engine: ``values[r, i]`` is row r of ``observe(block)``
    at record time i, row r of ``start`` run as replica opts.replica_id + r.

    Each row draws per interval its event count, then ``width`` uniforms per
    event, in chunks of held events; ``step(state, order, active, x, y, px,
    draws)`` applies a chunk, whose s-th step touches the first ``active[s]``
    rows of ``order`` (rows by descending count): edges (x[s], y[s]) with
    x-shares px[s], uniforms ``draws[row, s]``.  The step may overwrite x and
    y.  ``guard(state)`` may correct states before a record.
    """
    replicas, cols = start.shape
    rec = opts.record_times
    lams = [tab.total * (t - s) for s, t in zip((0.0,) + rec, rec)]
    group, held = _group_shape(cols, max(lams, default=0.0), width)
    probe = np.asarray(observe(start[:1].copy()))
    values = np.empty((replicas, len(rec)) + probe.shape[1:], probe.dtype)
    for g0 in range(0, replicas, group):
        rows = min(group, replicas - g0)
        rngs = [make_rng(opts.seed, opts.replica_id + g0 + r) for r in range(rows)]
        state = start[g0:g0 + rows].copy()
        draws = np.zeros((rows, held, width))
        for i, lam in enumerate(lams):
            left = np.array([rng.poisson(lam) for rng in rngs], dtype=np.int64)
            while left.any():
                take = np.minimum(left, held)
                for r in np.flatnonzero(take).tolist():
                    rngs[r].random(out=draws[r, :take[r]])
                order = np.argsort(-take, kind="stable")
                ranked = take[order]
                steps = int(ranked[0])
                active = np.searchsorted(-ranked, -np.arange(steps), side="left").tolist()
                e = tab.edges_of(draws[order, :steps, 0]).T
                step(state, order, active, tab.x[e], tab.y[e], tab.px[e], draws)
                left -= take
            if guard is not None:
                guard(state)
            values[g0:g0 + rows, i] = observe(state)
    return values


def _apply_marks(eta: np.ndarray, order, active, x, y, px, draws) -> None:
    """Averaging step: pool and re-split the values on each event's edge."""
    flat = eta.reshape(-1)
    row0 = order * eta.shape[1]
    x += row0  # flat indices of the endpoints
    y += row0
    for s, k in enumerate(active):
        ix, iy = x[s, :k], y[s, :k]
        pooled = flat[ix] + flat[iy]
        share = px[s, :k] * pooled
        flat[ix] = share
        flat[iy] = pooled - share


def _split_particles(pos: np.ndarray, order, active, x, y, px, draws) -> None:
    """Labeled step: the i-th particle on the event's edge xy, in coordinate
    order, takes column i of the event's uniforms (column 0 is the mark) and
    goes to x when it is below x's share, and to y otherwise."""
    for s, k in enumerate(active):
        rows = order[:k]
        xs, ys = x[s, :k, None], y[s, :k, None]
        cur = pos[rows]
        on = (cur == xs) | (cur == ys)
        to_x = draws[rows[:, None], s, np.cumsum(on, axis=1)] < px[s, :k, None]
        pos[rows] = np.where(on, np.where(to_x, xs, ys), cur)


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
    n = graph.n
    eta0 = np.asarray(eta0, dtype=float)
    if eta0.shape != (n,):
        raise ValueError(f"start must be a vector of length {n}, got shape {eta0.shape}")
    drift = 0

    def guard(eta):
        nonlocal drift
        mass = eta.sum(axis=1)
        off = np.abs(mass - 1.0) > DRIFT_TOL
        eta[off] /= mass[off, None]
        drift += int(off.sum())

    values = _lockstep(_sim_tables(graph, weights), opts, np.broadcast_to(eta0, (replicas, n)),
                       1, _apply_marks, observe or np.copy, guard)
    return values, drift


def wasserstein_estimate(graph: WeightedGraph, weights: SiteWeights, eta0,
                         times, p: float, replicas: int, seed: int):
    """Monte Carlo means and standard errors of ||eta_t/pi - 1||_p at each
    of the ascending ``times``, over the averaging replicas 0..replicas-1 of
    ``seed`` run as one lockstep batch."""
    if replicas < 2:
        raise ValueError("need at least 2 replicas for a standard error")
    opts = SimOptions(record_times=tuple(float(t) for t in times), seed=seed)
    norms, _ = simulate_averaging_batch(
        graph, weights, eta0, opts, replicas,
        observe=lambda block: averaging.transport_norm(block, weights, p))
    # one contiguous row per time: the sums run as they would over a 1-d array
    per_time = np.ascontiguousarray(norms.T)
    return per_time.mean(axis=1), per_time.std(axis=1, ddof=1) / math.sqrt(replicas)


def simulate_averaging(graph: WeightedGraph, weights: SiteWeights, eta0,
                       opts: SimOptions):
    """States of the averaging dynamics at the requested record times: the
    lockstep batch of the one replica ``opts.replica_id``."""
    states, _ = simulate_averaging_batch(graph, weights, eta0, opts, 1)
    return list(states[0])


def simulate_splitting_batch(graph: WeightedGraph, weights: SiteWeights, xs0,
                             opts: SimOptions, replicas: int, observe=None):
    """Replicas of the labeled particle system, as in
    :func:`simulate_averaging_batch` but returning ``values`` alone, with
    ``observe`` applied to (rows, k) blocks of positions.  ``xs0`` holds the
    k start positions: (k,) for every replica, or (replicas, k)."""
    raw = np.asarray(xs0)
    pos = raw.astype(np.int64)
    if raw.ndim not in (1, 2) or raw.ndim == 2 and raw.shape[0] != replicas:
        raise ValueError(f"start must be (k,) or ({replicas}, k) positions, got shape {raw.shape}")
    if np.any(pos != raw) or np.any((pos < 0) | (pos >= graph.n)):
        raise ValueError(f"particle positions must be integers in [0, {graph.n})")
    start = np.broadcast_to(pos, (replicas, pos.shape[-1]))
    return _lockstep(_sim_tables(graph, weights), opts, start, 1 + start.shape[1],
                     _split_particles, observe or np.copy)


def _counts(n: int, xi0) -> list:
    """The occupation vector ``xi0`` as a list of n nonnegative ints."""
    xi = [int(v) for v in np.asarray(xi0)]
    if len(xi) != n or min(xi) < 0:
        raise ValueError(f"occupation counts must be a nonnegative vector of length {n}")
    return xi


def simulate_splitting(graph: WeightedGraph, weights: SiteWeights, xi0,
                       opts: SimOptions):
    """Occupation vectors of the unlabeled particle system at record times:
    the counts per vertex of the labeled run of xi0's particles."""
    n = graph.n
    particles = np.repeat(np.arange(n), _counts(n, xi0))
    return [np.bincount(xs, minlength=n)
            for xs in simulate_splitting_batch(graph, weights, particles, opts, 1)[0]]


def simulate_multicolored(graph: WeightedGraph, weights: SiteWeights, xi0,
                          opts: SimOptions):
    """Color-resolved occupation matrices (row = color z = source vertex,
    column = vertex) at record times: the counts of the labeled run of xi0's
    particles sorted by color, so each color on an edge uses one consecutive
    block of the event's uniforms."""
    n = graph.n
    color = np.repeat(np.arange(n), _counts(n, xi0))
    return [np.bincount(color * n + xs, minlength=n * n).reshape(n, n)
            for xs in simulate_splitting_batch(graph, weights, color, opts, 1)[0]]
