"""Continuous-time simulation of the averaging dynamics and of the particle-
splitting dynamics (unlabeled, labeled, and multicolored), with reproducible
counter-based random streams.

Independent per-edge clocks are equal in law to one Poisson clock at the
total conductance C whose events pick edge xy with probability c_xy / C, and
a recorded state depends only on the events before it and their edges.  So
per record interval i, of length dt, replica r reads one uniform of stream
1, which an inverse-CDF table turns into its Poisson(C dt) event count, then
reads its events from stream 0 in chunks of S, chunk c holding events cS to
cS + S - 1: per event 1 + k uniforms, a mark that picks the edge by
conductance, then k particle uniforms, of which the m particles on the edge
take the first m in coordinate order and go to x when theirs is below x's
share.  Stream s is the Philox key (seed, s·2^56) of make_rng, read by
slice: replica r's slice (i, c) of L uniforms starts at counter words
(rL/4, i, c), where S and L, a multiple of 4, depend on C dt and k alone, so
one call reads the slices of a whole group of replicas and row r of a batch
is bit-identical to replica r run alone.  ``STREAM_LAYOUT`` (4) numbers this
layout; the averaging dynamics are its k = 0 case.  A guide table finds each
mark's edge, the one a binary search over cumulative conductances picks, so
values at a fixed seed do not depend on the lookup.  Both dynamics run
through one lockstep engine.  The Binomial(m, p) re-split of the unlabeled
process is the count of the m choices, so the unlabeled and multicolored
runs count per vertex, or per color and vertex, the labeled run of the
particles sorted by start vertex; the color-blind sum of a multicolored run
is the uncolored run under the same seed.
"""

from __future__ import annotations

import itertools
import math
import operator
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
STREAM_LAYOUT = 4

DRIFT_TOL = 1e-12          # largest mass defect of a recorded averaging state
CHUNK_UNIFORMS = 16        # uniforms per replica in a chunk, or one event if wider; layout-fixed
GROUP_BYTES = 1 << 21      # working memory of one lockstep group of replicas
MARK_BYTES = 64            # working bytes per held event (mark, edge, indices)


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox stream keyed by (seed, stream·2^56); bit-stable across runs.
    A seed outside [0, 2^64) raises instead of aliasing a seed inside it.

    ``stream`` separates independent draw purposes (3 for the harness's
    random starts, 4 for the verification battery), so consumers never share
    or reuse a stream.  Streams 0 to 2 are read by slice: events, event
    counts, and the starts of ``distances.wilson_report``.
    """
    seed = operator.index(seed)
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    key = np.array([seed, (stream << 56) & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class _Slices:
    """The uniforms of the Philox key of make_rng(seed, stream), read by
    slice: replica r's slice (i, c) of L uniforms, L a multiple of 4,
    starts at counter words (rL/4, i, c), so one read fills the slices of
    consecutive replicas, each as it reads alone.  Replicas below ``end``
    read slices of at most ``span`` uniforms, which must not carry into the
    interval word."""

    def __init__(self, seed: int, stream: int, end: int, span: int):
        if end * (span // 4) > 1 << 64:
            raise ValueError(f"replica_id + replicas = {end} passes {(1 << 64) // (span // 4)}, "
                             f"the replicas whose slices of {span} uniforms fit a counter word")
        self._gen = make_rng(seed, stream)
        self._state = self._gen.bit_generator.state

    def read(self, out: np.ndarray, first: int, i: int = 0, c: int = 0) -> np.ndarray:
        """Fill the (rows, L) array ``out`` with slice (i, c) of replicas
        first, ..., first + rows - 1."""
        # numpy's Philox steps its counter before it computes a block
        block = (c << 128 | i << 64 | first * (out.shape[1] // 4)) - 1
        self._state["state"]["counter"] = np.array(
            [block >> shift & 0xFFFFFFFFFFFFFFFF for shift in (0, 64, 128, 192)], np.uint64)
        self._state["buffer_pos"] = 4
        self._gen.bit_generator.state = self._state
        return self._gen.random(out=out)


def _slice_len(events: int, width: int) -> int:
    """Uniforms in a slice of ``events`` events of ``width`` uniforms: whole
    Philox blocks of 4."""
    return -(-events * width // 4) * 4


def _chunk_events(lam: float, width: int) -> int:
    """Events per replica in one chunk of an interval with ``lam`` expected
    events of ``width`` uniforms each."""
    return max(1, min(math.ceil(lam), CHUNK_UNIFORMS // width))


def _poisson_cdf(lam: float):
    """(lo, cdf): cdf[j] = P(lo <= N <= lo + j) for N ~ Poisson(lam), from
    lo = max(0, floor(lam - 12 sqrt(lam) - 40)) up to lam + 12 sqrt(lam) + 40
    (each tail below 1e-30), summed in order from log-space terms, with the
    last entry +inf: ``lo + searchsorted(cdf, u, "right")`` is the count u
    draws."""
    spread = 12.0 * math.sqrt(lam) + 40.0
    lo, top = max(0, math.floor(lam - spread)), int(lam + spread)
    log_lam = math.log(lam) if lam > 0.0 else -math.inf
    terms = (math.exp(j * log_lam - lam - math.lgamma(j + 1)) if j else math.exp(-lam)
             for j in range(lo, top))
    cdf = np.fromiter(itertools.accumulate(terms), float, top - lo)
    cdf[-1] = np.inf
    return lo, cdf


def _categorical_starts(seed: int, eta, k: int, replicas: int) -> np.ndarray:
    """(replicas, k) sorted start sites, each of a replica's k particles at
    vertex v with probability eta[v]: one uniform per particle from replica
    r's slice (0, 0) of stream 2."""
    eta = np.asarray(eta, float)
    if not (np.all(np.isfinite(eta)) and np.all(eta >= 0.0)
            and abs(float(eta.sum()) - 1.0) <= 1e-9):
        raise ValueError("eta must be a finite, nonnegative probability vector summing to 1")
    span = _slice_len(k, 1)
    u = _Slices(seed, 2, replicas, span).read(np.empty((replicas, span)), 0)[:, :k]
    starts = np.searchsorted(np.cumsum(eta), u, side="right")
    np.minimum(starts, np.flatnonzero(eta)[-1], out=starts)
    starts.sort(axis=1)
    return starts


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
        if self.replica_id < 0:
            raise ValueError("replica_id must be nonnegative")
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

    def endpoints(self, marks: np.ndarray):
        """(x, y, px) of the edges of (rows, steps) marks, each (steps, rows)
        and C-contiguous, so that a step reads one contiguous row of each."""
        e = np.ascontiguousarray(self.edges_of(marks).T)
        return self.x[e], self.y[e], self.px[e]


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


def _group_shape(replicas: int, cols: int, events: int, width: int):
    """(replicas per lockstep group, rows per observe call): a row's ``cols``
    state entries and one chunk of ``events`` events, each ``width`` uniforms
    and MARK_BYTES of working memory, fit in GROUP_BYTES, in as few groups of
    even size as that allows.  An observe call gets no more state entries
    than the chunk has events, so its temporaries, up to MARK_BYTES per
    entry, reuse the events' working memory."""
    row_bytes = 8 * cols + 8 * _slice_len(events, width) + MARK_BYTES * events
    groups = max(1, -(-replicas // max(1, GROUP_BYTES // row_bytes)))
    group = max(1, -(-replicas // groups))
    return group, max(1, group * events // max(1, cols))


def _lockstep(tab: _Tables, opts: SimOptions, start: np.ndarray, width: int,
              step, observe) -> np.ndarray:
    """The one replica engine: ``values[r, i]`` is row r of ``observe(block)``
    at record time i, row r of ``start`` run as replica opts.replica_id + r.

    Per interval a group of rows reads its event counts, then its chunks of
    events, ``width`` uniforms each; ``step(state, order, active, x, y, px,
    draws)`` applies a chunk, whose s-th step touches the first ``active[s]``
    rows of ``order`` (rows by descending count): edges (x[s], y[s]) with
    x-shares px[s], uniforms ``draws[row, s]``.  The step may overwrite x and
    y.
    """
    replicas, cols = start.shape
    rec = opts.record_times
    lams = [tab.total * (t - s) for s, t in zip((0.0,) + rec, rec)]
    chunks = [_chunk_events(lam, width) for lam in lams]
    tables = [_poisson_cdf(lam) for lam in lams]
    span = _slice_len(max(chunks, default=1), width)
    events = _Slices(opts.seed, 0, opts.replica_id + replicas, span)
    counts = _Slices(opts.seed, 1, opts.replica_id + replicas, 4)
    group, block = _group_shape(replicas, cols, max(chunks, default=1), width)
    probe = np.asarray(observe(start[:1].copy()))
    values = np.empty((replicas, len(rec)) + probe.shape[1:], probe.dtype)
    # every group reuses one state array and one buffer for each stream
    whole, buf = np.empty((group, cols), start.dtype), np.empty(group * span)
    u = np.empty((group, 4))
    for g0 in range(0, replicas, group):
        rows = min(group, replicas - g0)
        first = opts.replica_id + g0
        state = whole[:rows]
        state[...] = start[g0:g0 + rows]
        for i, ((lo, cdf), held) in enumerate(zip(tables, chunks)):
            n = lo + np.searchsorted(cdf, counts.read(u[:rows], first, i)[:, 0], side="right")
            draws = buf[:rows * _slice_len(held, width)].reshape(rows, -1)
            chunk = draws[:, :held * width].reshape(rows, held, width)
            for c in range(-(-int(n.max()) // held)):
                take = np.clip(n - c * held, 0, held)
                live = np.flatnonzero(take)
                events.read(draws[live[0]:live[-1] + 1], first + int(live[0]), i, c)
                order = np.argsort(-take, kind="stable")
                ranked = take[order]
                active = np.searchsorted(-ranked, -np.arange(ranked[0]), side="left").tolist()
                marks = chunk[order[:live.size], :len(active), 0]
                step(state, order, active, *tab.endpoints(marks), chunk)
            out = values[g0:g0 + rows, i]
            for b0 in range(0, rows, block):
                out[b0:b0 + block] = observe(state[b0:b0 + block])
    return values


def _apply_marks(eta: np.ndarray, order, active, x, y, px, draws) -> None:
    """Averaging step: pool and re-split the values on each event's edge."""
    flat = eta.reshape(-1)
    row0 = order[:x.shape[1]] * eta.shape[1]
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

    ``values[r, i]`` is row r of ``observe(block)`` applied to the (rows, n)
    block of states at record time i (the state itself when ``observe`` is
    None), so ``values`` has shape (replicas, len(record_times)) plus the
    trailing shape of ``observe``.  Nothing rescales a state: one whose mass
    is off 1 by more than DRIFT_TOL at a record time raises.
    """
    n = graph.n
    eta0 = np.asarray(eta0, dtype=float)
    if eta0.shape != (n,):
        raise ValueError(f"start must be a vector of length {n}, got shape {eta0.shape}")
    observe = observe or np.copy
    shape = np.shape(observe(eta0[None].copy()))[1:]
    # column 0 carries each state's mass, checked once the batch is done
    out = _lockstep(_sim_tables(graph, weights), opts, np.broadcast_to(eta0, (replicas, n)), 1,
                    _apply_marks, lambda block: np.column_stack(
                        [block.sum(axis=1), np.reshape(observe(block), (len(block), -1))]))
    defect = np.abs(out[:, :, 0] - 1.0)
    bad = np.argwhere(defect > DRIFT_TOL)
    if bad.size:
        r, i = bad[0]
        raise ValueError(f"replica {opts.replica_id + r} has mass off 1 by {defect[r, i]:.3e} "
                         f"at t={opts.record_times[i]:g}, above DRIFT_TOL = {DRIFT_TOL:g}")
    return out[:, :, 1:].reshape(out.shape[:2] + shape)


def wasserstein_estimate(graph: WeightedGraph, weights: SiteWeights, eta0,
                         times, p: float, replicas: int, seed: int):
    """Monte Carlo means and standard errors of ||eta_t/pi - 1||_p at each
    of the ascending ``times``, over the averaging replicas 0..replicas-1 of
    ``seed`` run as one lockstep batch."""
    if replicas < 2:
        raise ValueError("need at least 2 replicas for a standard error")
    opts = SimOptions(record_times=tuple(float(t) for t in times), seed=seed)
    norms = simulate_averaging_batch(
        graph, weights, eta0, opts, replicas,
        observe=lambda block: averaging.transport_norm(block, weights, p))
    # one contiguous row per time: the sums run as they would over a 1-d array
    per_time = np.ascontiguousarray(norms.T)
    return per_time.mean(axis=1), per_time.std(axis=1, ddof=1) / math.sqrt(replicas)


def simulate_averaging(graph: WeightedGraph, weights: SiteWeights, eta0,
                       opts: SimOptions):
    """States of the averaging dynamics at the requested record times: the
    lockstep batch of the one replica ``opts.replica_id``."""
    states = simulate_averaging_batch(graph, weights, eta0, opts, 1)
    return list(states[0])


def simulate_splitting_batch(graph: WeightedGraph, weights: SiteWeights, xs0,
                             opts: SimOptions, replicas: int, observe=None):
    """Replicas of the labeled particle system, as in
    :func:`simulate_averaging_batch`, with ``observe`` applied to (rows, k)
    blocks of positions.  ``xs0`` holds the k start positions: (k,) for every
    replica, or (replicas, k)."""
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
