"""Weighted graphs and site-weights on which the mass/particle dynamics run.

A graph is undirected and connected, with a strictly positive conductance
c_xy (rate units, 1/time) on every edge.  Site-weights are a strictly
positive probability vector over the vertices; they control how an edge
splits the pooled mass or particles between its endpoints.

Vertex indexing conventions of the builders:

* ``path``, ``cycle``, ``complete``: vertices are 0..n-1 in the obvious order.
* ``torus``: coordinates map to indices row-major (last axis fastest),
  i.e. ``index = ravel_multi_index(coord, dims)``.
* ``sierpinski``: vertices are the lattice points of the level-L gasket,
  sorted lexicographically by their integer (row, col) coordinates.
* ``percolation_box``: vertices of the retained cluster keep the row-major
  box order and are re-indexed densely in increasing order.

``symmetries`` proposes generators of an automorphism group: the path's
reflection, the cycle's rotation and reflection, a unit shift and a reflection
per torus axis, and the transposition (0 1) and n-cycle of the complete graph.

Both lattices take their bonds from one enumerator of "+1 neighbour along
each axis" pairs, and connectivity (of any graph, and of the percolation
clusters) comes from one component labeling, by lowest vertex.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MAX_SIERPINSKI_LEVEL = 7  # level-8 gasket would hold ~10k vertices; cap memory

__all__ = [
    "WeightedGraph",
    "SiteWeights",
    "PercolationRetry",
    "build_graph",
    "vertex_orbits",
    "path_graph",
    "cycle_graph",
    "torus_graph",
    "complete_graph",
    "sierpinski_graph",
    "percolation_box_graph",
    "custom_graph",
    "uniform_weights",
    "site_weights",
    "load_edge_list",
    "load_site_weights",
]


class PercolationRetry(ValueError):
    """Open cluster too small to be usable; retry with another seed."""


def _cluster_roots(n: int, pairs) -> np.ndarray:
    """Lowest vertex of the component of every vertex 0..n-1 under the bonds
    ``pairs`` ((m, 2) integers).  Each round hooks every root onto a lower
    root it is bonded to, then pointer jumping flattens the forest, until
    every bond joins two equal labels; labels only decrease, so each
    component ends labeled by its lowest vertex."""
    label = np.arange(n)
    bonds = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    while True:
        ends = label[bonds]
        split = ends[:, 0] != ends[:, 1]
        if not split.any():
            return label
        bonds, ends = bonds[split], ends[split]
        label[ends.max(axis=1)] = ends.min(axis=1)
        while not np.array_equal(label[label], label):
            label = label[label]


def _lattice_bonds(dims, wrap: bool) -> np.ndarray:
    """Bonds (x, y) from each vertex x of the row-major box ``dims`` to its +1
    neighbour y along each axis, vertex-major then axis.  ``wrap`` keeps the
    periodic bonds too (those have y < x); an axis of size 1 gives none."""
    idx = np.arange(int(np.prod(dims))).reshape(dims)
    nb = np.stack([np.roll(idx, -1, axis=ax).ravel() for ax in range(len(dims))], axis=1)
    x = np.broadcast_to(idx.reshape(-1, 1), nb.shape)
    keep = nb != x if wrap else nb > x
    return np.stack([x[keep], nb[keep]], axis=1)


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Undirected connected graph with positive edge conductances.

    ``edges`` takes (x, y, c_xy) triples, (m, 3) array-like; a tuple with x < y once normalized.
    Derived arrays (``edge_x``, ``edge_y``, ``edge_c``) are built once;
    instances are immutable (identity-hashed, so they can key per-graph
    caches).  ``symmetries`` holds vertex
    permutations, unverified until :func:`vertex_orbits` checks them.
    """

    n: int
    edges: tuple
    symmetries: tuple = field(default=(), repr=False)
    edge_x: np.ndarray = field(init=False, repr=False, compare=False)
    edge_y: np.ndarray = field(init=False, repr=False, compare=False)
    edge_c: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        e = np.array(self.edges, dtype=float).reshape(len(self.edges), 3)
        x, y, c = e[:, 0].astype(np.int64), e[:, 1].astype(np.int64), e[:, 2].copy()
        lo, hi = np.minimum(x, y), np.maximum(x, y)
        keys = lo * self.n + hi
        order = np.argsort(keys, kind="stable")
        dup = np.zeros(len(e), dtype=bool)  # True after a key's first occurrence
        dup[order[1:]] = keys[order[1:]] == keys[order[:-1]]
        out = (x < 0) | (x >= self.n) | (y < 0) | (y >= self.n)
        bad_c = ~((c > 0.0) & np.isfinite(c))
        bad = np.flatnonzero(out | (x == y) | bad_c | dup)
        if bad.size:
            # the first offending edge in input order, its checks in this order
            i = bad[0]
            xi, yi = int(x[i]), int(y[i])
            if out[i]:
                raise ValueError(f"edge ({xi},{yi}) out of range for n={self.n}")
            if xi == yi:
                raise ValueError(f"self-loop at vertex {xi}")
            if bad_c[i]:
                raise ValueError(f"conductance on edge ({xi},{yi}) must be positive, got {float(c[i])}")
            raise ValueError(f"duplicate undirected edge {(int(lo[i]), int(hi[i]))}")
        roots = _cluster_roots(self.n, np.stack([lo, hi], axis=1))
        if np.any(roots != roots[0]):
            raise ValueError("graph is not connected")
        object.__setattr__(self, "edges", tuple(zip(lo.tolist(), hi.tolist(), c.tolist())))
        object.__setattr__(self, "edge_x", lo)
        object.__setattr__(self, "edge_y", hi)
        object.__setattr__(self, "edge_c", c)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def total_conductance(self) -> float:
        return float(self.edge_c.sum())


@dataclass(frozen=True, eq=False)
class SiteWeights:
    """Strictly positive probability vector over the vertices."""

    pi: np.ndarray

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=float)
        if pi.ndim != 1 or pi.size < 1:
            raise ValueError("site-weights must be a non-empty 1-d vector")
        if not np.all(pi > 0.0):
            raise ValueError("site-weights must be strictly positive everywhere")
        if abs(float(pi.sum()) - 1.0) > 1e-12:
            raise ValueError(f"site-weights must sum to 1 within 1e-12, got {pi.sum()!r}")
        object.__setattr__(self, "pi", pi)

    @property
    def n(self) -> int:
        return self.pi.size


def uniform_weights(n: int) -> SiteWeights:
    """Uniform site-weights 1/n on n vertices."""
    if n < 1:
        raise ValueError("need at least one vertex")
    return SiteWeights(np.full(n, 1.0 / n))


def site_weights(values) -> SiteWeights:
    """Site-weights from an arbitrary positive vector, normalized to sum 1."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 1 or not np.all(v > 0):
        raise ValueError("site-weights must be a positive 1-d vector")
    return SiteWeights(v / v.sum())


def _apply_conductance(pairs, conductance) -> np.ndarray:
    """(m, 3) float array of the (x, y, c) triples of the m bonds ``pairs``."""
    pairs = np.asarray(pairs, dtype=float).reshape(-1, 2)
    if np.isscalar(conductance):
        c = float(conductance)
        if not c > 0:
            raise ValueError("conductance must be positive")
        return np.column_stack([pairs, np.full(len(pairs), c)])
    cs = [float(c) for c in conductance]
    if len(cs) != len(pairs):
        raise ValueError(f"need {len(pairs)} conductances, got {len(cs)}")
    return np.column_stack([pairs, cs])


def path_graph(size: int, conductance=1.0) -> WeightedGraph:
    if size < 1:
        raise ValueError("path size must be >= 1")
    pairs = [(i, i + 1) for i in range(size - 1)]
    return WeightedGraph(size, _apply_conductance(pairs, conductance),
                         (np.arange(size)[::-1],))


def cycle_graph(size: int, conductance=1.0) -> WeightedGraph:
    if size < 2:
        raise ValueError("cycle size must be >= 2")
    if size == 2:
        # wrap-around duplicates the single edge; keep one
        pairs = [(0, 1)]
    else:
        pairs = [(i, (i + 1) % size) for i in range(size)]
    v = np.arange(size)
    return WeightedGraph(size, _apply_conductance(pairs, conductance),
                         ((v + 1) % size, -v % size))


def torus_graph(dims, conductance=1.0) -> WeightedGraph:
    """Periodic lattice on prod(dims) vertices; row-major coordinate order.

    Axes of size 1 contribute no edges; axes of size 2 contribute a single
    (not doubled) edge per wrap pair.
    """
    dims = [int(d) for d in dims]
    if len(dims) < 1 or any(d < 1 for d in dims):
        raise ValueError("torus dims must be >= 1")
    bonds = _lattice_bonds(dims, wrap=True).tolist()
    pairs = sorted({(min(x, y), max(x, y)) for x, y in bonds})
    idx = np.arange(int(np.prod(dims))).reshape(dims)
    moves = tuple(m.ravel() for ax in range(len(dims))
                  for m in (np.roll(idx, -1, axis=ax), np.flip(idx, axis=ax)))
    return WeightedGraph(idx.size, _apply_conductance(pairs, conductance), moves)


def complete_graph(size: int, conductance=1.0) -> WeightedGraph:
    if size < 2:
        raise ValueError("complete graph size must be >= 2")
    pairs = np.stack(np.triu_indices(size, 1), axis=1)
    v = np.arange(size)
    return WeightedGraph(size, _apply_conductance(pairs, conductance),
                         (np.r_[1, 0, v[2:]], (v + 1) % size))


def sierpinski_graph(level: int, conductance=1.0) -> WeightedGraph:
    """Level-L gasket approximation with unit-side triangles.

    Vertices are integer points (row, col) with 0 <= col <= row <= 2**L that
    survive the recursive corner subdivision; the index map sorts them
    lexicographically.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    if level > MAX_SIERPINSKI_LEVEL:
        raise ValueError(f"level capped at {MAX_SIERPINSKI_LEVEL} to bound memory")
    edges = set()

    def recurse(r, c, size):
        # triangle with apex (r, c), spanning `size` rows downward
        if size == 1:
            v0 = (r, c)
            v1 = (r + 1, c)
            v2 = (r + 1, c + 1)
            for a, b in ((v0, v1), (v0, v2), (v1, v2)):
                edges.add((min(a, b), max(a, b)))
            return
        half = size // 2
        recurse(r, c, half)
        recurse(r + half, c, half)
        recurse(r + half, c + half, half)

    recurse(0, 0, 2 ** level)
    verts = sorted({v for e in edges for v in e})
    index = {v: i for i, v in enumerate(verts)}
    pairs = sorted((index[a], index[b]) for (a, b) in edges)
    return WeightedGraph(len(verts), _apply_conductance(pairs, conductance))


def percolation_box_graph(dims, p_open: float, seed: int, conductance=1.0) -> WeightedGraph:
    """Largest open cluster of bond percolation in a (non-periodic) box.

    Each nearest-neighbor bond of the box is kept independently with
    probability ``p_open``, using a counter-based stream keyed by ``seed``
    (bit-identical across runs).  The largest connected cluster is retained;
    a cluster below 2 vertices, or below half the box volume, raises
    :class:`PercolationRetry` (supercritical fingerprint regime only).
    """
    dims = [int(d) for d in dims]
    if any(d < 1 for d in dims):
        raise ValueError("box dims must be >= 1")
    if not (0.0 < p_open <= 1.0):
        raise ValueError("p_open must lie in (0, 1]")
    n = int(np.prod(dims))
    bonds = _lattice_bonds(dims, wrap=False)
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    open_bonds = bonds[rng.random(len(bonds)) < p_open]
    roots = _cluster_roots(n, open_bonds)
    # argmax finds the lowest vertex of any largest cluster, so ties go to the
    # cluster whose smallest vertex is lowest
    root = roots[np.argmax(np.bincount(roots, minlength=n)[roots])]
    cluster = np.flatnonzero(roots == root)
    if len(cluster) < 2:
        raise PercolationRetry(
            f"largest open cluster has {len(cluster)} vertex; retry with another seed"
        )
    if len(cluster) < n / 2:
        raise PercolationRetry(
            f"largest open cluster covers {len(cluster)}/{n} vertices (< half the box); "
            "increase p_open or retry with another seed"
        )
    remap = np.full(n, -1)
    remap[cluster] = np.arange(len(cluster))
    inner = remap[open_bonds[roots[open_bonds[:, 0]] == root]]
    pairs = sorted(map(tuple, inner.tolist()))
    return WeightedGraph(len(cluster), _apply_conductance(pairs, conductance))


def custom_graph(edge_list, n: int | None = None, conductance=None) -> WeightedGraph:
    """Graph from explicit (x, y[, c]) triples; rejected if disconnected."""
    triples = []
    for e in edge_list:
        if len(e) == 3:
            triples.append((int(e[0]), int(e[1]), float(e[2])))
        elif len(e) == 2:
            triples.append((int(e[0]), int(e[1]), 1.0))
        else:
            raise ValueError(f"edge entries must be (x, y) or (x, y, c), got {e!r}")
    if n is None:
        n = 1 + max(max(x, y) for (x, y, _) in triples) if triples else 1
    if conductance is not None:
        triples = _apply_conductance([(x, y) for (x, y, _) in triples], conductance)
    return WeightedGraph(n, triples)


def build_graph(kind: str, *, size=None, dims=None, level=None, p_open=None,
                seed=None, edge_list=None, conductance=None) -> WeightedGraph:
    """Dispatch builder: kind in {path, cycle, torus, complete, sierpinski,
    percolation_box, custom}.  ``conductance`` None keeps the builder's
    default 1.0 or a custom edge list's own values; any value overrides."""
    if kind == "custom":
        return custom_graph(edge_list, conductance=conductance)
    conductance = 1.0 if conductance is None else conductance
    if kind == "path":
        return path_graph(size, conductance)
    if kind == "cycle":
        return cycle_graph(size, conductance)
    if kind == "torus":
        return torus_graph(dims, conductance)
    if kind == "complete":
        return complete_graph(size, conductance)
    if kind == "sierpinski":
        return sierpinski_graph(level, conductance)
    if kind == "percolation_box":
        if seed is None:
            raise ValueError("percolation_box needs a seed")
        return percolation_box_graph(dims, p_open, seed, conductance)
    raise ValueError(f"unknown graph kind {kind!r}")


def vertex_orbits(graph: WeightedGraph, weights: SiteWeights) -> np.ndarray:
    """Lowest vertex of the orbit of every vertex under the graph's
    ``symmetries`` that are exact automorphisms: pi[s] == pi, and the sorted
    (min, max) keys of the image edges (s x, s y) equal the edge keys, with
    the same conductances.  A dropped generator only splits orbits; with none kept,
    every vertex is its own orbit."""
    n = graph.n
    keys = graph.edge_x * n + graph.edge_y
    order = np.argsort(keys)
    pairs = [np.zeros((0, 2), dtype=np.int64)]
    for s in map(np.asarray, graph.symmetries):
        sx, sy = s[graph.edge_x], s[graph.edge_y]
        image = np.minimum(sx, sy) * n + np.maximum(sx, sy)
        moved = np.argsort(image)
        if (np.array_equal(weights.pi[s], weights.pi) and np.array_equal(image[moved], keys[order])
                and np.array_equal(graph.edge_c[moved], graph.edge_c[order])):
            pairs.append(np.stack([np.arange(n), s], axis=1))
    return _cluster_roots(n, np.concatenate(pairs))


def load_edge_list(path) -> list:
    """Read `x y c_xy` triples, one per line; `#` starts a comment."""
    triples = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 'x y c_xy', got {line!r}")
            triples.append((int(parts[0]), int(parts[1]), float(parts[2])))
    return triples


def load_site_weights(path) -> SiteWeights:
    """Read one weight per line (comments allowed); normalizes to sum 1."""
    vals = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                vals.append(float(line))
    return site_weights(vals)
