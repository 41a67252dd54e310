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

Every builder passes its integer pairs and ``conductance`` straight in, and
a graph keeps them once, as the arrays ``edge_x`` < ``edge_y`` and ``edge_c``.
Their order is part of the Monte Carlo layout (the cumulative conductances
pick each mark's edge) and fixes the order the generators sum diagonals in.

Both lattices take their bonds from one enumerator of "+1 neighbour along
each axis" pairs.  One component labeling, by lowest vertex, serves graphs,
percolation clusters, symmetry orbits and ``spectral_gap``'s reducibility.
"""

from __future__ import annotations

import operator
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


def _cluster_roots(n: int, x, y) -> np.ndarray:
    """Lowest vertex of the component of every vertex 0..n-1 under the bonds
    (x[i], y[i]).  Each round hooks every root onto a lower root it is bonded
    to, then pointer jumping flattens the forest, until every bond joins two
    equal labels; labels only decrease, so each component ends labeled by its
    lowest vertex."""
    label = np.arange(n)
    while True:
        lx, ly = label[x], label[y]
        split = lx != ly
        if not split.any():
            return label
        if not split.all():  # a round that splits every bond copies none
            x, y, lx, ly = x[split], y[split], lx[split], ly[split]
        label[np.maximum(lx, ly)] = np.minimum(lx, ly)
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


@dataclass(frozen=True, eq=False, init=False)
class WeightedGraph:
    """Undirected connected graph with positive edge conductances.

    Takes integer endpoints ``pairs`` ((m, 2) array-like) and one
    ``conductance`` for all edges or m of them.  Keeps them once, as arrays
    in input order: ``edge_x`` < ``edge_y`` (int64) and ``edge_c``;
    ``edges``, the (x, y, c_xy) triples, is built on each access.
    Instances are immutable (identity-hashed, so they can key per-graph
    caches).  ``symmetries`` holds vertex permutations, unverified until
    :func:`vertex_orbits` checks them.
    """

    n: int
    edge_x: np.ndarray = field(repr=False)
    edge_y: np.ndarray = field(repr=False)
    edge_c: np.ndarray = field(repr=False)
    symmetries: tuple = field(repr=False)

    def __init__(self, n: int, pairs, conductance=1.0, symmetries: tuple = ()):
        ends = np.asarray(pairs).reshape(len(pairs), 2)
        c = np.array(conductance, dtype=float)
        if c.ndim == 0 and not c > 0:
            raise ValueError("conductance must be positive")
        if c.ndim and c.shape != (len(ends),):
            raise ValueError(f"need {len(ends)} conductances, got {c.size}")
        c = np.broadcast_to(c, len(ends)).copy()
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        whole = np.ones(len(ends), dtype=bool)
        if ends.dtype.kind not in "iu":
            ends = ends.astype(float)
            whole = np.all(np.isfinite(ends) & (ends == np.round(ends)), axis=1)
        out = whole & np.any((ends < 0) | (ends >= n), axis=1)
        valid = whole & ~out  # endpoints that index a vertex; the rest read as 0
        lo = np.where(valid, ends.min(axis=1), 0).astype(np.int64, copy=False)
        hi = np.where(valid, ends.max(axis=1), 0).astype(np.int64, copy=False)
        keys = lo * n + hi
        order = np.argsort(keys, kind="stable")
        dup = np.zeros(len(ends), dtype=bool)  # True after a key's first occurrence
        dup[order[1:]] = np.diff(keys[order]) == 0
        del keys, order  # the component labeling below sets the peak memory
        bad_c = ~((c > 0.0) & np.isfinite(c))
        bad = np.flatnonzero(~valid | (lo == hi) | bad_c | dup)
        if bad.size:
            # the first offending edge in input order, its checks in this order
            i = bad[0]
            if not whole[i]:
                raise ValueError(f"edge ({ends[i, 0]:g},{ends[i, 1]:g}) needs integer endpoints")
            xi, yi = int(ends[i, 0]), int(ends[i, 1])
            if out[i]:
                raise ValueError(f"edge ({xi},{yi}) out of range for n={n}")
            if xi == yi:
                raise ValueError(f"self-loop at vertex {xi}")
            if bad_c[i]:
                raise ValueError(f"conductance on edge ({xi},{yi}) must be positive, got {float(c[i])}")
            raise ValueError(f"duplicate undirected edge {(int(lo[i]), int(hi[i]))}")
        roots = _cluster_roots(n, lo, hi)
        if np.any(roots != roots[0]):
            raise ValueError("graph is not connected")
        self.__dict__.update(n=n, edge_x=lo, edge_y=hi, edge_c=c, symmetries=symmetries)

    @property
    def edges(self) -> tuple:
        """The (x, y, c_xy) triples as a tuple of Python tuples, in edge order."""
        return tuple(zip(self.edge_x.tolist(), self.edge_y.tolist(), self.edge_c.tolist()))

    @property
    def n_edges(self) -> int:
        return self.edge_x.size

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


def path_graph(size: int, conductance=1.0) -> WeightedGraph:
    if size < 1:
        raise ValueError("path size must be >= 1")
    v = np.arange(size)
    return WeightedGraph(size, np.stack([v[:-1], v[1:]], axis=1), conductance, (v[::-1],))


def cycle_graph(size: int, conductance=1.0) -> WeightedGraph:
    if size < 2:
        raise ValueError("cycle size must be >= 2")
    v = np.arange(size)
    # (i, i+1 mod size); at size 2 the wrap-around duplicates the single edge
    pairs = np.stack([v, (v + 1) % size], axis=1)[:size if size > 2 else 1]
    return WeightedGraph(size, pairs, conductance, ((v + 1) % size, -v % size))


def torus_graph(dims, conductance=1.0) -> WeightedGraph:
    """Periodic lattice on prod(dims) vertices; row-major coordinate order.

    Axes of size 1 contribute no edges; axes of size 2 contribute a single
    (not doubled) edge per wrap pair.
    """
    dims = [int(d) for d in dims]
    if len(dims) < 1 or any(d < 1 for d in dims):
        raise ValueError("torus dims must be >= 1")
    pairs = np.unique(np.sort(_lattice_bonds(dims, wrap=True), axis=1), axis=0)
    idx = np.arange(int(np.prod(dims))).reshape(dims)
    moves = tuple(m.ravel() for ax in range(len(dims))
                  for m in (np.roll(idx, -1, axis=ax), np.flip(idx, axis=ax)))
    return WeightedGraph(idx.size, pairs, conductance, moves)


def complete_graph(size: int, conductance=1.0) -> WeightedGraph:
    if size < 2:
        raise ValueError("complete graph size must be >= 2")
    pairs = np.stack(np.triu_indices(size, 1), axis=1)
    v = np.arange(size)
    return WeightedGraph(size, pairs, conductance, (np.r_[1, 0, v[2:]], (v + 1) % size))


def sierpinski_graph(level: int, conductance=1.0) -> WeightedGraph:
    """Level-L gasket approximation with unit-side triangles.

    Vertices are integer points (row, col) with 0 <= col <= row <= 2**L that
    survive the recursive corner subdivision; the index map sorts them
    lexicographically.  The leaf triangles are those with apex (r, c),
    r < 2**L, where the bits of c are a subset of those of r (Pascal's
    triangle mod 2); each has edges (r,c)-(r+1,c), (r,c)-(r+1,c+1) and
    (r+1,c)-(r+1,c+1).
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    if level > MAX_SIERPINSKI_LEVEL:
        raise ValueError(f"level capped at {MAX_SIERPINSKI_LEVEL} to bound memory")
    side = 2 ** level
    a = np.arange(side)
    r, c = np.nonzero((a[:, None] & a) == a)  # the leaf apexes, row by row
    top = r * (side + 1) + c  # a point's code: row * (2**L + 1) + col
    left, right = top + side + 1, top + side + 2
    points, index = np.unique(np.stack([top, left, top, right, left, right], axis=1),
                              return_inverse=True)
    pairs = np.unique(index.reshape(-1, 2), axis=0)
    return WeightedGraph(points.size, pairs, conductance)


def percolation_box_graph(dims, p_open: float, seed: int, conductance=1.0) -> WeightedGraph:
    """Largest open cluster of bond percolation in a (non-periodic) box.

    Each nearest-neighbor bond of the box is kept independently with
    probability ``p_open``, using a counter-based stream keyed by ``seed``
    (bit-identical across runs; an integer in [0, 2^64), as for
    ``simulate.make_rng``).  The largest connected cluster is retained;
    a cluster below 2 vertices, or below half the box volume, raises
    :class:`PercolationRetry` (supercritical fingerprint regime only).
    """
    dims = [int(d) for d in dims]
    if any(d < 1 for d in dims):
        raise ValueError("box dims must be >= 1")
    if not (0.0 < p_open <= 1.0):
        raise ValueError("p_open must lie in (0, 1]")
    seed = operator.index(seed)
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    n = int(np.prod(dims))
    bonds = _lattice_bonds(dims, wrap=False)
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    open_bonds = bonds[rng.random(len(bonds)) < p_open]
    roots = _cluster_roots(n, *open_bonds.T)
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
    inner = np.searchsorted(cluster, open_bonds[roots[open_bonds[:, 0]] == root])
    return WeightedGraph(len(cluster), np.unique(inner, axis=0), conductance)


def custom_graph(edge_list, n: int | None = None, conductance=None) -> WeightedGraph:
    """Graph from explicit (x, y[, c]) triples; rejected if disconnected."""
    triples = []
    for e in edge_list:
        if len(e) not in (2, 3):
            raise ValueError(f"edge entries must be (x, y) or (x, y, c), got {e!r}")
        triples.append((e[0], e[1], e[2] if len(e) == 3 else 1.0))
    triples = np.array(triples, dtype=float).reshape(-1, 3)
    ends = triples[:, :2]
    if n is None:  # WeightedGraph rejects a non-integer or NaN endpoint
        n = 1 + int(ends[np.isfinite(ends)].max(initial=0))
    return WeightedGraph(n, ends, triples[:, 2] if conductance is None else conductance)


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
    images = [np.zeros(0, dtype=np.int64)]
    for s in map(np.asarray, graph.symmetries):
        sx, sy = s[graph.edge_x], s[graph.edge_y]
        image = np.minimum(sx, sy) * n + np.maximum(sx, sy)
        moved = np.argsort(image)
        if (np.array_equal(weights.pi[s], weights.pi) and np.array_equal(image[moved], keys[order])
                and np.array_equal(graph.edge_c[moved], graph.edge_c[order])):
            images.append(s)
    moved = np.concatenate(images)  # vertex i % n is bonded to its image moved[i]
    return _cluster_roots(n, np.arange(moved.size) % n, moved)


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
