import math
import tracemalloc
import warnings

import numpy as np
import pytest

from binsplit.graphs import (PercolationRetry, SiteWeights, WeightedGraph, _cluster_roots,
                             build_graph, complete_graph, custom_graph, cycle_graph,
                             load_edge_list, load_site_weights, path_graph,
                             percolation_box_graph, sierpinski_graph,
                             site_weights, torus_graph, uniform_weights)


def test_cycle4_counts():
    g = cycle_graph(4)
    assert g.n == 4
    assert g.n_edges == 4
    assert all(c == 1.0 for (_, _, c) in g.edges)


def test_complete4_counts():
    assert complete_graph(4).n_edges == 6


def brute_torus_pairs(dims):
    # independent oracle: enumerate nearest-neighbor pairs with periodic wrap
    n = int(np.prod(dims))
    pairs = set()
    for flat in range(n):
        coord = list(np.unravel_index(flat, dims))
        for ax, d in enumerate(dims):
            for step in (-1, 1):
                nb = coord.copy()
                nb[ax] = (nb[ax] + step) % d
                j = int(np.ravel_multi_index(nb, dims))
                if j != flat:
                    pairs.add((min(flat, j), max(flat, j)))
    return pairs


def test_torus_3x3_counts():
    g = torus_graph([3, 3])
    oracle = brute_torus_pairs([3, 3])
    assert g.n == 9
    assert g.n_edges == len(oracle) == 18
    assert {(x, y) for (x, y, _) in g.edges} == oracle


def test_torus_matches_cycle_up_to_relabeling():
    for m in (3, 5, 8):
        assert sorted(torus_graph([m]).edges) == sorted(cycle_graph(m).edges)


def test_uniform_weights_examples():
    assert np.allclose(uniform_weights(4).pi, 0.25)
    assert uniform_weights(1).pi.tolist() == [1.0]
    assert abs(uniform_weights(3).pi.sum() - 1.0) <= 1e-12
    with pytest.raises(ValueError):
        uniform_weights(0)


def test_invalid_graphs_rejected():
    with pytest.raises(ValueError, match="self-loop"):
        WeightedGraph(3, ((0, 0),))
    with pytest.raises(ValueError, match="duplicate"):
        WeightedGraph(3, ((0, 1), (1, 0), (1, 2)), (1.0, 2.0, 1.0))
    with pytest.raises(ValueError, match="positive"):
        WeightedGraph(2, ((0, 1),), [0.0])
    with pytest.raises(ValueError, match="not connected"):
        WeightedGraph(4, ((0, 1), (2, 3)))
    with pytest.raises(ValueError, match="not connected"):
        WeightedGraph(4, ((0, 1), (1, 2), (0, 2)))
    # the first offending edge in input order is named, its checks in the
    # order range, self-loop, conductance, duplicate
    for n, pairs, c, message in (
            (3, ((0, 1), (0, 5), (1, 1)), 1.0, "edge (0,5) out of range for n=3"),
            (3, ((0, 1), (-1, -1)), (1.0, 0.0), "edge (-1,-1) out of range for n=3"),
            (3, ((0, 1), (1, 1), (1, 0)), (1.0, -1.0, 1.0), "self-loop at vertex 1"),
            (3, ((0, 1), (2, 1), (1, 0)), (1.0, math.nan, 1.0),
             "conductance on edge (2,1) must be positive, got nan"),
            (3, ((0, 1), (2, 1)), (1.0, math.inf), "conductance on edge (2,1) must be positive, got inf"),
            (3, ((0, 1), (1, 2), (2, 1), (2, 2)), (1.0, 1.0, 2.0, 1.0), "duplicate undirected edge (1, 2)"),
            # one conductance for every edge is checked before any edge
            (3, ((0, 5), (1, 1)), -1.0, "conductance must be positive"),
            (3, ((0, 1), (1, 2)), (1.0,), "need 2 conductances, got 1")):
        with pytest.raises(ValueError) as err:
            WeightedGraph(n, pairs, c)
        assert str(err.value) == message


@pytest.mark.parametrize("build, message", [
    (lambda: WeightedGraph(3, [(0, 1.5), (1, 2)]), "edge (0,1.5)"),
    (lambda: custom_graph([(0, 1.7), (1, 2)]), "edge (0,1.7)"),
    (lambda: WeightedGraph(3, [(0, math.nan), (1, 2)]), "edge (0,nan)"),
], ids=["fraction", "custom-fraction", "nan"])
def test_non_integer_endpoint_rejected(build, message):
    # once truncated to edge (0, 1), or cast to int64 with a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            build()
    assert str(err.value) == f"{message} needs integer endpoints"


def test_cluster_roots_label_components_by_lowest_vertex():
    # against a union-find loop: the same components, each labeled by its
    # lowest vertex
    rng = np.random.default_rng(5)
    for n, m in ((1, 0), (6, 0), (10, 4), (30, 25), (60, 200)):
        bonds = rng.integers(0, n, size=(m, 2))
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                a = parent[a]
            return a

        for x, y in bonds.tolist():
            parent[find(x)] = find(y)
        comp = [find(v) for v in range(n)]
        lowest = [comp.index(comp[v]) for v in range(n)]
        assert _cluster_roots(n, bonds[:, 0], bonds[:, 1]).tolist() == lowest


def test_invalid_weights_rejected():
    with pytest.raises(ValueError):
        SiteWeights(np.array([0.5, 0.5, 0.0]))
    with pytest.raises(ValueError):
        SiteWeights(np.array([0.6, 0.6]))
    assert site_weights([2, 3, 5]).pi.tolist() == [0.2, 0.3, 0.5]


def test_builders_connected_and_positive():
    suite = [
        path_graph(1),
        path_graph(7),
        cycle_graph(2),
        cycle_graph(9, conductance=0.5),
        torus_graph([2, 3]),
        torus_graph([4, 4], conductance=2.0),
        complete_graph(5),
        sierpinski_graph(0),
        sierpinski_graph(3),
        percolation_box_graph([6, 6], 0.9, seed=4),
    ]
    for g in suite:
        assert np.all(g.edge_c > 0)
        # constructor enforces connectivity; re-check the public invariant
        assert WeightedGraph(g.n, np.stack([g.edge_x, g.edge_y], axis=1), g.edge_c).n == g.n


def test_sierpinski_counts_and_cap():
    # level-L gasket: 3 (3^L + 1) / 2 vertices, 3^(L+1) edges
    for level in (0, 1, 2, 3):
        g = sierpinski_graph(level)
        assert g.n == 3 * (3 ** level + 1) // 2
        assert g.n_edges == 3 ** (level + 1)
    with pytest.raises(ValueError, match="cap"):
        sierpinski_graph(8)


def test_percolation_deterministic_and_supercritical():
    g1 = percolation_box_graph([8, 8], 0.8, seed=11)
    g2 = percolation_box_graph([8, 8], 0.8, seed=11)
    assert g1.edges == g2.edges
    assert g1.n >= 32  # at least half the box
    with pytest.raises(PercolationRetry, match="retry"):
        percolation_box_graph([8, 8], 0.05, seed=1)


def test_per_edge_conductance_list():
    g = path_graph(3, conductance=[1.5, 2.5])
    assert [c for (_, _, c) in g.edges] == [1.5, 2.5]
    with pytest.raises(ValueError):
        path_graph(3, conductance=[1.0])


def test_build_graph_dispatch():
    assert build_graph("cycle", size=5).n == 5
    assert build_graph("torus", dims=[3, 3]).n_edges == 18
    assert build_graph("complete", size=4).n_edges == 6
    g = build_graph("custom", edge_list=[(0, 1, 2.0), (1, 2, 1.0)])
    assert g.n == 3
    with pytest.raises(ValueError, match="not connected"):
        build_graph("custom", edge_list=[(0, 1, 1.0), (2, 3, 1.0)])
    with pytest.raises(ValueError, match="unknown"):
        build_graph("hypercube", size=3)


def test_edge_list_file_roundtrip(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("# comment line\n0 1 1.5\n1 2 2.0  # trailing comment\n\n")
    triples = load_edge_list(p)
    assert triples == [(0, 1, 1.5), (1, 2, 2.0)]
    w = tmp_path / "weights.txt"
    w.write_text("1\n2\n# comment\n5\n")
    sw = load_site_weights(w)
    assert np.allclose(sw.pi, [0.125, 0.25, 0.625])
    with pytest.raises(ValueError, match="expected"):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\n")
        load_edge_list(bad)


# References: the per-vertex loops and the union-find that the lattice
# builders used before the shared bond enumerator, kept to pin the edge
# orders (and the Philox keep-mask alignment) of the numpy rewrite.

def reference_torus_pairs(dims):
    n = int(np.prod(dims))
    pairs = []
    seen = set()
    for flat in range(n):
        coord = list(np.unravel_index(flat, dims))
        for ax, d in enumerate(dims):
            if d == 1:
                continue
            nb = coord.copy()
            nb[ax] = (nb[ax] + 1) % d
            j = int(np.ravel_multi_index(nb, dims))
            if j == flat:
                continue
            key = (min(flat, j), max(flat, j))
            if key not in seen:
                seen.add(key)
                pairs.append(key)
    pairs.sort()
    return pairs


def reference_percolation_pairs(dims, p_open, seed):
    n = int(np.prod(dims))
    bonds = []
    for flat in range(n):
        coord = list(np.unravel_index(flat, dims))
        for ax, d in enumerate(dims):
            if coord[ax] + 1 < d:
                nb = coord.copy()
                nb[ax] += 1
                bonds.append((flat, int(np.ravel_multi_index(nb, dims))))
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    keep = rng.random(len(bonds)) < p_open
    open_bonds = [b for b, k in zip(bonds, keep) if k]
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for x, y in open_bonds:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry
    comp = {}
    for v in range(n):
        comp.setdefault(find(v), []).append(v)
    cluster = max(comp.values(), key=len)
    if len(cluster) < 2:
        raise PercolationRetry(
            f"largest open cluster has {len(cluster)} vertex; retry with another seed"
        )
    if len(cluster) < n / 2:
        raise PercolationRetry(
            f"largest open cluster covers {len(cluster)}/{n} vertices (< half the box); "
            "increase p_open or retry with another seed"
        )
    cluster_sorted = sorted(cluster)
    remap = {v: i for i, v in enumerate(cluster_sorted)}
    inside = set(cluster_sorted)
    pairs = sorted((remap[min(x, y)], remap[max(x, y)])
                   for (x, y) in open_bonds if x in inside and y in inside)
    return len(cluster_sorted), pairs


def reference_sierpinski(level):
    edges = set()

    def recurse(r, c, size):
        # triangle with apex (r, c), spanning `size` rows downward
        if size == 1:
            v0, v1, v2 = (r, c), (r + 1, c), (r + 1, c + 1)
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
    return len(verts), sorted((index[a], index[b]) for (a, b) in edges)


def assert_edge_arrays(g, pairs, c=1.0):
    # the exact arrays, in order: the cumulative conductances pick each Monte
    # Carlo mark's edge, and the generators sum their diagonals in edge order
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    assert g.edge_x.dtype == g.edge_y.dtype == np.int64 and g.edge_c.dtype == np.float64
    assert np.array_equal(g.edge_x, pairs[:, 0]) and np.array_equal(g.edge_y, pairs[:, 1])
    assert np.array_equal(g.edge_c, np.broadcast_to(c, len(pairs)))


def test_path_cycle_complete_edges_match_reference_loops():
    for size in range(1, 13):
        assert_edge_arrays(path_graph(size), [(i, i + 1) for i in range(size - 1)])
    for size in range(2, 13):
        pairs = [(0, 1)] if size == 2 else [(min(i, (i + 1) % size), max(i, (i + 1) % size))
                                            for i in range(size)]
        assert_edge_arrays(cycle_graph(size, conductance=0.5), pairs, 0.5)
    for size in (2, 5, 64):
        assert_edge_arrays(complete_graph(size),
                           [(x, y) for x in range(size) for y in range(x + 1, size)])


def test_sierpinski_edges_match_reference_recursion():
    for level in range(8):
        g = sierpinski_graph(level)
        n, pairs = reference_sierpinski(level)
        assert g.n == n
        assert_edge_arrays(g, pairs)


def test_graph_keeps_only_its_edge_arrays():
    # the (x, y, c) tuple is a view built on access; retained memory is the
    # three arrays and the two symmetry permutations
    tracemalloc.start()
    try:
        g = complete_graph(256)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    arrays = g.edge_x.nbytes + g.edge_y.nbytes + g.edge_c.nbytes
    assert held <= 1.25 * arrays
    assert g.edges == tuple((x, y, 1.0) for x in range(256) for y in range(x + 1, 256))
    assert g.n_edges == 32640


def test_complete_graph_peaks_within_four_times_its_edge_arrays():
    # the builder's integer pairs go straight into the graph, with no float
    # (m, 3) triple array or copy of it, so building 2.1M edges peaks within
    # 4x the 48 MiB of arrays kept
    tracemalloc.start()
    try:
        g = complete_graph(2048)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * (g.edge_x.nbytes + g.edge_y.nbytes + g.edge_c.nbytes)


def test_torus_edges_match_reference_loop():
    for dims in ([1], [2], [5], [2, 2], [2, 3], [1, 4], [3, 1, 4], [2, 2, 2], [6, 6]):
        g = torus_graph(dims)
        assert g.n == int(np.prod(dims))
        assert g.edges == tuple((x, y, 1.0) for (x, y) in reference_torus_pairs(dims))
        assert_edge_arrays(g, reference_torus_pairs(dims))


def test_percolation_matches_reference_loop():
    cases = retries = 0
    for dims in ([1], [6], [2, 2], [4, 4], [3, 5], [6, 6], [2, 3, 4], [3, 3, 3]):
        for p_open in (0.3, 0.6, 1.0):
            for seed in range(10):
                try:
                    n, pairs = reference_percolation_pairs(dims, p_open, seed)
                except PercolationRetry as ref:
                    with pytest.raises(PercolationRetry) as got:
                        percolation_box_graph(dims, p_open, seed)
                    assert str(got.value) == str(ref)
                    retries += 1
                    continue
                g = percolation_box_graph(dims, p_open, seed)
                assert g.n == n
                assert g.edges == tuple((x, y, 1.0) for (x, y) in pairs)
                assert_edge_arrays(g, pairs)
                cases += 1
    assert cases > 50 and retries > 20


def test_explicit_unit_conductance_overrides_custom_edges():
    edges = [(0, 1, 3.0), (1, 2, 3.0)]
    assert [c for (_, _, c) in build_graph("custom", edge_list=edges).edges] == [3.0, 3.0]
    for c in (1.0, 2.0):
        g = build_graph("custom", edge_list=edges, conductance=c)
        assert [e[2] for e in g.edges] == [c, c]
    assert build_graph("cycle", size=4).edge_c.tolist() == [1.0] * 4
    assert build_graph("cycle", size=4, conductance=0.5).edge_c.tolist() == [0.5] * 4
