"""Metamorphic properties of the exact engine: relabeling the vertices,
scaling every conductance, and rescaling the site weights change the gaps,
the exact TV profile and the exact L^2 error only as the symmetry predicts;
and an automorphism of the weighted graph leaves the TV profile of a Dirac
pile unchanged, so one pile per vertex orbit gives the worst start.

Each example is a random connected graph on 4 to 6 vertices with random
conductances and site weights, k = 3 particles (20 to 56 states), and the
gap on the dense, the Lanczos and the shift-invert route.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binsplit import harness, spectral
from binsplit.distances import l2_sq_exact, tv_profile_exact, worst_l2_sq
from binsplit.graphs import (WeightedGraph, complete_graph, cycle_graph, path_graph,
                             site_weights, torus_graph, uniform_weights, vertex_orbits)
from binsplit.simulate import make_rng
from binsplit.spectral import (enumerate_configs, generator_splitting,
                               multinomial_measure, spectral_gap)

K = 3
TIMES = (0.05, 0.3, 1.0, 2.5)
TOL = 1e-12


@st.composite
def instances(draw, min_n=4):
    """(n, edges, conductances, raw site weights, start, profile, relabeling)."""
    n = draw(st.integers(min_n, 6))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    chords = [(x, y) for x in range(n) for y in range(x + 2, n) if rng.random() < 0.5]
    edges = [(x, x + 1) for x in range(n - 1)] + chords
    c = rng.uniform(0.2, 3.0, len(edges))
    raw = rng.uniform(0.2, 3.0, n)
    xi0 = np.bincount(rng.integers(0, n, K), minlength=n)
    eta = rng.dirichlet(np.ones(n))
    return n, edges, c, raw, xi0, eta, rng.permutation(n)


def _graph(n, edges, c, perm=None, scale=1.0):
    perm = np.arange(n) if perm is None else perm
    return WeightedGraph(n, tuple((int(perm[x]), int(perm[y]), s)
                                  for (x, y), s in zip(edges, scale * c)))


def _results(graph, weights, xi0, eta, times):
    """(dense gap, Lanczos gap, TV profile from xi0, L^2 profile from eta)."""
    space = enumerate_configs(graph.n, K)
    Q = generator_splitting(graph, weights, K, space)
    mu = multinomial_measure(weights, K, space)
    dense = spectral_gap(Q, mu).gap
    with mock.patch.object(spectral, "DENSE_EIG_CUTOFF", 0):
        lanczos = spectral_gap(Q, mu).gap
    tv = np.array([d for _, d in tv_profile_exact(graph, weights, K, xi0, times, 1e-10, space)])
    l2 = np.array([l2_sq_exact(graph, weights, eta, t) for t in times])
    return dense, lanczos, tv, l2


def _assert_same(a, b, gap_factor=1.0):
    for ga, gb in zip(a[:2], b[:2]):
        assert abs(gb - gap_factor * ga) <= TOL * gap_factor * ga
    assert np.all(np.abs(a[2] - b[2]) <= TOL)
    assert np.all(np.abs(a[3] - b[3]) <= TOL * np.maximum(1.0, np.abs(a[3])))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(instances())
def test_relabeling_moves_results_with_the_labels(inst):
    n, edges, c, raw, xi0, eta, perm = inst
    inv = np.argsort(perm)  # vertex perm[x] of the relabeled graph is vertex x
    base = _results(_graph(n, edges, c), site_weights(raw), xi0, eta, TIMES)
    relabeled = _results(_graph(n, edges, c, perm), site_weights(raw[inv]),
                         xi0[inv], eta[inv], TIMES)
    _assert_same(base, relabeled)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(instances(), st.floats(1e-3, 1e3))
def test_scaling_conductances_rescales_time(inst, s):
    n, edges, c, raw, xi0, eta, _ = inst
    w = site_weights(raw)
    base = _results(_graph(n, edges, c), w, xi0, eta, TIMES)
    scaled = _results(_graph(n, edges, c, scale=s), w, xi0, eta, [t / s for t in TIMES])
    _assert_same(base, scaled, gap_factor=s)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(instances(), st.floats(1e-3, 1e3))
def test_unnormalized_site_weights_give_the_same_results(inst, s):
    n, edges, c, raw, xi0, eta, _ = inst
    g = _graph(n, edges, c)
    normalized = site_weights(raw / raw.sum())
    _assert_same(_results(g, normalized, xi0, eta, TIMES),
                 _results(g, site_weights(s * raw), xi0, eta, TIMES))


def _shift_invert_gap(graph, weights):
    """The gap on the shift-invert route: above 20 states one Lanczos restart
    is too few, so the fallback runs."""
    space = enumerate_configs(graph.n, K)
    Q = generator_splitting(graph, weights, K, space)
    routes, solve = [], spectral.eigsh

    def spy(*args, **kwargs):
        routes.append("sigma" in kwargs)
        return solve(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "LANCZOS_RESTARTS", 1)
        mp.setattr(spectral, "eigsh", spy)
        mp.setattr(spectral, "DENSE_EIG_CUTOFF", 0)
        gap = spectral_gap(Q, multinomial_measure(weights, K, space)).gap
    assert routes == [False, True]
    return gap


@settings(max_examples=15, deadline=None, derandomize=True)
@given(instances(min_n=5), st.floats(1e-3, 1e3))
def test_shift_invert_gap_moves_with_labels_and_rates(inst, s):
    n, edges, c, raw, _, _, perm = inst
    inv = np.argsort(perm)
    base = _shift_invert_gap(_graph(n, edges, c), site_weights(raw))
    relabeled = _shift_invert_gap(_graph(n, edges, c, perm), site_weights(raw[inv]))
    scaled = _shift_invert_gap(_graph(n, edges, c, scale=s), site_weights(raw))
    assert abs(relabeled - base) <= TOL * base
    assert abs(scaled - s * base) <= TOL * s * base


@settings(max_examples=15, deadline=None, derandomize=True)
@given(instances(), st.floats(1e-3, 1e3))
def test_worst_l2_sq_moves_with_labels_and_rates(inst, s):
    # eta -> eta^T M_t eta is the expected squared L^2(pi) norm of a random
    # linear image of eta, so it is convex: its max over the simplex sits on
    # the Dirac diagonal, which no random Dirichlet point exceeds, and which
    # relabeling permutes
    n, edges, c, raw, _, _, perm = inst
    inv = np.argsort(perm)
    g, w = _graph(n, edges, c), site_weights(raw)
    base = np.array(worst_l2_sq(g, w, TIMES, TOL))
    diracs = np.array([max(l2_sq_exact(g, w, e, t, TOL) for e in np.eye(n)) for t in TIMES])
    relabeled = worst_l2_sq(_graph(n, edges, c, perm), site_weights(raw[inv]), TIMES, TOL)
    scaled = worst_l2_sq(_graph(n, edges, c, scale=s), w, [t / s for t in TIMES], TOL)
    for other in (diracs, relabeled, scaled):
        assert np.all(np.abs(np.asarray(other) - base) <= TOL * np.maximum(1.0, base))


def _with_conductance(build, pick):
    """The graph ``build(c)`` with conductance ``pick(x, y)`` on edge (x, y)."""
    return build([pick(x, y) for x, y, _ in build(1.0).edges])


# (graph, number of vertex orbits): uniform and symmetric non-uniform
# conductances; the cycle's keep the reflection v -> -v only, the path's its
# reflection, the torus's every shift and reflection, the complete graph's
# the transposition (0 1) only
SYMMETRIC = [
    (cycle_graph(6), 1),
    (cycle_graph(6, [1.0, 2.0, 3.0, 3.0, 2.0, 1.0]), 4),
    (path_graph(5), 3),
    (path_graph(5, [1.0, 2.5, 2.5, 1.0]), 3),
    (torus_graph((3, 3)), 1),
    (_with_conductance(lambda c: torus_graph((3, 3), c),
                       lambda x, y: 1.0 if y - x < 3 else 2.5), 1),
    (complete_graph(5), 1),
    (_with_conductance(lambda c: complete_graph(5, c), lambda x, y: 2.0 if x < 2 else 1.0), 4),
]


@pytest.mark.parametrize("graph, orbits", SYMMETRIC)
def test_one_pile_per_orbit_gives_the_worst_start(graph, orbits):
    n = graph.n
    w = uniform_weights(n)
    roots = vertex_orbits(graph, w)
    lowest = np.array([np.flatnonzero(roots == r)[0] for r in roots])
    starts = harness._worst_dirac_starts(graph, w, seed=0)
    assert starts == sorted(set(lowest.tolist())) and len(starts) == orbits
    piles = K * np.eye(n, dtype=np.int64)
    space = enumerate_configs(n, K)
    every = tv_profile_exact(graph, w, K, piles, TIMES, 1e-10, space)
    chosen = tv_profile_exact(graph, w, K, piles[starts], TIMES, 1e-10, space)
    for (_, all_piles), (_, tv) in zip(every, chosen):
        # each orbit shares one profile, so its lowest vertex stands for it
        assert np.all(np.abs(all_piles - all_piles[lowest]) <= 1e-12)
        assert abs(tv.max() - all_piles.max()) <= 1e-12


@pytest.mark.parametrize("graph, _", SYMMETRIC)
@pytest.mark.parametrize("broken", ["weights", "conductance"])
def test_breaking_a_symmetry_brings_back_every_start(graph, _, broken):
    # distinct site weights, or a changed conductance on the first edge, (0, 1)
    # (on the complete graph (0, 2), since the transposition fixes (0, 1)),
    # leave no generator an automorphism
    n = graph.n
    w = uniform_weights(n)
    if broken == "weights":
        w = site_weights(np.arange(1.0, n + 1))
    else:
        edges = list(graph.edges)
        i = 1 if graph.n_edges == n * (n - 1) // 2 else 0
        edges[i] = edges[i][:2] + (7.0,)
        graph = WeightedGraph(n, tuple(edges), graph.symmetries)
    assert np.array_equal(vertex_orbits(graph, w), np.arange(n))
    assert harness._worst_dirac_starts(graph, w, seed=0) == list(range(n))


@pytest.mark.parametrize("build, orbits", [(lambda: cycle_graph(20), 1),
                                           (lambda: path_graph(40), 20),
                                           (lambda: torus_graph((4, 5)), 1)])
def test_more_than_16_starts_keep_the_sampling_rule(build, orbits):
    # orbits beyond WORST_START_ENUM_MAX_N are sampled from stream 3 as the
    # vertices of a graph without symmetries are; the path's lowest orbit
    # vertices are 0..19, so there the sampled index is the vertex
    graph = build()
    n, seed = graph.n, 11

    def draw(m):
        rng = make_rng(seed, stream=3)
        return sorted(rng.choice(m, size=harness.WORST_START_ENUM_MAX_N, replace=False).tolist())

    starts = harness._worst_dirac_starts(graph, uniform_weights(n), seed)
    assert starts == (draw(orbits) if orbits > harness.WORST_START_ENUM_MAX_N else [0])
    assert harness._worst_dirac_starts(graph, site_weights(np.arange(1.0, n + 1)), seed) == draw(n)
