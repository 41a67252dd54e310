"""Metamorphic properties of the exact engine: relabeling the vertices,
scaling every conductance, and rescaling the site weights change the gaps,
the exact TV profile and the exact L^2 error only as the symmetry predicts.

Each example is a random connected graph on 4 to 6 vertices with random
conductances and site weights, k = 3 particles (20 to 56 states), and the
gap on both the dense and the Lanczos route.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from binsplit.distances import l2_sq_exact, tv_profile_exact
from binsplit.graphs import WeightedGraph, site_weights
from binsplit.spectral import (enumerate_configs, generator_splitting,
                               multinomial_measure, spectral_gap)

K = 3
TIMES = (0.05, 0.3, 1.0, 2.5)
TOL = 1e-12


@st.composite
def instances(draw):
    """(n, edges, conductances, raw site weights, start, profile, relabeling)."""
    n = draw(st.integers(4, 6))
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
    lanczos = spectral_gap(Q, mu, dense_cutoff=0).gap
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
