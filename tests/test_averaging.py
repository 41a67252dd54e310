import math

import numpy as np
import pytest

from binsplit.averaging import (as_simplex, avg_generator_apply, edge_update,
                                l2_drop, transport_norm)
from binsplit.graphs import (cycle_graph, path_graph, site_weights,
                             uniform_weights)
from binsplit.spectral import dirichlet_single_particle


def test_edge_update_examples():
    w = uniform_weights(2)
    assert np.allclose(edge_update(np.array([1.0, 0.0]), (0, 1), w), [0.5, 0.5])
    w2 = site_weights([1 / 3, 2 / 3])
    out = edge_update(np.array([1.0, 0.0]), (0, 1), w2)
    assert np.allclose(out, [1 / 3, 2 / 3])
    # the absorbing point is fixed
    w3 = site_weights([0.2, 0.3, 0.5])
    assert np.allclose(edge_update(w3.pi.copy(), (0, 2), w3), w3.pi, atol=1e-16)


def test_edge_update_rejects_loop_and_conserves_mass():
    w = uniform_weights(3)
    with pytest.raises(ValueError):
        edge_update(np.array([0.3, 0.3, 0.4]), (1, 1), w)
    rng = np.random.default_rng(3)
    w4 = site_weights([0.1, 0.2, 0.3, 0.4])
    for _ in range(200):
        eta = rng.dirichlet(np.ones(4))
        x = int(rng.integers(0, 4))
        y = (x + 1 + int(rng.integers(0, 3))) % 4
        out = edge_update(eta, (x, y), w4)
        assert abs(math.fsum(out.tolist()) - math.fsum(eta.tolist())) <= 1e-15
        untouched = [z for z in range(4) if z not in (x, y)]
        assert np.array_equal(out[untouched], eta[untouched])


def test_generator_constant_and_energy_identity():
    g = cycle_graph(4)
    w = site_weights([0.1, 0.2, 0.3, 0.4])
    eta = np.array([0.4, 0.1, 0.25, 0.25])
    assert avg_generator_apply(lambda e: 7.5, eta, g, w) == 0.0
    rng = np.random.default_rng(4)
    for g2 in (cycle_graph(4), path_graph(3), cycle_graph(5)):
        w2 = site_weights(rng.uniform(0.5, 1.5, g2.n))
        for _ in range(100):
            eta = rng.dirichlet(np.ones(g2.n))
            lhs = avg_generator_apply(
                lambda e: transport_norm(e, w2, 2.0) ** 2, eta, g2, w2)
            rhs = -dirichlet_single_particle(g2, w2, eta / w2.pi)
            assert abs(lhs - rhs) <= 1e-10


def test_l2_drop_examples():
    w = uniform_weights(2)
    assert l2_drop(np.array([1.0, 0.0]), (0, 1), w) == pytest.approx(-1.0)
    w3 = site_weights([0.2, 0.3, 0.5])
    assert l2_drop(w3.pi.copy(), (0, 1), w3) == 0.0
    # balanced edge: equal densities see no change
    eta = np.array([0.1, 0.15, 0.75])
    assert l2_drop(eta, (0, 1), w3) == pytest.approx(0.0, abs=1e-15)


def test_l2_drop_matches_recomputation_and_descent():
    rng = np.random.default_rng(5)
    g = cycle_graph(5)
    w = site_weights(rng.uniform(0.5, 1.5, 5))
    for _ in range(500):
        eta = rng.dirichlet(np.ones(5))
        e = g.edges[int(rng.integers(g.n_edges))]
        before = transport_norm(eta, w, 2.0) ** 2
        after = transport_norm(edge_update(eta, (e[0], e[1]), w), w, 2.0) ** 2
        drop = l2_drop(eta, (e[0], e[1]), w)
        assert drop <= 0.0
        assert abs((after - before) - drop) <= 1e-12


def test_transport_norm_examples():
    w3 = site_weights([0.2, 0.3, 0.5])
    for p in (1.0, 1.5, 2.0, math.inf):
        assert transport_norm(w3.pi.copy(), w3, p) == 0.0
    w = uniform_weights(2)
    assert transport_norm(np.array([1.0, 0.0]), w, 2.0) == pytest.approx(1.0)
    rng = np.random.default_rng(6)
    for _ in range(50):
        eta = rng.dirichlet(np.ones(3))
        n1 = transport_norm(eta, w3, 1.0)
        n2 = transport_norm(eta, w3, 2.0)
        ninf = transport_norm(eta, w3, math.inf)
        assert n1 <= n2 + 1e-14
        assert n2 <= ninf + 1e-14
    with pytest.raises(ValueError):
        transport_norm(np.array([1.0, 0.0]), w, 0.5)


def test_as_simplex_validation():
    as_simplex(np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        as_simplex(np.array([0.6, 0.6]))
    with pytest.raises(ValueError):
        as_simplex(np.array([1.5, -0.5]))
    with pytest.raises(ValueError, match="non-finite"):
        as_simplex(np.array([np.nan, 1.0]))
