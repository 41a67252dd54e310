import math

import numpy as np
import pytest

from binsplit import averaging
from binsplit.duality import (TensorFunction, _edge_kernel_apply, annihilate, create,
                              eigenfunction_observable, falling_factorial,
                              inner_product, intertwining_residual,
                              moment_duality, multicolored_intertwining_residual,
                              multinomial_average, orthogonal_duality,
                              particle_removal_matrix,
                              selfduality_residual,
                              symmetrize)
from binsplit.graphs import (cycle_graph, path_graph, site_weights,
                             uniform_weights)
from binsplit.simulate import SimOptions, simulate_averaging
from binsplit.spectral import (enumerate_configs, evolve_observable,
                               generator_splitting, generator_splitting_labeled,
                               labeled_states, multinomial_measure,
                               product_weights, spectral_gap)

W3 = site_weights([0.2, 0.3, 0.5])


def test_moment_duality_examples():
    assert moment_duality((0, 2, 1), W3.pi.copy(), W3) == pytest.approx(1.0)
    w2 = uniform_weights(2)
    assert moment_duality((0,), np.array([1.0, 0.0]), w2) == pytest.approx(2.0)
    rng = np.random.default_rng(0)
    for _ in range(20):
        eta = rng.dirichlet(np.ones(3))
        xs = tuple(rng.integers(0, 3, size=3))
        prod = math.prod(moment_duality((x,), eta, W3) for x in xs)
        assert moment_duality(xs, eta, W3) == pytest.approx(prod)


def test_orthogonal_duality_examples():
    assert orthogonal_duality((1, 1), W3.pi.copy(), W3) == 0.0
    rng = np.random.default_rng(1)
    for _ in range(20):
        eta = rng.dirichlet(np.ones(3))
        # mean-zero in each coordinate, any profile
        total = sum(W3.pi[x] * orthogonal_duality((x,), eta, W3) for x in range(3))
        assert abs(total) <= 1e-14
        x = int(rng.integers(3))
        assert orthogonal_duality((x,), eta, W3) == pytest.approx(
            moment_duality((x,), eta, W3) - 1.0)


def test_falling_factorial_examples():
    assert falling_factorial(np.array([0, 3]), (0,)) == 0
    assert falling_factorial(np.array([2, 1]), (0, 0)) == 2
    assert falling_factorial(np.array([2, 1]), (0, 1)) == 2
    assert falling_factorial(np.array([3, 0]), (0, 0, 0)) == 6


def test_multinomial_average_examples():
    space = enumerate_configs(3, 2)
    ones = np.ones(space.size)
    rng = np.random.default_rng(2)
    eta = rng.dirichlet(np.ones(3))
    assert multinomial_average(ones, eta, 2, space) == pytest.approx(1.0)
    for x in range(3):
        occ = space.configs[:, x].astype(float)
        assert multinomial_average(occ, eta, 2, space) == pytest.approx(2 * eta[x])
    # degenerate profile: all mass piled on vertex 0
    space2 = enumerate_configs(2, 2)
    ind = np.zeros(space2.size)
    ind[space2.rank([(2, 0)])] = 1.0
    assert multinomial_average(ind, np.array([1.0, 0.0]), 2, space2) == pytest.approx(1.0)


def test_edge_redistribution_examples():
    space = enumerate_configs(2, 2)
    const = np.full(space.size, 3.25)
    i = space.rank([(2, 0)])[0]
    assert _edge_kernel_apply(const, (0, 1), uniform_weights(2), space)[i] == pytest.approx(3.25)
    w2 = site_weights([1 / 4, 3 / 4])
    pair_count = space.configs[:, 0] + space.configs[:, 1]
    assert _edge_kernel_apply(pair_count.astype(float), (0, 1), w2,
                              space)[i] == pytest.approx(2.0)
    occ_x = space.configs[:, 0].astype(float)
    assert _edge_kernel_apply(occ_x, (0, 1), w2, space)[i] == pytest.approx(2 * 0.25)


def test_intertwining_residual_examples():
    rng = np.random.default_rng(3)
    # constant observable commutes exactly
    space1 = enumerate_configs(3, 1)
    assert intertwining_residual(path_graph(3), W3, 1, np.ones(3), W3.pi.copy(),
                                 space1) == 0.0
    for n, k, tol in ((3, 2, 1e-12), (3, 1, 1e-13), (4, 2, 1e-12)):
        g = path_graph(n)
        w = site_weights(rng.uniform(0.5, 1.5, n))
        space = enumerate_configs(n, k)
        worst = 0.0
        for _ in range(100):
            f = rng.standard_normal(space.size)
            eta = rng.dirichlet(np.ones(n))
            worst = max(worst, intertwining_residual(g, w, k, f, eta, space))
        assert worst <= tol


def test_annihilate_create_adjoint_and_kernel():
    rng = np.random.default_rng(4)
    for k in (1, 2, 3):
        for i in range(1, k + 1):
            psi = TensorFunction(3, k - 1, rng.standard_normal(3 ** (k - 1)))
            phi = TensorFunction(3, k, rng.standard_normal(3 ** k))
            lhs = inner_product(annihilate(psi, i), phi, W3)
            rhs = inner_product(psi, create(phi, i, W3), W3)
            assert abs(lhs - rhs) <= 1e-12
    # centered product observables are killed by create in every coordinate
    for _ in range(10):
        eta = rng.dirichlet(np.ones(3))
        dev = eta / W3.pi - 1.0
        dbar = TensorFunction(3, 3, np.multiply.outer(np.multiply.outer(dev, dev), dev))
        for i in (1, 2, 3):
            assert np.max(np.abs(create(dbar, i, W3).values)) <= 1e-14
    with pytest.raises(IndexError):
        annihilate(TensorFunction(3, 1, np.zeros(3)), 3)
    with pytest.raises(IndexError):
        create(TensorFunction(3, 2, np.zeros(9)), 0, W3)


def test_symmetrize_idempotent():
    rng = np.random.default_rng(5)
    psi = TensorFunction(3, 3, rng.standard_normal(27))
    s1 = symmetrize(psi)
    s2 = symmetrize(s1)
    assert np.max(np.abs(s1.values - s2.values)) <= 1e-12


def test_particle_removal_examples():
    s2 = enumerate_configs(3, 2)
    s3 = enumerate_configs(3, 3)
    J = particle_removal_matrix(s3, s2)
    assert np.allclose(J @ np.ones(s2.size), 3.0)
    assert np.linalg.matrix_rank(J) == s2.size  # injective


def test_particle_removal_intertwines_generators():
    g = cycle_graph(3)
    w = W3
    for k in (2, 3):
        sk = enumerate_configs(3, k)
        skm = enumerate_configs(3, k - 1)
        Qk = generator_splitting(g, w, k, sk).toarray()
        Qkm = generator_splitting(g, w, k - 1, skm).toarray()
        J = particle_removal_matrix(sk, skm)
        assert np.max(np.abs(Qk @ J - J @ Qkm)) <= 1e-11


def test_duality_at_generator_level():
    # applying the averaging generator to the product statistics matches the
    # labeled particle generator acting on the position argument
    rng = np.random.default_rng(6)
    for n, k in ((2, 2), (3, 2), (4, 3), (3, 3)):
        g = path_graph(n) if n != 3 else cycle_graph(3)
        w = site_weights(rng.uniform(0.5, 1.5, n))
        Q = generator_splitting_labeled(g, w, k).toarray()
        tuples = labeled_states(n, k)
        for dual in (moment_duality, orthogonal_duality):
            worst = 0.0
            for _ in range(25):
                eta = rng.dirichlet(np.ones(n))
                dvec = np.array([dual(xs, eta, w) for xs in tuples])
                rhs = Q @ dvec
                for i, xs in enumerate(tuples):
                    lhs = averaging.avg_generator_apply(
                        lambda e: dual(xs, e, w), eta, g, w)
                    worst = max(worst, abs(lhs - rhs[i]))
            assert worst <= 1e-10


def test_eigenfunction_observable_basics():
    rng = np.random.default_rng(7)
    psi = TensorFunction(3, 2, rng.standard_normal(9))
    assert eigenfunction_observable(psi, W3.pi.copy(), W3) == pytest.approx(0.0, abs=1e-14)
    # observables built from inserted-coordinate tensors vanish identically
    phi = TensorFunction(3, 1, rng.standard_normal(3))
    for i in (1, 2):
        lifted = annihilate(phi, i)
        for _ in range(50):
            eta = rng.dirichlet(np.ones(3))
            assert abs(eigenfunction_observable(lifted, eta, W3)) <= 1e-13


def test_eigenfunction_observable_eigen_relation():
    g = cycle_graph(3)
    w = W3
    k = 2
    Q = generator_splitting_labeled(g, w, k)
    mu2 = product_weights(w, k)
    A = -Q.toarray()
    sq = np.sqrt(mu2)
    A = 0.5 * ((sq[:, None] * A / sq[None, :]) + (sq[:, None] * A / sq[None, :]).T)
    lam, V = np.linalg.eigh(A)
    rng = np.random.default_rng(8)
    checked = 0
    for j in range(len(lam)):
        if lam[j] <= 1e-10:
            continue
        psi = TensorFunction(3, k, V[:, j] / sq)
        for _ in range(10):
            eta = rng.dirichlet(np.ones(3))
            lhs = averaging.avg_generator_apply(
                lambda e: eigenfunction_observable(psi, e, w), eta, g, w)
            rhs = -lam[j] * eigenfunction_observable(psi, eta, w)
            assert abs(lhs - rhs) <= 1e-9
        checked += 1
    assert checked >= 3


def test_selfduality_residual_examples():
    g = cycle_graph(3)
    w = uniform_weights(3)
    assert selfduality_residual(g, w, 1, 2, 0.0, 1e-9) == 0.0
    assert selfduality_residual(g, w, 1, 2, 0.7, 1e-9) <= 1e-8
    g2 = path_graph(2)
    w2 = uniform_weights(2)
    assert selfduality_residual(g2, w2, 2, 2, 1.3, 1e-9) <= 1e-8
    with pytest.raises(ValueError):
        selfduality_residual(g, w, 3, 2, 0.5)


def test_multicolored_intertwining_product_functions():
    g = cycle_graph(3)
    w = W3
    rng = np.random.default_rng(9)
    worst = 0.0
    for xi in ((1, 1, 1), (2, 1, 0), (3, 0, 0), (0, 2, 1)):
        for _ in range(20):
            fs = [rng.standard_normal(enumerate_configs(3, kz).size) for kz in xi]
            etas = [rng.dirichlet(np.ones(3)) for _ in range(3)]
            worst = max(worst, multicolored_intertwining_residual(g, w, xi, fs, etas))
    assert worst <= 1e-11


def test_time_level_duality_monte_carlo():
    # simulated product statistics stay within 4 standard errors of the
    # evolved labeled-system value
    g = path_graph(3)
    w = W3
    xs = (0, 2)
    eta0 = np.array([0.7, 0.2, 0.1])
    t = 0.8
    Q = generator_splitting_labeled(g, w, 2)
    tuples = labeled_states(3, 2)
    dvec = np.array([moment_duality(tt, eta0, w) for tt in tuples])
    exact = evolve_observable(Q, dvec, t, 1e-12)[tuples.index(xs)]
    replicas = 4000
    vals = np.empty(replicas)
    for r in range(replicas):
        opts = SimOptions(record_times=(t,), seed=271, replica_id=r)
        eta_t = simulate_averaging(g, w, eta0, opts)[0]
        vals[r] = moment_duality(xs, eta_t, w)
    stderr = vals.std(ddof=1) / math.sqrt(replicas)
    assert abs(vals.mean() - exact) <= 4 * stderr
