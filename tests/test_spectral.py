import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from binsplit.graphs import (WeightedGraph, complete_graph, cycle_graph, path_graph,
                             site_weights, torus_graph, uniform_weights)
from binsplit import distances, duality, spectral
from binsplit.distances import single_particle_spectrum
from binsplit.spectral import (StateSpaceCapError, dirichlet_defect_form,
                               dirichlet_form, dirichlet_independent_pair,
                               dirichlet_single_particle,
                               enumerate_configs, evolve_observable,
                               generator_single_particle, generator_splitting,
                               generator_splitting_labeled, labeled_states,
                               multinomial_measure, product_weights,
                               reversibility_residual, spectral_gap,
                               transient_distribution)

RNG = np.random.default_rng(20240811)


def random_elliptic_weights(n, rng):
    return site_weights(rng.uniform(0.5, 1.5, size=n))


# ---------------------------------------------------------------------------
# configuration spaces


def test_enumerate_order_and_sizes():
    space = enumerate_configs(2, 2)
    assert [tuple(c) for c in space.configs] == [(2, 0), (1, 1), (0, 2)]
    assert enumerate_configs(3, 2).size == 6
    assert enumerate_configs(4, 3).size == 20


def test_enumerate_roundtrip_and_duplicates():
    space = enumerate_configs(4, 3)
    seen = set()
    for i in range(space.size):
        cfg = tuple(space.configs[i])
        assert space.rank([cfg])[0] == i
        assert sum(cfg) == 3
        seen.add(cfg)
    assert len(seen) == space.size


def test_enumerate_cap_names_count(monkeypatch):
    monkeypatch.setattr(spectral, "DEFAULT_STATE_CAP", 1000)
    with pytest.raises(StateSpaceCapError, match=str(math.comb(29, 15))):
        enumerate_configs(15, 15)


def test_multinomial_measure_examples():
    w = uniform_weights(2)
    space = enumerate_configs(2, 2)
    assert np.allclose(multinomial_measure(w, 2, space), [0.25, 0.5, 0.25])
    space0 = enumerate_configs(3, 0)
    assert multinomial_measure(uniform_weights(3), 0, space0).tolist() == [1.0]
    w3 = site_weights([0.2, 0.3, 0.5])
    space1 = enumerate_configs(3, 1)
    m = multinomial_measure(w3, 1, space1)
    # k=1 reduces to the site-weights; order is heaviest-first on vertex 0
    by_vertex = {tuple(space1.configs[i]): m[i] for i in range(3)}
    assert by_vertex[(1, 0, 0)] == pytest.approx(0.2)
    assert by_vertex[(0, 0, 1)] == pytest.approx(0.5)
    space5 = enumerate_configs(3, 5)
    assert abs(multinomial_measure(w3, 5, space5).sum() - 1.0) < 1e-10


def test_multinomial_measure_degenerate_profile():
    # zeros allowed when sampling from a mass profile
    space = enumerate_configs(2, 2)
    m = multinomial_measure(np.array([1.0, 0.0]), 2, space)
    assert m[space.rank([(2, 0)])[0]] == pytest.approx(1.0)
    assert m.sum() == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# generators


def test_single_edge_bin1():
    g = path_graph(2)
    w = uniform_weights(2)
    Q = generator_single_particle(g, w).toarray()
    assert np.allclose(Q, [[-0.5, 0.5], [0.5, -0.5]])
    assert spectral_gap(Q, w.pi).gap == pytest.approx(1.0, abs=1e-12)


def test_single_edge_k2_thermalization():
    g = path_graph(2)
    w = uniform_weights(2)
    space = enumerate_configs(2, 2)
    Q = generator_splitting(g, w, 2, space).toarray()
    P = Q + np.eye(3)
    assert np.allclose(P, np.tile([0.25, 0.5, 0.25], (3, 1)))
    spec = spectral_gap(Q, multinomial_measure(w, 2, space))
    assert np.allclose(np.sort(spec.eigenvalues), [0.0, 1.0, 1.0], atol=1e-10)


def test_row_sums_zero_and_offdiag_nonneg():
    rng = np.random.default_rng(5)
    for g, k in ((cycle_graph(4), 3), (path_graph(3), 2), (complete_graph(4), 2)):
        w = random_elliptic_weights(g.n, rng)
        Q = generator_splitting(g, w, k)
        dense = Q.toarray()
        assert np.max(np.abs(dense.sum(axis=1))) < 1e-12
        off = dense - np.diag(np.diag(dense))
        assert off.min() >= 0
        Qlab = generator_splitting_labeled(g, w, 2).toarray()
        assert np.max(np.abs(Qlab.sum(axis=1))) < 1e-12


def test_detailed_balance_invariant():
    rng = np.random.default_rng(6)
    for g, k in ((cycle_graph(5), 3), (path_graph(4), 4)):
        w = random_elliptic_weights(g.n, rng)
        space = enumerate_configs(g.n, k)
        Q = generator_splitting(g, w, k, space)
        mu = multinomial_measure(w, k, space)
        assert reversibility_residual(Q, mu) <= 1e-10


def test_labeled_k1_equals_unlabeled_k1():
    g = cycle_graph(4)
    w = site_weights([0.1, 0.2, 0.3, 0.4])
    Q1 = generator_single_particle(g, w).toarray()
    Qlab = generator_splitting_labeled(g, w, 1).toarray()
    assert np.allclose(Q1, Qlab, atol=1e-14)


def test_labeled_single_edge_k2_product_law():
    # one edge, two labeled particles: the 4x4 jump kernel is the product of
    # independent per-coordinate placements
    g = path_graph(2)
    w = site_weights([1 / 3, 2 / 3])
    p = 1 / 3 / (1 / 3 + 2 / 3)
    Q = generator_splitting_labeled(g, w, 2).toarray()
    P = Q + np.eye(4)
    marg = np.array([p, 1 - p])
    expected = np.kron(marg, marg)  # every row thermalizes both coordinates
    for row in range(4):
        assert np.allclose(P[row], expected, atol=1e-14)


def test_labeled_self_adjoint_and_sym_commutes():
    g = cycle_graph(4)
    w = site_weights([0.1, 0.2, 0.3, 0.4])
    k = 3
    Q = generator_splitting_labeled(g, w, k)
    mu = product_weights(w, k)
    assert reversibility_residual(Q, mu) <= 1e-10
    rng = np.random.default_rng(7)
    psi = rng.standard_normal(g.n ** k)
    lhs = duality.symmetrize(duality.TensorFunction(g.n, k, Q @ psi)).values
    rhs = Q @ duality.symmetrize(duality.TensorFunction(g.n, k, psi)).values
    assert np.max(np.abs(lhs - rhs)) < 1e-12


# ---------------------------------------------------------------------------
# spectra


def test_complete_gap_paper_value():
    for n in range(3, 9):
        g = complete_graph(n)
        w = uniform_weights(n)
        spec = spectral_gap(generator_single_particle(g, w), w.pi)
        assert abs(spec.gap - n / 2) <= 1e-10
        assert spec.t_rel == pytest.approx(2 / n)


def test_cycle4_gap_derived():
    g = cycle_graph(4)
    w = uniform_weights(4)
    spec = spectral_gap(generator_single_particle(g, w), w.pi)
    assert spec.gap == pytest.approx(1.0 - math.cos(math.pi / 2), abs=1e-12)


def test_gap_identity_small_sweep():
    rng = np.random.default_rng(8)
    for g in (path_graph(4), cycle_graph(5)):
        w = random_elliptic_weights(g.n, rng)
        gap1 = spectral_gap(generator_single_particle(g, w), w.pi).gap
        for k in (1, 2, 3, 4):
            space = enumerate_configs(g.n, k)
            Q = generator_splitting(g, w, k, space)
            mu = multinomial_measure(w, k, space)
            assert abs(spectral_gap(Q, mu).gap - gap1) <= 1e-9 * gap1


def test_labeled_two_particle_gap_equals_single():
    g = cycle_graph(4)
    w = site_weights([0.1, 0.2, 0.3, 0.4])
    gap1 = spectral_gap(generator_single_particle(g, w), w.pi).gap
    Q2 = generator_splitting_labeled(g, w, 2)
    gap2 = spectral_gap(Q2, product_weights(w, 2)).gap
    assert abs(gap2 - gap1) <= 1e-9 * gap1


def test_spectral_gap_rejects_nonreversible():
    Q = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [1.0, 0.0, -1.0]])
    mu = np.full(3, 1 / 3)
    with pytest.raises(ValueError, match="residual"):
        spectral_gap(Q, mu)


def test_spectrum_psi_normalized_and_harmonic_zero():
    g = cycle_graph(5)
    w = uniform_weights(5)
    spec = single_particle_spectrum(g, w)
    assert spec.eigenvalues[0] == 0.0
    assert np.sum(w.pi * spec.psi ** 2) == pytest.approx(1.0, abs=1e-12)
    # deterministic tie-break: re-solving yields the same eigenfunction
    spec2 = single_particle_spectrum(g, w)
    assert np.array_equal(spec.psi, spec2.psi)


def test_sparse_eigsh_path_matches_dense(monkeypatch):
    g = cycle_graph(5)
    w = uniform_weights(5)
    space = enumerate_configs(5, 4)
    Q = generator_splitting(g, w, 4, space)
    mu = multinomial_measure(w, 4, space)
    dense = spectral_gap(Q, mu)
    monkeypatch.setattr(spectral, "DENSE_EIG_CUTOFF", 10)
    sparse_spec = spectral_gap(Q, mu)
    assert not sparse_spec.full
    assert sparse_spec.gap == pytest.approx(dense.gap, rel=1e-9)


def test_sparse_eigsh_path_reproducible(monkeypatch):
    # the Lanczos start vector is fixed, so repeated solves agree bit for bit
    g = cycle_graph(6)
    w = uniform_weights(6)
    space = enumerate_configs(6, 4)
    Q = generator_splitting(g, w, 4, space)
    mu = multinomial_measure(w, 4, space)
    monkeypatch.setattr(spectral, "DENSE_EIG_CUTOFF", 10)
    first, second = (spectral_gap(Q, mu) for _ in range(2))
    assert first.gap == second.gap
    assert np.array_equal(first.eigenvalues, second.eigenvalues)


@pytest.fixture
def eigsh_calls(monkeypatch):
    """Record each sparse eigensolve: True for shift-invert, False for Lanczos."""
    calls = []
    solve = spectral.eigsh

    def spy(*args, **kwargs):
        calls.append("sigma" in kwargs)
        return solve(*args, **kwargs)

    monkeypatch.setattr(spectral, "eigsh", spy)
    return calls


@pytest.mark.parametrize("cutoff, restarts, routes", [
    pytest.param(4096, None, [], id="4096"),
    pytest.param(8, None, [False], id="8"),
    pytest.param(8, 1, [False, True], id="8-fallback"),
])
def test_spectral_gap_covariant_under_rate_scaling(cutoff, restarts, routes,
                                                    eigsh_calls, monkeypatch):
    # no absolute floor: a time unit up to 1e30 times longer rescales the gap
    # and nothing else, on the dense, the Lanczos and the shift-invert route
    # alike; at 1e-30 a Lanczos solve not in unit scale stops at ARPACK's
    # absolute convergence floor on a wrong eigenvalue
    if restarts is not None:
        # one restart is too few for Lanczos here, so the fallback runs
        monkeypatch.setattr(spectral, "LANCZOS_RESTARTS", restarts)
    monkeypatch.setattr(spectral, "DENSE_EIG_CUTOFF", cutoff)
    w = uniform_weights(64)
    ratios = []
    for c in (1.0, 1e-6, 1e-9, 1e-11, 1e-30):
        g = WeightedGraph(64, [(i, i + 1) for i in range(63)], c)
        eigsh_calls.clear()
        ratios.append(spectral_gap(generator_single_particle(g, w), w.pi).gap / c)
        assert eigsh_calls == routes
    # each edge carries a particle across at rate c/2: gap = c (1 - cos(pi/64))
    assert ratios[0] == pytest.approx(1.0 - math.cos(math.pi / 64), rel=1e-9)
    assert ratios == pytest.approx([ratios[0]] * 5, rel=1e-9)


def assert_sparse_shape(spec):
    """A sparse solve returns the null eigenvalue, classified as zero, and
    the gap."""
    assert not spec.full
    assert spec.eigenvalues.size == 2 and spec.eigenvalues[0] == 0.0
    assert spec.eigenvalues[1] == spec.gap


@pytest.mark.parametrize("graph, k", [(torus_graph((3, 3)), 5), (cycle_graph(12), 4)],
                         ids=["torus3x3-k5", "cycle12-k4"])
def test_lanczos_route_matches_dense(graph, k, eigsh_calls, monkeypatch):
    # 1,287 and 1,365 states: above the dense cutoff, so Lanczos solves them;
    # the torus gap is degenerate
    w = uniform_weights(graph.n)
    space = enumerate_configs(graph.n, k)
    Q = generator_splitting(graph, w, k, space)
    mu = multinomial_measure(w, k, space)
    lanczos = spectral_gap(Q, mu)
    assert eigsh_calls == [False]
    assert_sparse_shape(lanczos)
    monkeypatch.setattr(spectral, "DENSE_EIG_CUTOFF", 5000)
    dense = spectral_gap(Q, mu)
    assert dense.full
    assert lanczos.gap == pytest.approx(dense.gap, rel=1e-12)


def test_shift_invert_fallback_route(eigsh_calls, monkeypatch):
    # the cycle-1024 gap is tiny against the width of its spectrum: Lanczos
    # runs out of restarts and shift-invert solves it
    g = cycle_graph(1024)
    w = uniform_weights(1024)
    Q = generator_single_particle(g, w)
    spec = spectral_gap(Q, w.pi)
    assert eigsh_calls == [False, True]
    assert_sparse_shape(spec)
    monkeypatch.setattr(spectral, "DENSE_EIG_CUTOFF", 5000)
    dense = spectral_gap(Q, w.pi)
    assert dense.full
    assert spec.gap == pytest.approx(dense.gap, rel=1e-10)


@pytest.mark.parametrize("cutoff, restarts, routes", [
    pytest.param(512, None, [], id="dense"),
    pytest.param(0, None, [False], id="lanczos"),
    pytest.param(0, 1, [False, True], id="shift-invert"),
])
def test_gap_only_solve_matches_full_solve(cutoff, restarts, routes,
                                           eigsh_calls, monkeypatch):
    # no route computes an eigenvector, and on every route the eigenvalues
    # agree to rounding with a full dense eigh that does: all of them on the
    # dense route, the null one and the gap on the sparse ones
    if restarts is not None:
        # one restart is too few for Lanczos on 56 states, so the fallback runs
        monkeypatch.setattr(spectral, "LANCZOS_RESTARTS", restarts)
    monkeypatch.setattr(spectral, "DENSE_EIG_CUTOFF", cutoff)
    eigh_calls, eigh = [], spectral.eigh

    def eigh_spy(*args, **kwargs):
        eigh_calls.append(kwargs.get("eigvals_only", False))
        return eigh(*args, **kwargs)

    monkeypatch.setattr(spectral, "eigh", eigh_spy)
    rng = np.random.default_rng(13)
    edges = [(x, (x + 1) % 6) for x in range(6)] + [(0, 3)]
    g = WeightedGraph(6, edges, rng.uniform(0.3, 3.0, 7))
    w = random_elliptic_weights(6, rng)
    space = enumerate_configs(6, 3)
    Q = generator_splitting(g, w, 3, space)
    mu = multinomial_measure(w, 3, space)
    gap_only = spectral_gap(Q, mu)
    assert eigsh_calls == routes and eigh_calls == [True] * (cutoff > 0)
    assert gap_only.full == (cutoff > 0)
    full, _ = scipy.linalg.eigh(spectral._symmetrized(Q, mu).toarray())
    assert abs(gap_only.gap - full[1]) <= 1e-12 * full[1]
    m = full.size if cutoff else 2
    assert gap_only.eigenvalues.size == m
    assert np.allclose(gap_only.eigenvalues, full[:m], rtol=0.0, atol=1e-12 * full[m - 1])


def test_gap_only_fallback_keeps_the_matvec_budget(monkeypatch):
    # LANCZOS_RESTARTS caps the Lanczos solve: one that does not converge
    # spends ncv (14) matvecs to start and at most 12 per restart, about
    # 2,420 in all, before the shift-invert fallback takes over; ARPACK's
    # default cap on this operator would allow 10,240 restarts
    counts, solve = [], spectral.eigsh

    def counting(A, **kwargs):
        if "sigma" in kwargs:
            return solve(A, **kwargs)
        counts.append(0)

        def matvec(x):
            counts[-1] += 1
            return A @ x
        return solve(scipy.sparse.linalg.LinearOperator(A.shape, matvec=matvec, dtype=A.dtype),
                     **kwargs)

    monkeypatch.setattr(spectral, "eigsh", counting)
    w = uniform_weights(1024)
    Q = generator_single_particle(cycle_graph(1024), w)
    spec = spectral_gap(Q, w.pi)
    assert spec.gap == pytest.approx(1.0 - math.cos(2 * math.pi / 1024), rel=1e-9)
    assert len(counts) == 1 and 0 < counts[0] <= 14 + 12 * (spectral.LANCZOS_RESTARTS + 1)


@pytest.mark.parametrize("ritz", [None, (-8.3e-17, 1.6e-16)], ids=["shift-invert", "lanczos"])
def test_gap_only_solve_rejects_a_null_space_that_is_not_simple(ritz, monkeypatch):
    # two disjoint 300-cycles: shift-invert finds both null eigenvalues, each
    # of rounding size; Lanczos finds the second only through rounding, as
    # the 8-value solve did on two disjoint torus3x3 k=5 spaces (these two
    # Ritz values); neither may be reported as the gap.  The reducibility
    # check would reject this chain before any solve, so it is bypassed to
    # reach the null-space check behind it
    monkeypatch.setattr(spectral, "_cluster_roots", lambda n, x, y: np.zeros(n, dtype=np.int64))
    monkeypatch.setattr(spectral, "LANCZOS_RESTARTS", 1)
    if ritz is not None:
        monkeypatch.setattr(spectral, "eigsh", lambda *args, **kwargs: np.array(ritz))
    w = uniform_weights(300)
    Q1 = generator_single_particle(cycle_graph(300), w)
    Q = scipy.sparse.block_diag([Q1, Q1]).tocsr()
    mu = np.concatenate([w.pi, w.pi]) / 2
    with pytest.raises(ValueError, match="no positive eigenvalue"):
        spectral_gap(Q, mu)


def disjoint_pair(Q, mu):
    return scipy.sparse.block_diag([Q, Q]).tocsr(), np.concatenate([mu, mu]) / 2


@pytest.mark.parametrize("tiny_rates", [True, False])
@pytest.mark.parametrize("route", ["dense", "lanczos"])
def test_spectral_gap_rejects_a_reducible_chain(route, tiny_rates):
    # two disjoint copies: 12 states solve densely, 2 x 1,287 by Lanczos; on
    # both routes the solvers alone returned one component's gap (0.5, 1.5).
    # Both routes count the components of Q's pattern, which holds when
    # every rate is 1e-30 times smaller
    if route == "dense":
        w = uniform_weights(6)
        Q, mu = disjoint_pair(generator_single_particle(cycle_graph(6), w), w.pi)
    else:
        g, w = torus_graph([3, 3]), uniform_weights(9)
        space = enumerate_configs(9, 5)
        Q, mu = disjoint_pair(generator_splitting(g, w, 5, space),
                              multinomial_measure(w, 5, space))
    assert (Q.shape[0] <= spectral.DENSE_EIG_CUTOFF) == (route == "dense")
    if tiny_rates:
        Q = Q * 1e-30
    with pytest.raises(ValueError, match="reducible: 2 strongly connected components"):
        spectral_gap(Q, mu)


@pytest.mark.parametrize("mu0, shown", [(0.0, "0.0"), (math.nan, "nan")])
def test_spectral_gap_rejects_a_mu_that_is_not_positive(mu0, shown):
    # state 0 is transient: with mu_0 = 0 the detailed-balance defect is 0,
    # and the upper triangle of the pattern, which is not symmetric, is one
    # component; the solve then failed inside eigh on infs or NaNs
    Q = scipy.sparse.csr_matrix(np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0],
                                          [0.0, 1.0, -1.0]]))
    mu = np.array([0.0, 0.5, 0.5])
    assert reversibility_residual(Q, mu) == 0.0
    mu[0] = mu0
    with pytest.raises(ValueError, match=rf"mu must be finite and positive, got mu\[0\] = {shown}"):
        spectral_gap(Q, mu)


def test_a_gap_below_the_null_tolerance_raises_on_a_connected_chain():
    # a 4-path whose middle edge is 1e-13: eigenvalues 0, 5.0e-14, 1, 1,
    # against a null tolerance of 1e-12 dim lam_max = 4.0e-12.  The chain is
    # irreducible, so it is not reported as two components, and the gap is
    # not the next eigenvalue, 1.0
    g, w = path_graph(4, [1.0, 1e-13, 1.0]), uniform_weights(4)
    Q = generator_single_particle(g, w)
    for solve in (lambda: spectral_gap(Q, w.pi), lambda: single_particle_spectrum(g, w)):
        with pytest.raises(ValueError) as err:
            solve()
        message = str(err.value)
        assert message.startswith("no positive eigenvalue above the null tolerance 4.000e-12")
        assert message.endswith("e-14")


@pytest.mark.parametrize("graph", [cycle_graph(8), torus_graph((6, 6))],
                         ids=["cycle8", "torus6x6"])
def test_single_particle_spectrum_is_the_full_dense_eigh(graph):
    # t_rel, and every record time taken from it, must not move in its last
    # bits: the gap, t_rel, psi and the heat profile all come from one eigh
    # with eigenvectors
    w = uniform_weights(graph.n)
    spec = single_particle_spectrum(graph, w)
    lam, U = scipy.linalg.eigh(
        spectral._symmetrized(generator_single_particle(graph, w), w.pi).toarray())
    assert spec.eigenvalues[0] == 0.0
    assert np.array_equal(spec.eigenvalues[1:], lam[1:])
    assert spec.gap == lam[1] and spec.t_rel == 1.0 / lam[1]
    in_gap = np.abs(lam - lam[1]) <= 1e-9 * lam[-1]
    psi = distances._tie_break_eigenfunction(U[:, in_gap], np.sqrt(w.pi), w.pi)
    assert np.array_equal(spec.psi, psi)
    ts = np.geomspace(0.01, 10.0, 7) * spec.t_rel
    heat = ((U ** 2 / w.pi[:, None]) @ np.exp(-np.outer(lam, ts))).max(axis=0)
    assert np.array_equal(spec.heat_profile(ts), heat)


# ---------------------------------------------------------------------------
# transients (uniformization)


def test_transient_t0_exact():
    g = cycle_graph(4)
    w = uniform_weights(4)
    Q = generator_single_particle(g, w)
    init = np.array([0.4, 0.3, 0.2, 0.1])
    assert np.array_equal(transient_distribution(Q, init, 0.0, 1e-9), init)


def test_transient_single_edge_closed_form():
    g = path_graph(2)
    w = uniform_weights(2)
    Q = generator_single_particle(g, w)
    for t in (0.05, 0.7, 3.0):
        p = transient_distribution(Q, np.array([1.0, 0.0]), t, 1e-12)
        assert abs(p[0] - (0.5 + 0.5 * math.exp(-t))) <= 1e-12
        assert p.min() >= 0
        assert abs(p.sum() - 1.0) <= 2e-12


def test_transient_converges_to_stationary():
    g = cycle_graph(5)
    w = site_weights([1, 2, 3, 2, 1])
    Q = generator_single_particle(g, w)
    t_rel = spectral_gap(Q, w.pi).t_rel
    init = np.zeros(5)
    init[0] = 1.0
    p = transient_distribution(Q, init, 50 * t_rel, 1e-10)
    assert np.max(np.abs(p - w.pi)) <= 1e-8


def test_transient_validation(monkeypatch):
    Q = generator_single_particle(path_graph(2), uniform_weights(2))
    with pytest.raises(ValueError):
        transient_distribution(Q, np.array([1.0, 0.0]), -1.0, 1e-9)
    with pytest.raises(ValueError):
        transient_distribution(Q, np.array([1.0, 0.0]), 1.0, 1e-3)
    monkeypatch.setattr(spectral, "DEFAULT_TRANSIENT_CAP", 1)
    with pytest.raises(StateSpaceCapError):
        transient_distribution(Q, np.array([1.0, 0.0]), 1.0, 1e-9)


def test_evolve_observable_adjoint_of_transient():
    # <nu_t, f> = <nu, f_t> for the reversible-symmetrized pairing
    g = cycle_graph(4)
    w = site_weights([0.1, 0.2, 0.3, 0.4])
    Q = generator_single_particle(g, w)
    rng = np.random.default_rng(9)
    f = rng.standard_normal(4)
    init = rng.dirichlet(np.ones(4))
    lhs = float(transient_distribution(Q, init, 0.9, 1e-12) @ f)
    rhs = float(init @ evolve_observable(Q, f, 0.9, 1e-12))
    assert abs(lhs - rhs) <= 1e-10


# ---------------------------------------------------------------------------
# Dirichlet forms


def test_dirichlet_constant_is_zero():
    g = cycle_graph(4)
    w = site_weights([0.1, 0.2, 0.3, 0.4])
    ones = np.ones(4)
    assert dirichlet_single_particle(g, w, ones) == 0.0
    assert dirichlet_independent_pair(g, w, np.ones(16)) == 0.0
    assert dirichlet_defect_form(g, w, np.ones(16)) == 0.0
    Q = generator_single_particle(g, w)
    assert abs(dirichlet_form(Q, w.pi, ones)) <= 1e-14


def test_dirichlet_single_edge_value():
    g = path_graph(2)
    w = uniform_weights(2)
    assert dirichlet_single_particle(g, w, np.array([1.0, -1.0])) == pytest.approx(1.0)


def test_dirichlet_generator_matches_closed_form():
    rng = np.random.default_rng(10)
    for g in (cycle_graph(5), path_graph(4)):
        w = random_elliptic_weights(g.n, rng)
        Q1 = generator_splitting(g, w, 1)
        for _ in range(20):
            psi = rng.standard_normal(g.n)
            a = dirichlet_form(Q1, w.pi, psi)
            b = dirichlet_single_particle(g, w, psi)
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b))


def test_pair_energy_identity_and_ordering():
    rng = np.random.default_rng(11)
    graphs = [path_graph(2), path_graph(3), cycle_graph(3), cycle_graph(4),
              complete_graph(4)]
    for g in graphs:
        w = random_elliptic_weights(g.n, rng)
        Q2 = generator_splitting_labeled(g, w, 2)
        mu2 = product_weights(w, 2)
        for _ in range(200):
            psi2 = rng.standard_normal(g.n * g.n)
            e_pair = dirichlet_form(Q2, mu2, psi2)
            e_ind = dirichlet_independent_pair(g, w, psi2)
            defect = dirichlet_defect_form(g, w, psi2)
            assert abs(e_pair - (e_ind - defect)) <= 1e-10 * max(1.0, e_ind)
            assert 0.5 * e_ind - 1e-12 <= e_pair <= e_ind + 1e-12


def test_pair_kernel_log_convex_decay_fingerprint():
    # the worst pairwise deviation of the two-particle kernel decays
    # log-convexly past the relaxation time, under a fitted exponential cap
    from binsplit.distances import single_particle_spectrum
    g = cycle_graph(6)
    w = uniform_weights(6)
    t_rel = single_particle_spectrum(g, w).t_rel
    ts = np.linspace(2.0, 5.0, 7) * t_rel
    Q2, mu2 = generator_splitting_labeled(g, w, 2), product_weights(w, 2)
    devs = np.array([np.max(np.abs(transient_distribution(Q2, np.eye(36), t, 1e-11)
                                   / mu2[:, None] - 1.0)) for t in ts])
    logs = np.log(devs)
    assert np.all(np.diff(logs) < 0)
    assert np.all(np.diff(logs, 2) >= -1e-8)
    fitted_c = float(np.max(devs * np.exp(ts / t_rel)))
    assert np.all(devs <= fitted_c * np.exp(-ts / t_rel) + 1e-12)


def test_gap_identity_on_gasket_and_percolation_cluster():
    # the identity holds on every graph; exercise the irregular builders
    from binsplit.graphs import percolation_box_graph, sierpinski_graph
    rng = np.random.default_rng(12)
    for g in (sierpinski_graph(1), percolation_box_graph([3, 3], 0.85, seed=7)):
        w = random_elliptic_weights(g.n, rng)
        gap1 = spectral_gap(generator_single_particle(g, w), w.pi).gap
        for k in (2, 3):
            space = enumerate_configs(g.n, k)
            Q = generator_splitting(g, w, k, space)
            mu = multinomial_measure(w, k, space)
            assert abs(spectral_gap(Q, mu).gap - gap1) <= 1e-9 * gap1


def test_uniformization_matches_dense_expm():
    # independent oracle: dense matrix exponential of a random reversible chain
    from scipy.linalg import expm
    rng = np.random.default_rng(13)
    g = cycle_graph(6)
    w = random_elliptic_weights(6, rng)
    space = enumerate_configs(6, 2)
    Q = generator_splitting(g, w, 2, space)
    P_dense = None
    init = rng.dirichlet(np.ones(space.size))
    f = rng.standard_normal(space.size)
    for t in (0.3, 1.7):
        P_dense = expm(Q.toarray() * t)
        assert np.max(np.abs(transient_distribution(Q, init, t, 1e-12) -
                             init @ P_dense)) <= 1e-10
        assert np.max(np.abs(evolve_observable(Q, f, t, 1e-12) -
                             P_dense @ f)) <= 1e-10
