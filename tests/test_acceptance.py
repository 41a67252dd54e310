"""Acceptance battery: exact finite-size identities at deterministic
tolerances plus statistical fingerprints with explicit slack, one test per
criterion.  Run with `pytest tests/test_acceptance.py -v`.
"""

import math
import time

import numpy as np
import pytest

from binsplit import averaging, duality, harness
from binsplit.distances import (chi2_multinomial, l2_decomposition,
                                multinomial_tv_exact, nash_diagnose, nash_fit,
                                single_particle_spectrum, tv_bound_from_l2,
                                tv_bound_multinomial, tv_profile_exact,
                                wasserstein_estimate, wilson_report, worst_l2_sq)
from binsplit.graphs import (complete_graph, cycle_graph, path_graph,
                             site_weights, torus_graph, uniform_weights)
from binsplit.simulate import (SimOptions, simulate_multicolored, simulate_splitting,
                               simulate_splitting_batch)
from binsplit.spectral import (dirichlet_defect_form, dirichlet_form,
                               dirichlet_independent_pair, enumerate_configs,
                               generator_single_particle, generator_splitting,
                               generator_splitting_labeled, labeled_states,
                               multinomial_measure, product_weights,
                               spectral_gap, transient_distribution)


def _gap_of(graph, weights, k):
    space = enumerate_configs(graph.n, k)
    Q = generator_splitting(graph, weights, k, space)
    mu = multinomial_measure(weights, k, space)
    return spectral_gap(Q, mu).gap


def test_c01_gap_identity_across_graphs():
    t0 = time.monotonic()
    rng = np.random.default_rng(20240601)
    cond = rng.uniform(0.5, 2.0, size=5).tolist()
    pi_rand = site_weights(rng.uniform(0.5, 1.5, size=5))
    instances = [
        (path_graph(4), uniform_weights(4)),
        (cycle_graph(5), uniform_weights(5)),
        (complete_graph(4), uniform_weights(4)),
        (cycle_graph(5, conductance=cond), pi_rand),
    ]
    for graph, weights in instances:
        gap1 = _gap_of(graph, weights, 1)
        for k in (1, 2, 3, 4):
            assert abs(_gap_of(graph, weights, k) - gap1) <= 1e-9 * gap1
    assert time.monotonic() - t0 < 60.0


def test_c02_complete_graph_gap_value():
    for n in range(3, 9):
        w = uniform_weights(n)
        spec = spectral_gap(generator_single_particle(complete_graph(n), w), w.pi)
        assert abs(spec.gap - n / 2) <= 1e-10


def test_c03_intertwining_residual():
    rng = np.random.default_rng(3)
    for graph in (path_graph(2), cycle_graph(3), cycle_graph(4)):
        n = graph.n
        weights = site_weights(rng.uniform(0.5, 1.5, n))
        for k in (1, 2, 3):
            space = enumerate_configs(n, k)
            worst = 0.0
            for _ in range(100):
                f = rng.standard_normal(space.size)
                eta = rng.dirichlet(np.ones(n))
                worst = max(worst, duality.intertwining_residual(
                    graph, weights, k, f, eta, space))
            assert worst <= 1e-12


def test_c04_self_duality_residual():
    graph = cycle_graph(3)
    weights = uniform_weights(3)
    for k in (1, 2):
        for ell in (2, 3):
            for t in (0.3, 1.0, 3.0):
                res = duality.selfduality_residual(graph, weights, k, ell, t,
                                                   tol=1e-9)
                assert res <= 1e-7, (k, ell, t, res)


def test_c05_duality_at_generator_level():
    rng = np.random.default_rng(5)
    for n, k in ((2, 2), (3, 2), (3, 3), (4, 3)):
        graph = cycle_graph(n) if n >= 3 else path_graph(2)
        weights = site_weights(rng.uniform(0.5, 1.5, n))
        Q = generator_splitting_labeled(graph, weights, k).toarray()
        tuples = labeled_states(n, k)
        for dual in (duality.moment_duality, duality.orthogonal_duality):
            worst = 0.0
            for _ in range(20):
                eta = rng.dirichlet(np.ones(n))
                dvec = np.array([dual(xs, eta, weights) for xs in tuples])
                rhs = Q @ dvec
                for _ in range(10):
                    i = int(rng.integers(len(tuples)))
                    lhs = averaging.avg_generator_apply(
                        lambda e: dual(tuples[i], e, weights), eta, graph, weights)
                    worst = max(worst, abs(lhs - rhs[i]))
            assert worst <= 1e-10


def test_c06_dirichlet_comparison():
    rng = np.random.default_rng(6)
    graphs = [path_graph(2), path_graph(3), cycle_graph(3), cycle_graph(4),
              complete_graph(4)]
    for graph in graphs:
        n = graph.n
        weights = site_weights(rng.uniform(0.5, 1.5, n))
        Q2 = generator_splitting_labeled(graph, weights, 2)
        mu2 = product_weights(weights, 2)
        for _ in range(1000):
            psi2 = rng.standard_normal(n * n)
            e_pair = dirichlet_form(Q2, mu2, psi2)
            e_ind = dirichlet_independent_pair(graph, weights, psi2)
            defect = dirichlet_defect_form(graph, weights, psi2)
            assert 0.5 * e_ind - 1e-12 <= e_pair <= e_ind + 1e-12
            assert abs(e_pair - (e_ind - defect)) <= 1e-10 * max(1.0, e_ind)


def test_c07_aldous_lanoue():
    rng = np.random.default_rng(7)
    # (a) closed-form drop equals recomputation over 10^4 random updates
    graphs = [cycle_graph(4), path_graph(5), complete_graph(4), cycle_graph(6)]
    per_graph = 2500
    for graph in graphs:
        n = graph.n
        weights = site_weights(rng.uniform(0.5, 1.5, n))
        for _ in range(per_graph):
            eta = rng.dirichlet(np.ones(n))
            e = graph.edges[int(rng.integers(graph.n_edges))]
            before = averaging.transport_norm(eta, weights, 2.0) ** 2
            after = averaging.transport_norm(
                averaging.edge_update(eta, (e[0], e[1]), weights), weights, 2.0) ** 2
            assert abs((after - before) -
                       averaging.l2_drop(eta, (e[0], e[1]), weights)) <= 1e-12
    # (b) the exact averaged squared error sits under the gap contraction
    for graph in (path_graph(3), cycle_graph(4), cycle_graph(5)):
        n = graph.n
        weights = site_weights(rng.uniform(0.5, 1.5, n))
        t_rel = single_particle_spectrum(graph, weights).t_rel
        for _ in range(3):
            eta = rng.dirichlet(np.ones(n))
            base = averaging.transport_norm(eta, weights, 2.0) ** 2
            for t in np.linspace(0.2, 4.0, 8) * t_rel:
                h_term, nt_term = l2_decomposition(graph, weights, eta, t, 1e-10)
                assert h_term + nt_term <= math.exp(-t / t_rel) * base + 1e-9


def test_c08_eigenfunction_observable_and_kernel():
    graph = cycle_graph(3)
    weights = site_weights([0.2, 0.3, 0.5])
    k = 2
    Q = generator_splitting_labeled(graph, weights, k)
    mu2 = product_weights(weights, k)
    sq = np.sqrt(mu2)
    A = -(Q.toarray())
    A = sq[:, None] * A / sq[None, :]
    A = 0.5 * (A + A.T)
    lam, V = np.linalg.eigh(A)
    gap = spectral_gap(Q, mu2).gap
    rng = np.random.default_rng(8)
    etas = [rng.dirichlet(np.ones(3)) for _ in range(50)]
    checked = 0
    for j in np.nonzero(np.abs(lam - gap) <= 1e-9 * gap)[0]:
        psi = duality.TensorFunction(3, k, V[:, j] / sq)
        for eta in etas:
            lhs = averaging.avg_generator_apply(
                lambda e: duality.eigenfunction_observable(psi, e, weights),
                eta, graph, weights)
            rhs = -gap * duality.eigenfunction_observable(psi, eta, weights)
            assert abs(lhs - rhs) <= 1e-9
        checked += 1
    assert checked >= 1
    # inserted-coordinate observables vanish identically
    for i in (1, 2):
        phi = duality.TensorFunction(3, 1, rng.standard_normal(3))
        lifted = duality.annihilate(phi, i)
        for eta in etas:
            assert abs(duality.eigenfunction_observable(lifted, eta, weights)) <= 1e-9


def test_c09_particle_removal_intertwining():
    graph = cycle_graph(3)
    weights = site_weights([0.25, 0.35, 0.4])
    for k in (2, 3):
        sk = enumerate_configs(3, k)
        skm = enumerate_configs(3, k - 1)
        Qk = generator_splitting(graph, weights, k, sk).toarray()
        Qkm = generator_splitting(graph, weights, k - 1, skm).toarray()
        J = duality.particle_removal_matrix(sk, skm)
        assert np.max(np.abs(Qk @ J - J @ Qkm)) <= 1e-11
        assert np.linalg.matrix_rank(J) == skm.size


def test_c10_multinomial_tv_bound():
    rng = np.random.default_rng(10)
    for n in (2, 3):
        weights = site_weights(rng.uniform(0.5, 1.5, n))
        for k in range(1, 7):
            space = enumerate_configs(n, k)
            mu_pi = multinomial_measure(weights, k, space)
            for _ in range(50):
                eta = rng.dirichlet(np.ones(n))
                exact = multinomial_tv_exact(eta, weights, k, space)
                assert exact <= tv_bound_multinomial(eta, weights, k) + 1e-15
                mu_eta = multinomial_measure(eta, k, space)
                chi2_enum = float(np.sum(mu_eta ** 2 / mu_pi) - 1.0)
                assert abs(chi2_enum - chi2_multinomial(eta, weights, k)) <= 1e-10


def test_c11_tv_sandwich_and_single_edge_profile():
    for graph in (path_graph(2), cycle_graph(4)):
        n = graph.n
        weights = uniform_weights(n)
        t_rel = single_particle_spectrum(graph, weights).t_rel
        times = list(np.linspace(1.0, 5.0, 9) * t_rel)
        for k in (2, 4, 6):
            space = enumerate_configs(n, k)
            xi0 = np.zeros(n, dtype=np.int64)
            xi0[0] = k  # every pile start is equivalent on these symmetric graphs
            prof = tv_profile_exact(graph, weights, k, xi0, times, 1e-10, space)
            for t, d in prof:
                upper = tv_bound_from_l2(k, worst_l2_sq(graph, weights, t, 1e-10))
                lower = 0.0
                for v in range(n):
                    eta = np.zeros(n)
                    eta[v] = 1.0
                    lower = max(lower, wilson_report(graph, weights, k, eta, t).lower_bound)
                assert lower - 1e-12 <= d <= upper + 1e-9, (graph.n, k, t)
    # single edge, two particles: exact profile is (3/4) e^{-t}
    space = enumerate_configs(2, 2)
    prof = tv_profile_exact(path_graph(2), uniform_weights(2), 2, (2, 0),
                            [0.25, 0.5, 1.0, 2.0, 3.5, 5.0], 1e-10, space)
    for t, d in prof:
        assert abs(d - 0.75 * math.exp(-t)) <= 1e-8


def test_c12_wilson_statistic_formulas():
    t0 = time.monotonic()
    graph = cycle_graph(5)
    weights = uniform_weights(5)
    k = 10
    t_rel = single_particle_spectrum(graph, weights).t_rel
    eta = np.array([0.5, 0.3, 0.1, 0.05, 0.05])
    rep = wilson_report(graph, weights, k, eta, t_rel, mc_replicas=100_000,
                        seed=2024)
    assert abs(rep.mean_eq) <= 1e-10
    assert abs(rep.var_eq - k) <= 1e-10
    assert abs(rep.mc_mean_out - rep.mean_out) <= 4 * rep.mc_stderr
    assert time.monotonic() - t0 < 180.0


def test_c13_multicolored_coupling():
    graph = path_graph(3)
    weights = uniform_weights(3)
    xi0 = np.array([2, 1, 0])
    times = (0.4, 1.0, 2.0)
    # pathwise: the color-blind sum reproduces the uncolored run exactly
    for rep in range(1000):
        opts = SimOptions(record_times=times, seed=1313, replica_id=rep)
        colored = simulate_multicolored(graph, weights, xi0, opts)
        plain = simulate_splitting(graph, weights, xi0, opts)
        for c, p in zip(colored, plain):
            assert np.array_equal(c.sum(axis=0), p)
    # in law: each color marginal matches a direct run from its own start.
    # The multicolored run from xi0 is the labeled run of its particles
    # sorted by color, so color 0 is particles 0 and 1 of (0, 0, 1).
    reps = 100_000
    t = 1.0
    space2 = enumerate_configs(3, 2)

    def occupation(pos):
        return (pos[..., None] == np.arange(3)).sum(axis=-2)

    col = simulate_splitting_batch(graph, weights, (0, 0, 1),
                                   SimOptions(record_times=(t,), seed=77), reps)
    direct = simulate_splitting_batch(graph, weights, (0, 0),
                                      SimOptions(record_times=(t,), seed=78), reps)
    col_counts = np.bincount(space2.rank(occupation(col[:, 0, :2])), minlength=space2.size)
    dir_counts = np.bincount(space2.rank(occupation(direct[:, 0])), minlength=space2.size)
    tv = 0.5 * np.abs(col_counts / reps - dir_counts / reps).sum()
    assert tv <= 0.02


def test_c14_cutoff_fingerprint():
    t0 = time.monotonic()
    graph = cycle_graph(5)
    weights = uniform_weights(5)
    t_rel = single_particle_spectrum(graph, weights).t_rel
    ks = (4, 8, 16, 32)
    grid = list(np.linspace(0.03, 15.6, 130))
    stats = {}
    for k in ks:
        space = enumerate_configs(5, k)
        xi0 = np.zeros(5, dtype=np.int64)
        xi0[0] = k  # pile start; all piles equivalent on the cycle
        prof = tv_profile_exact(graph, weights, k, xi0, grid, 1e-9, space)
        ts = [t for t, _ in prof]
        ds = [d for _, d in prof]
        assert ds[0] >= 0.9 and ds[-1] <= 0.1
        stats[k] = (harness.level_crossing_time(ts, ds, 0.5),
                    harness.level_crossing_time(ts, ds, 0.9),
                    harness.level_crossing_time(ts, ds, 0.1))
    slope = np.polyfit(np.log(ks), [stats[k][0] for k in ks], 1)[0]
    assert 0.75 * (t_rel / 2) <= slope <= 1.25 * (t_rel / 2)
    rel_widths = [(stats[k][2] - stats[k][1]) / stats[k][0] for k in ks]
    assert all(b < a for a, b in zip(rel_widths, rel_widths[1:]))
    assert time.monotonic() - t0 < 600.0


def test_c15_no_cutoff_bands():
    graph = cycle_graph(8)
    weights = uniform_weights(8)
    spec = single_particle_spectrum(graph, weights)
    t_rel = spec.t_rel
    ts = np.linspace(1.0, 6.0, 11) * t_rel
    # single particle: exact TV profile stays within a constant band of the
    # gap decay
    Q1 = generator_single_particle(graph, weights)
    init = np.zeros(8)
    init[0] = 1.0
    band = []
    for t in ts:
        p_t = transient_distribution(Q1, init, t, 1e-12)
        d = 0.5 * float(np.abs(p_t - weights.pi).sum())
        band.append(d * math.exp(t / t_rel))
    assert max(band) <= 20.0
    assert min(band) > 0.0
    # averaging: Monte Carlo transport profile within the band, above the
    # exact evolved-density lower curve and the gap-decay lower bound
    eta0 = init.astype(float)
    means, errs = wasserstein_estimate(graph, weights, eta0, list(ts),
                                       2.0, 400, 1501)
    from binsplit.distances import evolved_density
    for t, m, s in zip(ts, means, errs):
        assert m - 4 * s <= 20.0 * math.exp(-t / t_rel)
        assert m + 4 * s >= math.exp(-t / t_rel)
        h = evolved_density(graph, weights, eta0, t)
        lower_curve = float(np.sqrt(np.sum(weights.pi * (h - 1.0) ** 2)))
        assert lower_curve <= m + 4 * s


def test_c16_nash_dimension_fingerprints():
    t0 = time.monotonic()
    g1 = cycle_graph(64)
    w64 = uniform_weights(64)
    t_rel = single_particle_spectrum(g1, w64).t_rel
    fit = nash_fit(g1, w64, np.geomspace(0.5, t_rel / 4, 24))
    assert 0.8 <= fit.d_hat <= 1.2
    diag2 = nash_diagnose(torus_graph([8, 8]), w64)
    assert diag2.finite_dimensional and 1.6 <= diag2.fit.d_hat <= 2.4
    diag3 = nash_diagnose(complete_graph(64), w64)
    assert not diag3.finite_dimensional
    assert time.monotonic() - t0 < 120.0


def test_c17_complete_graph_crossing():
    t0 = time.monotonic()
    cfg = harness.ExperimentConfig(
        graph={"kind": "complete", "size": 256},
        times={"mode": "tstar", "multiples": list(np.linspace(0.4, 1.6, 19))},
        replicas=500,
        seed=314,
    )
    records = harness.run_complete_cdsz(cfg)
    ratio = next(r.value for r in records if r.kind == "crossing_ratio")
    assert 0.75 <= ratio <= 1.25
    assert time.monotonic() - t0 < 300.0
