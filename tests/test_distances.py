import math

import numpy as np
import pytest

from binsplit import spectral
from binsplit.averaging import transport_norm
from binsplit.distances import (chi2_multinomial, evolved_density,
                                heat_kernel_max_profile, l2_decomposition,
                                l2_sq_exact, multinomial_tv_exact, nash_diagnose,
                                nash_fit,
                                single_particle_spectrum, tv_bound_from_l2,
                                tv_bound_multinomial, tv_profile_exact, wasserstein_estimate,
                                wilson_dirac_lower_bounds, wilson_report,
                                worst_l2_sq)
from binsplit.graphs import (complete_graph, cycle_graph, path_graph,
                             site_weights, torus_graph, uniform_weights)
from binsplit.spectral import (enumerate_configs, generator_single_particle,
                               generator_splitting_labeled, multinomial_measure,
                               product_weights, transient_distribution)


def dirac(n, x):
    eta = np.zeros(n)
    eta[x] = 1.0
    return eta


def test_heat_kernel_examples():
    # the heat kernel h_t^x is the evolved density of the Dirac mass at x
    g = cycle_graph(4)
    w = site_weights([0.1, 0.2, 0.3, 0.4])
    assert np.allclose(evolved_density(g, w, dirac(4, 2), 0.0), dirac(4, 2) / w.pi[2])
    t_rel = single_particle_spectrum(g, w).t_rel
    assert np.max(np.abs(evolved_density(g, w, dirac(4, 1), 50 * t_rel) - 1.0)) <= 1e-8
    # mass invariant and positivity
    hk = evolved_density(g, w, dirac(4, 0), 0.7)
    assert abs(np.sum(w.pi * hk) - 1.0) <= 1e-10
    assert hk.min() >= 0
    # single edge closed form
    g2 = path_graph(2)
    w2 = uniform_weights(2)
    for t in (0.3, 1.2):
        hk2 = evolved_density(g2, w2, dirac(2, 0), t, tol=1e-12)
        assert abs(hk2[0] - (1 + math.exp(-t))) <= 1e-11


def test_evolved_density_matches_heat_kernel_on_dirac():
    # observable direction against the law from the Dirac start, over pi
    g = cycle_graph(5)
    w = site_weights([1, 2, 3, 2, 1])
    h_eta = evolved_density(g, w, dirac(5, 3), 0.9)
    law = transient_distribution(generator_single_particle(g, w), dirac(5, 3), 0.9, 1e-11)
    assert np.max(np.abs(h_eta - law / w.pi)) <= 1e-10


def test_chi2_examples_and_enumeration_oracle():
    w2 = uniform_weights(2)
    eta = np.array([1.0, 0.0])
    assert chi2_multinomial(w2.pi.copy(), w2, 5) == pytest.approx(0.0, abs=1e-14)
    assert chi2_multinomial(eta, w2, 3) == pytest.approx(7.0)
    # enumeration oracle for the same value
    space = enumerate_configs(2, 3)
    mu_eta = multinomial_measure(eta, 3, space)
    mu_pi = multinomial_measure(w2, 3, space)
    assert float(np.sum(mu_eta ** 2 / mu_pi) - 1.0) == pytest.approx(7.0)
    # k=1 reduces to the squared transport norm
    w3 = site_weights([0.2, 0.3, 0.5])
    rng = np.random.default_rng(0)
    for _ in range(10):
        e = rng.dirichlet(np.ones(3))
        assert chi2_multinomial(e, w3, 1) == pytest.approx(
            transport_norm(e, w3, 2.0) ** 2)
    # log-domain guard for huge particle counts
    assert tv_bound_multinomial(eta, w2, 10 ** 9) == 1.0
    assert math.isinf(chi2_multinomial(eta, w2, 10 ** 9))


def test_tv_bound_dominates_exact_tv():
    rng = np.random.default_rng(1)
    for n in (2, 3):
        w = site_weights(rng.uniform(0.5, 1.5, n))
        for k in range(1, 7):
            space = enumerate_configs(n, k)
            for _ in range(50):
                eta = rng.dirichlet(np.ones(n))
                exact = multinomial_tv_exact(eta, w, k, space)
                assert exact <= tv_bound_multinomial(eta, w, k) + 1e-12


def reference_tv_bound(eta, weights, k):
    # the closed form tv_bound_multinomial had before it reused chi2_multinomial
    w2 = transport_norm(np.asarray(eta, float), weights, 2.0) ** 2
    half_log = 0.5 * k * math.log1p(w2)
    if half_log >= 0.5 * math.log(1e300):
        return 1.0
    return min(1.0, math.sqrt(math.expm1(2.0 * half_log)))


def test_tv_bound_matches_reference_closed_form():
    rng = np.random.default_rng(7)
    ks = [0, 1, 2, 3, 7, 50, 10 ** 3, 10 ** 5, 10 ** 7, 10 ** 9]
    for n in (2, 3, 5, 16):
        for _ in range(40):
            w = site_weights(rng.uniform(0.05, 2.0, n))
            eta = rng.dirichlet(np.full(n, rng.choice([0.05, 1.0, 50.0])))
            for k in ks:
                assert tv_bound_multinomial(eta, w, k) == reference_tv_bound(eta, w, k)


def test_wasserstein_estimate_examples():
    g = cycle_graph(4)
    w = uniform_weights(4)
    eta0 = np.array([0.7, 0.1, 0.1, 0.1])
    mean, err = wasserstein_estimate(g, w, eta0, [0.0], 2.0, 8, seed=1)
    assert mean.shape == err.shape == (1,)
    assert mean[0] == pytest.approx(transport_norm(eta0, w, 2.0))
    assert err[0] == 0.0
    with pytest.raises(ValueError):
        wasserstein_estimate(g, w, eta0, [1.0], 2.0, 1, seed=1)
    # a profile is reproducible and never increases
    times = [0.2, 0.8, 1.5]
    ma, ea = wasserstein_estimate(g, w, eta0, times, 1.0, 50, seed=3)
    mb, eb = wasserstein_estimate(g, w, eta0, times, 1.0, 50, seed=3)
    assert np.array_equal(ma, mb) and np.array_equal(ea, eb)
    assert np.all(np.diff(ma) <= 0)


def test_tv_profile_exact_examples():
    g = path_graph(2)
    w = uniform_weights(2)
    space = enumerate_configs(2, 2)
    xi0 = (2, 0)
    prof = tv_profile_exact(g, w, 2, xi0, [0.0, 0.4, 1.0, 2.5, 5.0], 1e-10, space)
    mu = multinomial_measure(w, 2, space)
    assert prof[0][1] == pytest.approx(1.0 - mu[space.rank([xi0])[0]])
    for t, d in prof:
        assert abs(d - 0.75 * math.exp(-t)) <= 1e-9
    ds = [d for _, d in prof]
    assert all(b <= a + 1e-12 for a, b in zip(ds, ds[1:]))


def test_tv_bound_from_l2_examples():
    assert tv_bound_from_l2(5, 0.0) == 0.0
    assert tv_bound_from_l2(10, 1e-4) == pytest.approx(0.05213714442179438, rel=1e-9)
    g = cycle_graph(4)
    w = uniform_weights(4)
    space_cache = {}
    for k in (2, 4, 6):
        space = space_cache.setdefault(k, enumerate_configs(4, k))
        xi0 = np.zeros(4, dtype=np.int64)
        xi0[0] = k
        for t in (1.0, 2.0, 4.0):
            d = tv_profile_exact(g, w, k, xi0, [t], 1e-10, space)[0][1]
            w2 = worst_l2_sq(g, w, t, 1e-10)
            assert d <= tv_bound_from_l2(k, w2) + 1e-9


def test_wilson_report_examples():
    g = cycle_graph(5)
    w = uniform_weights(5)
    rep = wilson_report(g, w, 7, w.pi.copy(), 1.0)
    assert rep.mean_out == pytest.approx(0.0, abs=1e-12)
    assert rep.mean_eq == pytest.approx(0.0, abs=1e-10)
    assert rep.var_eq == pytest.approx(7.0, abs=1e-10)
    assert rep.lower_bound >= 0.0


@pytest.mark.parametrize("eta", [
    [0.5, -0.1, 0.3, 0.2, 0.1],        # negative
    [0.5, np.nan, 0.3, 0.1, 0.1],      # not finite
    [0.5, 0.5, 0.3, 0.0, 0.0],         # sums past 1
    [0.2, 0.2, 0.2, 0.2, 0.1],         # sums short of 1
    [0.0, 0.0, 0.0, 0.0, 0.0],         # no mass
])
def test_wilson_report_rejects_a_start_law_that_is_not_a_distribution(eta):
    # the Monte Carlo starts are categorical draws from eta
    g = cycle_graph(5)
    with pytest.raises(ValueError, match="eta"):
        wilson_report(g, uniform_weights(5), 3, np.array(eta), 1.0, mc_replicas=4, seed=1)


@pytest.mark.parametrize("graph, raw", [
    (torus_graph((6, 6)), np.ones(36)),
    # a heavy endpoint: the bound is positive at small times
    (path_graph(120), np.r_[120.0, np.ones(119)]),
])
def test_wilson_bounds_of_every_dirac_match_wilson_report(graph, raw):
    w = site_weights(raw)
    spec = single_particle_spectrum(graph, w)
    times = [0.0, 0.01 * spec.t_rel, 0.1 * spec.t_rel, 2.0 * spec.t_rel]
    for k in (16, 10 ** 6):
        bounds = wilson_dirac_lower_bounds(w, k, times, spec)
        assert bounds.shape == (len(times), graph.n)
        for i, t in enumerate(times):
            for v, eta in enumerate(np.eye(graph.n)):
                ref = wilson_report(graph, w, k, eta, t, spec=spec).lower_bound
                assert abs(bounds[i, v] - ref) <= 1e-14 * abs(ref)
    assert (bounds.max() > 0.4) == (graph.n == 120)


def test_l2_decomposition_examples():
    g = cycle_graph(5)
    w = site_weights([1, 2, 3, 2, 1])
    rng = np.random.default_rng(2)
    eta = rng.dirichlet(np.ones(5))
    h0, nt0 = l2_decomposition(g, w, eta, 0.0)
    assert nt0 == 0.0
    assert h0 == pytest.approx(transport_norm(eta, w, 2.0) ** 2)
    t_rel = single_particle_spectrum(g, w).t_rel
    base = transport_norm(eta, w, 2.0) ** 2
    Q2, mu2 = generator_splitting_labeled(g, w, 2), product_weights(w, 2)
    for t in (0.3, 1.0, 2.5):
        h, nt = l2_decomposition(g, w, eta, t, 1e-10)
        direct = l2_sq_exact(g, w, eta, t, 1e-10)
        assert abs(h + nt - direct) <= 1e-9
        assert h + nt <= math.exp(-t / t_rel) * base + 1e-9
        # the averaged squared error never exceeds the worst pair deviation
        laws = transient_distribution(Q2, np.eye(25), t, 1e-10)
        assert direct <= float(np.max(np.abs(laws / mu2[:, None] - 1.0))) + 1e-9


def test_l2_decomposition_matches_monte_carlo():
    g = cycle_graph(5)
    w = uniform_weights(5)
    eta = np.array([0.6, 0.2, 0.1, 0.05, 0.05])
    t = single_particle_spectrum(g, w).t_rel
    h, nt = l2_decomposition(g, w, eta, t, 1e-10)
    replicas = 3000
    # compare squared-norm means through the raw samples of each replica
    from binsplit.simulate import SimOptions, simulate_averaging_batch
    opts = SimOptions(record_times=(t,), seed=33)
    sq, _ = simulate_averaging_batch(
        g, w, eta, opts, replicas,
        observe=lambda block: transport_norm(block, w, 2.0) ** 2)
    sq = sq[:, 0]
    stderr = sq.std(ddof=1) / math.sqrt(replicas)
    assert abs(sq.mean() - (h + nt)) <= 4 * stderr


def test_lower_bound_ordering_monte_carlo():
    # the evolved-density curve sits below the simulated transport mean
    g = cycle_graph(5)
    w = uniform_weights(5)
    eta = np.array([0.6, 0.2, 0.1, 0.05, 0.05])
    t = 1.2
    for p in (1.0, 2.0):
        (mean,), (err,) = wasserstein_estimate(g, w, eta, [t], p, 800, seed=44)
        h = evolved_density(g, w, eta, t)
        lower = float(np.sum(w.pi * np.abs(h - 1.0) ** p) ** (1.0 / p))
        assert lower <= mean + 4 * err


def test_nash_fit_fingerprints():
    g = cycle_graph(64)
    w = uniform_weights(64)
    t_rel = single_particle_spectrum(g, w).t_rel
    fit = nash_fit(g, w, np.geomspace(0.5, t_rel / 4, 24))
    assert 0.8 <= fit.d_hat <= 1.2
    assert fit.r_squared >= 0.99
    g2 = torus_graph([8, 8])
    w2 = uniform_weights(64)
    diag2 = nash_diagnose(g2, w2)
    assert diag2.finite_dimensional
    assert 1.6 <= diag2.fit.d_hat <= 2.4
    diag3 = nash_diagnose(complete_graph(64), uniform_weights(64))
    assert not diag3.finite_dimensional
    with pytest.raises(ValueError, match="window"):
        nash_fit(g, w, [0.001, 0.002, 0.003, 0.004])


def test_heat_kernel_max_profile_monotone():
    g = cycle_graph(16)
    w = uniform_weights(16)
    ts = np.geomspace(0.05, 20.0, 12)
    prof = heat_kernel_max_profile(g, w, ts)
    assert np.all(np.diff(prof) < 0)
    assert prof[0] <= 16.0 + 1e-9  # bounded by 1/min(pi)


def test_heat_kernel_max_profile_is_the_full_kernel_max():
    # the profile is read off the diagonal; the reference is the max over all
    # (x, y) of p_t(x, y) / pi(y), with p_t = exp(tQ) by scipy's expm
    from scipy.linalg import expm
    rng = np.random.default_rng(7)
    g = cycle_graph(10, conductance=rng.uniform(0.2, 3.0, 10).tolist())
    w = site_weights(rng.uniform(0.3, 2.0, 10))
    Q = generator_single_particle(g, w).toarray()
    ts = np.geomspace(0.01, 50.0, 20)
    ref = np.array([(expm(t * Q) / w.pi).max() for t in ts])
    prof = heat_kernel_max_profile(g, w, ts)
    assert np.max(np.abs(prof / ref - 1.0)) <= 1e-13


def test_tv_profile_cap_advises_bound_mode(monkeypatch):
    monkeypatch.setattr(spectral, "DEFAULT_TRANSIENT_CAP", 10)
    with pytest.raises(spectral.StateSpaceCapError, match="bound-based"):
        tv_profile_exact(cycle_graph(4), uniform_weights(4), 5, (5, 0, 0, 0), [1.0])
