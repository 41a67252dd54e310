import numpy as np
import pytest
from scipy.stats import binom, chi2

from binsplit.averaging import transport_norm
from binsplit.distances import single_particle_spectrum, tv_distance
from binsplit.graphs import (complete_graph, cycle_graph, path_graph, site_weights,
                             uniform_weights)
from binsplit import simulate
from binsplit.simulate import (STREAM_LAYOUT, SimOptions, make_rng,
                               simulate_averaging,
                               simulate_averaging_batch, simulate_multicolored,
                               simulate_splitting, simulate_splitting_labeled)
from binsplit.spectral import generator_single_particle, transient_distribution


def test_sim_options_validation():
    with pytest.raises(ValueError):
        SimOptions(record_times=(0.5, 0.2))
    with pytest.raises(ValueError, match="nonnegative"):
        SimOptions(record_times=(-0.5, 2.0))
    with pytest.raises(ValueError):
        SimOptions(coupling_mode="magic")


def test_splitting_edge_step_chi_square_gof():
    # one fast_binomial edge step of simulate_splitting against the exact pmf;
    # merge the sparse upper tail so expected counts stay sane
    rng = make_rng(2)
    m, p, draws = 20, 0.37, 10 ** 6
    counts = np.zeros(m + 1, dtype=np.int64)
    for _ in range(draws):
        state = [m, 0]
        simulate._redistribute_counts(state, 0, 1, p, rng)
        assert state[0] + state[1] == m
        counts[state[0]] += 1
    expected = binom.pmf(np.arange(m + 1), m, p) * draws
    # merge bins with expected < 5 into their left neighbor
    obs, exp = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(counts, expected):
        acc_o += o
        acc_e += e
        if acc_e >= 5:
            obs.append(acc_o)
            exp.append(acc_e)
            acc_o = acc_e = 0.0
    obs[-1] += acc_o
    exp[-1] += acc_e
    stat = sum((o - e) ** 2 / e for o, e in zip(obs, exp))
    dof = len(obs) - 1
    assert stat <= chi2.ppf(1 - 0.001, dof)


def _schedule(graph, times, seed, replica_id=0):
    """Per record interval, the x endpoints of one replica's events."""
    events = []
    opts = SimOptions(record_times=times, seed=seed, replica_id=replica_id)
    ends = simulate._run_replica(graph, uniform_weights(graph.n), opts,
                                 lambda x, y, p, rng: events.append(x),
                                 lambda: len(events))
    return np.split(np.array(events), ends[:-1])


def test_event_schedule_statistics():
    # per record interval: a Poisson(C dt) count, then marks that pick edges
    # in proportion to conductance
    assert STREAM_LAYOUT == 2
    intervals = 10 ** 5
    n1 = np.array([len(e) for e in _schedule(path_graph(2),
                                             np.arange(1.0, intervals + 1), 3)])
    assert abs(n1.mean() - 1.0) <= 0.02
    g2 = path_graph(3, conductance=[1.0, 3.0])
    per_interval = _schedule(g2, 0.5 * np.arange(1, intervals + 1), 4)
    n2 = np.array([len(e) for e in per_interval])
    assert abs(n2.mean() - 2.0) <= 0.03 and abs(n2.var() - 2.0) <= 0.1
    # edge 1 = (1, 2) carries conductance 3 of 4
    picks = np.concatenate(per_interval)
    assert abs((picks == 1).mean() - 0.75) <= 0.01
    # same seed, same stream
    a = _schedule(g2, (0.5, 1.0), 9, replica_id=1)
    b = _schedule(g2, (0.5, 1.0), 9, replica_id=1)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    with pytest.raises(ValueError):
        simulate_averaging(path_graph(1), uniform_weights(1), np.array([1.0]),
                           SimOptions(record_times=(1.0,)))


def test_simulate_averaging_basics():
    g = path_graph(2)
    w = site_weights([1 / 3, 2 / 3])
    eta0 = np.array([1.0, 0.0])
    opts = SimOptions(record_times=(0.0,), seed=5)
    assert np.array_equal(simulate_averaging(g, w, eta0, opts)[0], eta0)
    # one edge absorbs after the first update
    opts2 = SimOptions(record_times=(5.0, 20.0, 50.0), seed=5)
    states = simulate_averaging(g, w, eta0, opts2)
    for s in states:
        assert np.allclose(s, [1 / 3, 2 / 3], atol=1e-15)


def test_simulate_averaging_descent_and_convergence():
    g = cycle_graph(8)
    w = uniform_weights(8)
    t_rel = single_particle_spectrum(g, w).t_rel
    eta0 = np.zeros(8)
    eta0[0] = 1.0
    grid = tuple(np.linspace(0.2, 30 * t_rel, 60))
    for rep in range(100):
        opts = SimOptions(record_times=grid, seed=6, replica_id=rep)
        states = simulate_averaging(g, w, eta0, opts)
        norms = [transport_norm(s, w, 2.0) for s in states]
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))
        assert norms[-1] <= 1e-4


def test_averaging_batch_rows_are_replicas():
    g = cycle_graph(6)
    w = site_weights([0.1, 0.2, 0.1, 0.25, 0.15, 0.2])
    eta0 = np.array([0.5, 0.5, 0, 0, 0, 0])
    times = (0.0, 0.4, 1.3, 2.0)
    opts = SimOptions(record_times=times, seed=16)
    batch, drift = simulate_averaging_batch(g, w, eta0, opts, 40)
    assert batch.shape == (40, len(times), 6) and drift == 0
    # the first R replicas of a 2R batch equal the R batch, bit for bit
    half, _ = simulate_averaging_batch(g, w, eta0, opts, 20)
    assert np.array_equal(batch[:20], half)
    # simulate_averaging for replica r equals row r of the batch
    for r in (0, 7, 39):
        one = simulate_averaging(g, w, eta0, SimOptions(record_times=times,
                                                        seed=16, replica_id=r))
        assert np.array_equal(np.array(one), batch[r])
    # observed values are the observable of the states, row by row
    norms, _ = simulate_averaging_batch(
        g, w, eta0, opts, 40, observe=lambda b: transport_norm(b, w, 1.0))
    assert norms.shape == (40, len(times))
    assert all(norms[r, i] == transport_norm(batch[r, i], w, 1.0)
               for r in range(40) for i in range(len(times)))


def test_averaging_batch_grouping_invariant(monkeypatch):
    # results do not depend on the group size or on how an interval's marks
    # are split into held chunks
    g = cycle_graph(5)
    w = uniform_weights(5)
    eta0 = np.array([1.0, 0, 0, 0, 0])
    opts = SimOptions(record_times=(0.5, 30.0), seed=17)
    ref, _ = simulate_averaging_batch(g, w, eta0, opts, 30)
    monkeypatch.setattr(simulate, "GROUP_BYTES", 1)
    monkeypatch.setattr(simulate, "MAX_HELD_MARKS", 7)
    assert simulate._group_shape(5, 150.0) == (1, 7)
    small, _ = simulate_averaging_batch(g, w, eta0, opts, 30)
    assert np.array_equal(ref, small)


def test_drift_guard_rescales_off_mass_once():
    g = cycle_graph(4)
    w = uniform_weights(4)
    times = (0.5, 2.0, 6.0)
    opts = SimOptions(record_times=times, seed=18)
    for eta0, rescales in ((np.array([1.0 + 1e-11, 0, 0, 0]), 1),
                           (np.array([1.0, 0, 0, 0]), 0)):
        for r in range(5):
            one = SimOptions(record_times=times, seed=18, replica_id=r)
            states, drift = simulate_averaging_batch(g, w, eta0, one, 1)
            assert drift == rescales
            assert abs(states[0, -1].sum() - 1.0) <= 1e-12
        batch, total = simulate_averaging_batch(g, w, eta0, opts, 25)
        assert total == 25 * rescales
        assert np.all(np.abs(batch.sum(axis=2) - 1.0) <= 1e-12)


def test_simulate_splitting_conservation_and_stationary_law():
    g = path_graph(2)
    w = site_weights([0.3, 0.7])
    opts_tpl = dict(record_times=(20.0,), seed=7)
    counts = np.zeros(11)
    for rep in range(10 ** 5):
        xi_t = simulate_splitting(g, w, np.array([4, 6]),
                                  SimOptions(replica_id=rep, **opts_tpl))[0]
        assert xi_t.sum() == 10
        counts[xi_t[0]] += 1
    emp = counts / counts.sum()
    exact = binom.pmf(np.arange(11), 10, 0.3)
    assert 0.5 * np.abs(emp - exact).sum() <= 0.01


def test_simulate_splitting_matches_transient_law():
    g = cycle_graph(4)
    w = uniform_weights(4)
    t = 1.3
    counts = np.zeros(4)
    for rep in range(10 ** 5):
        opts = SimOptions(record_times=(t,), seed=8, replica_id=rep)
        xi_t = simulate_splitting(g, w, np.array([1, 0, 0, 0]), opts)[0]
        counts[int(np.nonzero(xi_t)[0][0])] += 1
    Q = generator_single_particle(g, w)
    exact = transient_distribution(Q, np.array([1.0, 0, 0, 0]), t, 1e-10)
    assert tv_distance(counts / counts.sum(), exact) <= 0.02


def test_labeled_k1_pathwise_equals_unlabeled_per_particle():
    g = cycle_graph(4)
    w = site_weights([0.1, 0.2, 0.3, 0.4])
    times = tuple(np.linspace(0.3, 4.0, 8))
    for rep in range(50):
        opts = SimOptions(record_times=times, seed=10,
                          replica_id=rep, coupling_mode="per_particle_bernoulli")
        lab = simulate_splitting_labeled(g, w, (2,), opts)
        unl = simulate_splitting(g, w, np.array([0, 0, 1, 0]), opts)
        for xs, xi in zip(lab, unl):
            assert xi[xs[0]] == 1 and xi.sum() == 1


def test_labeled_exchangeability_pathwise():
    g = path_graph(3)
    w = uniform_weights(3)
    times = (0.4, 1.1, 2.0)
    perm = (2, 0, 3, 1)
    xs0 = (0, 0, 1, 2)
    xs0_perm = tuple(xs0[j] for j in perm)
    for rep in range(40):
        opts = SimOptions(record_times=times, seed=11, replica_id=rep)
        a = simulate_splitting_labeled(g, w, xs0, opts)
        b = simulate_splitting_labeled(g, w, xs0_perm, opts)
        for u, v in zip(a, b):
            assert np.array_equal(np.bincount(u, minlength=3),
                                  np.bincount(v, minlength=3))


def _counting_reference(graph, weights, xi0, opts):
    """The unlabeled run with its own counting update: the per-particle mode
    draws one uniform per pooled particle and puts the count below p on x."""
    xi = [int(v) for v in xi0]

    def update(x, y, p, rng):
        m = xi[x] + xi[y]
        if opts.coupling_mode == "fast_binomial":
            if m == 0:
                return
            k_x = int(rng.binomial(m, p))
        else:
            k_x = int(np.count_nonzero(rng.random(m) < p))
        xi[x], xi[y] = k_x, m - k_x

    return simulate._run_replica(graph, weights, opts, update,
                                 lambda: np.array(xi, dtype=np.int64))


def _labeled_reference(graph, weights, xs0, opts):
    xs = [int(v) for v in xs0]

    def update(x, y, p, rng):
        active = [j for j, v in enumerate(xs) if v == x or v == y]
        if active:
            u = rng.random(len(active))
            for t_idx, j in enumerate(active):
                xs[j] = x if u[t_idx] < p else y

    return simulate._run_replica(graph, weights, opts, update, lambda: tuple(xs))


def _multicolored_reference(graph, weights, xi0, opts):
    """Per-color counts: the pooled uniforms of an event are split into one
    consecutive block per color, colors ascending."""
    n = graph.n
    state = np.diag(np.asarray(xi0, dtype=np.int64))  # row = color, col = vertex

    def update(x, y, p, rng):
        m_per_color = state[:, x] + state[:, y]
        u = rng.random(int(m_per_color.sum()))
        offset = 0
        for z in range(n):
            m_z = int(m_per_color[z])
            if m_z == 0:
                continue
            k_x = int(np.count_nonzero(u[offset:offset + m_z] < p))
            offset += m_z
            state[z, x] = k_x
            state[z, y] = m_z - k_x

    return simulate._run_replica(graph, weights, opts, update, state.copy)


@pytest.mark.parametrize("graph", [path_graph(2), path_graph(3), cycle_graph(4),
                                   cycle_graph(5), complete_graph(6)],
                         ids=["path2", "path3", "cycle4", "cycle5", "complete6"])
def test_per_particle_views_equal_reference_updates(graph):
    # the per-particle unlabeled and multicolored runs count the one labeled
    # run; they equal their own count updates bit for bit, stream included
    rng = np.random.default_rng(19)
    times = (0.3, 1.0, 2.5, 10.0)
    for weights in (uniform_weights(graph.n), site_weights(rng.random(graph.n) + 0.1)):
        for rep in range(40):
            k = 0 if rep == 0 else int(rng.integers(1, 6))
            xi0 = np.bincount(rng.integers(0, graph.n, size=k), minlength=graph.n)
            xs0 = rng.integers(0, graph.n, size=k)
            for mode in ("fast_binomial", "per_particle_bernoulli"):
                opts = SimOptions(record_times=times, seed=19, replica_id=rep,
                                  coupling_mode=mode)
                got = simulate_splitting(graph, weights, xi0, opts)
                ref = _counting_reference(graph, weights, xi0, opts)
                assert all(a.dtype == b.dtype and np.array_equal(a, b)
                           for a, b in zip(got, ref, strict=True))
                assert (simulate_splitting_labeled(graph, weights, xs0, opts)
                        == _labeled_reference(graph, weights, xs0, opts))
            # opts is now the per-particle mode, the one multicolored runs take
            got = simulate_multicolored(graph, weights, xi0, opts)
            ref = _multicolored_reference(graph, weights, xi0, opts)
            assert all(a.dtype == b.dtype and np.array_equal(a, b)
                       for a, b in zip(got, ref, strict=True))


def test_occupation_counts_are_checked():
    g = path_graph(3)
    w = uniform_weights(3)
    for mode in ("fast_binomial", "per_particle_bernoulli"):
        opts = SimOptions(record_times=(1.0,), coupling_mode=mode)
        for bad in (np.array([2, -1, 1]), np.array([1, 1])):
            with pytest.raises(ValueError, match="nonnegative vector of length 3"):
                simulate_splitting(g, w, bad, opts)
            if mode == "per_particle_bernoulli":
                with pytest.raises(ValueError, match="nonnegative vector of length 3"):
                    simulate_multicolored(g, w, bad, opts)


def test_multicolored_requires_coupled_mode():
    g = path_graph(3)
    w = uniform_weights(3)
    opts = SimOptions(record_times=(1.0,), seed=12, coupling_mode="fast_binomial")
    with pytest.raises(ValueError, match="per_particle_bernoulli"):
        simulate_multicolored(g, w, np.array([2, 1, 0]), opts)


def test_multicolored_projection_and_totals():
    g = path_graph(3)
    w = site_weights([0.25, 0.35, 0.4])
    xi0 = np.array([3, 0, 2])
    times = (0.2, 0.7, 1.5, 3.0)
    for rep in range(200):
        opts = SimOptions(record_times=times, seed=13,
                          replica_id=rep, coupling_mode="per_particle_bernoulli")
        colored = simulate_multicolored(g, w, xi0, opts)
        plain = simulate_splitting(g, w, xi0, opts)
        for c, p in zip(colored, plain):
            assert np.array_equal(c.sum(axis=0), p)
            assert np.array_equal(c.sum(axis=1), xi0)


def test_determinism_and_stream_independence():
    g = cycle_graph(5)
    w = uniform_weights(5)
    times = (0.5, 1.5)
    opts = SimOptions(record_times=times, seed=14, replica_id=2)
    a = simulate_splitting(g, w, np.array([2, 1, 0, 0, 0]), opts)
    b = simulate_splitting(g, w, np.array([2, 1, 0, 0, 0]), opts)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    other = SimOptions(record_times=times, seed=14, replica_id=3)
    c = simulate_splitting(g, w, np.array([2, 1, 0, 0, 0]), other)
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))
