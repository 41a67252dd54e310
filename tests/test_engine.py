"""The vectorized exact engine against its per-state reference: configuration
ranking, generator assembly (unlabeled and labeled), and block evolution of
several starts."""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import gammaln
from hypothesis import given, settings
from hypothesis import strategies as st

from binsplit import spectral
from binsplit.distances import (evolved_density, single_particle_spectrum, tv_profile_exact,
                                worst_l2_sq)
from binsplit.duality import _edge_kernel_apply
from binsplit.graphs import (complete_graph, custom_graph, cycle_graph, path_graph,
                             site_weights, torus_graph, uniform_weights)
from binsplit.spectral import (_Uniformization, _poisson_terms, enumerate_configs,
                               evolve_observable, generator_single_particle,
                               generator_splitting, generator_splitting_labeled,
                               labeled_states, product_weights, split_moves,
                               transient_distribution)


def _edge_split_prob(pi, x, y):
    return float(pi[x] / (pi[x] + pi[y]))


def _binom_pmf_table(m, p):
    """Reference Binomial(m, p) row, built alone, with p in {0, 1} special-cased."""
    j = np.arange(m + 1)
    logc = gammaln(m + 1) - gammaln(j + 1) - gammaln(m - j + 1)
    if p == 0.0:
        out = np.zeros(m + 1)
        out[0] = 1.0
        return out
    if p == 1.0:
        out = np.zeros(m + 1)
        out[m] = 1.0
        return out
    logp = logc + j * math.log(p) + (m - j) * math.log1p(-p)
    return np.exp(logp)


def generator_splitting_loop(graph, weights, k, space):
    """Per-state reference assembly: a Python loop over edges, states and
    splits, with targets looked up in a dict of configuration tuples."""
    pi = weights.pi
    size = space.size
    configs = space.configs
    index = {tuple(int(v) for v in row): i for i, row in enumerate(configs)}
    rows, cols, vals = [], [], []
    diag = np.zeros(size)
    pmf_cache = {}
    for (x, y, c) in graph.edges:
        p = _edge_split_prob(pi, x, y)
        for i in range(size):
            xi = configs[i]
            m = int(xi[x] + xi[y])
            key = (m, p)
            pmf = pmf_cache.get(key)
            if pmf is None:
                pmf = _binom_pmf_table(m, p)
                pmf_cache[key] = pmf
            cur = int(xi[x])
            diag[i] -= c * (1.0 - pmf[cur])
            if m == 0:
                continue
            target = xi.copy()
            for j in range(m + 1):
                if j == cur:
                    continue
                target[x] = j
                target[y] = m - j
                rows.append(i)
                cols.append(index[tuple(int(v) for v in target)])
                vals.append(c * pmf[j])
    rows += list(range(size))
    cols += list(range(size))
    vals += list(diag)
    Q = sp.csr_matrix((vals, (rows, cols)), shape=(size, size))
    Q.sum_duplicates()
    return Q


def generator_splitting_labeled_loop(graph, weights, k):
    """Per-tuple reference assembly: a Python loop over edges, position tuples
    and the side outcomes of the particles on the edge."""
    size = graph.n ** k
    pi = weights.pi
    n = graph.n
    strides = np.array([n ** (k - 1 - i) for i in range(k)], dtype=np.int64)
    states = labeled_states(n, k)
    rows, cols, vals = [], [], []
    diag = np.zeros(size)
    for (x, y, c) in graph.edges:
        p = _edge_split_prob(pi, x, y)
        for i, xs in enumerate(states):
            active = [j for j, v in enumerate(xs) if v == x or v == y]
            s = len(active)
            if s == 0:
                continue
            stay = 1.0
            for j in active:
                stay *= p if xs[j] == x else (1.0 - p)
            diag[i] -= c * (1.0 - stay)
            base = i - int(sum(strides[j] * xs[j] for j in active))
            for outcome in itertools.product((x, y), repeat=s):
                if all(outcome[t] == xs[active[t]] for t in range(s)):
                    continue
                prob = 1.0
                tgt = base
                for t, pos in enumerate(outcome):
                    prob *= p if pos == x else (1.0 - p)
                    tgt += int(strides[active[t]]) * pos
                rows.append(i)
                cols.append(tgt)
                vals.append(c * prob)
    rows += list(range(size))
    cols += list(range(size))
    vals += list(diag)
    Q = sp.csr_matrix((vals, (rows, cols)), shape=(size, size))
    Q.sum_duplicates()
    return Q


def generator_single_particle_loop(graph, weights):
    """Per-edge reference: exit rates c (1-p) from x and c p from y."""
    pi = weights.pi
    n = graph.n
    rows, cols, vals = [], [], []
    exit_rate = np.zeros(n)
    for (x, y, c) in graph.edges:
        p = _edge_split_prob(pi, x, y)
        rows += [x, y]
        cols += [y, x]
        vals += [c * (1.0 - p), c * p]
        exit_rate[x] += c * (1.0 - p)
        exit_rate[y] += c * p
    rows += list(range(n))
    cols += list(range(n))
    vals += list(-exit_rate)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def assert_same_csr(Q, Q_ref):
    for a, b in ((Q.data, Q_ref.data), (Q.indices, Q_ref.indices), (Q.indptr, Q_ref.indptr)):
        assert np.array_equal(a, b) and a.dtype == b.dtype


def enumerate_configs_reference(n, k):
    """Heaviest-first occupation vectors from itertools: the multisets of k
    vertices in lexicographic order, as occupation counts."""
    multisets = itertools.combinations_with_replacement(range(n), k)
    return np.array([np.bincount(np.array(c, dtype=np.int64), minlength=n)
                     for c in multisets]).reshape(-1, n)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), k=st.integers(0, 7))
def test_rank_roundtrip(n, k):
    space = enumerate_configs(n, k)
    assert np.array_equal(space.configs, enumerate_configs_reference(n, k))
    assert np.array_equal(space.rank(space.configs), np.arange(space.size))


def test_rank_rejects_non_configurations():
    space = enumerate_configs(3, 2)
    assert space.rank([(0, 1, 1)]).tolist() == [4]
    for bad in ((1, 1, 1), (3, -1, 0), (2, 0)):
        with pytest.raises(ValueError):
            space.rank([bad])


@pytest.mark.parametrize("graph, k", [
    (path_graph(4), 5),
    (cycle_graph(5), 6),
    (torus_graph([3, 3]), 3),
    (torus_graph([2, 3]), 4),
    # the wrap-around edge (0, 6) changes the rank terms of six sites
    (cycle_graph(7), 3),
    # every pair an edge: spans of one to four sites
    (complete_graph(5), 4),
    # per-edge conductances on a cycle with a chord
    (custom_graph([(0, 1, 2.0), (1, 2, 0.5), (2, 3, 1.5), (3, 0, 3.0), (1, 3, 0.25)]), 5),
])
def test_vectorized_assembly_matches_loop(graph, k):
    rng = np.random.default_rng(graph.n * 100 + k)
    space = enumerate_configs(graph.n, k)
    # moderate site-weights, then weights spanning 1e-6 to 1, whose split
    # probabilities lie within 1e-6 of 0 and 1
    for values in (rng.uniform(0.3, 2.0, graph.n), np.geomspace(1e-6, 1.0, graph.n)[::-1]):
        weights = site_weights(values)
        Q = generator_splitting(graph, weights, k, space)
        Q_ref = generator_splitting_loop(graph, weights, k, space)
        assert Q.has_canonical_format and Q.indices.dtype == np.int32
        assert (Q - Q_ref).nnz == 0
        assert_same_csr(Q, Q_ref)


def split_moves_loop(space, x, y, p):
    """Per-state reference jump list: sources ascending, then the count j
    left on x ascending, with targets looked up by rank."""
    src, dst, prob, stay = [], [], [], []
    for i, xi in enumerate(space.configs):
        m, cur = int(xi[x] + xi[y]), int(xi[x])
        pmf = _binom_pmf_table(m, p)
        stay.append(pmf[cur])
        for j in range(m + 1):
            if j != cur:
                target = xi.copy()
                target[x], target[y] = j, m - j
                src.append(i)
                dst.append(space.rank([target])[0])
                prob.append(pmf[j])
    return np.array(src), np.array(dst), np.array(prob), np.array(stay)


@pytest.mark.parametrize("x, y", [(0, 1), (1, 0), (0, 4), (4, 0), (3, 1), (1, 3)])
def test_split_moves_lists_each_jump_in_order(x, y):
    # either orientation: x > y moves particles toward lower sites, so the
    # left counts between the endpoints shrink
    space = enumerate_configs(5, 5)
    for p in (0.3, 1e-6 / (1.0 + 1e-6)):
        got = split_moves(space, x, y, p)
        for a, b in zip(got, split_moves_loop(space, x, y, p)):
            assert np.array_equal(a, b) and a.dtype == b.dtype


def test_assembly_peaks_within_twice_its_csr():
    # written straight into its CSR arrays, one edge at a time: on the 5-cycle
    # at k = 32 (58,905 states, 3.8M nonzeros) the temporaries of the
    # largest edge stay below the 44 MiB of CSR returned
    graph = cycle_graph(5)
    space = enumerate_configs(5, 32)
    tracemalloc.start()
    try:
        Q = generator_splitting(graph, uniform_weights(5), 32, space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert Q.has_canonical_format and Q.indices.dtype == np.int32
    assert peak <= 2 * (Q.data.nbytes + Q.indices.nbytes + Q.indptr.nbytes)


LABELED_CASES = ([(path_graph(4), k) for k in range(5)]
                 + [(cycle_graph(4), k) for k in range(5)]
                 + [(torus_graph([6, 6]), 2), (complete_graph(64), 1)])


@pytest.mark.parametrize("graph, k", LABELED_CASES)
def test_labeled_assembly_matches_loop(graph, k):
    rng = np.random.default_rng(graph.n * 10 + k)
    weights = site_weights(rng.uniform(0.3, 2.0, graph.n))
    assert_same_csr(generator_splitting_labeled(graph, weights, k),
                    generator_splitting_labeled_loop(graph, weights, k))


@pytest.mark.parametrize("graph", [path_graph(5), cycle_graph(6), torus_graph([3, 4]),
                                   complete_graph(16)])
def test_single_particle_is_labeled_k1(graph):
    rng = np.random.default_rng(graph.n)
    weights = site_weights(rng.uniform(0.3, 2.0, graph.n))
    Q = generator_single_particle(graph, weights)
    assert_same_csr(Q, generator_splitting_labeled(graph, weights, 1))
    # the diagonal collects c (1 - (1 - p)) where the loop summed c p: a few ulps
    ref = generator_single_particle_loop(graph, weights)
    assert np.array_equal(Q.indices, ref.indices) and np.array_equal(Q.indptr, ref.indptr)
    assert np.all(np.abs(Q.data - ref.data) <= 4 * np.spacing(np.abs(ref.data)))
    uniform = uniform_weights(graph.n)
    assert_same_csr(generator_single_particle(graph, uniform),
                    generator_single_particle_loop(graph, uniform))


def test_pair_kernel_block_equals_each_start():
    graph = path_graph(4)
    weights = site_weights([0.1, 0.4, 0.2, 0.3])
    Q2 = generator_splitting_labeled(graph, weights, 2)
    denom = product_weights(weights, 2)
    worst = 0.0
    for start in range(16):
        law = transient_distribution(Q2, np.eye(16)[start], 0.6, 1e-10)
        worst = max(worst, float(np.max(np.abs(law / denom - 1.0))))
    laws = transient_distribution(Q2, np.eye(16), 0.6, 1e-10)
    assert float(np.max(np.abs(laws / denom[:, None] - 1.0))) == worst


def test_split_moves_either_orientation():
    space = enumerate_configs(4, 4)
    p = 0.3

    def kernel(x, y, q):
        src, dst, prob, stay = split_moves(space, x, y, q)
        return (sp.csr_matrix((prob, (src, dst)), shape=(space.size,) * 2)
                + sp.diags(stay)).toarray()

    K = kernel(0, 2, p)
    assert np.allclose(K, kernel(2, 0, 1.0 - p), atol=1e-15)
    assert np.allclose(K.sum(axis=1), 1.0, atol=1e-14)


def test_split_table_rows_equal_reference_rows():
    # on the edge (0, 1) of three sites every pooled count m <= k occurs, and
    # each configuration's stay and jump probabilities spell out row m
    k = 12
    space = enumerate_configs(3, k)
    cur, m = space.configs[:, 0], space.configs[:, 0] + space.configs[:, 1]
    ps = [0.0, 1.0, 0.5, 1e-17, 1.0 - 1e-16] + np.random.default_rng(8).random(300).tolist()
    for p in ps:
        src, dst, prob, stay = split_moves(space, 0, 1, p)
        rows = np.zeros((space.size, k + 1))
        rows[np.arange(space.size), cur] = stay
        rows[src, space.configs[dst, 0]] = prob
        for mm in range(k + 1):
            i = np.flatnonzero(m == mm)
            assert np.array_equal(rows[i, :mm + 1],
                                  np.broadcast_to(_binom_pmf_table(mm, p), (i.size, mm + 1)))


def test_block_of_starts_equals_each_alone():
    graph = cycle_graph(4)
    weights = site_weights([0.1, 0.2, 0.3, 0.4])
    k = 5
    space = enumerate_configs(4, k)
    starts = np.array([[5, 0, 0, 0], [0, 0, 0, 5], [2, 1, 1, 1]])
    times = [0.0, 0.3, 0.9, 2.5]
    block = tv_profile_exact(graph, weights, k, starts, times, 1e-10, space)
    for s, xi0 in enumerate(starts):
        alone = tv_profile_exact(graph, weights, k, xi0, times, 1e-10, space)
        assert [d[s] for _, d in block] == [d for _, d in alone]
    Q = generator_splitting(graph, weights, k, space)
    rng = np.random.default_rng(1)
    init = rng.dirichlet(np.ones(space.size), size=3).T
    laws = transient_distribution(Q, init, 0.7, 1e-12)
    obs = evolve_observable(Q, init, 0.7, 1e-12)
    for s in range(3):
        column = np.ascontiguousarray(init[:, s])
        assert np.array_equal(laws[:, s], transient_distribution(Q, column, 0.7, 1e-12))
        assert np.array_equal(obs[:, s], evolve_observable(Q, column, 0.7, 1e-12))


def test_edge_redistribution_matches_binomial_sum():
    space = enumerate_configs(4, 5)
    weights = site_weights([0.1, 0.4, 0.2, 0.3])
    pi = weights.pi
    f = np.random.default_rng(7).normal(size=space.size)
    for x, y in ((0, 2), (3, 1)):
        p = pi[x] / (pi[x] + pi[y])
        got = _edge_kernel_apply(f, (x, y), weights, space)
        for i, xi in enumerate(space.configs):
            m = int(xi[x] + xi[y])
            ref = 0.0
            for j in range(m + 1):
                target = xi.copy()
                target[x], target[y] = j, m - j
                ref += math.comb(m, j) * p ** j * (1 - p) ** (m - j) * f[space.rank([target])[0]]
            assert got[i] == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_tv_profile_exact_rejects_bad_arguments():
    graph = cycle_graph(3)
    weights = site_weights([0.2, 0.3, 0.5])
    space = enumerate_configs(3, 2)
    xi0 = np.array([2, 0, 0])
    times = [0.1, 0.2, 0.3, 0.4, 0.5]
    for bad_tol in (1e-5, 0.0, -1e-9):
        with pytest.raises(ValueError, match="tol"):
            tv_profile_exact(graph, weights, 2, xi0, times, bad_tol, space)
    with pytest.raises(ValueError, match="nonnegative"):
        tv_profile_exact(graph, weights, 2, xi0, [-0.1, 0.5], 1e-9, space)
    with pytest.raises(ValueError, match="sorted"):
        tv_profile_exact(graph, weights, 2, xi0, [0.5, 0.1], 1e-9, space)
    for bad_start in (np.array([2, 0, 0, 0, 0, 0]), np.array([2, 0]),
                      np.zeros((1, 2, 3), dtype=int)):
        with pytest.raises(ValueError):
            tv_profile_exact(graph, weights, 2, bad_start, times, 1e-9, space)


def test_tv_profile_exact_reports_mass_defect(monkeypatch):
    # lost mass beyond 2 tol is reported, not renormalized away
    graph = cycle_graph(3)
    weights = site_weights([0.2, 0.3, 0.5])
    space = enumerate_configs(3, 2)
    evolve = _Uniformization.evolve
    for leak, raises in ((0.5e-9, False), (3e-9, True)):
        monkeypatch.setattr(_Uniformization, "evolve",
                            lambda self, *args, leak=leak, **kwargs:
                            ((t, law * (1.0 - leak)) for t, law in evolve(self, *args, **kwargs)))
        if raises:
            with pytest.raises(ValueError, match="mass defect"):
                tv_profile_exact(graph, weights, 2, (2, 0, 0), [0.5], 1e-9, space)
        else:
            tv_profile_exact(graph, weights, 2, (2, 0, 0), [0.5], 1e-9, space)


def poisson_terms_reference(rate_t, tol):
    """The Poisson weights through scipy.stats, as the kernel computed them
    before it dropped that import."""
    from scipy.stats import poisson
    if rate_t <= 0.0:
        return np.array([1.0])
    m = max(int(poisson.isf(tol, rate_t)), 1)
    while poisson.sf(m, rate_t) >= tol:
        m += max(5, m // 10)
    return poisson.pmf(np.arange(m + 1), rate_t)


@pytest.mark.parametrize("rate_t", [0.0, 1e-3, 5e-3, 0.3, 1.0, 7.5, 57.5, 480.0, 5e4])
def test_poisson_terms_match_scipy_stats(rate_t):
    for tol in (1e-6, 1e-9, 2.5e-11, 1e-12):
        w = _poisson_terms(rate_t, tol)
        ref = poisson_terms_reference(rate_t, tol)
        assert w.size == ref.size and np.array_equal(w, ref)


def test_cli_import_leaves_scipy_stats_out():
    # nor scipy.sparse.csgraph or networkx: each would add to every run's set-up time
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys, binsplit.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'stats'] "
            "or m.split('.')[:3] == ['scipy', 'sparse', 'csgraph'] "
            "or m.split('.')[0] == 'networkx'))")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"


def cycle_block():
    graph = cycle_graph(4)
    weights = site_weights([0.1, 0.2, 0.3, 0.4])
    space = enumerate_configs(4, 5)
    Q = generator_splitting(graph, weights, 5, space)
    laws = np.random.default_rng(3).dirichlet(np.ones(space.size), size=3).T
    return Q, laws


@pytest.mark.parametrize("measure", [True, False])
def test_multi_time_evolve_equals_one_time_calls(measure):
    # one power sequence for every time, against one evolution from 0 per time
    Q, block = cycle_block()
    times = [0.0, 0.05, 0.4, 0.4, 1.3, 4.0]
    tol = 1e-10
    stacked = np.stack([law.copy() for _, law in _Uniformization(Q).evolve(block, times, tol,
                                                                            measure)])
    assert stacked.shape == (len(times),) + block.shape
    for t, got in zip(times, stacked):
        alone = next(_Uniformization(Q).evolve(block, [t], tol, measure))[1]
        assert np.max(np.abs(got - alone)) <= tol
    assert np.array_equal(stacked[0], block)


@pytest.mark.parametrize("measure", [True, False])
def test_evolve_groups_match_one_sequence(monkeypatch, measure):
    Q, block = cycle_block()
    times = np.array([0.1, 0.4, 0.9, 1.3, 2.5, 4.0])
    tol = 1e-10
    one = _Uniformization(Q)
    whole = [law.copy() for _, law in one.evolve(block, times, tol, measure)]
    # room for three vectors: one power per block and two times per group
    monkeypatch.setattr(spectral, "EVOLVE_BYTES", 3 * 8 * block.size)
    split = _Uniformization(Q)
    for i, (t, got) in enumerate(split.evolve(block, times, tol, measure)):
        assert t == times[i]
        assert np.max(np.abs(got - whole[i])) <= tol
    # three legs, each from the end of the one before at tol / 3; at tol
    # each of these legs would take one term fewer
    legs = [(0.0, 0.4), (0.4, 1.3), (1.3, 4.0)]
    assert split.matvecs == sum(_poisson_terms(split.rate * (b - a), tol / 3).size - 1
                                for a, b in legs)
    assert one.matvecs == _poisson_terms(one.rate * times[-1], tol).size - 1


@pytest.mark.parametrize("caller", ["worst_l2_sq", "evolved_density", "transient_distribution"])
def test_streaming_callers_match_one_group(monkeypatch, caller):
    # with room for three vectors, every caller's times run in groups of at
    # most two, each leg at tol / legs, and its values stay within 2 tol
    graph = cycle_graph(4)
    weights = site_weights([0.1, 0.2, 0.3, 0.4])
    Q, block = cycle_block()
    times = [0.1, 0.4, 0.9, 1.3, 2.5, 4.0]
    tol = 1e-10
    run, size = {
        "worst_l2_sq": (lambda: worst_l2_sq(graph, weights, times[::-1], tol), 16),
        "evolved_density": (lambda: evolved_density(graph, weights, [0, 0, 1.0, 0], times, tol),
                            4),
        "transient_distribution": (lambda: transient_distribution(Q, block, 1.3, tol),
                                   block.size),
    }[caller]
    whole = np.array(run())
    monkeypatch.setattr(spectral, "EVOLVE_BYTES", 3 * 8 * size)
    legs = []
    terms = spectral._poisson_terms
    monkeypatch.setattr(spectral, "_poisson_terms",
                        lambda rate_t, leg_tol: (legs.append(leg_tol), terms(rate_t, leg_tol))[1])
    grouped = np.array(run())
    assert grouped.shape == whole.shape
    assert np.max(np.abs(grouped - whole)) <= 2 * tol
    assert min(legs) == (tol if caller == "transient_distribution" else tol / 3)


def test_cutoff_profile_takes_one_power_sequence(monkeypatch):
    # the exact_cutoff grid at k = 14: one chained step per time took 555 matvecs
    graph = cycle_graph(5)
    weights = uniform_weights(5)
    times = np.linspace(0.05, 8.0, 40) * single_particle_spectrum(graph, weights).t_rel
    seen = []
    evolve = _Uniformization.evolve
    monkeypatch.setattr(_Uniformization, "evolve",
                        lambda self, *args, **kwargs: (seen.append(self),
                                                       evolve(self, *args, **kwargs))[1])
    tv_profile_exact(graph, weights, 14, np.eye(5, dtype=np.int64) * 14, times, 1e-9)
    [kernel] = seen
    assert kernel.matvecs == _poisson_terms(kernel.rate * times[-1], 1e-9 / 40).size - 1


def test_cutoff_profile_holds_one_group_of_laws(monkeypatch):
    # 40 times of 210 starts on 210 states: stacked, the laws would take 40
    # vectors.  With room for three (two times per group and a block of one
    # power), the rest is the start, the restart, two powers in flight and
    # the copy of one law that its TV is taken from: about 9 vectors
    graph = cycle_graph(5)
    weights = uniform_weights(5)
    space = enumerate_configs(5, 6)
    times = np.linspace(0.05, 3.0, 40) * single_particle_spectrum(graph, weights).t_rel
    vector = 8 * space.size * space.size
    whole = tv_profile_exact(graph, weights, 6, space.configs, times, 1e-9, space)
    monkeypatch.setattr(spectral, "EVOLVE_BYTES", 3 * vector)
    tracemalloc.start()
    try:
        grouped = tv_profile_exact(graph, weights, 6, space.configs, times, 1e-9, space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * vector
    for (t, a), (s, b) in zip(whole, grouped):
        assert t == s
        assert np.max(np.abs(a - b)) <= 2e-9


def test_worst_l2_sq_takes_times_in_any_order():
    graph = cycle_graph(4)
    weights = site_weights([0.1, 0.2, 0.3, 0.4])
    times = [0.9, 0.1, 2.5, 0.4]
    shuffled = worst_l2_sq(graph, weights, times)
    ascending = worst_l2_sq(graph, weights, sorted(times))
    assert shuffled == [ascending[sorted(times).index(t)] for t in times]


BAD_TIMES = [(math.nan, "nan"), (math.inf, "inf"), (-1.0, "-1.0")]
BAD_TOLS = [(0.0, r"0\.0"), (-1.0, r"-1\.0"), (0.5, r"0\.5"), (1e-3, r"0\.001")]


@pytest.mark.parametrize("entry", ["transient_distribution", "evolve_observable",
                                   "tv_profile_exact", "worst_l2_sq"])
def test_entry_point_rejects_bad_time_and_tol(entry):
    graph = cycle_graph(3)
    weights = site_weights([0.2, 0.3, 0.5])
    space = enumerate_configs(3, 2)
    Q = generator_splitting(graph, weights, 2, space)
    init = np.eye(space.size)[0]
    call = {
        "transient_distribution": lambda t, tol: transient_distribution(Q, init, t, tol),
        "evolve_observable": lambda t, tol: evolve_observable(Q, init, t, tol),
        "tv_profile_exact": lambda t, tol: tv_profile_exact(graph, weights, 2, (2, 0, 0),
                                                            [t], tol, space),
        "worst_l2_sq": lambda t, tol: worst_l2_sq(graph, weights, t, tol),
    }[entry]
    for t, shown in BAD_TIMES:
        with pytest.raises(ValueError, match=shown):
            call(t, 1e-9)
    for tol, shown in BAD_TOLS:
        with pytest.raises(ValueError, match=f"tol.*{shown}"):
            call(0.5, tol)
    call(0.5, 1e-9)
