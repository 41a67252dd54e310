import math
from bisect import bisect_right

import numpy as np
import pytest
from scipy.stats import binom, chi2, poisson

from binsplit.averaging import transport_norm
from binsplit.distances import single_particle_spectrum
from binsplit.graphs import (complete_graph, cycle_graph, path_graph, site_weights,
                             uniform_weights)
from binsplit import simulate
from binsplit.simulate import (STREAM_LAYOUT, SimOptions, make_rng,
                               simulate_averaging,
                               simulate_averaging_batch, simulate_multicolored,
                               simulate_splitting, simulate_splitting_batch)
from binsplit.spectral import generator_single_particle, transient_distribution


def test_sim_options_validation():
    with pytest.raises(ValueError):
        SimOptions(record_times=(0.5, 0.2))
    with pytest.raises(ValueError, match="nonnegative"):
        SimOptions(record_times=(-0.5, 2.0))


def test_splitting_edge_step_chi_square_gof():
    # one edge split of the labeled step against the exact pmf: m particles
    # on edge 01 whose x-share is p, each with its own uniform; merge the
    # sparse upper tail so expected counts stay sane
    rng = make_rng(2)
    m, p, draws = 20, 0.37, 10 ** 6
    counts = np.zeros(m + 1, dtype=np.int64)
    block = 5 * 10 ** 4
    x, y = np.zeros((1, block), dtype=np.int64), np.ones((1, block), dtype=np.int64)
    px = np.full((1, block), p)
    for _ in range(draws // block):
        pos = np.zeros((block, m), dtype=np.int64)
        simulate._split_particles(pos, np.arange(block), [block], x, y, px,
                                  rng.random((block, 1, 1 + m)))
        assert np.all((pos == 0) | (pos == 1))
        counts += np.bincount(np.count_nonzero(pos == 0, axis=1), minlength=m + 1)
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


def _slice(seed, stream, replica, i, c, length):
    """Layout 4: slice (i, c) of ``length`` uniforms of one replica, from a
    fresh numpy Philox keyed by (seed, stream 2^56) whose first block is at
    counter words (replica length / 4, i, c); numpy steps the counter before
    it computes a block."""
    counter = ((c << 128 | i << 64 | replica * length // 4) - 1) % (1 << 256)
    philox = np.random.Philox(key=seed | stream << 120, counter=counter)
    return np.random.Generator(philox).random(length)


def _poisson_count(lam, u):
    """The first j from lo = max(0, floor(lam - 12 sqrt(lam) - 40)) whose
    Poisson(lam) probability mass from lo to j, summed in order from
    log-space terms, exceeds u, stopping at lam + 12 sqrt(lam) + 39."""
    spread = 12.0 * math.sqrt(lam) + 40.0
    lo, top = max(0, math.floor(lam - spread)), int(lam + spread)
    log_lam = math.log(lam) if lam > 0.0 else -math.inf
    j = lo
    cdf = math.exp(j * log_lam - lam - math.lgamma(j + 1)) if j else math.exp(-lam)
    while cdf <= u and j < top - 1:
        j += 1
        cdf += math.exp(j * log_lam - lam - math.lgamma(j + 1))
    return j


def _events(graph, weights, times, seed, k, replica_id=0):
    """Layout 4, one replica at a time, one Philox per slice: per record
    interval i the count from the first uniform of its stream-1 slice (i, 0)
    of 4, then chunks of S = max(1, min(ceil(C dt), 16 // (1 + k))) events,
    chunk c the stream-0 slice (i, c) of 4 ceil(S (1 + k) / 4) uniforms, with
    a block of 1 + k uniforms per event whose first, the mark, picks the edge
    by conductance.  Yields per interval the (x, y, p, u) of its events, p
    the x-side share and u the k particle uniforms."""
    cum = np.cumsum(graph.edge_c).tolist()
    total = cum[-1]
    pi = weights.pi
    prev = 0.0
    for i, t in enumerate(times):
        lam = total * (t - prev)
        held = max(1, min(math.ceil(lam), 16 // (1 + k)))
        length = -(-held * (1 + k) // 4) * 4
        events = []
        for j in range(_poisson_count(lam, _slice(seed, 1, replica_id, i, 0, 4)[0])):
            c, s = divmod(j, held)
            if s == 0:
                chunk = _slice(seed, 0, replica_id, i, c, length)
            block = chunk[s * (1 + k):(s + 1) * (1 + k)]
            e = min(bisect_right(cum, block[0] * total), len(cum) - 1)
            x, y = int(graph.edge_x[e]), int(graph.edge_y[e])
            events.append((x, y, pi[x] / (pi[x] + pi[y]), block[1:]))
        yield events
        prev = t


def _averaging_reference(graph, weights, eta0, times, seed, replica_id=0):
    """The averaging dynamics, layout 4 at k = 0: pool and re-split the
    values on each event's edge."""
    eta = np.array(eta0, dtype=float)
    out = []
    for events in _events(graph, weights, times, seed, 0, replica_id):
        for x, y, p, _ in events:
            pooled = eta[x] + eta[y]
            eta[x] = p * pooled
            eta[y] = pooled - eta[x]
        out.append(eta.copy())
    return out


def _labeled_reference(graph, weights, xs0, times, seed, replica_id=0):
    """The i-th particle on the edge, in coordinate order, goes to x when
    the i-th particle uniform is below p."""
    xs = [int(v) for v in xs0]
    out = []
    for events in _events(graph, weights, times, seed, len(xs), replica_id):
        for x, y, p, u in events:
            on = [j for j, v in enumerate(xs) if v == x or v == y]
            for i, j in enumerate(on):
                xs[j] = x if u[i] < p else y
        out.append(tuple(xs))
    return out


def _counting_reference(graph, weights, xi0, times, seed, replica_id=0):
    """The unlabeled run with its own count update: the m particles on the
    edge put the count of the first m particle uniforms below p on x."""
    xi = [int(v) for v in xi0]
    out = []
    for events in _events(graph, weights, times, seed, sum(xi), replica_id):
        for x, y, p, u in events:
            m = xi[x] + xi[y]
            xi[x] = int(np.count_nonzero(u[:m] < p))
            xi[y] = m - xi[x]
        out.append(np.array(xi, dtype=np.int64))
    return out


def _multicolored_reference(graph, weights, xi0, times, seed, replica_id=0):
    """Per-color counts: the particle uniforms of an event are split into one
    consecutive block per color on the edge, colors ascending."""
    state = np.diag(np.asarray(xi0, dtype=np.int64))  # row = color, col = vertex
    out = []
    for events in _events(graph, weights, times, seed, int(state.sum()), replica_id):
        for x, y, p, u in events:
            offset = 0
            for z in range(graph.n):
                m_z = int(state[z, x] + state[z, y])
                state[z, x] = int(np.count_nonzero(u[offset:offset + m_z] < p))
                state[z, y] = m_z - state[z, x]
                offset += m_z
        out.append(state.copy())
    return out


def _row_counts(pos, n):
    """Occupation vectors of a (..., k) block of positions, over vertices 0..n-1."""
    return (np.asarray(pos)[..., None] == np.arange(n)).sum(axis=-2)


def _group_settings(monkeypatch):
    """Run the loop body under each group budget and observe block that a
    batch must not depend on: the default, one-row groups, and groups of a
    few rows observed one row or three rows at a time."""
    shape = simulate._group_shape
    for group_bytes, block in ((simulate.GROUP_BYTES, None), (1, None), (1 << 13, 1), (1 << 13, 3)):
        with monkeypatch.context() as m:
            m.setattr(simulate, "GROUP_BYTES", group_bytes)
            if block:
                m.setattr(simulate, "_group_shape", lambda *a, block=block: (shape(*a)[0], block))
            yield


def test_event_schedule_statistics():
    # per record interval: a Poisson(C dt) count from one stream-1 uniform,
    # then marks from stream 0 that pick edges in proportion to conductance;
    # here over 10^5 replicas of one interval
    assert STREAM_LAYOUT == 4
    reps = 10 ** 5

    def counts(seed, lam):
        u = simulate._Slices(seed, 1, reps, 4).read(np.empty((reps, 4)), 0)[:, 0]
        lo, cdf = simulate._poisson_cdf(lam)
        return lo + np.searchsorted(cdf, u, side="right")

    n1 = counts(3, 1.0)
    assert abs(n1.mean() - 1.0) <= 0.02
    n2 = counts(4, 2.0)
    assert abs(n2.mean() - 2.0) <= 0.03 and abs(n2.var() - 2.0) <= 0.1
    # edge 1 = (1, 2) carries conductance 3 of 4
    g2 = path_graph(3, conductance=[1.0, 3.0])
    marks = simulate._Slices(4, 0, reps, 4).read(np.empty((reps, 4)), 0)
    picks = simulate._sim_tables(g2, uniform_weights(3)).edges_of(marks)
    assert abs((picks == 1).mean() - 0.75) <= 0.01
    # same seed, same stream
    a = list(_events(g2, uniform_weights(3), (0.5, 1.0), 9, 2, replica_id=1))
    b = list(_events(g2, uniform_weights(3), (0.5, 1.0), 9, 2, replica_id=1))
    assert [[(x, y, p, u.tolist()) for x, y, p, u in e] for e in a] == \
        [[(x, y, p, u.tolist()) for x, y, p, u in e] for e in b]
    with pytest.raises(ValueError):
        simulate_averaging(path_graph(1), uniform_weights(1), np.array([1.0]),
                           SimOptions(record_times=(1.0,)))


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_seed_outside_64_bits_is_rejected(seed):
    # masked to 64 bits, -1 aliased 2^64 - 1 and 2^64 aliased 0
    with pytest.raises(ValueError, match=rf"seed must lie in \[0, 2\*\*64\), got {seed}"):
        make_rng(seed)
    with pytest.raises(ValueError, match="seed must lie in"):
        simulate._Slices(seed, 0, 1, 4)


def test_slice_reads_equal_rows_read_alone():
    # one read of replicas r0..r1 equals each replica's slice read alone, by
    # the engine and by a fresh Philox at its counter, at counter word 0 = 0
    # (where the step before the first block borrows from the higher words),
    # at nonzero interval and chunk words, and at the last replica the
    # counter word holds
    for seed, stream, first, rows, length, i, c in ((5, 0, 0, 7, 16, 0, 0), (5, 1, 3, 5, 4, 2, 0),
                                                   (2 ** 64 - 1, 2, 11, 4, 12, 1, 3),
                                                   (6, 0, 2 ** 62 - 3, 3, 16, 0, 1)):
        slices = simulate._Slices(seed, stream, first + rows, length)
        block = slices.read(np.empty((rows, length)), first, i, c)
        for r in range(rows):
            alone = slices.read(np.empty((1, length)), first + r, i, c)[0]
            assert np.array_equal(block[r], alone)
            assert np.array_equal(block[r], _slice(seed, stream, first + r, i, c, length))
    # a known answer: replica 1's slice of 4 under key (1, 0) is the block at
    # counter 1, the first one a Philox with key 1 and counter 0 computes
    assert simulate._Slices(1, 0, 2, 4).read(np.empty((1, 4)), 1)[0].tolist() == \
        np.random.Generator(np.random.Philox(key=1)).random(4).tolist()


@pytest.mark.parametrize("lam, lo", [(0.3, 0), (44.5, 0), (178.0, 0), (5000.0, 4111)])
def test_poisson_table_chi_square(lam, lo):
    # the inverse-CDF table against the exact law: it starts at
    # max(0, floor(C dt - 12 sqrt(C dt) - 40)), its CDF is exact to 1e-14
    # (C dt + 10), as the rounding of j log(C dt) grows with j (3.9e-12 at
    # 5000), and the counts of 10^5 uniforms (seed 23) pass a chi-square test
    # at level 1e-3, bins with expected count below 5 merged into their
    # neighbours
    start, cdf = simulate._poisson_cdf(lam)
    assert start == lo and np.isinf(cdf[-1])
    support = np.arange(lo, lo + cdf.size)
    exact = poisson.cdf(support[:-1], lam)
    assert np.max(np.abs(cdf[:-1] - exact)) <= 1e-14 * (lam + 10)
    draws = 10 ** 5
    u = np.random.default_rng(23).random(draws)
    counts = np.bincount(np.searchsorted(cdf, u, side="right"), minlength=cdf.size)
    expected = poisson.pmf(support, lam) * draws
    edges = [0]
    for j in range(cdf.size):
        if expected[edges[-1]:j + 1].sum() >= 5 and expected[j + 1:].sum() >= 5:
            edges.append(j + 1)
    obs = np.add.reduceat(counts, edges)
    exp = np.add.reduceat(expected, edges)
    stat = float(np.sum((obs - exp) ** 2 / exp))
    assert stat <= chi2.ppf(1 - 1e-3, len(edges) - 1)


def test_poisson_table_spans_only_the_bulk():
    # at C dt = 10^6 the table runs from 10^6 - 12,040 to 10^6 + 12,040, so
    # its size grows as sqrt(C dt); a uniform of 0 draws its first entry and
    # 1/2 the median
    lo, cdf = simulate._poisson_cdf(1e6)
    assert lo == 987_960 and cdf.size == 24_080
    assert 0.0 < cdf[0] < 1e-30 and abs(cdf[-2] - 1.0) <= 1e-9
    assert lo + np.searchsorted(cdf, 0.0, side="right") == lo
    assert abs(lo + np.searchsorted(cdf, 0.5, side="right") - 1e6) <= 1


def test_replica_past_the_counter_word_names_its_key():
    # replica r's slice of L uniforms starts at counter word r L / 4, so
    # replica_id + replicas may reach 2^64 / (L / 4) and no further.  Path2 at
    # C dt = 20 has 16-event chunks, L = 16.  The batch here would need 2^61
    # bytes, so the check runs before any allocation
    g, w = path_graph(2), uniform_weights(2)
    eta0 = np.array([1.0, 0.0])
    with pytest.raises(ValueError, match=r"replica_id \+ replicas"):
        simulate_averaging_batch(g, w, eta0, SimOptions(record_times=(20.0,), seed=1,
                                                         replica_id=2 ** 62 - 2 ** 57), 2 ** 58)
    with pytest.raises(ValueError, match="replica_id"):
        SimOptions(record_times=(1.0,), replica_id=-1)
    # the last replica that fits runs, and matches its reference
    last = SimOptions(record_times=(20.0,), seed=1, replica_id=2 ** 62 - 1)
    states = simulate_averaging_batch(g, w, eta0, last, 1)
    assert np.array_equal(states[0], _averaging_reference(g, w, eta0, (20.0,), 1, 2 ** 62 - 1))


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
    batch = simulate_averaging_batch(g, w, eta0, opts, 40)
    assert batch.shape == (40, len(times), 6)
    # the first R replicas of a 2R batch equal the R batch, bit for bit
    half = simulate_averaging_batch(g, w, eta0, opts, 20)
    assert np.array_equal(batch[:20], half)
    # simulate_averaging for replica r equals row r of the batch
    for r in (0, 7, 39):
        one = simulate_averaging(g, w, eta0, SimOptions(record_times=times,
                                                        seed=16, replica_id=r))
        assert np.array_equal(np.array(one), batch[r])
    # observed values are the observable of the states, row by row
    norms = simulate_averaging_batch(
        g, w, eta0, opts, 40, observe=lambda b: transport_norm(b, w, 1.0))
    assert norms.shape == (40, len(times))
    assert all(norms[r, i] == transport_norm(batch[r, i], w, 1.0)
               for r in range(40) for i in range(len(times)))


def test_averaging_batch_grouping_invariant(monkeypatch):
    # results depend neither on the group budget nor on the observe block;
    # the chunk width is part of the layout
    assert STREAM_LAYOUT == 4
    g = cycle_graph(5)
    w = uniform_weights(5)
    eta0 = np.array([1.0, 0, 0, 0, 0])
    opts = SimOptions(record_times=(0.5, 30.0), seed=17)
    ref = simulate_averaging_batch(g, w, eta0, opts, 30)
    observe = lambda b: transport_norm(b, w, 1.0)
    ref_norms = simulate_averaging_batch(g, w, eta0, opts, 30, observe=observe)
    for _ in _group_settings(monkeypatch):
        assert np.array_equal(simulate_averaging_batch(g, w, eta0, opts, 30), ref)
        assert np.array_equal(simulate_averaging_batch(g, w, eta0, opts, 30, observe=observe),
                              ref_norms)
    # chunks: up to 16 uniforms per replica, at least one event, and no more
    # events than C dt rounded up; a slice is whole Philox blocks of 4
    assert [simulate._chunk_events(lam, width) for lam, width in
            ((44.5, 1), (0.3, 1), (5.0, 3), (100.0, 11), (100.0, 40))] == [16, 1, 5, 1, 1]
    assert [simulate._slice_len(events, width) for events, width in
            ((16, 1), (1, 1), (5, 3), (1, 41))] == [16, 4, 16, 44]
    # the crossing benchmark's shape: 1,500 rows of 128 states in two even
    # groups, observed 93 rows at a time; a budget of 1 byte runs one row
    assert simulate._group_shape(1500, 128, 16, 1) == (750, 93)
    monkeypatch.setattr(simulate, "GROUP_BYTES", 1)
    assert simulate._group_shape(1500, 128, 16, 1) == (1, 1)


def test_drift_guard_raises_on_off_mass_state():
    # nothing rescales a state: mass off 1 by more than DRIFT_TOL at a
    # record raises, naming the replica, the record time and the defect
    g = cycle_graph(4)
    w = uniform_weights(4)
    times = (0.5, 2.0, 6.0)
    opts = SimOptions(record_times=times, seed=18)
    off = np.array([1.0 + 1e-11, 0, 0, 0])
    for r in range(5):
        one = SimOptions(record_times=times, seed=18, replica_id=r)
        with pytest.raises(ValueError, match=rf"replica {r} has mass off 1 by 1\.000e-11 "
                                             r"at t=0\.5, above DRIFT_TOL = 1e-12"):
            simulate_averaging_batch(g, w, off, one, 1)
        states = simulate_averaging_batch(g, w, np.array([1.0, 0, 0, 0]), one, 1)
        assert abs(states[0, -1].sum() - 1.0) <= 1e-12
    with pytest.raises(ValueError, match="replica 0 has mass off 1"):
        simulate_averaging_batch(g, w, off, opts, 25, observe=lambda b: transport_norm(b, w, 1.0))
    batch = simulate_averaging_batch(g, w, np.array([1.0, 0, 0, 0]), opts, 25)
    assert np.all(np.abs(batch.sum(axis=2) - 1.0) <= 1e-12)


def test_averaging_batch_rows_equal_reference(monkeypatch):
    # every row equals the per-event reference of its replica bit for bit,
    # for any group budget and observe block
    rng = np.random.default_rng(20)
    times = (0.0, 0.3, 1.0, 2.5, 6.0)
    for graph in (path_graph(3), cycle_graph(5), complete_graph(6),
                  complete_graph(6, np.geomspace(1e-6, 1.0, 15))):
        w = site_weights(rng.random(graph.n) + 0.1)
        for eta0 in (rng.dirichlet(np.ones(graph.n)), np.eye(graph.n)[0]):
            opts = SimOptions(record_times=times, seed=20, replica_id=3)
            ref = [_averaging_reference(graph, w, eta0, times, 20, 3 + r) for r in range(9)]
            for _ in _group_settings(monkeypatch):
                batch = simulate_averaging_batch(graph, w, eta0, opts, 9)
                assert np.array_equal(batch, np.array(ref))


@pytest.mark.parametrize("name", ["unit", "equal", "uniform", "lognormal", "mixed", "one-edge"])
def test_guide_lookup_equals_binary_search(name, monkeypatch):
    # the guide-table lookup picks the edge the clamped binary search over
    # cumulative conductances picks, at 0, just below 1, at every boundary
    # cum[j] / total and every bucket edge b / E, and at both float
    # neighbours of each
    rng = np.random.default_rng(21)
    graph = {"unit": lambda: complete_graph(12),
             "equal": lambda: complete_graph(12, 3.0),
             "uniform": lambda: complete_graph(12, rng.uniform(0.1, 10.0, 66)),
             "lognormal": lambda: complete_graph(12, rng.lognormal(0.0, 3.0, 66)),
             "mixed": lambda: complete_graph(23, rng.choice([1e-9, 1e-6, 1.0], 253)),
             "one-edge": lambda: path_graph(2, 0.7)}[name]()
    tab = simulate._sim_tables(graph, uniform_weights(graph.n))
    cum = np.cumsum(graph.edge_c)
    bounds = np.concatenate([cum / cum[-1], np.arange(cum.size) / cum.size])
    marks = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], bounds, np.nextafter(bounds, 0.0),
                            np.nextafter(bounds, 1.0), rng.random(5000)])
    marks = marks[marks <= 1.0].reshape(1, -1)
    ref = np.minimum(np.searchsorted(cum, marks * cum[-1], side="right"), cum.size - 1)
    searched = []
    search = np.searchsorted
    monkeypatch.setattr(np, "searchsorted",
                        lambda a, v, **kw: searched.append(np.size(v)) or search(a, v, **kw))
    assert np.array_equal(tab.edges_of(marks.copy()), ref)
    monkeypatch.undo()
    # equal conductances never leave the guide's two steps; a skewed mix
    # does, and its stragglers are binary-searched
    if name in ("unit", "equal", "one-edge"):
        assert searched == [0]
    if name == "mixed":
        assert searched[0] > 0


def test_simulate_splitting_conservation_and_stationary_law():
    g = path_graph(2)
    w = site_weights([0.3, 0.7])
    opts = SimOptions(record_times=(20.0,), seed=7)
    pos = simulate_splitting_batch(g, w, np.repeat([0, 1], [4, 6]), opts, 10 ** 5)
    xi_t = _row_counts(pos[:, 0], 2)
    assert np.all(xi_t.sum(axis=1) == 10)
    emp = np.bincount(xi_t[:, 0], minlength=11) / 10 ** 5
    exact = binom.pmf(np.arange(11), 10, 0.3)
    assert 0.5 * np.abs(emp - exact).sum() <= 0.01


def test_simulate_splitting_matches_transient_law():
    g = cycle_graph(4)
    w = uniform_weights(4)
    t = 1.3
    opts = SimOptions(record_times=(t,), seed=8)
    pos = simulate_splitting_batch(g, w, (0,), opts, 10 ** 5)
    counts = np.bincount(pos[:, 0, 0], minlength=4)
    Q = generator_single_particle(g, w)
    exact = transient_distribution(Q, np.array([1.0, 0, 0, 0]), t, 1e-10)
    assert 0.5 * np.abs(counts / counts.sum() - exact).sum() <= 0.02


def test_labeled_k1_pathwise_equals_unlabeled_per_particle():
    g = cycle_graph(4)
    w = site_weights([0.1, 0.2, 0.3, 0.4])
    times = tuple(np.linspace(0.3, 4.0, 8))
    for rep in range(50):
        opts = SimOptions(record_times=times, seed=10, replica_id=rep)
        lab = simulate_splitting_batch(g, w, (2,), opts, 1)[0]
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
        a = simulate_splitting_batch(g, w, xs0, opts, 1)[0]
        b = simulate_splitting_batch(g, w, xs0_perm, opts, 1)[0]
        for u, v in zip(a, b):
            assert np.array_equal(np.bincount(u, minlength=3),
                                  np.bincount(v, minlength=3))


@pytest.mark.parametrize("graph", [path_graph(2), path_graph(3), cycle_graph(4),
                                   cycle_graph(5), complete_graph(6)],
                         ids=["path2", "path3", "cycle4", "cycle5", "complete6"])
def test_per_particle_views_equal_reference_updates(graph, monkeypatch):
    # the rows of a splitting batch equal the per-event reference of their
    # replicas bit for bit, for any group budget and observe block; the labeled,
    # unlabeled and multicolored runs of one replica equal their own updates
    rng = np.random.default_rng(19)
    times = (0.3, 1.0, 2.5, 10.0)
    rows = 6
    for weights in (uniform_weights(graph.n), site_weights(rng.random(graph.n) + 0.1)):
        for k in range(6):
            xs0 = rng.integers(0, graph.n, size=(rows, k))
            opts = SimOptions(record_times=times, seed=19, replica_id=k)
            ref = [_labeled_reference(graph, weights, xs0[r], times, 19, k + r)
                   for r in range(rows)]
            for _ in _group_settings(monkeypatch):
                batch = simulate_splitting_batch(graph, weights, xs0, opts, rows)
                assert batch.shape == (rows, len(times), k)
                assert [list(map(tuple, b)) for b in batch.tolist()] == ref
            assert list(map(tuple, simulate_splitting_batch(graph, weights, xs0[0], opts,
                                                            1)[0].tolist())) == ref[0]
            xi0 = np.bincount(xs0[0], minlength=graph.n)
            for got, want in ((simulate_splitting(graph, weights, xi0, opts),
                               _counting_reference(graph, weights, xi0, times, 19, k)),
                              (simulate_multicolored(graph, weights, xi0, opts),
                               _multicolored_reference(graph, weights, xi0, times, 19, k))):
                assert all(a.dtype == b.dtype and np.array_equal(a, b)
                           for a, b in zip(got, want, strict=True))


@pytest.mark.parametrize("xs0", [(0, 7, -1), (0, 3), (-1,), (0.7, 1), (1, 1.5)],
                         ids=["above-and-below", "at-n", "negative", "fraction-first", "fraction-last"])
def test_labeled_starts_are_validated(xs0):
    g = path_graph(3)
    w = uniform_weights(3)
    opts = SimOptions(record_times=(1.0,), seed=21)
    with pytest.raises(ValueError, match=r"integers in \[0, 3\)"):
        simulate_splitting_batch(g, w, xs0, opts, 1)
    with pytest.raises(ValueError, match=r"integers in \[0, 3\)"):
        simulate_splitting_batch(g, w, np.array([xs0, xs0]), opts, 2)
    with pytest.raises(ValueError, match=r"\(3, k\) positions"):
        simulate_splitting_batch(g, w, np.zeros((2, 1), dtype=int), opts, 3)
    # integral floats name a vertex
    assert simulate_splitting_batch(g, w, (0.0, 2.0), SimOptions(record_times=(0.0,)),
                                    1)[0].tolist() == [[0, 2]]


def test_occupation_counts_are_checked():
    g = path_graph(3)
    w = uniform_weights(3)
    opts = SimOptions(record_times=(1.0,))
    for bad in (np.array([2, -1, 1]), np.array([1, 1])):
        with pytest.raises(ValueError, match="nonnegative vector of length 3"):
            simulate_splitting(g, w, bad, opts)
        with pytest.raises(ValueError, match="nonnegative vector of length 3"):
            simulate_multicolored(g, w, bad, opts)


def test_multicolored_projection_and_totals():
    g = path_graph(3)
    w = site_weights([0.25, 0.35, 0.4])
    xi0 = np.array([3, 0, 2])
    times = (0.2, 0.7, 1.5, 3.0)
    for rep in range(200):
        opts = SimOptions(record_times=times, seed=13, replica_id=rep)
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
