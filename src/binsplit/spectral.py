"""Exact finite-state machinery: configuration spaces, rate matrices,
stationary measures, spectral gaps (eigenvalues only; the single particle's
eigenvectors come from ``distances.single_particle_spectrum``), Dirichlet
forms, and transient distributions.

Conventions.  A rate matrix Q acts on functions by (Qf)(i) = sum_j Q_ij f(j)
with zero row sums; measures evolve as nu_t = nu exp(tQ) (row vectors) and
observables as f_t = exp(tQ) f (column vectors).  Transients are evaluated by
uniformization: with L = max exit rate and P = I + Q/L, exp(tQ) equals the
Poisson(L t) mixture of powers of P.  P is entrywise nonnegative with unit row
sums, so the output of a measure evolution stays a probability vector up to
the truncated tail.

All record times of one evolution share one sequence of powers P^j v.  Time
t_i sums its own terms j = 0..m_i, where m_i certifies a right tail below the
tolerance per time: ``tol`` for a single time or a pair-kernel profile,
``tol / len(times)`` for an exact TV profile.  Blocks of ``POWER_BLOCK``
powers are added into the per-time accumulators by one in-place BLAS product.
Every evolution (``_Uniformization.evolve``) holds at most ``EVOLVE_BYTES`` of
accumulators and powers: the times are split into consecutive groups that
share one buffer, each restarting from the previous group's last result, and
the caller reduces or copies each result before the next group is evolved.

The k-particle generator is written straight into CSR arrays sized from each
row's count, its diagonal and the m = xi(x)+xi(y) jumps of every edge.  Each
edge's jumps come from one vectorized ``split_moves`` pass and go to their
slots; no two jumps share an entry, so nothing is summed, and one in-place
index sort finishes the matrix.  On the 5-cycle at k = 32 the assembly peaks
at 1.8 times the bytes of the CSR it returns.

The caps and solver settings are module constants, read at each call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh
from scipy.linalg.blas import dgemm
from scipy.sparse.linalg import ArpackNoConvergence, eigsh
from scipy.special import gammaln, pdtr, pdtrc, pdtrik, xlogy

from .graphs import SiteWeights, WeightedGraph, _cluster_roots

DEFAULT_STATE_CAP = 2_000_000
DEFAULT_TRANSIENT_CAP = 200_000
DENSE_EIG_CUTOFF = 512
REVERSIBILITY_TOL = 1e-8  # largest detailed-balance defect, relative to max|Q|
EIGSH_START_SEED = 0
LANCZOS_RESTARTS = 200
EVOLVE_BYTES = 1 << 26  # results of one group of record times plus its block of powers
POWER_BLOCK = 16        # powers of P per in-place BLAS accumulation

__all__ = [
    "StateSpaceCapError",
    "UnlabeledSpace",
    "Spectrum",
    "enumerate_configs",
    "multinomial_measure",
    "generator_single_particle",
    "generator_splitting",
    "split_moves",
    "generator_splitting_labeled",
    "labeled_states",
    "reversibility_residual",
    "spectral_gap",
    "transient_distribution",
    "evolve_observable",
    "dirichlet_form",
    "dirichlet_single_particle",
    "dirichlet_independent_pair",
    "dirichlet_defect_form",
    "product_weights",
]


class StateSpaceCapError(ValueError):
    """State space larger than the configured cap."""


@dataclass(frozen=True)
class UnlabeledSpace:
    """All occupation vectors of k unlabeled particles on n sites.

    Configurations are ordered heaviest-first lexicographically (the first
    coordinate runs k, k-1, ..., 0, recursively), so index 0 piles every
    particle on vertex 0.  The index of a configuration is its rank in the
    combinatorial number system: with left_i = k - (xi_0 + ... + xi_i) the
    particles placed after site i, rank(xi) = sum_{i < n-1} C(left_i + n-i-2, n-i-1),
    each term counting the configurations that agree with xi before site i
    and put more particles on it.
    """

    n: int
    k: int
    configs: np.ndarray  # (size, n) int64

    @property
    def size(self) -> int:
        return self.configs.shape[0]

    def __post_init__(self):
        # _terms[i, left] = C(left + n - i - 2, n - i - 1)
        terms = np.array([[math.comb(left + self.n - i - 2, self.n - i - 1)
                           for left in range(self.k + 1)]
                          for i in range(self.n - 1)], dtype=np.int64)
        object.__setattr__(self, "_terms", terms.reshape(self.n - 1, self.k + 1))

    def rank(self, configs) -> np.ndarray:
        """Indices of the rows of an (m, n) array of configurations."""
        xi = np.asarray(configs, dtype=np.int64)
        if xi.ndim != 2 or xi.shape[1] != self.n:
            raise ValueError(f"need configurations with {self.n} entries, got shape {xi.shape}")
        if xi.size and (xi.min() < 0 or np.any(xi.sum(axis=1) != self.k)):
            raise ValueError(f"not a configuration of {self.k} particles on {self.n} sites")
        left = self.k - np.cumsum(xi[:, :-1], axis=1)
        return self._terms[np.arange(self.n - 1), left].sum(axis=1)


def enumerate_configs(n: int, k: int) -> UnlabeledSpace:
    """Enumerate the k-particle occupation vectors on n vertices.

    The heaviest-first order is built one site at a time: a prefix with
    ``left`` particles still to place spawns left + 1 children that put
    left, left - 1, ..., 0 of them on the next site.
    """
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    count = math.comb(n + k - 1, k)
    if count > DEFAULT_STATE_CAP:
        raise StateSpaceCapError(
            f"configuration space has {count} states, above the cap of {DEFAULT_STATE_CAP}"
        )
    configs = np.empty((1, 0), dtype=np.int64)
    left = np.array([k], dtype=np.int64)
    for _ in range(n - 1):
        parent = np.repeat(np.arange(left.size), left + 1)
        first = np.repeat(np.cumsum(left + 1) - left - 1, left + 1)
        value = left[parent] - np.arange(parent.size) + first
        configs = np.column_stack([configs[parent], value])
        left = left[parent] - value
    configs = np.column_stack([configs, left])
    return UnlabeledSpace(n, k, configs)


def multinomial_measure(weights, k: int, space: UnlabeledSpace) -> np.ndarray:
    """Multinomial(k, pi) probabilities aligned with ``space``.

    Accepts any probability vector (zeros allowed), so it also provides the
    sampling law of k particles dropped independently on a mass profile.
    """
    pi = weights.pi if isinstance(weights, SiteWeights) else np.asarray(weights, float)
    if pi.size != space.n:
        raise ValueError(f"weights have {pi.size} entries, space has n={space.n}")
    if space.k != k:
        raise ValueError(f"space was built for k={space.k}, asked for k={k}")
    xi = space.configs
    # zero-weight vertices: log factor replaced by 0, configs touching them masked out
    logpi = np.log(np.where(pi > 0, pi, 1.0))
    impossible = np.any((xi > 0) & (pi[None, :] == 0.0), axis=1)
    logp = gammaln(k + 1) - gammaln(xi + 1).sum(axis=1) + (xi * logpi[None, :]).sum(axis=1)
    out = np.exp(logp)
    out[impossible] = 0.0
    return out


def generator_single_particle(graph: WeightedGraph, weights: SiteWeights) -> sp.csr_matrix:
    """Rate matrix of one particle: an edge event at xy re-places a particle
    sitting on either endpoint to x with probability pi(x)/(pi(x)+pi(y))."""
    return _labeled_generator(graph, weights, 1)


def split_moves(space: UnlabeledSpace, x: int, y: int, p: float):
    """Every jump of one edge event at xy with split probability p.

    The m = xi(x)+xi(y) pooled particles re-split with j on x with probability
    Binomial(m, p)(j), read from one table pmf[m, j] (zero where j > m).
    Returns (src, dst, prob, stay): the source and target indices and the
    probability of each jump that changes the configuration, and per
    configuration the probability of reproducing the current split.  The
    jumps come by source, ascending, and within a source by j, ascending.
    Moving particles between x and y changes the ``left`` counts of the sites
    from min(x, y) to max(x, y) - 1 only, so the target rank is the source
    rank plus the change of those terms.
    """
    if x == y:
        raise ValueError("an edge needs two distinct endpoints")
    xi = space.configs
    k = space.k
    lo, hi = min(x, y), max(x, y)
    cur = xi[:, x]
    m = cur + xi[:, y]
    js, ms = np.arange(k + 1), np.arange(k + 1)[:, None]
    # log1p(-1) raises: at p = 1 every particle goes to x
    tail = (ms - js) * math.log1p(-p) if p < 1.0 else np.where(js < ms, -np.inf, 0.0)
    pmf = np.tril(np.exp(gammaln(ms + 1) - gammaln(js + 1) - gammaln(ms - js + 1)
                         + xlogy(js, p) + tail))
    stay = pmf[m, cur]
    # j runs over 0..m skipping cur: the slot within the source, bumped past cur
    src = np.repeat(np.arange(space.size), m)
    j = np.arange(src.size) - (np.cumsum(m) - m)[src]
    j += j >= cur[src]
    # cur - j particles leave x: the left counts between the endpoints grow
    # by that many when y lies right of x and shrink otherwise
    sign = 1 if x < y else -1
    left = k - np.cumsum(xi[:, :hi], axis=1)[:, lo:]
    terms = space._terms[lo:hi]
    dst = (np.arange(space.size) - terms[np.arange(hi - lo), left].sum(axis=1))[src]
    for before, row in zip(left.T, terms):
        after = (before + sign * cur)[src]
        after -= sign * j
        dst += row[after]
    del after  # freed before prob is built: at most five arrays of jumps are held
    return src, dst, pmf[m[src], j], stay


def generator_splitting(graph: WeightedGraph, weights: SiteWeights, k: int,
                        space: UnlabeledSpace | None = None) -> sp.csr_matrix:
    """Rate matrix of the k-particle splitting dynamics on occupation vectors.

    An edge event at xy pools the m = xi(x)+xi(y) particles and re-splits
    them with a Binomial(m, pi(x)/(pi(x)+pi(y))) draw for the x side.  The
    probability of reproducing the current split is folded into the diagonal.
    """
    if space is None:
        space = enumerate_configs(graph.n, k)
    if space.n != graph.n or space.k != k:
        raise ValueError("space does not match (n, k)")
    pi = weights.pi
    size, xi = space.size, space.configs
    # each row holds its diagonal, then the m jumps of each edge in edge order
    counts = 1 + xi @ np.bincount(np.r_[graph.edge_x, graph.edge_y], minlength=graph.n)
    index = np.int32 if max(counts.sum(), size) <= np.iinfo(np.int32).max else np.int64
    indptr = np.r_[0, np.cumsum(counts)].astype(index)
    indices, data = np.empty(indptr[-1], dtype=index), np.empty(indptr[-1])
    fill, diag = indptr[:-1] + 1, np.zeros(size)
    for x, y, c in zip(graph.edge_x.tolist(), graph.edge_y.tolist(), graph.edge_c.tolist()):
        src, dst, prob, stay = split_moves(space, x, y, pi[x] / (pi[x] + pi[y]))
        diag -= c * (1.0 - stay)
        m = xi[:, x] + xi[:, y]
        slot = (fill - np.cumsum(m) + m)[src]
        slot += np.arange(src.size, dtype=index)
        indices[slot], data[slot] = dst, c * prob
        fill += m
        del src, dst, prob, slot  # freed before the next edge's jumps are built
    indices[indptr[:-1]], data[indptr[:-1]] = np.arange(size), diag
    Q = sp.csr_matrix((data, indices, indptr), shape=(size, size))
    Q.sort_indices()
    return Q


def labeled_states(n: int, k: int):
    """All position tuples of k labeled particles, row-major order."""
    return list(itertools.product(range(n), repeat=k))


def _labeled_generator(graph: WeightedGraph, weights: SiteWeights, k: int) -> sp.csr_matrix:
    """Rate matrix of k labeled particles on the row-major position tuples.

    Only the (tuple, edge) pairs with some coordinate on the edge carry
    rates: the nonzeros of the tuple-vertex occupancy times the vertex-edge
    incidence, so the work grows with the nonzeros of the result.  Each of
    the 2^k side patterns (bit j set: coordinate j ends on y) names one
    outcome of such a pair when its set bits lie on the coordinates on the
    edge.  Probabilities multiply in coordinate order and the diagonal
    collects -c (1 - stay) in edge order.
    """
    n = graph.n
    size = n ** k
    ex, ey, c = graph.edge_x, graph.edge_y, graph.edge_c
    pi = weights.pi
    p = pi[ex] / (pi[ex] + pi[ey])
    tuples = np.indices((n,) * k).reshape(k, size).T
    strides = n ** np.arange(k - 1, -1, -1, dtype=np.int64)
    occupancy = sp.csr_matrix((np.ones(size * k), tuples.reshape(-1), np.arange(size + 1) * k),
                              shape=(size, n))
    incidence = sp.csr_matrix((np.ones(2 * ex.size), (np.concatenate([ex, ey]),
                                                      np.tile(np.arange(ex.size), 2))),
                              shape=(n, ex.size))
    touched = occupancy @ incidence
    touched.sort_indices()  # edges ascending per tuple: the diagonal sums in edge order
    pair_state = np.repeat(np.arange(size), np.diff(touched.indptr))
    e = touched.indices
    xs = tuples[pair_state]
    on_x = xs == ex[e][:, None]
    on_y = xs == ey[e][:, None]
    active = on_x | on_y
    pe, ce = p[e], c[e]
    qe = 1.0 - pe

    def side_product(rows, to_y):
        out = np.ones(rows.size)
        for j in range(k):
            out *= np.where(active[rows, j], np.where(to_y[:, j], qe[rows], pe[rows]), 1.0)
        return out

    bit = 1 << np.arange(k)
    active_bits = active @ bit
    current_bits = on_y @ bit
    diag = np.zeros(size)
    np.subtract.at(diag, pair_state, ce * (1.0 - side_product(np.arange(e.size), on_y)))
    rows, cols, vals = [np.arange(size)], [np.arange(size)], [diag]
    for pattern in range(1 << k):
        sel = np.nonzero(((active_bits & pattern) == pattern) & (current_bits != pattern))[0]
        to_y = np.broadcast_to((pattern & bit) > 0, (sel.size, k))
        dest = np.where(to_y, ey[e[sel]][:, None], ex[e[sel]][:, None])
        move = np.where(active[sel], dest - xs[sel], 0) @ strides
        rows.append(pair_state[sel])
        cols.append(pair_state[sel] + move)
        vals.append(ce[sel] * side_product(sel, to_y))
    Q = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(size, size))
    Q.sum_duplicates()
    return Q


def generator_splitting_labeled(graph: WeightedGraph, weights: SiteWeights, k: int) -> sp.csr_matrix:
    """Rate matrix of the labeled k-particle dynamics on position tuples.

    At an edge event on xy, every particle currently on x or y independently
    re-places itself on x with probability pi(x)/(pi(x)+pi(y)), else on y.
    Self-adjoint in L^2 of the k-fold product of the site-weights.
    """
    size = graph.n ** k
    if size > DEFAULT_TRANSIENT_CAP:
        raise StateSpaceCapError(f"labeled space has {size} states, above the cap of "
                                 f"{DEFAULT_TRANSIENT_CAP}")
    return _labeled_generator(graph, weights, k)


def product_weights(weights: SiteWeights, k: int = 2) -> np.ndarray:
    """Flattened k-fold product of the site-weights, row-major (length n^k)."""
    out = np.ones(())
    for _ in range(k):
        out = np.multiply.outer(out, weights.pi)
    return out.reshape(-1)


def reversibility_residual(Q, mu: np.ndarray) -> float:
    """Max detailed-balance defect |mu_i Q_ij - mu_j Q_ji|."""
    flow = sp.diags(mu) @ sp.csr_matrix(Q)
    return float(abs(flow - flow.T).max())


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of -Q sorted ascending, the null one set to 0, with the
    gap and t_rel = 1/gap.  ``full`` records whether all eigenvalues were
    computed (the dense route) or only the null one and the gap."""

    eigenvalues: np.ndarray
    gap: float
    t_rel: float
    full: bool


def _symmetrized(Q, mu: np.ndarray) -> sp.csr_matrix:
    """Sparse D^(1/2) (-Q) D^(-1/2), D = diag(mu), averaged with its
    transpose; the eigenvalues are those of -Q when Q is reversible w.r.t. mu.
    Each entry is (sqrt(mu_i) * -Q_ij) / sqrt(mu_j), so ``.toarray()`` gives
    the same bits as the dense product."""
    sqrt_mu = np.sqrt(mu)
    Qc = sp.csr_matrix(Q)
    rows = np.repeat(np.arange(Qc.shape[0]), np.diff(Qc.indptr))
    data = (sqrt_mu[rows] * -Qc.data) / sqrt_mu[Qc.indices]
    A = sp.csr_matrix((data, Qc.indices, Qc.indptr), shape=Qc.shape)
    return 0.5 * (A + A.T)


def _gap_spectrum(evals: np.ndarray, dim: int, full: bool) -> Spectrum:
    """The :class:`Spectrum` of ascending eigenvalues of -Q: the smallest
    must be null, within 1e-12 dim times the largest, and the second, the
    gap, above it; a gap within it raises, naming the tolerance."""
    zero_tol = 1e-12 * float(evals[-1]) * dim
    low = evals[:2]
    if low.size < 2 or abs(low[0]) > zero_tol or low[1] <= zero_tol:
        raise ValueError(f"no positive eigenvalue above the null tolerance {zero_tol:.3e}: "
                         f"the smallest eigenvalues are {', '.join(f'{v:.3e}' for v in low)}")
    gap = float(low[1])
    return Spectrum(eigenvalues=np.r_[0.0, evals[1:]], gap=gap, t_rel=1.0 / gap, full=full)


def spectral_gap(Q, mu: np.ndarray) -> Spectrum:
    """Gap of -Q for a chain reversible with respect to mu, from eigenvalues
    alone: no route computes an eigenvector.

    Solves D^(1/2) (-Q) D^(-1/2), D = diag(mu): all eigenvalues by dense
    ``eigh`` up to ``DENSE_EIG_CUTOFF`` states; above, the null one and the
    gap by Lanczos (``eigsh``, ``which="SA"``, ncv 14, ``LANCZOS_RESTARTS``),
    with no factorization to fill in, and by shift-invert at sigma = -1e-6
    only if Lanczos does not converge (long 1-D chains).  The sparse routes
    solve the operator over max|Q|, so ARPACK's absolute floor sits at unit
    scale.  Raises on a mu entry that is not finite and positive, naming the
    first such state, on a detailed-balance residual above ``REVERSIBILITY_TOL``
    max|Q|, on a reducible chain, naming its components (the one labeling of
    ``graphs`` on Q's off-diagonal pattern, on every route, before the solve),
    and on a gap within the null tolerance, relative to the largest computed
    eigenvalue (the gap on the sparse routes), so rescaling all rates
    rescales the gap.
    """
    mu = np.asarray(mu, dtype=float)
    dim = mu.size
    bad = np.flatnonzero(~(np.isfinite(mu) & (mu > 0.0)))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"mu must be finite and positive, got mu[{i}] = {float(mu[i])!r}")
    res = reversibility_residual(Q, mu)
    scale = float(abs(sp.csr_matrix(Q)).max())
    if res > REVERSIBILITY_TOL * scale:
        raise ValueError(f"rate matrix is not reversible w.r.t. mu: "
                         f"max detailed-balance residual {res:.3e}")
    # reversible against a positive mu, Q's off-diagonal pattern is
    # symmetric: the components of its upper triangle are the strongly
    # connected ones
    rates = sp.coo_matrix(Q)
    jump = (rates.row < rates.col) & (rates.data != 0.0)
    parts = np.unique(_cluster_roots(dim, rates.row[jump], rates.col[jump])).size
    if parts > 1:
        raise ValueError(f"rate matrix is reducible: {parts} strongly connected components")
    A = _symmetrized(Q, mu)
    if dim <= DENSE_EIG_CUTOFF:
        return _gap_spectrum(eigh(A.toarray(), eigvals_only=True), dim, full=True)
    A = A / scale
    kk, ncv = min(2, dim - 1), min(14, dim)
    # a fixed start vector keeps the result bit-reproducible; it must not be
    # sqrt(mu), the null vector of A
    v0 = np.random.default_rng(EIGSH_START_SEED).standard_normal(dim)
    try:
        evals = eigsh(A, k=kk, which="SA", v0=v0, ncv=ncv, maxiter=LANCZOS_RESTARTS,
                      return_eigenvectors=False)
    except ArpackNoConvergence:
        # shift slightly below the spectrum: 0 is always an eigenvalue, so a
        # factorization exactly at 0 would hit a singular matrix
        evals = eigsh(A, k=kk, sigma=-1e-6, which="LM", v0=v0, return_eigenvectors=False)
    return _gap_spectrum(np.sort(evals) * scale, dim, full=False)


def _poisson_terms(rate_t: float, tol: float) -> np.ndarray:
    """Poisson(rate_t) weights of the powers 0..m of P.  m starts at the
    Poisson inverse survival function of tol (inverted through ``pdtrik``
    and corrected by one ``pdtr``) and rises in steps of at least 5 until
    the right tail P(N > m) is certified below tol."""
    if rate_t <= 0.0:
        return np.array([1.0])
    q = 1.0 - tol
    v = int(np.ceil(pdtrik(q, rate_t)))
    m = max(v - 1, 0) if pdtr(max(v - 1, 0), rate_t) >= q else v
    m = max(m, 1)
    while pdtrc(m, rate_t) >= tol:
        m += max(5, m // 10)
    j = np.arange(m + 1)
    return np.exp(xlogy(j, rate_t) - gammaln(j + 1) - rate_t)


def _check_times(times, tol: float) -> np.ndarray:
    """The record times as a float array; rejects a tol per time outside
    (0, 1e-6] and times that are not finite, nonnegative and ascending."""
    times = np.asarray(times, dtype=float).reshape(-1)
    if not 0.0 < tol <= 1e-6:
        raise ValueError(f"tol per record time must lie in (0, 1e-6], got {float(tol)!r}")
    bad = times[~np.isfinite(times)]
    if bad.size:
        raise ValueError(f"times must be finite, got {float(bad[0])!r}")
    if times.size and times.min() < 0.0:
        raise ValueError(f"time must be nonnegative, got {float(times.min())!r}")
    down = np.nonzero(np.diff(times) < 0.0)[0]
    if down.size:
        i = int(down[0])
        raise ValueError(f"times must be sorted ascending, got {times[i]!r} "
                         f"before {times[i + 1]!r}")
    return times


class _Uniformization:
    """exp(tQ) as the Poisson(L t) mixture of powers of P = I + Q/L.

    The rate L, P (observable direction) and P^T (measure direction) are
    built at most once per Q, however many times and starts are evolved.
    ``evolve`` takes a vector or a block of columns; each column comes out
    as it would alone.  ``matvecs`` counts the products with P or P^T.
    """

    def __init__(self, Q):
        self.Q = sp.csr_matrix(Q)
        self.rate = float(-self.Q.diagonal().min())
        self._P = self._PT = None
        self.matvecs = 0

    def evolve(self, v: np.ndarray, times, tol: float, measure: bool):
        """Yields (t, exp(t Q) applied to ``v``) for each of the ascending
        ``times``, holding at most ``EVOLVE_BYTES`` of results and powers.

        Consecutive times are evolved together in groups, as many as fit in
        the budget beside a block of powers.  Each group restarts from the
        last result of the one before, and every leg gets ``tol`` divided by
        the number of groups, so each time stays within ``tol``.  The groups
        share one buffer: a yielded result is overwritten once the next group
        is evolved, so reduce or copy it first.
        """
        times = _check_times(times, tol)
        v = np.asarray(v, dtype=float)
        slots = max(2, EVOLVE_BYTES // max(1, 8 * v.size))
        width = max(1, min(slots - min(POWER_BLOCK, slots // 2), times.size))
        legs = -(-times.size // width)
        buffer = np.empty((width,) + v.shape)
        t0, x = 0.0, v
        for first in range(0, times.size, width):
            group = times[first:first + width]
            out = buffer[:group.size]
            # out[i] = sum_j pmf(j; L (t_i - t0)) P^j x over j = 0..m_i, accumulated
            # one block of powers at a time by a BLAS product written in place
            terms = [_poisson_terms(self.rate * (t - t0), tol / legs) for t in group]
            W = np.zeros((len(terms), max(w.size for w in terms)))
            for i, w in enumerate(terms):
                W[i, :w.size] = w
            block = min(POWER_BLOCK, max(1, slots - group.size), W.shape[1])
            powers = np.empty((block,) + v.shape)
            flat = out.reshape(group.size, v.size).T
            flat[...] = 0.0
            for lo in range(0, W.shape[1], block):
                hi = min(lo + block, W.shape[1])
                for j in range(lo, hi):
                    if j > 0:
                        x = self._step(measure) @ x
                    powers[j - lo] = x
                dgemm(1.0, powers[:hi - lo].reshape(hi - lo, v.size).T, W[:, lo:hi].T,
                      beta=1.0, c=flat, overwrite_c=True)
            self.matvecs += W.shape[1] - 1
            if first + width < times.size:
                t0, x = group[-1], out[-1].copy()
            yield from zip(group, out)

    def _step(self, measure: bool) -> sp.csr_matrix:
        if self._P is None:
            self._P = (sp.identity(self.Q.shape[0], format="csr") + self.Q / self.rate).tocsr()
        if measure and self._PT is None:
            self._PT = self._P.T.tocsr()
        return self._PT if measure else self._P


def transient_distribution(Q, init: np.ndarray, t: float, tol: float = 1e-9) -> np.ndarray:
    """Distribution of the chain at time t started from ``init``.

    Uniformized evaluation with Poisson tail below ``tol``; the output is
    entrywise nonnegative and sums to 1 within 2 tol.  ``init`` may be a
    block with one initial law per column.
    """
    init = np.asarray(init, dtype=float)
    if init.shape[0] > DEFAULT_TRANSIENT_CAP:
        raise StateSpaceCapError(f"transient vector has {init.shape[0]} entries, "
                                 f"cap is {DEFAULT_TRANSIENT_CAP}")
    return next(_Uniformization(Q).evolve(init, [t], tol, measure=True))[1]


def evolve_observable(Q, f: np.ndarray, t: float, tol: float = 1e-9) -> np.ndarray:
    """Action of the semigroup on an observable: exp(tQ) f by uniformization.
    ``f`` may be a block with one observable per column."""
    return next(_Uniformization(Q).evolve(f, [t], tol, measure=False))[1]


def dirichlet_form(Q, mu: np.ndarray, psi: np.ndarray) -> float:
    """Energy <psi, -Q psi> in L^2(mu)."""
    psi = np.asarray(psi, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if psi.size != mu.size or psi.size != sp.csr_matrix(Q).shape[0]:
        raise ValueError("dimension mismatch")
    return float(-(mu * psi) @ (sp.csr_matrix(Q) @ psi))


def dirichlet_single_particle(graph: WeightedGraph, weights: SiteWeights,
                              psi: np.ndarray) -> float:
    """Closed form: sum over edges of c_xy pi(x)pi(y)/(pi(x)+pi(y)) (psi_x-psi_y)^2."""
    pi = weights.pi
    psi = np.asarray(psi, dtype=float)
    if psi.size != graph.n:
        raise ValueError("dimension mismatch")
    x, y, c = graph.edge_x, graph.edge_y, graph.edge_c
    w = pi[x] * pi[y] / (pi[x] + pi[y])
    return float(np.sum(c * w * (psi[x] - psi[y]) ** 2))


def dirichlet_independent_pair(graph: WeightedGraph, weights: SiteWeights,
                               psi2: np.ndarray) -> float:
    """Energy of a two-argument observable under two independent particles.

    psi2 is flat over pairs (z, w), row-major.
    """
    pi = weights.pi
    T = np.asarray(psi2, dtype=float).reshape(graph.n, graph.n)
    x, y, c = graph.edge_x, graph.edge_y, graph.edge_c
    w = pi[x] * pi[y] / (pi[x] + pi[y])
    gaps = (T[x] - T[y]) ** 2 + (T[:, x] - T[:, y]).T ** 2  # row e: both arguments moved along e
    return float(np.sum(c * w * np.sum(pi * gaps, axis=1)))


def dirichlet_defect_form(graph: WeightedGraph, weights: SiteWeights,
                          psi2: np.ndarray) -> float:
    """Nonnegative defect between the independent-pair and the joint two-particle
    energies: sum over edges of c (pi_x pi_y/(pi_x+pi_y))^2
    (psi(x,x)+psi(y,y)-psi(x,y)-psi(y,x))^2."""
    pi = weights.pi
    T = np.asarray(psi2, dtype=float).reshape(graph.n, graph.n)
    x, y, c = graph.edge_x, graph.edge_y, graph.edge_c
    w = pi[x] * pi[y] / (pi[x] + pi[y])
    return float(np.sum(c * w ** 2 * (T[x, x] + T[y, y] - T[x, y] - T[y, x]) ** 2))

