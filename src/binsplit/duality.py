"""Duality functions and intertwining operators linking the averaging
dynamics with the particle dynamics, plus exact residual checks.

The two function families: the moment products prod eta(x_i)/pi(x_i) over a
position tuple, and their centered (orthogonal) variants with each factor
shifted by -1.  The multinomial kernel averages an occupation observable
against a Multinomial(k, eta) draw; evaluating it before or after one edge
update commutes exactly, which is the per-edge intertwining identity checked
here as a residual.

Tensor observables over position tuples are stored flat in row-major order;
``annihilate`` inserts a coordinate an observable ignores, ``create``
averages a coordinate out against the site-weights, and ``symmetrize``
projects onto label-exchange invariant observables.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import averaging
from .graphs import SiteWeights, WeightedGraph
from .spectral import (
    UnlabeledSpace,
    enumerate_configs,
    evolve_observable,
    generator_splitting,
    generator_splitting_labeled,
    labeled_states,
    multinomial_measure,
    product_weights,
    split_moves,
    transient_distribution,
)

__all__ = [
    "TensorFunction",
    "moment_duality",
    "orthogonal_duality",
    "falling_factorial",
    "multinomial_average",
    "intertwining_residual",
    "annihilate",
    "create",
    "symmetrize",
    "particle_removal_matrix",
    "eigenfunction_observable",
    "multicolored_intertwining_residual",
    "selfduality_residual",
]


@dataclass(frozen=True)
class TensorFunction:
    """Observable on k-tuples of vertices, flat row-major values of length n^k."""

    n: int
    k: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).reshape(-1)
        if v.size != self.n ** self.k:
            raise ValueError(f"need n^k = {self.n ** self.k} values, got {v.size}")
        object.__setattr__(self, "values", v)

    @property
    def tensor(self) -> np.ndarray:
        return self.values.reshape((self.n,) * self.k)


def moment_duality(xs, eta: np.ndarray, weights: SiteWeights) -> float:
    """prod_i eta(x_i)/pi(x_i) over the position tuple xs."""
    pi = weights.pi
    out = 1.0
    for x in xs:
        out *= eta[x] / pi[x]
    return float(out)


def orthogonal_duality(xs, eta: np.ndarray, weights: SiteWeights) -> float:
    """prod_i (eta(x_i)/pi(x_i) - 1); vanishes identically at eta = pi."""
    pi = weights.pi
    out = 1.0
    for x in xs:
        out *= eta[x] / pi[x] - 1.0
    return float(out)


def falling_factorial(xi, xs) -> int:
    """xi(x_1) (xi(x_2) - [x_2=x_1]) ... with one unit removed per prior visit."""
    seen: dict[int, int] = {}
    out = 1
    for x in xs:
        x = int(x)
        out *= int(xi[x]) - seen.get(x, 0)
        if out == 0:
            return 0
        seen[x] = seen.get(x, 0) + 1
    return out


def multinomial_average(f: np.ndarray, eta: np.ndarray, k: int,
                        space: UnlabeledSpace) -> float:
    """Average of an occupation observable under Multinomial(k, eta)."""
    pmf = multinomial_measure(np.asarray(eta, float), k, space)
    return float(pmf @ np.asarray(f, float))


def _edge_kernel_apply(f: np.ndarray, edge, weights: SiteWeights,
                       space: UnlabeledSpace) -> np.ndarray:
    """Average of f over the binomial re-split on one edge, for every configuration."""
    x, y = int(edge[0]), int(edge[1])
    pi = weights.pi
    src, dst, prob, stay = split_moves(space, x, y, pi[x] / (pi[x] + pi[y]))
    f = np.asarray(f, float)
    out = stay * f
    np.add.at(out, src, prob * f[dst])
    return out


def intertwining_residual(graph: WeightedGraph, weights: SiteWeights, k: int,
                          f: np.ndarray, eta: np.ndarray,
                          space: UnlabeledSpace | None = None) -> float:
    """Per-edge commutation defect of multinomial sampling with one update.

    For each edge: average f under Multinomial(k, eta^xy) versus average the
    edge-redistributed f under Multinomial(k, eta).  Exact finite sums; the
    residual is the max absolute difference over edges.
    """
    if space is None:
        space = enumerate_configs(graph.n, k)
    f = np.asarray(f, float)
    worst = 0.0
    for x, y in zip(graph.edge_x.tolist(), graph.edge_y.tolist()):
        eta_up = averaging.edge_update(eta, (x, y), weights)
        lhs = multinomial_average(f, eta_up, k, space)
        rhs = multinomial_average(_edge_kernel_apply(f, (x, y), weights, space), eta, k, space)
        worst = max(worst, abs(lhs - rhs))
    return worst


def annihilate(psi: TensorFunction, i: int) -> TensorFunction:
    """Insert coordinate i (1-based) that the observable ignores: k-1 -> k."""
    k = psi.k + 1
    if not (1 <= i <= k):
        raise IndexError(f"coordinate {i} out of range 1..{k}")
    t = np.expand_dims(psi.tensor, axis=i - 1)
    t = np.broadcast_to(t, (psi.n,) * k)
    return TensorFunction(psi.n, k, t.reshape(-1).copy())


def create(psi: TensorFunction, i: int, weights: SiteWeights) -> TensorFunction:
    """Average coordinate i (1-based) against the site-weights: k -> k-1."""
    if not (1 <= i <= psi.k):
        raise IndexError(f"coordinate {i} out of range 1..{psi.k}")
    t = np.tensordot(psi.tensor, weights.pi, axes=(i - 1, 0))
    return TensorFunction(psi.n, psi.k - 1, t.reshape(-1))


def symmetrize(psi: TensorFunction) -> TensorFunction:
    """Project onto label-exchange invariant observables: the average over
    all k! permutations of the coordinates."""
    k, n = psi.k, psi.n
    if k <= 1:
        return psi
    t = psi.tensor
    acc = np.zeros_like(t)
    for perm in itertools.permutations(range(k)):
        acc += np.transpose(t, perm)
    return TensorFunction(n, k, (acc / math.factorial(k)).reshape(-1))


def inner_product(psi: TensorFunction, phi: TensorFunction,
                  weights: SiteWeights) -> float:
    """Inner product in L^2 of the k-fold product of the site-weights."""
    if (psi.n, psi.k) != (phi.n, phi.k):
        raise ValueError("mismatched tensor shapes")
    return float(np.sum(product_weights(weights, psi.k) * psi.values * phi.values))


def particle_removal_matrix(space_k: UnlabeledSpace,
                            space_km1: UnlabeledSpace) -> np.ndarray:
    """Occupancy-weighted sum over single-particle removals as a dense matrix.

    (J f)(xi) = sum_x xi(x) f(xi - e_x), mapping observables on k-1 particles
    to observables on k particles (columns index the k-1 space).
    """
    if space_k.k != space_km1.k + 1 or space_k.n != space_km1.n:
        raise ValueError("spaces must differ by exactly one particle")
    J = np.zeros((space_k.size, space_km1.size))
    for x in range(space_k.n):
        rows = np.nonzero(space_k.configs[:, x] > 0)[0]
        removed = space_k.configs[rows].copy()
        removed[:, x] -= 1
        J[rows, space_km1.rank(removed)] = space_k.configs[rows, x]
    return J


def eigenfunction_observable(psi: TensorFunction, eta: np.ndarray,
                             weights: SiteWeights) -> float:
    """Pairing of a tensor observable with the centered products at eta.

    sum over tuples of pi(x_1)...pi(x_k) psi(x) prod_i (eta(x_i)/pi(x_i)-1).
    Applied to an eigenfunction of the labeled particle generator, this
    produces an eigenfunction of the averaging generator with the same decay
    rate (or the zero function).
    """
    dev = np.asarray(eta, float) / weights.pi - 1.0
    dbar = dev if psi.k >= 1 else np.array(1.0)
    for _ in range(psi.k - 1):
        dbar = np.multiply.outer(dbar, dev)
    n = weights.pi.size
    return inner_product(psi, TensorFunction(n, psi.k, np.asarray(dbar).reshape(-1)), weights)


def multicolored_intertwining_residual(graph: WeightedGraph, weights: SiteWeights,
                                       xi, fs, etas) -> float:
    """Per-edge commutation defect for the color-resolved processes.

    Each source vertex z carries xi(z) particles of its own color, an
    observable ``fs[z]`` on its occupation space, and a mass profile
    ``etas[z]``.  All colors thermalize the same edge simultaneously, so for
    product observables both sides factor over colors into per-color
    multinomial averages: sampling after the joint mass update must agree
    with averaging the jointly redistributed observable.  Returns the max
    absolute defect over edges.
    """
    xi = np.asarray(xi, dtype=np.int64)
    n = graph.n
    spaces = {int(k_z): enumerate_configs(n, int(k_z)) for k_z in set(xi.tolist())}
    worst = 0.0
    for x, y in zip(graph.edge_x.tolist(), graph.edge_y.tolist()):
        lhs = 1.0
        rhs = 1.0
        base = 1.0
        for z in range(n):
            k_z = int(xi[z])
            space = spaces[k_z]
            f_z = np.asarray(fs[z], float)
            eta_z = np.asarray(etas[z], float)
            eta_up = averaging.edge_update(eta_z, (x, y), weights)
            lhs *= multinomial_average(f_z, eta_up, k_z, space)
            rhs *= multinomial_average(_edge_kernel_apply(f_z, (x, y), weights, space),
                                       eta_z, k_z, space)
            base *= multinomial_average(f_z, eta_z, k_z, space)
        worst = max(worst, abs((lhs - base) - (rhs - base)))
    return worst


def selfduality_residual(graph: WeightedGraph, weights: SiteWeights, k: int,
                         ell: int, t: float, tol: float = 1e-9) -> float:
    """Self-duality defect between the k-point falling-factorial statistics of
    an ell-particle system and the evolved k-particle statistics.

    Left side: evolve the occupation law from each ell-particle start and
    average the normalized falling factorial.  Right side: evolve the same
    statistic as an observable of the labeled k-particle system.  Both sides
    use uniformized semigroups with tolerance ``tol``; returns the max
    absolute difference over all starts and position tuples.
    """
    if ell < k:
        raise ValueError("need at least as many particles as tuple points")
    space = enumerate_configs(graph.n, ell)
    Q_unl = generator_splitting(graph, weights, ell, space)
    Q_lab = generator_splitting_labeled(graph, weights, k)
    tuples = labeled_states(graph.n, k)
    # falling-factorial table: rows = configurations, cols = position tuples
    ff = np.array([[falling_factorial(xi, xs) for xs in tuples] for xi in space.configs],
                   dtype=float)
    ff_norm = ff / product_weights(weights, k)[None, :]
    # every start evolves at once: column i belongs to configuration i
    laws = transient_distribution(Q_unl, np.eye(space.size), t, tol)
    rhs = evolve_observable(Q_lab, ff_norm.T, t, tol)
    # one vector-matrix product per start, summed as for a lone start
    lhs = np.array([law @ ff_norm for law in np.ascontiguousarray(laws.T)])
    return float(np.max(np.abs(lhs - rhs.T)))
