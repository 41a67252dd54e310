"""Deterministic mass-averaging dynamics on the probability simplex.

A state is a probability vector eta over the vertices.  An edge event at xy
pools the mass eta(x)+eta(y) and re-splits it proportionally to the
site-weights, leaving every other coordinate untouched; the site-weight
vector itself is the unique absorbing state.  All operations here are pure;
states are plain numpy arrays.
"""

from __future__ import annotations

import math

import numpy as np

from .graphs import SiteWeights, WeightedGraph

__all__ = [
    "as_simplex",
    "edge_update",
    "avg_generator_apply",
    "l2_drop",
    "transport_norm",
]


def as_simplex(vec, tol: float = 1e-12) -> np.ndarray:
    """Validate a nonnegative vector summing to 1 within tol."""
    eta = np.asarray(vec, dtype=float)
    if eta.ndim != 1:
        raise ValueError("state must be a 1-d vector")
    if np.any(eta < -tol):
        raise ValueError("state has a negative coordinate")
    if abs(math.fsum(eta.tolist()) - 1.0) > tol:
        raise ValueError(f"state mass is {math.fsum(eta.tolist())!r}, expected 1")
    return eta


def edge_update(eta: np.ndarray, edge, weights: SiteWeights) -> np.ndarray:
    """Pool the mass on the two endpoints and re-split it by site-weight.

    The second endpoint receives pooled minus the first share, so the pair's
    mass is conserved to the last rounding of the pooled value.
    """
    x, y = int(edge[0]), int(edge[1])
    if x == y:
        raise ValueError("edge endpoints must differ")
    pi = weights.pi
    out = np.array(eta, dtype=float, copy=True)
    pooled = out[x] + out[y]
    share_x = pi[x] / (pi[x] + pi[y]) * pooled
    out[x] = share_x
    out[y] = pooled - share_x
    return out


def avg_generator_apply(f, eta: np.ndarray, graph: WeightedGraph,
                        weights: SiteWeights) -> float:
    """Generator action sum_xy c_xy (f(eta^xy) - f(eta)) for a pointwise f."""
    base = f(eta)
    total = 0.0
    for (x, y, c) in graph.edges:
        total += c * (f(edge_update(eta, (x, y), weights)) - base)
    return total


def l2_drop(eta: np.ndarray, edge, weights: SiteWeights) -> float:
    """Exact change of ||eta/pi - 1||_2^2 caused by one edge update.

    Equals -(pi_x pi_y / (pi_x + pi_y)) (eta_x/pi_x - eta_y/pi_y)^2, which is
    never positive: every update is a contraction in this norm.
    """
    x, y = int(edge[0]), int(edge[1])
    pi = weights.pi
    diff = eta[x] / pi[x] - eta[y] / pi[y]
    return float(-(pi[x] * pi[y] / (pi[x] + pi[y])) * diff * diff)


def transport_norm(eta: np.ndarray, weights: SiteWeights, p: float):
    """||eta/pi - 1||_p in L^p(V, pi); p may be any real >= 1 or inf.

    Works along the last axis: one state gives a float, a (rows, n) block of
    states gives one norm per row, each equal to the norm of its row alone.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    dev = np.asarray(eta, float) / weights.pi
    dev -= 1.0
    np.abs(dev, out=dev)
    if math.isinf(p):
        norm = dev.max(axis=-1)
    else:
        dev **= p
        dev *= weights.pi
        norm = np.sum(dev, axis=-1) ** (1.0 / p)
    return float(norm) if norm.ndim == 0 else norm
