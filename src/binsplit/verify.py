"""The deterministic verification battery: 17 residual checks of the
duality, intertwining, Dirichlet-form and distance identities, each on a
small graph with fixed seeds, run by ``binsplit verify``.  It is the only
module of the package that imports :mod:`binsplit.duality`.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from . import averaging, distances, duality, simulate, spectral
from .graphs import build_graph, site_weights, uniform_weights
from .harness import ExperimentConfig

__all__ = ["run_verify", "VERIFY_CHECKS"]


def _check_intertwining():
    graph = build_graph("path", size=3)
    weights = site_weights([0.2, 0.3, 0.5])
    rng = simulate.make_rng(7, stream=4)
    worst = 0.0
    for k in (1, 2):
        space = spectral.enumerate_configs(3, k)
        for _ in range(25):
            f = rng.standard_normal(space.size)
            eta = rng.dirichlet(np.ones(3))
            worst = max(worst, duality.intertwining_residual(graph, weights, k,
                                                             f, eta, space))
    return worst, 1e-12


def _labeled_duality_residual(centered: bool) -> float:
    graph = build_graph("path", size=3)
    weights = site_weights([0.2, 0.3, 0.5])
    k = 2
    Q = spectral.generator_splitting_labeled(graph, weights, k).toarray()
    tuples = spectral.labeled_states(3, k)
    rng = simulate.make_rng(11, stream=4)
    dual = duality.orthogonal_duality if centered else duality.moment_duality
    worst = 0.0
    for _ in range(30):
        eta = rng.dirichlet(np.ones(3))
        dvec = np.array([dual(xs, eta, weights) for xs in tuples])
        rhs = Q @ dvec
        for i, xs in enumerate(tuples):
            lhs = averaging.avg_generator_apply(lambda e: dual(xs, e, weights),
                                                eta, graph, weights)
            worst = max(worst, abs(lhs - rhs[i]))
    return worst


def _check_moment_duality():
    return _labeled_duality_residual(False), 1e-10


def _check_orthogonal_duality():
    return _labeled_duality_residual(True), 1e-10


def _check_self_duality():
    graph = build_graph("cycle", size=3)
    weights = uniform_weights(3)
    res = duality.selfduality_residual(graph, weights, k=1, ell=2, t=0.7, tol=1e-9)
    return res, 1e-7


def _check_jk_intertwining():
    graph = build_graph("path", size=3)
    weights = site_weights([0.25, 0.3, 0.45])
    s2 = spectral.enumerate_configs(3, 2)
    s3 = spectral.enumerate_configs(3, 3)
    Q2 = spectral.generator_splitting(graph, weights, 2, s2).toarray()
    Q3 = spectral.generator_splitting(graph, weights, 3, s3).toarray()
    J = duality.particle_removal_matrix(s3, s2)
    return float(np.max(np.abs(Q3 @ J - J @ Q2))), 1e-11


def _check_jk_injective():
    s2 = spectral.enumerate_configs(3, 2)
    s3 = spectral.enumerate_configs(3, 3)
    J = duality.particle_removal_matrix(s3, s2)
    deficiency = s2.size - np.linalg.matrix_rank(J)
    return float(deficiency), 0.5


def _check_adjointness():
    weights = site_weights([0.2, 0.3, 0.5])
    rng = simulate.make_rng(13, stream=4)
    worst = 0.0
    for k in (2, 3):
        for i in (1, k):
            psi = duality.TensorFunction(3, k - 1, rng.standard_normal(3 ** (k - 1)))
            phi = duality.TensorFunction(3, k, rng.standard_normal(3 ** k))
            lhs = duality.inner_product(duality.annihilate(psi, i), phi, weights)
            rhs = duality.inner_product(psi, duality.create(phi, i, weights), weights)
            worst = max(worst, abs(lhs - rhs))
    return worst, 1e-12


def _check_f_psi_eigen():
    graph = build_graph("path", size=3)
    weights = site_weights([0.2, 0.3, 0.5])
    Q = spectral.generator_splitting_labeled(graph, weights, 2)
    mu2 = spectral.product_weights(weights, 2)
    lam = spectral.spectral_gap(Q, mu2).gap
    rng = simulate.make_rng(17, stream=4)
    # all eigenfunctions at the gap eigenvalue
    w, V = np.linalg.eigh(spectral._symmetrized(Q, mu2).toarray())
    worst = 0.0
    for j in np.nonzero(np.abs(w - lam) <= 1e-9 * w[-1])[0]:
        psi = duality.TensorFunction(3, 2, V[:, j] / np.sqrt(mu2))
        for _ in range(10):
            eta = rng.dirichlet(np.ones(3))
            lhs = averaging.avg_generator_apply(
                lambda e: duality.eigenfunction_observable(psi, e, weights),
                eta, graph, weights)
            rhs = -lam * duality.eigenfunction_observable(psi, eta, weights)
            worst = max(worst, abs(lhs - rhs))
    return worst, 1e-9


def _check_dirichlet_ordering():
    graph = build_graph("cycle", size=4)
    weights = site_weights([0.1, 0.2, 0.3, 0.4])
    Q2 = spectral.generator_splitting_labeled(graph, weights, 2)
    mu2 = spectral.product_weights(weights, 2)
    rng = simulate.make_rng(19, stream=4)
    worst = 0.0
    for _ in range(200):
        psi2 = rng.standard_normal(16)
        e_pair = spectral.dirichlet_form(Q2, mu2, psi2)
        e_ind = spectral.dirichlet_independent_pair(graph, weights, psi2)
        worst = max(worst, 0.5 * e_ind - e_pair, e_pair - e_ind)
    return worst, 1e-12


def _check_dirichlet_identity():
    graph = build_graph("cycle", size=4)
    weights = site_weights([0.1, 0.2, 0.3, 0.4])
    Q2 = spectral.generator_splitting_labeled(graph, weights, 2)
    mu2 = spectral.product_weights(weights, 2)
    rng = simulate.make_rng(23, stream=4)
    worst = 0.0
    for _ in range(100):
        psi2 = rng.standard_normal(16)
        e_pair = spectral.dirichlet_form(Q2, mu2, psi2)
        e_ind = spectral.dirichlet_independent_pair(graph, weights, psi2)
        defect = spectral.dirichlet_defect_form(graph, weights, psi2)
        worst = max(worst, abs(e_pair - (e_ind - defect)))
    return worst, 1e-10


def _check_gap_identity():
    graph = build_graph("path", size=3)
    weights = site_weights([0.2, 0.3, 0.5])
    gap1 = distances.single_particle_spectrum(graph, weights).gap
    worst = 0.0
    for k in (2, 3):
        space = spectral.enumerate_configs(3, k)
        Q = spectral.generator_splitting(graph, weights, k, space)
        mu = spectral.multinomial_measure(weights, k, space)
        worst = max(worst, abs(spectral.spectral_gap(Q, mu).gap / gap1 - 1.0))
    return worst, 1e-9


def _check_aldous_lanoue():
    graph = build_graph("cycle", size=4)
    weights = site_weights([0.1, 0.2, 0.3, 0.4])
    rng = simulate.make_rng(29, stream=4)
    worst = 0.0
    for _ in range(1000):
        eta = rng.dirichlet(np.ones(4))
        i = int(rng.integers(graph.n_edges))
        e = (graph.edge_x[i], graph.edge_y[i])
        before = averaging.transport_norm(eta, weights, 2.0) ** 2
        after = averaging.transport_norm(
            averaging.edge_update(eta, e, weights), weights, 2.0) ** 2
        worst = max(worst, abs((after - before) -
                               averaging.l2_drop(eta, e, weights)))
    return worst, 1e-12


def _check_multinomial_tv_bound():
    weights = site_weights([0.2, 0.3, 0.5])
    rng = simulate.make_rng(31, stream=4)
    worst = -math.inf
    for k in (1, 2, 3, 4):
        space = spectral.enumerate_configs(3, k)
        for _ in range(20):
            eta = rng.dirichlet(np.ones(3))
            exact = distances.multinomial_tv_exact(eta, weights, k, space)
            bound = distances.tv_bound_multinomial(eta, weights, k)
            worst = max(worst, exact - bound)
    return max(worst, 0.0), 1e-12


def _check_chi2_formula():
    weights = site_weights([0.2, 0.3, 0.5])
    rng = simulate.make_rng(37, stream=4)
    worst = 0.0
    for k in (1, 2, 3, 4):
        space = spectral.enumerate_configs(3, k)
        mu_pi = spectral.multinomial_measure(weights, k, space)
        for _ in range(10):
            eta = rng.dirichlet(np.ones(3))
            mu_eta = spectral.multinomial_measure(eta, k, space)
            chi2_enum = float(np.sum(mu_eta ** 2 / mu_pi) - 1.0)
            worst = max(worst, abs(chi2_enum - distances.chi2_multinomial(eta, weights, k)))
    return worst, 1e-10


def _check_nt_consistency():
    graph = build_graph("cycle", size=4)
    weights = site_weights([0.1, 0.2, 0.3, 0.4])
    rng = simulate.make_rng(41, stream=4)
    worst = 0.0
    for _ in range(5):
        eta = rng.dirichlet(np.ones(4))
        for t in (0.4, 1.1):
            h_term, nt_term = distances.l2_decomposition(graph, weights, eta, t, 1e-10)
            direct = distances.l2_sq_exact(graph, weights, eta, t, 1e-10)
            worst = max(worst, abs(h_term + nt_term - direct))
    return worst, 1e-9


def _check_multicolored_intertwining():
    graph = build_graph("cycle", size=3)
    weights = site_weights([0.2, 0.3, 0.5])
    rng = simulate.make_rng(47, stream=4)
    worst = 0.0
    for xi in ((1, 1, 1), (2, 1, 0), (3, 0, 0)):
        spaces = {kz: spectral.enumerate_configs(3, kz) for kz in set(xi)}
        for _ in range(10):
            fs = [rng.standard_normal(spaces[kz].size) for kz in xi]
            etas = [rng.dirichlet(np.ones(3)) for _ in range(3)]
            worst = max(worst, duality.multicolored_intertwining_residual(
                graph, weights, xi, fs, etas))
    return worst, 1e-11


def _check_multicolored_projection():
    graph = build_graph("path", size=3)
    weights = uniform_weights(3)
    xi0 = np.array([2, 1, 0])
    times = (0.3, 0.9, 1.7)
    worst = 0
    for rep in range(20):
        opts = simulate.SimOptions(record_times=times, seed=43, replica_id=rep)
        colored = simulate.simulate_multicolored(graph, weights, xi0, opts)
        plain = simulate.simulate_splitting(graph, weights, xi0, opts)
        for c, p in zip(colored, plain):
            worst = max(worst, int(np.max(np.abs(c.sum(axis=0) - p))))
    return float(worst), 0.5


VERIFY_CHECKS = (
    ("intertwining", _check_intertwining),
    ("moment_duality", _check_moment_duality),
    ("orthogonal_duality", _check_orthogonal_duality),
    ("self_duality", _check_self_duality),
    ("jk_intertwining", _check_jk_intertwining),
    ("jk_injective", _check_jk_injective),
    ("adjointness", _check_adjointness),
    ("f_psi_eigen", _check_f_psi_eigen),
    ("dirichlet_ordering", _check_dirichlet_ordering),
    ("dirichlet_identity", _check_dirichlet_identity),
    ("gap_identity", _check_gap_identity),
    ("aldous_lanoue", _check_aldous_lanoue),
    ("multinomial_tv_bound", _check_multinomial_tv_bound),
    ("chi2_formula", _check_chi2_formula),
    ("nt_consistency", _check_nt_consistency),
    ("multicolored_intertwining", _check_multicolored_intertwining),
    ("multicolored_projection", _check_multicolored_projection),
)


def run_verify(config: ExperimentConfig | None = None, out: str | None = None):
    """Run the deterministic residual battery.

    Returns (exit_code, rows); exit code 0 only if every residual passes.
    Individual check failures (including exceptions) are reported, never
    raised.  Rows go to ``verify.jsonl`` under ``out`` when given.
    """
    out = out or (config.out if config else None)
    rows = []
    for name, fn in VERIFY_CHECKS:
        try:
            residual, tol = fn()
            rows.append({"check": name, "residual": float(residual),
                         "tolerance": float(tol),
                         "pass": bool(residual <= tol)})
        except Exception as err:  # a failing check must not kill the battery
            rows.append({"check": name, "residual": math.inf,
                         "tolerance": math.nan, "pass": False,
                         "error": f"{type(err).__name__}: {err}"})
    if out:
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "verify.jsonl"), "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")
    exit_code = 0 if all(r["pass"] for r in rows) else 1
    return exit_code, rows
