"""Distance-to-equilibrium functionals: exact total variation, transport
norms, evolved densities, chi-square/TV bounds between multinomial laws, the
sqrt(e k .) upper bound, Wilson's lower bound, the heat/noise split of the
averaged L^2 error, and the effective-dimension fit of heat-kernel decay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from . import averaging, spectral
from .graphs import SiteWeights, WeightedGraph
from .simulate import (SimOptions, _categorical_starts, simulate_splitting_batch,
                       wasserstein_estimate)
from .spectral import (
    Spectrum,
    StateSpaceCapError,
    UnlabeledSpace,
    enumerate_configs,
    evolve_observable,
    generator_single_particle,
    generator_splitting,
    generator_splitting_labeled,
    multinomial_measure,
    spectral_gap,
    _symmetrized,
    _Uniformization,
)

NASH_WINDOW_FLOOR = 1.05          # exclude the saturated tail of the decay profile
NASH_WINDOW_CEIL_FRACTION = 0.5   # exclude the small-time plateau near max
NASH_MIN_POINTS = 4
NASH_R2_THRESHOLD = 0.97
NASH_DIM_CAP = 8.0
NASH_TIMESCALE_CAP = 4.0  # finite-dimensional geometries keep t_nash = O(t_rel)

__all__ = [
    "evolved_density",
    "heat_kernel_max_profile",
    "chi2_multinomial",
    "tv_bound_multinomial",
    "multinomial_tv_exact",
    "wasserstein_estimate",
    "tv_profile_exact",
    "tv_bound_from_l2",
    "WilsonReport",
    "wilson_report",
    "wilson_dirac_lower_bounds",
    "NashFit",
    "NashDiagnosis",
    "nash_fit",
    "nash_diagnose",
    "l2_decomposition",
    "l2_sq_exact",
    "worst_l2_sq",
    "single_particle_spectrum",
]


def evolved_density(graph: WeightedGraph, weights: SiteWeights, eta, t: float,
                    tol: float = 1e-11) -> np.ndarray:
    """The mass profile's density eta/pi evolved by the single-particle
    semigroup; the deterministic part of the averaging dynamics.  At the
    Dirac mass on x it is the heat kernel h_t^x(y) = p_t(x, y) / pi(y)."""
    Q = generator_single_particle(graph, weights)
    u = np.asarray(eta, float) / weights.pi
    return evolve_observable(Q, u, t, tol)


def single_particle_spectrum(graph: WeightedGraph, weights: SiteWeights) -> Spectrum:
    Q = generator_single_particle(graph, weights)
    return spectral_gap(Q, weights.pi)


def _heat_decay(graph: WeightedGraph, weights: SiteWeights):
    """(t_rel, profile) from one dense eigendecomposition U diag(lam) U^T of
    the symmetrized single-particle generator; a graph is connected, so
    lam[1] is the gap.  profile(times) is max_{x,y} h_t^x(y) at every time:
    h_t(x, y) is the L^2(pi) product of h_{t/2}(x, .) and h_{t/2}(y, .), so
    by Cauchy-Schwarz the max sits on the diagonal
    h_t(x, x) = sum_j U_xj^2 e^(-lam_j t) / pi_x, one matrix product for all
    times."""
    if graph.n < 2:
        raise ValueError("a one-vertex graph has no heat-kernel decay")
    lam, U = eigh(_symmetrized(generator_single_particle(graph, weights), weights.pi).toarray())
    diagonal = U ** 2 / weights.pi[:, None]
    return 1.0 / lam[1], lambda times: (diagonal @ np.exp(-np.outer(lam, times))).max(axis=0)


def heat_kernel_max_profile(graph: WeightedGraph, weights: SiteWeights,
                            times) -> np.ndarray:
    """max_{x,y} h_t^x(y) on a time grid, read off the diagonal of the exact
    eigendecomposition."""
    return _heat_decay(graph, weights)[1](times)


def chi2_multinomial(eta, weights: SiteWeights, k: int) -> float:
    """Chi-square divergence between Multinomial(k, eta) and Multinomial(k, pi):
    (1 + ||eta/pi - 1||_2^2)^k - 1, evaluated in the log domain."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    w2 = averaging.transport_norm(np.asarray(eta, float), weights, 2.0) ** 2
    log_plus = k * math.log1p(w2)
    if log_plus > 700.0:
        return math.inf
    return float(math.expm1(log_plus))


def tv_bound_multinomial(eta, weights: SiteWeights, k: int) -> float:
    """min(1, sqrt(chi2)) upper bound on the multinomial TV distance."""
    return min(1.0, math.sqrt(chi2_multinomial(eta, weights, k)))


def multinomial_tv_exact(eta, weights: SiteWeights, k: int,
                         space: UnlabeledSpace | None = None) -> float:
    """Exact TV between Multinomial(k, eta) and Multinomial(k, pi) by
    enumeration of the occupation space."""
    if space is None:
        space = enumerate_configs(weights.n, k)
    mu_eta = multinomial_measure(np.asarray(eta, float), k, space)
    mu_pi = multinomial_measure(weights, k, space)
    return float(0.5 * np.abs(mu_eta - mu_pi).sum())


def tv_profile_exact(graph: WeightedGraph, weights: SiteWeights, k: int, xi0,
                     times, tol: float = 1e-9,
                     space: UnlabeledSpace | None = None):
    """Exact TV to the multinomial equilibrium at each time, from a fixed
    starting configuration, by uniformization.

    ``xi0`` is one configuration, giving (t, tv) pairs, or an (S, n) array
    of S starts, giving (t, array of S values) pairs.  The generator is built
    once and all starts evolve together as the columns of one block.  Every
    time is summed from one sequence of powers of the uniformized chain, with
    its own Poisson tail below ``tol / len(times)``; a lost mass above 2 tol
    is an error, and the laws are not renormalized.  Each law is reduced to
    its TV values before the next is evolved, so at most one group of laws
    (``spectral.EVOLVE_BYTES``) is held at once.
    """
    if space is None:
        space = enumerate_configs(graph.n, k)
    cap = spectral.DEFAULT_TRANSIENT_CAP
    if space.size > cap:
        raise StateSpaceCapError(
            f"occupation space has {space.size} states, above the transient cap "
            f"of {cap}; use the bound-based profile (upper/lower bracket) instead")
    starts = np.asarray(xi0)
    if starts.ndim not in (1, 2) or starts.shape[-1] != space.n:
        raise ValueError(f"need one start or an (S, {space.n}) array of starts, "
                         f"got shape {starts.shape}")
    single = starts.ndim == 1
    starts = starts.reshape(-1, space.n)
    law = np.zeros((space.size, starts.shape[0]))
    law[space.rank(starts), np.arange(starts.shape[0])] = 1.0
    semigroup = _Uniformization(generator_splitting(graph, weights, k, space))
    mu = multinomial_measure(weights, k, space)
    times = [float(t) for t in times]
    out = []
    # each law is reduced to its TV values before the next one is evolved
    for t, law_t in semigroup.evolve_each(law, times, tol / max(1, len(times)), measure=True):
        # contiguous copies: a strided column sums in a different order
        cols = np.ascontiguousarray(law_t.T)
        mass = np.array([col.sum() for col in cols])
        defect = float(np.abs(mass - 1.0).max())
        if defect > 2 * tol:
            raise ValueError(f"mass defect {defect:.3e} at t={t:g} exceeds 2 tol = {2 * tol:.3e}")
        tv = np.array([0.5 * np.abs(col - mu).sum() for col in cols])
        out.append((float(t), float(tv[0]) if single else tv))
    return out


def tv_bound_from_l2(k: int, w2_sq: float) -> float:
    """min(1, sqrt(e k w2_sq)): TV bound from the worst averaged L^2 error."""
    if w2_sq < 0:
        raise ValueError("w2_sq must be nonnegative")
    return min(1.0, math.sqrt(math.e * k * w2_sq))


@dataclass(frozen=True)
class WilsonReport:
    """Distinguishing-statistic report for the lower bound on TV mixing.

    The statistic is F(xi) = sum_x psi(x) xi(x) with psi the unit-norm gap
    eigenfunction of the single-particle system.  At equilibrium F has mean 0
    and variance k; out of equilibrium the mean decays at the gap rate.  The
    out-of-equilibrium variance, when requested, is estimated by Monte Carlo.
    """

    psi: np.ndarray
    gap: float
    k: int
    t: float
    mean_eq: float
    var_eq: float
    mean_out: float
    a_t: float
    lower_bound: float
    var_out_mc: float | None = None
    mc_mean_out: float | None = None
    mc_stderr: float | None = None


def wilson_report(graph: WeightedGraph, weights: SiteWeights, k: int, eta,
                  t: float, mc_replicas: int = 0, seed: int = 0,
                  spec: Spectrum | None = None) -> WilsonReport:
    """Wilson statistic built from the single-particle gap eigenfunction.

    Exact parts: equilibrium mean/variance from the multinomial moments, the
    out-of-equilibrium mean k e^(-t gap) <psi, eta/pi>, the ratio a_t, and
    the TV lower bound max(0, 1 - 8/a_t).  ``mc_replicas`` > 0 adds a Monte
    Carlo estimate of the statistic's out-of-equilibrium mean and variance.
    ``spec`` is the single-particle spectrum, when the caller already has it.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if spec is None:
        spec = single_particle_spectrum(graph, weights)
    psi = spec.psi
    pi = weights.pi
    eta = np.asarray(eta, float)
    mean_eq = k * float(np.sum(pi * psi))
    var_eq = k * float(np.sum(pi * psi ** 2) - np.sum(pi * psi) ** 2)
    overlap = float(np.sum(psi * eta))  # <psi, eta/pi> in L^2(pi)
    mean_out = k * math.exp(-t * spec.gap) * overlap
    dev_inf = float(np.max(eta / pi))
    n = graph.n
    denom = 1.0 + (k / n) * (dev_inf ** 2 + math.exp(t * spec.gap))
    a_t = k * overlap ** 2 / denom
    lower = max(0.0, 1.0 - 8.0 / a_t) if a_t > 0 else 0.0
    var_out = mc_mean = mc_stderr = None
    if mc_replicas > 0:
        starts = _categorical_starts(seed, eta, k, mc_replicas)
        vals = simulate_splitting_batch(graph, weights, starts,
                                        SimOptions(record_times=(t,), seed=seed), mc_replicas,
                                        observe=lambda pos: psi[pos].sum(axis=1))[:, 0]
        var_out = float(vals.var(ddof=1))
        mc_mean = float(vals.mean())
        mc_stderr = float(vals.std(ddof=1) / math.sqrt(mc_replicas))
    return WilsonReport(psi=psi, gap=spec.gap, k=k, t=t, mean_eq=mean_eq,
                        var_eq=var_eq, mean_out=mean_out, a_t=a_t,
                        lower_bound=lower, var_out_mc=var_out,
                        mc_mean_out=mc_mean, mc_stderr=mc_stderr)


def wilson_dirac_lower_bounds(weights: SiteWeights, k: int, times,
                              spec: Spectrum) -> np.ndarray:
    """:func:`wilson_report`'s lower bound for the pile of k at every vertex v
    (rows: times, columns: v).  For eta = delta_v, <psi, eta/pi> = psi(v)
    and max eta/pi = 1/pi(v)."""
    psi, pi = spec.psi, weights.pi
    growth = np.array([[math.exp(float(t) * spec.gap)] for t in times])
    a_t = k * psi ** 2 / (1.0 + (k / pi.size) * ((1.0 / pi) ** 2 + growth))
    with np.errstate(divide="ignore"):
        return np.where(a_t > 0, np.maximum(0.0, 1.0 - 8.0 / a_t), 0.0)


@dataclass(frozen=True)
class NashFit:
    """Power-law fit of the heat-kernel decay profile.

    The decay max_{x,y} h_t^x(y) of a d-dimensional geometry follows
    (const/t)^(d/2) in a window between the small-time plateau and the
    saturated tail; d_hat = -2 (log-log slope) and t_nash_hat is recovered
    from the intercept of e (d t_N / 2t)^(d/2).
    """

    d_hat: float
    t_nash_hat: float
    t_lo: float
    t_hi: float
    r_squared: float
    n_points: int


@dataclass(frozen=True)
class NashDiagnosis:
    fit: NashFit | None
    finite_dimensional: bool
    reason: str


def nash_fit(graph: WeightedGraph, weights: SiteWeights, t_grid) -> NashFit:
    """Fit the effective dimension from the exact heat-kernel decay.

    Regresses log max h against log t on the sub-window where the profile
    lies within [1.05, half the grid maximum]; rejects when fewer than 4
    grid points qualify.
    """
    t_grid = np.sort(np.asarray(t_grid, dtype=float))
    return _fit_profile(t_grid, heat_kernel_max_profile(graph, weights, t_grid))


def _fit_profile(t_grid: np.ndarray, prof: np.ndarray) -> NashFit:
    """:func:`nash_fit` on a sorted grid and the profile on it."""
    if np.any(t_grid <= 0):
        raise ValueError("t_grid must be strictly positive")
    ceil = NASH_WINDOW_CEIL_FRACTION * prof.max()
    mask = (prof >= NASH_WINDOW_FLOOR) & (prof <= ceil)
    if int(mask.sum()) < NASH_MIN_POINTS:
        raise ValueError(
            f"only {int(mask.sum())} grid points fall in the fit window "
            f"[{NASH_WINDOW_FLOOR}, {ceil:.3g}]; need {NASH_MIN_POINTS}"
        )
    ts, hs = t_grid[mask], prof[mask]
    lx, ly = np.log(ts), np.log(hs)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    d_hat = -2.0 * slope
    if d_hat > 0:
        # intercept = 1 + (d/2) log(d t_N / 2)
        t_nash = (2.0 / d_hat) * math.exp((intercept - 1.0) * 2.0 / d_hat)
    else:
        t_nash = math.nan
    return NashFit(d_hat=float(d_hat), t_nash_hat=float(t_nash),
                   t_lo=float(ts[0]), t_hi=float(ts[-1]), r_squared=r2,
                   n_points=int(mask.sum()))


def nash_diagnose(graph: WeightedGraph, weights: SiteWeights,
                  t_grid=None) -> NashDiagnosis:
    """Run the dimension fit and flag geometries that are not finite-
    dimensional: no usable power-law window, an unstable fit, an unbounded
    fitted dimension, or a fitted burn-in time far above the relaxation time
    (on the complete graph the two scales separate while the window fit can
    still look locally like a power law).  The default grid is 48 log-spaced
    times from t_rel / 100 to t_rel."""
    return _nash_diagnosis(*_heat_decay(graph, weights), t_grid)[2]


def _nash_diagnosis(t_rel: float, profile, t_grid=None):
    """(grid, profile on it, diagnosis) of :func:`nash_diagnose`, from the
    relaxation time and the profile map :func:`_heat_decay` returns."""
    if t_grid is None:
        t_grid = np.geomspace(t_rel / 100.0, t_rel, 48)
    t_grid = np.sort(np.asarray(t_grid, dtype=float))
    prof = profile(t_grid)
    try:
        fit = _fit_profile(t_grid, prof)
    except ValueError as err:
        return t_grid, prof, NashDiagnosis(fit=None, finite_dimensional=False,
                                           reason=f"no power-law window: {err}")
    if fit.r_squared < NASH_R2_THRESHOLD:
        reason = f"log-log fit unstable (R^2={fit.r_squared:.4f})"
    elif not (0.0 < fit.d_hat <= NASH_DIM_CAP):
        reason = f"fitted dimension {fit.d_hat:.2f} outside (0, {NASH_DIM_CAP:g}]"
    elif fit.t_nash_hat > NASH_TIMESCALE_CAP * t_rel:
        reason = (f"fitted burn-in time {fit.t_nash_hat:.3g} is "
                  f"{fit.t_nash_hat / t_rel:.1f}x the relaxation time")
    else:
        return t_grid, prof, NashDiagnosis(fit=fit, finite_dimensional=True, reason="ok")
    return t_grid, prof, NashDiagnosis(fit=fit, finite_dimensional=False, reason=reason)


def l2_decomposition(graph: WeightedGraph, weights: SiteWeights, eta, t: float,
                     tol: float = 1e-10):
    """Split the exact averaged L^2 error into heat and interaction parts.

    Returns (h_term, nt_term): the squared L^2 norm of the evolved density
    minus one, and the diagonal defect between the joint two-particle and
    the independent-pair evolutions of (eta/pi) tensor (eta/pi).  Their sum
    is the exact expected squared transport distance at time t.
    """
    pi = weights.pi
    eta = np.asarray(eta, float)
    u = eta / pi
    h = evolved_density(graph, weights, eta, t, tol)
    h_term = float(np.sum(pi * (h - 1.0) ** 2))
    Q2 = generator_splitting_labeled(graph, weights, 2)
    g = np.outer(u, u).reshape(-1)
    joint = evolve_observable(Q2, g, t, tol).reshape(graph.n, graph.n)
    nt_term = float(np.sum(pi * (np.diag(joint) - h * h)))
    return h_term, nt_term


def l2_sq_exact(graph: WeightedGraph, weights: SiteWeights, eta, t: float,
                tol: float = 1e-10) -> float:
    """Exact expected ||eta_t/pi - 1||_2^2 through the two-particle kernel:
    eta^T M_t eta - 1 with M_t the evolved diagonal-over-pi observable."""
    M = _pair_diagonal_kernels(graph, weights, [t], tol)[0]
    eta = np.asarray(eta, float)
    return float(eta @ M @ eta - 1.0)


def _pair_diagonal_kernels(graph: WeightedGraph, weights: SiteWeights, times,
                           tol: float):
    """M_t for each t, in the order given: the two-particle generator is
    built once and the times, in ascending order, are summed from one
    sequence of powers, each with its own Poisson tail below ``tol``."""
    n = graph.n
    semigroup = _Uniformization(generator_splitting_labeled(graph, weights, 2))
    g0 = np.diag(1.0 / weights.pi).reshape(-1)
    times = np.asarray(times, dtype=float)
    order = np.argsort(times, kind="stable")
    kernels = semigroup.evolve(g0, times[order], tol, measure=False)
    return kernels[np.argsort(order)].reshape(-1, n, n)


def worst_l2_sq(graph: WeightedGraph, weights: SiteWeights, t, tol: float = 1e-10):
    """Sup over starting profiles of the exact averaged squared L^2 error,
    max_eta eta^T M_t eta - 1 (clamped at 0).  The map is convex in eta, so
    the sup over the simplex sits at a vertex: the largest diagonal entry of
    M_t, the worst Dirac profile.

    ``t`` is one time, giving a float, or a sequence of times, giving a list;
    the two-particle kernel is built once for all of them.
    """
    kernels = _pair_diagonal_kernels(graph, weights, np.atleast_1d(t).tolist(), tol)
    out = [max(float(np.max(np.diag(M))) - 1.0, 0.0) for M in kernels]
    return out[0] if np.ndim(t) == 0 else out
