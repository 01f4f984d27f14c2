"""Mixture of hidden-logistic-process regressions for one class of curves.

A class is modeled as K sub-groups (clusters) of curves; within cluster k
each curve switches over time among R_k polynomial regimes, with the
switching probabilities given by a logistic process. The density of one
curve under cluster k is

    prod_j sum_r pi_r(t_j) * N(x_j; coeffs_r . t_j, var_r)

and the class density mixes the clusters with proportions ``weights``.

Fitting maximizes the observed-data log-likelihood with an EM algorithm:
the E-step computes cluster responsibilities (per curve) and regime
responsibilities (per curve, per point, per cluster); the M-step updates
mixing proportions, solves weighted least squares per regime, refreshes
noise variances, and re-fits each cluster's logistic process by IRLS.
Every accepted iteration is guaranteed not to decrease the observed-data
log-likelihood.

One private kernel evaluates the per-point density for fitting and for
scoring alike. It takes a group of G clusters that share one regime count
R and works on a (G, R, n, m) array, regime before curve and point, so
regime r of cluster g is the contiguous slab ``[g, r]`` and every
reduction over regimes (the max, the sum, the normalisation) runs across
R slabs instead of along a short trailing axis. The E-step calls it once
per group (one group unless the regime counts are ragged); scoring calls
it one cluster at a time, which keeps the buffer of a large scoring set
to one cluster's size and gives the same per-curve log-likelihoods, bit
for bit. The same layout carries the regime responsibilities into the
M-step; ``Posteriors.regime_resp`` shows them as (n, m, R) views, as
before. The M-step fits each group as one stack too: (G, R, m) weighted
statistics, one ``ridge_solve`` over the Grams of every regime with mass,
and one stacked IRLS for the G logistic processes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    LOG_2PI,
    DesignMatrix,
    TimeGrid,
    logsumexp,
    ridge_solve,
    vandermonde,
    variance_floor,
)
from .errors import DataError, NumericalError
from .logistic import LogisticWeights, irls_fit, log_regime_probabilities
from .parallel import map_ordered
from .rng import child_rng, subseed

#: A cluster whose total responsibility falls below this fraction of n is
#: considered starved and gets re-seeded from the worst-fit curve.
_STARVED_FRACTION = 1e-10
_WEIGHT_FLOOR = 1e-12
#: Initial logistic slope gap between adjacent regimes, per unit of
#: (n_regimes / span); controls how sharp the initial segmentation is.
_INIT_SLOPE_SCALE = 10.0
#: Round-off allowance below which a drop in log-likelihood counts as none.
_LOGLIK_SLACK = 1e-9

MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class RhlpParams:
    """One cluster: logistic process + per-regime polynomials and variances."""

    logistic: LogisticWeights
    coeffs: np.ndarray  # (R, p+1)
    variances: np.ndarray  # (R,)

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=float)
        variances = np.array(self.variances, dtype=float)
        R = self.logistic.n_regimes
        if coeffs.ndim != 2 or coeffs.shape[0] != R:
            raise ValueError("coeffs must be (R, p+1) matching the logistic process")
        if variances.shape != (R,):
            raise ValueError("variances must be one per regime")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("regression coefficients must be finite")
        if np.any(variances <= 0) or not np.all(np.isfinite(variances)):
            raise ValueError("variances must be positive and finite")
        coeffs.flags.writeable = False
        variances.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "variances", variances)

    @property
    def n_regimes(self) -> int:
        return int(self.coeffs.shape[0])

    @property
    def degree(self) -> int:
        return int(self.coeffs.shape[1] - 1)


@dataclass(frozen=True)
class MixRhlpParams:
    """Full parameter set of one class: mixing proportions + K clusters."""

    weights: np.ndarray  # (K,)
    clusters: tuple[RhlpParams, ...]

    def __post_init__(self):
        weights = np.array(self.weights, dtype=float)
        clusters = tuple(self.clusters)
        if weights.ndim != 1 or weights.size != len(clusters) or not clusters:
            raise ValueError("one mixing proportion per cluster is required")
        if np.any(weights <= 0) or abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("mixing proportions must be positive and sum to 1")
        weights.flags.writeable = False
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "clusters", clusters)

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    @property
    def regimes(self) -> tuple[int, ...]:
        return tuple(c.n_regimes for c in self.clusters)

    @property
    def degree(self) -> int:
        return self.clusters[0].degree


@dataclass(frozen=True)
class Posteriors:
    """E-step responsibilities for a set of curves.

    ``cluster_resp`` is (n, K); ``regime_resp[k]`` is (n, m, R_k). Rows of
    ``cluster_resp`` and every (i, j) slice of ``regime_resp[k]`` sum to 1.
    The E-step stores each table regime first, as an (R_k, n, m) array, and
    ``regime_resp[k]`` is its read-only transposed view; tables built
    by hand in the (n, m, R_k) shape work the same.
    """

    cluster_resp: np.ndarray
    regime_resp: tuple[np.ndarray, ...]

    def __post_init__(self):
        gamma = np.asarray(self.cluster_resp, dtype=float)
        taus = tuple(np.asarray(t, dtype=float) for t in self.regime_resp)
        if gamma.ndim != 2 or gamma.shape[1] != len(taus):
            raise ValueError("cluster_resp must be (n, K) with K regime tables")
        n = gamma.shape[0]
        # written so that a NaN fails every test
        if not (np.all(gamma >= -1e-12) and np.max(np.abs(gamma.sum(axis=1) - 1.0)) <= 1e-10):
            raise ValueError("cluster responsibilities must be normalized")
        for tau in taus:
            if tau.ndim != 3 or tau.shape[0] != n:
                raise ValueError("regime tables must be (n, m, R)")
            if not np.max(np.abs(tau.sum(axis=2) - 1.0)) <= 1e-10:
                raise ValueError("regime responsibilities must be normalized")
            tau.flags.writeable = False
        gamma.flags.writeable = False
        object.__setattr__(self, "cluster_resp", gamma)
        object.__setattr__(self, "regime_resp", taus)


@dataclass(frozen=True)
class FitReport:
    """Trace and bookkeeping of one fit (the best restart)."""

    loglik_trace: tuple[float, ...]
    iterations: int
    converged: bool
    bic: float
    restarts_tried: int
    best_restart: int


@dataclass(frozen=True)
class EmConfig:
    """EM settings: model size, stopping rule, restarts, master seed."""

    n_clusters: int = 1
    n_regimes: int | tuple[int, ...] = 1
    degree: int = 0
    max_iter: int = 200
    tol: float = 1e-6
    n_restarts: int = 5
    seed: int = 0
    irls_max_iter: int = 50

    def __post_init__(self):
        if self.n_clusters < 1:
            raise ValueError("need at least one cluster")
        if any(r < 1 for r in self.regimes()):
            raise ValueError("need at least one regime per cluster")
        if self.degree < 0:
            raise ValueError("degree must be >= 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.n_restarts < 1:
            raise ValueError("need at least one restart")

    def regimes(self) -> tuple[int, ...]:
        if isinstance(self.n_regimes, int):
            return (self.n_regimes,) * self.n_clusters
        regs = tuple(int(r) for r in self.n_regimes)
        if len(regs) != self.n_clusters:
            raise ValueError("n_regimes tuple must have one entry per cluster")
        return regs


# ---------------------------------------------------------------------------
# Density evaluation
# ---------------------------------------------------------------------------


def _check_design(design: DesignMatrix, params: MixRhlpParams | RhlpParams) -> None:
    d = design.n_cols
    clusters = params.clusters if isinstance(params, MixRhlpParams) else (params,)
    for c in clusters:
        if c.coeffs.shape[1] != d:
            raise ValueError(
                f"design has {d} columns but coefficients expect {c.coeffs.shape[1]}"
            )


def _regime_groups(clusters, indices) -> list[list[int]]:
    """The given cluster indices grouped by regime count, each group in
    index order; one group unless the regime counts are ragged."""
    groups: dict[int, list[int]] = {}
    for k in indices:
        groups.setdefault(clusters[k].n_regimes, []).append(k)
    return list(groups.values())


def _regime_kernel(
    clusters, values: np.ndarray, design: DesignMatrix, want_resp: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """(G, n) per-curve log-likelihoods under G clusters that share one
    regime count R; with ``want_resp``, also their (G, R, n, m) regime
    responsibilities.

    One (G, R, n, m) buffer takes log pi_r(t_j) + log N(x_ij; mean_jr, var_r)
    and is reduced across its R slabs; the responsibilities overwrite it.
    A point at which every regime density underflows to 0 (a curve that
    lies far outside the cluster) gets uniform responsibilities; its
    log-likelihood is -inf, so the cluster's responsibility for the curve
    is 0 and they carry no weight.
    """
    log_pi = log_regime_probabilities(tuple(c.logistic for c in clusters), design.grid)
    means = np.stack([c.coeffs for c in clusters]) @ design.matrix.T  # (G, R, m)
    var = np.stack([c.variances for c in clusters])[:, :, None, None]
    buf = np.empty(means.shape[:2] + values.shape)  # C order: one slab per regime
    np.subtract(values, means[:, :, None, :], out=buf)
    np.square(buf, out=buf)
    buf /= 2.0 * var
    np.subtract(-0.5 * (LOG_2PI + np.log(var)), buf, out=buf)
    buf += log_pi.transpose(0, 2, 1)[:, :, None, :]

    shift = np.maximum.reduce(buf, axis=1)  # (G, n, m)
    shift[~np.isfinite(shift)] = 0.0
    buf -= shift[:, None]
    np.exp(buf, out=buf)
    # explicit normalisation: exp(lp - lse) alone drifts from a unit sum by
    # eps * |lse| when log-densities are huge
    totals = np.add.reduce(buf, axis=1)
    if want_resp:
        empty = totals == 0.0
        with np.errstate(invalid="ignore"):
            buf /= totals[:, None]
        if empty.any():
            np.copyto(buf, 1.0 / buf.shape[1], where=empty[:, None])
    with np.errstate(divide="ignore"):
        point = np.log(totals, out=totals)
    point += shift
    return point.sum(axis=2), (buf if want_resp else None)


def rhlp_loglik_set(
    rhlp: RhlpParams, values: np.ndarray, design: DesignMatrix
) -> np.ndarray:
    """Per-curve log-likelihood under one cluster's density; values is (n, m)."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    _check_design(design, rhlp)
    return _regime_kernel((rhlp,), values, design, False)[0][0]


def rhlp_curve_loglik(rhlp: RhlpParams, curve, design: DesignMatrix) -> float:
    values = curve.values if hasattr(curve, "values") else np.asarray(curve, dtype=float)
    return float(rhlp_loglik_set(rhlp, values, design)[0])


def mixrhlp_loglik_set(
    params: MixRhlpParams, values: np.ndarray, design: DesignMatrix
) -> np.ndarray:
    """Per-curve log-likelihood under the cluster mixture."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    _check_design(design, params)
    per_cluster = np.column_stack(
        [rhlp_loglik_set(c, values, design) for c in params.clusters]
    )
    return logsumexp(np.log(params.weights)[None, :] + per_cluster, axis=1)


def mixrhlp_curve_loglik(params: MixRhlpParams, curve, design: DesignMatrix) -> float:
    values = curve.values if hasattr(curve, "values") else np.asarray(curve, dtype=float)
    return float(mixrhlp_loglik_set(params, values, design)[0])


# ---------------------------------------------------------------------------
# EM steps
# ---------------------------------------------------------------------------


def _e_step_full(
    params: MixRhlpParams, values: np.ndarray, design: DesignMatrix
) -> tuple[Posteriors, float, np.ndarray]:
    """Posteriors, total log-likelihood, and per-curve log-likelihoods."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    _check_design(design, params)
    n = values.shape[0]
    K = params.n_clusters

    per_cluster = np.empty((n, K))
    taus = [None] * K
    for group in _regime_groups(params.clusters, range(K)):
        logliks, resp = _regime_kernel(
            [params.clusters[k] for k in group], values, design, True
        )
        for g, k in enumerate(group):
            per_cluster[:, k] = logliks[g]
            taus[k] = resp[g].transpose(1, 2, 0)  # (n, m, R) view of (R, n, m)

    log_mix = np.log(params.weights)[None, :] + per_cluster
    per_curve = logsumexp(log_mix, axis=1)
    if not np.all(np.isfinite(per_curve)):
        raise NumericalError("curve log-likelihood is not finite; parameters are corrupted")
    shifted = np.exp(log_mix - log_mix.max(axis=1, keepdims=True))
    gamma = shifted / shifted.sum(axis=1, keepdims=True)
    return Posteriors(gamma, tuple(taus)), float(per_curve.sum()), per_curve


def e_step(
    params: MixRhlpParams, values: np.ndarray, design: DesignMatrix
) -> Posteriors:
    """Cluster and regime responsibilities for a set of curves."""
    post, _, _ = _e_step_full(params, values, design)
    return post


def _regime_stats(
    resp: np.ndarray, tau: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(R, m) weighted point masses, sums of x and sums of x^2 per regime:
    products of the (R, n, m) responsibilities with resp, resp * x and
    resp * x^2 over the curves."""
    rx = resp[:, None] * values
    point_w = resp @ tau
    xw = np.einsum("rij,ij->rj", tau, rx)
    x2w = np.einsum("rij,ij->rj", tau, rx * values)
    return point_w, xw, x2w


def _fit_clusters(
    resp: list[np.ndarray],
    taus: list[np.ndarray],
    values: np.ndarray,
    design: DesignMatrix,
    prev: list[RhlpParams],
    floor: float,
    irls_max_iter: int,
) -> list[RhlpParams]:
    """Weighted updates for a stack of G clusters that share one regime
    count, given their (n,) responsibilities ``resp`` and (R, n, m) regime
    responsibilities ``taus``: one regime solve over every regime with
    mass, and one IRLS over the stack."""
    T = design.matrix
    stats = [_regime_stats(r, tau, values) for r, tau in zip(resp, taus)]
    point_w, xw, x2w = (np.stack(s) for s in zip(*stats))  # (G, R, m) each

    coeffs = np.stack([c.coeffs for c in prev])
    variances = np.stack([c.variances for c in prev])
    regime_mass = point_w.sum(axis=2)
    # a regime without mass keeps its previous parameters; zero weight,
    # zero influence
    fit = regime_mass > 1e-12 * np.maximum([r.sum() for r in resp], 1.0)[:, None]
    if fit.any():
        w = point_w[fit]  # (A, m)
        beta = ridge_solve(T.T @ (w[:, :, None] * T), xw[fit] @ T)
        mean = beta @ T.T
        sse = np.sum(x2w[fit] - 2.0 * mean * xw[fit] + mean**2 * w, axis=1)
        coeffs[fit] = beta
        variances[fit] = np.maximum(sse / regime_mass[fit], floor)

    logistic = irls_fit(
        tuple(c.logistic for c in prev),
        design.grid,
        point_w.transpose(0, 2, 1),  # (G, m, R) view of regime-first memory
        max_iter=irls_max_iter,
    )
    return [RhlpParams(*args) for args in zip(logistic, coeffs, variances)]


def _m_step_impl(
    posteriors: Posteriors,
    values: np.ndarray,
    design: DesignMatrix,
    prev: MixRhlpParams,
    floor: float,
    irls_max_iter: int,
    rescue: bool,
    prev_curve_loglik: np.ndarray | None,
) -> tuple[MixRhlpParams, bool]:
    values = np.atleast_2d(np.asarray(values, dtype=float))
    n = values.shape[0]
    gamma = posteriors.cluster_resp
    totals = gamma.sum(axis=0)
    weights = totals / n

    clusters = list(prev.clusters)
    starved = [k for k in range(prev.n_clusters) if totals[k] < _STARVED_FRACTION * n]
    fitted = [k for k in range(prev.n_clusters) if k not in starved]
    for group in _regime_groups(prev.clusters, fitted):
        updated = _fit_clusters(
            [gamma[:, k] for k in group],
            [posteriors.regime_resp[k].transpose(2, 0, 1) for k in group],
            values,
            design,
            [prev.clusters[k] for k in group],
            floor,
            irls_max_iter,
        )
        for k, cluster in zip(group, updated):
            clusters[k] = cluster

    rescued = False
    if rescue and starved:
        if prev_curve_loglik is None:
            prev_curve_loglik = mixrhlp_loglik_set(prev, values, design)
        order = np.argsort(prev_curve_loglik)  # worst fits first
        for slot, k in enumerate(starved):
            if slot >= n:
                break
            worst = values[order[slot] : order[slot] + 1]
            clusters[k] = _init_cluster(worst, design, prev.clusters[k].n_regimes, floor)
            weights[k] = 1.0 / n
            rescued = True

    weights = np.maximum(weights, _WEIGHT_FLOOR)
    weights = weights / weights.sum()
    return MixRhlpParams(weights, tuple(clusters)), rescued


def m_step(
    posteriors: Posteriors,
    values: np.ndarray,
    design: DesignMatrix,
    prev: MixRhlpParams,
    *,
    floor: float | None = None,
    irls_max_iter: int = 50,
) -> MixRhlpParams:
    """One maximization step; starved clusters are re-seeded from the
    worst-fit curve."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if floor is None:
        floor = variance_floor(values)
    params, _ = _m_step_impl(
        posteriors, values, design, prev, floor, irls_max_iter, True, None
    )
    return params


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


def _ols(stacked_design: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    coeffs, *_ = np.linalg.lstsq(stacked_design, y, rcond=None)
    resid = y - stacked_design @ coeffs
    return coeffs, float(np.mean(resid**2))


def _segment_logistic(grid: TimeGrid, segments: list[np.ndarray]) -> LogisticWeights:
    """Weights whose softmax approximates the given contiguous segmentation."""
    R = len(segments)
    if R == 1:
        return LogisticWeights.zeros(1)
    t = grid.points
    slope_gap = _INIT_SLOPE_SCALE * R / grid.span
    bounds = []
    for left, right in zip(segments[:-1], segments[1:]):
        if left.size and right.size:
            bounds.append(0.5 * (t[left[-1]] + t[right[0]]))
        else:
            bounds.append(0.5 * (t[0] + t[-1]))
    raw = np.zeros((R, 2))
    for r in range(R):
        raw[r, 1] = slope_gap * r
    for r in range(R - 2, -1, -1):
        raw[r, 0] = raw[r + 1, 0] + slope_gap * bounds[r]
    return LogisticWeights.gauge_fixed(raw)


def _init_cluster(
    values: np.ndarray, design: DesignMatrix, n_regimes: int, floor: float
) -> RhlpParams:
    """Segment the time axis uniformly and fit one polynomial per segment."""
    T = design.matrix
    m = T.shape[0]
    segments = np.array_split(np.arange(m), n_regimes)
    full_design = np.tile(T, (values.shape[0], 1))
    full_coeffs, full_var = _ols(full_design, values.reshape(-1))

    coeffs = np.empty((n_regimes, T.shape[1]))
    variances = np.empty(n_regimes)
    for r, seg in enumerate(segments):
        if seg.size == 0:
            coeffs[r], variances[r] = full_coeffs, max(full_var, floor)
            continue
        seg_design = np.tile(T[seg], (values.shape[0], 1))
        y = values[:, seg].reshape(-1)
        c, v = _ols(seg_design, y)
        coeffs[r] = c
        variances[r] = max(v, floor)
    logistic = _segment_logistic(design.grid, segments)
    return RhlpParams(logistic, coeffs, variances)


def initial_params(
    values: np.ndarray,
    design: DesignMatrix,
    n_clusters: int,
    regimes: tuple[int, ...],
    rng: np.random.Generator,
    floor: float,
) -> MixRhlpParams:
    """Random hard partition of curves, then per-segment fits per cluster."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    n = values.shape[0]
    if n < n_clusters:
        raise ValueError(f"cannot split {n} curves into {n_clusters} clusters")
    perm = rng.permutation(n)
    chunks = np.array_split(perm, n_clusters)
    clusters = tuple(
        _init_cluster(values[np.sort(chunk)], design, regimes[k], floor)
        for k, chunk in enumerate(chunks)
    )
    weights = np.array([chunk.size / n for chunk in chunks])
    return MixRhlpParams(weights, clusters)


# ---------------------------------------------------------------------------
# EM driver
# ---------------------------------------------------------------------------


def _em_once(
    values: np.ndarray,
    design: DesignMatrix,
    config: EmConfig,
    floor: float,
    init: MixRhlpParams | None,
    rng: np.random.Generator | None,
) -> tuple[MixRhlpParams, list[float], bool]:
    if init is None:
        params = initial_params(
            values, design, config.n_clusters, config.regimes(), rng, floor
        )
    else:
        params = init
    post, ll, per_curve = _e_step_full(params, values, design)
    trace = [ll]
    converged = False
    for _ in range(config.max_iter):
        cand, rescued = _m_step_impl(
            post, values, design, params, floor, config.irls_max_iter, True, per_curve
        )
        cand_post, cand_ll, cand_pc = _e_step_full(cand, values, design)
        if rescued and cand_ll < ll - _LOGLIK_SLACK:
            # The rescue hurt the likelihood; fall back to the plain update,
            # which is monotone by construction.
            cand, _ = _m_step_impl(
                post, values, design, params, floor, config.irls_max_iter, False, None
            )
            cand_post, cand_ll, cand_pc = _e_step_full(cand, values, design)
        if cand_ll < ll - _LOGLIK_SLACK:
            # A degraded M-step (a ridge-regularized solve) lowered the
            # likelihood: keep the previous iterate and stop unconverged.
            break
        params, post, per_curve = cand, cand_post, cand_pc
        increment = cand_ll - ll
        ll = cand_ll
        trace.append(ll)
        if increment < config.tol:
            converged = True
            break
    return params, trace, converged


def em_fit(
    values: np.ndarray,
    grid: TimeGrid,
    config: EmConfig,
    *,
    init: MixRhlpParams | None = None,
    workers: int = 1,
) -> tuple[MixRhlpParams, FitReport]:
    """Fit the cluster mixture by multi-restart EM.

    Runs ``config.n_restarts`` independent EM runs from random
    segment-based initializations (or a single run when ``init`` is
    given) and returns the parameters of the restart with the highest
    final log-likelihood, ties broken toward the smaller restart index.
    Raises ``ValueError`` for shapes the data cannot identify: fewer curves
    than clusters, more regimes than grid points, or a degree + 1 above
    the number of grid points.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    n, m = values.shape
    if n < config.n_clusters:
        raise ValueError(
            f"infeasible clustering: {n} curves for {config.n_clusters} clusters"
        )
    if max(config.regimes()) > m:
        raise ValueError(
            f"unidentifiable model: {max(config.regimes())} regimes on {m} grid points"
        )
    if config.degree + 1 > m:
        raise ValueError(
            f"unidentifiable model: degree {config.degree} needs at least "
            f"{config.degree + 1} grid points, got {m}"
        )
    design = vandermonde(grid, config.degree)
    floor = variance_floor(values)

    if init is not None:
        runs = [_em_once(values, design, config, floor, init, None)]
    else:
        def _run(restart: int):
            rng = child_rng(config.seed, restart)
            return _em_once(values, design, config, floor, None, rng)

        runs = map_ordered(_run, range(config.n_restarts), workers=workers)

    best_idx = 0
    for idx in range(1, len(runs)):
        if runs[idx][1][-1] > runs[best_idx][1][-1]:
            best_idx = idx
    params, trace, converged = runs[best_idx]
    report = FitReport(
        loglik_trace=tuple(trace),
        iterations=len(trace) - 1,
        converged=converged,
        bic=bic(params, trace[-1], n, config.degree),
        restarts_tried=len(runs),
        best_restart=best_idx,
    )
    return params, report


# ---------------------------------------------------------------------------
# Summaries and selection
# ---------------------------------------------------------------------------


def mean_curves(
    params: MixRhlpParams, grid: TimeGrid, design: DesignMatrix
) -> np.ndarray:
    """(K, m) cluster mean curves: regime polynomials blended by the
    logistic probabilities."""
    _check_design(design, params)
    out = np.empty((params.n_clusters, len(grid)))
    for k, cluster in enumerate(params.clusters):
        pi = np.exp(log_regime_probabilities(cluster.logistic, grid))
        out[k] = np.sum(pi * (design.matrix @ cluster.coeffs.T), axis=1)
    return out


def n_free_parameters(params: MixRhlpParams, degree: int) -> int:
    """Free parameters: K-1 proportions plus (p+4)R - 2 per cluster."""
    return (params.n_clusters - 1) + sum(
        (degree + 4) * r - 2 for r in params.regimes
    )


def bic(params: MixRhlpParams, loglik: float, n: int, degree: int) -> float:
    """loglik - (free params / 2) * log(n)."""
    if n < 1:
        raise ValueError("sample size must be >= 1")
    return loglik - 0.5 * n_free_parameters(params, degree) * float(np.log(n))


@dataclass(frozen=True)
class SelectionCell:
    """One (K, R) candidate in a model-selection sweep."""

    n_clusters: int
    n_regimes: int
    loglik: float
    n_params: int
    bic: float


def select_model(
    values: np.ndarray,
    grid: TimeGrid,
    cluster_range,
    regime_range,
    degree: int,
    config: EmConfig | None = None,
    *,
    workers: int = 1,
) -> tuple[MixRhlpParams, list[SelectionCell]]:
    """Fit every (K, R) combination and keep the best-BIC parameters.

    R is uniform across clusters during the sweep. Ties are broken toward
    fewer free parameters, then fewer clusters, then fewer regimes.
    """
    cluster_range = sorted(set(int(k) for k in cluster_range))
    regime_range = sorted(set(int(r) for r in regime_range))
    if not cluster_range or not regime_range:
        raise ValueError("cluster and regime ranges must be non-empty")
    base = config if config is not None else EmConfig()

    cells: list[SelectionCell] = []
    best: tuple | None = None
    best_params = None
    for K in cluster_range:
        for R in regime_range:
            cfg = replace(
                base,
                n_clusters=K,
                n_regimes=R,
                degree=degree,
                seed=subseed(base.seed, K, R),
            )
            params, report = em_fit(values, grid, cfg, workers=workers)
            cell = SelectionCell(
                n_clusters=K,
                n_regimes=R,
                loglik=report.loglik_trace[-1],
                n_params=n_free_parameters(params, degree),
                bic=report.bic,
            )
            cells.append(cell)
            key = (-cell.bic, cell.n_params, K, R)
            if best is None or key < best:
                best = key
                best_params = params
    return best_params, cells


# ---------------------------------------------------------------------------
# Serialization: versioned JSON document, bit-exact round trip
# ---------------------------------------------------------------------------


def params_to_dict(params: MixRhlpParams) -> dict:
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "K": params.n_clusters,
        "R": list(params.regimes),
        "p": params.degree,
        "alphas": [float(w) for w in params.weights],
        "clusters": [
            {
                "logistic_weights": [[float(v) for v in row] for row in c.logistic.coef],
                "betas": [[float(v) for v in row] for row in c.coeffs],
                "variances": [float(v) for v in c.variances],
            }
            for c in params.clusters
        ],
    }


def params_from_dict(doc: dict) -> MixRhlpParams:
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise DataError(
            f"unsupported model format version: {doc.get('format_version')!r}"
        )
    try:
        clusters = tuple(
            RhlpParams(
                LogisticWeights(np.array(c["logistic_weights"], dtype=float)),
                np.array(c["betas"], dtype=float),
                np.array(c["variances"], dtype=float),
            )
            for c in doc["clusters"]
        )
        params = MixRhlpParams(np.array(doc["alphas"], dtype=float), clusters)
    except (KeyError, ValueError) as exc:
        raise DataError(f"malformed model document: {exc}") from exc
    if params.regimes != tuple(doc.get("R", [])) or params.n_clusters != doc.get("K"):
        raise DataError("model document shape fields disagree with parameter arrays")
    return params
