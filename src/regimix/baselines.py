"""Baseline functional models: single regressions and regression mixtures.

Both fit a ``MixRhlpParams`` with one regime per cluster, so the
classifier treats all variants alike. A single regression is one cluster:
least squares over all points of all curves, with one noise variance. A
regression mixture has K clusters with curve-level responsibilities,
fitted by EM. Both work on polynomial and B-spline designs.

The one ascent loop and restart selection of ``mixrhlp`` fit a regression
mixture, from this module's initialization, E-step and M-step, with all
restarts in lockstep; the M-step leaves no logistic problems. The E-step
evaluates the one-regime density in closed form, at a fraction of the
cost of the general (G, R, n, m) kernel. A restart carries plain arrays,
the (K,) weights, (K, d) coefficients and (K,) variances, and builds its
``MixRhlpParams`` once, at the end.
"""

from __future__ import annotations

import numpy as np

from .core import LOG_2PI, DesignMatrix, ridge_solve, variance_floor
from .logistic import LogisticWeights
from .mixrhlp import (
    _STARVED_FRACTION,
    _WEIGHT_FLOOR,
    EmConfig,
    FitReport,
    MixRhlpParams,
    RhlpParams,
    _ascend,
    _check_design,
    _cluster_posteriors,
    _fit_restarts,
    _random_partition,
)


def _one_regime_params(weights, coeffs, variances) -> MixRhlpParams:
    """The mixture with one regime per cluster, from (K,) weights, (K, d)
    coefficients and (K,) variances."""
    clusters = tuple(
        RhlpParams(LogisticWeights.zeros(1), [c], [v]) for c, v in zip(coeffs, variances)
    )
    return MixRhlpParams(weights, clusters)


def _least_squares(
    values: np.ndarray, design: DesignMatrix, floor: float
) -> tuple[np.ndarray, float]:
    """Coefficients and noise variance of one regression over all points
    of all curves stacked."""
    n, m = values.shape
    d = design.n_cols
    if n * m < d:
        raise ValueError(f"{n * m} points cannot support {d} coefficients")
    T = design.matrix
    gram = n * (T.T @ T)
    rhs = T.T @ values.sum(axis=0)
    coeffs = ridge_solve(gram, rhs)
    resid = values - (T @ coeffs)[None, :]
    return coeffs, max(float(np.mean(resid**2)), floor)


def fit_single_regression(values: np.ndarray, design: DesignMatrix) -> MixRhlpParams:
    """Least squares over all points of all curves stacked: one cluster
    with one regime."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    coeffs, variance = _least_squares(values, design, variance_floor(values))
    return _one_regime_params(np.ones(1), coeffs[None, :], np.array([variance]))


def _posterior(
    state, values: np.ndarray, design: DesignMatrix
) -> tuple[np.ndarray, float, np.ndarray]:
    """E-step on the (weights, coefficients, variances) state:
    responsibilities, total and per-curve log-likelihoods."""
    weights, coeffs, variances = state
    m = values.shape[1]
    logliks = np.empty((values.shape[0], weights.size))  # per curve and component
    for k, (beta, var) in enumerate(zip(coeffs, variances)):
        mean = design.matrix @ beta
        sq = np.sum((values - mean[None, :]) ** 2, axis=1)
        logliks[:, k] = -0.5 * m * (LOG_2PI + np.log(var)) - sq / (2.0 * var)
    resp, per_curve = _cluster_posteriors(np.log(weights)[None, :] + logliks)
    return resp, float(per_curve.sum()), per_curve


def _fit_component(
    resp_k: np.ndarray,
    values: np.ndarray,
    design: DesignMatrix,
    floor: float,
) -> tuple[np.ndarray, float]:
    T = design.matrix
    total = float(resp_k.sum())
    gram = total * (T.T @ T)
    rhs = T.T @ (resp_k @ values)
    coeffs = ridge_solve(gram, rhs)
    resid = values - (T @ coeffs)[None, :]
    sse = float(resp_k @ np.sum(resid**2, axis=1))
    m = values.shape[1]
    return coeffs, max(sse / (m * total), floor)


def _mixture_state(weights, fits) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (weights, (K, d) coefficients, (K,) variances) state of K
    (coefficients, variance) fits."""
    return weights, np.array([c for c, _ in fits]), np.array([v for _, v in fits])


def _mixture_start(
    values: np.ndarray, design: DesignMatrix, n_clusters: int, floor: float, rng
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A random start: one least-squares fit per part of a random partition."""
    parts, weights = _random_partition(values.shape[0], n_clusters, rng)
    return _mixture_state(weights, [_least_squares(values[p], design, floor) for p in parts])


def _mixture_m_step(
    resp: np.ndarray,
    values: np.ndarray,
    design: DesignMatrix,
    prev: tuple[np.ndarray, np.ndarray, np.ndarray],
    floor: float,
    prev_curve_loglik: np.ndarray,
    rescue: bool = True,
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], bool]:
    n = values.shape[0]
    totals = resp.sum(axis=0)
    weights = totals / n
    coeffs, variances = prev[1].copy(), prev[2].copy()
    starved = [k for k in range(totals.size) if totals[k] < _STARVED_FRACTION * n]
    for k in range(totals.size):
        if k not in starved:
            coeffs[k], variances[k] = _fit_component(resp[:, k], values, design, floor)

    rescued = rescue and bool(starved)
    if rescued:
        for k, i in zip(starved, np.argsort(prev_curve_loglik)):  # worst fits first
            coeffs[k], variances[k] = _least_squares(values[i : i + 1], design, floor)
            weights[k] = 1.0 / n

    weights = np.maximum(weights, _WEIGHT_FLOOR)
    weights = weights / weights.sum()
    return (weights, coeffs, variances), rescued


def fit_regression_mixture(
    values: np.ndarray,
    design: DesignMatrix,
    config: EmConfig,
    *,
    init: MixRhlpParams | None = None,
) -> tuple[MixRhlpParams, FitReport]:
    """Curve-level mixture-of-regressions EM with multi-restart best-of.

    ``config.n_clusters`` is the number of components; the regime and
    degree fields of the config are ignored (the design fixes the basis).
    ``init``, when given, must hold one regime per cluster with
    coefficients as wide as the design; else ``ValueError``.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if init is not None:
        if any(r != 1 for r in init.regimes):
            raise ValueError(f"init must hold one regime per cluster, got {init.regimes}")
        _check_design(design, init)
    floor = variance_floor(values)

    def run(starts):
        runs = _ascend(
            lambda state: _posterior(state, values, design),
            lambda resp, state, rescue, per_curve, pending: _mixture_m_step(
                resp, values, design, state, floor, per_curve, rescue
            ),
            starts,
            config,
        )
        return [(_one_regime_params(*state), trace, conv) for state, trace, conv in runs]

    return _fit_restarts(
        run,
        lambda rng: _mixture_start(values, design, config.n_clusters, floor, rng),
        None if init is None else _mixture_state(
            init.weights, [(c.coeffs[0], c.variances[0]) for c in init.clusters]
        ),
        config,
        values.shape[0],
        design.n_cols - 1,
    )
