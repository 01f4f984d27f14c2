"""Baseline functional models: single regressions and regression mixtures.

A single regression models a whole class of curves as one basis-expansion
mean plus homoscedastic Gaussian noise (the least-squares fit over all
points of all curves). A regression mixture models a class as K such
components with curve-level responsibilities, fitted by EM. Both work on
polynomial and B-spline designs; the density grammar matches the
hidden-process models so the classifier layer treats all variants alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    LOG_2PI,
    DesignMatrix,
    logsumexp,
    ridge_solve,
    variance_floor,
)
from .errors import NumericalError
from .mixrhlp import _LOGLIK_SLACK, EmConfig, FitReport
from .parallel import map_ordered
from .rng import child_rng

_STARVED_FRACTION = 1e-10
_WEIGHT_FLOOR = 1e-12


@dataclass(frozen=True)
class SingleRegressionParams:
    """One basis-expansion mean and a shared noise variance."""

    coeffs: np.ndarray  # (d,)
    variance: float

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=float)
        if coeffs.ndim != 1 or not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be a finite vector")
        if not (np.isfinite(self.variance) and self.variance > 0):
            raise ValueError("variance must be positive and finite")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "variance", float(self.variance))


@dataclass(frozen=True)
class RegressionMixtureParams:
    """K regression components with mixing proportions summing to 1."""

    weights: np.ndarray
    components: tuple[SingleRegressionParams, ...]

    def __post_init__(self):
        weights = np.array(self.weights, dtype=float)
        components = tuple(self.components)
        if weights.ndim != 1 or weights.size != len(components) or not components:
            raise ValueError("one mixing proportion per component is required")
        if np.any(weights <= 0) or abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("mixing proportions must be positive and sum to 1")
        weights.flags.writeable = False
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "components", components)

    @property
    def n_components(self) -> int:
        return len(self.components)


def fit_single_regression(
    values: np.ndarray, design: DesignMatrix, *, floor: float | None = None
) -> SingleRegressionParams:
    """Least squares over all points of all curves stacked."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    n, m = values.shape
    d = design.n_cols
    if n * m < d:
        raise ValueError(f"{n * m} points cannot support {d} coefficients")
    if floor is None:
        floor = variance_floor(values)
    T = design.matrix
    gram = n * (T.T @ T)
    rhs = T.T @ values.sum(axis=0)
    coeffs = ridge_solve(gram, rhs)
    resid = values - (T @ coeffs)[None, :]
    return SingleRegressionParams(coeffs, max(float(np.mean(resid**2)), floor))


def _component_logliks(
    params: RegressionMixtureParams, values: np.ndarray, design: DesignMatrix
) -> np.ndarray:
    """(n, K) per-curve log-likelihoods under each component."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    m = values.shape[1]
    out = np.empty((values.shape[0], params.n_components))
    for k, comp in enumerate(params.components):
        mean = design.matrix @ comp.coeffs
        sq = np.sum((values - mean[None, :]) ** 2, axis=1)
        out[:, k] = -0.5 * m * (LOG_2PI + np.log(comp.variance)) - sq / (
            2.0 * comp.variance
        )
    return out


def single_regression_loglik_set(
    params: SingleRegressionParams, values: np.ndarray, design: DesignMatrix
) -> np.ndarray:
    values = np.atleast_2d(np.asarray(values, dtype=float))
    mixture = RegressionMixtureParams(np.array([1.0]), (params,))
    return _component_logliks(mixture, values, design)[:, 0]


def single_regression_curve_loglik(
    params: SingleRegressionParams, curve, design: DesignMatrix
) -> float:
    values = curve.values if hasattr(curve, "values") else np.asarray(curve, dtype=float)
    return float(single_regression_loglik_set(params, values, design)[0])


def regression_mixture_loglik_set(
    params: RegressionMixtureParams, values: np.ndarray, design: DesignMatrix
) -> np.ndarray:
    logliks = _component_logliks(params, values, design)
    return logsumexp(np.log(params.weights)[None, :] + logliks, axis=1)


def regression_mixture_curve_loglik(
    params: RegressionMixtureParams, curve, design: DesignMatrix
) -> float:
    values = curve.values if hasattr(curve, "values") else np.asarray(curve, dtype=float)
    return float(regression_mixture_loglik_set(params, values, design)[0])


def mixture_responsibilities(
    params: RegressionMixtureParams, values: np.ndarray, design: DesignMatrix
) -> np.ndarray:
    """(n, K) posterior component probabilities per curve."""
    logliks = _component_logliks(params, values, design)
    log_mix = np.log(params.weights)[None, :] + logliks
    per_curve = logsumexp(log_mix, axis=1)
    if not np.all(np.isfinite(per_curve)):
        raise NumericalError("curve log-likelihood is not finite")
    shifted = np.exp(log_mix - log_mix.max(axis=1, keepdims=True))
    return shifted / shifted.sum(axis=1, keepdims=True)


def regression_mixture_n_params(params: RegressionMixtureParams) -> int:
    d = params.components[0].coeffs.size
    return (params.n_components - 1) + params.n_components * (d + 1)


def _fit_component(
    resp_k: np.ndarray,
    values: np.ndarray,
    design: DesignMatrix,
    floor: float,
) -> SingleRegressionParams:
    T = design.matrix
    total = float(resp_k.sum())
    gram = total * (T.T @ T)
    rhs = T.T @ (resp_k @ values)
    coeffs = ridge_solve(gram, rhs)
    resid = values - (T @ coeffs)[None, :]
    sse = float(resp_k @ np.sum(resid**2, axis=1))
    m = values.shape[1]
    return SingleRegressionParams(coeffs, max(sse / (m * total), floor))


def _initial_mixture(
    values: np.ndarray,
    design: DesignMatrix,
    n_components: int,
    rng: np.random.Generator,
    floor: float,
) -> RegressionMixtureParams:
    n = values.shape[0]
    perm = rng.permutation(n)
    chunks = np.array_split(perm, n_components)
    components = tuple(
        fit_single_regression(values[np.sort(chunk)], design, floor=floor)
        for chunk in chunks
    )
    weights = np.array([chunk.size / n for chunk in chunks])
    return RegressionMixtureParams(weights, components)


def _mixture_em_once(
    values: np.ndarray,
    design: DesignMatrix,
    config: EmConfig,
    floor: float,
    init: RegressionMixtureParams | None,
    rng: np.random.Generator | None,
) -> tuple[RegressionMixtureParams, list[float], bool]:
    n = values.shape[0]
    params = (
        init
        if init is not None
        else _initial_mixture(values, design, config.n_clusters, rng, floor)
    )

    def _posterior(p):
        logliks = _component_logliks(p, values, design)
        log_mix = np.log(p.weights)[None, :] + logliks
        per_curve = logsumexp(log_mix, axis=1)
        if not np.all(np.isfinite(per_curve)):
            raise NumericalError("curve log-likelihood is not finite")
        shifted = np.exp(log_mix - log_mix.max(axis=1, keepdims=True))
        resp = shifted / shifted.sum(axis=1, keepdims=True)
        return resp, float(per_curve.sum()), per_curve

    resp, ll, per_curve = _posterior(params)
    trace = [ll]
    converged = False
    for _ in range(config.max_iter):
        cand, rescued = _mixture_m_step(resp, values, design, params, floor, per_curve)
        cand_resp, cand_ll, cand_pc = _posterior(cand)
        if rescued and cand_ll < ll - _LOGLIK_SLACK:
            cand, _ = _mixture_m_step(resp, values, design, params, floor, None,
                                      rescue=False)
            cand_resp, cand_ll, cand_pc = _posterior(cand)
        if cand_ll < ll - _LOGLIK_SLACK:
            # A degraded M-step lowered the likelihood: keep the previous
            # iterate and stop unconverged.
            break
        params, resp, per_curve = cand, cand_resp, cand_pc
        increment = cand_ll - ll
        ll = cand_ll
        trace.append(ll)
        if increment < config.tol:
            converged = True
            break
    return params, trace, converged


def _mixture_m_step(
    resp: np.ndarray,
    values: np.ndarray,
    design: DesignMatrix,
    prev: RegressionMixtureParams,
    floor: float,
    prev_curve_loglik: np.ndarray | None,
    rescue: bool = True,
) -> tuple[RegressionMixtureParams, bool]:
    n = values.shape[0]
    totals = resp.sum(axis=0)
    weights = totals / n
    components = []
    starved = []
    for k, prev_comp in enumerate(prev.components):
        if totals[k] < _STARVED_FRACTION * n:
            starved.append(k)
            components.append(prev_comp)
            continue
        components.append(_fit_component(resp[:, k], values, design, floor))

    rescued = False
    if rescue and starved:
        if prev_curve_loglik is None:
            prev_curve_loglik = regression_mixture_loglik_set(prev, values, design)
        order = np.argsort(prev_curve_loglik)
        for slot, k in enumerate(starved):
            if slot >= n:
                break
            worst = values[order[slot] : order[slot] + 1]
            components[k] = fit_single_regression(worst, design, floor=floor)
            weights[k] = 1.0 / n
            rescued = True

    weights = np.maximum(weights, _WEIGHT_FLOOR)
    weights = weights / weights.sum()
    return RegressionMixtureParams(weights, tuple(components)), rescued


def fit_regression_mixture(
    values: np.ndarray,
    design: DesignMatrix,
    config: EmConfig,
    *,
    init: RegressionMixtureParams | None = None,
    workers: int = 1,
) -> tuple[RegressionMixtureParams, FitReport]:
    """Curve-level mixture-of-regressions EM with multi-restart best-of.

    ``config.n_clusters`` is the number of components; the regime and
    degree fields of the config are ignored (the design fixes the basis).
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    n = values.shape[0]
    if n < config.n_clusters:
        raise ValueError(
            f"infeasible clustering: {n} curves for {config.n_clusters} components"
        )
    floor = variance_floor(values)

    if init is not None:
        runs = [_mixture_em_once(values, design, config, floor, init, None)]
    else:
        def _run(restart: int):
            rng = child_rng(config.seed, restart)
            return _mixture_em_once(values, design, config, floor, None, rng)

        runs = map_ordered(_run, range(config.n_restarts), workers=workers)

    best_idx = 0
    for idx in range(1, len(runs)):
        if runs[idx][1][-1] > runs[best_idx][1][-1]:
            best_idx = idx
    params, trace, converged = runs[best_idx]
    nu = regression_mixture_n_params(params)
    report = FitReport(
        loglik_trace=tuple(trace),
        iterations=len(trace) - 1,
        converged=converged,
        bic=trace[-1] - 0.5 * nu * float(np.log(n)),
        restarts_tried=len(runs),
        best_restart=best_idx,
    )
    return params, report
