"""Baseline functional models: single regressions and regression mixtures.

A single regression models a whole class of curves as one basis-expansion
mean plus homoscedastic Gaussian noise (the least-squares fit over all
points of all curves). A regression mixture models a class as K such
components with curve-level responsibilities, fitted by EM. Both work on
polynomial and B-spline designs; the density grammar matches the
hidden-process models so the classifier layer treats all variants alike.

A regression mixture is the hidden-process mixture with one regime per
cluster: the one ascent loop and restart selection of ``mixrhlp`` fit it,
from this module's initialization, E-step and M-step.
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
from .mixrhlp import (
    _STARVED_FRACTION,
    _WEIGHT_FLOOR,
    EmConfig,
    FitReport,
    _ascend,
    _cluster_posteriors,
    _fit_restarts,
    _mixing_proportions,
    _random_partition,
)


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
        components = tuple(self.components)
        object.__setattr__(self, "weights", _mixing_proportions(self.weights, len(components)))
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
    return _posterior(params, values, design)[0]


def _posterior(
    params: RegressionMixtureParams, values: np.ndarray, design: DesignMatrix
) -> tuple[np.ndarray, float, np.ndarray]:
    """E-step: responsibilities, total and per-curve log-likelihoods."""
    logliks = _component_logliks(params, values, design)
    resp, per_curve = _cluster_posteriors(np.log(params.weights)[None, :] + logliks)
    return resp, float(per_curve.sum()), per_curve


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


def _mixture_em_once(
    values: np.ndarray,
    design: DesignMatrix,
    config: EmConfig,
    floor: float,
    init: RegressionMixtureParams | None,
    rng: np.random.Generator | None,
) -> tuple[RegressionMixtureParams, list[float], bool]:
    if init is None:
        parts, weights = _random_partition(values.shape[0], config.n_clusters, rng)
        components = [fit_single_regression(values[p], design, floor=floor) for p in parts]
        init = RegressionMixtureParams(weights, tuple(components))
    return _ascend(
        lambda params, slot: _posterior(params, values, design),  # no workspace
        lambda resp, params, rescue, per_curve: _mixture_m_step(
            resp, values, design, params, floor, per_curve, rescue
        ),
        init,
        config,
    )


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
    starved = [k for k in range(prev.n_components) if totals[k] < _STARVED_FRACTION * n]
    components = [
        comp if k in starved else _fit_component(resp[:, k], values, design, floor)
        for k, comp in enumerate(prev.components)
    ]

    rescued = rescue and bool(starved)
    if rescued:
        if prev_curve_loglik is None:
            prev_curve_loglik = regression_mixture_loglik_set(prev, values, design)
        for k, i in zip(starved, np.argsort(prev_curve_loglik)):  # worst fits first
            components[k] = fit_single_regression(values[i : i + 1], design, floor=floor)
            weights[k] = 1.0 / n

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
    floor = variance_floor(values)
    return _fit_restarts(
        lambda start, rng: _mixture_em_once(values, design, config, floor, start, rng),
        init,
        config,
        workers,
        values.shape[0],
        regression_mixture_n_params,
    )
