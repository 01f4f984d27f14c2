"""Baseline functional models: single regressions and regression mixtures.

Both are the one-regime case of the MixRHLP model and run its E- and
M-step, so the classifier treats all variants alike. A single regression
is one M-step from one cluster that holds every curve: least squares over
all points of all curves, with one noise variance. A regression mixture
has K clusters with curve-level responsibilities, fitted by the EM driver
of ``mixrhlp`` (``_ascend`` and ``_fit_restarts``) from random starts
that are each one M-step from the hard responsibilities of a random
partition. At R=1 the kernel evaluates each curve's density in closed
form, the statistics are the cluster totals, gamma' x and gamma' x^2,
and the M-step leaves no logistic problem. Both work on polynomial and
B-spline designs.
"""

from __future__ import annotations

import numpy as np

from .core import DesignMatrix, variance_floor
from .mixrhlp import (
    EmConfig,
    FitReport,
    MixRhlpParams,
    _check_design,
    _e_step_full,
    _EmState,
    _fit_restarts,
    _m_step_impl,
    _pack,
    _random_partition,
    _sufficient_stats,
    _unpack,
)

#: The M-step of a regression mixture's EM iterations: ``_e_step_full`` is
#: imported and this named apart, so that the benchmark's tracer counts
#: them apart from those of MixRHLP fits.
_mixture_m_step = _m_step_impl


def _check_points(n_curves: int, design: DesignMatrix) -> None:
    points = n_curves * len(design.grid)
    if points < design.n_cols:
        raise ValueError(f"{points} points cannot support {design.n_cols} coefficients")


def _hard_fit(
    gamma: np.ndarray, values: np.ndarray, design: DesignMatrix, floor: float
) -> _EmState:
    """The one-regime iterate of one M-step from the hard (n, K)
    responsibilities ``gamma``, each column one part of the curves."""
    K, d = gamma.shape[1], design.n_cols
    arrays = (np.zeros((K, 1, d)),), (np.ones((K, 1)),), (np.zeros((K, 1, 2)),)
    blank = _EmState(np.full(K, 1.0 / K), (tuple(range(K)),), *arrays)
    stats = _sufficient_stats(gamma, blank.groups, [None], values)
    return _m_step_impl(stats, values, design, blank, floor, None, False, [])[0]


def fit_single_regression(values: np.ndarray, design: DesignMatrix) -> MixRhlpParams:
    """Least squares over all points of all curves stacked: one cluster
    with one regime."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    _check_points(values.shape[0], design)
    gamma = np.ones((values.shape[0], 1))
    return _unpack(_hard_fit(gamma, values, design, variance_floor(values)))


def _mixture_start(
    values: np.ndarray, design: DesignMatrix, n_clusters: int, floor: float, rng
) -> _EmState:
    """A random start: one M-step from the hard responsibilities of a
    random partition, a least-squares fit per part."""
    parts, _ = _random_partition(values.shape[0], n_clusters, rng)
    gamma = np.zeros((values.shape[0], n_clusters))
    for k, part in enumerate(parts):
        gamma[part, k] = 1.0
    return _hard_fit(gamma, values, design, floor)


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
    coefficients as wide as the design; else ``ValueError``. So must the
    smallest part of a random start, n // K curves, hold at least as many
    points as the design has columns.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if init is not None:
        if any(r != 1 for r in init.regimes):
            raise ValueError(f"init must hold one regime per cluster, got {init.regimes}")
        _check_design(design, init)
    if values.shape[0] >= config.n_clusters:  # else _fit_restarts names the clustering
        _check_points(values.shape[0] // config.n_clusters, design)
    floor = variance_floor(values)
    return _fit_restarts(
        _e_step_full,
        _mixture_m_step,
        lambda state, trace, stop: _unpack(state),
        lambda rng: _mixture_start(values, design, config.n_clusters, floor, rng),
        None if init is None else _pack(init),
        values,
        design,
        config,
        floor,
    )
