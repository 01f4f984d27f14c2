"""Baseline functional models: regression mixtures, and their one-cluster
case, the single regressions of FLDA.

A regression mixture is the one-regime case of the MixRHLP model: K
clusters with curve-level responsibilities, fitted by the EM driver of
``mixrhlp`` (``_ascend`` and ``_fit_restarts``) on its E- and M-step,
from random starts that are each one M-step from the hard
responsibilities of a random partition. At R=1 the kernel evaluates each
curve's density in closed form, the statistics are the cluster totals,
gamma' x and gamma' x^2, and the M-step leaves no logistic problem. A
single regression is the mixture at K=1: its one start, from all curves,
is least squares over all points of all curves with one noise variance,
and the one EM map that follows confirms it. Both work on polynomial and
B-spline designs.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .core import DesignMatrix, variance_floor
from .mixrhlp import (
    EmConfig,
    FitReport,
    MixRhlpParams,
    _e_step_full,
    _EmState,
    _fit_restarts,
    _m_step_impl,
    _random_partition,
    _sufficient_stats,
    _unpack,
)

#: The M-step of a regression mixture's EM iterations: ``_e_step_full`` is
#: imported and this named apart, so that the benchmark's tracer counts
#: them apart from those of MixRHLP fits.
_mixture_m_step = _m_step_impl


def _mixture_start(
    values: np.ndarray, design: DesignMatrix, n_clusters: int, floor: float, rng
) -> _EmState:
    """A random start: one M-step from the hard responsibilities of a
    random partition, a least-squares fit per part."""
    parts, _ = _random_partition(values.shape[0], n_clusters, rng)
    gamma = np.zeros((values.shape[0], n_clusters))
    for k, part in enumerate(parts):
        gamma[part, k] = 1.0
    K, d = n_clusters, design.n_cols
    arrays = (np.zeros((K, 1, d)),), (np.ones((K, 1)),), (np.zeros((K, 1, 2)),)
    blank = _EmState(np.full(K, 1.0 / K), (tuple(range(K)),), *arrays)
    stats = _sufficient_stats(gamma, blank.groups, [None], values)
    return _m_step_impl(stats, values, design, blank, floor, None, False, [])[0]


def fit_regression_mixture(
    values: np.ndarray,
    design: DesignMatrix,
    config: EmConfig,
    *,
    init: MixRhlpParams | None = None,
) -> tuple[MixRhlpParams, FitReport]:
    """Curve-level mixture-of-regressions EM with multi-restart best-of.

    ``config.n_clusters`` is the number of components, and at 1 the fit is
    a single regression, from one start; the regime and degree fields of
    the config are ignored (the design fixes the basis). ``init``, when
    given, must hold one regime per cluster; else ``ValueError``, as for
    the shapes that ``mixrhlp._fit_restarts`` rejects: fewer curves than
    clusters, more design columns than grid points, or an ``init`` whose
    coefficients do not fit the design.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if init is not None and any(r != 1 for r in init.regimes):
        raise ValueError(f"init must hold one regime per cluster, got {init.regimes}")
    floor = variance_floor(values)
    return _fit_restarts(
        _e_step_full,
        _mixture_m_step,
        lambda state, trace, stop: _unpack(state),
        lambda rng: _mixture_start(values, design, config.n_clusters, floor, rng),
        init,
        values,
        design,
        replace(config, n_regimes=1),
        floor,
    )
