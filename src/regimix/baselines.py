"""Baseline functional models: regression mixtures, and their one-cluster
case, the single regressions of FLDA.

A regression mixture is the one-regime case of the MixRHLP model: K
clusters with curve-level responsibilities, fitted by the EM driver of
``mixrhlp`` (``_ascend`` and ``_fit_restarts``) on its E- and M-step,
from its random starts. At R=1 the kernel evaluates each curve's density
in closed form, the statistics are the cluster totals, gamma' x and
gamma' x^2, the M-step projects each cluster's weighted mean curve onto
the design and leaves no logistic problem, and a start projects the mean
curve of each part of a random partition. A single regression is the
mixture at K=1: its one start, from all curves, is least squares over
all points of all curves, and the one EM map that follows confirms it.
Both work on polynomial and B-spline designs.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .core import DesignMatrix
from .mixrhlp import (
    EmConfig,
    FitReport,
    MixRhlpParams,
    _e_step_full,
    _fit_restarts,
    _m_step_impl,
    _unpack,
)

#: The M-step of a regression mixture's EM iterations: ``_e_step_full`` is
#: imported and this named apart, so that the benchmark's tracer counts
#: them apart from those of MixRHLP fits.
_mixture_m_step = _m_step_impl


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
    the inputs that ``mixrhlp._fit_restarts`` rejects: values that are not
    finite or too large to square and sum, fewer curves than clusters,
    more design columns than grid points, or an ``init`` whose
    coefficients do not fit the design.
    """
    if init is not None and any(r != 1 for r in init.regimes):
        raise ValueError(f"init must hold one regime per cluster, got {init.regimes}")
    return _fit_restarts(
        _e_step_full,
        _mixture_m_step,
        lambda state, trace, stop: _unpack(state),
        init,
        values,
        design,
        replace(config, n_regimes=1),
    )
