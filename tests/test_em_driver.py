"""The EM driver shared by both mixture families, on degenerate shapes.

``mixrhlp.em_fit`` and ``baselines.fit_regression_mixture`` run one ascent
loop and one restart selection. On any small shape, including constant
curves, more clusters than curves, more regimes than grid points and
more coefficients than points, each call either raises ``ValueError`` or
returns a finite fit whose log-likelihood trace never falls.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regimix.baselines import fit_regression_mixture
from regimix.core import TimeGrid, vandermonde
from regimix.mixrhlp import EmConfig, em_fit

shapes = st.fixed_dictionaries(
    {
        "n": st.integers(1, 6),
        "m": st.integers(2, 5),
        "n_clusters": st.integers(1, 4),
        "n_regimes": st.integers(1, 4),
        "degree": st.integers(0, 4),
        "constant": st.booleans(),
        "seed": st.integers(0, 2**16),
    }
)


def _curves(shape):
    rng = np.random.default_rng(shape["seed"])
    if shape["constant"]:
        return np.full((shape["n"], shape["m"]), rng.normal())
    return rng.normal(size=(shape["n"], shape["m"]))


def _config(shape):
    return EmConfig(
        n_clusters=shape["n_clusters"],
        n_regimes=shape["n_regimes"],
        degree=shape["degree"],
        max_iter=15,
        n_restarts=2,
        seed=shape["seed"],
    )


def _check_fit(arrays, report):
    trace = np.array(report.loglik_trace)
    assert np.all(np.isfinite(trace))
    assert np.all(np.diff(trace) >= -1e-8)
    assert report.iterations == trace.size - 1
    for arr in arrays:
        assert np.all(np.isfinite(arr))


@settings(max_examples=40, deadline=None)
@given(shapes)
def test_mixrhlp_fit_is_finite_and_monotone_or_rejected(shape):
    grid = TimeGrid(np.linspace(0.0, 1.0, shape["m"]))
    try:
        params, report = em_fit(_curves(shape), grid, _config(shape))
    except ValueError:
        return
    arrays = [params.weights]
    for c in params.clusters:
        arrays += [c.coeffs, c.variances, c.logistic.coef]
    _check_fit(arrays, report)


@settings(max_examples=40, deadline=None)
@given(shapes)
def test_regression_mixture_fit_is_finite_and_monotone_or_rejected(shape):
    design = vandermonde(TimeGrid(np.linspace(0.0, 1.0, shape["m"])), shape["degree"])
    try:
        params, report = fit_regression_mixture(_curves(shape), design, _config(shape))
    except ValueError:
        return
    assert set(params.regimes) == {1}
    arrays = [params.weights]
    for c in params.clusters:
        arrays += [c.coeffs, c.variances]
    _check_fit(arrays, report)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e300], ids=["nan", "inf", "huge"])
@pytest.mark.parametrize("family", ["mixrhlp", "regression"])
def test_values_that_cannot_be_fitted_rejected_before_any_warning(family, bad):
    # the values are checked once, where both families enter the driver,
    # before any arithmetic on them can warn or fail inside the fit
    grid = TimeGrid(np.linspace(0.0, 1.0, 6))
    values = np.random.default_rng(45).normal(size=(8, 6))
    values[3, 2] = bad
    cfg = EmConfig(n_clusters=2, n_regimes=2, degree=1, max_iter=10, n_restarts=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="values"):
            if family == "mixrhlp":
                em_fit(values, grid, cfg)
            else:
                fit_regression_mixture(values, vandermonde(grid, 1), cfg)
