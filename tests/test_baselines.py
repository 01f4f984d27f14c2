import math

import mpmath as mp
import numpy as np
import pytest

from oracles import explicit_wls_beta, mp_gauss
from regimix import baselines
from regimix.baselines import (
    RegressionMixtureParams,
    SingleRegressionParams,
    fit_regression_mixture,
    fit_single_regression,
    mixture_responsibilities,
    regression_mixture_curve_loglik,
    single_regression_curve_loglik,
)
from regimix.core import Curve, TimeGrid, vandermonde
from regimix.logistic import LogisticWeights
from regimix.mixrhlp import EmConfig, MixRhlpParams, RhlpParams, em_fit


def grid_of(*pts):
    return TimeGrid(np.array(pts, dtype=float))


class TestFitSingleRegression:
    def test_constant_curves(self):
        g = grid_of(0.0, 1.0, 2.0)
        design = vandermonde(g, 0)
        fitted = fit_single_regression(np.full((4, 3), 7.5), design)
        assert fitted.coeffs[0] == pytest.approx(7.5, rel=1e-12)
        assert fitted.variance == 1e-10  # clamped to the floor

    def test_exact_line(self):
        g = grid_of(0.0, 1.0, 2.0)
        design = vandermonde(g, 1)
        fitted = fit_single_regression(np.array([[0.0, 1.0, 2.0]]), design)
        np.testing.assert_allclose(fitted.coeffs, [0.0, 1.0], atol=1e-10)
        assert fitted.variance <= 1e-8  # zero residual, clamped to the floor

    def test_matches_explicit_normal_equations(self):
        rng = np.random.default_rng(31)
        g = TimeGrid(np.sort(rng.uniform(0, 3, size=6)))
        design = vandermonde(g, 2)
        values = rng.normal(size=(4, 6))
        fitted = fit_single_regression(values, design)
        beta_ref = explicit_wls_beta(np.ones((4, 6)), values, design.matrix)
        np.testing.assert_allclose(fitted.coeffs, beta_ref, rtol=1e-9)

    def test_underdetermined_rejected(self):
        g = grid_of(0.0, 1.0)
        # fine: 2 points, 2 coefficients
        fit_single_regression(np.array([[1.0, 2.0]]), vandermonde(g, 1))
        with pytest.raises(ValueError):
            fit_single_regression(np.array([[1.0, 2.0]]), vandermonde(g, 2))


class TestSingleRegressionLoglik:
    def test_zero_residuals(self):
        g = grid_of(0.0, 1.0)
        design = vandermonde(g, 0)
        params = SingleRegressionParams(np.array([3.0]), 1.0)
        got = single_regression_curve_loglik(params, Curve(np.full(2, 3.0), g), design)
        assert got == pytest.approx(-math.log(2 * math.pi), abs=1e-12)

    def test_variance_scaling(self):
        g = grid_of(0.0, 1.0, 2.0)
        design = vandermonde(g, 0)
        curve = Curve(np.full(3, 1.0), g)
        base = single_regression_curve_loglik(
            SingleRegressionParams(np.array([1.0]), 1.0), curve, design
        )
        scaled = single_regression_curve_loglik(
            SingleRegressionParams(np.array([1.0]), 4.0), curve, design
        )
        assert base - scaled == pytest.approx(3 * math.log(2), rel=1e-12)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(32)
        g = grid_of(0.0, 0.4, 1.7)
        design = vandermonde(g, 1)
        params = SingleRegressionParams(rng.normal(size=2), 0.8)
        values = rng.normal(size=3)
        mean = design.matrix @ params.coeffs
        expected = float(
            mp.fsum(
                mp.log(mp_gauss(values[j], mean[j], 0.8)) for j in range(3)
            )
        )
        got = single_regression_curve_loglik(params, Curve(values, g), design)
        assert got == pytest.approx(expected, rel=1e-12)


class TestRegressionMixtureLoglik:
    def test_single_component_collapse(self):
        rng = np.random.default_rng(33)
        g = grid_of(0.0, 1.0, 2.0)
        design = vandermonde(g, 1)
        comp = SingleRegressionParams(rng.normal(size=2), 1.3)
        mixture = RegressionMixtureParams(np.array([1.0]), (comp,))
        curve = Curve(rng.normal(size=3), g)
        assert regression_mixture_curve_loglik(
            mixture, curve, design
        ) == pytest.approx(
            single_regression_curve_loglik(comp, curve, design), rel=1e-12
        )

    def test_duplicate_components_collapse(self):
        rng = np.random.default_rng(34)
        g = grid_of(0.0, 1.0, 2.0)
        design = vandermonde(g, 1)
        comp = SingleRegressionParams(rng.normal(size=2), 0.9)
        mixture = RegressionMixtureParams(np.array([0.5, 0.5]), (comp, comp))
        curve = Curve(rng.normal(size=3), g)
        assert regression_mixture_curve_loglik(
            mixture, curve, design
        ) == pytest.approx(
            single_regression_curve_loglik(comp, curve, design), rel=1e-12
        )

    def test_matches_linear_domain_brute_force(self):
        rng = np.random.default_rng(35)
        g = grid_of(0.0, 0.6, 1.1)
        design = vandermonde(g, 1)
        comps = tuple(
            SingleRegressionParams(rng.normal(size=2), float(rng.uniform(0.5, 2)))
            for _ in range(2)
        )
        weights = np.array([0.3, 0.7])
        mixture = RegressionMixtureParams(weights, comps)
        values = rng.normal(size=3)
        total = mp.mpf(0)
        for w, comp in zip(weights, comps):
            mean = design.matrix @ comp.coeffs
            dens = mp.mpf(1)
            for j in range(3):
                dens *= mp_gauss(values[j], mean[j], comp.variance)
            total += mp.mpf(float(w)) * dens
        got = regression_mixture_curve_loglik(mixture, Curve(values, g), design)
        assert got == pytest.approx(float(mp.log(total)), rel=1e-10)


class TestFitRegressionMixture:
    def test_single_component_reduces_to_ols(self):
        rng = np.random.default_rng(36)
        g = TimeGrid(np.linspace(0, 1, 10))
        design = vandermonde(g, 1)
        values = rng.normal(size=(5, 10))
        params, _ = fit_regression_mixture(
            values, design, EmConfig(n_clusters=1, n_restarts=1, seed=0)
        )
        direct = fit_single_regression(values, design)
        np.testing.assert_allclose(params.components[0].coeffs, direct.coeffs, rtol=1e-10)
        assert params.components[0].variance == pytest.approx(direct.variance, rel=1e-10)

    def test_recovers_separated_constants(self):
        rng = np.random.default_rng(37)
        g = TimeGrid(np.linspace(0, 1, 20))
        design = vandermonde(g, 0)
        a = 0.0 + 0.5 * rng.normal(size=(12, 20))
        b = 100.0 + 0.5 * rng.normal(size=(6, 20))
        values = np.vstack([a, b])
        params, report = fit_regression_mixture(
            values, design, EmConfig(n_clusters=2, n_restarts=3, seed=1, max_iter=100)
        )
        levels = sorted(float(c.coeffs[0]) for c in params.components)
        assert abs(levels[0] - 0.0) < 0.1
        assert abs(levels[1] - 100.0) < 0.1
        np.testing.assert_allclose(sorted(params.weights), [1 / 3, 2 / 3], atol=0.05)
        assert np.all(np.diff(report.loglik_trace) >= -1e-8)

    def test_responsibilities_match_brute_force(self):
        rng = np.random.default_rng(38)
        g = grid_of(0.0, 0.5, 1.0)
        design = vandermonde(g, 0)
        comps = (
            SingleRegressionParams(np.array([0.0]), 1.0),
            SingleRegressionParams(np.array([1.5]), 0.5),
        )
        mixture = RegressionMixtureParams(np.array([0.4, 0.6]), comps)
        values = rng.normal(size=(3, 3))
        resp = mixture_responsibilities(mixture, values, design)
        for i in range(3):
            dens = []
            for w, comp in zip((0.4, 0.6), comps):
                mean = design.matrix @ comp.coeffs
                d = mp.mpf(1)
                for j in range(3):
                    d *= mp_gauss(values[i, j], mean[j], comp.variance)
                dens.append(mp.mpf(w) * d)
            total = mp.fsum(dens)
            for k in range(2):
                assert resp[i, k] == pytest.approx(float(dens[k] / total), rel=1e-9)

    def test_single_regime_mixrhlp_matches_trace(self):
        # a hidden-process model with one regime per cluster is exactly a
        # regression mixture; identical initialization must give identical
        # likelihood traces
        rng = np.random.default_rng(39)
        g = TimeGrid(np.linspace(0, 1, 15))
        design = vandermonde(g, 1)
        values = np.vstack(
            [
                rng.normal(size=(4, 15)),
                3.0 + rng.normal(size=(4, 15)),
            ]
        )
        comps = (
            SingleRegressionParams(np.array([0.1, 0.0]), 1.0),
            SingleRegressionParams(np.array([2.9, 0.1]), 1.2),
        )
        mix_init = RegressionMixtureParams(np.array([0.5, 0.5]), comps)
        rhlp_init = MixRhlpParams(
            np.array([0.5, 0.5]),
            tuple(
                RhlpParams(
                    LogisticWeights.zeros(1),
                    comp.coeffs[None, :],
                    np.array([comp.variance]),
                )
                for comp in comps
            ),
        )
        cfg = EmConfig(n_clusters=2, n_regimes=1, degree=1, max_iter=40, seed=0,
                       n_restarts=1)
        pm, rm = fit_regression_mixture(values, design, cfg, init=mix_init)
        ph, rh = em_fit(values, g, cfg, init=rhlp_init)
        assert len(rm.loglik_trace) == len(rh.loglik_trace)
        np.testing.assert_allclose(rm.loglik_trace, rh.loglik_trace, atol=1e-8)
        for comp, cluster in zip(pm.components, ph.clusters):
            np.testing.assert_allclose(comp.coeffs, cluster.coeffs[0], atol=1e-8)

    def test_same_seed_same_initial_partition_as_mixrhlp(self):
        # seeded runs share the partition draw, so the R=1 equivalence also
        # holds without explicit initialization
        rng = np.random.default_rng(40)
        g = TimeGrid(np.linspace(0, 1, 12))
        design = vandermonde(g, 0)
        values = rng.normal(size=(6, 12))
        cfg = EmConfig(n_clusters=2, n_regimes=1, degree=0, max_iter=25, seed=5,
                       n_restarts=2)
        pm, rm = fit_regression_mixture(values, design, cfg)
        ph, rh = em_fit(values, g, cfg)
        np.testing.assert_allclose(rm.loglik_trace, rh.loglik_trace, atol=1e-8)

    def test_rescue_that_lowers_likelihood_falls_back(self, monkeypatch):
        # component 1 starts at the pooled fit of every curve, component 2
        # far off with no responsibility. Re-seeding component 2 from the
        # worst-fit curve explains that curve little better and costs every
        # curve weight, so EM must drop the rescue and take the plain update.
        values = np.array([[1.0, -1.0, 1.0, -1.0]] * 9 + [[1.5, -1.5, 1.5, -1.5]])
        var = float(np.mean(values**2))
        design = vandermonde(TimeGrid(np.linspace(0, 1, 4)), 0)
        far = SingleRegressionParams(np.array([1e3]), var)
        init = RegressionMixtureParams(
            np.array([1.0 - 1e-9, 1e-9]), (SingleRegressionParams(np.array([0.0]), var), far)
        )
        real_m_step = baselines._mixture_m_step
        calls = []

        def spy(*args, **kwargs):
            cand, rescued = real_m_step(*args, **kwargs)
            calls.append((args[6] if len(args) > 6 else kwargs.get("rescue", True), rescued))
            return cand, rescued

        monkeypatch.setattr(baselines, "_mixture_m_step", spy)
        cfg = EmConfig(n_clusters=2, max_iter=20, n_restarts=1)
        params, report = fit_regression_mixture(values, design, cfg, init=init)
        assert calls[:2] == [(True, True), (False, False)]
        assert np.all(np.diff(report.loglik_trace) >= 0.0)
        # the plain update keeps the starved component as it was
        np.testing.assert_array_equal(params.components[1].coeffs, far.coeffs)
        assert params.weights[1] < 1e-11

    def test_likelihood_drop_is_not_convergence(self, monkeypatch):
        # an M-step that lowers the likelihood (every mean moved far off from
        # the second M-step on) must not count as convergence: EM keeps the
        # previous iterate and trace and reports no convergence
        rng = np.random.default_rng(41)
        g = TimeGrid(np.linspace(0, 1, 10))
        design = vandermonde(g, 0)
        values = np.vstack([rng.normal(size=(5, 10)), 4.0 + rng.normal(size=(5, 10))])
        real_m_step = baselines._mixture_m_step
        calls = []

        def worse_m_step(*args, **kwargs):
            cand, rescued = real_m_step(*args, **kwargs)
            calls.append(cand)
            if len(calls) == 1:
                return cand, rescued
            far = tuple(
                SingleRegressionParams(c.coeffs + 50.0, c.variance) for c in cand.components
            )
            return RegressionMixtureParams(cand.weights, far), rescued

        monkeypatch.setattr(baselines, "_mixture_m_step", worse_m_step)
        cfg = EmConfig(n_clusters=2, max_iter=20, n_restarts=1, seed=0)
        params, report = fit_regression_mixture(values, design, cfg)
        assert len(calls) >= 2
        assert np.all(np.diff(report.loglik_trace) >= 0.0)
        assert report.iterations == 1
        assert report.converged is False
        np.testing.assert_array_equal(
            [c.coeffs for c in params.components], [c.coeffs for c in calls[0].components]
        )
