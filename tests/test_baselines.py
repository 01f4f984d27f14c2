import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

from oracles import explicit_wls_beta, mp_gauss, mp_projection_means, mp_rhlp_density
from regimix import baselines
from regimix.baselines import fit_regression_mixture
from regimix.core import Basis, Curve, TimeGrid, bspline_basis, design_matrix, vandermonde
from regimix.datagen import WaveformSpec, gen_waveform
from regimix.logistic import LogisticWeights
from regimix import mixrhlp
from regimix.mixrhlp import (
    EmConfig,
    MixRhlpParams,
    RhlpParams,
    e_step,
    em_fit,
    mixrhlp_loglik_set,
    rhlp_loglik_set,
)


def grid_of(*pts):
    return TimeGrid(np.array(pts, dtype=float))


def one_regime(weights, *components):
    """The mixture with one regime per cluster, from (coeffs, variance)
    pairs: the class model of every regression baseline."""
    return MixRhlpParams(
        np.array(weights, dtype=float),
        tuple(
            RhlpParams(LogisticWeights.zeros(1), np.array([coeffs], dtype=float), [variance])
            for coeffs, variance in components
        ),
    )


def coeffs_of(params, k=0):
    return params.clusters[k].coeffs[0]


def variance_of(params, k=0):
    return float(params.clusters[k].variances[0])


def single_regression(values, design):
    """FLDA's class model: the regression mixture at K=1, and its report."""
    return fit_regression_mixture(values, design, EmConfig(n_clusters=1))


class TestFitSingleRegression:
    """A single regression is the regression mixture at K=1: its one start
    is least squares over all points of all curves, and the one EM map
    that follows confirms it."""

    def test_constant_curves(self):
        g = grid_of(0.0, 1.0, 2.0)
        design = vandermonde(g, 0)
        fitted, report = single_regression(np.full((4, 3), 7.5), design)
        assert fitted.regimes == (1,)
        assert coeffs_of(fitted)[0] == pytest.approx(7.5, rel=1e-12)
        assert variance_of(fitted) == 1e-10  # clamped to the floor
        assert report.converged and report.iterations == 1

    def test_exact_line(self):
        g = grid_of(0.0, 1.0, 2.0)
        design = vandermonde(g, 1)
        fitted, _ = single_regression(np.array([[0.0, 1.0, 2.0]]), design)
        np.testing.assert_allclose(coeffs_of(fitted), [0.0, 1.0], atol=1e-10)
        assert variance_of(fitted) <= 1e-8  # zero residual, clamped to the floor

    def test_matches_explicit_normal_equations(self):
        rng = np.random.default_rng(31)
        g = TimeGrid(np.sort(rng.uniform(0, 3, size=6)))
        design = vandermonde(g, 2)
        values = rng.normal(size=(4, 6))
        fitted, report = single_regression(values, design)
        beta_ref = explicit_wls_beta(np.ones((4, 6)), values, design.matrix)
        np.testing.assert_allclose(coeffs_of(fitted), beta_ref, rtol=1e-9)
        residual = values - design.matrix @ beta_ref
        assert variance_of(fitted) == pytest.approx(np.mean(residual**2), rel=1e-9)
        assert report.stop_reason == "tol" and report.iterations == 1

    def test_underdetermined_rejected(self):
        g = grid_of(0.0, 1.0)
        # fine: 2 points, 2 coefficients
        single_regression(np.array([[1.0, 2.0]]), vandermonde(g, 1))
        with pytest.raises(ValueError, match="3 design columns on 2 grid points"):
            single_regression(np.array([[1.0, 2.0]]), vandermonde(g, 2))


class TestSingleRegressionLoglik:
    def test_zero_residuals(self):
        g = grid_of(0.0, 1.0)
        design = vandermonde(g, 0)
        params = one_regime([1.0], ([3.0], 1.0))
        got = mixrhlp_loglik_set(params, Curve(np.full(2, 3.0), g).values, design)[0]
        assert got == pytest.approx(-math.log(2 * math.pi), abs=1e-12)

    def test_variance_scaling(self):
        g = grid_of(0.0, 1.0, 2.0)
        design = vandermonde(g, 0)
        curve = Curve(np.full(3, 1.0), g)
        base = mixrhlp_loglik_set(one_regime([1.0], ([1.0], 1.0)), curve.values, design)[0]
        scaled = mixrhlp_loglik_set(one_regime([1.0], ([1.0], 4.0)), curve.values, design)[0]
        assert base - scaled == pytest.approx(3 * math.log(2), rel=1e-12)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(32)
        g = grid_of(0.0, 0.4, 1.7)
        design = vandermonde(g, 1)
        params = one_regime([1.0], (rng.normal(size=2), 0.8))
        values = rng.normal(size=3)
        mean = design.matrix @ coeffs_of(params)
        expected = float(
            mp.fsum(
                mp.log(mp_gauss(values[j], mean[j], 0.8)) for j in range(3)
            )
        )
        got = mixrhlp_loglik_set(params, Curve(values, g).values, design)[0]
        assert got == pytest.approx(expected, rel=1e-12)


class TestRegressionMixtureLoglik:
    def test_single_component_collapse(self):
        rng = np.random.default_rng(33)
        g = grid_of(0.0, 1.0, 2.0)
        design = vandermonde(g, 1)
        comp = (rng.normal(size=2), 1.3)
        mixture = one_regime([1.0], comp)
        curve = Curve(rng.normal(size=3), g)
        assert mixrhlp_loglik_set(mixture, curve.values, design)[0] == pytest.approx(
            rhlp_loglik_set(mixture.clusters[0], curve.values, design)[0], rel=1e-12
        )

    def test_duplicate_components_collapse(self):
        rng = np.random.default_rng(34)
        g = grid_of(0.0, 1.0, 2.0)
        design = vandermonde(g, 1)
        comp = (rng.normal(size=2), 0.9)
        mixture = one_regime([0.5, 0.5], comp, comp)
        curve = Curve(rng.normal(size=3), g)
        assert mixrhlp_loglik_set(mixture, curve.values, design)[0] == pytest.approx(
            mixrhlp_loglik_set(one_regime([1.0], comp), curve.values, design)[0], rel=1e-12
        )

    def test_matches_linear_domain_brute_force(self):
        rng = np.random.default_rng(35)
        g = grid_of(0.0, 0.6, 1.1)
        design = vandermonde(g, 1)
        comps = tuple(
            (rng.normal(size=2), float(rng.uniform(0.5, 2))) for _ in range(2)
        )
        weights = np.array([0.3, 0.7])
        mixture = one_regime(weights, *comps)
        values = rng.normal(size=3)
        total = mp.mpf(0)
        for w, (coeffs, variance) in zip(weights, comps):
            mean = design.matrix @ coeffs
            dens = mp.mpf(1)
            for j in range(3):
                dens *= mp_gauss(values[j], mean[j], variance)
            total += mp.mpf(float(w)) * dens
        got = mixrhlp_loglik_set(mixture, Curve(values, g).values, design)[0]
        assert got == pytest.approx(float(mp.log(total)), rel=1e-10)


class TestScoringDensity:
    @staticmethod
    def _problem(basis, K):
        rng = np.random.default_rng(42 + K)
        design = design_matrix(TimeGrid(np.linspace(0.0, 20.0, 21)), basis)
        raw = rng.uniform(0.2, 1.0, size=K)
        components = zip(rng.normal(size=(K, design.n_cols)), rng.uniform(0.5, 2, K))
        params = one_regime(raw / raw.sum(), *components)
        values = design.matrix @ rng.normal(size=design.n_cols) + rng.normal(size=(30, 21))
        return params, values, design

    @pytest.mark.parametrize(
        "basis", [Basis.polynomial(3), Basis.bspline(4, 3)], ids=["polynomial", "bspline"]
    )
    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_posterior_matches_scoring_density(self, basis, K):
        # fitting evaluates the one-regime density in closed form for the K
        # clusters at once, scoring one cluster at a time: the same per-curve
        # log-likelihoods, bit for bit
        params, values, design = self._problem(basis, K)
        _, total, per_curve = mixrhlp._e_step_full(mixrhlp._pack(params), values, design)
        np.testing.assert_array_equal(per_curve, mixrhlp_loglik_set(params, values, design))
        assert total == per_curve.sum()

    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_single_regime_statistics_are_those_of_unit_tau(self, K):
        # an R=1 group reads no regime table: its statistics are those of
        # the general formulas given responsibilities of exactly 1
        params, values, design = self._problem(Basis.polynomial(3), K)
        state = mixrhlp._pack(params)
        stats, _, _ = mixrhlp._e_step_full(state, values, design)
        gamma = e_step(params, values, design).cluster_resp
        (sums,) = stats.sums
        assert sums.shape == (3, K, 1, 21)
        for k in range(K):
            want = mixrhlp._regime_stats(gamma[:, k], np.ones((1,) + values.shape), values)
            np.testing.assert_allclose(sums[:, k], np.stack(want), rtol=1e-12, atol=0)

    def test_single_regime_kernel_matches_oracle(self):
        params, values, design = self._problem(Basis.polynomial(3), 2)
        state = mixrhlp._pack(params)
        arrays = (state.coeffs[0], state.variances[0], state.logistic[0])
        logliks, resp = mixrhlp._regime_kernel(*arrays, values[:4], design, True)
        assert resp is None
        for k, cluster in enumerate(params.clusters):
            for i in range(4):
                want = mp.log(mp_rhlp_density(
                    cluster.logistic.coef.tolist(), cluster.coeffs.tolist(),
                    cluster.variances.tolist(), values[i].tolist(),
                    design.matrix.tolist(), design.grid.points.tolist(),
                ))
                assert logliks[k, i] == pytest.approx(float(want), rel=1e-12)


class TestFitRegressionMixture:
    def test_single_component_reduces_to_ols(self):
        rng = np.random.default_rng(36)
        g = TimeGrid(np.linspace(0, 1, 10))
        design = vandermonde(g, 1)
        values = rng.normal(size=(5, 10))
        params, _ = fit_regression_mixture(
            values, design, EmConfig(n_clusters=1, n_restarts=1, seed=0)
        )
        beta_ref = explicit_wls_beta(np.ones((5, 10)), values, design.matrix)
        np.testing.assert_allclose(coeffs_of(params), beta_ref, rtol=1e-10)
        residual = values - design.matrix @ beta_ref
        assert variance_of(params) == pytest.approx(np.mean(residual**2), rel=1e-10)
        np.testing.assert_array_equal(params.weights, [1.0])

    @pytest.mark.parametrize("family", ["regression", "mixrhlp"])
    def test_one_cluster_takes_one_start(self, family):
        # every random start of a one-cluster fit is the one partition of the
        # curves into one part, so the fit takes one start however many
        # restarts are asked for
        rng = np.random.default_rng(43)
        g = TimeGrid(np.linspace(0, 1, 12))
        values = np.vstack([rng.normal(size=(6, 12)), 2.0 + rng.normal(size=(6, 12))])
        fits = {}
        for n_restarts in (1, 5):
            cfg = EmConfig(n_clusters=1, n_regimes=2, degree=1, max_iter=30,
                           n_restarts=n_restarts, seed=3)
            if family == "regression":
                fits[n_restarts] = fit_regression_mixture(values, vandermonde(g, 1), cfg)
            else:
                fits[n_restarts] = em_fit(values, g, cfg)
        (one, one_report), (five, five_report) = fits[1], fits[5]
        assert five_report.restarts_tried == 1
        assert five_report == one_report
        np.testing.assert_array_equal(five.weights, one.weights)
        for c1, c5 in zip(one.clusters, five.clusters, strict=True):
            np.testing.assert_array_equal(c5.coeffs, c1.coeffs)
            np.testing.assert_array_equal(c5.variances, c1.variances)
            np.testing.assert_array_equal(c5.logistic.coef, c1.logistic.coef)

    @pytest.mark.parametrize("K", [1, 2])
    def test_more_design_columns_than_grid_points_rejected(self, K):
        # curves on one grid stack to a design of the rank of the grid's own
        # (m, d) design: at d > m every Gram is singular, however many
        # curves there are (2K curves here hold 4K >= 3 points)
        g = grid_of(0.0, 1.0)
        values = np.random.default_rng(44).normal(size=(2 * K, 2))
        cfg = EmConfig(n_clusters=K, degree=2, n_restarts=1)
        with pytest.raises(ValueError, match="3 design columns on 2 grid points"):
            fit_regression_mixture(values, vandermonde(g, 2), cfg)
        with pytest.raises(ValueError, match="3 design columns on 2 grid points"):
            em_fit(values, g, cfg)

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
        assert params.regimes == (1, 1)
        levels = sorted(float(c.coeffs[0, 0]) for c in params.clusters)
        assert abs(levels[0] - 0.0) < 0.1
        assert abs(levels[1] - 100.0) < 0.1
        np.testing.assert_allclose(sorted(params.weights), [1 / 3, 2 / 3], atol=0.05)
        assert np.all(np.diff(report.loglik_trace) >= -1e-8)

    def test_responsibilities_match_brute_force(self):
        rng = np.random.default_rng(38)
        g = grid_of(0.0, 0.5, 1.0)
        design = vandermonde(g, 0)
        comps = (([0.0], 1.0), ([1.5], 0.5))
        mixture = one_regime([0.4, 0.6], *comps)
        values = rng.normal(size=(3, 3))
        resp = e_step(mixture, values, design).cluster_resp
        for i in range(3):
            dens = []
            for w, (coeffs, variance) in zip((0.4, 0.6), comps):
                mean = design.matrix @ coeffs
                d = mp.mpf(1)
                for j in range(3):
                    d *= mp_gauss(values[i, j], mean[j], variance)
                dens.append(mp.mpf(w) * d)
            total = mp.fsum(dens)
            for k in range(2):
                assert resp[i, k] == pytest.approx(float(dens[k] / total), rel=1e-9)

    @pytest.mark.parametrize("case", ["init", "screened-1", "screened-3"])
    def test_single_regime_mixrhlp_matches_trace(self, case):
        # a hidden-process model with one regime per cluster is a
        # regression mixture, and both run the same start rule, E- and
        # M-step: from one initialization, or from the same seed, they give
        # the same traces, stops and parameters, bit for bit. In the
        # waveform cases the fits run past ``_SCREEN_AT``, where the
        # restart that goes on alone is extrapolated in the same
        # coordinates in both families.
        if case == "init":
            rng = np.random.default_rng(39)
            g = TimeGrid(np.linspace(0, 1, 15))
            design = vandermonde(g, 1)
            values = np.vstack(
                [
                    rng.normal(size=(4, 15)),
                    3.0 + rng.normal(size=(4, 15)),
                ]
            )
            init = one_regime([0.5, 0.5], ([0.1, 0.0], 1.0), ([2.9, 0.1], 1.2))
            cfg = EmConfig(n_clusters=2, n_regimes=1, degree=1, max_iter=40, seed=0,
                           n_restarts=1)
        else:
            data = gen_waveform(WaveformSpec(40), 0)
            values, g, init = data.values[data.labels == 1], data.grid, None
            design = vandermonde(g, 2)
            cfg = EmConfig(n_clusters=3, n_regimes=1, degree=2, max_iter=60, tol=1e-8,
                           seed=0, n_restarts=int(case[-1]))
        pm, rm = fit_regression_mixture(values, design, cfg, init=init)
        ph, rh = em_fit(values, g, cfg, init=init)
        assert rm == rh
        np.testing.assert_array_equal(pm.weights, ph.weights)
        for comp, cluster in zip(pm.clusters, ph.clusters, strict=True):
            np.testing.assert_array_equal(comp.coeffs, cluster.coeffs)
            np.testing.assert_array_equal(comp.variances, cluster.variances)
            np.testing.assert_array_equal(comp.logistic.coef, cluster.logistic.coef)

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
        init = one_regime([1.0 - 1e-9, 1e-9], ([0.0], var), ([1e3], var))
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
        np.testing.assert_array_equal(params.clusters[1].coeffs, init.clusters[1].coeffs)
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
            return cand._replace(coeffs=(cand.coeffs[0] + 50.0,)), rescued

        monkeypatch.setattr(baselines, "_mixture_m_step", worse_m_step)
        cfg = EmConfig(n_clusters=2, max_iter=20, n_restarts=1, seed=0)
        params, report = fit_regression_mixture(values, design, cfg)
        assert len(calls) >= 2
        assert np.all(np.diff(report.loglik_trace) >= 0.0)
        assert report.iterations == 1
        assert report.converged is False
        assert report.stop_reason == "likelihood_drop"
        np.testing.assert_array_equal([c.coeffs for c in params.clusters], calls[0].coeffs[0])

    @pytest.mark.parametrize(
        "init",
        [
            one_regime([0.5, 0.5], ([0.0, 1.0], 1.0), ([1.0, 0.0], 1.0)),
            MixRhlpParams(
                np.array([1.0]),
                (RhlpParams(LogisticWeights.zeros(2), np.zeros((2, 1)), np.ones(2)),),
            ),
        ],
        ids=["too-wide", "two-regimes"],
    )
    def test_init_outside_the_model_rejected(self, init):
        design = vandermonde(TimeGrid(np.linspace(0, 1, 5)), 0)
        cfg = EmConfig(n_clusters=init.n_clusters, n_restarts=1)
        with pytest.raises(ValueError):
            fit_regression_mixture(np.zeros((4, 5)), design, cfg, init=init)


class TestScreening:
    """The regression mixture shares the EM driver, and so its screening:
    after ``_SCREEN_AT`` lockstep iterations only the leading live restart
    goes on, and the others only if it stops without converging."""

    @staticmethod
    def _problem(**kw):
        data = gen_waveform(WaveformSpec(40), 0)
        base = dict(n_clusters=3, max_iter=60, tol=1e-6, n_restarts=3, seed=0)
        return (data.values[data.labels == 1], vandermonde(data.grid, 2),
                EmConfig(**{**base, **kw}))

    @staticmethod
    def _spy_starts(monkeypatch, first=None):
        """Record the packed start (``_EmState``) of each restart; with
        ``first``, restart 0 starts there instead."""
        starts = []
        real_init = mixrhlp.initial_params

        def init_spy(*args):
            starts.append(
                first if first is not None and not starts else mixrhlp._pack(real_init(*args)))
            return mixrhlp._unpack(starts[-1])

        monkeypatch.setattr(mixrhlp, "initial_params", init_spy)
        return starts

    def test_leader_equals_its_own_fit_and_the_others_are_screened(self, monkeypatch):
        values, design, cfg = self._problem()
        starts = self._spy_starts(monkeypatch)
        params, report = fit_regression_mixture(values, design, cfg)
        assert mixrhlp._SCREEN_AT == 20 < cfg.max_iter
        assert len(starts) == len(report.restarts) == 3
        assert report.best_restart == 1
        assert report.iterations > mixrhlp._SCREEN_AT
        monkeypatch.undo()
        single = dataclasses.replace(cfg, n_restarts=1)
        for r, (start, record) in enumerate(zip(starts, report.restarts)):
            init = mixrhlp._unpack(start)
            solo, solo_report = fit_regression_mixture(values, design, single, init=init)
            if r == report.best_restart:
                assert list(report.loglik_trace) == list(solo_report.loglik_trace)
                assert record.stop_reason == solo_report.stop_reason == "tol"
                np.testing.assert_array_equal(params.weights, solo.weights)
                for c1, c2 in zip(params.clusters, solo.clusters, strict=True):
                    np.testing.assert_array_equal(c1.coeffs, c2.coeffs)
                    np.testing.assert_array_equal(c1.variances, c2.variances)
            else:
                assert record.stop_reason == "screened"
                assert record.iterations == mixrhlp._SCREEN_AT
                assert record.loglik == solo_report.loglik_trace[mixrhlp._SCREEN_AT]
            assert solo_report.restarts[0].stop_reason != "screened"

    def test_unconverged_leader_hands_on_to_the_screened(self, monkeypatch):
        # at max_iter 30 the leader, restart 1, stops at the cap even with
        # SQUAREM, so the screened restarts go on, and each ends where
        # plain EM from its start ends; the leader ends where its own fit
        # ends, and wins
        values, design, cfg = self._problem(max_iter=30, tol=1e-8)
        starts = self._spy_starts(monkeypatch)
        params, report = fit_regression_mixture(values, design, cfg)
        monkeypatch.undo()
        single = dataclasses.replace(cfg, n_restarts=1)
        inits = [mixrhlp._unpack(start) for start in starts]
        solos = [fit_regression_mixture(values, design, single, init=init) for init in inits]
        monkeypatch.setattr(mixrhlp, "_SCREEN_AT", cfg.max_iter + 1)
        plain = [fit_regression_mixture(values, design, single, init=init) for init in inits]
        leader = report.restarts[1]
        assert leader == solos[1][1].restarts[0]
        assert leader.extrapolations_accepted > 0
        for r in (0, 2):
            assert report.restarts[r] == plain[r][1].restarts[0]
        assert [r.stop_reason for r in report.restarts] == ["max_iter"] * 3
        assert report.best_restart == 1
        solo, solo_report = solos[1]
        assert list(report.loglik_trace) == list(solo_report.loglik_trace)
        np.testing.assert_array_equal(params.weights, solo.weights)
        for c1, c2 in zip(params.clusters, solo.clusters, strict=True):
            np.testing.assert_array_equal(c1.coeffs, c2.coeffs)
            np.testing.assert_array_equal(c1.variances, c2.variances)

    def test_restart_that_met_tol_early_still_wins(self, monkeypatch):
        values, design, cfg = self._problem()
        converged, _ = fit_regression_mixture(values, design, EmConfig(
            n_clusters=3, max_iter=500, tol=1e-12, n_restarts=1, seed=2))
        self._spy_starts(monkeypatch, first=mixrhlp._pack(converged))
        _, report = fit_regression_mixture(values, design, cfg)
        first, *others = report.restarts
        assert first.stop_reason == "tol" and first.iterations < mixrhlp._SCREEN_AT
        assert "screened" in [r.stop_reason for r in others]
        assert report.best_restart == 0 and report.converged
        assert report.loglik_trace[-1] == first.loglik > max(r.loglik for r in others)

    def test_single_runs_are_not_screened(self):
        values, design, cfg = self._problem(n_restarts=1, max_iter=30, tol=1e-8)
        params, report = fit_regression_mixture(values, design, cfg)
        assert [r.stop_reason for r in report.restarts] == ["max_iter"]
        _, from_init = fit_regression_mixture(values, design, self._problem()[2], init=params)
        assert len(from_init.restarts) == 1
        assert from_init.restarts[0].stop_reason != "screened"

    @pytest.mark.parametrize("start", ["n_restarts", "init"])
    def test_lone_restart_is_extrapolated_to_tol(self, monkeypatch, start):
        # one restart, from a seed or from ``init``, follows plain EM for
        # ``_SCREEN_AT`` iterations and then goes on in SQUAREM cycles, as a
        # MixRHLP restart does; it stops at the first map gaining less than
        # tol, so every earlier increment of its trace is at least tol, and
        # sooner than plain EM from the same start
        values, design, cfg = self._problem(n_restarts=1, max_iter=60, tol=1e-8)
        init = None
        if start == "init":
            init, _ = fit_regression_mixture(
                values, design, dataclasses.replace(cfg, max_iter=5, seed=2))
        _, report = fit_regression_mixture(values, design, cfg, init=init)
        (record,) = report.restarts
        assert record.stop_reason == "tol" and report.converged
        assert record.extrapolations_accepted > 0
        assert mixrhlp._SCREEN_AT < report.iterations < cfg.max_iter
        increments = np.diff(report.loglik_trace)
        assert np.all(increments[:-1] >= cfg.tol) and 0 <= increments[-1] < cfg.tol
        screen = mixrhlp._SCREEN_AT + 1
        monkeypatch.setattr(mixrhlp, "_SCREEN_AT", cfg.max_iter + 1)
        _, plain = fit_regression_mixture(values, design, cfg, init=init)
        assert plain.iterations > report.iterations
        assert plain.restarts[0].extrapolations_accepted == 0
        assert report.loglik_trace[:screen] == plain.loglik_trace[:screen]


class TestOneRegimeMStep:
    """At R=1 every point of a cluster carries the cluster's mass, so the
    M-step and the start project a mean curve onto the design, through
    its pseudo-inverse, with no Gram and no linear solve."""

    @staticmethod
    def _waveform_class():
        # the class-1 training curves of a criterion-6 fold
        data = gen_waveform(WaveformSpec(curves_per_class=500, merge=True), 0)
        return data.values[data.labels == 1][:800], data.grid

    @pytest.mark.parametrize("basis", ["degree-3", "degree-4", "bspline-12"])
    def test_fitted_means_match_extended_precision(self, basis):
        # the normal equations of the raw degree-4 Vandermonde on this grid
        # have condition 7e10; the projection keeps the fitted means close
        # to a 50-digit solve of the same float inputs
        values, grid = self._waveform_class()
        design = {
            "degree-3": lambda: vandermonde(grid, 3),
            "degree-4": lambda: vandermonde(grid, 4),
            "bspline-12": lambda: bspline_basis(grid, 4, 8),
        }[basis]()
        weights = np.random.default_rng(44).uniform(size=len(values))
        stats = mixrhlp._sufficient_stats(weights[:, None], ((0,),), [None], values)
        d = design.n_cols
        coeffs, _ = mixrhlp._fit_clusters(
            stats.sums[0], stats.totals, design, np.zeros((1, 1, d)), np.ones((1, 1)), 1e-10
        )
        fitted = design.matrix @ coeffs[0, 0]
        reference = mp_projection_means(weights, values, design.matrix)
        error = np.max(np.abs(fitted - reference)) / np.max(np.abs(reference))
        assert error <= 1e-11

    @pytest.mark.parametrize("family", ["regression", "mixrhlp"])
    @pytest.mark.parametrize("K", [1, 3])
    def test_no_linear_solve(self, monkeypatch, family, K):
        # neither the starts, the M-steps, the SQUAREM cycles nor the
        # rescue of a one-regime fit solves a system; a two-regime fit,
        # counted the same way, does
        data = gen_waveform(WaveformSpec(40), 0)
        values, grid = data.values[data.labels == 1], data.grid
        real_solve = mixrhlp.ridge_solve
        calls = []

        def counted(*args):
            calls.append(None)
            return real_solve(*args)

        monkeypatch.setattr(mixrhlp, "ridge_solve", counted)
        cfg = EmConfig(n_clusters=K, n_regimes=1, degree=2, max_iter=60, tol=1e-8,
                       n_restarts=3, seed=0)
        if family == "regression":
            _, report = fit_regression_mixture(values, vandermonde(grid, 2), cfg)
        else:
            _, report = em_fit(values, grid, cfg)
        assert report.iterations > 0
        assert calls == []
        em_fit(values, grid, dataclasses.replace(cfg, n_regimes=2, max_iter=2))
        assert calls

    def test_single_regression_meets_tol_after_one_map(self):
        # the start and the M-step both project the mean curve, so the one
        # EM map that confirms the start gains less than tol, even at the
        # degree whose normal equations lose digits
        data = gen_waveform(WaveformSpec(curves_per_class=500, merge=True), 0)
        design = vandermonde(data.grid, 4)
        for g in (1, 2):
            _, report = single_regression(data.values[data.labels == g], design)
            assert report.stop_reason == "tol"
            assert report.iterations == 1
