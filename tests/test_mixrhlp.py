import dataclasses
import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from oracles import (
    explicit_wls_beta,
    explicit_wls_variance,
    mp_mixrhlp_density,
    mp_posteriors,
    mp_rhlp_density,
)
from regimix import mixrhlp
from regimix.core import Curve, TimeGrid, ridge_solve, vandermonde, variance_floor
from regimix.datagen import WaveformSpec, default_piecewise_spec, gen_piecewise, gen_waveform
from regimix.errors import NumericalError
from regimix.logistic import LogisticWeights, irls_fit
from regimix.mixrhlp import (
    EmConfig,
    MixRhlpParams,
    Posteriors,
    RhlpParams,
    _e_step_full,
    _m_step_impl,
    _pack,
    _posterior_stats,
    _regime_stats,
    _solve_logistic,
    _unpack,
    bic,
    e_step,
    em_fit,
    m_step,
    mean_curves,
    mixrhlp_loglik_set,
    n_free_parameters,
    rhlp_loglik_set,
    select_model,
)


def grid_of(*pts):
    return TimeGrid(np.array(pts, dtype=float))


def rand_params(rng, K, R, degree, scale=1.0):
    clusters = []
    for _ in range(K):
        logistic = LogisticWeights.gauge_fixed(rng.normal(size=(R, 2)))
        coeffs = rng.normal(scale=scale, size=(R, degree + 1))
        variances = rng.uniform(0.3, 2.0, size=R)
        clusters.append(RhlpParams(logistic, coeffs, variances))
    raw = rng.uniform(0.2, 1.0, size=K)
    weights = raw / raw.sum()
    # re-normalize exactly so the sum-to-one invariant holds bitwise
    weights[-1] = 1.0 - weights[:-1].sum()
    return MixRhlpParams(weights, tuple(clusters))


class TestRhlpLoglik:
    def test_single_regime_standard_normal(self):
        g = grid_of(0.0, 1.0)
        design = vandermonde(g, 0)
        params = RhlpParams(
            LogisticWeights.zeros(1), np.zeros((1, 1)), np.ones(1)
        )
        expected = 2 * (-0.5 * math.log(2 * math.pi))
        got = rhlp_loglik_set(params, Curve(np.zeros(2), g).values, design)[0]
        assert got == pytest.approx(expected, abs=1e-9)
        assert got == pytest.approx(-1.837877, abs=1e-6)

    def test_identical_regimes_collapse(self):
        rng = np.random.default_rng(0)
        g = grid_of(0.0, 0.5, 1.3, 2.0)
        design = vandermonde(g, 1)
        beta = np.array([0.4, -0.2])
        single = RhlpParams(LogisticWeights.zeros(1), beta[None, :], np.array([0.7]))
        double = RhlpParams(
            LogisticWeights.gauge_fixed(rng.normal(size=(2, 2))),
            np.vstack([beta, beta]),
            np.array([0.7, 0.7]),
        )
        curve = Curve(rng.normal(size=4), g)
        assert rhlp_loglik_set(double, curve.values, design)[0] == pytest.approx(
            rhlp_loglik_set(single, curve.values, design)[0], rel=1e-12
        )

    def test_matches_linear_domain_oracle(self):
        rng = np.random.default_rng(7)
        g = grid_of(0.0, 0.6, 1.1)
        design = vandermonde(g, 1)
        for _ in range(5):
            params = rand_params(rng, 1, 2, 1).clusters[0]
            values = rng.normal(size=3)
            expected = float(
                mp.log(
                    mp_rhlp_density(
                        params.logistic.coef.tolist(),
                        params.coeffs.tolist(),
                        params.variances.tolist(),
                        values.tolist(),
                        design.matrix.tolist(),
                        g.points.tolist(),
                    )
                )
            )
            got = rhlp_loglik_set(params, Curve(values, g).values, design)[0]
            assert got == pytest.approx(expected, rel=1e-10)


class TestMixLoglik:
    def test_single_cluster_collapse(self):
        rng = np.random.default_rng(1)
        g = grid_of(0.0, 1.0, 2.0)
        design = vandermonde(g, 1)
        params = rand_params(rng, 1, 2, 1)
        curve = Curve(rng.normal(size=3), g)
        assert mixrhlp_loglik_set(params, curve.values, design)[0] == pytest.approx(
            rhlp_loglik_set(params.clusters[0], curve.values, design)[0], rel=1e-12
        )

    def test_duplicate_clusters_collapse(self):
        rng = np.random.default_rng(2)
        g = grid_of(0.0, 1.0, 2.0)
        design = vandermonde(g, 1)
        cluster = rand_params(rng, 1, 2, 1).clusters[0]
        mixed = MixRhlpParams(np.array([0.5, 0.5]), (cluster, cluster))
        single = MixRhlpParams(np.array([1.0]), (cluster,))
        curve = Curve(rng.normal(size=3), g)
        assert mixrhlp_loglik_set(mixed, curve.values, design)[0] == pytest.approx(
            mixrhlp_loglik_set(single, curve.values, design)[0], rel=1e-12
        )

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        g = grid_of(0.0, 0.7, 1.5)
        design = vandermonde(g, 1)
        for _ in range(5):
            params = rand_params(rng, 2, 2, 1)
            values = rng.normal(size=3)
            expected = float(
                mp.log(
                    mp_mixrhlp_density(
                        params, values.tolist(), design.matrix.tolist(), g.points.tolist()
                    )
                )
            )
            got = mixrhlp_loglik_set(params, Curve(values, g).values, design)[0]
            assert got == pytest.approx(expected, rel=1e-10)

    def test_cluster_permutation_symmetry(self):
        rng = np.random.default_rng(4)
        g = grid_of(0.0, 1.0, 2.0, 3.0)
        design = vandermonde(g, 1)
        params = rand_params(rng, 3, 2, 1)
        permuted = MixRhlpParams(
            params.weights[[2, 0, 1]],
            (params.clusters[2], params.clusters[0], params.clusters[1]),
        )
        curve = Curve(rng.normal(size=4), g)
        assert mixrhlp_loglik_set(params, curve.values, design)[0] == pytest.approx(
            mixrhlp_loglik_set(permuted, curve.values, design)[0], rel=1e-12
        )


class TestEStep:
    def test_single_cluster_unit_responsibilities(self):
        rng = np.random.default_rng(5)
        g = grid_of(0.0, 1.0, 2.0)
        design = vandermonde(g, 0)
        params = rand_params(rng, 1, 2, 0)
        post = e_step(params, rng.normal(size=(4, 3)), design)
        np.testing.assert_array_equal(post.cluster_resp, np.ones((4, 1)))

    def test_single_regime_unit_tau(self):
        rng = np.random.default_rng(6)
        g = grid_of(0.0, 1.0, 2.0)
        design = vandermonde(g, 0)
        params = rand_params(rng, 2, 1, 0)
        post = e_step(params, rng.normal(size=(3, 3)), design)
        for tau in post.regime_resp:
            np.testing.assert_array_equal(tau, np.ones((3, 3, 1)))

    def test_matches_brute_force_micro_instances(self):
        rng = np.random.default_rng(8)
        for trial in range(6):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(2, 5))
            g = TimeGrid(np.sort(rng.uniform(0, 2, size=m)))
            design = vandermonde(g, 1)
            params = rand_params(rng, 2, 2, 1)
            values = rng.normal(size=(n, m))
            post = e_step(params, values, design)
            gamma_ref, taus_ref = mp_posteriors(
                params, values.tolist(), design.matrix.tolist(), g.points.tolist()
            )
            np.testing.assert_allclose(post.cluster_resp, gamma_ref, rtol=1e-9, atol=1e-12)
            for k in range(2):
                np.testing.assert_allclose(
                    post.regime_resp[k], taus_ref[k], rtol=1e-9, atol=1e-12
                )

    def test_curve_logliks_match_scoring_and_oracle(self):
        # the E-step and scoring share one density kernel: the same per-curve
        # log-likelihoods, bit for bit, and both match the extended-precision
        # density
        rng = np.random.default_rng(91)
        for _ in range(6):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(2, 5))
            K = int(rng.integers(1, 3))
            R = int(rng.integers(1, 4))
            g = TimeGrid(np.sort(rng.uniform(0, 2, size=m)))
            design = vandermonde(g, 1)
            params = rand_params(rng, K, R, 1)
            values = rng.normal(size=(n, m))
            _, total, per_curve = _e_step_full(_pack(params), values, design)
            np.testing.assert_array_equal(
                per_curve, mixrhlp_loglik_set(params, values, design)
            )
            assert total == per_curve.sum()
            for i in range(n):
                expected = float(
                    mp.log(
                        mp_mixrhlp_density(
                            params, values[i].tolist(), design.matrix.tolist(),
                            g.points.tolist(),
                        )
                    )
                )
                assert per_curve[i] == pytest.approx(expected, rel=1e-9)

    def test_ragged_regime_counts_match_scoring(self):
        # clusters with R = 2, 3, 2 form two stacks in the E-step; the
        # per-curve log-likelihoods still equal scoring one cluster at a
        # time, and each cluster's regime table its solo E-step's
        rng = np.random.default_rng(95)
        g = TimeGrid(np.linspace(0, 1, 9))
        design = vandermonde(g, 1)
        clusters = tuple(rand_params(rng, 1, R, 1).clusters[0] for R in (2, 3, 2))
        params = MixRhlpParams(np.array([0.2, 0.5, 0.3]), clusters)
        values = rng.normal(size=(6, 9))
        stats, total, per_curve = _e_step_full(_pack(params), values, design)
        np.testing.assert_array_equal(per_curve, mixrhlp_loglik_set(params, values, design))
        assert [s.shape for s in stats.sums] == [(3, 2, 2, 9), (3, 1, 3, 9)]
        post = e_step(params, values, design)
        assert [tau.shape for tau in post.regime_resp] == [(6, 9, 2), (6, 9, 3), (6, 9, 2)]
        for k, cluster in enumerate(clusters):
            solo = e_step(MixRhlpParams(np.array([1.0]), (cluster,)), values, design)
            np.testing.assert_array_equal(post.regime_resp[k], solo.regime_resp[0])

    @pytest.mark.parametrize("case", ["uniform", "ragged", "zero_cluster"])
    def test_statistics_match_public_posteriors(self, case):
        # the statistics EM computes right after its kernel equal, bit for
        # bit, _regime_stats over the checked posteriors of the public
        # E-step, cluster by cluster, down to a cluster with no
        # responsibility at all
        rng = np.random.default_rng(98)
        g = TimeGrid(np.linspace(0, 1, 11))
        design = vandermonde(g, 1)
        regimes = (2, 3, 2) if case == "ragged" else (3, 3, 3)
        clusters = [rand_params(rng, 1, R, 1).clusters[0] for R in regimes]
        if case == "zero_cluster":
            far = clusters[1]
            clusters[1] = RhlpParams(far.logistic, far.coeffs + 1e3, far.variances)
        params = MixRhlpParams(np.array([0.2, 0.5, 0.3]), tuple(clusters))
        values = rng.normal(size=(7, 11))
        state = _pack(params)
        stats, _, _ = _e_step_full(state, values, design)
        post = e_step(params, values, design)
        if case == "zero_cluster":
            np.testing.assert_array_equal(post.cluster_resp[:, 1], 0.0)
        np.testing.assert_array_equal(stats.totals, post.cluster_resp.sum(axis=0))
        assert len(stats.sums) == len(state.groups)
        for group, sums in zip(state.groups, stats.sums):
            for g_idx, k in enumerate(group):
                want = _regime_stats(
                    post.cluster_resp[:, k], post.regime_resp[k].transpose(2, 0, 1), values
                )
                np.testing.assert_array_equal(sums[:, g_idx], np.stack(want))

    def test_regime_resp_is_read_only_n_m_r_view(self):
        rng = np.random.default_rng(92)
        g = TimeGrid(np.linspace(0, 1, 7))
        design = vandermonde(g, 1)
        params = MixRhlpParams(
            np.array([0.5, 0.5]),
            (rand_params(rng, 1, 2, 1).clusters[0], rand_params(rng, 1, 3, 1).clusters[0]),
        )
        post = e_step(params, rng.normal(size=(4, 7)), design)
        assert [tau.shape for tau in post.regime_resp] == [(4, 7, 2), (4, 7, 3)]
        for tau in post.regime_resp:
            assert not tau.flags.writeable
            with pytest.raises(ValueError):
                tau[0, 0, 0] = 0.5

    def test_normalization_invariants(self):
        rng = np.random.default_rng(9)
        g = TimeGrid(np.linspace(0, 1, 6))
        design = vandermonde(g, 2)
        params = rand_params(rng, 3, 2, 2)
        post = e_step(params, rng.normal(size=(5, 6)), design)
        np.testing.assert_allclose(post.cluster_resp.sum(axis=1), 1.0, atol=1e-10)
        for tau in post.regime_resp:
            np.testing.assert_allclose(tau.sum(axis=2), 1.0, atol=1e-10)


class TestEStepExtremes:
    def test_normalized_under_huge_log_densities(self):
        # floor-level variances push per-point log-densities to ~1e6 in
        # magnitude; responsibilities must still sum to 1 exactly
        g = TimeGrid(np.linspace(0, 1, 3))
        cluster = RhlpParams(
            LogisticWeights.zeros(3),
            np.array([[0.0], [1.0], [2.0]]),
            np.full(3, 6.5e-9),
        )
        params = MixRhlpParams(np.array([1.0]), (cluster,))
        values = np.array([[0.5, 1.5, 2.5]])
        post = e_step(params, values, vandermonde(g, 0))  # must not raise
        np.testing.assert_array_equal(post.regime_resp[0].sum(axis=2), 1.0)

    def test_curve_outside_one_cluster_gets_defined_responsibilities(self):
        # the curve's squared residuals overflow under the level-0 cluster, so
        # every regime density there underflows to 0: its regime
        # responsibilities are uniform (and carry no weight, gamma being 0)
        # instead of 0/0
        g = TimeGrid(np.linspace(0, 1, 3))
        far = RhlpParams(LogisticWeights.zeros(2), np.full((2, 1), 1e160), np.ones(2))
        near = RhlpParams(LogisticWeights.zeros(2), np.zeros((2, 1)), np.ones(2))
        params = MixRhlpParams(np.array([0.5, 0.5]), (far, near))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            post = e_step(params, np.full((1, 3), 1e160), vandermonde(g, 0))
        assert not [w for w in caught if "invalid value" in str(w.message)]
        np.testing.assert_array_equal(post.cluster_resp, [[1.0, 0.0]])
        np.testing.assert_array_equal(post.regime_resp[1], 0.5)
        np.testing.assert_array_equal(post.regime_resp[0].sum(axis=2), 1.0)

    def test_curve_outside_every_cluster_raises(self):
        # a curve that no cluster can explain (a -inf log-likelihood) stops
        # the E-step with a typed error
        g = TimeGrid(np.linspace(0, 1, 3))
        near = RhlpParams(LogisticWeights.zeros(2), np.zeros((2, 1)), np.ones(2))
        params = MixRhlpParams(np.array([0.5, 0.5]), (near, near))
        values = np.vstack([np.zeros(3), np.full(3, 1e160)])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericalError, match="not finite"):
                e_step(params, values, vandermonde(g, 0))
        assert not [w for w in caught if "invalid value" in str(w.message)]

    def test_tiny_segment_em_stays_monotone(self):
        rng = np.random.default_rng(90)
        g = TimeGrid(np.linspace(0, 1, 3))
        values = rng.normal(size=(5, 3))
        cfg = EmConfig(n_clusters=2, n_regimes=3, degree=2, n_restarts=2,
                       max_iter=10, seed=3)
        _, report = em_fit(values, g, cfg)
        assert np.all(np.diff(report.loglik_trace) >= -1e-8)


class TestExpUnderflowMask:
    """The kernel writes exp's 0.0 for shifted log-densities below its bound
    instead of computing it, and so changes no bit."""

    def test_exp_is_zero_at_and_below_the_bound(self):
        bound = mixrhlp._EXP_UNDERFLOW
        below = [bound, np.nextafter(bound, -np.inf), -746.0, -800.0, -1e300, -np.inf]
        for size in (1, 7, 37):  # a scalar loop, and vector lanes with a tail
            for x in below:
                got = np.exp(np.full(size, x))
                np.testing.assert_array_equal(got, 0.0)
                assert not np.signbit(got).any()
        assert np.exp(-745.0) > 0.0  # the bound sits just past the last subnormal

    def test_masked_kernel_keeps_the_bits(self, monkeypatch):
        # sharp logistic processes put over a third of the lanes below the bound
        rng = np.random.default_rng(120)
        g = TimeGrid(np.linspace(0, 1, 60))
        design = vandermonde(g, 0)
        params = rand_params(rng, 3, 3, 0, scale=3.0)
        state = mixrhlp._pack(params)
        state = state._replace(logistic=tuple(1000.0 * a for a in state.logistic))
        values = rng.normal(size=(8, 60))
        log_pi = mixrhlp.log_regime_probabilities(state.logistic[0], g)
        assert log_pi.min() < mixrhlp._EXP_UNDERFLOW
        masked = _e_step_full(state, values, design)
        masked_post = e_step(_unpack(state), values, design)
        monkeypatch.setattr(mixrhlp, "_EXP_UNDERFLOW", -np.inf)  # exp of every lane
        plain = _e_step_full(state, values, design)
        plain_post = e_step(_unpack(state), values, design)
        assert masked[1] == plain[1]
        np.testing.assert_array_equal(masked[2], plain[2])
        np.testing.assert_array_equal(masked[0].totals, plain[0].totals)
        for a, b in zip(masked[0].sums, plain[0].sums):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(masked_post.cluster_resp, plain_post.cluster_resp)
        for a, b in zip(masked_post.regime_resp, plain_post.regime_resp):
            np.testing.assert_array_equal(a, b)
            assert (a == 0.0).mean() > 0.2


class TestMStep:
    def test_uniform_responsibilities_give_uniform_weights(self):
        rng = np.random.default_rng(10)
        g = grid_of(0.0, 1.0, 2.0)
        design = vandermonde(g, 0)
        n, K = 6, 3
        prev = rand_params(rng, K, 1, 0)
        gamma = np.full((n, K), 1.0 / K)
        taus = tuple(np.ones((n, 3, 1)) for _ in range(K))
        new = m_step(Posteriors(gamma, taus), rng.normal(size=(n, 3)), design, prev)
        np.testing.assert_allclose(new.weights, 1.0 / K, atol=1e-12)

    def test_regime_stats_match_einsum_formulas(self):
        rng = np.random.default_rng(93)
        n, m, R = 9, 11, 3
        resp = rng.uniform(size=n)
        values = rng.normal(size=(n, m))
        tau = rng.dirichlet(np.ones(R), size=(n, m))  # (n, m, R)
        point_w, xw, x2w = _regime_stats(resp, np.moveaxis(tau, -1, 0), values)
        expected = (
            np.einsum("i,ijr->jr", resp, tau),
            np.einsum("i,ij,ijr->jr", resp, values, tau),
            np.einsum("i,ij,ijr->jr", resp, values**2, tau),
        )
        for got, ref in zip((point_w, xw, x2w), expected):
            assert got.shape == (R, m)
            np.testing.assert_allclose(got.T, ref, rtol=1e-12, atol=1e-12)

    def test_stacked_update_matches_per_cluster_fits(self):
        # R = (2, 3, 2) gives a stack of two clusters and one of one; cluster
        # 3 is starved and one regime of cluster 0 has no mass. Every fitted
        # cluster must equal its own update: per-regime solves, variances
        # and a solo IRLS.
        rng = np.random.default_rng(96)
        n, m = 7, 10
        g = TimeGrid(np.linspace(0, 1, m))
        design = vandermonde(g, 1)
        T = design.matrix
        values = rng.normal(size=(n, m)) + np.sin(3 * g.points)
        regimes = (2, 3, 2, 3)
        prev = MixRhlpParams(
            np.full(4, 0.25),
            tuple(rand_params(rng, 1, R, 1).clusters[0] for R in regimes),
        )
        gamma = rng.dirichlet(np.ones(3), size=n)
        gamma = np.column_stack([gamma, np.zeros(n)])  # cluster 3 starved
        taus = [rng.dirichlet(np.ones(R), size=(n, m)) for R in regimes]
        taus[0][:, :, 1] = 0.0  # a regime with no mass
        taus[0][:, :, 0] = 1.0
        floor = variance_floor(values)
        state = _pack(prev)
        stats = _posterior_stats(Posteriors(gamma, tuple(taus)), state.groups, values)
        pending = []
        new, rescued = _m_step_impl(stats, values, design, state, floor, None, False, pending)
        _solve_logistic(pending)
        new = _unpack(new)
        assert not rescued
        for field in ("coeffs", "variances"):
            np.testing.assert_array_equal(
                getattr(new.clusters[3], field), getattr(prev.clusters[3], field)
            )
        np.testing.assert_array_equal(new.clusters[3].logistic.coef, prev.clusters[3].logistic.coef)
        for k in range(3):
            old = prev.clusters[k]
            w = gamma[:, k][:, None, None] * taus[k]  # (n, m, R)
            coeffs, variances = np.array(old.coeffs), np.array(old.variances)
            for r in range(regimes[k]):
                mass = w[:, :, r].sum()
                if mass <= 1e-12 * max(gamma[:, k].sum(), 1.0):
                    continue
                pw = w[:, :, r].sum(axis=0)
                xw = (w[:, :, r] * values).sum(axis=0)
                coeffs[r] = ridge_solve(T.T @ (pw[:, None] * T), T.T @ xw)
                resid = values - T @ coeffs[r]
                variances[r] = max((w[:, :, r] * resid**2).sum() / mass, floor)
            counts = w.sum(axis=0)[None]
            logistic = irls_fit(old.logistic.coef[None], g, counts, max_iter=50)[0]
            got = new.clusters[k]
            np.testing.assert_allclose(got.coeffs, coeffs, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(got.variances, variances, rtol=1e-12)
            np.testing.assert_allclose(got.logistic.coef, logistic, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(new.clusters[0].coeffs[1], prev.clusters[0].coeffs[1])
        np.testing.assert_array_equal(new.clusters[0].variances[1], prev.clusters[0].variances[1])

    def test_ols_collapse(self):
        rng = np.random.default_rng(11)
        g = grid_of(0.0, 1.0, 2.0, 3.0)
        design = vandermonde(g, 0)
        values = rng.normal(loc=4.0, size=(5, 4))
        prev = rand_params(rng, 1, 1, 0)
        post = Posteriors(np.ones((5, 1)), (np.ones((5, 4, 1)),))
        new = m_step(post, values, design, prev)
        assert new.clusters[0].coeffs[0, 0] == pytest.approx(values.mean(), rel=1e-12)
        assert new.clusters[0].variances[0] == pytest.approx(values.var(), rel=1e-12)

    def test_matches_explicit_normal_equations(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            n, m, K, R, degree = 3, 4, 2, 2, 1
            g = TimeGrid(np.sort(rng.uniform(0, 2, size=m)))
            design = vandermonde(g, degree)
            values = rng.normal(size=(n, m))
            prev = rand_params(rng, K, R, degree)
            gamma = rng.dirichlet(np.ones(K), size=n)
            taus = tuple(rng.dirichlet(np.ones(R), size=(n, m)) for _ in range(K))
            new = m_step(Posteriors(gamma, taus), values, design, prev)
            for k in range(K):
                for r in range(R):
                    w = gamma[:, k][:, None] * taus[k][:, :, r]
                    beta_ref = explicit_wls_beta(w, values, design.matrix)
                    np.testing.assert_allclose(
                        new.clusters[k].coeffs[r], beta_ref, rtol=1e-8
                    )
                    var_ref = explicit_wls_variance(
                        w, values, design.matrix, beta_ref
                    )
                    assert new.clusters[k].variances[r] == pytest.approx(
                        var_ref, rel=1e-8
                    )

    def test_full_iteration_never_decreases_loglik(self):
        rng = np.random.default_rng(13)
        g = TimeGrid(np.linspace(0, 1, 12))
        design = vandermonde(g, 1)
        values = rng.normal(size=(8, 12)) + np.sin(g.points)[None, :]
        params = rand_params(rng, 2, 2, 1)
        ll = mixrhlp_loglik_set(params, values, design).sum()
        for _ in range(10):
            post = e_step(params, values, design)
            params = m_step(post, values, design, params)
            new_ll = mixrhlp_loglik_set(params, values, design).sum()
            assert new_ll >= ll - 1e-8
            ll = new_ll


class TestEmFit:
    def test_recovers_constant_level(self):
        rng = np.random.default_rng(14)
        n, m, sigma, level = 20, 50, 0.01, 2.5
        g = TimeGrid(np.linspace(0, 1, m))
        values = level + sigma * rng.normal(size=(n, m))
        cfg = EmConfig(n_clusters=1, n_regimes=1, degree=0, n_restarts=1, seed=0)
        params, report = em_fit(values, g, cfg)
        bound = 3 * sigma / math.sqrt(n * m)
        assert abs(params.clusters[0].coeffs[0, 0] - level) < bound + 3 * sigma / math.sqrt(n * m)
        assert report.converged

    def test_ols_collapse_against_direct_solve(self):
        rng = np.random.default_rng(15)
        g = TimeGrid(np.linspace(0, 2, 30))
        design = vandermonde(g, 2)
        values = (
            design.matrix @ np.array([1.0, -2.0, 0.5])
        )[None, :] + 0.05 * rng.normal(size=(6, 30))
        cfg = EmConfig(n_clusters=1, n_regimes=1, degree=2, n_restarts=1, seed=0)
        params, _ = em_fit(values, g, cfg)
        stacked = np.tile(design.matrix, (6, 1))
        direct = np.linalg.solve(
            stacked.T @ stacked, stacked.T @ values.reshape(-1)
        )
        np.testing.assert_allclose(params.clusters[0].coeffs[0], direct, rtol=1e-8)

    def test_infinite_tol_runs_single_iteration(self):
        rng = np.random.default_rng(16)
        g = TimeGrid(np.linspace(0, 1, 10))
        values = rng.normal(size=(5, 10))
        cfg = EmConfig(
            n_clusters=2, n_regimes=2, degree=0, tol=np.inf, n_restarts=1, seed=0
        )
        _, report = em_fit(values, g, cfg)
        assert report.iterations == 1
        assert len(report.loglik_trace) == 2
        assert report.converged

    def test_seeded_runs_are_bit_identical(self):
        rng = np.random.default_rng(17)
        g = TimeGrid(np.linspace(0, 1, 15))
        values = rng.normal(size=(7, 15))
        cfg = EmConfig(n_clusters=2, n_regimes=2, degree=1, n_restarts=3, seed=42,
                       max_iter=30)
        p1, r1 = em_fit(values, g, cfg)
        p2, r2 = em_fit(values, g, cfg)
        np.testing.assert_array_equal(p1.weights, p2.weights)
        for c1, c2 in zip(p1.clusters, p2.clusters):
            np.testing.assert_array_equal(c1.coeffs, c2.coeffs)
            np.testing.assert_array_equal(c1.variances, c2.variances)
            np.testing.assert_array_equal(c1.logistic.coef, c2.logistic.coef)
        assert r1 == r2

    def test_too_few_curves_rejected(self):
        g = grid_of(0.0, 1.0)
        with pytest.raises(ValueError):
            em_fit(np.zeros((2, 2)), g, EmConfig(n_clusters=3))

    def test_traces_monotone_on_random_configs(self):
        rng = np.random.default_rng(18)
        for _ in range(6):
            n = int(rng.integers(4, 12))
            m = int(rng.integers(8, 30))
            K = int(rng.integers(1, 3))
            R = int(rng.integers(1, 3))
            p = int(rng.integers(0, 3))
            g = TimeGrid(np.sort(rng.uniform(0, 3, size=m)))
            values = rng.normal(size=(n, m)) * rng.uniform(0.5, 3)
            cfg = EmConfig(
                n_clusters=K, n_regimes=R, degree=p, max_iter=20, n_restarts=1,
                seed=int(rng.integers(1000)),
            )
            _, report = em_fit(values, g, cfg)
            diffs = np.diff(report.loglik_trace)
            assert np.all(diffs >= -1e-8)

    def test_unidentifiable_shapes_rejected(self):
        rng = np.random.default_rng(94)
        values = rng.normal(size=(5, 4))
        g = TimeGrid(np.linspace(0, 1, 4))
        with pytest.raises(ValueError, match="5 regimes on 4 grid points"):
            em_fit(values, g, EmConfig(n_regimes=5, n_restarts=1))
        with pytest.raises(ValueError, match="regimes on 4 grid points"):
            em_fit(values, g, EmConfig(n_clusters=2, n_regimes=(2, 5), n_restarts=1))
        with pytest.raises(ValueError, match="5 design columns on 4 grid points"):
            em_fit(values, g, EmConfig(degree=4, n_restarts=1))
        # the segment initialization, which the starved-cluster rescue of the
        # public m_step also runs, gives every regime a grid point or refuses
        with pytest.raises(ValueError, match="4 grid points into 5 regimes"):
            mixrhlp.initial_params(values, vandermonde(g, 0), 1, (5,), rng, 1e-6)
        # as many regimes, or coefficients, as grid points is still allowed
        _, report = em_fit(values, g, EmConfig(n_regimes=4, degree=3, n_restarts=1,
                                               max_iter=3))
        assert np.all(np.diff(report.loglik_trace) >= -1e-8)

    def test_likelihood_drop_is_not_convergence(self):
        # On a grid far from 0 the cubic Vandermonde Gram is so ill-conditioned
        # that every regime solve takes the ridge, and that M-step lowers the
        # likelihood; EM must keep the previous iterate and report no convergence.
        data = gen_waveform(WaveformSpec(50), 0)
        g = TimeGrid(data.grid.points + 1e4)
        cfg = EmConfig(n_clusters=2, n_regimes=2, degree=3, n_restarts=1)
        _, report = em_fit(data.values[:100], g, cfg)
        assert np.all(np.diff(report.loglik_trace) >= 0.0)
        assert report.iterations == len(report.loglik_trace) - 1
        assert report.converged is False
        assert report.stop_reason == "likelihood_drop"

    def test_worse_m_step_is_not_convergence(self, monkeypatch):
        # an M-step that lowers the likelihood (every mean moved far off from
        # the second M-step on) must not count as convergence, whatever the
        # grid: EM keeps the previous iterate and trace and reports no
        # convergence
        rng = np.random.default_rng(42)
        g = TimeGrid(np.linspace(0, 1, 10))
        values = np.vstack([rng.normal(size=(5, 10)), 4.0 + rng.normal(size=(5, 10))])
        real_m_step = mixrhlp._m_step_impl
        calls = []

        def worse_m_step(*args, **kwargs):
            cand, rescued = real_m_step(*args, **kwargs)
            calls.append(cand)
            if len(calls) == 1:
                return cand, rescued
            return cand._replace(coeffs=tuple(c + 50.0 for c in cand.coeffs)), rescued

        monkeypatch.setattr(mixrhlp, "_m_step_impl", worse_m_step)
        cfg = EmConfig(n_clusters=2, n_regimes=2, degree=0, max_iter=20, n_restarts=1)
        params, report = em_fit(values, g, cfg)
        assert len(calls) >= 2
        assert np.all(np.diff(report.loglik_trace) >= 0.0)
        assert report.iterations == 1
        assert report.converged is False
        assert report.restarts == (
            mixrhlp.RestartRecord(report.loglik_trace[-1], 1, "likelihood_drop"),
        )
        np.testing.assert_array_equal(
            [c.coeffs for c in params.clusters], [c.coeffs for c in _unpack(calls[0]).clusters]
        )

    def test_non_finite_m_step_is_numerical_error(self, monkeypatch):
        # the ascent does not check its iterates; a NaN variance still stops
        # the fit, at the next E-step, with a typed error
        rng = np.random.default_rng(44)
        g = TimeGrid(np.linspace(0, 1, 10))
        values = np.vstack([rng.normal(size=(5, 10)), 4.0 + rng.normal(size=(5, 10))])
        real_stats = mixrhlp._regime_stats

        def nan_sum_of_squares(*args):
            point_w, xw, x2w = real_stats(*args)
            return point_w, xw, np.full_like(x2w, np.nan)

        monkeypatch.setattr(mixrhlp, "_regime_stats", nan_sum_of_squares)
        for n_restarts in (1, 3):  # a lone restart, and restarts in lockstep
            cfg = EmConfig(n_clusters=2, n_regimes=2, degree=0, max_iter=20,
                           n_restarts=n_restarts)
            with pytest.raises(NumericalError, match="not finite"):
                em_fit(values, g, cfg)

    def test_rescue_that_lowers_likelihood_falls_back(self, monkeypatch):
        # cluster 1 starts at the pooled fit of every curve, cluster 2 far
        # off with no responsibility. Re-seeding cluster 2 from the worst-fit
        # curve explains that curve little better and costs every curve
        # weight, so EM must drop the rescue and take the plain update.
        values = np.array([[1.0, -1.0, 1.0, -1.0]] * 9 + [[1.5, -1.5, 1.5, -1.5]])
        var = float(np.mean(values**2))
        g = TimeGrid(np.linspace(0, 1, 4))
        far = RhlpParams(LogisticWeights.zeros(2), np.full((2, 1), 1e3), np.full(2, var))
        init = MixRhlpParams(
            np.array([1.0 - 1e-9, 1e-9]),
            (RhlpParams(LogisticWeights.zeros(2), np.zeros((2, 1)), np.full(2, var)), far),
        )
        real_m_step = mixrhlp._m_step_impl
        calls = []

        def spy(*args, **kwargs):
            cand, rescued = real_m_step(*args, **kwargs)
            calls.append((args[6], rescued))
            return cand, rescued

        monkeypatch.setattr(mixrhlp, "_m_step_impl", spy)
        cfg = EmConfig(n_clusters=2, n_regimes=2, degree=0, max_iter=20, n_restarts=1)
        params, report = em_fit(values, g, cfg, init=init)
        assert calls[:2] == [(True, True), (False, False)]
        assert np.all(np.diff(report.loglik_trace) >= 0.0)
        # the plain update keeps the starved cluster as it was
        np.testing.assert_array_equal(params.clusters[1].coeffs, far.coeffs)
        assert params.weights[1] < 1e-11

    @pytest.mark.parametrize("regimes", [2, (2, 3, 2)], ids=["uniform", "ragged"])
    def test_workspace_matches_public_steps(self, regimes):
        # EM reuses one kernel buffer per regime group and restart; from the
        # same start it must give, bit for bit, the parameters and trace of
        # hand-run public steps, which allocate fresh arrays
        data = gen_waveform(WaveformSpec(40), 0)
        values = data.values[data.labels == 1]
        K, degree, rounds = 3, 2, 6
        cfg = EmConfig(n_clusters=K, n_regimes=regimes, degree=degree, max_iter=rounds,
                       tol=1e-300, n_restarts=1)
        design = vandermonde(data.grid, degree)
        floor = variance_floor(values)
        init = mixrhlp.initial_params(
            values, design, K, cfg.regimes(), np.random.default_rng(5), floor
        )
        got, report = em_fit(values, data.grid, cfg, init=init)

        params = init
        post = e_step(params, values, design)
        trace = [float(mixrhlp_loglik_set(params, values, design).sum())]
        for _ in range(rounds):
            params = m_step(post, values, design, params, floor=floor)
            post = e_step(params, values, design)
            trace.append(float(mixrhlp_loglik_set(params, values, design).sum()))
        assert min(post.cluster_resp.sum(axis=0)) > 1.0  # no cluster starved
        assert report.iterations == rounds
        assert list(report.loglik_trace) == trace
        np.testing.assert_array_equal(got.weights, params.weights)
        for c1, c2 in zip(got.clusters, params.clusters):
            np.testing.assert_array_equal(c1.coeffs, c2.coeffs)
            np.testing.assert_array_equal(c1.variances, c2.variances)
            np.testing.assert_array_equal(c1.logistic.coef, c2.logistic.coef)

    @pytest.mark.parametrize("case", ["rescue_fallback", "two_restarts"])
    def test_m_steps_read_their_iterates_posteriors(self, monkeypatch, case):
        # every M-step, the rescue fallback's included, must get the
        # statistics of the iterate it updates, equal to those of the
        # checked posteriors of a fresh public E-step on it, never those of
        # a later E-step
        if case == "rescue_fallback":
            # the data and start of test_rescue_that_lowers_likelihood_falls_back
            values = np.array([[1.0, -1.0, 1.0, -1.0]] * 9 + [[1.5, -1.5, 1.5, -1.5]])
            var = float(np.mean(values**2))
            g = TimeGrid(np.linspace(0, 1, 4))
            far = RhlpParams(LogisticWeights.zeros(2), np.full((2, 1), 1e3), np.full(2, var))
            init = MixRhlpParams(
                np.array([1.0 - 1e-9, 1e-9]),
                (RhlpParams(LogisticWeights.zeros(2), np.zeros((2, 1)), np.full(2, var)), far),
            )
            cfg = EmConfig(n_clusters=2, n_regimes=2, degree=0, max_iter=20, n_restarts=1)
        else:
            rng = np.random.default_rng(61)
            g = TimeGrid(np.linspace(0, 1, 12))
            values = np.vstack([rng.normal(size=(6, 12)), 3.0 + rng.normal(size=(6, 12))])
            init = None
            cfg = EmConfig(n_clusters=2, n_regimes=2, degree=1, max_iter=15, n_restarts=2)
        real_m_step = mixrhlp._m_step_impl
        rescue_flags = []

        def checked(stats, values, design, prev, *rest):
            fresh = _posterior_stats(e_step(_unpack(prev), values, design), prev.groups, values)
            np.testing.assert_array_equal(stats.totals, fresh.totals)
            for got, want in zip(stats.sums, fresh.sums, strict=True):
                np.testing.assert_array_equal(got, want)
            rescue_flags.append(rest[2])
            return real_m_step(stats, values, design, prev, *rest)

        monkeypatch.setattr(mixrhlp, "_m_step_impl", checked)
        em_fit(values, g, cfg, init=init)
        assert len(rescue_flags) >= 2
        assert (False in rescue_flags) == (case == "rescue_fallback")


    @pytest.mark.parametrize("case", ["uniform", "ragged", "one_fallback"])
    def test_lockstep_restarts_equal_their_own_fits(self, monkeypatch, case):
        # the restarts of a fit advance together and share IRLS stacks; each
        # must end, bit for bit, where a fit from its own start ends:
        # parameters, trace and convergence. In the last case only one
        # restart takes the rescue fallback.
        if case == "one_fallback":
            spec = dataclasses.replace(default_piecewise_spec(), curves_per_subclass=3,
                                       n_points=30)
            data = gen_piecewise(spec, 0)
            cfg = EmConfig(n_clusters=4, n_regimes=2, degree=0, max_iter=30, tol=1e-2,
                           n_restarts=3, seed=2)
        else:
            data = gen_waveform(WaveformSpec(40), 0)
            regimes = 2 if case == "uniform" else (2, 3, 2)
            cfg = EmConfig(n_clusters=3, n_regimes=regimes, degree=2, max_iter=30, tol=1.0,
                           n_restarts=3, seed=3)
        values = data.values[data.labels == 1]
        starts, runs, rescue_flags = [], [], []
        real_init, real_once, real_m_step = (
            mixrhlp.initial_params, mixrhlp._em_once, mixrhlp._m_step_impl
        )

        def init_spy(*args):
            starts.append(real_init(*args))
            return starts[-1]

        def once_spy(*args):
            runs.append(real_once(*args))
            return runs[-1]

        def m_step_spy(*args):
            rescue_flags.append(args[6])
            return real_m_step(*args)

        monkeypatch.setattr(mixrhlp, "initial_params", init_spy)
        monkeypatch.setattr(mixrhlp, "_em_once", once_spy)
        monkeypatch.setattr(mixrhlp, "_m_step_impl", m_step_spy)
        em_fit(values, data.grid, cfg)
        assert len(starts) == len(runs) == 3
        fallbacks = []
        for start, (params, trace, converged) in zip(starts, runs[:3]):
            rescue_flags.clear()
            solo, report = em_fit(values, data.grid, dataclasses.replace(cfg, n_restarts=1),
                                  init=start)
            fallbacks.append(rescue_flags.count(False))
            assert list(report.loglik_trace) == trace
            assert report.converged == converged
            np.testing.assert_array_equal(params.weights, solo.weights)
            for c1, c2 in zip(params.clusters, solo.clusters, strict=True):
                np.testing.assert_array_equal(c1.coeffs, c2.coeffs)
                np.testing.assert_array_equal(c1.variances, c2.variances)
                np.testing.assert_array_equal(c1.logistic.coef, c2.logistic.coef)
        assert sum(f > 0 for f in fallbacks) == (case == "one_fallback")
        # the restarts leave the lockstep at different iterations
        assert len({len(run[1]) for run in runs[:3]}) > 1

class TestScreening:
    """After ``_SCREEN_AT`` lockstep iterations only the leading live restart
    goes on, extrapolated, and the others wait as ``screened``; if the
    leader stops without converging, they go on together by plain EM. A
    restart that goes on alone from the start is extrapolated too."""

    @staticmethod
    def _data():
        data = gen_waveform(WaveformSpec(40), 0)
        return data.values[data.labels == 1], data.grid

    @staticmethod
    def _config(**kw):
        base = dict(n_clusters=3, n_regimes=2, degree=2, max_iter=200, tol=1e-4,
                    n_restarts=3, seed=0)
        return EmConfig(**{**base, **kw})

    @staticmethod
    def _spy_starts(monkeypatch, first=None):
        """Record the start of each restart; with ``first``, restart 0
        starts there instead."""
        starts = []
        real_init = mixrhlp.initial_params

        def init_spy(*args):
            starts.append(first if first is not None and not starts else real_init(*args))
            return starts[-1]

        monkeypatch.setattr(mixrhlp, "initial_params", init_spy)
        return starts

    @staticmethod
    def _solo_fits(values, grid, cfg, starts):
        return [em_fit(values, grid, dataclasses.replace(cfg, n_restarts=1), init=start)
                for start in starts]

    @staticmethod
    def _plain_fits(monkeypatch, values, grid, cfg, starts):
        """The fit from each start by plain EM: no restart goes on alone
        when the screening comes after ``max_iter``."""
        monkeypatch.setattr(mixrhlp, "_SCREEN_AT", cfg.max_iter + 1)
        fits = TestScreening._solo_fits(values, grid, cfg, starts)
        monkeypatch.undo()
        return fits

    @staticmethod
    def _assert_same_fit(params, solo):
        np.testing.assert_array_equal(params.weights, solo.weights)
        for c1, c2 in zip(params.clusters, solo.clusters, strict=True):
            np.testing.assert_array_equal(c1.coeffs, c2.coeffs)
            np.testing.assert_array_equal(c1.variances, c2.variances)
            np.testing.assert_array_equal(c1.logistic.coef, c2.logistic.coef)

    def test_leader_equals_its_own_fit_and_the_others_are_screened(self, monkeypatch):
        # the kept restart goes on from its exact state, and its own fit
        # goes on alone after as many iterations, so both are extrapolated
        # alike: the leader ends, bit for bit, where its own fit ends
        values, grid = self._data()
        cfg = self._config()
        starts = self._spy_starts(monkeypatch)
        params, report = em_fit(values, grid, cfg)
        assert mixrhlp._SCREEN_AT == 20 < cfg.max_iter
        assert len(starts) == len(report.restarts) == 3
        # the leader here is not restart 0, so ties play no part
        assert report.best_restart == 1
        assert report.iterations > mixrhlp._SCREEN_AT
        monkeypatch.undo()
        solos = self._solo_fits(values, grid, cfg, starts)
        screen = mixrhlp._SCREEN_AT + 1
        for r, ((solo, solo_report), record) in enumerate(zip(solos, report.restarts)):
            if r == report.best_restart:
                assert report.loglik_trace == solo_report.loglik_trace
                assert np.all(np.diff(report.loglik_trace) >= -1e-8)
                self._assert_same_fit(params, solo)
                assert record == solo_report.restarts[0]
                assert record.stop_reason == "tol" and report.converged
                assert record.extrapolations_accepted > 0
                # the kept parameters are those of the last trace entry
                design = vandermonde(grid, cfg.degree)
                assert mixrhlp_loglik_set(params, values, design).sum() == pytest.approx(
                    record.loglik, rel=1e-12)
            else:
                # a screened restart stops where its own fit stood after 20
                assert record.stop_reason == "screened"
                assert record.iterations == mixrhlp._SCREEN_AT
                assert record.loglik == solo_report.loglik_trace[mixrhlp._SCREEN_AT]
                assert record.loglik < report.loglik_trace[mixrhlp._SCREEN_AT]
                assert record.extrapolations_accepted == record.extrapolations_rejected == 0
                assert len(solo_report.loglik_trace) > screen
            assert solo_report.restarts[0].stop_reason != "screened"
            assert solo_report.restarts[0].extrapolations_accepted > 0

    def test_unconverged_leader_hands_on_to_the_screened(self, monkeypatch):
        # with max_iter 100 the leader stops at the cap even with SQUAREM,
        # so the screened restarts go on by plain EM and end where plain EM
        # from their starts ends; restart 2, second at iteration 20,
        # overtakes the leader and wins
        values, grid = self._data()
        cfg = self._config(max_iter=100, tol=1e-6)
        starts = self._spy_starts(monkeypatch)
        params, report = em_fit(values, grid, cfg)
        monkeypatch.undo()
        plain = self._plain_fits(monkeypatch, values, grid, cfg, starts)
        at_screen = [t.loglik_trace[mixrhlp._SCREEN_AT] for _, t in plain]
        assert at_screen[1] > at_screen[2] > at_screen[0]
        leader = report.restarts[1]
        assert leader.stop_reason == "max_iter" and leader.iterations == cfg.max_iter
        assert leader.extrapolations_accepted > 0
        for r in (0, 2):
            assert report.restarts[r] == plain[r][1].restarts[0]
            assert report.restarts[r].stop_reason == "max_iter"
        assert report.best_restart == 2
        assert list(report.loglik_trace) == list(plain[2][1].loglik_trace)
        self._assert_same_fit(params, plain[2][0])

    @pytest.mark.parametrize("handoff", ["tol", "likelihood_drop", "max_iter"])
    def test_screened_go_on_if_the_leader_stops_unconverged(self, monkeypatch, handoff):
        # scripted restarts: a restart's params are (restart, iteration),
        # and its log-likelihood climbs by 1 an iteration along its row;
        # restart 0 leads at iteration 20 and stops at 30 or 31 by
        # ``handoff``, and restart 2 would meet tol at 41. Every
        # extrapolated point of the leader fails, so its SQUAREM cycles
        # take plain maps only (their kept stabilising maps from theta2
        # included) and it follows its row
        rows = [np.arange(102.0) + offset for offset in (0.3, 0.1, 0.2, 0.0)]
        if handoff == "likelihood_drop":
            rows[0][31] = 0.0
        else:
            rows[0][31:] = rows[0][30]
        rows[2][41:] = rows[2][40]

        def e_step(params):
            r, k = params
            return None, float(rows[r][k]), None

        def m_step(stats, params, rescue, per_curve, pending):
            return (params[0], params[1] + 1), False

        monkeypatch.setattr(mixrhlp, "_flatten", lambda params: np.array([float(params[1])]))
        monkeypatch.setattr(mixrhlp, "_restore", lambda x, like, floor: None)
        config = EmConfig(max_iter=30 if handoff == "max_iter" else 100, tol=0.5,
                          n_restarts=4)
        runs = mixrhlp._ascend(e_step, m_step, [(r, 0) for r in range(4)], config, 1e-10)
        for r, ((_, k), trace, *_) in enumerate(runs):
            assert trace == list(rows[r][:k + 1])
        stops = [stop for _, _, stop, *_ in runs]
        iterations = [params[1] for params, *_ in runs]
        if handoff == "tol":
            assert stops == ["tol", "screened", "screened", "screened"]
            assert iterations == [31, 20, 20, 20]
        elif handoff == "likelihood_drop":
            # the rejected update of iteration 31 is not kept, and the
            # screened restarts go on to their own ends
            assert stops == ["likelihood_drop", "max_iter", "tol", "max_iter"]
            assert iterations == [30, 100, 41, 100]
        else:
            assert stops == ["max_iter"] * 4
            assert iterations == [30] * 4

    @pytest.mark.parametrize("failure", ["non-finite", "overflows", "lower", "raises", "rescued"])
    def test_rejected_extrapolation_takes_the_plain_path(self, monkeypatch, failure):
        # scripted restarts: a restart's params are (restart, position), an
        # EM map adds 1 to the position, and the log-likelihood is the
        # position plus an offset. Restart 0 leads at 20. The second
        # difference of the positions is 0, so every step is at its bound.
        # A cycle with step -1 takes its second plain point as the S3 point
        # and keeps the stabilising map; every extrapolated point fails as
        # ``failure`` says, which takes the bound back to 1. An overflow at
        # an extrapolated point is no warning, even where warnings are
        # errors.
        offsets = (0.3, 0.1)

        def e_step(params):
            r, position, extrapolated = params
            if extrapolated and failure in ("raises", "overflows"):
                if failure == "overflows":
                    np.exp(np.array([1e3]))
                raise NumericalError("scripted")
            if extrapolated and failure == "lower":
                return None, 0.0, None
            return None, position + offsets[r], None

        def m_step(stats, params, rescue, per_curve, pending):
            r, position, extrapolated = params
            return (r, position + 1, extrapolated), rescue and extrapolated and failure == "rescued"

        def restore(x, like, floor):
            if failure == "non-finite":
                return None
            return (like[0], float(x[0]), True)

        monkeypatch.setattr(mixrhlp, "_flatten", lambda params: np.array([float(params[1])]))
        monkeypatch.setattr(mixrhlp, "_restore", restore)
        config = EmConfig(max_iter=30, tol=0.5, n_restarts=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            runs = mixrhlp._ascend(
                e_step, m_step, [(r, 0, False) for r in range(2)], config, 1e-10)
        (leader, trace, stop, *tally), (other, other_trace, other_stop, *other_tally) = runs
        # 20 lockstep maps, then cycles of the leader, restart 0: (21, 22)
        # with step -1 and the kept map to 23, which raises the bound to 4;
        # (24, 25) with step -4 to a failing point, which takes it back to
        # 1; (26, 27) with step -1 and the kept map to 28; then plain maps
        # to 29 and to the cap
        assert tally == [2, 1] and other_tally == [0, 0]
        assert leader == (0, 30, False) and stop == "max_iter"
        assert trace == [p + offsets[0] for p in range(31)]
        # the leader stopped unconverged, so restart 1 went on by plain EM
        assert other == (1, 30, False) and other_stop == "max_iter"
        assert other_trace == [p + offsets[1] for p in range(31)]

    def test_restart_that_met_tol_early_still_wins(self, monkeypatch):
        # restart 0 starts at a converged fit, so it meets tol at once and
        # leaves the lockstep long before the screening; the screening
        # picks a leader among the others, and restart 0 still wins the
        # best-of
        values, grid = self._data()
        cfg = self._config()
        converged, _ = em_fit(values, grid, dataclasses.replace(
            cfg, max_iter=500, tol=1e-10, n_restarts=1, seed=1))
        self._spy_starts(monkeypatch, first=converged)
        params, report = em_fit(values, grid, cfg)
        first, *others = report.restarts
        assert first.stop_reason == "tol" and first.iterations < mixrhlp._SCREEN_AT
        assert sorted(r.stop_reason for r in others) == ["screened", "tol"]
        assert report.best_restart == 0 and report.converged
        assert report.loglik_trace[-1] == first.loglik > max(r.loglik for r in others)

    def test_single_runs_are_not_screened(self):
        values, grid = self._data()
        cfg = self._config(n_restarts=1, max_iter=40, tol=1e-8)
        params, report = em_fit(values, grid, cfg)
        assert [r.stop_reason for r in report.restarts] == ["max_iter"]
        assert report.restarts[0].iterations == cfg.max_iter
        _, from_init = em_fit(values, grid, self._config(), init=params)
        assert len(from_init.restarts) == 1
        assert from_init.restarts[0].stop_reason != "screened"
        assert from_init.iterations > mixrhlp._SCREEN_AT

    @pytest.mark.parametrize("start", ["n_restarts", "init"])
    def test_lone_restart_is_extrapolated_to_tol(self, monkeypatch, start):
        # one restart, from a seed or from ``init``, follows plain EM for
        # ``_SCREEN_AT`` iterations and then goes on in SQUAREM cycles; it
        # stops at the first map gaining less than tol, so every earlier
        # increment of its trace is at least tol
        values, grid = self._data()
        cfg = self._config(n_restarts=1, tol=1e-6, seed=1)
        init = None
        if start == "init":
            init, _ = em_fit(values, grid, dataclasses.replace(cfg, max_iter=5, seed=2))
        starts = self._spy_starts(monkeypatch)  # none from init
        _, report = em_fit(values, grid, cfg, init=init)
        (record,) = report.restarts
        assert record.stop_reason == "tol" and report.converged
        assert record.extrapolations_accepted > 0
        assert mixrhlp._SCREEN_AT < report.iterations < cfg.max_iter
        increments = np.diff(report.loglik_trace)
        assert np.all(increments[:-1] >= cfg.tol) and 0 <= increments[-1] < cfg.tol
        monkeypatch.undo()
        ((_, plain),) = self._plain_fits(monkeypatch, values, grid, cfg, starts or [init])
        screen = mixrhlp._SCREEN_AT + 1
        assert report.loglik_trace[:screen] == plain.loglik_trace[:screen]

    @pytest.mark.parametrize("n_restarts", [1, 3])
    def test_fits_of_at_most_screen_at_iterations_are_plain_em(self, monkeypatch, n_restarts):
        values, grid = self._data()
        cfg = self._config(n_restarts=n_restarts, max_iter=mixrhlp._SCREEN_AT, tol=1e-8)
        starts = self._spy_starts(monkeypatch)
        params, report = em_fit(values, grid, cfg)
        monkeypatch.undo()
        plain = self._plain_fits(monkeypatch, values, grid, cfg, starts)
        assert report.restarts == tuple(t.restarts[0] for _, t in plain)
        solo, solo_report = plain[report.best_restart]
        assert report.loglik_trace == solo_report.loglik_trace
        self._assert_same_fit(params, solo)

    @pytest.mark.parametrize("rate, step_maxes, tally", [
        (0.5, [1.0, 4.0, 4.0, 4.0], (1, 3)),
        (0.875, [1.0, 4.0, 1.0], (2, 1)),
    ])
    def test_step_bound_shrinks_after_a_rejection_at_the_bound(
            self, monkeypatch, rate, step_maxes, tally):
        # one scripted restart: its params are (position, extrapolated), an
        # EM map adds 1 to the position and so to the log-likelihood, and
        # its SQUAREM coordinate is rate ** position, so that |r| / |v| is
        # 1 / (1 - rate): 2 or 8. Every extrapolated point raises. The
        # first cycle (21, 22) has step -1 and keeps its map to 23, which
        # raises the bound to 4. At rate 0.5 each later step is -2, below
        # the bound, and each rejection leaves the bound at 4. At rate
        # 0.875 the step -4 is at the bound, its rejection takes the bound
        # back to 1, and the next cycle (26, 27) keeps its map to 28.
        def e_step(params):
            if params[1]:
                raise NumericalError("scripted")
            return None, float(params[0]), None

        def m_step(stats, params, rescue, per_curve, pending):
            return (params[0] + 1, params[1]), False

        bounds = []
        real_step = mixrhlp._squarem_step

        def step_spy(r, v, step_max):
            bounds.append(step_max)
            return real_step(r, v, step_max)

        monkeypatch.setattr(mixrhlp, "_squarem_step", step_spy)
        monkeypatch.setattr(mixrhlp, "_flatten", lambda params: np.array([rate ** params[0]]))
        monkeypatch.setattr(mixrhlp, "_restore", lambda x, like, floor: (like[0], True))
        config = EmConfig(max_iter=30, tol=0.5, n_restarts=1)
        ((params, trace, stop, *counts),) = mixrhlp._ascend(
            e_step, m_step, [(0, False)], config, 1e-10)
        assert bounds == step_maxes
        assert tuple(counts) == tally
        assert params == (30, False) and stop == "max_iter"
        assert trace == [float(p) for p in range(31)]

    def test_no_screening_at_the_last_iteration(self):
        # with max_iter = 20 nothing would follow the screening, so every
        # live restart stops at the cap
        values, grid = self._data()
        _, report = em_fit(values, grid, self._config(max_iter=mixrhlp._SCREEN_AT))
        assert [r.stop_reason for r in report.restarts] == ["max_iter"] * 3

    def test_record_matches_the_report(self):
        values, grid = self._data()
        _, report = em_fit(values, grid, self._config())
        best = report.restarts[report.best_restart]
        assert best.loglik == report.loglik_trace[-1]
        assert best.iterations == report.iterations
        assert report.stop_reason == best.stop_reason
        assert report.converged == (best.stop_reason == "tol")
        assert all(r.stop_reason in mixrhlp.STOP_REASONS for r in report.restarts)


class TestSquarem:
    """The restart that goes on alone goes on in SQUAREM cycles, in the
    coordinates of ``_flatten``, which serve both families."""

    @staticmethod
    def _state():
        rng = np.random.default_rng(5)
        params = MixRhlpParams([0.2, 0.3, 0.5], tuple(
            rand_params(rng, 1, r, 2).clusters[0] for r in (2, 3, 2)))
        return _pack(params)

    def test_coordinates_round_trip(self):
        state = self._state()
        back = mixrhlp._restore(mixrhlp._flatten(state), state, 1e-10)
        np.testing.assert_allclose(back.weights, state.weights, rtol=1e-14)
        assert back.groups == state.groups
        for got, want in zip(back[2:], state[2:]):
            for a, b in zip(got, want):
                np.testing.assert_allclose(a, b, rtol=1e-14)
        # the gauge row is not a coordinate, and stays 0
        assert all(np.all(w[:, -1] == 0.0) for w in back.logistic)

    def test_restore_floors_and_overflow(self):
        state = self._state()
        x = mixrhlp._flatten(state)
        variance_at = len(state.weights) + state.coeffs[0].size
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            low = x.copy()
            low[0] = -1e4  # a log weight
            low[variance_at] = -1e4  # a log variance
            restored = mixrhlp._restore(low, state, 1e-6)
            assert restored.weights[0] == pytest.approx(mixrhlp._WEIGHT_FLOOR, rel=1e-9)
            assert restored.weights.sum() == pytest.approx(1.0, abs=1e-15)
            assert restored.variances[0].flat[0] == 1e-6
            high = x.copy()
            high[variance_at] = 1e3
            assert mixrhlp._restore(high, state, 1e-6) is None

    def test_accelerated_piecewise_fit_raises_no_warning(self):
        # an extrapolated point may lie far out; the guards keep its
        # overflows and divisions by zero from reaching numpy's warnings
        data = gen_piecewise(default_piecewise_spec(), seed=0)
        cfg = EmConfig(n_clusters=3, n_regimes=3, degree=0, max_iter=100, n_restarts=5, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, report = em_fit(data.values[data.labels == 1], data.grid, cfg)
        leader = report.restarts[report.best_restart]
        assert leader.extrapolations_accepted > 0
        assert report.converged
        assert np.all(np.diff(report.loglik_trace) >= -1e-8)
        assert sum(r.stop_reason == "screened" for r in report.restarts) == 4


class TestDegenerateInputs:
    """Inputs the model barely identifies fit without error, to a finite
    model with a monotone trace; README states each case."""

    def _check(self, params, report):
        assert np.all(np.diff(report.loglik_trace) >= -1e-8)
        assert np.isfinite(report.loglik_trace[-1])
        for c in params.clusters:
            for arr in (c.coeffs, c.variances, c.logistic.coef):
                assert np.all(np.isfinite(arr))

    def test_constant_curves_fit_at_variance_floor(self):
        g = TimeGrid(np.linspace(0, 1, 6))
        values = np.full((5, 6), 3.0)
        cfg = EmConfig(n_clusters=2, n_regimes=2, degree=1, n_restarts=2, max_iter=50, seed=1)
        params, report = em_fit(values, g, cfg)
        self._check(params, report)
        assert report.converged and report.iterations == 1
        for c in params.clusters:
            np.testing.assert_array_equal(c.variances, variance_floor(values))
            np.testing.assert_allclose(c.coeffs @ [1.0, 0.5], 3.0, rtol=1e-9)

    def test_as_many_clusters_as_curves(self):
        rng = np.random.default_rng(97)
        g = TimeGrid(np.linspace(0, 1, 6))
        cfg = EmConfig(n_clusters=3, n_regimes=2, degree=1, n_restarts=2, max_iter=50, seed=1)
        params, report = em_fit(rng.normal(size=(3, 6)), g, cfg)
        self._check(params, report)

    def test_two_point_grid_with_two_regimes(self):
        rng = np.random.default_rng(98)
        g = TimeGrid(np.array([0.0, 1.0]))
        cfg = EmConfig(n_clusters=2, n_regimes=2, degree=0, n_restarts=2, max_iter=50, seed=1)
        params, report = em_fit(rng.normal(size=(8, 2)), g, cfg)
        self._check(params, report)


class TestMeanCurves:
    def test_single_regime_is_polynomial(self):
        g = TimeGrid(np.linspace(0, 2, 9))
        design = vandermonde(g, 2)
        beta = np.array([[1.0, 0.5, -0.25]])
        params = MixRhlpParams(
            np.array([1.0]),
            (RhlpParams(LogisticWeights.zeros(1), beta, np.array([1.0])),),
        )
        np.testing.assert_allclose(
            mean_curves(params, g, design)[0], design.matrix @ beta[0], rtol=1e-12
        )

    def test_equal_betas_ignore_logistic(self):
        rng = np.random.default_rng(20)
        g = TimeGrid(np.linspace(0, 1, 7))
        design = vandermonde(g, 1)
        beta = np.array([0.3, 1.1])
        params = MixRhlpParams(
            np.array([1.0]),
            (
                RhlpParams(
                    LogisticWeights.gauge_fixed(rng.normal(size=(2, 2))),
                    np.vstack([beta, beta]),
                    np.array([1.0, 2.0]),
                ),
            ),
        )
        np.testing.assert_allclose(
            mean_curves(params, g, design)[0], design.matrix @ beta, rtol=1e-12
        )

    def test_step_between_two_levels(self):
        g = TimeGrid(np.linspace(0.0, 10.0, 101))
        design = vandermonde(g, 0)
        # early regime slope negative after gauge fixing; 0.5 crossing at t=5
        logistic = LogisticWeights(np.array([[50.0, -10.0], [0.0, 0.0]]))
        params = MixRhlpParams(
            np.array([1.0]),
            (
                RhlpParams(
                    logistic, np.array([[0.0], [10.0]]), np.array([0.5, 0.5])
                ),
            ),
        )
        curve = mean_curves(params, g, design)[0]
        assert np.all(curve[g.points < 3.0] < 1e-6)
        assert np.all(curve[g.points > 7.0] > 10.0 - 1e-6)
        assert curve[g.points == 5.0] == pytest.approx(5.0, abs=1e-9)
        # pointwise formula oracle
        scores = np.stack([50.0 - 10.0 * g.points, np.zeros(len(g))], axis=1)
        pi = np.exp(scores - scores.max(axis=1, keepdims=True))
        pi /= pi.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(curve, pi[:, 1] * 10.0, atol=1e-12)

    def test_convex_combination_bounds(self):
        rng = np.random.default_rng(21)
        g = TimeGrid(np.linspace(-1, 1, 11))
        design = vandermonde(g, 1)
        params = rand_params(rng, 2, 3, 1)
        curves = mean_curves(params, g, design)
        for k, cluster in enumerate(params.clusters):
            polys = design.matrix @ cluster.coeffs.T  # (m, R)
            assert np.all(curves[k] >= polys.min(axis=1) - 1e-12)
            assert np.all(curves[k] <= polys.max(axis=1) + 1e-12)


class TestBic:
    def test_parameter_count_examples(self):
        rng = np.random.default_rng(22)
        cases = [
            (3, 3, 0, 32),
            (1, 1, 0, 2),
            (1, 1, 3, 5),
            (2, 2, 1, 17),
            (2, 1, 0, 5),
            (1, 2, 0, 6),
            (1, 3, 2, 16),
            (3, 1, 1, 11),
            (2, 3, 3, 39),
            (4, 2, 2, 43),
        ]
        for K, R, p, expected in cases:
            params = rand_params(rng, K, R, p)
            assert n_free_parameters(params) == expected

    def test_bic_formula(self):
        rng = np.random.default_rng(23)
        params = rand_params(rng, 1, 1, 0)
        assert bic(params, -10.0, 100) == pytest.approx(
            -10.0 - math.log(100), rel=1e-12
        )
        assert bic(params, -10.0, 1) == -10.0  # log(1) = 0: no penalty


class TestSelectModel:
    def test_single_cell(self):
        rng = np.random.default_rng(24)
        g = TimeGrid(np.linspace(0, 1, 10))
        values = rng.normal(size=(6, 10))
        cfg = EmConfig(max_iter=15, n_restarts=1, seed=0)
        params, cells = select_model(values, g, [2], [3], 0, cfg)
        assert len(cells) == 1
        assert (params.n_clusters, params.regimes[0]) == (2, 3)

    def test_selects_simple_model_on_simple_data(self):
        rng = np.random.default_rng(25)
        g = TimeGrid(np.linspace(0, 1, 40))
        values = 1.5 + 0.1 * rng.normal(size=(12, 40))
        cfg = EmConfig(max_iter=60, n_restarts=2, seed=7)
        params, cells = select_model(values, g, [1, 2], [1, 2], 0, cfg)
        assert (params.n_clusters, params.regimes[0]) == (1, 1)
        by_kr = {(c.n_clusters, c.n_regimes): c for c in cells}
        assert by_kr[(1, 1)].bic > by_kr[(2, 2)].bic

    def test_table_consistent_with_bic(self):
        rng = np.random.default_rng(26)
        g = TimeGrid(np.linspace(0, 1, 12))
        values = rng.normal(size=(6, 12))
        cfg = EmConfig(max_iter=10, n_restarts=1, seed=1)
        _, cells = select_model(values, g, [1, 2], [1], 0, cfg)
        for cell in cells:
            expected = cell.loglik - 0.5 * cell.n_params * math.log(6)
            assert cell.bic == pytest.approx(expected, rel=1e-12)


class TestMixingProportions:
    @pytest.mark.parametrize(
        "weights", [[np.nan, 1.0], [np.nan, np.nan], [0.5, np.inf], [0.0, 1.0], [0.5, 0.4]]
    )
    def test_rejected(self, weights):
        clusters = tuple(RhlpParams(LogisticWeights.zeros(1), [[0.0]], [1.0]) for _ in weights)
        with pytest.raises(ValueError, match="mixing proportions"):
            MixRhlpParams(np.array(weights), clusters)


class TestPosteriorsValidation:
    def test_rejects_unnormalized_gamma(self):
        with pytest.raises(ValueError):
            Posteriors(np.array([[0.5, 0.6]]), (np.ones((1, 2, 1)), np.ones((1, 2, 1))))

    def test_rejects_unnormalized_tau(self):
        with pytest.raises(ValueError):
            Posteriors(np.array([[1.0]]), (np.full((1, 2, 2), 0.6),))

    def test_rejects_nan_tables(self):
        with pytest.raises(ValueError):
            Posteriors(np.array([[1.0]]), (np.full((1, 2, 2), np.nan),))
        with pytest.raises(ValueError):
            Posteriors(np.array([[np.nan, 1.0]]), (np.ones((1, 2, 1)), np.ones((1, 2, 1))))
