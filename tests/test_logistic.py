import numpy as np
import pytest

from regimix import logistic
from regimix.core import TimeGrid
from regimix.logistic import (
    LogisticWeights,
    irls_fit,
    log_regime_probabilities,
    qw_gradient_hessian,
    qw_value,
    regime_probabilities,
)


def grid(*pts):
    return TimeGrid(np.array(pts, dtype=float))


def rand_weights(rng, n_regimes, scale=1.0):
    raw = rng.normal(scale=scale, size=(n_regimes, 2))
    return LogisticWeights.gauge_fixed(raw)


class TestLogisticWeights:
    def test_gauge_row_enforced(self):
        with pytest.raises(ValueError):
            LogisticWeights(np.array([[1.0, 2.0], [0.5, 0.0]]))

    def test_gauge_fixed_pins_last_row(self):
        w = LogisticWeights.gauge_fixed(np.array([[1.0, 2.0], [3.0, -1.0]]))
        np.testing.assert_array_equal(w.coef[-1], [0.0, 0.0])


class TestRegimeProbabilities:
    def test_single_regime_all_ones(self):
        probs = regime_probabilities(LogisticWeights.zeros(1), grid(0.0, 1.0, 2.0))
        np.testing.assert_array_equal(probs, np.ones((3, 1)))

    def test_zero_weights_uniform(self):
        probs = regime_probabilities(LogisticWeights.zeros(3), grid(-1.0, 0.0, 1.0))
        np.testing.assert_allclose(probs, np.full((3, 3), 1.0 / 3.0), atol=1e-15)

    def test_matches_direct_softmax(self):
        w = LogisticWeights(np.array([[0.0, 10.0], [0.0, 0.0]]))
        probs = regime_probabilities(w, grid(-1.0, 1.0))
        for j, t in enumerate((-1.0, 1.0)):
            scores = np.array([10.0 * t, 0.0])
            direct = np.exp(scores) / np.exp(scores).sum()
            np.testing.assert_allclose(probs[j], direct, rtol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        g = TimeGrid(np.linspace(-3, 3, 25))
        for _ in range(10):
            probs = regime_probabilities(rand_weights(rng, 4, scale=20.0), g)
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_shift_invariance(self):
        # adding a common (intercept, slope) row to all components before
        # gauge-fixing leaves the probabilities unchanged
        rng = np.random.default_rng(3)
        g = TimeGrid(np.linspace(0, 5, 11))
        raw = rng.normal(size=(3, 2))
        shifted = raw + np.array([2.5, -1.25])[None, :]
        p1 = regime_probabilities(LogisticWeights.gauge_fixed(raw), g)
        p2 = regime_probabilities(LogisticWeights.gauge_fixed(shifted), g)
        np.testing.assert_allclose(p1, p2, atol=1e-12)


def rand_counts(rng, n, m, R):
    return rng.uniform(0.0, 1.0, size=(n, m, R))


class TestGradientHessian:
    def test_zero_gradient_at_symmetric_optimum(self):
        g = grid(0.0, 1.0, 2.0)
        counts = np.full((2, 3, 3), 1.0 / 3.0)
        grad, _ = qw_gradient_hessian(LogisticWeights.zeros(3), g, counts)
        np.testing.assert_allclose(grad, 0.0, atol=1e-14)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        g = grid(0.0, 0.7, 1.9)
        counts = rand_counts(rng, 2, 3, 2)
        w = rand_weights(rng, 2)
        grad, _ = qw_gradient_hessian(w, g, counts)
        step = 1e-6
        for idx in range(grad.size):
            free = w.coef[:-1].reshape(-1).copy()
            up, down = free.copy(), free.copy()
            up[idx] += step
            down[idx] -= step

            def q_at(v):
                coef = np.zeros_like(w.coef)
                coef[:-1] = v.reshape(-1, 2)
                return qw_value(LogisticWeights(coef), g, counts)

            fd = (q_at(up) - q_at(down)) / (2 * step)
            assert grad[idx] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_hessian_negative_semidefinite_and_symmetric(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            R = int(rng.integers(2, 5))
            m = int(rng.integers(3, 9))
            g = TimeGrid(np.sort(rng.uniform(-2, 2, size=m)))
            counts = rand_counts(rng, 3, m, R)
            w = rand_weights(rng, R, scale=2.0)
            _, hess = qw_gradient_hessian(w, g, counts)
            np.testing.assert_allclose(hess, hess.T, atol=1e-10)
            eig = np.linalg.eigvalsh(hess)
            assert np.all(eig <= 1e-10)

    def test_stack_matches_single_processes(self):
        rng = np.random.default_rng(41)
        g = TimeGrid(np.linspace(-1, 2, 9))
        weights = tuple(rand_weights(rng, 3, scale=2.0) for _ in range(4))
        counts = rng.uniform(size=(4, 9, 3))
        q = qw_value(weights, g, counts)
        grad, hess = qw_gradient_hessian(weights, g, counts)
        assert q.shape == (4,) and grad.shape == (4, 4) and hess.shape == (4, 4, 4)
        for k, w in enumerate(weights):
            assert q[k] == pytest.approx(qw_value(w, g, counts[k]), rel=1e-14)
            g1, h1 = qw_gradient_hessian(w, g, counts[k])
            np.testing.assert_allclose(grad[k], g1, rtol=1e-13, atol=1e-13)
            np.testing.assert_allclose(hess[k], h1, rtol=1e-13, atol=1e-13)
        log_pi = log_regime_probabilities(weights, g)
        assert log_pi.shape == (4, 9, 3)
        np.testing.assert_array_equal(log_pi[1], log_regime_probabilities(weights[1], g))

    def test_stack_needs_one_regime_count(self):
        g = grid(0.0, 1.0)
        with pytest.raises(ValueError):
            qw_value((LogisticWeights.zeros(2), LogisticWeights.zeros(3)), g,
                     np.ones((2, 2, 2)))
        with pytest.raises(ValueError):
            qw_value((LogisticWeights.zeros(2),), g, np.ones((2, 2)))

    def test_single_regime_is_empty(self):
        grad, hess = qw_gradient_hessian(
            LogisticWeights.zeros(1), grid(0.0, 1.0), np.ones((1, 2, 1))
        )
        assert grad.shape == (0,)
        assert hess.shape == (0, 0)


class TestIrlsFit:
    def test_uniform_counts_keep_zero_weights(self):
        g = grid(0.0, 0.5, 1.0)
        counts = np.full((4, 3, 3), 1.0 / 3.0)
        fitted = irls_fit(LogisticWeights.zeros(3), g, counts)
        np.testing.assert_allclose(fitted.coef, 0.0, atol=1e-9)

    def test_max_iter_zero_is_noop(self):
        rng = np.random.default_rng(5)
        w = rand_weights(rng, 3)
        fitted = irls_fit(w, grid(0.0, 1.0), rand_counts(rng, 2, 2, 3), max_iter=0)
        np.testing.assert_array_equal(fitted.coef, w.coef)

    def test_hard_split_crosses_threshold(self):
        # counts: regime 1 before t=0, regime 2 after; fitted probabilities
        # must cross 0.5 at the threshold with a steep positive slope for
        # the late regime
        m = 21
        g = TimeGrid(np.linspace(-1.0, 1.0, m))
        counts = np.zeros((1, m, 2))
        counts[0, g.points < 0.0, 0] = 1.0
        counts[0, g.points >= 0.0, 1] = 1.0
        fitted = irls_fit(LogisticWeights.zeros(2), g, counts, max_iter=200)
        probs = regime_probabilities(fitted, g)
        late = probs[:, 1]
        assert late[0] < 0.5 < late[-1]
        crossing = np.interp(0.5, late, g.points)
        assert abs(crossing) < 0.11  # within one grid step of the threshold
        # slope of the late-regime component relative to the early one
        assert fitted.coef[0, 1] < 0  # after gauge fixing, early regime slopes down

    def test_matches_gradient_ascent_oracle(self):
        # independent slow optimizer on the same objective
        rng = np.random.default_rng(17)
        m, R = 6, 3
        g = TimeGrid(np.sort(rng.uniform(-1, 1, size=m)))
        counts = rand_counts(rng, 4, m, R)
        init = LogisticWeights.zeros(R)
        fitted = irls_fit(init, g, counts, max_iter=300, tol=1e-13)

        free = np.zeros(2 * (R - 1))
        step = 0.05
        q = qw_value(init, g, counts)
        for _ in range(60000):
            grad, _ = qw_gradient_hessian(_from_free(free, R), g, counts)
            cand = free + step * grad
            q_cand = qw_value(_from_free(cand, R), g, counts)
            if q_cand <= q:
                step *= 0.5
                if step < 1e-12:
                    break
                continue
            if q_cand - q < 1e-14 * (1 + abs(q)):
                free, q = cand, q_cand
                break
            free, q = cand, q_cand
        assert qw_value(fitted, g, counts) == pytest.approx(q, rel=1e-8, abs=1e-6)

    def test_monotone_objective_per_iteration(self):
        rng = np.random.default_rng(29)
        g = TimeGrid(np.linspace(0, 1, 8))
        counts = rand_counts(rng, 3, 8, 3)
        w = rand_weights(rng, 3, scale=3.0)
        q_prev = qw_value(w, g, counts)
        for _ in range(12):
            w_next = irls_fit(w, g, counts, max_iter=1)
            q_next = qw_value(w_next, g, counts)
            assert q_next >= q_prev - 1e-10
            w, q_prev = w_next, q_next

    def test_stationary_start_stops_before_line_search(self, monkeypatch):
        rng = np.random.default_rng(31)
        g = TimeGrid(np.linspace(0, 1, 8))
        counts = rand_counts(rng, 3, 8, 3)
        fitted = irls_fit(LogisticWeights.zeros(3), g, counts, max_iter=300, tol=1e-13)

        calls = {"q": 0, "newton": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(logistic, "qw_value", counted("q", qw_value))
        monkeypatch.setattr(
            logistic, "qw_gradient_hessian", counted("newton", qw_gradient_hessian)
        )
        refitted = irls_fit(fitted, g, counts)
        assert calls == {"q": 1, "newton": 1}
        np.testing.assert_array_equal(refitted.coef, fitted.coef)

    def test_stacked_fit_equals_solo_fits(self, monkeypatch):
        # G problems with different starts, counts and stopping points: the
        # stack gives each one the result of its own solo fit, with one
        # gradient/Hessian call per Newton step of the stack
        rng = np.random.default_rng(43)
        g = TimeGrid(np.linspace(0, 1, 12))
        counts = rng.uniform(size=(5, 12, 3)) * rng.uniform(0.1, 10, size=(5, 1, 1))
        counts[3, :, 0] = 0.0  # a regime with no mass pushes its weights out
        starts = [rand_weights(rng, 3, scale=s) for s in (0.5, 3.0, 1.0, 2.0, 0.1)]
        starts[4] = irls_fit(starts[4], g, counts[4], max_iter=300, tol=1e-13)

        steps = {"n": 0}

        def counted(*args, **kwargs):
            steps["n"] += 1
            return qw_gradient_hessian(*args, **kwargs)

        monkeypatch.setattr(logistic, "qw_gradient_hessian", counted)
        for max_iter in (1, 4, 50):
            solo, solo_steps = [], []
            for k in range(5):
                steps["n"] = 0
                solo.append(irls_fit(starts[k], g, counts[k], max_iter=max_iter))
                solo_steps.append(steps["n"])
            steps["n"] = 0
            stacked = irls_fit(tuple(starts), g, counts, max_iter=max_iter)
            assert isinstance(stacked, tuple) and len(stacked) == 5
            assert steps["n"] == max(solo_steps)
            for k in range(5):
                np.testing.assert_allclose(
                    stacked[k].coef, solo[k].coef, rtol=1e-12, atol=1e-12
                )
                assert qw_value(stacked[k], g, counts[k]) == pytest.approx(
                    qw_value(solo[k], g, counts[k]), rel=1e-12
                )
        assert len(set(solo_steps)) > 1  # the problems stop at different steps

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_unsolvable_member_stops_alone(self):
        # an infinite count makes one problem's Newton system non-finite: that
        # problem stops at its start, as a solo fit does, and the others
        # still get their own fits
        rng = np.random.default_rng(47)
        g = TimeGrid(np.linspace(0, 1, 6))
        counts = rng.uniform(size=(3, 6, 2))
        counts[1, 2, 0] = np.inf
        starts = tuple(rand_weights(rng, 2) for _ in range(3))
        stacked = irls_fit(starts, g, counts)
        np.testing.assert_array_equal(stacked[1].coef, starts[1].coef)
        np.testing.assert_array_equal(stacked[1].coef, irls_fit(starts[1], g, counts[1]).coef)
        for k in (0, 2):
            solo = irls_fit(starts[k], g, counts[k])
            np.testing.assert_allclose(stacked[k].coef, solo.coef, rtol=1e-12, atol=1e-12)
            assert not np.array_equal(solo.coef, starts[k].coef)

    def test_degenerate_all_mass_one_regime(self):
        # objective is maximized by pushing probabilities to 1; must not
        # crash and must not decrease the objective
        g = TimeGrid(np.linspace(0, 1, 5))
        counts = np.zeros((1, 5, 2))
        counts[0, :, 0] = 1.0
        init = LogisticWeights.zeros(2)
        fitted = irls_fit(init, g, counts, max_iter=50)
        assert qw_value(fitted, g, counts) >= qw_value(init, g, counts)


def _from_free(free, R):
    coef = np.zeros((R, 2))
    coef[:-1] = free.reshape(-1, 2)
    return LogisticWeights(coef)
