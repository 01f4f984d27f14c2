import numpy as np
import pytest

from regimix import core, logistic
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


class TestPreparedProblem:
    """``irls_fit`` checks its counts once and hands ``qw_value`` and
    ``qw_gradient_hessian`` the prepared problem; the answers are those of
    the public calls on the raw counts, bit for bit."""

    @pytest.mark.parametrize("G,R", [(1, 2), (2, 3), (3, 3), (4, 4)])
    def test_prepared_calls_equal_public_calls(self, G, R):
        rng = np.random.default_rng(100 + 10 * G + R)
        g = TimeGrid(np.sort(rng.uniform(-2.0, 5.0, size=17)))
        counts = rng.uniform(size=(G, 17, R))
        counts[0, :5, 0] = 0.0  # zero counts score 0
        weights = tuple(rand_weights(rng, R, scale=3.0) for _ in range(G))
        coef = np.array([w.coef for w in weights])
        prepared = logistic._Counts.prepare(counts, len(g), G)
        q, probs = qw_value(coef, g, prepared)
        np.testing.assert_array_equal(q, qw_value(weights, g, counts))
        public = qw_gradient_hessian(weights, g, counts)
        for given in (None, probs):
            got = qw_gradient_hessian(coef, g, prepared._replace(probs=given))
            for a, b in zip(got, public):
                np.testing.assert_array_equal(a, b)

    def test_single_process_counts_prepare_alike(self):
        # an (n, m, R) table of one process is summed over curves, as the
        # public calls sum it
        rng = np.random.default_rng(109)
        g = TimeGrid(np.linspace(0, 3, 11))
        counts = rand_counts(rng, 6, 11, 3)
        w = rand_weights(rng, 3)
        prepared = logistic._Counts.prepare(counts, len(g), None)
        q, probs = qw_value(w.coef[None], g, prepared)
        assert q[0] == qw_value(w, g, counts)
        got = qw_gradient_hessian(w.coef[None], g, prepared._replace(probs=probs))
        for a, b in zip(got, qw_gradient_hessian(w, g, counts)):
            np.testing.assert_array_equal(a[0], b)

    def test_reused_probabilities_equal_regime_probabilities(self):
        rng = np.random.default_rng(111)
        g = TimeGrid(np.linspace(0, 10, 23))
        for G in range(1, 5):
            for R in range(2, 5):
                weights = [rand_weights(rng, R, scale=s) for s in rng.uniform(0.1, 30, G)]
                coef = np.array([w.coef for w in weights])
                prepared = logistic._Counts.prepare(rng.uniform(size=(G, 23, R)), 23, G)
                _, probs = qw_value(coef, g, prepared)
                for k, w in enumerate(weights):
                    np.testing.assert_array_equal(probs[k].T, regime_probabilities(w, g))

    def test_coefficient_array_fit_equals_weights_fit(self):
        # the EM passes a (G, R, 2) array and gets the fitted array back
        rng = np.random.default_rng(113)
        g = TimeGrid(np.linspace(0, 1, 15))
        counts = rng.uniform(size=(3, 15, 3)) * rng.uniform(0.1, 10, size=(3, 1, 1))
        starts = tuple(rand_weights(rng, 3, scale=s) for s in (0.5, 2.0, 4.0))
        coef = np.array([w.coef for w in starts])
        fitted = irls_fit(coef, g, counts)
        assert isinstance(fitted, np.ndarray) and fitted.shape == (3, 3, 2)
        np.testing.assert_array_equal(fitted, [w.coef for w in irls_fit(starts, g, counts)])
        np.testing.assert_array_equal(coef, [w.coef for w in starts])  # input untouched


class TestIrlsFit:
    def test_uniform_counts_keep_zero_weights(self):
        g = grid(0.0, 0.5, 1.0)
        counts = np.full((4, 3, 3), 1.0 / 3.0)
        fitted = irls_fit(LogisticWeights.zeros(3), g, counts)
        np.testing.assert_allclose(fitted.coef, 0.0, atol=1e-9)

    def test_nan_counts_rejected(self):
        # a NaN count passes a ``counts < 0`` test; it must not be scored as 0
        g = TimeGrid(np.linspace(0.0, 1.0, 5))
        w = LogisticWeights(np.array([[1.0, -2.0], [0.0, 0.0]]))
        counts = np.ones((5, 2))
        counts[2, 1] = np.nan
        with pytest.raises(ValueError):
            qw_value(w, g, counts)
        with pytest.raises(ValueError):
            irls_fit(w, g, counts)

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

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("max_iter", [1, 4, 50])
    def test_concatenated_stacks_equal_their_own_fits(self, monkeypatch, max_iter):
        # EM concatenates the (G, R, 2) stacks of several M-steps into one
        # call; each stack must get, bit for bit, the result of its own call.
        # The stacks include G = 1 stacks, a member whose Hessian needs the
        # ridge, and a neighbour whose non-finite system sends the whole
        # concatenation down the per-member solves.
        rng = np.random.default_rng(67)
        g = TimeGrid(np.linspace(0, 1, 12))
        sizes = (1, 3, 1, 2, 1)
        coefs = [
            np.array([rand_weights(rng, 3, scale=s).coef for s in rng.uniform(0.1, 4, n)])
            for n in sizes
        ]
        counts = [
            rng.uniform(size=(n, 12, 3)) * rng.uniform(0.1, 10, size=(n, 1, 1)) for n in sizes
        ]
        counts[1][1] = 0.0
        counts[1][1, 5] = (1.0, 2.0, 3.0)  # mass at one time point: a singular Hessian
        counts[3][0, 2, 0] = np.inf  # a Newton system that cannot be solved
        _, hess = qw_gradient_hessian(LogisticWeights(coefs[1][1]), g, counts[1][1])
        eigvals = np.linalg.eigvalsh(-hess)
        assert not (eigvals[0] > 0 and eigvals[-1] <= core.MAX_CONDITION * eigvals[0])

        solves = []
        real_solve = core.ridge_solve

        def spy(gram, rhs):
            solves.append(np.ndim(rhs))
            return real_solve(gram, rhs)

        monkeypatch.setattr(core, "ridge_solve", spy)
        own = [irls_fit(c, g, k, max_iter=max_iter) for c, k in zip(coefs, counts)]
        solves.clear()
        joint = irls_fit(np.concatenate(coefs), g, np.concatenate(counts), max_iter=max_iter)
        assert 1 in solves  # the per-member path ran
        parts = np.split(joint, np.cumsum(sizes)[:-1])
        for got, want in zip(parts, own, strict=True):
            np.testing.assert_array_equal(got, want)
        assert not np.array_equal(own[1][1], coefs[1][1])  # the ridge member moved

    def test_unmoved_problem_keeps_its_input_object(self):
        # the stack iterates on one coefficient array; only a problem that
        # moved gets a new LogisticWeights, gauge row pinned
        rng = np.random.default_rng(53)
        g = TimeGrid(np.linspace(0, 1, 9))
        counts = rand_counts(rng, 2, 9, 3)
        settled = irls_fit(LogisticWeights.zeros(3), g, counts[0], max_iter=300, tol=1e-13)
        starts = (settled, rand_weights(rng, 3, scale=2.0))
        fitted = irls_fit(starts, g, counts)
        assert fitted[0] is starts[0]
        assert fitted[1] is not starts[1]
        np.testing.assert_array_equal(fitted[1].coef[-1], [0.0, 0.0])

    def test_non_finite_candidate_rejected(self, monkeypatch):
        # a step that overflows raises the error LogisticWeights raises
        g = TimeGrid(np.linspace(0, 1, 6))
        counts = rand_counts(np.random.default_rng(59), 2, 6, 2)
        monkeypatch.setattr(
            logistic, "_newton_directions", lambda grad, hess: np.sign(grad) * np.inf
        )
        with pytest.raises(ValueError, match="finite"):
            irls_fit(LogisticWeights.zeros(2), g, counts)

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
