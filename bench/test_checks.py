"""Tests of the benchmark's reference code and output checks.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q bench

The reference functions must match values worked out by hand on tiny
instances, and every check must pass the package's real output and
reject it once corrupted.
"""

import math

import numpy as np
import pytest

import checks
import reference

LOG_2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# reference code on hand-computed instances
# ---------------------------------------------------------------------------


def test_regime_probabilities_by_hand():
    # scores (t, 0): equal at t = 0, odds 3:1 at t = ln 3
    log_pi = reference.regime_log_probs([[0.0, 1.0], [0.0, 0.0]], [0.0, math.log(3.0)])
    assert np.allclose(np.exp(log_pi), [[0.5, 0.5], [0.75, 0.25]], rtol=0, atol=1e-15)


def test_single_regime_curve_loglik_by_hand():
    cluster = ([[0.0, 0.0]], [[2.0]], [1.0])
    got = reference.cluster_curve_logliks(np.array([[2.0, 3.0]]), [0.0, 1.0], cluster)
    assert got[0] == pytest.approx(-LOG_2PI - 0.5, rel=1e-15)


def test_two_regime_point_density_by_hand():
    # pi = (1/2, 1/2); x = 1 is one unit from both means 0 and 2
    cluster = ([[0.0, 0.0], [0.0, 0.0]], [[0.0], [2.0]], [1.0, 1.0])
    got = reference.cluster_curve_logliks(np.array([[1.0]]), [0.0], cluster)
    assert got[0] == pytest.approx(-0.5 * LOG_2PI - 0.5, rel=1e-15)


def test_polynomial_regime_mean_by_hand():
    # mean 1 + 2t at t = 3 is 7, the curve sits on it
    cluster = ([[0.0, 0.0]], [[1.0, 2.0]], [4.0])
    got = reference.cluster_curve_logliks(np.array([[7.0]]), [3.0], cluster)
    assert got[0] == pytest.approx(-0.5 * (LOG_2PI + math.log(4.0)), rel=1e-15)


def test_mixture_of_equal_clusters_is_the_cluster():
    cluster = ([[0.0, 0.0]], [[0.0]], [1.0])
    values = np.array([[0.3, -1.2], [2.0, 0.1]])
    single = reference.cluster_curve_logliks(values, [0.0, 1.0], cluster)
    mixed = reference.mixrhlp_curve_logliks(values, [0.0, 1.0], [0.25, 0.75], [cluster, cluster])
    assert np.allclose(mixed, single, rtol=1e-15, atol=0)


def test_map_rule_by_hand():
    labels, posteriors = reference.map_rule(np.array([[0.0, math.log(3.0)]]), [0.5, 0.5])
    assert labels.tolist() == [2]
    assert np.allclose(posteriors, [[0.25, 0.75]], rtol=0, atol=1e-15)


def test_free_parameters_by_hand():
    assert reference.n_free_parameters(1, (1,), 0) == 2  # one mean, one variance
    # 1 proportion + per cluster 2*4 coefficients, 2 variances, 2 logistic weights
    assert reference.n_free_parameters(2, (2, 2), 3) == 25


def test_flda_pr_cv_by_hand():
    # fold A trains on (10,12) vs (11,13), fold B on (0,2) vs (1,3); each
    # fold then sends one of its two held-out curves to the wrong class
    values = np.array([[0.0, 2.0], [10.0, 12.0], [1.0, 3.0], [11.0, 13.0]])
    labels = np.array([1, 1, 2, 2])
    rate, per_fold = reference.flda_pr_cv(values, labels, [np.array([0, 2]), np.array([1, 3])])
    assert per_fold == [0.5, 0.5] and rate == 0.5


def test_partition_by_hand():
    labels = np.array([1, 1, 1, 2, 2])
    assert reference.is_stratified_partition([[0, 3], [1, 4], [2]], labels, 3)
    assert not reference.is_stratified_partition([[0, 3], [1, 4], [2, 4]], labels, 3)  # 4 twice
    assert not reference.is_stratified_partition([[0, 3], [1, 4]], labels, 3)  # 2 folds
    assert not reference.is_stratified_partition([[0, 1, 3], [2, 4], []], labels, 3)  # class 1: 2, 1, 0


def test_agreement_by_hand():
    assert reference.best_agreement([0, 0, 1, 1], [2, 2, 1, 1]) == 1.0
    assert reference.best_agreement([0, 1, 1, 1], [1, 1, 2, 2]) == 0.75


# ---------------------------------------------------------------------------
# every workload check passes real output and rejects it corrupted
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def waveform_fit():
    regimix = pytest.importorskip("regimix")
    spec = regimix.WaveformSpec(curves_per_class=40, merge=True)
    data = regimix.gen_waveform(spec, 0)
    merged = data.labels == 1
    config = regimix.EmConfig(n_clusters=2, n_regimes=2, degree=3, max_iter=15, n_restarts=1)
    params, report = regimix.em_fit(data.values[merged], data.grid, config)
    clusters = [(c.logistic.coef, c.coeffs, c.variances) for c in params.clusters]
    return data, data.values[merged], spec, params, report, clusters


def test_loglik_check(waveform_fit):
    data, values, _, params, report, clusters = waveform_fit
    loglik = report.loglik_trace[-1]
    t = data.grid.points
    assert checks.loglik_matches(loglik, values, t, params.weights, clusters) == []
    assert checks.loglik_matches(loglik * (1 + 1e-6), values, t, params.weights, clusters)


def test_monotone_check(waveform_fit):
    trace = list(waveform_fit[4].loglik_trace)
    assert checks.monotone(trace) == []
    trace[-1] = trace[-2] - 1e-6
    assert checks.monotone(trace)
    doc = {"per_class": [None, {"loglik_trace": trace}]}
    assert checks.report_traces_monotone(doc)


def test_bic_check(waveform_fit):
    _, values, _, params, report, _ = waveform_fit
    args = (report.loglik_trace[-1], values.shape[0], params.n_clusters, params.regimes, 3)
    assert checks.bic_matches(report.bic, *args) == []
    assert checks.bic_matches(report.bic * (1 + 1e-6), *args)


def test_cluster_recovery_check(waveform_fit):
    data, values, spec, params, _, clusters = waveform_fit
    import regimix

    origin = regimix.waveform_subclass_origin(spec)[data.labels == 1]
    logliks = reference.mixrhlp_cluster_logliks(values, data.grid.points, params.weights, clusters)
    assert checks.clusters_recover(logliks, origin) == []
    shuffled = np.random.default_rng(0).permutation(origin)
    assert checks.clusters_recover(logliks, shuffled)


@pytest.fixture(scope="module")
def piecewise():
    regimix = pytest.importorskip("regimix")
    return regimix.gen_piecewise(regimix.default_piecewise_spec(), 0)


def test_fold_checks(piecewise):
    import regimix

    folds = regimix.kfold_split(piecewise, 5, 0)
    assert checks.folds_partition(folds, piecewise.labels, 5) == []
    broken = [f.copy() for f in folds]
    broken[1][0] = broken[0][0]  # one curve in two folds, another in none
    assert checks.folds_partition(broken, piecewise.labels, 5)


def test_flda_pr_and_fold_mean_checks(piecewise):
    import regimix

    folds = regimix.kfold_split(piecewise, 5, 0)
    config = regimix.TrainConfig(variant="flda-pr", degree=0)
    rate, per_fold = regimix.cv_error_rate(piecewise, config, k=5, seed=0)
    args = (piecewise.values, piecewise.labels, folds)
    assert checks.flda_pr_matches(rate, per_fold, *args) == []
    assert checks.fold_mean(rate, per_fold) == []
    wrong = (per_fold[0] + 0.125,) + tuple(per_fold[1:])
    assert checks.flda_pr_matches(float(np.mean(wrong)), wrong, *args)
    assert checks.fold_mean(rate, wrong)


def test_ordering_check():
    results = {"fmda-mixrhlp": (0.0, 900.0), "flda-pr": (0.25, 10000.0), "fmda-prm": (0.1, 9000.0)}
    assert checks.paper_ordering(results, "fmda-mixrhlp") == []
    assert checks.paper_ordering({**results, "fmda-prm": (0.0, 9000.0)}, "fmda-mixrhlp")
    assert checks.paper_ordering({**results, "flda-pr": (0.04, 10000.0)}, "fmda-mixrhlp")


def test_prediction_check(waveform_fit):
    import regimix

    data = waveform_fit[0]
    config = regimix.TrainConfig(variant="fmda-mixrhlp", degree=3, n_clusters=2, n_regimes=2,
                                 max_iter=15, n_restarts=1)
    model = regimix.train(data, config)
    labels, posteriors = regimix.classify_set(model, data.values)
    class_logliks = np.column_stack([
        reference.mixrhlp_curve_logliks(
            data.values, data.grid.points, cm.weights,
            [(c.logistic.coef, c.coeffs, c.variances) for c in cm.clusters],
        )
        for cm in model.class_models
    ])
    ref_labels, ref_posteriors = reference.map_rule(class_logliks, model.priors)
    assert checks.predictions_match(labels, posteriors, ref_labels, ref_posteriors) == []
    flipped = labels.copy()
    flipped[0] = 3 - flipped[0]
    assert checks.predictions_match(flipped, posteriors, ref_labels, ref_posteriors)
    nudged = posteriors.copy()
    nudged[0] += [1e-6, -1e-6]
    assert checks.predictions_match(labels, nudged, ref_labels, ref_posteriors)


def test_majority_and_command_checks(tmp_path):
    assert checks.below_majority(0.2, "x") == []
    assert checks.below_majority(1.0 / 3.0, "x")
    written = tmp_path / "a.csv"
    written.write_text("1\n")
    assert checks.command_ok(0, [str(written)]) == []
    assert checks.command_ok(3, [str(written)])
    assert checks.command_ok(0, [str(tmp_path / "missing.csv")])
