import json

import mpmath as mp
import numpy as np
import pytest

from oracles import mp_gauss
from regimix.core import Curve, LabeledCurveSet, TimeGrid, vandermonde
from regimix.discriminant import (
    VARIANTS,
    ClassifierModel,
    TrainConfig,
    class_logliks,
    class_mean_curves,
    classify,
    classify_set,
    model_from_json,
    model_to_json,
    train,
    train_detailed,
)
from regimix.baselines import SingleRegressionParams
from regimix.errors import DataError
from regimix.mixrhlp import mean_curves


def toy_dataset(rng, n1=6, n2=4, m=12, sep=5.0):
    g = TimeGrid(np.linspace(0, 1, m))
    a = rng.normal(size=(n1, m))
    b = sep + rng.normal(size=(n2, m))
    values = np.vstack([a, b])
    labels = np.array([1] * n1 + [2] * n2)
    return LabeledCurveSet(values, labels, g, 2)


class TestTrain:
    def test_priors_from_class_proportions(self):
        rng = np.random.default_rng(50)
        data = toy_dataset(rng, n1=75, n2=45, m=6)
        cfg = TrainConfig(variant="flda-pr", degree=1)
        model = train(data, cfg)
        np.testing.assert_allclose(model.priors, [0.625, 0.375], atol=1e-12)

    def test_single_class_prior(self):
        rng = np.random.default_rng(51)
        g = TimeGrid(np.linspace(0, 1, 5))
        data = LabeledCurveSet(rng.normal(size=(4, 5)), np.ones(4, dtype=int), g, 1)
        model = train(data, TrainConfig(variant="flda-pr", degree=0))
        np.testing.assert_array_equal(model.priors, [1.0])

    def test_flda_rhlp_is_single_cluster_mixrhlp(self):
        rng = np.random.default_rng(52)
        data = toy_dataset(rng)
        base = dict(degree=1, n_regimes=2, n_restarts=2, seed=9, max_iter=20)
        m1 = train(data, TrainConfig(variant="flda-rhlp", n_clusters=5, **base))
        m2 = train(data, TrainConfig(variant="fmda-mixrhlp", n_clusters=1, **base))
        assert model_to_json(m1).replace("flda-rhlp", "fmda-mixrhlp") == model_to_json(m2)

    def test_all_variants_train_and_classify(self):
        rng = np.random.default_rng(53)
        data = toy_dataset(rng, n1=8, n2=8, m=14)
        for variant in VARIANTS:
            cfg = TrainConfig(
                variant=variant,
                degree=1,
                n_clusters=2,
                n_regimes=2,
                interior_knots=3,
                n_restarts=1,
                max_iter=15,
                seed=0,
            )
            model = train(data, cfg)
            labels, post = classify_set(model, data.values)
            assert np.mean(labels == data.labels) == 1.0  # well separated
            np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-10)

    def test_reports_returned_for_em_variants(self):
        rng = np.random.default_rng(54)
        data = toy_dataset(rng)
        _, reports = train_detailed(
            data, TrainConfig(variant="fmda-prm", degree=0, n_clusters=2,
                              n_restarts=1, max_iter=10)
        )
        assert all(rep is not None for rep in reports)
        _, reports = train_detailed(data, TrainConfig(variant="flda-pr", degree=0))
        assert all(rep is None for rep in reports)


class TestClassify:
    def test_single_class_posterior(self):
        rng = np.random.default_rng(55)
        g = TimeGrid(np.linspace(0, 1, 5))
        data = LabeledCurveSet(rng.normal(size=(4, 5)), np.ones(4, dtype=int), g, 1)
        model = train(data, TrainConfig(variant="flda-pr", degree=0))
        label, post = classify(model, data.curve(0))
        assert label == 1
        np.testing.assert_array_equal(post, [1.0])

    def test_equal_likelihood_decided_by_priors(self):
        g = TimeGrid(np.linspace(0, 1, 4))
        shared = SingleRegressionParams(np.array([0.0]), 1.0)
        model = ClassifierModel(
            variant="flda-pr",
            priors=np.array([0.625, 0.375]),
            class_models=(shared, shared),
            basis=vandermonde(g, 0).basis,
            grid=g,
        )
        label, post = classify(model, Curve(np.zeros(4), g))
        assert label == 1
        np.testing.assert_allclose(post, [0.625, 0.375], atol=1e-12)

    def test_posteriors_match_brute_force_bayes(self):
        rng = np.random.default_rng(56)
        g = TimeGrid(np.linspace(0, 1, 4))
        models = (
            SingleRegressionParams(rng.normal(size=1), 0.9),
            SingleRegressionParams(rng.normal(size=1), 1.7),
        )
        priors = np.array([0.3, 0.7])
        model = ClassifierModel(
            variant="flda-pr",
            priors=priors,
            class_models=models,
            basis=vandermonde(g, 0).basis,
            grid=g,
        )
        values = rng.normal(size=4)
        _, post = classify(model, Curve(values, g))
        dens = []
        for prior, cm in zip(priors, models):
            mean = vandermonde(g, 0).matrix @ cm.coeffs
            d = mp.mpf(1)
            for j in range(4):
                d *= mp_gauss(values[j], mean[j], cm.variance)
            dens.append(mp.mpf(float(prior)) * d)
        total = mp.fsum(dens)
        expected = [float(d / total) for d in dens]
        np.testing.assert_allclose(post, expected, rtol=1e-9)

    def test_argmax_invariant_to_common_loglik_shift(self):
        rng = np.random.default_rng(57)
        data = toy_dataset(rng)
        model = train(data, TrainConfig(variant="flda-pr", degree=1))
        logliks = class_logliks(model, data.values)
        log_post = np.log(model.priors)[None, :] + logliks
        labels = np.argmax(log_post, axis=1) + 1
        shifted = np.argmax(log_post + 123.45, axis=1) + 1
        np.testing.assert_array_equal(labels, shifted)

    def test_repeated_calls_bitwise_identical(self):
        rng = np.random.default_rng(58)
        data = toy_dataset(rng)
        model = train(data, TrainConfig(variant="fmda-prm", degree=0, n_clusters=2,
                                        n_restarts=1, max_iter=10))
        l1, p1 = classify_set(model, data.values)
        l2, p2 = classify_set(model, data.values)
        np.testing.assert_array_equal(l1, l2)
        np.testing.assert_array_equal(p1, p2)

    def test_curve_outside_every_class_rejected(self):
        # (x - mean)^2 overflows for such a curve, so every class log-density
        # is -inf and the posteriors would be nan
        rng = np.random.default_rng(60)
        data = toy_dataset(rng)
        model = train(data, TrainConfig(variant="fmda-mixrhlp", degree=0, n_clusters=2,
                                        n_regimes=2, n_restarts=1, max_iter=5))
        values = np.vstack([data.values[:2], np.full(len(data.grid), 1e200)])
        with np.errstate(over="ignore"), pytest.raises(DataError, match=r"\[2\]"):
            classify_set(model, values)

    def test_grid_mismatch_rejected(self):
        rng = np.random.default_rng(59)
        data = toy_dataset(rng)
        model = train(data, TrainConfig(variant="flda-pr", degree=0))
        other = TimeGrid(np.linspace(0, 2, len(data.grid)))
        with pytest.raises(DataError):
            classify(model, Curve(np.zeros(len(other)), other))


class TestMeanCurves:
    def test_flda_constant(self):
        rng = np.random.default_rng(60)
        g = TimeGrid(np.linspace(0, 1, 6))
        values = np.full((4, 6), 2.0) + 0.01 * rng.normal(size=(4, 6))
        data = LabeledCurveSet(values, np.ones(4, dtype=int), g, 1)
        model = train(data, TrainConfig(variant="flda-pr", degree=0))
        curves = class_mean_curves(model, 1)
        assert curves.shape == (1, 6)
        np.testing.assert_allclose(curves[0], values.mean(), atol=0.01)

    def test_fmda_prm_component_curves(self):
        rng = np.random.default_rng(61)
        data = toy_dataset(rng)
        model = train(
            data,
            TrainConfig(variant="fmda-prm", degree=1, n_clusters=2, n_restarts=1,
                        max_iter=10),
        )
        curves = class_mean_curves(model, 1)
        design = model.design
        for k, comp in enumerate(model.class_models[0].components):
            np.testing.assert_allclose(curves[k], design.matrix @ comp.coeffs)

    def test_fmda_mixrhlp_delegates(self):
        rng = np.random.default_rng(62)
        data = toy_dataset(rng)
        model = train(
            data,
            TrainConfig(variant="fmda-mixrhlp", degree=0, n_clusters=2, n_regimes=2,
                        n_restarts=1, max_iter=10),
        )
        expected = mean_curves(model.class_models[0], model.grid, model.design)
        np.testing.assert_array_equal(class_mean_curves(model, 1), expected)

    def test_bad_label_rejected(self):
        rng = np.random.default_rng(63)
        data = toy_dataset(rng)
        model = train(data, TrainConfig(variant="flda-pr", degree=0))
        with pytest.raises(ValueError):
            class_mean_curves(model, 3)


class TestClassifierSerialization:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_round_trip_all_variants(self, variant):
        rng = np.random.default_rng(64)
        data = toy_dataset(rng, n1=6, n2=6, m=14)
        cfg = TrainConfig(
            variant=variant, degree=1, n_clusters=2, n_regimes=2,
            interior_knots=3, n_restarts=1, max_iter=8, seed=0,
        )
        model = train(data, cfg)
        text = model_to_json(model)
        loaded = model_from_json(text)
        assert model_to_json(loaded) == text
        l1, p1 = classify_set(model, data.values)
        l2, p2 = classify_set(loaded, data.values)
        np.testing.assert_array_equal(l1, l2)
        np.testing.assert_array_equal(p1, p2)

    def test_malformed_document_rejected(self):
        with pytest.raises(DataError):
            model_from_json("not json at all {")
        with pytest.raises(DataError):
            model_from_json(json.dumps({"format_version": 0}))
