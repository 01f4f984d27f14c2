import json
import pathlib
import warnings

import mpmath as mp
import numpy as np
import pytest

from json_mutations import mutations
from oracles import mp_gauss
from regimix.core import Basis, Curve, LabeledCurveSet, TimeGrid, vandermonde
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
from regimix.errors import DataError
from regimix.logistic import LogisticWeights
from regimix.mixrhlp import FitReport, MixRhlpParams, RhlpParams, mean_curves


DATA = pathlib.Path(__file__).parent / "data"


def regression(coeffs, variance):
    """A single regression's class model: one cluster with one regime."""
    return MixRhlpParams(
        np.array([1.0]),
        (RhlpParams(LogisticWeights.zeros(1), np.array([coeffs], dtype=float), [variance]),),
    )


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
        assert all(isinstance(rep, FitReport) for rep in reports)
        # a single regression is the one-cluster regression mixture: one
        # start, confirmed by one EM map that gains less than tol
        _, reports = train_detailed(data, TrainConfig(variant="flda-pr", degree=0))
        assert all(isinstance(rep, FitReport) for rep in reports)
        for rep in reports:
            assert rep.restarts_tried == 1
            assert rep.stop_reason == "tol" and rep.iterations == 1


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
        shared = regression([0.0], 1.0)
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

    def test_class_model_outside_the_model_rejected(self):
        g = TimeGrid(np.linspace(0, 1, 4))
        kw = dict(variant="flda-pr", priors=np.array([1.0]), basis=vandermonde(g, 1).basis, grid=g)
        ClassifierModel(class_models=(regression([0.0, 1.0], 1.0),), **kw)
        with pytest.raises(ValueError, match="design has 2 columns"):
            ClassifierModel(class_models=(regression([0.0], 1.0),), **kw)
        with pytest.raises(ValueError, match="not MixRhlpParams"):
            ClassifierModel(class_models=(object(),), **kw)

    def test_posteriors_match_brute_force_bayes(self):
        rng = np.random.default_rng(56)
        g = TimeGrid(np.linspace(0, 1, 4))
        models = (regression(rng.normal(size=1), 0.9), regression(rng.normal(size=1), 1.7))
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
            (cluster,) = cm.clusters
            mean = vandermonde(g, 0).matrix @ cluster.coeffs[0]
            d = mp.mpf(1)
            for j in range(4):
                d *= mp_gauss(values[j], mean[j], cluster.variances[0])
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

    def test_overflowing_curve_scored_without_invalid_value(self):
        # scoring only reduces the log-densities: a curve whose squares
        # overflow gives -inf, never a 0/0 or inf - inf
        rng = np.random.default_rng(61)
        data = toy_dataset(rng)
        model = train(data, TrainConfig(variant="fmda-mixrhlp", degree=0, n_clusters=2,
                                        n_regimes=2, n_restarts=1, max_iter=5))
        values = np.vstack([data.values[:1], np.full(len(data.grid), 1e200)])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DataError, match=r"\[1\]"):
                classify_set(model, values)
        assert not [w for w in caught if "invalid value" in str(w.message)]

    def test_grid_mismatch_rejected(self):
        rng = np.random.default_rng(59)
        data = toy_dataset(rng)
        model = train(data, TrainConfig(variant="flda-pr", degree=0))
        other = TimeGrid(np.linspace(0, 2, len(data.grid)))
        with pytest.raises(DataError):
            classify(model, Curve(np.zeros(len(other)), other))

    def test_values_of_another_width_rejected(self):
        # values are taken to lie on the model grid, so their width must be
        # the grid's; else a DataError names both
        model = model_from_json((DATA / "v1_fmda-mixrhlp.model.json").read_text())
        m = len(model.grid)
        for shape in [(3, m - 1), (3, m + 1), (m + 1,), (2, 3, m)]:
            with pytest.raises(DataError, match=rf"{shape[-1]}\) do not fit the model grid of {m} points"):
                classify_set(model, np.zeros(shape))


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
        for k, comp in enumerate(model.class_models[0].clusters):
            np.testing.assert_allclose(curves[k], design.matrix @ comp.coeffs[0])

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
        doc = json.loads(text)
        assert doc["format_version"] == 2
        assert [c["kind"] for c in doc["classes"]] == ["mixrhlp", "mixrhlp"]
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
        doc = json.loads((DATA / "v1_fmda-mixrhlp.model.json").read_text())
        # the version is an int exactly: true, 1.0 and 2.0 are no versions
        for version in (0, 3, True, 1.0, 2.0):
            with pytest.raises(DataError, match="format version"):
                model_from_json(json.dumps({**doc, "format_version": version}))


    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: [doc], r"model must be an object, got \[\{"),
            (lambda doc: {**doc, "priors": [{}, 0.5]}, r"model.priors\[0\] must be a number"),
            (lambda doc: {k: v for k, v in doc.items() if k != "grid"}, "model has no 'grid'"),
            (lambda doc: {**doc, "classes": [{**doc["classes"][0], "R": 2}]},
             r"model.classes\[0\].R must be a list, got 2"),
            (lambda doc: {**doc, "basis": {"kind": "polynomial", "degree": 1.0}},
             "model.basis.degree must be an integer, got 1.0"),
        ],
    )
    def test_malformed_structure_rejected(self, edit, message):
        # the loader checks the document's structure once, before any
        # constructor reads it
        doc = json.loads((DATA / "v1_fmda-mixrhlp.model.json").read_text())
        with pytest.raises(DataError, match=message):
            model_from_json(json.dumps(edit(doc)))

    def test_every_mutation_loads_or_is_data_error(self):
        # each leaf and subtree of a model document replaced by another JSON
        # value, or deleted: the result either loads and scores curves on
        # its grid to finite posteriors, or is a DataError
        doc = json.loads((DATA / "v1_fmda-mixrhlp.model.json").read_text())
        values = np.array(json.loads((DATA / "v1_classify_expected.json").read_text())["values"])
        for path, value, text in mutations(doc):
            try:
                model = model_from_json(text)
                _, posteriors = classify_set(model, values[:, : len(model.grid)])
            except DataError:
                continue
            assert np.all(np.isfinite(posteriors)), (path, value)

    @pytest.mark.parametrize("version", [1, 2])
    def test_nan_proportions_rejected(self, version):
        # a null prior or mixing proportion reads as NaN, which every test of
        # positive proportions summing to 1 must fail
        if version == 1:
            text = (DATA / "v1_fmda-mixrhlp.model.json").read_text()
        else:
            cfg = TrainConfig(variant="fmda-prm", degree=1, n_clusters=2, n_restarts=1,
                              max_iter=8, seed=0)
            text = model_to_json(train(toy_dataset(np.random.default_rng(65)), cfg))
        model_from_json(text)
        for edit in ("priors", "alphas"):
            doc = json.loads(text)
            (doc["priors"] if edit == "priors" else doc["classes"][0]["alphas"])[0] = None
            with pytest.raises(DataError, match="mixing proportions"):
                model_from_json(json.dumps(doc))


class TestClassDocuments:
    """The ``mixrhlp`` class documents of a model document."""

    @staticmethod
    def _model(seed, K, R, degree):
        """A one-class model with random parameters."""
        rng = np.random.default_rng(seed)
        clusters = tuple(
            RhlpParams(LogisticWeights.gauge_fixed(rng.normal(size=(R, 2))),
                       rng.normal(size=(R, degree + 1)), rng.uniform(0.3, 2.0, size=R))
            for _ in range(K)
        )
        raw = rng.uniform(0.2, 1.0, size=K)
        return ClassifierModel("fmda-mixrhlp", np.array([1.0]),
                               (MixRhlpParams(raw / raw.sum(), clusters),),
                               Basis.polynomial(degree), TimeGrid(np.linspace(0.0, 1.0, 5)))

    def test_round_trip_bit_exact(self):
        model = self._model(27, 2, 3, 2)
        text = model_to_json(model)
        loaded = model_from_json(text)
        (params,), (got,) = model.class_models, loaded.class_models
        np.testing.assert_array_equal(got.weights, params.weights)
        for a, b in zip(got.clusters, params.clusters, strict=True):
            np.testing.assert_array_equal(a.coeffs, b.coeffs)
            np.testing.assert_array_equal(a.variances, b.variances)
            np.testing.assert_array_equal(a.logistic.coef, b.logistic.coef)
        # serializing again yields identical text
        assert model_to_json(loaded) == text

    def test_version_checked(self):
        doc = json.loads(model_to_json(self._model(28, 1, 1, 0)))
        for version in (99, True, 1.0, 2.0):
            doc["classes"][0]["format_version"] = version
            with pytest.raises(DataError, match="format version"):
                model_from_json(json.dumps(doc))

    def test_shape_fields_checked(self):
        # K and R must agree with the parameter arrays they describe
        doc = json.loads(model_to_json(self._model(29, 2, 2, 1)))
        for key, value in (("K", 3), ("R", [2, 3]), ("R", [2])):
            edited = json.loads(json.dumps(doc))
            edited["classes"][0][key] = value
            with pytest.raises(DataError, match="shape fields disagree"):
                model_from_json(json.dumps(edited))


def _written_clusters(class_doc):
    """(coefficients, variances) of each cluster of a version-1 class
    document; a regression component is one regime."""
    if class_doc["kind"] == "mixrhlp":
        return [(c["betas"], c["variances"]) for c in class_doc["clusters"]]
    return [([c["coeffs"]], [c["variance"]]) for c in class_doc.get("components", [class_doc])]


class TestVersion1Documents:
    """Model files written by the format-1 writer (commit 036c4f0), with the
    labels and posteriors its ``classify_set`` gave on six held-out curves.
    The regression kinds now score through the regime kernel, which sums
    the same density point by point: the labels are the same and the
    posteriors agree to round-off. The ``mixrhlp`` kind scores as before,
    bit for bit."""

    EXPECTED = json.loads((DATA / "v1_classify_expected.json").read_text())

    @pytest.mark.parametrize("variant", ["flda-sr", "fmda-prm", "fmda-mixrhlp"])
    def test_loads_and_classifies_as_written(self, variant):
        text = (DATA / f"v1_{variant}.model.json").read_text()
        doc = json.loads(text)
        assert doc["format_version"] == 1
        model = model_from_json(text)
        assert model.variant == variant
        assert all(isinstance(cm, MixRhlpParams) for cm in model.class_models)
        for cm, class_doc in zip(model.class_models, doc["classes"]):
            written = _written_clusters(class_doc)
            assert len(cm.clusters) == len(written)
            for cluster, (coeffs, variances) in zip(cm.clusters, written):
                np.testing.assert_array_equal(cluster.coeffs, coeffs)
                np.testing.assert_array_equal(cluster.variances, variances)

        expected = self.EXPECTED[variant]
        values = np.array(self.EXPECTED["values"])
        labels, posteriors = classify_set(model, values)
        np.testing.assert_array_equal(labels, expected["labels"])
        if variant == "fmda-mixrhlp":
            np.testing.assert_array_equal(posteriors, expected["posteriors"])
        else:
            np.testing.assert_allclose(posteriors, expected["posteriors"], rtol=1e-12, atol=0)

        rewritten = json.loads(model_to_json(model))
        assert rewritten["format_version"] == 2
        assert {c["kind"] for c in rewritten["classes"]} == {"mixrhlp"}
        again = model_from_json(model_to_json(model))
        np.testing.assert_array_equal(classify_set(again, values)[1], posteriors)
