import numpy as np
import pytest

from regimix.core import LabeledCurveSet, TimeGrid
from regimix.discriminant import TrainConfig, train
from regimix.evaluation import (
    EvalReport,
    cv_error_rate,
    evaluate_variant,
    intra_class_inertia,
    kfold_split,
)


def balanced_dataset(rng, per_class=5, m=8, sep=1000.0):
    g = TimeGrid(np.linspace(0, 1, m))
    a = rng.normal(size=(per_class, m))
    b = sep + rng.normal(size=(per_class, m))
    values = np.vstack([a, b])
    labels = np.array([1] * per_class + [2] * per_class)
    return LabeledCurveSet(values, labels, g, 2)


class TestKfoldSplit:
    def test_exact_division(self):
        rng = np.random.default_rng(70)
        data = balanced_dataset(rng, per_class=5)
        folds = kfold_split(data, 5, seed=0)
        assert len(folds) == 5
        for fold in folds:
            assert fold.size == 2
            assert set(data.labels[fold]) == {1, 2}
        all_idx = np.sort(np.concatenate(folds))
        np.testing.assert_array_equal(all_idx, np.arange(10))

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(71)
        data = balanced_dataset(rng, per_class=7)
        f1 = kfold_split(data, 3, seed=5)
        f2 = kfold_split(data, 3, seed=5)
        for a, b in zip(f1, f2):
            np.testing.assert_array_equal(a, b)
        f3 = kfold_split(data, 3, seed=6)
        assert any(not np.array_equal(a, b) for a, b in zip(f1, f3))

    def test_small_class_rejected(self):
        rng = np.random.default_rng(72)
        data = balanced_dataset(rng, per_class=3)
        with pytest.raises(ValueError):
            kfold_split(data, 4, seed=0)

    def test_per_class_fold_sizes_balanced(self):
        rng = np.random.default_rng(73)
        g = TimeGrid(np.linspace(0, 1, 4))
        values = rng.normal(size=(13, 4))
        labels = np.array([1] * 8 + [2] * 5)
        data = LabeledCurveSet(values, labels, g, 2)
        folds = kfold_split(data, 3, seed=1)
        for g_label in (1, 2):
            sizes = [int(np.sum(data.labels[f] == g_label)) for f in folds]
            assert max(sizes) - min(sizes) <= 1


class TestCvErrorRate:
    def test_separable_data_zero_error(self):
        rng = np.random.default_rng(74)
        data = balanced_dataset(rng, per_class=5)
        cfg = TrainConfig(variant="flda-pr", degree=0)
        rate, folds = cv_error_rate(data, cfg, k=5, seed=0)
        assert rate == 0.0
        assert folds == (0.0,) * 5

    def test_single_class_trivially_perfect(self):
        rng = np.random.default_rng(75)
        g = TimeGrid(np.linspace(0, 1, 6))
        data = LabeledCurveSet(rng.normal(size=(10, 6)), np.ones(10, dtype=int), g, 1)
        rate, _ = cv_error_rate(data, TrainConfig(variant="flda-pr", degree=0), k=5, seed=0)
        assert rate == 0.0

    def test_rate_is_mean_of_folds(self):
        rng = np.random.default_rng(76)
        data = balanced_dataset(rng, per_class=6, sep=1.0)  # overlapping classes
        cfg = TrainConfig(variant="flda-pr", degree=0)
        rate, folds = cv_error_rate(data, cfg, k=3, seed=2)
        assert rate == pytest.approx(np.mean(folds), rel=1e-12)


class TestIntraClassInertia:
    def test_zero_when_curves_equal_means(self):
        g = TimeGrid(np.linspace(0, 1, 6))
        values = np.full((4, 6), 3.0)
        data = LabeledCurveSet(values, np.ones(4, dtype=int), g, 1)
        model = train(data, TrainConfig(variant="flda-pr", degree=0))
        assert intra_class_inertia(data, model) == pytest.approx(0.0, abs=1e-12)

    def test_constant_offset_sums_m_per_curve(self):
        g = TimeGrid(np.linspace(0, 1, 7))
        m = len(g)
        base = np.full((3, m), 2.0)
        data = LabeledCurveSet(base, np.ones(3, dtype=int), g, 1)
        model = train(data, TrainConfig(variant="flda-pr", degree=0))
        shifted = LabeledCurveSet(base + 1.0, np.ones(3, dtype=int), g, 1)
        assert intra_class_inertia(shifted, model) == pytest.approx(3 * m, rel=1e-9)

    def test_single_component_mixture_equals_flda_formula(self):
        rng = np.random.default_rng(78)
        data = balanced_dataset(rng, per_class=5, sep=4.0)
        flda = train(data, TrainConfig(variant="flda-pr", degree=1))
        fmda = train(
            data,
            TrainConfig(variant="fmda-prm", degree=1, n_clusters=1, n_restarts=1),
        )
        assert intra_class_inertia(data, fmda) == pytest.approx(
            intra_class_inertia(data, flda), rel=1e-9
        )


class TestNestedModelInertia:
    def test_more_clusters_never_increase_nearest_mean_inertia(self):
        # on the seeded benchmark, richer cluster structure only tightens
        # the nearest-mean approximation
        from regimix.datagen import default_piecewise_spec, gen_piecewise
        from regimix.discriminant import class_mean_curves

        data = gen_piecewise(default_piecewise_spec(), seed=0)

        def nearest_mean_inertia(model):
            total = 0.0
            for g in range(1, data.n_classes + 1):
                values = data.class_values(g)
                means = class_mean_curves(model, g)
                sq = np.sum((values[:, None, :] - means[None, :, :]) ** 2, axis=2)
                total += float(sq.min(axis=1).sum())
            return total

        inertias = []
        for K in (1, 2, 3):
            cfg = TrainConfig(
                variant="fmda-mixrhlp", degree=0, n_clusters=K, n_regimes=3,
                n_restarts=2, seed=0, max_iter=60,
            )
            inertias.append(nearest_mean_inertia(train(data, cfg)))
        assert inertias[0] >= inertias[1] >= inertias[2]


class TestPermutationInvariance:
    def test_fold_error_stable_under_curve_reordering(self):
        # holding the fold assignment fixed by stable index, reordering the
        # curves changes nothing about the per-fold error counts
        from regimix.discriminant import classify_set

        rng = np.random.default_rng(83)
        data = balanced_dataset(rng, per_class=5, sep=1.5)
        folds = kfold_split(data, 5, seed=9)
        perm = rng.permutation(data.n_curves)
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(data.n_curves)
        permuted = LabeledCurveSet(
            data.values[perm], data.labels[perm], data.grid, data.n_classes
        )
        cfg = TrainConfig(variant="flda-pr", degree=0)

        def fold_errors(dataset, fold_indices):
            all_idx = np.arange(dataset.n_curves)
            out = []
            for fold in fold_indices:
                train_idx = np.setdiff1d(all_idx, fold)
                model = train(
                    LabeledCurveSet(
                        dataset.values[train_idx], dataset.labels[train_idx],
                        dataset.grid, dataset.n_classes,
                    ),
                    cfg,
                )
                labels, _ = classify_set(model, dataset.values[fold])
                out.append(int(np.sum(labels != dataset.labels[fold])))
            return out

        original = fold_errors(data, folds)
        mapped = fold_errors(permuted, [np.sort(inverse[f]) for f in folds])
        assert original == mapped


class TestEvaluateVariant:
    def test_report_fields_consistent(self):
        rng = np.random.default_rng(81)
        data = balanced_dataset(rng, per_class=5)
        cfg = TrainConfig(variant="flda-pr", degree=0, seed=11)
        report = evaluate_variant(data, cfg, k=5, seed=11)
        assert isinstance(report, EvalReport)
        assert report.error_rate == pytest.approx(np.mean(report.per_fold_rates))
        assert report.intra_class_inertia >= 0
        assert report.variant == "flda-pr"
        assert report.seed == 11

    def test_report_deterministic(self):
        rng = np.random.default_rng(82)
        data = balanced_dataset(rng, per_class=5, sep=2.0)
        cfg = TrainConfig(variant="fmda-prm", degree=0, n_clusters=2, n_restarts=2,
                          max_iter=15)
        r1 = evaluate_variant(data, cfg, k=5, seed=4)
        r2 = evaluate_variant(data, cfg, k=5, seed=4)
        assert r1 == r2
