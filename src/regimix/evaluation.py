"""Evaluation harness: stratified k-fold CV error and intra-class inertia.

The misclassification rate is estimated by stratified k-fold
cross-validation (folds preserve class proportions; assignment is
deterministic per seed). The intra-class inertia measures curve
approximation quality: the summed squared distance between each training
curve and its class mean curve; for mixture variants each curve is
compared against the mean curve of its most responsible cluster.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .core import LabeledCurveSet
from .discriminant import (
    ClassifierModel,
    TrainConfig,
    class_cluster_responsibilities,
    class_mean_curves,
    classify_set,
    train,
)
from .rng import child_rng


@dataclass(frozen=True)
class EvalReport:
    """Cross-validated error plus modeling inertia for one variant."""

    variant: str
    error_rate: float
    per_fold_rates: tuple[float, ...]
    intra_class_inertia: float
    seed: int
    config: dict

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "error_rate": self.error_rate,
            "per_fold_rates": list(self.per_fold_rates),
            "intra_class_inertia": self.intra_class_inertia,
            "seed": self.seed,
            "config": self.config,
        }

    def config_hash(self) -> str:
        payload = json.dumps(self.config, sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:12]


def kfold_split(data: LabeledCurveSet, k: int, seed: int) -> list[np.ndarray]:
    """k disjoint index folds, stratified by class, deterministic per seed.

    Within each class the (shuffled) curves are dealt round-robin, so per
    class the fold sizes differ by at most one. Every class must have at
    least k curves.
    """
    if k < 2:
        raise ValueError("need at least 2 folds")
    folds: list[list[int]] = [[] for _ in range(k)]
    for g in range(1, data.n_classes + 1):
        idx = data.class_indices(g)
        if idx.size < k:
            raise ValueError(
                f"class {g} has {idx.size} curves; cannot build {k} folds"
            )
        shuffled = idx[child_rng(seed, g).permutation(idx.size)]
        for pos, curve_idx in enumerate(shuffled):
            folds[pos % k].append(int(curve_idx))
    return [np.array(sorted(f), dtype=int) for f in folds]


def _subset(data: LabeledCurveSet, indices: np.ndarray) -> LabeledCurveSet:
    return LabeledCurveSet(
        data.values[indices], data.labels[indices], data.grid, data.n_classes
    )


def cv_error_rate(
    data: LabeledCurveSet,
    config: TrainConfig,
    k: int = 5,
    seed: int = 0,
) -> tuple[float, tuple[float, ...]]:
    """Mean and per-fold misclassification rates under k-fold CV."""
    all_idx = np.arange(data.n_curves)
    rates = []
    for fold in kfold_split(data, k, seed):
        model = train(_subset(data, np.setdiff1d(all_idx, fold)), config)
        labels, _ = classify_set(model, data.values[fold])
        rates.append(float(np.mean(labels != data.labels[fold])))
    return float(np.mean(rates)), tuple(rates)


def intra_class_inertia(
    data: LabeledCurveSet, model: ClassifierModel, *, rule: str = "assigned"
) -> float:
    """Summed squared distance between curves and class mean curves.

    ``rule="assigned"`` compares each curve with the mean curve of its
    most responsible cluster (single-model variants have one mean curve
    per class). ``rule="all-components"`` instead sums the distance to
    every cluster mean, a diagnostic that over-counts by design.
    """
    if rule not in ("assigned", "all-components"):
        raise ValueError(f"unknown inertia rule {rule!r}")
    total = 0.0
    for g in range(1, data.n_classes + 1):
        values = data.class_values(g)
        means = class_mean_curves(model, g)  # (K, m)
        sq = np.sum(
            (values[:, None, :] - means[None, :, :]) ** 2, axis=2
        )  # (n_g, K)
        if rule == "all-components":
            total += float(sq.sum())
            continue
        if means.shape[0] == 1:
            total += float(sq[:, 0].sum())
            continue
        resp = class_cluster_responsibilities(model, g, values)
        assigned = np.argmax(resp, axis=1)
        total += float(sq[np.arange(values.shape[0]), assigned].sum())
    return total


def evaluate_variant(
    data: LabeledCurveSet,
    config: TrainConfig,
    k: int = 5,
    seed: int = 0,
) -> EvalReport:
    """Full protocol: CV error rate plus inertia of a full-data fit."""
    error_rate, per_fold = cv_error_rate(data, config, k, seed)
    model = train(data, config)
    inertia = intra_class_inertia(data, model)
    return EvalReport(
        variant=config.variant,
        error_rate=error_rate,
        per_fold_rates=per_fold,
        intra_class_inertia=inertia,
        seed=seed,
        config=config.to_dict(),
    )
