"""Classifier layer: per-class densities, priors, and the MAP rule.

Six variants share one decision rule. The FLDA family fits a single
density per class (polynomial regression, spline regression, or a
hidden-logistic-process regression); the FMDA family fits a mixture per
class (polynomial mixture, spline mixture, or the cluster mixture of
hidden-process regressions). A curve is assigned to the class with the
highest prior-weighted conditional density.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import baselines, mixrhlp
from .core import (
    Basis,
    Curve,
    DesignMatrix,
    LabeledCurveSet,
    TimeGrid,
    design_matrix,
    logsumexp,
)
from .errors import DataError
from .mixrhlp import EmConfig, FitReport
from .rng import subseed

FLDA_PR = "flda-pr"
FLDA_SR = "flda-sr"
FLDA_RHLP = "flda-rhlp"
FMDA_PRM = "fmda-prm"
FMDA_SRM = "fmda-srm"
FMDA_MIXRHLP = "fmda-mixrhlp"

VARIANTS = (FLDA_PR, FLDA_SR, FLDA_RHLP, FMDA_PRM, FMDA_SRM, FMDA_MIXRHLP)

_SPLINE_VARIANTS = (FLDA_SR, FMDA_SRM)
_MIXTURE_VARIANTS = (FMDA_PRM, FMDA_SRM, FMDA_MIXRHLP)
_RHLP_VARIANTS = (FLDA_RHLP, FMDA_MIXRHLP)

CLASSIFIER_FORMAT_VERSION = 1


@dataclass(frozen=True)
class TrainConfig:
    """Model sizes and EM settings shared by all class fits."""

    variant: str
    degree: int = 3
    n_clusters: int = 2
    n_regimes: int | tuple[int, ...] = 3
    spline_order: int = 4
    interior_knots: int = 10
    max_iter: int = 200
    tol: float = 1e-6
    n_restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(
                f"unknown variant {self.variant!r}; expected one of {VARIANTS}"
            )
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.n_restarts < 1:
            raise ValueError("need at least one restart")

    def basis(self) -> Basis:
        if self.variant in _SPLINE_VARIANTS:
            return Basis.bspline(self.spline_order, self.interior_knots)
        return Basis.polynomial(self.degree)

    def em_config(self, seed: int) -> EmConfig:
        n_clusters = 1 if self.variant == FLDA_RHLP else self.n_clusters
        return EmConfig(
            n_clusters=n_clusters,
            n_regimes=self.n_regimes,
            degree=self.degree,
            max_iter=self.max_iter,
            tol=self.tol,
            n_restarts=self.n_restarts,
            seed=seed,
        )

    def to_dict(self) -> dict:
        n_regimes = self.n_regimes
        return {
            "variant": self.variant,
            "degree": self.degree,
            "n_clusters": self.n_clusters,
            "n_regimes": list(n_regimes) if isinstance(n_regimes, tuple) else n_regimes,
            "spline_order": self.spline_order,
            "interior_knots": self.interior_knots,
            "max_iter": self.max_iter,
            "tol": self.tol,
            "n_restarts": self.n_restarts,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class ClassifierModel:
    """Fitted per-class densities plus class priors on a fixed grid."""

    variant: str
    priors: np.ndarray
    class_models: tuple
    basis: Basis
    grid: TimeGrid
    _design: DesignMatrix = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        priors = np.array(self.priors, dtype=float)
        if priors.ndim != 1 or priors.size != len(self.class_models):
            raise ValueError("one prior per class model is required")
        if np.any(priors <= 0) or abs(priors.sum() - 1.0) > 1e-12:
            raise ValueError("priors must be positive and sum to 1")
        priors.flags.writeable = False
        object.__setattr__(self, "priors", priors)
        object.__setattr__(self, "class_models", tuple(self.class_models))
        object.__setattr__(self, "_design", design_matrix(self.grid, self.basis))

    @property
    def n_classes(self) -> int:
        return len(self.class_models)

    @property
    def design(self) -> DesignMatrix:
        return self._design


def _fit_class(
    variant: str,
    values: np.ndarray,
    design: DesignMatrix,
    config: TrainConfig,
    seed: int,
    workers: int,
):
    if variant in (FLDA_PR, FLDA_SR):
        return baselines.fit_single_regression(values, design), None
    if variant in (FMDA_PRM, FMDA_SRM):
        params, report = baselines.fit_regression_mixture(
            values, design, config.em_config(seed), workers=workers
        )
        return params, report
    params, report = mixrhlp.em_fit(
        values, design.grid, config.em_config(seed), workers=workers
    )
    return params, report


def train_detailed(
    data: LabeledCurveSet, config: TrainConfig, *, workers: int = 1
) -> tuple[ClassifierModel, list[FitReport | None]]:
    """Fit every class density; also return the per-class fit reports.

    Class g is fitted on its own curves with a sub-seed derived from the
    master seed and the class index, so adding a class never perturbs
    another class's fit.
    """
    n = data.n_curves
    priors = np.array(
        [data.class_indices(g).size / n for g in range(1, data.n_classes + 1)]
    )
    design = design_matrix(data.grid, config.basis())
    class_models = []
    reports: list[FitReport | None] = []
    for g in range(1, data.n_classes + 1):
        values = data.class_values(g)
        model, report = _fit_class(
            config.variant, values, design, config, subseed(config.seed, g), workers
        )
        class_models.append(model)
        reports.append(report)
    model = ClassifierModel(
        variant=config.variant,
        priors=priors,
        class_models=tuple(class_models),
        basis=config.basis(),
        grid=data.grid,
    )
    return model, reports


def train(
    data: LabeledCurveSet, config: TrainConfig, *, workers: int = 1
) -> ClassifierModel:
    model, _ = train_detailed(data, config, workers=workers)
    return model


def _class_loglik_set(
    class_model, variant: str, values: np.ndarray, design: DesignMatrix
) -> np.ndarray:
    if variant in (FLDA_PR, FLDA_SR):
        return baselines.single_regression_loglik_set(class_model, values, design)
    if variant in (FMDA_PRM, FMDA_SRM):
        return baselines.regression_mixture_loglik_set(class_model, values, design)
    return mixrhlp.mixrhlp_loglik_set(class_model, values, design)


def class_logliks(model: ClassifierModel, values: np.ndarray) -> np.ndarray:
    """(n, G) per-curve conditional log-densities."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    return np.column_stack(
        [
            _class_loglik_set(cm, model.variant, values, model.design)
            for cm in model.class_models
        ]
    )


def classify_set(
    model: ClassifierModel, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """MAP labels (1-based) and posterior probabilities for (n, m) curves.

    Raises ``DataError`` for curves whose log-density is not finite under
    any class, such as curves so far from every class that it underflows.
    """
    logliks = class_logliks(model, values)
    lost = np.flatnonzero(~np.isfinite(logliks).any(axis=1))
    if lost.size:
        raise DataError(
            f"{lost.size} curve(s) have no finite log-density under any class "
            f"(indices {lost[:10].tolist()}{' ...' if lost.size > 10 else ''})"
        )
    log_post = np.log(model.priors)[None, :] + logliks
    norm = logsumexp(log_post, axis=1)
    posteriors = np.exp(log_post - norm[:, None])
    labels = np.argmax(log_post, axis=1) + 1  # argmax takes the first maximum
    return labels, posteriors


def classify(model: ClassifierModel, curve: Curve) -> tuple[int, np.ndarray]:
    """MAP label and posterior vector for one curve on the model's grid."""
    if not np.array_equal(curve.grid.points, model.grid.points):
        raise DataError(
            "curve grid does not match the model grid "
            f"(curve {curve.grid.fingerprint()}, model {model.grid.fingerprint()})"
        )
    labels, posteriors = classify_set(model, curve.values)
    return int(labels[0]), posteriors[0]


def class_mean_curves(model: ClassifierModel, label: int) -> np.ndarray:
    """Mean curve(s) for one class: (1, m) for FLDA, (K, m) for FMDA."""
    if not 1 <= label <= model.n_classes:
        raise ValueError(f"class label {label} out of range 1..{model.n_classes}")
    cm = model.class_models[label - 1]
    design = model.design
    if model.variant in (FLDA_PR, FLDA_SR):
        return (design.matrix @ cm.coeffs)[None, :]
    if model.variant in (FMDA_PRM, FMDA_SRM):
        return np.stack([design.matrix @ comp.coeffs for comp in cm.components])
    return mixrhlp.mean_curves(cm, model.grid, design)


def class_cluster_responsibilities(
    model: ClassifierModel, label: int, values: np.ndarray
) -> np.ndarray | None:
    """(n, K) cluster responsibilities under one class's mixture, or None
    for single-model variants."""
    cm = model.class_models[label - 1]
    if model.variant in (FMDA_PRM, FMDA_SRM):
        return baselines.mixture_responsibilities(cm, values, model.design)
    if model.variant in _RHLP_VARIANTS:
        post = mixrhlp.e_step(cm, values, model.design)
        return post.cluster_resp
    return None


# ---------------------------------------------------------------------------
# Serialization: JSON envelope {variant, priors, class model documents}
# ---------------------------------------------------------------------------


def _class_model_to_dict(class_model, variant: str) -> dict:
    if variant in (FLDA_PR, FLDA_SR):
        return {
            "kind": "single_regression",
            "coeffs": [float(v) for v in class_model.coeffs],
            "variance": float(class_model.variance),
        }
    if variant in (FMDA_PRM, FMDA_SRM):
        return {
            "kind": "regression_mixture",
            "alphas": [float(w) for w in class_model.weights],
            "components": [
                {
                    "coeffs": [float(v) for v in comp.coeffs],
                    "variance": float(comp.variance),
                }
                for comp in class_model.components
            ],
        }
    doc = mixrhlp.params_to_dict(class_model)
    doc["kind"] = "mixrhlp"
    return doc


def _class_model_from_dict(doc: dict):
    kind = doc.get("kind")
    try:
        if kind == "single_regression":
            return baselines.SingleRegressionParams(
                np.array(doc["coeffs"], dtype=float), float(doc["variance"])
            )
        if kind == "regression_mixture":
            return baselines.RegressionMixtureParams(
                np.array(doc["alphas"], dtype=float),
                tuple(
                    baselines.SingleRegressionParams(
                        np.array(c["coeffs"], dtype=float), float(c["variance"])
                    )
                    for c in doc["components"]
                ),
            )
        if kind == "mixrhlp":
            return mixrhlp.params_from_dict(doc)
    except (KeyError, ValueError) as exc:
        raise DataError(f"malformed class model document: {exc}") from exc
    raise DataError(f"unknown class model kind {kind!r}")


def model_to_dict(model: ClassifierModel) -> dict:
    return {
        "format_version": CLASSIFIER_FORMAT_VERSION,
        "variant": model.variant,
        "priors": [float(p) for p in model.priors],
        "basis": model.basis.to_dict(),
        "grid": [float(t) for t in model.grid.points],
        "classes": [
            _class_model_to_dict(cm, model.variant) for cm in model.class_models
        ],
    }


def model_from_dict(doc: dict) -> ClassifierModel:
    if doc.get("format_version") != CLASSIFIER_FORMAT_VERSION:
        raise DataError(
            f"unsupported classifier format version: {doc.get('format_version')!r}"
        )
    try:
        grid = TimeGrid(np.array(doc["grid"], dtype=float))
        return ClassifierModel(
            variant=doc["variant"],
            priors=np.array(doc["priors"], dtype=float),
            class_models=tuple(_class_model_from_dict(c) for c in doc["classes"]),
            basis=Basis.from_dict(doc["basis"]),
            grid=grid,
        )
    except (KeyError, ValueError) as exc:
        raise DataError(f"malformed classifier document: {exc}") from exc


def model_to_json(model: ClassifierModel) -> str:
    return json.dumps(model_to_dict(model), indent=2, sort_keys=True)


def model_from_json(text: str) -> ClassifierModel:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"classifier document is not valid JSON: {exc}") from exc
    return model_from_dict(doc)
