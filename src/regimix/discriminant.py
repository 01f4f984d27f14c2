"""Classifier layer: per-class densities, priors, and the MAP rule.

Six variants share one decision rule. The FLDA family fits a single
density per class (polynomial regression, spline regression, or a
hidden-logistic-process regression); the FMDA family fits a mixture per
class (polynomial mixture, spline mixture, or the cluster mixture of
hidden-process regressions). A curve is assigned to the class with the
highest prior-weighted conditional density.

Every class density is a ``MixRhlpParams``: the regression baselines have
one regime per cluster and the FLDA variants one cluster, so an FLDA
variant is fitted as the FMDA variant of its family at K=1. Every class
fit runs the EM driver of ``mixrhlp`` and returns a ``FitReport``. Only
the training configuration and the choice of family (``em_fit`` for the
hidden-process variants, else ``baselines.fit_regression_mixture``) read
the variant; scoring, summaries and model documents take one path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import baselines, mixrhlp
from .core import (
    INTEGER,
    NUMBER_OR_NULL,
    STRING,
    Basis,
    Curve,
    DesignMatrix,
    LabeledCurveSet,
    TimeGrid,
    check_structure,
    design_matrix,
    logsumexp,
)
from .errors import DataError
from .logistic import LogisticWeights
from .mixrhlp import EmConfig, FitReport, MixRhlpParams, RhlpParams, _mixing_proportions
from .rng import subseed

FLDA_PR = "flda-pr"
FLDA_SR = "flda-sr"
FLDA_RHLP = "flda-rhlp"
FMDA_PRM = "fmda-prm"
FMDA_SRM = "fmda-srm"
FMDA_MIXRHLP = "fmda-mixrhlp"

VARIANTS = (FLDA_PR, FLDA_SR, FLDA_RHLP, FMDA_PRM, FMDA_SRM, FMDA_MIXRHLP)

_FLDA_VARIANTS = (FLDA_PR, FLDA_SR, FLDA_RHLP)
_SPLINE_VARIANTS = (FLDA_SR, FMDA_SRM)
RHLP_VARIANTS = (FLDA_RHLP, FMDA_MIXRHLP)

#: Version 2 writes every class as kind ``mixrhlp``; version 1, which
#: wrote the baselines as ``single_regression`` and ``regression_mixture``
#: documents, is still read.
CLASSIFIER_FORMAT_VERSION = 2


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
        n_clusters = 1 if self.variant in _FLDA_VARIANTS else self.n_clusters
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
    """Fitted per-class densities plus class priors on a fixed grid.

    Each class model must be a ``MixRhlpParams`` whose coefficients fit
    the design of ``basis`` on ``grid``; else ``ValueError``.
    """

    variant: str
    priors: np.ndarray
    class_models: tuple[MixRhlpParams, ...]
    basis: Basis
    grid: TimeGrid
    _design: DesignMatrix = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        priors = _mixing_proportions(self.priors, len(self.class_models))
        design = design_matrix(self.grid, self.basis)
        for cm in self.class_models:
            if not isinstance(cm, MixRhlpParams):
                raise ValueError(f"class model is a {type(cm).__name__}, not MixRhlpParams")
            mixrhlp._check_design(design, cm)
        object.__setattr__(self, "priors", priors)
        object.__setattr__(self, "class_models", tuple(self.class_models))
        object.__setattr__(self, "_design", design)

    @property
    def n_classes(self) -> int:
        return len(self.class_models)

    @property
    def design(self) -> DesignMatrix:
        return self._design


def _fit_class(
    values: np.ndarray, design: DesignMatrix, config: TrainConfig, seed: int
) -> tuple[MixRhlpParams, FitReport]:
    if config.variant in RHLP_VARIANTS:
        return mixrhlp.em_fit(values, design.grid, config.em_config(seed))
    return baselines.fit_regression_mixture(values, design, config.em_config(seed))


def class_priors(data: LabeledCurveSet) -> np.ndarray:
    """(G,) class priors: each class's share of the curves."""
    n = data.n_curves
    return np.array([data.class_indices(g).size / n for g in range(1, data.n_classes + 1)])


def train_detailed(
    data: LabeledCurveSet, config: TrainConfig
) -> tuple[ClassifierModel, list[FitReport]]:
    """Fit every class density; also return the per-class fit reports.

    Class g is fitted on its own curves with a sub-seed derived from the
    master seed and the class index, so adding a class never perturbs
    another class's fit.
    """
    priors = class_priors(data)
    design = design_matrix(data.grid, config.basis())
    class_models = []
    reports: list[FitReport] = []
    for g in range(1, data.n_classes + 1):
        model, report = _fit_class(data.class_values(g), design, config, subseed(config.seed, g))
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


def train(data: LabeledCurveSet, config: TrainConfig) -> ClassifierModel:
    model, _ = train_detailed(data, config)
    return model


def class_logliks(model: ClassifierModel, values: np.ndarray) -> np.ndarray:
    """(n, G) per-curve conditional log-densities of (n, m) curves on the
    model grid; ``DataError`` if m is not the grid's width."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.ndim != 2 or values.shape[1] != len(model.grid):
        raise DataError(
            f"curves of shape {values.shape} do not fit the model grid of "
            f"{len(model.grid)} points"
        )
    return np.column_stack(
        [mixrhlp.mixrhlp_loglik_set(cm, values, model.design) for cm in model.class_models]
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
    return mixrhlp.mean_curves(model.class_models[label - 1], model.grid, model.design)


def class_cluster_responsibilities(
    model: ClassifierModel, label: int, values: np.ndarray
) -> np.ndarray:
    """(n, K) cluster responsibilities under one class's mixture; one
    column of ones for the single-density variants."""
    cm = model.class_models[label - 1]
    return mixrhlp._cluster_posteriors(mixrhlp._log_mix(cm, values, model.design))[0]


# ---------------------------------------------------------------------------
# Model documents, written and read only here: a JSON envelope of variant,
# priors, basis, grid and one document per class
# ---------------------------------------------------------------------------

#: The version of every class document of kind ``mixrhlp``.
_MIXRHLP_FORMAT_VERSION = 1

#: The JSON structure that ``model_from_dict`` reads (see
#: ``core.check_structure``); a null number reads as NaN, for the parameter
#: checks to reject. Basis and class documents take the structure of their
#: ``kind``; an unknown kind is an error of its own. A basis document holds
#: the ``Basis`` fields its structure names.
_DOCUMENT = {
    "variant": STRING,
    "priors": [NUMBER_OR_NULL],
    "grid": [NUMBER_OR_NULL],
    "basis": {"kind": STRING},
    "classes": [{"kind": STRING}],
}
_BASES = {
    "polynomial": {"degree": INTEGER},
    "bspline": {"order": INTEGER, "interior_knots": INTEGER},
}
_REGRESSION = {"coeffs": [NUMBER_OR_NULL], "variance": NUMBER_OR_NULL}
_CLASS_KINDS = {
    "mixrhlp": {
        "K": INTEGER,
        "R": [INTEGER],
        "alphas": [NUMBER_OR_NULL],
        "clusters": [
            {
                "logistic_weights": [[NUMBER_OR_NULL]],
                "betas": [[NUMBER_OR_NULL]],
                "variances": [NUMBER_OR_NULL],
            }
        ],
    },
    # version 1 only
    "single_regression": _REGRESSION,
    "regression_mixture": {"alphas": [NUMBER_OR_NULL], "components": [_REGRESSION]},
}


def _class_document(params: MixRhlpParams) -> dict:
    return {
        "kind": "mixrhlp",
        "format_version": _MIXRHLP_FORMAT_VERSION,
        "K": params.n_clusters,
        "R": list(params.regimes),
        "p": params.degree,
        "alphas": params.weights.tolist(),
        "clusters": [
            {
                "logistic_weights": c.logistic.coef.tolist(),
                "betas": c.coeffs.tolist(),
                "variances": c.variances.tolist(),
            }
            for c in params.clusters
        ],
    }


def _class_model(doc: dict, version: int) -> MixRhlpParams:
    """The class density of a class document whose structure is checked."""
    kind = doc["kind"]
    try:
        if kind == "mixrhlp":
            class_version = doc.get("format_version")
            if type(class_version) is not int or class_version != _MIXRHLP_FORMAT_VERSION:
                raise DataError(f"unsupported model format version: {class_version!r}")
            params = MixRhlpParams(
                np.array(doc["alphas"], dtype=float),
                tuple(
                    RhlpParams(
                        LogisticWeights(np.array(c["logistic_weights"], dtype=float)),
                        np.array(c["betas"], dtype=float),
                        np.array(c["variances"], dtype=float),
                    )
                    for c in doc["clusters"]
                ),
            )
            if params.regimes != tuple(doc["R"]) or params.n_clusters != doc["K"]:
                raise DataError("model document shape fields disagree with parameter arrays")
            return params
        # version 1 wrote the baselines in kinds of their own, one regime
        # per component
        if version == 1 and kind in ("single_regression", "regression_mixture"):
            weights, parts = ([1.0], [doc]) if kind == "single_regression" else (
                doc["alphas"], doc["components"])
            return MixRhlpParams(weights, tuple(
                RhlpParams(LogisticWeights.zeros(1), [c["coeffs"]], [c["variance"]])
                for c in parts))
    except ValueError as exc:
        raise DataError(f"malformed class model document: {exc}") from exc
    raise DataError(f"unknown class model kind {kind!r}")


def model_to_dict(model: ClassifierModel) -> dict:
    basis = model.basis
    return {
        "format_version": CLASSIFIER_FORMAT_VERSION,
        "variant": model.variant,
        "priors": model.priors.tolist(),
        "basis": {"kind": basis.kind, **{key: getattr(basis, key) for key in _BASES[basis.kind]}},
        "grid": model.grid.points.tolist(),
        "classes": [_class_document(cm) for cm in model.class_models],
    }


def model_from_dict(doc: dict) -> ClassifierModel:
    """A classifier from its document, of ``format_version`` 2 or 1. The
    structure of the document is checked once, here; the constructors
    check the values."""
    check_structure(doc, {}, "model")
    version = doc.get("format_version")
    if type(version) is not int or version not in (1, CLASSIFIER_FORMAT_VERSION):
        raise DataError(f"unsupported classifier format version: {version!r}")
    check_structure(doc, _DOCUMENT, "model")
    kind = doc["basis"]["kind"]
    if kind not in _BASES:
        raise DataError(f"unknown basis kind in document: {kind!r}")
    basis_fields = check_structure(doc["basis"], _BASES[kind], "model.basis")
    for i, class_doc in enumerate(doc["classes"]):
        check_structure(class_doc, _CLASS_KINDS.get(class_doc["kind"], {}), f"model.classes[{i}]")
    try:
        return ClassifierModel(
            variant=doc["variant"],
            priors=np.array(doc["priors"], dtype=float),
            class_models=tuple(_class_model(c, version) for c in doc["classes"]),
            basis=Basis(kind, **basis_fields),
            grid=TimeGrid(np.array(doc["grid"], dtype=float)),
        )
    except (ValueError, OverflowError) as exc:  # OverflowError: an integer beyond every float
        raise DataError(f"malformed classifier document: {exc}") from exc


def model_to_json(model: ClassifierModel) -> str:
    return json.dumps(model_to_dict(model), indent=2, sort_keys=True)


def model_from_json(text: str) -> ClassifierModel:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"classifier document is not valid JSON: {exc}") from exc
    return model_from_dict(doc)
