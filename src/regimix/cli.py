"""Command-line front end.

Commands: generate | fit | classify | evaluate | select | export-plots.
Every command is a pure function of its input files, flags, and seed;
reruns produce byte-identical outputs. Output files are written to a
temporary name and renamed, so a failed run leaves no partial artifacts.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure.

All flags have JSON-config equivalents via ``--config FILE`` (top-level
keys named like the flags, dashes as underscores); explicit flags
override the file. The effective configuration is echoed into every
output manifest.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import datagen, mixrhlp
from .core import (
    Basis,
    TimeGrid,
    atomic_write_text,
    read_curveset,
    write_curveset,
)
from .discriminant import (
    FMDA_MIXRHLP,
    RHLP_VARIANTS,
    VARIANTS,
    ClassifierModel,
    TrainConfig,
    class_cluster_responsibilities,
    class_priors,
    class_mean_curves,
    classify_set,
    model_from_json,
    model_to_json,
    train_detailed,
)
from .errors import DataError, NumericalError
from .evaluation import evaluate_variant
from .logistic import regime_probabilities

def _FMT(x) -> str:
    """Round-trip float text."""
    return repr(float(x))


def _dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError("config file must hold a JSON object")
    return doc


def _effective(args: argparse.Namespace, file_config: dict, keys: dict) -> dict:
    """Merge defaults < config file < explicit flags."""
    merged = {}
    for key, default in keys.items():
        value = getattr(args, key, None)
        if value is None:
            value = file_config.get(key, default)
        merged[key] = value
    return merged


def _read_dataset(directory: str):
    return read_curveset(
        os.path.join(directory, "grid.csv"), os.path.join(directory, "curves.csv")
    )


def _read_dataset_on_grid(directory: str, grid: TimeGrid):
    """Read a dataset that must be sampled on ``grid`` (a model's grid)."""
    data = _read_dataset(directory)
    if not np.array_equal(data.grid.points, grid.points):
        raise DataError(
            "dataset grid does not match the model grid "
            f"(data {data.grid.fingerprint()}, model {grid.fingerprint()})"
        )
    return data


_MODEL_KEYS = {
    "variant": FMDA_MIXRHLP,
    "n_clusters": 2,
    "n_regimes": 3,
    "degree": 3,
    "spline_order": 4,
    "interior_knots": 10,
    "max_iter": 200,
    "tol": 1e-6,
    "n_restarts": 5,
    "seed": 0,
}


def _typed(cfg: dict, key: str, types: tuple, what: str):
    """``cfg[key]``, whose type must be one of ``types`` exactly, so that a
    JSON ``true`` or ``1.5`` is no count, ``true`` no number, ``"no"`` no
    bool and ``0`` no path; else ``ValueError``."""
    value = cfg[key]
    if type(value) not in types:
        raise ValueError(f"{key} must be {what}, got {value!r}")
    return value


def _exact_int(cfg: dict, key: str) -> int:
    """``cfg[key]``, which must be an ``int`` exactly."""
    return _typed(cfg, key, (int,), "an integer")


def _number(cfg: dict, key: str) -> float:
    """``cfg[key]``, which must be a JSON number, as a float."""
    return float(_typed(cfg, key, (int, float), "a number"))


def _train_config(cfg: dict) -> TrainConfig:
    ints = ("degree", "n_clusters", "n_regimes", "spline_order", "interior_knots",
            "max_iter", "n_restarts", "seed")
    return TrainConfig(
        variant=cfg["variant"],
        tol=_number(cfg, "tol"),
        **{key: _exact_int(cfg, key) for key in ints},
    )


def _add_model_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--variant", choices=VARIANTS)
    sub.add_argument("--n-clusters", "--K", dest="n_clusters", type=int)
    sub.add_argument("--n-regimes", "--R", dest="n_regimes", type=int)
    sub.add_argument("--degree", "--p", dest="degree", type=int)
    sub.add_argument("--spline-order", dest="spline_order", type=int)
    sub.add_argument("--spline-knots", dest="interior_knots", type=int)
    sub.add_argument("--max-iter", dest="max_iter", type=int)
    sub.add_argument("--tol", type=float)
    sub.add_argument("--n-restarts", dest="n_restarts", type=int)
    sub.add_argument("--seed", type=int)


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def _cmd_generate(args: argparse.Namespace) -> int:
    file_config = _load_config_file(args.config)
    cfg = _effective(
        args,
        file_config,
        {
            "benchmark": "piecewise",
            "seed": 0,
            "merge": True,
            "per_class": 500,
            "per_subclass": 10,
            "noise_sd": None,
            "spec_json": None,
        },
    )
    seed = _exact_int(cfg, "seed")
    per_class, per_subclass = _exact_int(cfg, "per_class"), _exact_int(cfg, "per_subclass")
    noise_sd = None if cfg["noise_sd"] is None else _number(cfg, "noise_sd")
    merge = _typed(cfg, "merge", (bool,), "true or false")

    if cfg["spec_json"] is not None:
        with open(_typed(cfg, "spec_json", (str,), "a path"), encoding="utf-8") as fh:
            spec = datagen.spec_from_json(fh.read())
    elif cfg["benchmark"] == "piecewise":
        base = datagen.default_piecewise_spec()
        spec = datagen.PiecewiseSpec(
            class_profiles=base.class_profiles,
            noise_sd=base.noise_sd if noise_sd is None else noise_sd,
            curves_per_subclass=per_subclass,
            n_points=base.n_points,
            span=base.span,
        )
    elif cfg["benchmark"] == "waveform":
        spec = datagen.WaveformSpec(
            curves_per_class=per_class,
            noise_sd=1.0 if noise_sd is None else noise_sd,
            merge=merge,
        )
    else:
        raise ValueError(f"unknown benchmark {cfg['benchmark']!r}")

    if isinstance(spec, datagen.PiecewiseSpec):
        data = datagen.gen_piecewise(spec, seed)
    else:
        data = datagen.gen_waveform(spec, seed)

    out = args.out
    if not os.path.isdir(out):
        raise DataError(f"output directory does not exist: {out}")
    write_curveset(
        data, os.path.join(out, "grid.csv"), os.path.join(out, "curves.csv")
    )
    manifest = {
        "command": "generate",
        "seed": seed,
        "spec": spec.to_dict(),
        "n_curves": data.n_curves,
        "n_points": len(data.grid),
        "n_classes": data.n_classes,
    }
    atomic_write_text(os.path.join(out, "manifest.json"), _dump_json(manifest))
    return 0


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def _cmd_fit(args: argparse.Namespace) -> int:
    file_config = _load_config_file(args.config)
    cfg = _effective(args, file_config, _MODEL_KEYS)
    data = _read_dataset(args.data)
    config = _train_config(cfg)
    model, reports = train_detailed(data, config)
    for label, rep in enumerate(reports, start=1):
        if rep is not None and not rep.converged:
            print(
                f"regimix: warning: class {label} fit stopped after {rep.iterations} "
                f"iterations without converging (stop reason: {rep.stop_reason})",
                file=sys.stderr,
            )
    atomic_write_text(args.out, model_to_json(model) + "\n")
    report_doc = {
        "command": "fit",
        "config": config.to_dict(),
        "per_class": [
            None
            if rep is None
            else {
                "loglik_trace": list(rep.loglik_trace),
                "iterations": rep.iterations,
                "converged": rep.converged,
                "bic": rep.bic,
                "restarts_tried": rep.restarts_tried,
                "best_restart": rep.best_restart,
                "restarts": [
                    {"loglik": r.loglik, "iterations": r.iterations,
                     "stop_reason": r.stop_reason,
                     "extrapolations_accepted": r.extrapolations_accepted,
                     "extrapolations_rejected": r.extrapolations_rejected}
                    for r in rep.restarts
                ],
            }
            for rep in reports
        ],
    }
    if args.report is not None:
        atomic_write_text(args.report, _dump_json(report_doc))
    return 0


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def _cmd_classify(args: argparse.Namespace) -> int:
    with open(args.model, encoding="utf-8") as fh:
        model = model_from_json(fh.read())
    data = _read_dataset_on_grid(args.data, model.grid)
    labels, posteriors = classify_set(model, data.values)
    header = "index,label," + ",".join(f"p{g}" for g in range(1, model.n_classes + 1))
    rows = [header]
    for i in range(data.n_curves):
        rows.append(
            ",".join([str(i), str(int(labels[i]))] + [_FMT(p) for p in posteriors[i]])
        )
    atomic_write_text(args.out, "\n".join(rows) + "\n")
    return 0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def _cmd_evaluate(args: argparse.Namespace) -> int:
    file_config = _load_config_file(args.config)
    cfg = _effective(args, file_config, {**_MODEL_KEYS, "k_folds": 5})
    data = _read_dataset(args.data)
    config = _train_config(cfg)
    k = _exact_int(cfg, "k_folds")
    if k < 2:
        raise ValueError("k_folds must be >= 2")
    report = evaluate_variant(data, config, k=k, seed=config.seed)
    doc = {"command": "evaluate", "k_folds": k, **report.to_dict(),
           "config_hash": report.config_hash()}
    atomic_write_text(args.out, _dump_json(doc))
    if args.summary_csv is not None:
        text = "variant,error_rate,intra_class_inertia,seed,config_hash\n"
        atomic_write_text(args.summary_csv, text + report.csv_row() + "\n")
    return 0


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------


def _parse_range(text: str) -> list[int]:
    try:
        out = [int(v) for v in str(text).split(",") if v != ""]
    except ValueError as exc:
        raise ValueError(f"ranges must be comma-separated integers, got {text!r}") from exc
    if not out:
        raise ValueError("ranges must be non-empty")
    return out


def _cmd_select(args: argparse.Namespace) -> int:
    file_config = _load_config_file(args.config)
    cfg = _effective(
        args,
        file_config,
        {
            "k_range": "1,2",
            "r_range": "1,2",
            "degree": 0,
            "max_iter": 200,
            "tol": 1e-6,
            "n_restarts": 5,
            "seed": 0,
        },
    )
    data = _read_dataset(args.data)
    k_range = _parse_range(cfg["k_range"])
    r_range = _parse_range(cfg["r_range"])
    degree = _exact_int(cfg, "degree")
    base = mixrhlp.EmConfig(
        max_iter=_exact_int(cfg, "max_iter"),
        tol=_number(cfg, "tol"),
        n_restarts=_exact_int(cfg, "n_restarts"),
        seed=_exact_int(cfg, "seed"),
    )

    rows = ["class,n_clusters,n_regimes,loglik,n_params,bic,selected"]
    class_models = []
    for g in range(1, data.n_classes + 1):
        params, cells = mixrhlp.select_model(
            data.class_values(g), data.grid, k_range, r_range, degree, base
        )
        class_models.append(params)
        chosen = (params.n_clusters, params.regimes[0] if params.regimes else 0)
        for cell in cells:
            selected = int(
                (cell.n_clusters, cell.n_regimes) == chosen
            )
            rows.append(
                ",".join(
                    [
                        str(g),
                        str(cell.n_clusters),
                        str(cell.n_regimes),
                        _FMT(cell.loglik),
                        str(cell.n_params),
                        _FMT(cell.bic),
                        str(selected),
                    ]
                )
            )
    atomic_write_text(args.out_table, "\n".join(rows) + "\n")

    if args.out_model is not None:
        model = ClassifierModel(
            variant=FMDA_MIXRHLP,
            priors=class_priors(data),
            class_models=tuple(class_models),
            basis=Basis.polynomial(degree),
            grid=data.grid,
        )
        atomic_write_text(args.out_model, model_to_json(model) + "\n")
    return 0


# ---------------------------------------------------------------------------
# export-plots
# ---------------------------------------------------------------------------


def _cmd_export_plots(args: argparse.Namespace) -> int:
    with open(args.model, encoding="utf-8") as fh:
        model = model_from_json(fh.read())
    data = _read_dataset_on_grid(args.data, model.grid)
    out = args.out
    if not os.path.isdir(out):
        raise DataError(f"output directory does not exist: {out}")
    t = model.grid.points
    for g in range(1, model.n_classes + 1):
        means = class_mean_curves(model, g)  # (K, m)
        header = "t," + ",".join(f"cluster_{k + 1}" for k in range(means.shape[0]))
        rows = [header]
        for j in range(len(t)):
            rows.append(
                ",".join([_FMT(t[j])] + [_FMT(means[k, j]) for k in range(means.shape[0])])
            )
        atomic_write_text(
            os.path.join(out, f"mean_curves_class{g}.csv"), "\n".join(rows) + "\n"
        )

        cm = model.class_models[g - 1]
        if model.variant in RHLP_VARIANTS:
            for k, cluster in enumerate(cm.clusters, start=1):
                probs = regime_probabilities(cluster.logistic, model.grid)
                header = "t," + ",".join(
                    f"regime_{r + 1}" for r in range(probs.shape[1])
                )
                rows = [header]
                for j in range(len(t)):
                    rows.append(
                        ",".join([_FMT(t[j])] + [_FMT(p) for p in probs[j]])
                    )
                atomic_write_text(
                    os.path.join(out, f"regime_probs_class{g}_cluster{k}.csv"),
                    "\n".join(rows) + "\n",
                )

        resp = class_cluster_responsibilities(model, g, data.class_values(g))
        if resp.shape[1] > 1:
            indices = data.class_indices(g)
            assigned = np.argmax(resp, axis=1) + 1
            rows = ["index,cluster"]
            rows.extend(
                f"{int(idx)},{int(c)}" for idx, c in zip(indices, assigned)
            )
            atomic_write_text(
                os.path.join(out, f"assignments_class{g}.csv"), "\n".join(rows) + "\n"
            )
    return 0


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regimix",
        description="Curve classification with mixtures of hidden-process regressions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic benchmark dataset")
    p.add_argument("--benchmark", choices=("piecewise", "waveform"))
    p.add_argument("--seed", type=int)
    p.add_argument("--merge", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--per-class", dest="per_class", type=int)
    p.add_argument("--per-subclass", dest="per_subclass", type=int)
    p.add_argument("--noise-sd", dest="noise_sd", type=float)
    p.add_argument("--spec-json", dest="spec_json")
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("fit", help="train a classifier on a dataset")
    p.add_argument("--data", required=True)
    _add_model_flags(p)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("classify", help="classify curves with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("evaluate", help="cross-validated error and inertia")
    p.add_argument("--data", required=True)
    _add_model_flags(p)
    p.add_argument("--k-folds", dest="k_folds", type=int)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.add_argument("--summary-csv", dest="summary_csv")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("select", help="BIC sweep over (K, R) per class")
    p.add_argument("--data", required=True)
    p.add_argument("--K-range", dest="k_range")
    p.add_argument("--R-range", dest="r_range")
    p.add_argument("--degree", "--p", dest="degree", type=int)
    p.add_argument("--max-iter", dest="max_iter", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--n-restarts", dest="n_restarts", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--config")
    p.add_argument("--out-table", dest="out_table", required=True)
    p.add_argument("--out-model", dest="out_model")
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser(
        "export-plots", help="CSV bundle of mean curves, regime probabilities, assignments"
    )
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export_plots)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"regimix: configuration error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"regimix: data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"regimix: numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
