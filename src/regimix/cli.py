"""Command-line front end.

Commands: generate | fit | classify | evaluate | select | export-plots.
Every command is a pure function of its input files, flags, and seed;
reruns produce byte-identical outputs. Output files are written to a
temporary name and renamed, so a failed run leaves no partial artifacts.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure.

All flags have JSON-config equivalents via ``--config FILE``: the
top-level keys of ``_SETTINGS``, one row per setting; explicit flags
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
    BOOLEAN,
    INTEGER,
    NUMBER,
    NUMBER_OR_NULL,
    STRING,
    Basis,
    JsonType,
    TimeGrid,
    atomic_write_text,
    check_structure,
    csv_text,
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


def _dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _write_csv(path: str, header: list[str], rows) -> None:
    """A CSV table: the header, then one line per row, as ``csv_text``
    writes them."""
    atomic_write_text(path, csv_text([header, *rows]))


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


#: A path, or null for none.
_PATH = JsonType((str, type(None)), "a path")
#: Comma-separated integers, or one JSON integer.
_RANGE = JsonType((str, int), "comma-separated integers")

#: Every setting of the commands, as (flags, JSON type, default, choices of
#: the flag or None); see ``core.check_structure`` for the types. A command
#: reads a setting from its flag if given, else from its key in the
#: --config file, else takes its default.
_SETTINGS = {
    "benchmark": (("--benchmark",), STRING, "piecewise", ("piecewise", "waveform")),
    "merge": (("--merge",), BOOLEAN, True, None),
    "per_class": (("--per-class",), INTEGER, 500, None),
    "per_subclass": (("--per-subclass",), INTEGER, 10, None),
    # null: the benchmark's own noise level
    "noise_sd": (("--noise-sd",), NUMBER_OR_NULL, None, None),
    "spec_json": (("--spec-json",), _PATH, None, None),
    "variant": (("--variant",), STRING, FMDA_MIXRHLP, VARIANTS),
    "n_clusters": (("--n-clusters", "--K"), INTEGER, 2, None),
    "n_regimes": (("--n-regimes", "--R"), INTEGER, 3, None),
    "degree": (("--degree", "--p"), INTEGER, 3, None),
    "spline_order": (("--spline-order",), INTEGER, 4, None),
    "interior_knots": (("--spline-knots",), INTEGER, 10, None),
    "max_iter": (("--max-iter",), INTEGER, 200, None),
    "tol": (("--tol",), NUMBER, 1e-6, None),
    "n_restarts": (("--n-restarts",), INTEGER, 5, None),
    "seed": (("--seed",), INTEGER, 0, None),
    "k_folds": (("--k-folds",), INTEGER, 5, None),
    "k_range": (("--K-range",), _RANGE, "1,2", None),
    "r_range": (("--R-range",), _RANGE, "1,2", None),
}
#: The ``TrainConfig`` fields
_MODEL_SETTINGS = ("variant", "n_clusters", "n_regimes", "degree", "spline_order",
                   "interior_knots", "max_iter", "tol", "n_restarts", "seed")
#: The settings of each command that takes a --config file, in the order of
#: its flags
_COMMAND_SETTINGS = {
    "generate": ("benchmark", "seed", "merge", "per_class", "per_subclass", "noise_sd",
                 "spec_json"),
    "fit": _MODEL_SETTINGS,
    "evaluate": _MODEL_SETTINGS + ("k_folds",),
    "select": ("k_range", "r_range", "degree", "max_iter", "tol", "n_restarts", "seed"),
}


def _add_settings(parser: argparse.ArgumentParser, command: str) -> None:
    """The flags of the command's settings, then ``--config``."""
    for key in _COMMAND_SETTINGS[command]:
        flags, kind, _, choices = _SETTINGS[key]
        if kind is BOOLEAN:
            parser.add_argument(*flags, dest=key, action=argparse.BooleanOptionalAction)
        else:
            flag_type = {INTEGER: int, NUMBER: float, NUMBER_OR_NULL: float}.get(kind)
            parser.add_argument(*flags, dest=key, type=flag_type, choices=choices)
    parser.add_argument("--config")


def _settings(args: argparse.Namespace, **defaults) -> dict:
    """The settings of ``args.command``: each from its flag if given, else
    from the --config file, else its default or the one in ``defaults``;
    ``ValueError`` for a value not of its JSON type. A number is read as a
    float."""
    file_config = _load_config_file(args.config)
    cfg = {}
    for key in _COMMAND_SETTINGS[args.command]:
        _, kind, default, _ = _SETTINGS[key]
        value = getattr(args, key)
        if value is None:
            value = file_config.get(key, defaults.get(key, default))
        check_structure(value, kind, key, ValueError)
        cfg[key] = float(value) if kind is NUMBER else value
    return cfg


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


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def _cmd_generate(args: argparse.Namespace) -> int:
    cfg = _settings(args)
    noise_sd = cfg["noise_sd"]
    if cfg["spec_json"] is not None:
        with open(cfg["spec_json"], encoding="utf-8") as fh:
            spec = datagen.spec_from_json(fh.read())
    elif cfg["benchmark"] == "piecewise":
        base = datagen.default_piecewise_spec()
        spec = datagen.PiecewiseSpec(
            class_profiles=base.class_profiles,
            noise_sd=base.noise_sd if noise_sd is None else noise_sd,
            curves_per_subclass=cfg["per_subclass"],
            n_points=base.n_points,
            span=base.span,
        )
    elif cfg["benchmark"] == "waveform":
        spec = datagen.WaveformSpec(
            curves_per_class=cfg["per_class"],
            noise_sd=1.0 if noise_sd is None else noise_sd,
            merge=cfg["merge"],
        )
    else:
        raise ValueError(f"unknown benchmark {cfg['benchmark']!r}")

    seed = cfg["seed"]
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
    cfg = _settings(args)
    data = _read_dataset(args.data)
    config = TrainConfig(**cfg)
    model, reports = train_detailed(data, config)
    for label, rep in enumerate(reports, start=1):
        if not rep.converged:
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
            {
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
    _write_csv(
        args.out,
        ["index", "label", *(f"p{g}" for g in range(1, model.n_classes + 1))],
        ([i, label, *row]
         for i, (label, row) in enumerate(zip(labels.tolist(), posteriors.tolist()))),
    )
    return 0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def _cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _settings(args)
    k = cfg.pop("k_folds")
    data = _read_dataset(args.data)
    config = TrainConfig(**cfg)
    if k < 2:
        raise ValueError("k_folds must be >= 2")
    report = evaluate_variant(data, config, k=k, seed=config.seed)
    doc = {"command": "evaluate", "k_folds": k, **report.to_dict(),
           "config_hash": report.config_hash()}
    atomic_write_text(args.out, _dump_json(doc))
    if args.summary_csv is not None:
        _write_csv(
            args.summary_csv,
            ["variant", "error_rate", "intra_class_inertia", "seed", "config_hash"],
            [[report.variant, report.error_rate, report.intra_class_inertia, report.seed,
              report.config_hash()]],
        )
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
    cfg = _settings(args, degree=0)
    data = _read_dataset(args.data)
    k_range = _parse_range(cfg["k_range"])
    r_range = _parse_range(cfg["r_range"])
    degree = cfg["degree"]
    base = mixrhlp.EmConfig(
        max_iter=cfg["max_iter"], tol=cfg["tol"], n_restarts=cfg["n_restarts"], seed=cfg["seed"]
    )

    rows = []
    class_models = []
    for g in range(1, data.n_classes + 1):
        params, cells = mixrhlp.select_model(
            data.class_values(g), data.grid, k_range, r_range, degree, base
        )
        class_models.append(params)
        chosen = (params.n_clusters, params.regimes[0] if params.regimes else 0)
        rows.extend(
            [g, c.n_clusters, c.n_regimes, c.loglik, c.n_params, c.bic,
             int((c.n_clusters, c.n_regimes) == chosen)]
            for c in cells
        )
    _write_csv(
        args.out_table,
        ["class", "n_clusters", "n_regimes", "loglik", "n_params", "bic", "selected"],
        rows,
    )

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
        _write_csv(
            os.path.join(out, f"mean_curves_class{g}.csv"),
            ["t", *(f"cluster_{k + 1}" for k in range(means.shape[0]))],
            np.column_stack([t, means.T]).tolist(),
        )

        cm = model.class_models[g - 1]
        if model.variant in RHLP_VARIANTS:
            for k, cluster in enumerate(cm.clusters, start=1):
                probs = regime_probabilities(cluster.logistic, model.grid)
                _write_csv(
                    os.path.join(out, f"regime_probs_class{g}_cluster{k}.csv"),
                    ["t", *(f"regime_{r + 1}" for r in range(probs.shape[1]))],
                    np.column_stack([t, probs]).tolist(),
                )

        resp = class_cluster_responsibilities(model, g, data.class_values(g))
        if resp.shape[1] > 1:
            assigned = np.argmax(resp, axis=1) + 1
            _write_csv(
                os.path.join(out, f"assignments_class{g}.csv"),
                ["index", "cluster"],
                zip(data.class_indices(g).tolist(), assigned.tolist()),
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
    _add_settings(p, "generate")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("fit", help="train a classifier on a dataset")
    p.add_argument("--data", required=True)
    _add_settings(p, "fit")
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
    _add_settings(p, "evaluate")
    p.add_argument("--out", required=True)
    p.add_argument("--summary-csv", dest="summary_csv")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("select", help="BIC sweep over (K, R) per class")
    p.add_argument("--data", required=True)
    _add_settings(p, "select")
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
