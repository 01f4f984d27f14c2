"""Span tracer for the traced benchmark run.

The package has no instrumentation of its own, so the traced run swaps
module attributes for timing wrappers: the public functions that mark a
layer boundary, the names one module imports from another (such as
``mixrhlp.irls_fit`` or ``cli.read_curveset``), and a few module-level
private functions where no public boundary exists. No source file is
edited. A hook whose target is missing is skipped, and every metric that
needs it is reported as absent.

Each wrapped call records a span ``(id, parent, name, start, end,
segment, attrs)`` in memory; the spans are written out when the run
ends. A span's self time is its duration minus that of its direct
children. Counts are taken from the same spans, so they are measured at
the same boundaries as the times.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from statistics import median


def _read_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0]) + os.path.getsize(args[1])}


def _write_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _em_once_attrs(args, kwargs, result):
    return {"iterations": len(result[1]) - 1}


def _rescue_attr(position: int, default):
    def attrs(args, kwargs, result):
        rescue = args[position] if len(args) > position else kwargs.get("rescue", default)
        return {"rescue": bool(rescue)}

    return attrs


def _command_attrs(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    return {"command": argv[0]}


def _fold_attrs(args, kwargs, result):
    return {"folds": len(result)}


#: (module, attribute, span name, attribute function or None)
HOOKS = (
    ("regimix.logistic", "irls_fit", "irls_fit", None),
    ("regimix.mixrhlp", "irls_fit", "irls_fit", None),
    ("regimix.logistic", "qw_value", "qw_value", None),
    ("regimix.logistic", "qw_gradient_hessian", "qw_gradient_hessian", None),
    ("regimix.mixrhlp", "_e_step_full", "e_step", None),
    ("regimix.mixrhlp", "_m_step_impl", "m_step", _rescue_attr(6, True)),
    ("regimix.mixrhlp", "_em_once", "em_once", _em_once_attrs),
    ("regimix.mixrhlp", "initial_params", "initial_params", None),
    ("regimix.mixrhlp", "mixrhlp_loglik_set", "density", None),
    ("regimix.core", "ridge_solve", "ridge_solve", None),
    ("regimix.mixrhlp", "ridge_solve", "ridge_solve", None),
    ("regimix.baselines", "ridge_solve", "ridge_solve", None),
    ("regimix.core", "read_curveset", "read_curveset", _read_attrs),
    ("regimix.cli", "read_curveset", "read_curveset", _read_attrs),
    ("regimix.core", "write_curveset", "write_curveset", None),
    ("regimix.cli", "write_curveset", "write_curveset", None),
    ("regimix.core", "atomic_write_text", "atomic_write", _write_attrs),
    ("regimix.cli", "atomic_write_text", "atomic_write", _write_attrs),
    ("regimix.baselines", "fit_single_regression", "baseline_fit", None),
    ("regimix.baselines", "fit_regression_mixture", "baseline_fit", None),
    ("regimix.baselines", "_mixture_m_step", "baseline_m_step", _rescue_attr(6, True)),
    ("regimix.discriminant", "train_detailed", "train", None),
    ("regimix.cli", "train_detailed", "train", None),
    ("regimix.discriminant", "classify_set", "classify_set", None),
    ("regimix.evaluation", "classify_set", "classify_set", None),
    ("regimix.cli", "classify_set", "classify_set", None),
    ("regimix.discriminant", "model_to_json", "model_json", None),
    ("regimix.cli", "model_to_json", "model_json", None),
    ("regimix.discriminant", "model_from_json", "model_json", None),
    ("regimix.cli", "model_from_json", "model_json", None),
    ("regimix.evaluation", "cv_error_rate", "cv_error_rate", None),
    ("regimix.evaluation", "kfold_split", "kfold_split", _fold_attrs),
    ("regimix.evaluation", "intra_class_inertia", "inertia", None),
    ("regimix.datagen", "gen_piecewise", "generate", None),
    ("regimix.datagen", "gen_waveform", "generate", None),
    ("regimix.cli", "main", "cli_main", _command_attrs),
)


class Tracer:
    """Records spans of wrapped calls while ``active`` is true."""

    def __init__(self):
        self.spans: list[list] = []
        self.installed: set[str] = set()
        self.active = False
        self.segment = "setup"
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, name, attrs in HOOKS:
            module = importlib.import_module(module_name)
            target = getattr(module, attr, None)
            if not callable(target):
                continue
            setattr(module, attr, self._wrap(target, name, attrs))
            self._restore.append((module, attr, target))
            self.installed.add(name)

    def uninstall(self) -> None:
        for module, attr, target in reversed(self._restore):
            setattr(module, attr, target)
        self._restore.clear()

    def _wrap(self, fn, name, attrs):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0, self.segment, None]
            spans.append(span)
            stack.append(span[0])
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if attrs is not None:
                try:
                    span[6] = attrs(args, kwargs, result)
                except (IndexError, KeyError, TypeError, OSError):
                    span[6] = {}
            return result

        return wrapper

    def write(self, path: str) -> None:
        """One JSON array per line: id, parent, name, start, end, segment, attrs."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------

def exhausted_q_evals() -> int:
    """Q evaluations in a line search that used every step-halving: the
    full step plus ``logistic._MAX_HALVINGS`` halvings."""
    from regimix import logistic

    return getattr(logistic, "_MAX_HALVINGS", 30) + 1


#: name -> (unit, span names it needs)
PER_LAYER = {
    "logistic.irls_calls": ("count", ("irls_fit",)),
    "logistic.irls_s": ("s", ("irls_fit",)),
    "logistic.newton_steps": ("count", ("irls_fit", "qw_gradient_hessian")),
    "logistic.q_evals": ("count", ("irls_fit", "qw_value")),
    "logistic.q_evals_per_newton_step": ("ratio", ("irls_fit", "qw_value", "qw_gradient_hessian")),
    "logistic.exhausted_line_searches": ("count", ("irls_fit", "qw_value", "qw_gradient_hessian")),
    "mixrhlp.e_steps": ("count", ("e_step",)),
    "mixrhlp.e_step_s": ("s", ("e_step",)),
    "mixrhlp.em_iterations": ("count", ("em_once",)),
    "mixrhlp.restarts": ("count", ("em_once",)),
    "mixrhlp.rescue_fallbacks": ("count", ("m_step",)),
    "mixrhlp.m_step_self_s": ("s", ("m_step", "irls_fit", "ridge_solve")),
    "mixrhlp.init_s": ("s", ("initial_params",)),
    "mixrhlp.density_calls": ("count", ("density",)),
    "mixrhlp.density_s": ("s", ("density",)),
    "core.ridge_solves": ("count", ("ridge_solve",)),
    "core.ridge_solve_s": ("s", ("ridge_solve",)),
    "core.read_curveset_s": ("s", ("read_curveset",)),
    "core.read_bytes": ("B", ("read_curveset",)),
    "core.write_curveset_s": ("s", ("write_curveset",)),
    "core.atomic_writes": ("count", ("atomic_write",)),
    "core.written_bytes": ("B", ("atomic_write",)),
    "baselines.fit_s": ("s", ("baseline_fit",)),
    "baselines.em_iterations": ("count", ("baseline_m_step",)),
    "discriminant.train_s": ("s", ("train",)),
    "discriminant.classify_set_s": ("s", ("classify_set",)),
    "discriminant.model_json_s": ("s", ("model_json",)),
    "evaluation.folds": ("count", ("kfold_split",)),
    "evaluation.fold_s": ("s", ("cv_error_rate",)),
    "evaluation.inertia_s": ("s", ("inertia",)),
    "datagen.generate_s": ("s", ("generate",)),
    "cli.fit_self_s": ("s", ("cli_main",)),
    "cli.classify_self_s": ("s", ("cli_main",)),
    "cli.export_plots_s": ("s", ("cli_main",)),
}


def _layer_metrics(spans: list[list], exhausted: int) -> dict:
    """Every per-layer value over one segment's spans; a value is None when
    a span lacks the attribute it is counted from."""
    children: dict[int, list[list]] = {}
    by_id = {}
    by_name: dict[str, list[list]] = {}
    for span in spans:
        by_id[span[0]] = span
        children.setdefault(span[1], []).append(span)
        by_name.setdefault(span[2], []).append(span)

    def named(name):
        return by_name.get(name, [])

    def dur(span):
        return span[4] - span[3]

    def self_time(span):
        return dur(span) - sum(dur(c) for c in children.get(span[0], ()))

    def covered(name):
        """Time inside ``name`` spans not nested in another ``name`` span."""
        total = 0.0
        for span in named(name):
            parent = by_id.get(span[1])
            while parent is not None and parent[2] != name:
                parent = by_id.get(parent[1])
            total += dur(span) if parent is None else 0.0
        return total

    def total(name, key, pick=lambda v: v):
        values = [(s[6] or {}).get(key) for s in named(name)]
        return None if None in values else sum(pick(v) for v in values)

    newton_steps = q_evals = exhausted_searches = 0
    for irls in named("irls_fit"):
        run = None  # Q evaluations since the last Newton step
        for child in children.get(irls[0], ()):
            if child[2] == "qw_gradient_hessian":
                exhausted_searches += run == exhausted
                newton_steps += 1
                run = 0
            elif child[2] == "qw_value":
                q_evals += 1
                run = None if run is None else run + 1
        exhausted_searches += run == exhausted

    commands = [((s[6] or {}).get("command"), s) for s in named("cli_main")]
    return {
        "logistic.irls_calls": len(named("irls_fit")),
        "logistic.irls_s": covered("irls_fit"),
        "logistic.newton_steps": newton_steps,
        "logistic.q_evals": q_evals,
        "logistic.exhausted_line_searches": exhausted_searches,
        "mixrhlp.e_steps": len(named("e_step")),
        "mixrhlp.e_step_s": covered("e_step"),
        "mixrhlp.em_iterations": total("em_once", "iterations"),
        "mixrhlp.restarts": len(named("em_once")),
        "mixrhlp.rescue_fallbacks": total("m_step", "rescue", lambda v: not v),
        "mixrhlp.m_step_self_s": sum(self_time(s) for s in named("m_step")),
        "mixrhlp.init_s": covered("initial_params"),
        "mixrhlp.density_calls": len(named("density")),
        "mixrhlp.density_s": covered("density"),
        "core.ridge_solves": len(named("ridge_solve")),
        "core.ridge_solve_s": covered("ridge_solve"),
        "core.read_curveset_s": covered("read_curveset"),
        "core.read_bytes": total("read_curveset", "bytes"),
        "core.write_curveset_s": covered("write_curveset"),
        "core.atomic_writes": len(named("atomic_write")),
        "core.written_bytes": total("atomic_write", "bytes"),
        "baselines.fit_s": covered("baseline_fit"),
        "baselines.em_iterations": total("baseline_m_step", "rescue"),
        "discriminant.train_s": covered("train"),
        "discriminant.classify_set_s": covered("classify_set"),
        "discriminant.model_json_s": covered("model_json"),
        "evaluation.folds": total("kfold_split", "folds"),
        "evaluation.fold_s": covered("cv_error_rate"),
        "evaluation.inertia_s": covered("inertia"),
        "datagen.generate_s": covered("generate"),
        "cli.fit_self_s": sum(self_time(s) for c, s in commands if c == "fit"),
        "cli.classify_self_s": sum(self_time(s) for c, s in commands if c == "classify"),
        "cli.export_plots_s": sum(dur(s) for c, s in commands if c == "export-plots"),
    }


def per_layer_metrics(tracer: Tracer) -> dict:
    """Set-up plus the median round, for every metric whose hooks exist.

    Rounds repeat the same operations on the same inputs, so counts are
    the same in every round and the median only steadies the times.
    """
    exhausted = exhausted_q_evals()
    segments: dict[str, list[list]] = {}
    for span in tracer.spans:
        segments.setdefault(span[5], []).append(span)
    setup = _layer_metrics(segments.pop("setup", []), exhausted)
    rounds = [_layer_metrics(spans, exhausted) for spans in segments.values()]
    values = {}
    for name, value in setup.items():
        per_round = [r[name] for r in rounds]
        if value is None or None in per_round:
            continue
        values[name] = value + (median(per_round) if per_round else 0)
    if "logistic.q_evals" in values:
        steps = values["logistic.newton_steps"]
        values["logistic.q_evals_per_newton_step"] = values["logistic.q_evals"] / steps if steps else 0.0
    out = {}
    for name, (unit, needs) in PER_LAYER.items():
        if name in values and all(n in tracer.installed for n in needs):
            value = values[name]
            out[name] = {"value": int(round(value)) if unit in ("count", "B") else value, "unit": unit}
    return out
