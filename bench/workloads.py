"""The benchmark's workloads, each run in processes of its own.

``run.py`` starts this script with the package's ``src`` on
``PYTHONPATH`` and BLAS pinned to one thread. The script imports the
package, builds the workload's inputs from the seed (set-up, timed),
then runs whole rounds of the workload's operations in a closed loop
until ``--seconds`` have passed, checking every output of every round.
It prints one JSON line: the set-up time, the time spent in rounds, the
per-round timings (CPU and wall), peak memory, the operations attempted
and failed, and with ``--trace 1`` the per-layer metrics.

Inputs. EM's cost on these benchmarks depends on the noise draw, through
the iterations each restart takes: over draws 0-5 the flagship piecewise
evaluate takes 22-46 s and the waveform baseline CVs 0.9-1.6 s, so a
fresh draw per seed would time the draw rather than the program. The
fitting workloads therefore take draw 0 of the package's generators (the
draw the acceptance tests use) under a seed-drawn change of units
x -> a x + b. Every model here is equivariant to it, so each seed does the
same EM work on different numbers. ``cli-classify`` trains on draw 0 and
classifies the held-out draw ``seed + 1``.

Workloads (see README.md for why each was chosen):

* ``piecewise-cv``: the paper's piecewise benchmark under 5-fold CV,
  ``fmda-mixrhlp`` (K=3, R=3, p=0) then three baselines.
* ``waveform-fit``: one MixRHLP EM fit on the 1000 merged class-1
  waveform curves, then 5-fold CV of two regression-mixture baselines.
* ``cli-classify``: ``regimix fit``, ``classify`` (15 000 held-out
  curves) and ``export-plots`` driven in-process through ``cli.main``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from statistics import median

clock = time.perf_counter
cpu_clock = time.process_time


class Operation:
    """One timed call of the program plus the problems its checks found.

    A round's MixRHLP call is group 0; the others form one or more groups
    of the remaining calls. ``cpu_seconds`` is the process's CPU time over
    the call: the process runs one thread, so it is the call's wall time
    less the time the shared host's hypervisor took the CPU away (steal).
    """

    def __init__(self, name: str, group: int):
        self.name = name
        self.group = group
        self.seconds = 0.0
        self.cpu_seconds = 0.0
        self.result = None
        self.problems: list[str] = []

    def run(self, fn, *args, **kwargs):
        start, cpu_start = clock(), cpu_clock()
        try:
            self.result = fn(*args, **kwargs)
        except Exception:  # a crashing operation is a failed one; keep measuring
            self.problems.append(traceback.format_exc(limit=3))
        self.seconds = clock() - start
        self.cpu_seconds = cpu_clock() - cpu_start


def change_of_units(seed: int) -> tuple[float, float]:
    """(a, b) of the map x -> a x + b applied to a workload's curves.

    Seed 0 is the identity, so it runs the draw the acceptance tests use.
    """
    if seed == 0:
        return 1.0, 0.0
    import numpy as np

    rng = np.random.default_rng(seed)
    return float(np.exp(rng.uniform(np.log(0.5), np.log(2.0)))), float(rng.uniform(-5.0, 5.0))


def in_units(data, units):
    from regimix import core

    scale, offset = units
    return core.LabeledCurveSet(scale * data.values + offset, data.labels, data.grid, data.n_classes)


# ---------------------------------------------------------------------------
# piecewise-cv
# ---------------------------------------------------------------------------


class PiecewiseCv:
    """5-fold CV plus full-data fit and inertia, flagship and baselines.

    The three baselines take about 0.2 s together, too little for one
    timing per run to be steady, so each round evaluates them
    ``baseline_repeats`` times, half before the flagship's 40-odd seconds
    and half after, and ``others_cpu_s`` is the median trio. Split so, the
    trios sample the machine's speed across the whole round rather than
    in one few-second stretch of it.
    """

    k = 5
    baseline_repeats = 40
    #: One round outlasts any run length, so a run is one process.
    slices = 1
    flagship = ("fmda-mixrhlp", dict(degree=0, n_clusters=3, n_regimes=3))
    baselines = (
        ("flda-pr", dict(degree=0)),
        ("flda-sr", dict(spline_order=4, interior_knots=10)),
        ("fmda-prm", dict(degree=0, n_clusters=3)),
    )

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def setup(self):
        from regimix import datagen

        self.units = change_of_units(self.seed)
        self.data = in_units(datagen.gen_piecewise(datagen.default_piecewise_spec(), 0), self.units)

    def inputs(self) -> dict:
        return {"curves": 40, "points": 200, "classes": 2, "draw": 0, "units": self.units}

    def _evaluate(self, variant: str, kw: dict, group: int) -> Operation:
        from regimix import discriminant, evaluation

        config = discriminant.TrainConfig(variant=variant, n_restarts=5, seed=0, max_iter=100, **kw)
        op = Operation(variant, group)
        op.run(evaluation.evaluate_variant, self.data, config, k=self.k, seed=0)
        return op

    def _trios(self, reps: range) -> list[Operation]:
        return [self._evaluate(variant, kw, rep) for rep in reps for variant, kw in self.baselines]

    def run_round(self) -> list[Operation]:
        half = self.baseline_repeats // 2
        ops = self._trios(range(1, half + 1))
        ops.append(self._evaluate(*self.flagship, 0))
        return ops + self._trios(range(half + 1, self.baseline_repeats + 1))

    def check(self, ops: list[Operation]) -> None:
        import checks
        from regimix import evaluation

        folds = evaluation.kfold_split(self.data, self.k, 0)
        results = {}
        for op in ops:
            if op.result is None:
                continue
            results.setdefault(op.name, (op.result.error_rate, op.result.intra_class_inertia))
            op.problems += checks.fold_mean(op.result.error_rate, op.result.per_fold_rates)
            if op.name == "flda-pr":
                op.problems += checks.folds_partition(folds, self.data.labels, self.k)
                op.problems += checks.flda_pr_matches(
                    op.result.error_rate, op.result.per_fold_rates,
                    self.data.values, self.data.labels, folds,
                )
        if len(results) == 1 + len(self.baselines):
            flagship = next(op for op in ops if op.group == 0)
            flagship.problems += checks.paper_ordering(results, self.flagship[0])

    def digest(self, ops: list[Operation]) -> dict:
        return {
            op.name: {"error_rate": op.result.error_rate,
                      "intra_class_inertia": op.result.intra_class_inertia}
            for op in ops if op.result is not None
        }


# ---------------------------------------------------------------------------
# waveform-fit
# ---------------------------------------------------------------------------


class WaveformFit:
    """MixRHLP EM on many short curves, then two baseline CVs."""

    k = 5
    #: An untraced run spreads its rounds over this many fresh processes.
    slices = 3
    baselines = (
        ("fmda-prm", dict(degree=4, n_clusters=2)),
        ("fmda-srm", dict(spline_order=4, interior_knots=8, n_clusters=2)),
    )

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def setup(self):
        from regimix import datagen

        spec = datagen.WaveformSpec(curves_per_class=500, merge=True)
        self.units = change_of_units(self.seed)
        self.data = in_units(datagen.gen_waveform(spec, 0), self.units)
        merged = self.data.labels == 1
        self.values = self.data.values[merged]
        self.origin = datagen.waveform_subclass_origin(spec)[merged]

    def inputs(self) -> dict:
        return {"curves": int(self.data.n_curves), "fit_curves": int(self.values.shape[0]),
                "points": len(self.data.grid), "classes": 2, "draw": 0, "units": self.units}

    def run_round(self) -> list[Operation]:
        from regimix import discriminant, evaluation, mixrhlp

        config = mixrhlp.EmConfig(
            n_clusters=2, n_regimes=2, degree=3, max_iter=100, tol=1e-6, n_restarts=3, seed=0
        )
        fit = Operation("em_fit", 0)
        fit.run(mixrhlp.em_fit, self.values, self.data.grid, config)
        ops = [fit]
        for variant, kw in self.baselines:
            tc = discriminant.TrainConfig(variant=variant, n_restarts=3, seed=0, max_iter=100, **kw)
            op = Operation(f"cv_error_rate {variant}", 1)
            op.run(evaluation.cv_error_rate, self.data, tc, k=self.k, seed=0)
            ops.append(op)
        return ops

    def check(self, ops: list[Operation]) -> None:
        import checks
        import reference

        fit = ops[0]
        if fit.result is not None:
            params, report = fit.result
            clusters = [(c.logistic.coef, c.coeffs, c.variances) for c in params.clusters]
            t = self.data.grid.points
            loglik = report.loglik_trace[-1]
            fit.problems += checks.monotone(report.loglik_trace)
            fit.problems += checks.loglik_matches(loglik, self.values, t, params.weights, clusters)
            fit.problems += checks.bic_matches(
                report.bic, loglik, self.values.shape[0], params.n_clusters, params.regimes, 3
            )
            fit.problems += checks.clusters_recover(
                reference.mixrhlp_cluster_logliks(self.values, t, params.weights, clusters),
                self.origin,
            )
        for (variant, _), op in zip(self.baselines, ops[1:]):
            if op.result is not None:
                rate, per_fold = op.result
                op.problems += checks.fold_mean(rate, per_fold)
                op.problems += checks.below_majority(rate, variant)

    def digest(self, ops: list[Operation]) -> dict:
        out = {}
        if ops[0].result is not None:
            report = ops[0].result[1]
            out["em_fit"] = {"loglik": report.loglik_trace[-1], "iterations": report.iterations,
                             "converged": report.converged, "bic": report.bic}
        for op in ops[1:]:
            if op.result is not None:
                out[op.name] = {"error_rate": op.result[0]}
        return out


# ---------------------------------------------------------------------------
# cli-classify
# ---------------------------------------------------------------------------


class CliClassify:
    """generate, fit, classify and export-plots as a user drives them."""

    train_per_class = 200
    #: An untraced run spreads its rounds over this many fresh processes.
    slices = 3
    heldout_per_class = 5000

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.train = os.path.join(workdir, "train")
        self.heldout = os.path.join(workdir, "heldout")
        self.model = os.path.join(workdir, "model.json")
        self.report = os.path.join(workdir, "report.json")
        self.predictions = os.path.join(workdir, "predictions.csv")
        self.plots = os.path.join(workdir, "plots")
        self.reference = None
        #: (model.json text, MAP labels, posteriors): every round fits the same
        #: model, so the reference MAP is recomputed only when the text differs.
        self.expected = (None, None, None)

    def _generate(self, directory: str, per_class: int, seed: int) -> None:
        from regimix import cli

        os.makedirs(directory, exist_ok=True)
        argv = ["generate", "--benchmark", "waveform", "--per-class", str(per_class),
                "--seed", str(seed), "--out", directory]
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"regimix {' '.join(argv)} exited {code}")

    def setup(self):
        self._generate(self.train, self.train_per_class, 0)
        self._generate(self.heldout, self.heldout_per_class, self.seed + 1)

    def inputs(self) -> dict:
        return {"train_curves": 3 * self.train_per_class,
                "heldout_curves": 3 * self.heldout_per_class, "points": 21, "classes": 2,
                "train_draw": 0, "heldout_draw": self.seed + 1}

    def run_round(self) -> list[Operation]:
        from regimix import cli

        for path in (self.model, self.report, self.predictions):
            if os.path.exists(path):
                os.unlink(path)
        shutil.rmtree(self.plots, ignore_errors=True)
        os.makedirs(self.plots)

        steps = (
            ("fit", ["fit", "--data", self.train, "--variant", "fmda-mixrhlp", "--K", "2",
                     "--R", "2", "--p", "3", "--n-restarts", "1", "--out", self.model,
                     "--report", self.report]),
            ("classify", ["classify", "--model", self.model, "--data", self.heldout,
                          "--out", self.predictions]),
            ("export-plots", ["export-plots", "--model", self.model, "--data", self.train,
                              "--out", self.plots]),
        )
        ops = []
        for name, argv in steps:
            op = Operation(name, 0 if name == "fit" else 1)
            op.run(cli.main, argv)
            ops.append(op)
        return ops

    def _load_reference(self):
        """The held-out set read back with numpy, apart from the package's parser."""
        import numpy as np

        table = np.loadtxt(os.path.join(self.heldout, "curves.csv"), delimiter=",", ndmin=2)
        grid = np.loadtxt(os.path.join(self.heldout, "grid.csv"), delimiter=",", ndmin=1)
        return table[:, 0].astype(int), table[:, 1:], grid

    def check(self, ops: list[Operation]) -> None:
        import numpy as np

        import checks
        import reference

        fit, classify, export = ops
        fit.problems += checks.command_ok(fit.result, [self.model, self.report])
        if not fit.problems:
            with open(self.report, encoding="utf-8") as fh:
                fit.problems += checks.report_traces_monotone(json.load(fh))

        classify.problems += checks.command_ok(classify.result, [self.predictions])
        if not classify.problems:
            from regimix import discriminant

            if self.reference is None:
                self.reference = self._load_reference()
            true_labels, values, t = self.reference
            with open(self.model, encoding="utf-8") as fh:
                text = fh.read()
            if self.expected[0] != text:
                model = discriminant.model_from_json(text)
                class_logliks = np.column_stack([
                    reference.mixrhlp_curve_logliks(
                        values, t, cm.weights,
                        [(c.logistic.coef, c.coeffs, c.variances) for c in cm.clusters],
                    )
                    for cm in model.class_models
                ])
                self.expected = (text, *reference.map_rule(class_logliks, model.priors))
            _, ref_labels, ref_posteriors = self.expected
            table = np.loadtxt(self.predictions, delimiter=",", skiprows=1, ndmin=2)
            labels = table[:, 1].astype(int)
            classify.problems += checks.predictions_match(labels, table[:, 2:], ref_labels, ref_posteriors)
            classify.problems += checks.below_majority(
                float(np.mean(labels != true_labels)), "held-out"
            )

        expected = [os.path.join(self.plots, f"mean_curves_class{g}.csv") for g in (1, 2)]
        expected += [os.path.join(self.plots, f"assignments_class{g}.csv") for g in (1, 2)]
        expected += [os.path.join(self.plots, f"regime_probs_class{g}_cluster{k}.csv")
                     for g in (1, 2) for k in (1, 2)]
        export.problems += checks.command_ok(export.result, expected)

    def digest(self, ops: list[Operation]) -> dict:
        if not os.path.isfile(self.report):
            return {}
        with open(self.report, encoding="utf-8") as fh:
            report = json.load(fh)
        return {"fit": [None if c is None else {"loglik": c["loglik_trace"][-1],
                                                "iterations": c["iterations"]}
                        for c in report["per_class"]]}


def figures(ops: list[Operation]) -> dict:
    """mixrhlp_*: the MixRHLP call; others_*: the median group of the rest."""
    out = {}
    for clock_name, attr in (("cpu", "cpu_seconds"), ("wall", "seconds")):
        groups: dict[int, float] = {}
        for op in ops:
            groups[op.group] = groups.get(op.group, 0.0) + getattr(op, attr)
        out[f"mixrhlp_{clock_name}_s"] = groups.pop(0)
        out[f"others_{clock_name}_s"] = median(list(groups.values()))
    return out


WORKLOADS = {"piecewise-cv": PiecewiseCv, "waveform-fit": WaveformFit, "cli-classify": CliClassify}


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="where the traced run writes its spans")
    parser.add_argument("--setup-only", action="store_true",
                        help="time the set-up alone, in a fresh process")
    args = parser.parse_args(argv)

    os.makedirs(args.workdir, exist_ok=True)
    try:
        start = clock()
        import regimix  # noqa: F401  (the import is part of the timed set-up)

        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            tracer.active = True
        workload = WORKLOADS[args.workload](args.seed, args.workdir)
        workload.setup()
        setup_s = clock() - start
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        rounds = []
        loop_start = clock()
        deadline = loop_start + args.seconds
        while not rounds or clock() < deadline:
            if tracer is not None:
                tracer.segment = f"round-{len(rounds)}"
                tracer.active = True
            ops = workload.run_round()
            if tracer is not None:
                tracer.active = False
            workload.check(ops)
            rounds.append(ops)

        out = {
            "setup_s": setup_s,
            "measured_s": clock() - loop_start,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "rounds": [figures(ops) for ops in rounds],
            "attempted": sum(len(ops) for ops in rounds),
            "failed": sum(bool(op.problems) for ops in rounds for op in ops),
            "problems": sorted({p for ops in rounds for op in ops for p in
                                (f"{op.name}: {q}" for q in op.problems)}),
            "digest": workload.digest(rounds[-1]),
            "inputs": workload.inputs(),
            "machine": machine(),
        }
        if tracer is not None:
            from tracer import per_layer_metrics

            tracer.uninstall()
            out["per_layer"] = per_layer_metrics(tracer)
            out["spans"] = len(tracer.spans)
            if args.spans:
                tracer.write(args.spans)
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
