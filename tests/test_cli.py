import json
import os
import pathlib

import numpy as np
import pytest

from regimix.cli import _COMMAND_SETTINGS, main
from regimix.core import read_curveset, vandermonde
from regimix.discriminant import classify_set, model_from_json
from regimix.mixrhlp import mean_curves


DATA = pathlib.Path(__file__).parent / "data"


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def small_spec(tmp_path):
    """A fast two-class piecewise benchmark for CLI round trips."""
    doc = {
        "benchmark": "piecewise",
        "classes": [
            [{"levels": [0.0, 2.0], "boundaries": [0.5], "sharpness": None}],
            [{"levels": [8.0, 5.0], "boundaries": [0.5], "sharpness": None}],
        ],
        "noise_sd": 0.3,
        "curves_per_subclass": 6,
        "n_points": 30,
        "span": [0.0, 1.0],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def dataset_dir(tmp_path, small_spec):
    out = tmp_path / "data"
    out.mkdir()
    assert run("generate", "--spec-json", small_spec, "--seed", "3", "--out", str(out)) == 0
    return str(out)


class TestGenerate:
    def test_waveform_counts_and_labels(self, tmp_path):
        out = tmp_path / "wf"
        out.mkdir()
        code = run(
            "generate", "--benchmark", "waveform", "--merge",
            "--per-class", "500", "--seed", "7", "--out", str(out),
        )
        assert code == 0
        data = read_curveset(str(out / "grid.csv"), str(out / "curves.csv"))
        assert data.n_curves == 1500
        assert set(np.unique(data.labels)) == {1, 2}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 7
        assert manifest["spec"]["curves_per_class"] == 500

    def test_rerun_byte_identical(self, tmp_path):
        out = tmp_path / "d"
        out.mkdir()
        args = ("generate", "--benchmark", "piecewise", "--per-subclass", "2",
                "--seed", "5", "--out", str(out))
        assert run(*args) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert run(*args) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second

    def test_missing_output_dir_no_partial_files(self, tmp_path):
        missing = tmp_path / "nope"
        code = run("generate", "--benchmark", "piecewise", "--out", str(missing))
        assert code == 3
        assert not missing.exists()

    def test_unknown_benchmark_is_config_error(self, tmp_path):
        (tmp_path / "o").mkdir()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"benchmark": "bogus"}))
        code = run("generate", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 2

    @pytest.mark.parametrize(
        "doc",
        [{"seed": 1.5}, {"seed": True}, {"benchmark": "piecewise", "per_subclass": 2.0},
         {"benchmark": "waveform", "per_class": "3"}],
    )
    def test_count_not_an_int_is_config_error(self, tmp_path, capsys, doc):
        # int() would take 1.5 for 1 and true for 1
        (tmp_path / "o").mkdir()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        capsys.readouterr()
        code = run("generate", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 2
        key, value = list(doc.items())[-1]
        assert capsys.readouterr().err.splitlines() == [
            f"regimix: configuration error: {key} must be an integer, got {value!r}"
        ]
        assert not any((tmp_path / "o").iterdir())

    def test_spec_not_an_object_is_data_error(self, tmp_path, capsys):
        # a spec file holding [1] used to end in an AttributeError traceback
        (tmp_path / "o").mkdir()
        spec = tmp_path / "spec.json"
        spec.write_text("[1]")
        capsys.readouterr()
        code = run("generate", "--spec-json", str(spec), "--out", str(tmp_path / "o"))
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [
            "regimix: data error: spec document must be a JSON object"
        ]
        assert not any((tmp_path / "o").iterdir())

    @pytest.mark.parametrize(
        "key, value",
        [("curves_per_subclass", 1.5), ("n_points", True), ("n_points", 30.0),
         ("curves_per_class", "3")],
    )
    def test_spec_count_not_an_int_is_data_error(self, tmp_path, capsys, small_spec, key, value):
        # int() would take 1.5 for 1 and true for 1, as for config counts
        (tmp_path / "o").mkdir()
        with open(small_spec, encoding="utf-8") as fh:
            doc = json.load(fh)
        if key == "curves_per_class":
            doc = {"benchmark": "waveform", "curves_per_class": 3}
        doc[key] = value
        spec = tmp_path / "bad_spec.json"
        spec.write_text(json.dumps(doc))
        capsys.readouterr()
        code = run("generate", "--spec-json", str(spec), "--out", str(tmp_path / "o"))
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].endswith(f"spec: {key} must be an integer, got {value!r}")
        assert not any((tmp_path / "o").iterdir())

    @pytest.mark.parametrize(
        "edit, message",
        [
            ("levels", "malformed piecewise spec: classes[0][0].levels must be a list, got '12'"),
            ("noise_sd", "malformed piecewise spec: noise_sd must be a number, got True"),
            ("merge", "malformed waveform spec: merge must be true or false, got 'no'"),
        ],
    )
    def test_spec_value_of_the_wrong_type_is_data_error(
            self, tmp_path, capsys, small_spec, edit, message):
        # the spec loader used to coerce these: "12" into the levels
        # [1.0, 2.0], true into a noise_sd of 1.0 and "no" into true
        (tmp_path / "o").mkdir()
        with open(small_spec, encoding="utf-8") as fh:
            doc = json.load(fh)
        if edit == "levels":
            doc["classes"][0][0]["levels"] = "12"
        elif edit == "noise_sd":
            doc["noise_sd"] = True
        else:
            doc = {"benchmark": "waveform", "curves_per_class": 3, "merge": "no"}
        spec = tmp_path / "bad_spec.json"
        spec.write_text(json.dumps(doc))
        capsys.readouterr()
        code = run("generate", "--spec-json", str(spec), "--out", str(tmp_path / "o"))
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [f"regimix: data error: {message}"]
        assert not any((tmp_path / "o").iterdir())

    @pytest.mark.parametrize("edit, message", [
        ("noise_sd", "malformed waveform spec: noise_sd must be positive and finite"),
        ("levels", "malformed piecewise spec: levels and boundaries must be finite"),
        ("huge_noise_sd", "malformed waveform spec: curve values could overflow"),
        ("huge_span", "malformed piecewise spec: span width must be finite"),
        ("huge_levels", "malformed piecewise spec: curve values could overflow"),
    ], ids=["noise_sd", "levels", "huge_noise_sd", "huge_span", "huge_levels"])
    def test_spec_value_not_finite_is_data_error(
            self, tmp_path, capsys, small_spec, edit, message):
        # these loaded, then failed at generation as a configuration error;
        # the huge ones also printed numpy overflow warnings
        (tmp_path / "o").mkdir()
        with open(small_spec, encoding="utf-8") as fh:
            doc = json.load(fh)
        if edit.endswith("noise_sd"):
            noise_sd = float("inf") if edit == "noise_sd" else 1e308
            doc = {"benchmark": "waveform", "curves_per_class": 2, "noise_sd": noise_sd}
        elif edit == "levels":
            doc["classes"][0][0]["levels"] = [float("nan"), 1.0]
        elif edit == "huge_span":
            doc["span"] = [-1e308, 1e308]
        else:
            doc["classes"][0][0].update(levels=[-1e308, 1e308], sharpness=10.0)
        spec = tmp_path / "bad_spec.json"
        spec.write_text(json.dumps(doc))
        capsys.readouterr()
        code = run("generate", "--spec-json", str(spec), "--out", str(tmp_path / "o"))
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [f"regimix: data error: {message}"]
        assert not any((tmp_path / "o").iterdir())

    def test_bad_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run("generate", "--benchmark", "nonsense", "--out", "x")
        assert exc.value.code == 2


class TestFit:
    def test_fit_writes_model_and_monotone_report(self, tmp_path, dataset_dir):
        model_path = tmp_path / "model.json"
        report_path = tmp_path / "report.json"
        code = run(
            "fit", "--data", dataset_dir, "--variant", "fmda-mixrhlp",
            "--K", "1", "--R", "2", "--p", "0", "--n-restarts", "2",
            "--seed", "1", "--out", str(model_path), "--report", str(report_path),
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        for per_class in report["per_class"]:
            trace = per_class["loglik_trace"]
            assert all(b - a >= -1e-8 for a, b in zip(trace, trace[1:]))
        assert report["config"]["tol"] == 1e-6  # stopping-rule default

    def test_rerun_byte_identical(self, tmp_path, dataset_dir):
        args = (
            "fit", "--data", dataset_dir, "--variant", "fmda-prm", "--K", "2",
            "--p", "0", "--n-restarts", "2", "--seed", "4",
            "--out", str(tmp_path / "m.json"),
        )
        assert run(*args) == 0
        first = (tmp_path / "m.json").read_bytes()
        assert run(*args) == 0
        assert (tmp_path / "m.json").read_bytes() == first

    def test_flda_rhlp_equals_single_cluster_mixrhlp(self, tmp_path, dataset_dir):
        common = ("--data", dataset_dir, "--R", "2", "--p", "0",
                  "--n-restarts", "2", "--seed", "2")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run("fit", *common, "--variant", "flda-rhlp", "--out", str(a)) == 0
        assert run("fit", *common, "--variant", "fmda-mixrhlp", "--K", "1",
                   "--out", str(b)) == 0
        doc_a = json.loads(a.read_text())
        doc_b = json.loads(b.read_text())
        assert doc_a.pop("variant") == "flda-rhlp"
        assert doc_b.pop("variant") == "fmda-mixrhlp"
        assert doc_a == doc_b

    @pytest.mark.parametrize("max_iter", ["2", "200"])
    def test_unconverged_class_fit_warns(self, tmp_path, dataset_dir, capsys, max_iter):
        # one stderr line per class fit that stops short of tol; the files
        # and the exit code are those of a fit without the warning
        report_path = tmp_path / "rep.json"
        capsys.readouterr()
        code = run(
            "fit", "--data", dataset_dir, "--variant", "fmda-mixrhlp", "--K", "2",
            "--R", "2", "--p", "0", "--n-restarts", "1", "--max-iter", max_iter,
            "--out", str(tmp_path / "m.json"), "--report", str(report_path),
        )
        assert code == 0
        per_class = json.loads(report_path.read_text())["per_class"]
        if max_iter == "2":
            assert [c["converged"] for c in per_class] == [False, False]
        else:
            assert any(c["converged"] for c in per_class)
        # the warning names the best restart's stop reason from the record
        assert capsys.readouterr().err.splitlines() == [
            f"regimix: warning: class {label} fit stopped after {c['iterations']} "
            "iterations without converging (stop reason: "
            f"{c['restarts'][c['best_restart']]['stop_reason']})"
            for label, c in enumerate(per_class, start=1)
            if not c["converged"]
        ]
        if max_iter == "2":
            assert [c["restarts"] for c in per_class] == [
                [{"loglik": c["loglik_trace"][-1], "iterations": 2, "stop_reason": "max_iter",
                  "extrapolations_accepted": 0, "extrapolations_rejected": 0}]
                for c in per_class
            ]

    def test_infeasible_clustering_is_config_error(self, tmp_path, dataset_dir):
        code = run(
            "fit", "--data", dataset_dir, "--variant", "fmda-mixrhlp",
            "--K", "99", "--out", str(tmp_path / "m.json"),
        )
        assert code == 2

    def test_unidentifiable_shape_is_config_error(self, tmp_path, dataset_dir):
        # the dataset has 30 grid points
        for flags in (("--R", "31", "--p", "0"), ("--R", "2", "--p", "30")):
            code = run(
                "fit", "--data", dataset_dir, "--variant", "fmda-mixrhlp",
                "--K", "1", *flags, "--out", str(tmp_path / "m.json"),
            )
            assert code == 2
        assert not (tmp_path / "m.json").exists()

    def test_missing_dataset_is_data_error(self, tmp_path):
        code = run(
            "fit", "--data", str(tmp_path / "void"), "--variant", "flda-pr",
            "--out", str(tmp_path / "m.json"),
        )
        assert code == 3

    def test_oversized_label_is_data_error(self, tmp_path, dataset_dir, capsys):
        # a label beyond every numpy integer is no class index: a one-line
        # error, not an OverflowError traceback
        curves = pathlib.Path(dataset_dir) / "curves.csv"
        first, rest = curves.read_text().split("\n", 1)
        curves.write_text("99999999999999999999," + first.split(",", 1)[1] + "\n" + rest)
        code = run("fit", "--data", dataset_dir, "--variant", "flda-pr",
                   "--out", str(tmp_path / "m.json"))
        assert code == 3
        assert "curves.csv:1: label above the number of curves" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("token", ["1_0", "\u0661"], ids=["underscore", "arabic-indic"])
    def test_value_that_only_float_takes_is_data_error(self, tmp_path, dataset_dir, capsys, token):
        # float() reads "1_0" as 10.0 and the Arabic-Indic digit one as 1.0;
        # the curve-set parser takes ASCII digits only, without separators
        curves = pathlib.Path(dataset_dir) / "curves.csv"
        lines = curves.read_text().split("\n")
        lines[2] = lines[2].rsplit(",", 1)[0] + "," + token
        curves.write_text("\n".join(lines))
        capsys.readouterr()
        code = run("fit", "--data", dataset_dir, "--variant", "flda-pr",
                   "--out", str(tmp_path / "m.json"))
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [
            f"regimix: data error: {curves}:3: could not convert string to float: {token!r}"
        ]
        assert not (tmp_path / "m.json").exists()

    def test_config_file_with_flag_override(self, tmp_path, dataset_dir):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"variant": "flda-pr", "degree": 3, "seed": 8}))
        report = tmp_path / "rep.json"
        code = run(
            "fit", "--data", dataset_dir, "--config", str(cfg), "--degree", "1",
            "--out", str(tmp_path / "m.json"), "--report", str(report),
        )
        assert code == 0
        effective = json.loads(report.read_text())["config"]
        assert effective["variant"] == "flda-pr"  # from file
        assert effective["degree"] == 1  # flag wins
        assert effective["seed"] == 8


    @pytest.mark.parametrize(
        "key, value",
        [("max_iter", 1.5), ("max_iter", True), ("n_restarts", 2.0), ("seed", "3"),
         ("n_clusters", False), ("degree", None)],
    )
    def test_count_not_an_int_is_config_error(self, tmp_path, dataset_dir, capsys, key, value):
        # int() would take 1.5 for 1 and true for 1; a count in a config
        # file must be an integer exactly
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"variant": "flda-pr", key: value}))
        capsys.readouterr()
        code = run("fit", "--data", dataset_dir, "--config", str(cfg),
                   "--out", str(tmp_path / "m.json"))
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"regimix: configuration error: {key} must be an integer, got {value!r}"
        ]
        assert not (tmp_path / "m.json").exists()

    def test_fold_count_not_an_int_is_config_error(self, tmp_path, dataset_dir):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k_folds": 2.5}))
        code = run("evaluate", "--data", dataset_dir, "--variant", "flda-pr",
                   "--config", str(cfg), "--out", str(tmp_path / "e.json"))
        assert code == 2


class TestClassify:
    def test_predictions_match_library(self, tmp_path, dataset_dir):
        model_path = tmp_path / "model.json"
        run("fit", "--data", dataset_dir, "--variant", "flda-pr", "--p", "1",
            "--out", str(model_path))
        pred_path = tmp_path / "pred.csv"
        assert run("classify", "--model", str(model_path), "--data", dataset_dir,
                   "--out", str(pred_path)) == 0
        lines = pred_path.read_text().splitlines()
        assert lines[0] == "index,label,p1,p2"
        data = read_curveset(
            os.path.join(dataset_dir, "grid.csv"),
            os.path.join(dataset_dir, "curves.csv"),
        )
        model = model_from_json(model_path.read_text())
        labels, post = classify_set(model, data.values)
        assert len(lines) == data.n_curves + 1
        for i, line in enumerate(lines[1:]):
            fields = line.split(",")
            assert int(fields[0]) == i
            assert int(fields[1]) == labels[i]
            row = np.array([float(v) for v in fields[2:]])
            np.testing.assert_array_equal(row, post[i])
            assert abs(row.sum() - 1.0) < 1e-10

    def test_grid_mismatch_reports_fingerprints(self, tmp_path, dataset_dir, capsys):
        model_path = tmp_path / "model.json"
        run("fit", "--data", dataset_dir, "--variant", "flda-pr",
            "--out", str(model_path))
        other = tmp_path / "other"
        other.mkdir()
        run("generate", "--benchmark", "waveform", "--per-class", "2",
            "--out", str(other))
        errs = []
        for command, out in (("classify", tmp_path / "p.csv"), ("export-plots", tmp_path)):
            code = run(command, "--model", str(model_path), "--data", str(other),
                       "--out", str(out))
            assert code == 3
            err = capsys.readouterr().err
            assert "data" in err and "model" in err
            errs.append(err)
        assert errs[0] == errs[1]

    def test_version_not_an_int_is_data_error(self, tmp_path, dataset_dir, capsys):
        model_path = tmp_path / "model.json"
        assert run("fit", "--data", dataset_dir, "--variant", "flda-pr",
                   "--out", str(model_path)) == 0
        doc = json.loads(model_path.read_text())
        for version in ("true", "1.0", "2.0"):
            model_path.write_text(json.dumps({**doc, "format_version": json.loads(version)}))
            capsys.readouterr()
            code = run("classify", "--model", str(model_path), "--data", dataset_dir,
                       "--out", str(tmp_path / "p.csv"))
            assert code == 3
            assert f"format version: {json.loads(version)!r}" in capsys.readouterr().err
            assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            ("basis", "model.basis must be an object, got 1.5"),
            ("classes", "model.classes must be a list, got 1.5"),
            ("degree", "model.basis.degree must be an integer, got inf"),
        ],
    )
    def test_malformed_model_structure_is_data_error(
        self, tmp_path, dataset_dir, capsys, edit, message
    ):
        # each edit used to end in a traceback (AttributeError, TypeError or
        # OverflowError) with exit 1
        doc = json.loads(DATA.joinpath("v1_fmda-mixrhlp.model.json").read_text())
        if edit == "degree":
            doc["basis"]["degree"] = float("inf")  # written as Infinity
        else:
            doc[edit] = 1.5
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(doc))
        capsys.readouterr()
        code = run("classify", "--model", str(model_path), "--data", dataset_dir,
                   "--out", str(tmp_path / "p.csv"))
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [f"regimix: data error: {message}"]
        assert not (tmp_path / "p.csv").exists()

    def test_null_prior_is_data_error(self, tmp_path, dataset_dir, capsys):
        # a null prior used to load as NaN and give NaN posteriors, exit 0
        model_path = tmp_path / "model.json"
        assert run("fit", "--data", dataset_dir, "--variant", "flda-pr",
                   "--out", str(model_path)) == 0
        doc = json.loads(model_path.read_text())
        doc["priors"][0] = None
        model_path.write_text(json.dumps(doc))
        capsys.readouterr()
        code = run("classify", "--model", str(model_path), "--data", dataset_dir,
                   "--out", str(tmp_path / "p.csv"))
        assert code == 3
        assert "mixing proportions" in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_curve_outside_every_class_is_data_error(self, tmp_path, dataset_dir):
        model_path = tmp_path / "model.json"
        run("fit", "--data", dataset_dir, "--variant", "flda-pr",
            "--out", str(model_path))
        far = tmp_path / "far"
        far.mkdir()
        grid_text = (tmp_path / "data" / "grid.csv").read_text()
        (far / "grid.csv").write_text(grid_text)
        m = len(grid_text.strip().split(","))
        (far / "curves.csv").write_text("1," + ",".join(["1e200"] * m) + "\n")
        code = run("classify", "--model", str(model_path), "--data", str(far),
                   "--out", str(tmp_path / "p.csv"))
        assert code == 3
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("variant", ["fmda-prm", "fmda-mixrhlp"])
    @pytest.mark.parametrize("command", ["classify", "export-plots"])
    def test_basis_disagreeing_with_coefficients_is_data_error(
        self, tmp_path, dataset_dir, capsys, variant, command
    ):
        # a degree-1 fit whose file then claims degree 3: the design has
        # four columns and every coefficient row two
        model_path = tmp_path / "model.json"
        assert run("fit", "--data", dataset_dir, "--variant", variant, "--K", "2", "--R", "2",
                   "--p", "1", "--n-restarts", "1", "--out", str(model_path)) == 0
        doc = json.loads(model_path.read_text())
        doc["basis"]["degree"] = 3
        model_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        out.mkdir()
        target = out / "p.csv" if command == "classify" else out
        capsys.readouterr()
        code = run(command, "--model", str(model_path), "--data", dataset_dir,
                   "--out", str(target))
        assert code == 3
        assert "design has 4 columns but coefficients expect 2" in capsys.readouterr().err
        assert list(out.iterdir()) == []


class TestEvaluate:
    def test_separable_data_zero_error(self, tmp_path, dataset_dir):
        out = tmp_path / "eval.json"
        summary = tmp_path / "sum.csv"
        code = run(
            "evaluate", "--data", dataset_dir, "--variant", "flda-pr", "--p", "0",
            "--k-folds", "5", "--seed", "2", "--out", str(out),
            "--summary-csv", str(summary),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["error_rate"] == 0.0
        assert doc["k_folds"] == 5
        lines = summary.read_text().splitlines()
        assert lines == [
            "variant,error_rate,intra_class_inertia,seed,config_hash",
            f"flda-pr,0.0,{doc['intra_class_inertia']!r},2,{doc['config_hash']}",
        ]

    def test_rerun_identical(self, tmp_path, dataset_dir):
        out = tmp_path / "eval.json"
        args = ("evaluate", "--data", dataset_dir, "--variant", "fmda-prm",
                "--K", "1", "--p", "0", "--seed", "3", "--out", str(out))
        assert run(*args) == 0
        first = out.read_bytes()
        assert run(*args) == 0
        assert out.read_bytes() == first

    def test_too_many_folds_is_config_error(self, tmp_path, dataset_dir):
        code = run("evaluate", "--data", dataset_dir, "--variant", "flda-pr",
                   "--k-folds", "50", "--out", str(tmp_path / "e.json"))
        assert code == 2


class TestSelect:
    def test_single_cell_and_table_consistency(self, tmp_path, dataset_dir):
        table = tmp_path / "bic.csv"
        model_path = tmp_path / "best.json"
        code = run(
            "select", "--data", dataset_dir, "--K-range", "1", "--R-range", "2",
            "--degree", "0", "--n-restarts", "1", "--max-iter", "20",
            "--seed", "5", "--out-table", str(table), "--out-model", str(model_path),
        )
        assert code == 0
        lines = table.read_text().splitlines()
        assert lines[0] == "class,n_clusters,n_regimes,loglik,n_params,bic,selected"
        data = read_curveset(
            os.path.join(dataset_dir, "grid.csv"),
            os.path.join(dataset_dir, "curves.csv"),
        )
        per_class = {1: 0, 2: 0}
        for line in lines[1:]:
            g, K, R, ll, nu, bic_value, selected = line.split(",")
            n_g = int(np.sum(data.labels == int(g)))
            expected = float(ll) - 0.5 * int(nu) * np.log(n_g)
            assert float(bic_value) == pytest.approx(expected, rel=1e-12)
            per_class[int(g)] += int(selected)
        assert per_class == {1: 1, 2: 1}
        model = model_from_json(model_path.read_text())
        assert model.variant == "fmda-mixrhlp"

    def test_simple_data_selects_smallest_model(self, tmp_path):
        out = tmp_path / "flat"
        out.mkdir()
        spec = {
            "benchmark": "piecewise",
            "classes": [[{"levels": [1.0], "boundaries": []}]],
            "noise_sd": 0.1,
            "curves_per_subclass": 12,
            "n_points": 40,
        }
        spec_path = tmp_path / "flat.json"
        spec_path.write_text(json.dumps(spec))
        run("generate", "--spec-json", str(spec_path), "--seed", "6", "--out", str(out))
        table = tmp_path / "bic.csv"
        code = run(
            "select", "--data", str(out), "--K-range", "1,2", "--R-range", "1,2",
            "--degree", "0", "--n-restarts", "2", "--max-iter", "60",
            "--seed", "7", "--out-table", str(table),
        )
        assert code == 0
        selected = [
            line.split(",") for line in table.read_text().splitlines()[1:]
            if line.endswith(",1")
        ]
        assert len(selected) == 1
        assert (selected[0][1], selected[0][2]) == ("1", "1")


class TestExportPlots:
    def test_bundle_contents(self, tmp_path, dataset_dir):
        model_path = tmp_path / "model.json"
        run("fit", "--data", dataset_dir, "--variant", "fmda-mixrhlp", "--K", "2",
            "--R", "2", "--p", "0", "--n-restarts", "1", "--seed", "1",
            "--out", str(model_path))
        out = tmp_path / "plots"
        out.mkdir()
        assert run("export-plots", "--model", str(model_path), "--data", dataset_dir,
                   "--out", str(out)) == 0

        data = read_curveset(
            os.path.join(dataset_dir, "grid.csv"),
            os.path.join(dataset_dir, "curves.csv"),
        )
        model = model_from_json(model_path.read_text())
        design = vandermonde(data.grid, 0)

        mean_lines = (out / "mean_curves_class1.csv").read_text().splitlines()
        expected = mean_curves(model.class_models[0], data.grid, design)
        for j, line in enumerate(mean_lines[1:]):
            fields = [float(v) for v in line.split(",")]
            np.testing.assert_allclose(fields[1:], expected[:, j], rtol=1e-12)

        prob_lines = (out / "regime_probs_class1_cluster1.csv").read_text().splitlines()
        for line in prob_lines[1:]:
            probs = [float(v) for v in line.split(",")[1:]]
            assert abs(sum(probs) - 1.0) < 1e-10

        assign_lines = (out / "assignments_class1.csv").read_text().splitlines()
        assert assign_lines[0] == "index,cluster"
        assert len(assign_lines) == 1 + int(np.sum(data.labels == 1))

    def test_regimeless_variant_omits_regime_files(self, tmp_path, dataset_dir):
        model_path = tmp_path / "model.json"
        run("fit", "--data", dataset_dir, "--variant", "flda-pr", "--p", "1",
            "--out", str(model_path))
        out = tmp_path / "plots"
        out.mkdir()
        assert run("export-plots", "--model", str(model_path), "--data", dataset_dir,
                   "--out", str(out)) == 0
        names = {p.name for p in out.iterdir()}
        assert "mean_curves_class1.csv" in names
        assert not any(n.startswith("regime_probs") for n in names)
        assert not any(n.startswith("assignments") for n in names)


class TestConfigFiles:
    """Every key of a ``--config`` file is typed where the CLI reads it: a
    value of the wrong JSON type is a configuration error (exit 2), or a
    data error (exit 3) for a path that names no file, with a one-line
    message and never a traceback."""

    #: one fast run of each command that takes a config file, and its keys
    CONFIGS = {
        "generate": {"benchmark": "waveform", "seed": 0, "merge": True, "per_class": 2,
                     "per_subclass": 1, "noise_sd": 1.0, "spec_json": None},
        "fit": {"variant": "fmda-mixrhlp", "n_clusters": 1, "n_regimes": 1, "degree": 0,
                "spline_order": 4, "interior_knots": 1, "max_iter": 2, "tol": 1e-6,
                "n_restarts": 1, "seed": 0},
        "select": {"k_range": "1", "r_range": "1", "degree": 0, "max_iter": 2, "tol": 1e-6,
                   "n_restarts": 1, "seed": 0},
    }
    CONFIGS["evaluate"] = {**CONFIGS["fit"], "k_folds": 2}
    REPLACEMENTS = (None, "x", [], {}, True, 1.5, float("nan"))

    @staticmethod
    def _run(tmp_path, dataset_dir, command, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        out.mkdir(exist_ok=True)
        where = ("--out", str(out)) if command == "generate" else ("--data", dataset_dir)
        outputs = {"fit": ("--out", str(out / "m.json")),
                   "evaluate": ("--out", str(out / "e.json")),
                   "select": ("--out-table", str(out / "t.csv"))}
        return run(command, "--config", str(cfg), *where, *outputs.get(command, ()))

    def test_configs_name_every_setting(self):
        # the fuzz below replaces each key of CONFIGS, so every setting a
        # command reads must be one of them
        assert {command: set(keys) for command, keys in self.CONFIGS.items()} == {
            command: set(keys) for command, keys in _COMMAND_SETTINGS.items()
        }

    def test_every_replaced_key_runs_or_is_a_typed_error(self, tmp_path, dataset_dir, capsys):
        for command, base in self.CONFIGS.items():
            assert self._run(tmp_path, dataset_dir, command, base) == 0, command
            for key in base:
                for value in self.REPLACEMENTS:
                    capsys.readouterr()
                    code = self._run(tmp_path, dataset_dir, command, {**base, key: value})
                    case = f"{command} {key}={value!r}"
                    assert code in (0, 2, 3), case
                    if code:
                        err = capsys.readouterr().err.splitlines()
                        assert len(err) == 1 and err[0].startswith("regimix: "), case

    @pytest.mark.parametrize("command, key, value, message", [
        ("fit", "tol", None, "tol must be a number, got None"),
        ("evaluate", "tol", [1], "tol must be a number, got [1]"),
        ("select", "tol", True, "tol must be a number, got True"),
        ("generate", "noise_sd", [], "noise_sd must be a number, got []"),
        ("generate", "spec_json", 0, "spec_json must be a path, got 0"),
        ("generate", "merge", "no", "merge must be true or false, got 'no'"),
    ])
    def test_value_of_the_wrong_type_is_config_error(
            self, tmp_path, dataset_dir, capsys, command, key, value, message):
        # these ended in a TypeError traceback, read stdin (file descriptor
        # 0) or took "no" for true
        capsys.readouterr()
        doc = {**self.CONFIGS[command], key: value}
        assert self._run(tmp_path, dataset_dir, command, doc) == 2
        assert capsys.readouterr().err.splitlines() == [f"regimix: configuration error: {message}"]


class TestEntryPoint:
    def test_console_script_runs(self, tmp_path):
        """The `regimix` script declared in pyproject.toml starts in a fresh
        process and runs `generate`.

        The script is run the way the wrapper written by `pip install` runs
        it, from this checkout's `src`, so an executable on PATH from some
        other checkout plays no part.
        """
        import subprocess
        import sys
        from pathlib import Path

        tomllib = pytest.importorskip("tomllib")
        repo = Path(__file__).resolve().parents[1]
        with open(repo / "pyproject.toml", "rb") as fh:
            entry = tomllib.load(fh)["project"]["scripts"]["regimix"]
        module, func = entry.split(":")
        wrapper = (f"import sys; sys.argv[0] = 'regimix'; "
                   f"from {module} import {func}; sys.exit({func}())")

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(repo / "src"), env.get("PYTHONPATH")) if p)
        out = tmp_path / "d"
        out.mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, "generate", "--benchmark", "waveform",
             "--per-class", "3", "--out", str(out)],
            capture_output=True, cwd=tmp_path, env=env,
        )
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")
        assert (out / "curves.csv").exists()
        assert (out / "grid.csv").exists()

    def test_import_loads_no_scipy_and_no_thread_pool(self, tmp_path):
        """Importing the package and its CLI in a fresh process loads numpy
        but no scipy module, so no command pays scipy's start-up, and no
        thread pool: no ``concurrent.futures`` and no ``regimix.parallel``."""
        import subprocess
        import sys
        from pathlib import Path

        repo = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(repo / "src"), env.get("PYTHONPATH")) if p)
        probe = ("import regimix, regimix.cli, sys; "
                 "print(regimix.__file__); "
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
                 "print(sorted(m for m in sys.modules "
                 "if m.startswith('concurrent.futures') or m == 'regimix.parallel'))")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              cwd=tmp_path, env=env, text=True)
        assert proc.returncode == 0, proc.stderr
        package_file, scipy_modules, pool_modules = proc.stdout.splitlines()
        assert Path(package_file).resolve().is_relative_to(repo / "src")
        assert scipy_modules == "[]"
        assert pool_modules == "[]"
