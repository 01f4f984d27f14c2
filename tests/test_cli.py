import json
import os

import numpy as np
import pytest

from regimix.cli import main
from regimix.core import read_curveset, vandermonde
from regimix.discriminant import classify_set, model_from_json
from regimix.mixrhlp import mean_curves


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

    def test_rerun_byte_identical_and_thread_invariant(
        self, tmp_path, dataset_dir, monkeypatch
    ):
        args = (
            "fit", "--data", dataset_dir, "--variant", "fmda-prm", "--K", "2",
            "--p", "0", "--n-restarts", "2", "--seed", "4",
            "--out", str(tmp_path / "m.json"),
        )
        assert run(*args) == 0
        first = (tmp_path / "m.json").read_bytes()
        monkeypatch.setenv("REGIMIX_THREADS", "4")
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

    def test_infeasible_clustering_is_config_error(self, tmp_path, dataset_dir):
        code = run(
            "fit", "--data", dataset_dir, "--variant", "fmda-mixrhlp",
            "--K", "99", "--out", str(tmp_path / "m.json"),
        )
        assert code == 2

    def test_missing_dataset_is_data_error(self, tmp_path):
        code = run(
            "fit", "--data", str(tmp_path / "void"), "--variant", "flda-pr",
            "--out", str(tmp_path / "m.json"),
        )
        assert code == 3

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
        code = run("classify", "--model", str(model_path), "--data", str(other),
                   "--out", str(tmp_path / "p.csv"))
        assert code == 3
        err = capsys.readouterr().err
        assert "data" in err and "model" in err

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
        assert lines[0] == "variant,error_rate,intra_class_inertia,seed,config_hash"
        assert lines[1].startswith("flda-pr,0.0,")

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
