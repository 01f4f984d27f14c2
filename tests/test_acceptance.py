"""Acceptance suite: one test per release criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion. Each criterion asserts at its stated tolerance; seeds and
configurations are pinned so results are reproducible.
"""

import json
import os
import time

import numpy as np

from oracles import explicit_wls_beta, mp_posteriors
from regimix.cli import main as cli_main
from regimix.core import TimeGrid, vandermonde
from regimix.datagen import (
    WaveformSpec,
    default_piecewise_spec,
    gen_piecewise,
    gen_waveform,
    waveform_subclass_origin,
)
from regimix.discriminant import TrainConfig, model_to_json, train
from regimix.evaluation import cv_error_rate, evaluate_variant
from regimix.logistic import LogisticWeights, qw_gradient_hessian, qw_value
from regimix.mixrhlp import (
    EmConfig,
    MixRhlpParams,
    RhlpParams,
    e_step,
    em_fit,
    m_step,
    n_free_parameters,
    select_model,
)
from regimix.baselines import fit_regression_mixture

BENCHMARK_SEED = 0  # default seed for the seeded benchmark criteria


def _report(criterion: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def _rand_params(rng, K, R, degree):
    clusters = []
    for _ in range(K):
        clusters.append(
            RhlpParams(
                LogisticWeights.gauge_fixed(rng.normal(size=(R, 2))),
                rng.normal(size=(R, degree + 1)),
                rng.uniform(0.3, 2.0, size=R),
            )
        )
    raw = rng.uniform(0.2, 1.0, size=K)
    weights = raw / raw.sum()
    weights[-1] = 1.0 - weights[:-1].sum()
    return MixRhlpParams(weights, tuple(clusters))


def test_criterion_1_em_monotonicity():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = np.inf
    for trial in range(50):
        n = int(rng.integers(4, 31))
        m = int(rng.integers(10, 201))
        K = int(rng.integers(1, 4))
        R = int(rng.integers(1, 4))
        p = int(rng.integers(0, 4))
        grid = TimeGrid(np.sort(rng.uniform(0.0, 5.0, size=m)))
        scale = rng.uniform(0.3, 3.0)
        values = scale * rng.normal(size=(n, m)) + rng.normal() * grid.points[None, :]
        cfg = EmConfig(
            n_clusters=K, n_regimes=R, degree=p, max_iter=25, n_restarts=1,
            seed=int(rng.integers(1_000_000)),
        )
        _, report = em_fit(values, grid, cfg)
        diffs = np.diff(report.loglik_trace)
        worst = min(worst, float(diffs.min()) if diffs.size else 0.0)
    elapsed = time.perf_counter() - start
    ok = worst >= -1e-8 and elapsed < 120.0
    _report(
        "1 (EM monotonicity)",
        ok,
        f"50 configs, smallest increment {worst:.3e} (slack 1e-8), {elapsed:.1f}s < 120s",
    )


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(1002)
    max_post_err = 0.0
    max_beta_err = 0.0
    for trial in range(20):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(2, 5))
        K = int(rng.integers(1, 3))
        R = int(rng.integers(1, 3))
        grid = TimeGrid(np.sort(rng.uniform(0.0, 2.0, size=m)))
        design = vandermonde(grid, 1)
        params = _rand_params(rng, K, R, 1)
        values = rng.normal(size=(n, m))

        post = e_step(params, values, design)
        gamma_ref, taus_ref = mp_posteriors(
            params, values.tolist(), design.matrix.tolist(), grid.points.tolist()
        )
        scale = np.maximum(np.abs(gamma_ref), 1e-12)
        max_post_err = max(
            max_post_err, float(np.max(np.abs(post.cluster_resp - gamma_ref) / scale))
        )
        for k in range(K):
            scale = np.maximum(np.abs(taus_ref[k]), 1e-12)
            max_post_err = max(
                max_post_err,
                float(np.max(np.abs(post.regime_resp[k] - taus_ref[k]) / scale)),
            )

        new = m_step(post, values, design, params)
        for k in range(K):
            for r in range(R):
                w = post.cluster_resp[:, k][:, None] * post.regime_resp[k][:, :, r]
                if w.sum() < 1e-9:
                    continue
                ref = explicit_wls_beta(w, values, design.matrix)
                denom = max(float(np.max(np.abs(ref))), 1e-12)
                max_beta_err = max(
                    max_beta_err,
                    float(np.max(np.abs(new.clusters[k].coeffs[r] - ref))) / denom,
                )
    ok = max_post_err < 1e-9 and max_beta_err < 1e-8
    _report(
        "2 (oracle equivalence)",
        ok,
        f"20 micro-instances: posterior err {max_post_err:.2e} < 1e-9, "
        f"beta err {max_beta_err:.2e} < 1e-8",
    )


def test_criterion_3_irls_gradient_check():
    rng = np.random.default_rng(1003)
    worst_rel = 0.0
    worst_eig = -np.inf
    for trial in range(20):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(3, 8))
        R = int(rng.integers(2, 4))
        grid = TimeGrid(np.sort(rng.uniform(-1.0, 1.0, size=m)))
        counts = rng.uniform(0.0, 1.0, size=(n, m, R))
        weights = LogisticWeights.gauge_fixed(rng.normal(size=(R, 2)))
        (grad,), (hess,) = qw_gradient_hessian(weights.coef[None], grid, counts.sum(axis=0)[None])

        step = 1e-6
        fd = np.zeros_like(grad)
        for idx in range(grad.size):
            up = weights.coef[:-1].reshape(-1).copy()
            down = up.copy()
            up[idx] += step
            down[idx] -= step

            def q_at(v):
                coef = np.zeros_like(weights.coef)
                coef[:-1] = v.reshape(-1, 2)
                return qw_value(coef[None], grid, counts.sum(axis=0)[None])[0]

            fd[idx] = (q_at(up) - q_at(down)) / (2 * step)
        denom = max(float(np.max(np.abs(fd))), 1e-12)
        worst_rel = max(worst_rel, float(np.max(np.abs(grad - fd))) / denom)
        worst_eig = max(worst_eig, float(np.max(np.linalg.eigvalsh(hess))))
    ok = worst_rel < 1e-4 and worst_eig <= 1e-10
    _report(
        "3 (IRLS gradient check)",
        ok,
        f"20 instances: gradient rel err {worst_rel:.2e} < 1e-4, "
        f"max Hessian eigenvalue {worst_eig:.2e} <= 1e-10",
    )


def test_criterion_4_degenerate_collapses():
    rng = np.random.default_rng(1004)
    grid = TimeGrid(np.linspace(0.0, 2.0, 25))
    design = vandermonde(grid, 2)
    values = (design.matrix @ np.array([0.5, 1.0, -0.3]))[None, :] + 0.1 * rng.normal(
        size=(8, 25)
    )

    # (a) K=1, R=1 reproduces ordinary least squares
    cfg = EmConfig(n_clusters=1, n_regimes=1, degree=2, n_restarts=1, seed=0)
    params, _ = em_fit(values, grid, cfg)
    stacked = np.tile(design.matrix, (8, 1))
    direct = np.linalg.solve(stacked.T @ stacked, stacked.T @ values.reshape(-1))
    ols_err = float(
        np.max(np.abs(params.clusters[0].coeffs[0] - direct)) / np.max(np.abs(direct))
    )

    # (b) FLDA-RHLP is MixRHLP with one cluster, bitwise under a shared seed
    from regimix.core import LabeledCurveSet

    labels = np.array([1] * 5 + [2] * 3)
    data = LabeledCurveSet(values, labels, grid, 2)
    base = dict(degree=1, n_regimes=2, n_restarts=2, seed=77, max_iter=20)
    doc_a = model_to_json(train(data, TrainConfig(variant="flda-rhlp", **base)))
    doc_b = model_to_json(
        train(data, TrainConfig(variant="fmda-mixrhlp", n_clusters=1, **base))
    )
    bitwise = doc_a.replace("flda-rhlp", "fmda-mixrhlp") == doc_b

    # (c) R=1 per cluster matches the regression-mixture trace from one
    # initialization
    rhlp_init = MixRhlpParams(
        np.array([0.5, 0.5]),
        (
            RhlpParams(LogisticWeights.zeros(1), np.array([[0.2, 0.1]]), np.array([1.0])),
            RhlpParams(LogisticWeights.zeros(1), np.array([[1.5, -0.4]]), np.array([0.8])),
        ),
    )
    design1 = vandermonde(grid, 1)
    cfg1 = EmConfig(n_clusters=2, n_regimes=1, degree=1, max_iter=30, n_restarts=1, seed=0)
    _, rep_mix = fit_regression_mixture(values, design1, cfg1, init=rhlp_init)
    _, rep_rhlp = em_fit(values, grid, cfg1, init=rhlp_init)
    trace_err = float(
        np.max(np.abs(np.array(rep_mix.loglik_trace) - np.array(rep_rhlp.loglik_trace)))
    )

    ok = ols_err < 1e-8 and bitwise and trace_err < 1e-8
    _report(
        "4 (degenerate collapses)",
        ok,
        f"OLS coeff err {ols_err:.2e} < 1e-8; single-cluster bitwise match: {bitwise}; "
        f"regression-mixture trace gap {trace_err:.2e} < 1e-8",
    )


def test_criterion_5_benchmark_ordering():
    start = time.perf_counter()
    data = gen_piecewise(default_piecewise_spec(), seed=BENCHMARK_SEED)
    assert data.n_curves == 40 and len(data.grid) == 200

    results = {}
    for variant, kw in [
        ("fmda-mixrhlp", dict(degree=0, n_clusters=3, n_regimes=3)),
        ("flda-pr", dict(degree=0)),
        ("flda-sr", dict(spline_order=4, interior_knots=10)),
        ("fmda-prm", dict(degree=0, n_clusters=3)),
    ]:
        cfg = TrainConfig(variant=variant, n_restarts=5, seed=0, max_iter=100, **kw)
        rep = evaluate_variant(data, cfg, k=5, seed=BENCHMARK_SEED)
        results[variant] = (rep.error_rate, rep.intra_class_inertia)

    mix_err, mix_inertia = results["fmda-mixrhlp"]
    others = ["flda-pr", "flda-sr", "fmda-prm"]
    error_ok = all(mix_err < results[v][0] for v in others)
    inertia_ok = all(mix_inertia < results[v][1] for v in others)
    gap = results["flda-pr"][0] - mix_err
    elapsed = time.perf_counter() - start
    ok = error_ok and inertia_ok and gap >= 0.05 and elapsed < 300.0
    detail = ", ".join(
        f"{v}: err={results[v][0]:.3f} inertia={results[v][1]:.0f}" for v in results
    )
    _report(
        "5 (benchmark ordering)",
        ok,
        f"{detail}; gap vs flda-pr {gap * 100:.1f}pp >= 5pp; {elapsed:.0f}s < 300s",
    )


def test_criterion_6_waveform_experiment():
    spec = WaveformSpec(curves_per_class=500, merge=True)
    data = gen_waveform(spec, seed=BENCHMARK_SEED)
    origin = waveform_subclass_origin(spec)
    merged = data.labels == 1
    values = data.values[merged]
    true_sub = origin[merged]

    cfg = EmConfig(
        n_clusters=2, n_regimes=2, degree=3, max_iter=100, tol=1e-6,
        n_restarts=3, seed=0,
    )
    params, _ = em_fit(values, data.grid, cfg)
    post = e_step(params, values, vandermonde(data.grid, 3))
    hard = np.argmax(post.cluster_resp, axis=1) + 1
    agreement = max(
        float(np.mean(hard == true_sub)), float(np.mean(hard == 3 - true_sub))
    )

    errors = {}
    for variant, kw in [
        ("fmda-mixrhlp", dict(degree=3, n_clusters=2, n_regimes=2)),
        ("fmda-prm", dict(degree=4, n_clusters=2)),
        ("fmda-srm", dict(spline_order=4, interior_knots=8, n_clusters=2)),
    ]:
        tc = TrainConfig(variant=variant, n_restarts=3, seed=0, max_iter=100, **kw)
        rate, _ = cv_error_rate(data, tc, k=5, seed=BENCHMARK_SEED)
        errors[variant] = rate
    spread = max(errors.values()) - min(errors.values())

    ok = agreement >= 0.90 and spread <= 0.03
    detail = ", ".join(f"{v}: {e:.3f}" for v, e in errors.items())
    _report(
        "6 (waveform experiment)",
        ok,
        f"cluster agreement {agreement:.3f} >= 0.90; CV errors {detail}, "
        f"spread {spread * 100:.1f}pp <= 3pp",
    )


def test_criterion_7_bic_arithmetic():
    rng = np.random.default_rng(1007)
    cases = [  # (K, R, p) -> hand-computed (K-1) + K((p+4)R - 2)
        (3, 3, 0, 32),
        (1, 1, 0, 2),
        (2, 2, 0, 13),
        (1, 2, 1, 8),
        (2, 1, 3, 11),
        (3, 2, 2, 32),
        (1, 3, 3, 19),
        (4, 1, 0, 11),
        (2, 3, 1, 27),
        (3, 1, 2, 14),
    ]
    nu_ok = True
    for K, R, p, expected in cases:
        params = _rand_params(rng, K, R, p)
        if n_free_parameters(params) != expected:
            nu_ok = False

    grid = TimeGrid(np.linspace(0.0, 1.0, 40))
    values = 2.0 + 0.1 * np.random.default_rng(7).normal(size=(12, 40))
    cfg = EmConfig(max_iter=60, n_restarts=2, seed=7)
    params, cells = select_model(values, grid, [1, 2], [1, 2], 0, cfg)
    selected = (params.n_clusters, params.regimes[0])
    ok = nu_ok and selected == (1, 1)
    _report(
        "7 (BIC arithmetic)",
        ok,
        f"10 parameter-count cases (incl. nu=32 for K=3,R=3,p=0): {nu_ok}; "
        f"selected {selected} == (1, 1) on a 2x2 grid",
    )


def test_criterion_8_stopping_rule_compliance():
    assert EmConfig().tol == 1e-6, "default tolerance must be 1e-6"
    rng = np.random.default_rng(1008)
    grid = TimeGrid(np.linspace(0.0, 1.0, 30))
    values = np.vstack(
        [rng.normal(size=(5, 30)), 3.0 + rng.normal(size=(5, 30))]
    )
    cfg = EmConfig(n_clusters=2, n_regimes=2, degree=1, max_iter=500, n_restarts=1,
                   seed=4)
    _, report = em_fit(values, grid, cfg)
    diffs = np.diff(report.loglik_trace)
    halted = report.converged and diffs[-1] < cfg.tol and np.all(diffs[:-1] >= cfg.tol)
    recorded = report.iterations == len(report.loglik_trace) - 1
    ok = halted and recorded and cfg.tol == 1e-6
    _report(
        "8 (stopping rule)",
        ok,
        f"default tol 1e-6; halted at first increment {diffs[-1]:.2e} < tol "
        f"after {report.iterations} iterations (recorded)",
    )


def test_criterion_9_cli_determinism(tmp_path):
    spec = {
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
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))

    def snapshot(directory):
        out = {}
        for root, _, files in os.walk(directory):
            for name in files:
                path = os.path.join(root, name)
                out[os.path.relpath(path, directory)] = open(path, "rb").read()
        return out

    def run_all(workdir):
        os.makedirs(workdir, exist_ok=True)
        data_dir = os.path.join(workdir, "data")
        plots_dir = os.path.join(workdir, "plots")
        os.makedirs(data_dir, exist_ok=True)
        os.makedirs(plots_dir, exist_ok=True)
        cmds = [
            ["generate", "--spec-json", str(spec_path), "--seed", "3",
             "--out", data_dir],
            ["fit", "--data", data_dir, "--variant", "fmda-mixrhlp", "--K", "2",
             "--R", "2", "--p", "0", "--n-restarts", "2", "--seed", "1",
             "--out", os.path.join(workdir, "model.json"),
             "--report", os.path.join(workdir, "report.json")],
            ["classify", "--model", os.path.join(workdir, "model.json"),
             "--data", data_dir, "--out", os.path.join(workdir, "pred.csv")],
            ["evaluate", "--data", data_dir, "--variant", "flda-pr", "--p", "0",
             "--k-folds", "5", "--seed", "2",
             "--out", os.path.join(workdir, "eval.json"),
             "--summary-csv", os.path.join(workdir, "summary.csv")],
            ["select", "--data", data_dir, "--K-range", "1,2", "--R-range", "1",
             "--degree", "0", "--n-restarts", "1", "--max-iter", "20", "--seed", "5",
             "--out-table", os.path.join(workdir, "bic.csv"),
             "--out-model", os.path.join(workdir, "best.json")],
            ["export-plots", "--model", os.path.join(workdir, "model.json"),
             "--data", data_dir, "--out", plots_dir],
        ]
        for cmd in cmds:
            assert cli_main(cmd) == 0, f"command failed: {cmd}"
        return snapshot(workdir)

    first = run_all(str(tmp_path / "run1"))
    second = run_all(str(tmp_path / "run2"))

    ok = first == second
    _report(
        "9 (CLI determinism)",
        ok,
        f"all 6 commands byte-identical on rerun: {ok}",
    )
