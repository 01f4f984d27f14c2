"""The package boundaries that the benchmark's tracer hooks.

``bench/tracer.py`` wraps module attributes of the package to count EM
iterations, restarts and M-steps; a metric whose hook target is missing,
or whose span attributes cannot be read from the call or its result,
drops out of the traced record. Training tiny models under the tracer
pins every per-layer metric that ``BENCHMARK.json`` names.
"""

import dataclasses
import importlib.util
import json
import os

import pytest

from regimix import discriminant
from regimix.datagen import default_piecewise_spec, gen_piecewise

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
N_RESTARTS = 2


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", os.path.join(ROOT, "bench", "tracer.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def per_layer():
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    data = gen_piecewise(
        dataclasses.replace(default_piecewise_spec(), curves_per_subclass=3, n_points=20), 0
    )
    tracer.install()
    try:
        tracer.segment = "round-0"
        tracer.active = True
        for variant in ("fmda-mixrhlp", "fmda-prm", "flda-pr"):
            config = discriminant.TrainConfig(
                variant=variant, degree=0, n_clusters=2, n_regimes=2,
                n_restarts=N_RESTARTS, max_iter=10, seed=0,
            )
            model = discriminant.train(data, config)
            discriminant.classify_set(model, data.values)
    finally:
        tracer.active = False
        tracer.uninstall()
    return tracer_module.per_layer_metrics(tracer)


def test_every_benchmark_metric_is_reported(per_layer):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [entry["name"] for entry in json.load(fh)["per_layer"]]
    assert sorted(set(names) - set(per_layer)) == []


def test_em_counts_are_read(per_layer):
    assert per_layer["mixrhlp.em_iterations"]["value"] > 0
    assert per_layer["baselines.em_iterations"]["value"] > 0
    # one traced EM run per MixRHLP restart of each of the two classes, and
    # none for the regression mixture
    assert per_layer["mixrhlp.restarts"]["value"] == 2 * N_RESTARTS
