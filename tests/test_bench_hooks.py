"""The package boundaries that the benchmark's tracer hooks.

``bench/tracer.py`` wraps module attributes of the package to count EM
iterations, restarts and M-steps; a metric whose hook target is missing,
or whose span attributes cannot be read from the call or its result,
drops out of the traced record. Training tiny models under the tracer
pins every per-layer metric that ``BENCHMARK.json`` names.
"""

import dataclasses
import importlib.util
import inspect
import json
import os

import pytest

from regimix import baselines, discriminant, mixrhlp
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


def _traced_metrics(variants):
    """Per-layer metrics of training and scoring tiny models of ``variants``
    under the tracer."""
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    data = gen_piecewise(
        dataclasses.replace(default_piecewise_spec(), curves_per_subclass=3, n_points=20), 0
    )
    tracer.install()
    try:
        tracer.segment = "round-0"
        tracer.active = True
        for variant in variants:
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


@pytest.fixture(scope="module")
def per_layer():
    return _traced_metrics(("fmda-mixrhlp", "fmda-prm", "flda-pr"))


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


@pytest.mark.parametrize("m_step", [mixrhlp._m_step_impl, baselines._mixture_m_step],
                         ids=["mixrhlp", "baselines"])
def test_rescue_is_the_seventh_m_step_parameter(m_step):
    # the tracer reads the rescue flag of both M-steps as args[6], and
    # counts the regression mixture's EM iterations from it
    assert list(inspect.signature(m_step).parameters)[6] == "rescue"


def test_mixrhlp_inner_hooks_are_called():
    # a hook that stays installed but is no longer called (say, an IRLS loop
    # that bypasses qw_value) would read 0 here, not go missing
    per_layer = _traced_metrics(("fmda-mixrhlp",))
    value = {name: entry["value"] for name, entry in per_layer.items()}
    assert value["logistic.newton_steps"] > 0
    assert value["logistic.q_evals"] >= value["logistic.newton_steps"]
    assert value["mixrhlp.e_steps"] > 0
    assert value["core.ridge_solves"] > 0
    # every Newton direction is a core.ridge_solve, on top of each M-step's
    # regime solve (one per IRLS call here), so the tracer must see both
    assert value["core.ridge_solves"] >= (
        value["logistic.newton_steps"] + value["logistic.irls_calls"]
    )


def test_regression_mixture_is_not_counted_as_mixrhlp():
    # the regression mixture runs the MixRHLP E- and M-step under names of
    # its own, and no restart of it goes through _em_once
    per_layer = _traced_metrics(("fmda-prm",))
    value = {name: entry["value"] for name, entry in per_layer.items()}
    assert value["baselines.em_iterations"] > 0
    assert value["mixrhlp.e_steps"] == 0
    assert value["mixrhlp.restarts"] == 0


def test_single_regression_is_one_em_map_per_class():
    # FLDA is the one-cluster regression mixture: fit_regression_mixture's
    # span times it, and each class fit takes one start and one EM map,
    # none of them MixRHLP's
    per_layer = _traced_metrics(("flda-pr",))
    value = {name: entry["value"] for name, entry in per_layer.items()}
    assert value["baselines.fit_s"] > 0
    assert value["baselines.em_iterations"] == 2  # the piecewise data's classes
    assert value["mixrhlp.e_steps"] == 0
    assert value["mixrhlp.restarts"] == 0
