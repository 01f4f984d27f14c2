import hashlib
import json
import math

import numpy as np
import pytest

from json_mutations import mutations
from regimix.cli import main
from regimix.datagen import (
    MAX_VALUES,
    PiecewiseSpec,
    RegimeProfile,
    WaveformSpec,
    default_piecewise_spec,
    gen_piecewise,
    gen_waveform,
    spec_from_json,
    waveform_base,
    waveform_subclass_origin,
)
from regimix.errors import DataError
from regimix.rng import child_rng, uniforms


class TestRegimeProfile:
    def test_hard_step_mean(self):
        p = RegimeProfile((1.0, 5.0), (0.5,))
        t = np.array([0.0, 0.49, 0.5, 1.0])
        np.testing.assert_array_equal(p.mean(t), [1.0, 1.0, 5.0, 5.0])

    def test_smooth_transition(self):
        p = RegimeProfile((0.0, 10.0), (0.5,), sharpness=20.0)
        t = np.linspace(0, 1, 101)
        mean = p.mean(t)
        assert mean[0] < 0.01
        assert mean[-1] > 9.99
        assert mean[50] == pytest.approx(5.0, abs=1e-9)  # sigmoid midpoint
        assert np.all(np.diff(mean) > 0)

    def test_boundary_count_validated(self):
        with pytest.raises(ValueError):
            RegimeProfile((1.0, 2.0, 3.0), (0.5,))


class TestGenPiecewise:
    def test_default_spec_shape(self):
        data = gen_piecewise(default_piecewise_spec(), seed=0)
        assert data.n_curves == 40
        assert len(data.grid) == 200
        assert data.n_classes == 2
        np.testing.assert_array_equal(np.bincount(data.labels), [0, 30, 10])

    def test_zero_noise_limit(self):
        spec = default_piecewise_spec()
        tiny = PiecewiseSpec(
            class_profiles=spec.class_profiles,
            noise_sd=1e-12,
            curves_per_subclass=1,
            n_points=50,
            span=spec.span,
        )
        data = gen_piecewise(tiny, seed=3)
        t = data.grid.points
        mean = spec.class_profiles[0][0].mean(t)
        np.testing.assert_allclose(data.values[0], mean, atol=1e-10)

    def test_deterministic_per_seed(self):
        spec = default_piecewise_spec()
        d1 = gen_piecewise(spec, seed=9)
        d2 = gen_piecewise(spec, seed=9)
        np.testing.assert_array_equal(d1.values, d2.values)
        d3 = gen_piecewise(spec, seed=10)
        assert not np.array_equal(d1.values, d3.values)

    def test_sample_mean_law_of_large_numbers(self):
        profile = RegimeProfile((2.0, 4.0, 1.0), (1.0 / 3.0, 2.0 / 3.0))
        spec = PiecewiseSpec(
            class_profiles=((profile,), (RegimeProfile((0.0,), ()),)),
            noise_sd=0.5,
            curves_per_subclass=1000,
            n_points=20,
        )
        data = gen_piecewise(spec, seed=1)
        sub = data.values[:1000]
        t = data.grid.points
        bound = 4 * 0.5 / np.sqrt(1000)
        assert np.max(np.abs(sub.mean(axis=0) - profile.mean(t))) < bound

    def test_spec_json_round_trip(self):
        import json

        spec = default_piecewise_spec()
        loaded = spec_from_json(json.dumps(spec.to_dict()))
        assert loaded == spec


class TestWaveformBase:
    def test_peak_values(self):
        assert waveform_base(1, 11.0) == 6.0
        assert waveform_base(2, 15.0) == 6.0
        assert waveform_base(3, 7.0) == 6.0

    def test_support_edges(self):
        assert waveform_base(1, 5.0) == 0.0
        assert waveform_base(1, 17.0) == 0.0
        assert waveform_base(1, 4.0) == 0.0  # outside support stays zero

    def test_shifted_copies(self):
        t = np.linspace(0, 20, 81)
        np.testing.assert_allclose(waveform_base(2, t), waveform_base(1, t - 4.0))
        np.testing.assert_allclose(waveform_base(3, t), waveform_base(1, t + 4.0))

    def test_bad_index(self):
        with pytest.raises(ValueError):
            waveform_base(4, 0.0)


class TestGenWaveform:
    def test_grid_and_counts(self):
        spec = WaveformSpec(curves_per_class=10, merge=True)
        data = gen_waveform(spec, seed=0)
        assert len(data.grid) == 21
        np.testing.assert_array_equal(data.grid.points, np.arange(21.0))
        assert data.n_curves == 30
        np.testing.assert_array_equal(np.bincount(data.labels), [0, 20, 10])

    def test_unmerged_three_classes(self):
        spec = WaveformSpec(curves_per_class=5, merge=False)
        data = gen_waveform(spec, seed=0)
        assert data.n_classes == 3
        np.testing.assert_array_equal(np.bincount(data.labels), [0, 5, 5, 5])

    def test_deterministic_per_seed(self):
        spec = WaveformSpec(curves_per_class=8)
        d1 = gen_waveform(spec, seed=4)
        d2 = gen_waveform(spec, seed=4)
        np.testing.assert_array_equal(d1.values, d2.values)

    def test_merge_flag_only_relabels(self):
        merged = gen_waveform(WaveformSpec(curves_per_class=6, merge=True), seed=2)
        split = gen_waveform(WaveformSpec(curves_per_class=6, merge=False), seed=2)
        np.testing.assert_array_equal(merged.values, split.values)
        np.testing.assert_array_equal(
            merged.labels, np.where(split.labels <= 2, 1, 2)
        )

    def test_origin_bookkeeping(self):
        spec = WaveformSpec(curves_per_class=4)
        origin = waveform_subclass_origin(spec)
        np.testing.assert_array_equal(origin, [1] * 4 + [2] * 4 + [3] * 4)

    def test_variance_decomposition(self):
        # sample variance at each point matches Var(u) * (a - b)^2(t) + 1
        # for the mixed pair (a, b) of each class
        spec = WaveformSpec(curves_per_class=5000, merge=False)
        data = gen_waveform(spec, seed=7)
        t = data.grid.points
        f2 = waveform_base(2, t)
        f3 = waveform_base(3, t)
        class3 = data.values[data.labels == 3]
        expected = (f2 - f3) ** 2 / 12.0 + 1.0
        observed = class3.var(axis=0)
        np.testing.assert_allclose(observed, expected, rtol=0.10)

    def test_merged_mix_proportion(self):
        # merged class 1 is an even mix of the two original shapes
        spec = WaveformSpec(curves_per_class=500, merge=True)
        data = gen_waveform(spec, seed=0)
        origin = waveform_subclass_origin(spec)
        merged_origin = origin[data.labels == 1]
        count = np.sum(merged_origin == 1)
        n = merged_origin.size
        sigma = np.sqrt(n * 0.25)
        assert abs(count - n / 2) <= 3 * sigma

    def test_bad_spec_json(self):
        with pytest.raises(DataError):
            spec_from_json('{"benchmark": "unknown"}')
        with pytest.raises(DataError):
            spec_from_json("{broken")


class TestSpecFiles:
    PIECEWISE = {
        "benchmark": "piecewise",
        "classes": [[{"levels": [0.0, 2.0], "boundaries": [0.5], "sharpness": None}],
                    [{"levels": [1.0], "boundaries": []}]],
        "noise_sd": 0.3,
        "curves_per_subclass": 2,
        "n_points": 5,
        "span": [0.0, 1.0],
    }
    WAVEFORM = {"benchmark": "waveform", "curves_per_class": 2, "noise_sd": 1.0, "merge": False}

    @pytest.mark.parametrize("doc", [PIECEWISE, WAVEFORM], ids=["piecewise", "waveform"])
    def test_every_mutation_loads_or_is_data_error(self, doc):
        # each leaf and subtree of a spec document replaced by another JSON
        # value, or deleted: the result either loads, with counts that are
        # positive integers and numbers that are finite, or is a DataError.
        # Nothing is generated, so a huge count allocates nothing.
        def numbers(node):
            if isinstance(node, (list, dict)):
                for child in (node.values() if isinstance(node, dict) else node):
                    yield from numbers(child)
            elif isinstance(node, float):
                yield node

        outcomes = {"loaded": 0, "rejected": 0}
        for path, value, text in mutations(doc):
            try:
                spec = spec_from_json(text)
            except DataError:
                outcomes["rejected"] += 1
                continue
            outcomes["loaded"] += 1
            counts = ([spec.curves_per_class] if isinstance(spec, WaveformSpec)
                      else [spec.curves_per_subclass, spec.n_points])
            assert all(type(c) is int and c >= 1 for c in counts), (path, value)
            assert not (isinstance(value, float) and not math.isfinite(value)), (path, value)
            assert all(map(math.isfinite, numbers(spec.to_dict()))), (path, value)
        assert outcomes["loaded"] > 0 and outcomes["rejected"] > 0

    @pytest.mark.parametrize("doc, key, count", [
        (PIECEWISE, "n_points", MAX_VALUES // 4),  # 2 sub-classes x 2 curves
        (WAVEFORM, "curves_per_class", MAX_VALUES // 63),  # 3 classes x 21 points
    ], ids=["piecewise", "waveform"])
    def test_size_limit(self, doc, key, count):
        # curves x points may reach MAX_VALUES but not pass it; the specs
        # are only loaded, nothing is generated
        assert spec_from_json(json.dumps({**doc, key: count})).to_dict()[key] == count
        with pytest.raises(DataError, match=f"exceed the limit of {MAX_VALUES} values"):
            spec_from_json(json.dumps({**doc, key: count + 1}))


_SIGMOID = {
    "benchmark": "piecewise",
    "classes": [
        [{"levels": [0.0, 3.0, 1.0], "boundaries": [0.3, 0.7], "sharpness": 25.0},
         {"levels": [1.0, -2.0], "boundaries": [0.45], "sharpness": 60.0}],
        [{"levels": [2.0, 2.5], "boundaries": [0.5], "sharpness": 8.0}],
    ],
    "noise_sd": 0.5,
    "curves_per_subclass": 7,
    "n_points": 57,
    "span": [-1.0, 2.0],
}


class TestBitIdentity:
    """The bulk draw against the per-stream generator it reproduces, and
    generated data against digests recorded from the per-curve
    generators that the bulk draw replaced."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 + 5, 2**63 + 11])
    def test_uniforms_are_the_child_streams(self, seed):
        for n in (1, 257):
            for size in (1, 43, 400):
                expected = np.stack([child_rng(seed, i).random(size) for i in range(n)])
                got = uniforms(seed, n, size)
                assert got.shape == expected.shape and got.dtype == expected.dtype
                np.testing.assert_array_equal(got, expected, err_msg=f"{n=} {size=}")

    CASES = {
        "waveform-merged": lambda seed: gen_waveform(WaveformSpec(40), seed),
        "waveform-unmerged": lambda seed: gen_waveform(WaveformSpec(40, merge=False), seed),
        "waveform-noise-0.7": lambda seed: gen_waveform(WaveformSpec(40, noise_sd=0.7), seed),
        "piecewise-default": lambda seed: gen_piecewise(default_piecewise_spec(), seed),
        "piecewise-sigmoid": lambda seed: gen_piecewise(spec_from_json(json.dumps(_SIGMOID)), seed),
    }
    #: SHA-256 of values.tobytes() then labels.tobytes()
    GOLDEN = {
        ("waveform-merged", 0): "0383016ee0571a5e3b297b3657ce4024ebc776821ec9cc52ec288bd974be5d45",
        ("waveform-merged", 1): "5794acc62d0fa44f1a0b6e8723f0df693faa2e1c96230222da5561e7fb1fc209",
        ("waveform-merged", 2): "1146960703186d7e85add70b4b3e32d576ed70df1f805b56b764054f59457d90",
        ("waveform-unmerged", 0): "d522f6b6baead6023674211be3de458ee0943d0035b8689d2d9adab53b5d14cb",
        ("waveform-unmerged", 1): "1b76bca297aaebe212288aa2a546acc961f1c697912ecf9ca2219cbf12aa12cc",
        ("waveform-unmerged", 2): "cb3a243c6002e062a111b378f100bd26aaff7cddb0457395b6322fda3694189c",
        ("waveform-noise-0.7", 0): "c6a9e3020b02a4c6752e0228a37eab9cd944964cd783ab544f2957439c0ad140",
        ("waveform-noise-0.7", 1): "d1c23192cc2673976a4de3126654c13087cb7802a89d4c347d9efa0fb35e864c",
        ("waveform-noise-0.7", 2): "a136f212c884dd251c15bdc52fca374bf1b590e132cc9e8e28939c481ffafb45",
        ("piecewise-default", 0): "cb936c98cbdd08069a3279bfdb4922b3795a5660d6811f6b43f9d21072b8789c",
        ("piecewise-default", 1): "cfecb75864c2e705d1e351431f85e8bb8e96ff29e34f46eb6a8e3bf9807eceba",
        ("piecewise-default", 2): "01ff85cf8cc1b7034adbbdc043b27aa71235203e2b2769a30cf54f3a05e61019",
        ("piecewise-sigmoid", 0): "67bc99dcfe17ed11c9ed4da2fd9ab5d0bfc45c7527f908c46800505b9aabbad5",
        ("piecewise-sigmoid", 1): "0a43f4748c7f3eaba01d2ab9f628ee5003faa1dfd1b6aace8e700f5351d40d81",
        ("piecewise-sigmoid", 2): "8c0fa0b73db1adc3c5297d214bdcd8b8cdfb5f0df0b0ccddd4679405c0e3b315",
    }

    @pytest.mark.parametrize("case, seed", sorted(GOLDEN))
    def test_generated_bytes(self, case, seed):
        data = self.CASES[case](seed)
        digest = hashlib.sha256(data.values.tobytes())
        digest.update(data.labels.tobytes())
        assert digest.hexdigest() == self.GOLDEN[case, seed]

    @pytest.mark.parametrize("argv, digest", [
        (["--benchmark", "waveform", "--no-merge", "--per-class", "30", "--noise-sd", "0.7",
          "--seed", "7"], "c7565286cfe5ad6b806b53a87635960b029448bedf7a12d4cde7b4df91773bf3"),
        (["--spec-json", "SPEC", "--seed", "3"],
         "cfa43e2cafd7872b4b50179873944d41e0243a3a378751a4e4825511fa225241"),
    ], ids=["waveform", "piecewise-spec-json"])
    def test_generated_curves_file(self, tmp_path, argv, digest):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(_SIGMOID))
        argv = [str(spec) if a == "SPEC" else a for a in argv]
        assert main(["generate", *argv, "--out", str(tmp_path)]) == 0
        assert hashlib.sha256((tmp_path / "curves.csv").read_bytes()).hexdigest() == digest
