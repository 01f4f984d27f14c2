"""Deterministic generators for the two synthetic benchmarks.

The piecewise benchmark builds two classes of noisy step curves: a
heterogeneous class made of three sub-classes and a homogeneous class,
each curve switching between constant regime levels at fixed transition
times (hard steps by default, sigmoid blends when a finite sharpness is
given).

The waveform benchmark draws the classic three-class triangular waveform
curves on t = 0..20 and can merge the first two classes into one
heterogeneous class.

Every curve is generated from its own counter-based stream indexed by
(seed, curve index), so output is bit-identical per (spec, seed) and
independent of generation order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BOOLEAN,
    INTEGER,
    NUMBER,
    NUMBER_OR_NULL,
    LabeledCurveSet,
    OptionalKey,
    TimeGrid,
    check_structure,
)
from .errors import DataError
from .rng import box_muller, child_rng

#: The most values, curves x points, that a spec may generate: 10 million,
#: 80 MB as floats and about 200 MB as CSV text.
MAX_VALUES = 10_000_000


def _check_size(n_curves: int, n_points: int) -> None:
    if n_curves * n_points > MAX_VALUES:
        raise ValueError(
            f"{n_curves} curves x {n_points} points exceed the limit of {MAX_VALUES} values"
        )


#: Bounds the size of a ``box_muller`` draw: the largest is
#: sqrt(-2 ln 2**-53) = 8.5716, from the largest uniform below 1.
_MAX_DRAW = 8.58


def _check_reach(mean_reach: float, noise_sd: float) -> None:
    """ValueError unless every curve value, at most ``mean_reach`` plus
    ``_MAX_DRAW`` noise deviations in size, is finite."""
    if not math.isfinite(mean_reach + _MAX_DRAW * noise_sd):
        raise ValueError("curve values could overflow")


@dataclass(frozen=True)
class RegimeProfile:
    """Mean shape of one sub-class: levels switching at boundary times."""

    levels: tuple[float, ...]
    boundaries: tuple[float, ...]
    sharpness: float | None = None  # None: hard steps; else sigmoid slope

    def __post_init__(self):
        levels = tuple(float(v) for v in self.levels)
        boundaries = tuple(float(b) for b in self.boundaries)
        if len(levels) < 1:
            raise ValueError("need at least one regime level")
        if len(boundaries) != len(levels) - 1:
            raise ValueError("need exactly one boundary between adjacent regimes")
        if not all(math.isfinite(v) for v in levels + boundaries):
            raise ValueError("levels and boundaries must be finite")
        if any(b2 <= b1 for b1, b2 in zip(boundaries, boundaries[1:])):
            raise ValueError("boundaries must be strictly increasing")
        # float(): OverflowError for an integer beyond every float
        if self.sharpness is not None and not 0 < float(self.sharpness) < math.inf:
            raise ValueError("sharpness must be positive and finite when given")
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "boundaries", boundaries)

    @property
    def reach(self) -> float:
        """The largest size of a level or of a step between levels, which
        bounds every value ``mean`` computes."""
        steps = tuple(b - a for a, b in zip(self.levels, self.levels[1:]))
        return max(abs(v) for v in self.levels + steps)

    def mean(self, t: np.ndarray) -> np.ndarray:
        levels = np.array(self.levels)
        if len(levels) == 1:
            return np.full_like(t, levels[0], dtype=float)
        bounds = np.array(self.boundaries)
        if self.sharpness is None:
            return levels[np.searchsorted(bounds, t, side="right")]
        out = np.full_like(t, levels[0], dtype=float)
        for step, b in zip(np.diff(levels), bounds):
            out += step / (1.0 + np.exp(-self.sharpness * (t - b)))
        return out


@dataclass(frozen=True)
class PiecewiseSpec:
    """Two classes of piecewise-regime curves; class 1 may be heterogeneous."""

    class_profiles: tuple[tuple[RegimeProfile, ...], ...]
    noise_sd: float = 0.35
    curves_per_subclass: int = 10
    n_points: int = 200
    span: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        profiles = tuple(tuple(sub) for sub in self.class_profiles)
        span = tuple(self.span)
        if not profiles or any(not sub for sub in profiles):
            raise ValueError("every class needs at least one sub-class profile")
        if not 0 < self.noise_sd < math.inf:
            raise ValueError("noise_sd must be positive and finite")
        if self.curves_per_subclass < 1:
            raise ValueError("need at least one curve per sub-class")
        if self.n_points < 2:
            raise ValueError("need at least two sample points")
        _check_size(self.curves_per_subclass * sum(map(len, profiles)), self.n_points)
        lo, hi = (float(v) for v in span)
        if not -math.inf < lo < hi < math.inf:
            raise ValueError("span must be a non-empty finite interval")
        if not hi - lo < math.inf:
            raise ValueError("span width must be finite")
        for sub in profiles:
            for profile in sub:
                if any(not lo < b < hi for b in profile.boundaries):
                    raise ValueError("regime boundaries must lie inside the span")
        _check_reach(max(p.reach for sub in profiles for p in sub), self.noise_sd)
        object.__setattr__(self, "class_profiles", profiles)
        object.__setattr__(self, "span", span)
        object.__setattr__(self, "noise_sd", float(self.noise_sd))

    def to_dict(self) -> dict:
        return {
            "benchmark": "piecewise",
            "classes": [
                [
                    {
                        "levels": list(p.levels),
                        "boundaries": list(p.boundaries),
                        "sharpness": p.sharpness,
                    }
                    for p in sub
                ]
                for sub in self.class_profiles
            ],
            "noise_sd": self.noise_sd,
            "curves_per_subclass": self.curves_per_subclass,
            "n_points": self.n_points,
            "span": list(self.span),
        }

def default_piecewise_spec() -> PiecewiseSpec:
    """Default benchmark: a three-sub-class class vs a homogeneous class.

    The third sub-class of class 1 shadows the class 2 shape: close
    enough pointwise that a single pooled density per class absorbs one
    block into the other, and with a nearly identical time average and
    spread, so constant-mean mixture components confuse the two as well.
    Only per-sub-class models with per-regime noise keep them apart.
    """
    b = (1.0 / 3.0, 2.0 / 3.0)
    class1 = (
        RegimeProfile((5.0, 7.0, 4.0), b),
        RegimeProfile((6.0, 4.0, 7.0), b),
        RegimeProfile((4.22, 4.78, 6.22), b),
    )
    class2 = (RegimeProfile((4.0, 5.0, 6.0), b),)
    return PiecewiseSpec(class_profiles=(class1, class2))


def gen_piecewise(spec: PiecewiseSpec, seed: int) -> LabeledCurveSet:
    """Curves drawn around each sub-class mean with i.i.d. Gaussian noise.

    Curves appear class by class, sub-class by sub-class, in spec order.
    """
    lo, hi = spec.span
    grid = TimeGrid(np.linspace(lo, hi, spec.n_points))
    t = grid.points
    values = []
    labels = []
    curve_index = 0
    for class_idx, sub_profiles in enumerate(spec.class_profiles, start=1):
        for profile in sub_profiles:
            mean = profile.mean(t)
            for _ in range(spec.curves_per_subclass):
                noise = box_muller(child_rng(seed, curve_index), spec.n_points)
                values.append(mean + spec.noise_sd * noise)
                labels.append(class_idx)
                curve_index += 1
    return LabeledCurveSet(
        np.array(values), np.array(labels), grid, len(spec.class_profiles)
    )


# ---------------------------------------------------------------------------
# Waveform benchmark
# ---------------------------------------------------------------------------

WAVEFORM_SPAN = (0.0, 20.0)
WAVEFORM_PERIOD = 1.0
WAVEFORM_POINTS = round((WAVEFORM_SPAN[1] - WAVEFORM_SPAN[0]) / WAVEFORM_PERIOD) + 1


@dataclass(frozen=True)
class WaveformSpec:
    """Triangular waveform curves on t = 0..20, optionally merged classes."""

    curves_per_class: int = 500
    noise_sd: float = 1.0
    merge: bool = True

    def __post_init__(self):
        if self.curves_per_class < 1:
            raise ValueError("need at least one curve per class")
        if not 0 < self.noise_sd < math.inf:
            raise ValueError("noise_sd must be positive and finite")
        _check_size(3 * self.curves_per_class, WAVEFORM_POINTS)
        _check_reach(6.0, self.noise_sd)  # the base shapes peak at 6
        object.__setattr__(self, "noise_sd", float(self.noise_sd))

    def to_dict(self) -> dict:
        return {
            "benchmark": "waveform",
            "curves_per_class": self.curves_per_class,
            "noise_sd": self.noise_sd,
            "merge": self.merge,
            "span": list(WAVEFORM_SPAN),
            "sampling_period": WAVEFORM_PERIOD,
        }

def waveform_base(which: int, t) -> np.ndarray | float:
    """The three triangular base shapes; peak 6 at t = 11, 15, and 7."""
    t = np.asarray(t, dtype=float)
    if which == 1:
        out = np.maximum(6.0 - np.abs(t - 11.0), 0.0)
    elif which == 2:
        out = np.maximum(6.0 - np.abs(t - 15.0), 0.0)
    elif which == 3:
        out = np.maximum(6.0 - np.abs(t - 7.0), 0.0)
    else:
        raise ValueError("which must be 1, 2, or 3")
    return float(out) if out.ndim == 0 else out


#: Base-shape pair (a, b) mixed as u*a + (1-u)*b for each original class,
#: following Breiman's waveform recognition problem.
_WAVEFORM_PAIRS = {1: (1, 2), 2: (1, 3), 3: (2, 3)}


def gen_waveform(spec: WaveformSpec, seed: int) -> LabeledCurveSet:
    """Waveform curves: per curve, one uniform mixing draw plus i.i.d. noise.

    Curves appear in original-class order (all class-1 curves, then
    class-2, then class-3). With ``merge`` the original classes 1 and 2
    are labeled 1 and the original class 3 is labeled 2.
    """
    lo, hi = WAVEFORM_SPAN
    grid = TimeGrid(np.arange(lo, hi + WAVEFORM_PERIOD / 2, WAVEFORM_PERIOD))
    t = grid.points
    m = len(grid)
    values = []
    labels = []
    curve_index = 0
    for orig_class in (1, 2, 3):
        a, b = _WAVEFORM_PAIRS[orig_class]
        base_a, base_b = waveform_base(a, t), waveform_base(b, t)
        label = orig_class if not spec.merge else (1 if orig_class in (1, 2) else 2)
        for _ in range(spec.curves_per_class):
            rng = child_rng(seed, curve_index)
            u = rng.random()
            noise = box_muller(rng, m)
            values.append(u * base_a + (1.0 - u) * base_b + spec.noise_sd * noise)
            labels.append(label)
            curve_index += 1
    n_classes = 2 if spec.merge else 3
    return LabeledCurveSet(np.array(values), np.array(labels), grid, n_classes)


def waveform_subclass_origin(spec: WaveformSpec) -> np.ndarray:
    """Original class (1, 2, 3) of each generated curve, in output order."""
    return np.repeat([1, 2, 3], spec.curves_per_class)


#: The JSON structure of each benchmark's spec document (see
#: ``core.check_structure``); a key left out takes the spec's default.
_PROFILE = {"levels": [NUMBER], "boundaries": [NUMBER], "sharpness": OptionalKey(NUMBER_OR_NULL)}
_SPECS = {
    "piecewise": {
        "classes": [[_PROFILE]],
        "noise_sd": OptionalKey(NUMBER),
        "curves_per_subclass": OptionalKey(INTEGER),
        "n_points": OptionalKey(INTEGER),
        "span": OptionalKey([NUMBER]),
    },
    "waveform": {
        "curves_per_class": OptionalKey(INTEGER),
        "noise_sd": OptionalKey(NUMBER),
        "merge": OptionalKey(BOOLEAN),
    },
}


def spec_from_json(text: str) -> PiecewiseSpec | WaveformSpec:
    """Load either benchmark spec from its JSON form, an object whose
    ``benchmark`` names its structure; ``DataError`` if the document does
    not have that structure or the spec rejects a value."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"spec document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError("spec document must be a JSON object")
    benchmark = doc.get("benchmark")
    if not (isinstance(benchmark, str) and benchmark in _SPECS):
        raise DataError(f"unknown benchmark {benchmark!r}")
    try:
        fields = check_structure(doc, _SPECS[benchmark], error=ValueError)
        if benchmark == "waveform":
            return WaveformSpec(**fields)
        classes = fields.pop("classes")
        profiles = tuple(tuple(RegimeProfile(**p) for p in sub) for sub in classes)
        return PiecewiseSpec(profiles, **fields)
    except (ValueError, OverflowError) as exc:  # OverflowError: an integer beyond every float
        raise DataError(f"malformed {benchmark} spec: {exc}") from exc
