"""Deterministic random streams.

All stochastic choices in the package draw from counter-based Philox
streams derived from a single integer seed plus an integer path. Streams
for different paths are independent: each restart, fold and generated
curve draws from its own stream, so results do not depend on the order
in which they run.

Gaussian noise for the data generators is produced by an explicit
Box-Muller transform of the stream's uniform doubles, so the generated
datasets are fully specified by (seed, path): for uniforms ``u1, u2`` in
[0, 1), the sample is ``sqrt(-2 log(1 - u1)) * cos(2 pi u2)``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["child_rng", "subseed", "box_muller"]


def child_rng(seed: int, *path: int) -> np.random.Generator:
    """Philox generator for the stream identified by ``seed`` and ``path``."""
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def subseed(seed: int, *path: int) -> int:
    """Derive an integer sub-seed; used to hand independent seeds downstream."""
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def box_muller(rng: np.random.Generator, size: int) -> np.ndarray:
    """Standard normals via Box-Muller over the stream's uniforms.

    One pair of uniform doubles is consumed per sample (only the cosine
    branch is used), which keeps the mapping from stream position to
    sample trivially reproducible.
    """
    u1 = rng.random(size)
    u2 = rng.random(size)
    return np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)
