"""Deterministic random streams.

All stochastic choices in the package draw from counter-based Philox
streams derived from a single integer seed plus an integer path. Streams
for different paths are independent: each restart, fold and generated
curve draws from its own stream, so results do not depend on the order
in which they run.

``child_rng(seed, *path)`` defines the stream of a path: a Philox
generator keyed by ``SeedSequence(seed, spawn_key=path)``, counter 0. It
is what restarts and folds draw from, and it is the reference the bulk
draw is tested against.

The data generators draw the streams ``(seed, 0)``, ..., ``(seed, n-1)``
all at once with ``uniforms``. A Philox stream is fixed by its key and
counter alone (Salmon et al. 2011, *Parallel random numbers: as easy as
1, 2, 3*), so the bulk draw computes every key in one array pass of
NumPy's SeedSequence hash (``_stream_keys``), then runs one ``Philox``
object from counter 0 under each key in turn. Row i is bit for bit
``child_rng(seed, i).random(size)``.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = ["child_rng", "subseed", "uniforms"]


def child_rng(seed: int, *path: int) -> np.random.Generator:
    """Philox generator for the stream identified by ``seed`` and ``path``."""
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def subseed(seed: int, *path: int) -> int:
    """Derive an integer sub-seed; used to hand independent seeds downstream."""
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


# NumPy's SeedSequence hash (numpy/random/bit_generator.pyx, after
# M. E. O'Neill's seed_seq_fe): 32-bit words, a pool of 4.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = np.uint32(16)


def _hash_constants(init: int, mult: int):
    """The (xor, multiplier) pair of each successive hash: the constant
    that the hash xors in, then advances by ``mult`` and multiplies by."""
    const = init
    while True:
        advanced = const * mult & _MASK32
        yield np.uint32(const), np.uint32(advanced)
        const = advanced


def _hash(value: np.ndarray, constants) -> np.ndarray:
    xor, mult = next(constants)
    value = (value ^ xor) * mult
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> _XSHIFT)


def _stream_keys(seed: int, n: int) -> np.ndarray:
    """(n, 2) uint64: row i is ``SeedSequence(seed, spawn_key=(i,))
    .generate_state(2, np.uint64)``, the Philox key of ``child_rng(seed, i)``.

    The entropy of stream i is the seed's 32-bit words, low word first
    and padded with zeros to the pool size, then the word i (n <= 2**32).
    Every word but the last is the same for all streams, so each step of
    the hash runs on (1,) arrays or on the (n,) array of stream indices;
    uint32 arithmetic wraps as the hash needs.
    """
    seed = operator.index(seed)  # TypeError for a float, as SeedSequence
    if seed < 0:
        raise ValueError("expected non-negative integer")  # as SeedSequence says
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL_SIZE - len(words))
    entropy = [np.array([w], dtype=np.uint32) for w in words]
    entropy.append(np.arange(n, dtype=np.uint32))

    constants = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hash(word, constants) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], constants))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hash(word, constants))

    constants = _hash_constants(_INIT_B, _MULT_B)
    state = [np.broadcast_to(_hash(word, constants), (n,)).astype(np.uint64) for word in pool]
    # generate_state(2, uint64) reads its four uint32 words little end first
    return np.stack([state[0] | state[1] << np.uint64(32), state[2] | state[3] << np.uint64(32)], axis=1)


#: Elements converted per step from raw integers to doubles in place: a
#: ufunc whose output shares the memory of an input of another dtype
#: copies that input first, so a step copies only this many.
_BLOCK = 1 << 16


def uniforms(seed: int, n: int, size: int) -> np.ndarray:
    """(n, size) uniform doubles in [0, 1): row i is bit for bit
    ``child_rng(seed, i).random(size)``.

    Each row is one ``Philox.random_raw(size)`` run from counter 0 under
    the stream's key, mapped to doubles as ``Generator.random`` does,
    ``(raw >> 11) * 2**-53``: ``Generator.random`` takes one raw 64-bit
    word per double, so a stream's successive calls are slices of its row.

    The data generators turn pairs of these uniforms into their Gaussian
    noise by the cosine branch of the Box-Muller transform: for ``u1, u2``
    read from the same stream, the standard normal draw is
    ``sqrt(-2 log(1 - u1)) * cos(2 pi u2)``. One pair is consumed per
    sample, so the mapping from stream position to sample is plain, and a
    generated dataset is fully specified by its spec and seed.
    """
    keys = _stream_keys(seed, n)
    bits = np.random.Philox(key=0)
    state = bits.state  # counter 0, an empty buffer (buffer_pos 4)
    raw = np.empty((n, size), dtype=np.uint64)
    for i in range(n):
        state["state"]["key"] = keys[i]
        bits.state = state
        raw[i] = bits.random_raw(size)
    np.right_shift(raw, np.uint64(11), out=raw)
    flat = raw.reshape(-1)
    out = flat.view(np.float64)
    for lo in range(0, flat.size, _BLOCK):
        np.multiply(flat[lo : lo + _BLOCK], 2.0**-53, out=out[lo : lo + _BLOCK])
    return out.reshape(n, size)
