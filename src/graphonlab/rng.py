"""Deterministic counter-based random numbers.

Every random choice in the package is a pure function of a 64-bit key and a
64-bit counter, so results are bit-reproducible across platforms, processes
and thread counts. The generator is SplitMix64 run in counter mode:

    value(key, c) = finalize(key + (c + 1) * 0x9E3779B97F4A7C15  mod 2^64)

where ``finalize`` is the SplitMix64 output permutation
(z ^= z>>30; z *= 0xBF58476D1CE4E5B9; z ^= z>>27; z *= 0x94D049BB133111EB;
z ^= z>>31). ``value_at`` computes it on Python ints and ``words_at`` on a
uint64 array of counters, in the same order of operations, so the two agree
bit for bit (uint64 arithmetic wraps mod 2^64). Uniform doubles
(``uniforms_at``, ``uniform_block``) use the 53-bit mantissa convention

    uniform(key, c) = (value(key, c) >> 11) * 2^-53        in [0, 1).

Independent streams are carved out by key derivation: ``derive_key(k, a, b)``
folds each tag through one generator call, ``value(value(k, a), b)``. Keys,
seeds, tags and counters may be any Python int; they are reduced mod 2^64.

Every variate of the sampling construction is drawn through ``uniforms_at``,
looked up as an attribute of this module, so wrapping that one name sees
them all.
"""

from __future__ import annotations

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF
GOLDEN = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB

_U64_GOLDEN = np.uint64(GOLDEN)
_U64_MIX1 = np.uint64(MIX1)
_U64_MIX2 = np.uint64(MIX2)
_INV_2_53 = 2.0 ** -53


def value_at(key: int, counter: int) -> int:
    """Raw 64-bit generator output for (key, counter) on Python ints: the scalar
    reference that `words_at` is tested against, and the step of key derivation."""
    z = (key + (counter + 1) * GOLDEN) & MASK64
    z ^= z >> 30
    z = (z * MIX1) & MASK64
    z ^= z >> 27
    z = (z * MIX2) & MASK64
    z ^= z >> 31
    return z


def derive_key(key: int, *parts: int) -> int:
    """Derive an independent stream key by folding integer tags."""
    k = key & MASK64
    for p in parts:
        k = value_at(k, p)
    return k


def words_at(key: int, counters) -> np.ndarray:
    """Raw 64-bit generator outputs (uint64) at the given counters."""
    c = np.ascontiguousarray(counters, dtype=np.uint64)
    z = np.uint64(key & MASK64) + (c + np.uint64(1)) * _U64_GOLDEN
    z ^= z >> np.uint64(30)
    z *= _U64_MIX1
    z ^= z >> np.uint64(27)
    z *= _U64_MIX2
    z ^= z >> np.uint64(31)
    return z


def uniforms_at(key: int, counters) -> np.ndarray:
    """Uniforms in [0, 1) at the given counters (array-like of ints)."""
    return (words_at(key, counters) >> np.uint64(11)).astype(np.float64) * _INV_2_53


def uniform_block(key: int, count: int) -> np.ndarray:
    """Uniforms at counters 0..count-1."""
    return uniforms_at(key, np.arange(count, dtype=np.uint64))
