"""Deterministic counter-based random numbers.

Every random choice in the package is a pure function of a 64-bit key and a
64-bit counter, so results are bit-reproducible across platforms, processes
and thread counts. The generator is SplitMix64 run in counter mode:

    value(key, c) = finalize(key + (c + 1) * 0x9E3779B97F4A7C15  mod 2^64)

where ``finalize`` is the SplitMix64 output permutation
(z ^= z>>30; z *= 0xBF58476D1CE4E5B9; z ^= z>>27; z *= 0x94D049BB133111EB;
z ^= z>>31). Uniform doubles (``uniforms``, ``uniform_block``) use the 53-bit
mantissa convention

    uniform(key, c) = (value(key, c) >> 11) * 2^-53        in [0, 1).

Independent streams are carved out by key derivation: ``derive_key(k, a, b)``
folds each tag through one generator call, ``value(value(k, a), b)``. Seeds
may be any Python int; they are reduced mod 2^64 first.
"""

from __future__ import annotations

import numpy as np

from ._kernels import MASK64, uniforms_at, value_at_py


def mask64(x: int) -> int:
    return x & MASK64


def value_at(key: int, counter: int) -> int:
    """Raw 64-bit generator output for (key, counter): the scalar reference that the
    vectorized uniforms are tested against."""
    return value_at_py(mask64(key), mask64(counter))


def derive_key(key: int, *parts: int) -> int:
    """Derive an independent stream key by folding integer tags."""
    k = mask64(key)
    for p in parts:
        k = value_at_py(k, mask64(p))
    return k


def uniforms(key: int, counters) -> np.ndarray:
    """Vector of uniforms at explicit counters (array-like of ints)."""
    return uniforms_at(mask64(key), counters)


def uniform_block(key: int, count: int) -> np.ndarray:
    """Uniforms at counters 0..count-1."""
    return uniforms_at(mask64(key), np.arange(count, dtype=np.uint64))
