"""The hot kernels against their Python references."""

import tracemalloc

import numpy as np
import pytest

from graphonlab import _kernels, rng
from conftest import random_step


def test_uniforms_match_python_reference():
    key = rng.derive_key(123, 5)
    got = rng.uniforms(key, np.arange(64))
    want = [(rng.value_at(key, c) >> 11) * 2.0**-53 for c in range(64)]
    assert got.tolist() == want
    assert np.all((got >= 0.0) & (got < 1.0))


def test_derive_key_accepts_negative_and_huge_seeds():
    k1 = rng.derive_key(-17, 3)
    k2 = rng.derive_key((-17) & _kernels.MASK64, 3)
    assert k1 == k2
    assert 0 <= rng.derive_key(2**200, 1, 2, 3) <= _kernels.MASK64


def _full_scan_best_mask(values):
    """Reference: every mask in chunks of 2^14, column sums from a bit-matrix
    product, argmax within a chunk and strict `>` across chunks."""
    n = values.shape[0]
    cols = np.arange(n, dtype=np.uint64)
    chunk = 1 << min(n, 14)
    best_val, best_mask = 0.0, 0
    for lo in range(0, 1 << n, chunk):
        masks = np.arange(lo, lo + chunk, dtype=np.uint64)
        r = ((masks[:, None] >> cols) & np.uint64(1)).astype(np.float64) @ values
        est = np.maximum(np.where(r > 0, r, 0).sum(axis=1), np.where(r < 0, -r, 0).sum(axis=1))
        i = int(np.argmax(est))
        if est[i] > best_val:
            best_val, best_mask = float(est[i]), int(masks[i])
    return best_mask


def _oracle_cases():
    g = np.random.default_rng(20240)
    for n in range(1, 15):
        for key in range(3):
            yield pytest.param(random_step(n, key=key).values, id=f"random_step-{n}-{key}")
        q = g.integers(-3, 4, (n, n)) / 7
        yield pytest.param(np.triu(q) + np.triu(q, 1).T, id=f"quantized-{n}")
        adj = np.triu(g.uniform(size=(n, n)) < 0.5, 1).astype(float)
        yield pytest.param(adj + adj.T - 0.5, id=f"er-{n}")
        yield pytest.param(g.uniform(-1, 1, (n, n)), id=f"nonsymmetric-{n}")
    yield pytest.param(random_step(18, key=5).values, id="random_step-18")


@pytest.mark.parametrize("values", list(_oracle_cases()))
def test_enum_best_mask_matches_full_scan(values):
    assert _kernels.enum_best_mask(values) == _full_scan_best_mask(values)


def test_enum_best_mask_zero_matrix_and_single_block():
    assert _kernels.enum_best_mask(np.zeros((6, 6))) == 0
    assert _kernels.enum_best_mask(np.array([[0.25]])) == 1
    assert _kernels.enum_best_mask(np.array([[-0.25]])) == 1
    assert _kernels.enum_best_mask(np.zeros((1, 1))) == 0


def test_enum_best_mask_allocates_no_full_subset_array():
    values = random_step(20, key=9).values
    tracemalloc.start()
    try:
        _kernels.enum_best_mask(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (1 << 20) * 8 // 4  # a quarter of one float per subset
