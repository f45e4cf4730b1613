"""The hot kernels against their Python references."""

import numpy as np

from graphonlab import _kernels, rng


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
