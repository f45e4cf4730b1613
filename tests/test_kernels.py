"""The hot kernels against their Python references."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphonlab as gl
from graphonlab import _kernels, rng
from graphonlab.norms import _result
from conftest import random_step


def test_uniforms_match_python_reference():
    key = rng.derive_key(123, 5)
    got = rng.uniforms_at(key, np.arange(64))
    want = [(rng.value_at(key, c) >> 11) * 2.0**-53 for c in range(64)]
    assert got.tolist() == want
    assert np.all((got >= 0.0) & (got < 1.0))


def test_derive_key_accepts_negative_and_huge_seeds():
    k1 = rng.derive_key(-17, 3)
    k2 = rng.derive_key((-17) & rng.MASK64, 3)
    assert k1 == k2
    assert 0 <= rng.derive_key(2**200, 1, 2, 3) <= rng.MASK64


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


def _er_half(n, g):
    adj = np.triu(g.uniform(size=(n, n)) < 0.5, 1).astype(float)
    return adj + adj.T - 0.5


def _quantized(n, g):
    q = g.integers(-3, 4, (n, n)) / 7
    return np.triu(q) + np.triu(q, 1).T


def _oracle_cases():
    g = np.random.default_rng(20240)
    for n in range(1, 15):
        for key in range(3):
            yield pytest.param(random_step(n, key=key).values, id=f"random_step-{n}-{key}")
        yield pytest.param(_quantized(n, g), id=f"quantized-{n}")
        yield pytest.param(_er_half(n, g), id=f"er-{n}")
        yield pytest.param(g.uniform(-1, 1, (n, n)), id=f"nonsymmetric-{n}")
    # past n = 16 the scan takes several chunks
    yield pytest.param(random_step(18, key=5).values, id="random_step-18")
    for n in (19, 20, 21):  # exact (S, T) / (T, S) ties in different chunks
        yield pytest.param(_er_half(n, g), id=f"er-{n}")
    q = _quantized(20, g)
    yield pytest.param(q, id="quantized-20")
    u = g.uniform(-1, 1, (20, 20))
    yield pytest.param(q + 1e-10 * (np.triu(u) + np.triu(u, 1).T), id="quantized-20-noise")


@pytest.mark.parametrize("values", list(_oracle_cases()))
def test_enum_best_mask_matches_full_scan(values):
    assert _kernels.enum_best_mask(values) == _full_scan_best_mask(values)


def test_enum_best_mask_zero_matrix_and_single_block():
    assert _kernels.enum_best_mask(np.zeros((6, 6))) == 0
    assert _kernels.enum_best_mask(np.array([[0.25]])) == 1
    assert _kernels.enum_best_mask(np.array([[-0.25]])) == 1
    assert _kernels.enum_best_mask(np.zeros((1, 1))) == 0


def _scaling_cases():
    g = np.random.default_rng(2310)
    for n in (6, 13, 20):
        u = g.uniform(-1, 1, (n, n))
        yield pytest.param(np.triu(u) + np.triu(u, 1).T, id=f"random-{n}")
        yield pytest.param(_quantized(n, g), id=f"quantized-{n}")
    u = g.uniform(-1, 1, (20, 20))
    v = np.triu(u) + np.triu(u, 1).T
    v[7] *= 2.0 ** -160
    v[:, 7] *= 2.0 ** -160
    yield pytest.param(v, id="row-and-column-2^-160")


# the scan runs in float32, whose range ends near 2^-149 and 2^128
@pytest.mark.parametrize("values", list(_scaling_cases()))
def test_enum_best_mask_does_not_move_under_a_power_of_two_scale(values):
    want = _kernels.enum_best_mask(values)
    for k in (-1000, -160, -140, 0, 130, 1000):
        assert _kernels.enum_best_mask(np.ldexp(values, k)) == want, k


# masks rescored in the reference order on these inputs by the float64 scan
# of 2^15-entry chunks that the float32 scan replaced
_PARENT_RESCORED = 77


def test_enum_best_mask_rescores_no_more_masks_than_the_float64_scan(monkeypatch):
    rescored = []
    estimate = _kernels._subset_estimate
    monkeypatch.setattr(_kernels, "_subset_estimate",
                        lambda values, masks: rescored.append(len(masks)) or estimate(values, masks))
    g = np.random.default_rng(18)
    for _ in range(5):
        _kernels.enum_best_mask(_er_half(20, g))
    assert 0 < sum(rescored) <= _PARENT_RESCORED


def test_enum_best_mask_allocates_no_full_subset_array(peak_bytes):
    values = random_step(20, key=9).values
    peak = peak_bytes(lambda: _kernels.enum_best_mask(values))
    assert peak < (1 << 20) * 8 // 4  # a quarter of one float per subset


def _unpruned_best_mask(values):
    """Reference: the float32 meet-in-the-middle scan with no bound, every high
    against every low in ascending mask order, each chunk's near-best masks
    rescored in float64; argmax within a chunk and strict `>` across chunks."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    if not values.any():
        return 0
    n = values.shape[0]
    nlo = max((n + 1) // 2, min(n, _kernels._MIN_LOW_BITS))
    ext = np.column_stack([values, values.sum(axis=1)])
    lo, hi = _kernels._subset_sums(ext[:nlo]), _kernels._subset_sums(ext[nlo:])
    e = int(np.frexp(max(lo.max(), -lo.min(), hi.max(), -hi.min()))[1])
    lo, hi = np.ldexp(lo, -e).astype(np.float32), np.ldexp(hi, -e).astype(np.float32)
    hb = max(1, _kernels._SCAN_CHUNK // lo.shape[1])
    tol = 32.0 * (n + 1) * _kernels._EPS32 * float(np.abs(np.ldexp(values, -e)).sum())
    running = best_val = 0.0
    best_mask = 0
    for h0 in range(0, hi.shape[1], hb):
        a = np.zeros((min(hb, hi.shape[1] - h0), lo.shape[1]), dtype=np.float32)
        for j in range(len(lo)):
            a += np.abs(hi[j, h0:h0 + hb, None] + lo[j])
        running = max(running, float(a.max()))
        masks = (h0 << nlo) + np.flatnonzero(a >= np.float32(max(running - tol, _kernels._TINY32)))
        if masks.size:
            est = _kernels._subset_estimate(values, masks)
            i = int(np.argmax(est))
            if est[i] > best_val:
                best_val, best_mask = float(est[i]), int(masks[i])
    return best_mask


def _sym(u):
    return np.triu(u) + np.triu(u, 1).T


def _er(n, g, p):
    adj = np.triu(g.uniform(size=(n, n)) < p, 1).astype(float)
    return adj + adj.T - p


def _hadamard(n):
    h = np.ones((1, 1))
    while len(h) < n:
        h = np.block([[h, h], [h, -h]])
    return h[:n, :n]


def _pruned_oracle_cases():
    g = np.random.default_rng(2431)
    for n in (21, 24):
        yield pytest.param(_er(n, g, 0.1), id=f"er-0.1-{n}")
        yield pytest.param(_quantized(n, g), id=f"quantized-{n}")
        yield pytest.param(_hadamard(n), id=f"hadamard-{n}")
    for n in (22, 23, 24):
        yield pytest.param(_er(n, g, 0.5), id=f"er-0.5-{n}")
    yield pytest.param(_sym(g.uniform(0, 1, (22, 22))), id="nonnegative-22")
    yield pytest.param(g.uniform(0, 1, (24, 24)), id="nonnegative-nonsymmetric-24")
    s = np.where(g.uniform(size=23) < 0.5, -1.0, 1.0)
    yield pytest.param(np.outer(s, s), id="rank-one-23")
    yield pytest.param(np.full((24, 24), -0.3), id="constant-24")
    # a row and column at 2^-160 of the rest, which sits at 2^0 or at 2^130
    for n, k in ((22, 0), (24, 130)):
        v = np.ldexp(_sym(g.uniform(-1, 1, (n, n))), k)
        v[7] *= 2.0 ** -160
        v[:, 7] *= 2.0 ** -160
        yield pytest.param(v, id=f"row-and-column-2^-160-of-2^{k}-{n}")
    # sparse: the winner's bound is tight, and its float64 value sits just below the
    # float32 scan maximum, so the winner is kept only by the bound's margin
    g = np.random.default_rng(1726)
    v = g.uniform(-1, 1, (21, 21)) * (g.uniform(size=(21, 21)) < 0.2)
    yield pytest.param(_sym(v), id="sparse-21")


def _count_scanned_pairs(monkeypatch):
    """Wrap the per-chunk scan; the returned list collects the pairs of every chunk."""
    pairs = []
    scan = _kernels._scan_pairs
    monkeypatch.setattr(_kernels, "_scan_pairs",
                        lambda hi, lo, acc, tmp: pairs.append(hi.shape[1] * lo.shape[1])
                        or scan(hi, lo, acc, tmp))
    return pairs


@pytest.mark.parametrize("values", list(_pruned_oracle_cases()))
def test_pruned_scan_matches_the_unpruned_scan(monkeypatch, values):
    pairs = _count_scanned_pairs(monkeypatch)
    assert _kernels.enum_best_mask(values) == _unpruned_best_mask(values)
    assert 0 < sum(pairs) <= 1 << len(values)


def test_the_bound_prunes_most_pairs_of_er_draws(monkeypatch):
    pairs = _count_scanned_pairs(monkeypatch)
    g = np.random.default_rng(18)
    for _ in range(5):
        _kernels.enum_best_mask(_er_half(20, g))
    assert sum(pairs) <= 5 * (1 << 20) // 4


@given(n=st.integers(1, 12), symmetric=st.booleans(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_enum_best_mask_matches_full_scan_on_small_dyadic_matrices(n, symmetric, data):
    # eighths in [-1, 1] add up without rounding, so ties are exact and frequent
    eighths = data.draw(st.lists(st.integers(-8, 8), min_size=n * n, max_size=n * n))
    values = np.array(eighths, dtype=float).reshape(n, n) / 8
    if symmetric:
        values = _sym(values)
    assert _kernels.enum_best_mask(values) == _full_scan_best_mask(values)


def test_a_chunk_of_near_ties_is_rescored_in_bounded_memory(peak_bytes):
    # row and column 7 outweigh the rest by 2^130, so every mask that holds row 7 scans
    # within rounding of the maximum and is rescored: half of each chunk's 2^16 pairs
    v = _sym(np.random.default_rng(3).uniform(-1, 1, (16, 16)))
    v[7] *= 2.0 ** 130
    v[:, 7] *= 2.0 ** 130
    assert _kernels.enum_best_mask(v) == _unpruned_best_mask(v)
    peak = peak_bytes(lambda: _kernels.enum_best_mask(v))
    assert peak < (1 << 16) * 16 * 8 // 2  # half of one float per pair and row


def _row_at_a_time_estimate(values, masks):
    """Reference: r summed from zeros, one row of values at a time in ascending order, for
    every mask at once; then est = max(pos, neg)."""
    r = np.zeros((len(masks), values.shape[1]))
    for i, row in enumerate(values):
        r += ((masks >> i) & 1).astype(np.float64)[:, None] * row
    pos = np.where(r > 0.0, r, 0.0).sum(axis=1)
    neg = np.where(r < 0.0, -r, 0.0).sum(axis=1)
    return np.maximum(pos, neg)


@given(n=st.integers(1, 24), count=st.integers(1, 2 * _kernels._RESCORE_BLOCK + 1),
       dyadic=st.booleans(), scale=st.sampled_from([-130, 0, 130]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_subset_estimate_matches_the_row_at_a_time_sum_bit_for_bit(n, count, dyadic, scale,
                                                                    seed):
    g = np.random.default_rng(seed)
    if dyadic:  # eighths add up without rounding, so masks tie exactly
        values = g.integers(-8, 9, (n, n)) / 8
    else:  # sums that round, so the order of the rows shows
        values = g.uniform(-1, 1, (n, n))
    values[g.random((n, n)) < 0.25] = -0.0
    values = np.ldexp(values, scale)
    masks = g.integers(0, 1 << n, count)
    got = _kernels._subset_estimate(values, masks)
    assert got.tobytes() == _row_at_a_time_estimate(values, masks).tobytes()


def _gather_altmax_best_rows(values, restarts, key):
    """Reference: the heuristic with fancy-index gathers and per-row Python
    restart starts; column sums add the columns of T in ascending order."""
    n = values.shape[0]
    best_val, best_rows = -1.0, np.zeros(n, dtype=bool)
    for t in range(restarts):
        rows = np.ones(n, dtype=bool) if t == 0 else np.array(
            [rng.value_at(key, t * 2**32 + i) & 1 == 1 for i in range(n)], dtype=bool)
        best = -1.0
        for _ in range(4 * n * n + 8):
            r = values[rows].sum(axis=0) if rows.any() else np.zeros(n)
            pos, neg = r[r > 0.0].sum(), -r[r < 0.0].sum()
            cols = (r > 0.0) if pos >= neg else (r < 0.0)
            c = values[:, cols].sum(axis=1) if cols.any() else np.zeros(n)
            posc, negc = c[c > 0.0].sum(), -c[c < 0.0].sum()
            val = max(posc, negc)
            rows = (c > 0.0) if posc >= negc else (c < 0.0)
            if val <= best:
                break
            best = val
        if best > best_val:
            best_val, best_rows = best, rows
    return best_rows


def _altmax_cases():
    g = np.random.default_rng(5150)
    cases = []
    for n in (1, 2, 3, 4, 5, 7, 9, 12, 16, 23, 31, 40, 57, 64, 90, 128, 160):
        u = g.uniform(-1, 1, (n, n))
        cases.append((f"symmetric-{n}", np.triu(u) + np.triu(u, 1).T))
    for n in (2, 3, 5, 8, 13, 21, 34, 55, 89, 144):
        q = g.integers(-3, 4, (n, n)) / 7
        cases.append((f"quantized-{n}", np.triu(q) + np.triu(q, 1).T))
    for n in (40, 64, 150):
        for p in (0.1, 0.3, 0.5, 0.7):
            for rep in range(4):
                adj = np.triu(g.uniform(size=(n, n)) < p, 1).astype(float)
                cases.append((f"er-{n}-{p}-{rep}", adj + adj.T - p))
    for n in (1, 2, 6, 17, 33, 70, 120):
        cases.append((f"nonsymmetric-{n}", g.uniform(-1, 1, (n, n))))
    for n in (3, 10, 48, 100):
        u = g.uniform(-1, 1, (n, n))
        cases.append((f"tiny-{n}", 1e-9 * (np.triu(u) + np.triu(u, 1).T)))
    for n in (4, 26, 77):
        cases.append((f"random_step-{n}", random_step(n, key=n).values))
    cases += [("zero-1", np.zeros((1, 1))), ("zero-9", np.zeros((9, 9))),
              ("single-pos", np.array([[0.25]])), ("single-neg", np.array([[-0.25]]))]
    for n in (2, 9, 48):
        # restart 0 starts from the full set, a fixed point of a nonnegative matrix
        u = g.uniform(0, 1, (n, n))
        cases += [(f"nonnegative-{n}", np.triu(u) + np.triu(u, 1).T),
                  (f"nonnegative-nonsymmetric-{n}", u)]
    for i, (name, values) in enumerate(cases):
        if not np.array_equal(values, values.T):
            continue  # outside the heuristic's domain; still drawn, so every case keeps its key
        restarts = 1 + i % 12
        key = rng.derive_key(77, i) if i % 5 else rng.MASK64 - i
        yield pytest.param(values, restarts, key, id=f"{name}-r{restarts}")


@pytest.mark.parametrize("values,restarts,key", list(_altmax_cases()))
def test_altmax_best_rows_matches_gather_reference(values, restarts, key):
    got = _kernels.altmax_best_rows(values, restarts, key)
    want = _gather_altmax_best_rows(values, restarts, key)
    assert got.dtype == bool and got.tolist() == want.tolist()


def _restart_loop_best_rows(values, restarts, key):
    """Reference: the restart loop the batch replaced, one restart after another,
    both sums taken one term at a time in ascending order."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    vt = np.ascontiguousarray(values.T)
    n = values.shape[0]
    counters = np.arange(n, dtype=np.uint64)
    best_val, best_rows = -1.0, np.zeros(n, dtype=bool)
    for t in range(restarts):
        if t == 0:
            sel_rows = np.ones(n, dtype=bool)
        else:
            base = np.uint64((t << 32) & rng.MASK64)
            sel_rows = (rng.words_at(key, base + counters) & np.uint64(1)).astype(bool)
        best = -1.0
        for _ in range(4 * n * n + 8):
            prev = sel_rows
            r = np.compress(sel_rows, values, axis=0).sum(axis=0)
            pos, neg = r[r > 0.0].sum(), -r[r < 0.0].sum()
            sel_cols = (r > 0.0) if pos >= neg else (r < 0.0)
            c = np.compress(sel_cols, vt, axis=0).sum(axis=0)
            posc, negc = c[c > 0.0].sum(), -c[c < 0.0].sum()
            val = max(posc, negc)
            sel_rows = (c > 0.0) if posc >= negc else (c < 0.0)
            if val <= best:
                break
            best = val
            if np.array_equal(prev, sel_rows):
                break
        if best > best_val:
            best_val, best_rows = best, sel_rows
    return best_rows


def _tie_cases():
    """Matrices whose column sums are often exactly 0 or nearly tied, where the
    batch's rounding bound leaves a decision open."""
    g = np.random.default_rng(1606)
    cases = []
    for n in (25, 64, 150, 300):
        for p in (0.1, 0.3, 0.5, 0.7):
            adj = np.triu(g.uniform(size=(n, n)) < p, 1).astype(float)
            er = adj + adj.T - p
            np.fill_diagonal(er, 0.0)
            cases.append((f"er-{n}-{p}", er))
    for n in (25, 90, 200):
        q = g.integers(-2, 3, (n, n)) / 4
        cases.append((f"quantized-{n}", np.triu(q) + np.triu(q, 1).T))
        cases.append((f"quantized-nonsymmetric-{n}", g.integers(-1, 2, (n, n)) / 3))
        u = g.uniform(-1, 1, (n, n))
        cases.append((f"tiny-{n}", 1e-9 * (np.triu(u) + np.triu(u, 1).T)))
        cases.append((f"tiny-quantized-{n}", 1e-9 * (np.triu(q) + np.triu(q, 1).T)))
        cases.append((f"nonsymmetric-{n}", u))
    cases += [("zero-30", np.zeros((30, 30))), ("zero-1", np.zeros((1, 1)))]
    for i, (name, values) in enumerate(cases):
        if not np.array_equal(values, values.T):
            continue  # outside the heuristic's domain; still drawn, so every case keeps its key
        restarts = (1, 2, 7, 20, 33, 50, 60)[i % 7]
        half = name.startswith("er-") and name.endswith("-0.5")
        yield pytest.param(values, restarts, rng.derive_key(16, i), half,
                           id=f"{name}-r{restarts}")


@pytest.mark.parametrize("values,restarts,key,er_half", list(_tie_cases()))
def test_batched_altmax_matches_the_restart_loop_on_ties(monkeypatch, values, restarts, key,
                                                         er_half):
    fallbacks = []
    half_pass = _kernels._half_pass
    monkeypatch.setattr(_kernels, "_half_pass",
                        lambda m, sel: fallbacks.append(1) or half_pass(m, sel))
    got = _kernels.altmax_best_rows(values, restarts, key)
    if er_half:  # counted before any witness pass can add to it
        assert fallbacks  # ties at p = 1/2 leave some decision to the reference order
    want = _restart_loop_best_rows(values, restarts, key)
    assert got.dtype == bool and got.tolist() == want.tolist()
    assert _result(values, got, False) == _result(values, want, False)


def test_every_reference_pass_of_the_heuristic_reads_the_rows_it_was_given(monkeypatch):
    # a symmetric matrix's columns are its rows, so no pass reads a transposed view
    g = np.random.default_rng(36)
    adj = np.triu(g.uniform(size=(150, 150)) < 0.5, 1).astype(float)
    values = adj + adj.T - 0.5
    np.fill_diagonal(values, 0.0)
    seen = []
    half_pass = _kernels._half_pass
    monkeypatch.setattr(_kernels, "_half_pass",
                        lambda m, sel: seen.append(m) or half_pass(m, sel))
    _kernels.altmax_best_rows(values, 50, rng.derive_key(36, 150))
    assert seen  # the zero sums of ER - 1/2 leave some decision to the reference order
    assert all(m is values and m.flags.c_contiguous for m in seen)


def _compress_half_pass(m, sel):
    """The reference pass as NumPy sums it: the rows of S gathered, then summed."""
    r = np.compress(sel, m, axis=0).sum(axis=0)
    pos = r[r > 0.0].sum()
    neg = -r[r < 0.0].sum()
    return max(pos, neg), (r > 0.0) if pos >= neg else (r < 0.0)


@pytest.mark.parametrize("n", [1, 2, 9, 64, 257])
def test_the_reference_pass_is_numpys_compress_and_sum(n):
    g = np.random.default_rng(n)
    wide = g.standard_normal((n, n)) * 10.0 ** g.uniform(-100, 100, (n, n))
    zeros = g.choice([-0.0, 0.0, 0.5, -0.5], size=(n, n), p=[0.7, 0.1, 0.1, 0.1])
    er = (g.random((n, n)) < 0.5) - 0.5
    for name, m in (("wide", wide), ("signed-zeros", zeros), ("er", er)):
        m = np.triu(m) + np.triu(m, 1).T
        for sel in (np.zeros(n, bool), np.ones(n, bool), g.random(n) < 0.5):
            (got, t), (want, want_t) = _kernels._half_pass(m, sel), _compress_half_pass(m, sel)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), name
            assert t.tolist() == want_t.tolist(), name


@pytest.mark.parametrize("seed, n", [(160, 11), (5384, 15)])
def test_batched_altmax_compares_tied_values_in_the_reference_order(seed, n):
    # two different T reach one value here, and the gemm's rounding of the two
    # would continue a restart that the reference stops
    q = np.random.default_rng(seed).integers(-3, 4, (n, n)) * 0.1 + 0.05
    values = np.triu(q) + np.triu(q, 1).T
    key = rng.derive_key(16, seed)
    got = _kernels.altmax_best_rows(values, 20, key)
    assert got.tolist() == _restart_loop_best_rows(values, 20, key).tolist()


def _theorem_style(n, seed):
    """Signed matrix of the theorem sweep's kind: the square of a sampled minmax
    graph's step graphon minus the square of its expected graphon."""
    cfg = gl.SamplerConfig(n, seed, gl.builtin("minmax"))
    a = gl.canonical_graphon(gl.sample_graph(cfg, gl.sample_latents(cfg)))
    e = gl.expected_graphon(cfg.graphon, n)
    return np.clip(gl.power(a, 2).values - gl.power(e, 2).values, -1.0, 1.0)


_BLAS_RUN = """
import sys
import numpy as np
from graphonlab import _kernels
key = int(sys.argv[1])
np.save(sys.argv[2], np.concatenate(
    [_kernels.altmax_best_rows(np.load(path), 50, key) for path in sys.argv[3:]]))
"""


@pytest.mark.parametrize("env", [{"OPENBLAS_CORETYPE": "Prescott"},
                                 {"OPENBLAS_NUM_THREADS": "2"}],
                         ids=["prescott", "threads-2"])
def test_altmax_rows_do_not_depend_on_blas_kernel_or_threads(tmp_path, env):
    # the generic Prescott kernel rounds gemms differently from the default one
    key = rng.derive_key(2310, 14683)
    paths, want = [], []
    for n, seed in ((64, 1), (150, 2), (300, 3)):
        values = _theorem_style(n, seed)
        paths.append(str(tmp_path / f"m{n}.npy"))
        np.save(paths[-1], values)
        want.append(_kernels.altmax_best_rows(values, 50, key))
    src = str(Path(gl.__file__).resolve().parents[1])
    run_env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    out = tmp_path / "rows.npy"
    subprocess.run([sys.executable, "-c", _BLAS_RUN, str(key), str(out), *paths],
                   check=True, env=run_env)
    assert np.load(out).tolist() == np.concatenate(want).tolist()


@pytest.mark.parametrize("key", [0, 1, rng.MASK64])
def test_words_at_matches_value_at(key):
    # restart counters t * 2^32 + i (t * 2^32 >= 2^64 for the last t), and
    # counters that cross 2^64
    counters = [t * 2**32 + i for t in (0, 1, 2, 11, 2**31, 2**32 - 1, 2**32 + 3)
                for i in range(4)]
    counters += [rng.MASK64 - 2 + i for i in range(6)]
    want = [rng.value_at(key, c) for c in counters]
    got = rng.words_at(key, np.array([c & rng.MASK64 for c in counters], np.uint64))
    assert got.dtype == np.uint64 and got.tolist() == want
    near = np.uint64(rng.MASK64 - 2) + np.arange(6, dtype=np.uint64)
    assert rng.words_at(key, near).tolist() == want[-6:]
