"""Hot numeric kernels, vectorized with NumPy.

Three inner loops dominate the package's runtime: counter-mode generation of
uniform variates, exact cut-norm enumeration over all 2^n row subsets, and the
alternating-maximization cut-norm heuristic.

Subset conventions: a row subset S of an n-block step matrix is encoded as an
integer bitmask (bit i set <=> block i in S, n <= 24 for enumeration). The
kernels return only the best S-mask; callers derive the column subset T and
the achieved value from S with a single exact pass (`norms._value_and_t`),
which keeps reported values consistent with their witnesses.
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


# ---------------------------------------------------------------------------
# SplitMix64 in counter mode (see rng.py for the public contract)
# ---------------------------------------------------------------------------


def value_at_py(key: int, counter: int) -> int:
    """Reference implementation on Python ints; used for key derivation."""
    z = (key + (counter + 1) * GOLDEN) & MASK64
    z ^= z >> 30
    z = (z * MIX1) & MASK64
    z ^= z >> 27
    z = (z * MIX2) & MASK64
    z ^= z >> 31
    return z


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
    """Uniforms in [0,1) at the given counters."""
    return (words_at(key, counters) >> np.uint64(11)).astype(np.float64) * _INV_2_53


# ---------------------------------------------------------------------------
# Exact cut-norm enumeration (best row subset of a step matrix)
# ---------------------------------------------------------------------------
#
# For a fixed S the optimal T is read off the signs of the column sums
# r_j = sum_{i in S} v[i, j]; the subset value is est = max(pos, neg), with
# pos the sum of the positive r_j and neg minus the sum of the negative ones.
# Since pos + neg = sum_j |r_j| and pos - neg = sum_j r_j,
#
#     2 * est = sum_j |r_j| + |sum_j r_j|,
#
# and the last term is |r| of an extra column that holds the row sums.
#
# Meet in the middle (Horowitz & Sahni 1974): split the rows into a low part
# of nlo = max(ceil(n/2), min(n, 12)) bits and a high part, and tabulate the
# subset sums of each part by doubling, one (columns, 2^bits) table each. At
# least 12 low bits keep the inner loops on rows of 4096 contiguous lows,
# where NumPy's per-row overhead stops dominating (twice as fast at n = 20).
# Mask (h << nlo) | a has r = hi[:, h] + lo[:, a], so a chunk of _SCAN_CHUNK
# masks (a few highs times all lows) costs O(n) per mask in two preallocated
# buffers, O(2^n * n) in all. No 2^n-sized array is built, and masks are
# visited in ascending order.
#
# Tie rule: a symmetric matrix ties exactly between (S, T) and (T, S), and
# the split sums round differently from the reference value, so the split
# 2 * est only nominates. Every mask of a chunk within `tol` of the running
# maximum is rescored with `_subset_estimate`, which sums each r_j over the
# rows of S in ascending order: the order of a BLAS product `bits @ values`
# over a full chunk, which a product over a few rows need not keep. The
# first mask with the largest rescored value wins (argmax within a chunk,
# strict `>` across chunks), and a matrix whose values are all zero yields
# no candidates and mask 0. `tol` bounds the rounding of both estimates, so
# the winner is always nominated.

_SCAN_CHUNK = 1 << 15
_MIN_LOW_BITS = 12


def _subset_estimate(values, masks):
    """est = max(pos, neg) of each row mask; r sums the rows of S in ascending order."""
    r = np.zeros((len(masks), values.shape[1]))
    for i, row in enumerate(values):
        r += ((masks >> i) & 1).astype(np.float64)[:, None] * row
    pos = np.where(r > 0.0, r, 0.0).sum(axis=1)
    neg = np.where(r < 0.0, -r, 0.0).sum(axis=1)
    return np.maximum(pos, neg)


def _subset_sums(rows):
    """(columns, 2^k) table whose column a sums the rows at the set bits of a."""
    k, m = rows.shape
    t = np.zeros((m, 1 << k))
    for b in range(k):
        np.add(t[:, : 1 << b], rows[b][:, None], out=t[:, 1 << b : 2 << b])
    return t


def enum_best_mask(values: np.ndarray) -> int:
    """Bitmask of the first row subset S of largest value max(pos, neg)."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    n = values.shape[0]
    nlo = max((n + 1) // 2, min(n, _MIN_LOW_BITS))
    ext = np.column_stack([values, values.sum(axis=1)])
    lo = _subset_sums(ext[:nlo])
    hi = _subset_sums(ext[nlo:])
    nl, nh = lo.shape[1], hi.shape[1]
    hb = max(1, _SCAN_CHUNK // nl)
    acc = np.empty((hb, nl))
    tmp = np.empty((hb, nl))
    tol = 32.0 * (n + 1) * np.finfo(np.float64).eps * float(np.abs(values).sum())
    tiny = np.finfo(np.float64).tiny
    running = 0.0
    best_val = 0.0
    best_mask = 0
    for h0 in range(0, nh, hb):
        h1 = min(h0 + hb, nh)
        a, t = acc[: h1 - h0], tmp[: h1 - h0]
        a.fill(0.0)
        for j in range(len(lo)):
            np.add(hi[j, h0:h1, None], lo[j], out=t)
            np.abs(t, out=t)
            a += t
        top = float(a.max())
        running = max(running, top)
        floor = max(running - tol, tiny)
        if top < floor:
            continue
        cand = np.flatnonzero(a >= floor)
        masks = (h0 << nlo) + cand
        est = _subset_estimate(values, masks)
        i = int(np.argmax(est))
        if est[i] > best_val:
            best_val = float(est[i])
            best_mask = int(masks[i])
    return best_mask


# ---------------------------------------------------------------------------
# Alternating maximization heuristic
# ---------------------------------------------------------------------------
#
# Fix S, pick the sign-optimal T; fix T, pick the sign-optimal S; repeat until
# the value stops improving, or until an improving pass ends on the rows it
# started from: the next pass would recompute the same value and stop with
# the same rows, so it is skipped. Always a valid lower bound. Subsets are boolean
# row vectors (no size cap). Restart 0 starts from the full set, which is
# optimal for nonnegative matrices; restart t draws row i from the parity of
# the generator word at counter t * 2^32 + i (mod 2^64), so every start is a
# pure function of (key, t).
#
# Summation order: r sums the rows of S and c the columns of T, each one
# term at a time in ascending index order. The columns are taken as rows of
# one C-contiguous transpose per call, so both sums are `compress(axis=0)`
# followed by a row-by-row `sum(axis=0)`, with no fancy-index gather and no
# symmetry assumed. `compress(values, axis=1).sum(axis=1)` would reduce along
# contiguous rows, which NumPy sums pairwise: a different rounding that can
# flip a sign and with it the chosen rows.

_RESTART_STRIDE = 1 << 32


def _altmax_from(values, vt, sel_rows):
    n = values.shape[0]
    best = -1.0
    for _ in range(4 * n * n + 8):
        prev = sel_rows
        r = np.compress(sel_rows, values, axis=0).sum(axis=0)
        pos = r[r > 0.0].sum()
        neg = -r[r < 0.0].sum()
        sel_cols = (r > 0.0) if pos >= neg else (r < 0.0)
        c = np.compress(sel_cols, vt, axis=0).sum(axis=0)
        posc = c[c > 0.0].sum()
        negc = -c[c < 0.0].sum()
        val = max(posc, negc)
        sel_rows = (c > 0.0) if posc >= negc else (c < 0.0)
        if val <= best:
            break
        best = val
        if np.array_equal(prev, sel_rows):
            break
    return best, sel_rows


def altmax_best_rows(values: np.ndarray, restarts: int, key: int) -> np.ndarray:
    values = np.ascontiguousarray(values, dtype=np.float64)
    vt = np.ascontiguousarray(values.T)
    key = int(key) & MASK64
    n = values.shape[0]
    counters = np.arange(n, dtype=np.uint64)
    best_val = -1.0
    best_rows = np.zeros(n, dtype=bool)
    for t in range(int(restarts)):
        if t == 0:
            start = np.ones(n, dtype=bool)
        else:
            base = np.uint64((t * _RESTART_STRIDE) & MASK64)
            start = (words_at(key, base + counters) & np.uint64(1)).astype(bool)
        val, rows = _altmax_from(values, vt, start)
        if val > best_val:
            best_val = val
            best_rows = rows
    return best_rows


def warmup() -> None:
    """Run each kernel once on a tiny input so first-call costs land in setup."""
    m = np.array([[0.0, 0.5], [0.5, 0.0]])
    uniforms_at(1, np.arange(4))
    enum_best_mask(m)
    altmax_best_rows(m, 2, 1)
