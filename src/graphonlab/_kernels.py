"""The two cut-norm searches, vectorized with NumPy: exact enumeration over
all 2^n row subsets and the alternating-maximization heuristic. The random
starts of the heuristic come from the generator in `rng`.

Subset conventions: the kernels return only the best row subset S of an
n-block step matrix. `enum_best_mask` encodes it as an integer bitmask (bit i
set <=> block i in S, n <= 24), and `altmax_best_rows` as a boolean row
vector. Callers derive the column subset T and the achieved value from S with
one reference pass (`_half_pass`, through `norms._result`), which keeps
reported values consistent with their witnesses.
"""

from __future__ import annotations

import numpy as np

from .rng import uniforms_at, words_at

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
# Mask (h << nlo) | a has r = hi[:, h] + lo[:, a], so `_scan_pairs` scores a
# chunk of at most _SCAN_CHUNK pairs (a few highs times a run of lows) at O(n)
# per pair in two preallocated buffers. No 2^n-sized array is built.
#
# Triangle bound: the scan value sum_j |hi_j(h) + lo_j(a)| of a pair (the
# row-sum column included) is at most bh[h] + bl[a], with bh[h] = sum_j
# |hi_j(h)| and bl[a] = sum_j |lo_j(a)|. The highs are visited in descending
# bh. The first chunk is as many highs as fit against all the lows, so n <= 16
# (at most 16 highs) is one chunk, scanned in full. If highs remain, the lows
# are sorted once by descending bl, in place, and high h needs only the
# prefix of lows with bh[h] + bl[a] >= running - 2 * tol, running being the
# largest scan value so far. The next chunk takes the following highs whose
# prefix is at least half as long as the first one's, as many as fit, against
# the first one's prefix: it scans at most twice the pairs that the bound
# keeps. The scan stops when the next high's prefix is empty, since every
# later high has a smaller bh. At worst, when the bound prunes nothing, this
# is the full scan plus one sort of the 2^nlo lows. Over 200 ER - 1/2 draws
# at n = 20 it scans 9 % of the 2^20 pairs on average (median 6.5 %, at most
# 37 %; the first chunk alone is 6.25 %).
#
# The scan only nominates, in float32: half the bytes of float64, so twice
# the entries per pass through the same 256 KiB chunk. The float64 tables
# are first multiplied by 2^-e, with e the exponent of their largest entry,
# so that every |entry| < 1. A power of two scales exactly, and the scaled
# sums sit in the middle of float32's range whatever the input's magnitude:
# a plain cast would flush a 2^-160 matrix to zeros and overflow a 2^130 one.
# With V the sum of |scaled values|, the columns' |hi| + |lo| add up to at
# most 2V (the row-sum column adds at most V), and with u = eps32 / 2 the scan's
# sum for a mask is within (n + 3) * u * 2V of twice its exact estimate: u
# for each cast, u for the add and (n + 1) * u for accumulating n + 1
# terms. The float64 tables add far less, and so do entries below float32's
# normal range (at most 2^-150 each, while V >= 1/2: a table entry reaches
# 1/2). Two masks' scan sums therefore compare wrongly only within
# 2 * (n + 3) * eps32 * V, and tol = 32 * (n + 1) * eps32 * V covers that
# with room to spare, also for rounding the floor to float32.
#
# The bounds are summed in float64 from the float32 tables that the scan
# adds, so for those tables the triangle inequality holds exactly, and a
# pair's scan value exceeds its bh + bl by the scan's own rounding alone:
# (n + 1) * u for the add and the accumulation, times bh + bl <= 2V (1 + u),
# so less than (n + 2) * eps32 * V. The float64 sums of bh, bl and of the
# prefix threshold round at 2^-53, and float32's subnormal range adds at most
# 2^-150 an operation; both are far below the rest of tol. So a pruned pair,
# bh + bl < running - 2 * tol, scans below running - tol, the nomination
# floor: it could not have been nominated. And a mask of the largest
# rescored value scans within tol of every scan value, so at least
# running - tol, and its bound is at least running - 2 * tol: it is never
# pruned.
#
# Tie rule: a symmetric matrix ties exactly between (S, T) and (T, S), and
# the scan's sums round differently from the reference value, so the scan
# only nominates. Every pair of a chunk within `tol` of the running maximum
# (and above float32's tiny, so a chunk of zero sums nominates nothing) is
# rescored with `_subset_estimate`, in float64 on the unscaled values, which
# sums each r_j over the rows of S in ascending order: the order of a BLAS
# product `bits @ values` over a full chunk, which a product over a few rows
# need not keep. The winner is the smallest mask among those of the largest
# rescored value. The rule is explicit because masks are visited out of
# order; the ascending scan that this one replaced returned the same mask by
# its order (argmax within a chunk, strict `>` across chunks). That mask does
# not depend on which other masks are nominated with it, and every mask of
# the largest rescored value is scanned and nominated, so the witnesses of
# `cut_norm_exact`, and the report bytes built on them, do not move. A matrix
# whose values are all zero returns mask 0 before any scaling.
#
# Rescoring a block of masks is one product and one reduction: the masks' 0/1
# bits times the rows, a C-ordered (rows, masks, columns) array, reduced along
# its first axis by `np.add.reduce`. The reduction's inner loop runs across
# the contiguous (masks, columns) plane and adds the rows of S to each r_j one
# row at a time, in ascending order. NumPy sums pairwise, in an order of its
# own, only along an axis that its inner loop reduces, so the order is that of
# a row-at-a-time sum from zeros (the tests' reference): the reduction starts
# at its first row instead, which can only turn a zero r_j into -0.0, and a
# zero r_j counts in neither pos nor neg, so each estimate keeps its bits. A
# block holds _RESCORE_BLOCK masks, at most 1.2 MiB of products at n = 24.

_SCAN_CHUNK = 1 << 16
_RESCORE_BLOCK = 1 << 8
_MIN_LOW_BITS = 12
_EPS32 = float(np.finfo(np.float32).eps)
_TINY32 = float(np.finfo(np.float32).tiny)


def _subset_estimate(values, masks):
    """est = max(pos, neg) of each row mask; r sums the rows of S in ascending order, one
    reduction per block of masks. Masks go _RESCORE_BLOCK at a time, so a chunk that
    nominates all its pairs holds no (n, pairs, n) array."""
    est = np.empty(len(masks))
    shifts = np.arange(values.shape[0])
    for b in range(0, len(masks), _RESCORE_BLOCK):
        bits = ((masks[b:b + _RESCORE_BLOCK] >> shifts[:, None]) & 1).astype(np.float64)
        r = np.add.reduce(bits[:, :, None] * values[:, None, :], axis=0)  # row by row
        pos = np.where(r > 0.0, r, 0.0).sum(axis=1)
        neg = np.where(r < 0.0, -r, 0.0).sum(axis=1)
        est[b:b + len(r)] = np.maximum(pos, neg)
    return est


def _subset_sums(rows):
    """(columns, 2^k) table whose column a sums the rows at the set bits of a."""
    k, m = rows.shape
    t = np.zeros((m, 1 << k))
    for b in range(k):
        np.add(t[:, : 1 << b], rows[b][:, None], out=t[:, 1 << b : 2 << b])
    return t


def _scan_pairs(hi, lo, acc, tmp):
    """acc[h, a] = sum_j |hi[j, h] + lo[j, a]|, added over the rows j in order."""
    np.add(hi[0, :, None], lo[0], out=acc)
    np.abs(acc, out=acc)
    for j in range(1, len(lo)):
        np.add(hi[j, :, None], lo[j], out=tmp)
        np.abs(tmp, out=tmp)
        acc += tmp
    return acc


def enum_best_mask(values: np.ndarray) -> int:
    """The smallest bitmask among the row subsets S of largest value max(pos, neg)."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    if not values.any():
        return 0
    n = values.shape[0]
    nlo = max((n + 1) // 2, min(n, _MIN_LOW_BITS))
    ext = np.column_stack([values, values.sum(axis=1)])
    lo = _subset_sums(ext[:nlo])
    hi = _subset_sums(ext[nlo:])
    e = int(np.frexp(max(lo.max(), -lo.min(), hi.max(), -hi.min()))[1])
    lo = np.ldexp(lo, -e, out=lo).astype(np.float32)  # |entries| < 1, exactly scaled
    hi = np.ldexp(hi, -e, out=hi).astype(np.float32)
    bh = np.abs(hi).sum(axis=0, dtype=np.float64)
    hord = np.argsort(-bh, kind="stable")  # the highs by descending bound
    hi, bh = hi[:, hord], bh[hord]
    nl, nh = lo.shape[1], hi.shape[1]
    size = max(1, _SCAN_CHUNK // nl) * nl
    acc = np.empty(size, dtype=np.float32)
    tmp = np.empty(size, dtype=np.float32)
    tol = 32.0 * (n + 1) * _EPS32 * float(np.abs(np.ldexp(values, -e)).sum())
    lord = None  # the lows by descending bound, once a second chunk needs them
    running = best_val = 0.0
    best_mask = h0 = 0
    k, width = min(size // nl, nh), nl
    while True:
        a = _scan_pairs(hi[:, h0:h0 + k], lo[:, :width],
                        acc[:k * width].reshape(k, width), tmp[:k * width].reshape(k, width))
        top = float(a.max())
        running = max(running, top)
        floor = np.float32(max(running - tol, _TINY32))
        if top >= floor:
            r, c = np.divmod(np.flatnonzero(a >= floor), width)
            masks = (hord[h0 + r] << nlo) | (c if lord is None else lord[c])
            est = _subset_estimate(values, masks)
            val = float(est.max())
            mask = int(masks[est == val].min())
            if val > best_val or (val == best_val and mask < best_mask):
                best_val, best_mask = val, mask
        h0 += k
        if h0 == nh:
            return best_mask
        if lord is None:
            bl = np.zeros(nl)
            for row in lo:
                bl += np.abs(row)
            lord = np.argsort(-bl, kind="stable")
            for row in lo:
                row[:] = row[lord]
            neg_bl = -bl[lord]  # ascending
        # high h's prefix: the lows with bh[h] + bl[a] >= thr; a pair below thr cannot
        # be nominated
        thr = running - 2.0 * tol
        width = int(np.searchsorted(neg_bl, bh[h0] - thr, side="right"))
        if not width:
            return best_mask
        # the next highs whose prefix is at least half of this one's, as many as fit
        widths = np.searchsorted(neg_bl, bh[h0:h0 + size // width] - thr, side="right")
        k = int(np.count_nonzero(2 * widths >= width))


# ---------------------------------------------------------------------------
# Alternating maximization heuristic
# ---------------------------------------------------------------------------
#
# Fix S, pick the sign-optimal T; fix T, pick the sign-optimal S; repeat until
# the value stops improving, or until an improving pass ends on the rows it
# started from (Alon & Naor 2006). Always a valid lower bound. Subsets are
# boolean row vectors (no size cap). Restart 0 starts from the full set, which
# is optimal for nonnegative matrices; restart t draws row i from the parity
# of the generator word at counter t * 2^32 + i (mod 2^64), so every start is
# a pure function of (key, t). A restart stops after 4n^2 + 8 passes at most.
#
# Reference order (`_half_pass`): r sums the rows of S and c the rows of T, each
# one row at a time in ascending index order from 0.0, the order of NumPy's
# `compress(axis=0)` then `sum(axis=0)`: the first selected row plus 0.0 (which
# turns a -0.0 into 0.0, as NumPy's start from 0.0 does), then `r += m[i]` for
# each later row, read from the matrix itself. No |S| x n copy is made: in the
# constant-limit sweep at n = 4096, gathering those copies took 35 of its 55 s.
# The matrix must be symmetric, as the one caller's are (the
# `StepGraphon` values of `norms.cut_norm_lower_bound`), so the rows of T are its
# columns. pos and neg are NumPy's sums of the positive and negative entries. A
# restart returns the rows of its last pass and the value of its last improving
# pass; the first restart of largest value wins.
#
# Batch: the live restarts are the rows of one 0/1 matrix, so a half pass is
# one gemm, `S @ values` and then `T @ values`, with signs taken per row.
# The gemm sums in an order of its own, which varies with the BLAS kernel and
# thread count, so, as in `enum_best_mask`, it only nominates. Two sums of
# the same terms in any two orders differ by less than (n + 2) * eps times
# the sum of their magnitudes. With K = 2 * (n + 2) * eps, a decision is
# certain when its gemm margin exceeds its bound:
#
#   * the sign of r_j: |r_j| > K * sum_i |v_ij| (a bound of 0 means the two
#     sums agree bit for bit); it bounds c_i too, whose terms lie in row i, and
#     row i's sum of |v| is column i's up to rounding, far inside K's slack;
#   * pos >= neg, and a pass's value against the restart's best: a gap over
#     2K * sum |v| for each term that is a gemm estimate.
#
# A restart whose decision is not certain redoes that half pass, or the two
# values it compares, in the reference order. Two rules need no value: a
# pass that picks the T of the pass before would recompute the same value,
# so it stops on its rows; and restarts whose values may tie for the top are
# ranked by reference values, one per distinct T (equal T, equal value).
# Every S and T, and so the returned rows, is then the reference's, bit for
# bit on every BLAS kernel and thread count: reported cut norms, their
# witnesses and the report bytes built on them do not move. The theorem
# sweep's signed matrices almost never take the fallback; ER - p matrices,
# whose column sums are often exactly 0, redo about a third of their half
# passes (n = 25..200, p = 0.1..0.7). The batch holds restarts x n arrays
# and no n x n temporary.

_RESTART_STRIDE = 1 << 32


def _half_pass(m, sel):
    """max(pos, neg) and the sign-optimal subset of the sum of m's rows at sel,
    summed one row at a time in ascending order (the reference order)."""
    rows = np.flatnonzero(sel)
    if rows.size:
        r = m[rows[0]] + 0.0  # NumPy's sum starts from 0.0, which turns -0.0 into 0.0
        for i in rows[1:]:
            r += m[i]
    else:
        r = np.zeros(m.shape[1])
    pos = r[r > 0.0].sum()
    neg = -r[r < 0.0].sum()
    return max(pos, neg), (r > 0.0) if pos >= neg else (r < 0.0)


def _batch_half_pass(sel, m, bound, tol):
    """`_half_pass` for every row of sel by one gemm, with a flag per row that
    says whether all of its decisions are certain."""
    g = sel.astype(np.float64) @ m
    pos = np.where(g > 0.0, g, 0.0).sum(axis=1)
    neg = np.where(g < 0.0, -g, 0.0).sum(axis=1)
    d = pos - neg
    sure = ((np.abs(g) > bound) | (bound == 0.0)).all(axis=1)
    sure &= (np.abs(d) > tol) | (tol == 0.0)
    return np.maximum(pos, neg), np.where((d >= 0.0)[:, None], g > 0.0, g < 0.0), sure


def altmax_best_rows(values: np.ndarray, restarts: int, key: int) -> np.ndarray:
    """Row subset S (boolean) of the first restart of largest value; restarts >= 1.
    ``values`` must be symmetric, as a `StepGraphon`'s are: each half pass reads its rows."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    n = values.shape[0]
    base = np.arange(restarts, dtype=np.uint64)[:, None] * np.uint64(_RESTART_STRIDE)
    words = words_at(int(key), base + np.arange(n, dtype=np.uint64))
    rows = (words & np.uint64(1)).astype(bool)  # S of each restart
    rows[0] = True
    cols = np.zeros_like(rows)  # T of each restart's last improving pass
    best = np.full(restarts, -np.inf)
    best_tol = np.zeros(restarts)  # 0 where best is a reference value
    col_abs = np.zeros(n)
    for i in range(0, n, 256):  # row blocks: no n x n temporary
        col_abs += np.abs(values[i:i + 256]).sum(axis=0)
    k = 2.0 * (n + 2) * np.finfo(np.float64).eps
    bound, tol = k * col_abs, 2.0 * k * float(col_abs.sum())
    live = np.arange(restarts)
    for p in range(4 * n * n + 8):
        if not live.size:
            break
        s = rows[live]
        _, sel, sure = _batch_half_pass(s, values, bound, tol)
        for a in np.flatnonzero(~sure):
            sel[a] = _half_pass(values, s[a])[1]
        go = ~(sel == cols[live]).all(axis=1) if p else np.ones(live.size, dtype=bool)
        live, s, sel = live[go], s[go], sel[go]
        val, s_new, sure = _batch_half_pass(sel, values, bound, tol)
        val_tol = np.where(sure, tol, 0.0)
        for a in np.flatnonzero(~sure):
            val[a], s_new[a] = _half_pass(values, sel[a])
        gap = val_tol + best_tol[live]
        for a in np.flatnonzero((np.abs(val - best[live]) <= gap) & (gap > 0.0)):
            if val_tol[a]:
                val[a], val_tol[a] = _half_pass(values, sel[a])[0], 0.0
            if best_tol[live[a]]:
                best[live[a]], best_tol[live[a]] = _half_pass(values, cols[live[a]])[0], 0.0
        up = val > best[live]
        rows[live] = s_new
        best[live[up]], best_tol[live[up]], cols[live[up]] = val[up], val_tol[up], sel[up]
        live = live[up & ~(s_new == s).all(axis=1)]
    top = np.flatnonzero(best + best_tol >= np.max(best - best_tol))
    win = top[0]
    if (cols[top] != cols[win]).any():  # values of different T may tie
        exact = {}  # one reference value per distinct T
        for a in top:
            t = cols[a].tobytes()
            if t not in exact:
                exact[t] = _half_pass(values, cols[a])[0]
        win = top[np.argmax([exact[cols[a].tobytes()] for a in top])]
    return rows[win].copy()


def warmup() -> None:
    """Run each kernel once on a tiny input so first-call costs land in setup."""
    m = np.array([[0.0, 0.5], [0.5, 0.0]])
    uniforms_at(1, np.arange(4))
    enum_best_mask(m)
    path = np.eye(4, k=1) + np.eye(4, k=-1)  # the path 0-1-2-3, as ER - 1/2 with zero diagonal
    altmax_best_rows(path - 0.5 * (1.0 - np.eye(4)), 3, 1)  # its zero sums take the fallback
