"""L1 distance and cut norm, the two convergence gauges.

L1 distance of step grids, exactly
----------------------------------
This module owns every exact L1 sum of step grids: `_mean_abs_diff` is the mean
of |L - V| over a g x g grid L, with V an n x n step matrix spread over it. It
sums leaves of 2^16 entries in NumPy's pairwise order, so the result has the bytes
of np.abs(L - V).mean() with no g x g temporary. `l1_distance` of two steps calls
it with the finer step spread to their lcm grid, and the theorem sweep calls it
with each grid level of an analytic limit power.

Cut norm of a step function, exactly
-----------------------------------
The cut norm takes a supremum of |integral over U x V| over *measurable*
subsets U, V of [0,1]. For an n-block step function the integrand is constant
on blocks, so the integral only depends on the fraction of each block covered
by U and V: the problem becomes maximizing |s^T M t| / n^2 over s, t in
[0,1]^n with M the block-value matrix. That objective is bilinear, hence its
maximum over the product of cubes is attained at a vertex (fix t: the
objective is linear in s, so push each s_i to 0 or 1; then symmetrically for
t). Vertices are unions of whole blocks, which makes the following finite
search exact: for every row subset S, the optimal column subset is read off
the signs of the column sums r_j = sum_{i in S} M_ij, giving
max(sum of positive r_j, -sum of negative r_j) / n^2.

Twice that maximum is sum_j |r_j| + |sum_j r_j|, and r for S is the sum of
the r of its low rows and of its high rows. Enumeration over S therefore
splits the rows in two, tabulates the subset column sums of each part, and
scans pairs (low subset, high subset) at O(n) each in O(2^(n/2) * n) memory
(meet in the middle). A pair scores at most the sum of its two halves'
|column sums|, so pairs whose bound cannot reach the best score so far are
skipped: at worst all 2^n pairs, O(2^n * n) time, but about a tenth of them
on ER draws at n = 20. The split sums are scanned in float32 and only
nominate masks; those are rescored in float64 by summing the rows of S in
ascending order, and the smallest best one wins, so the witness does not
depend on the split, the visiting order or the scan's precision. The
search is capped at n = 24; larger inputs must use the seeded
alternating-maximization heuristic, which returns a certified lower bound
(its witness is a feasible pair). For kernels that are not step functions
no exact algorithm is available; use
:func:`cut_distance_upper_via_discretization`, which brackets the value using
the fact that the cut norm is 1-Lipschitz with respect to the L1 norm
(||W||_cut <= ||W||_1 applied to W minus its discretization).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from . import _kernels, rng
# bound at import, so a patched `_kernels._half_pass` counts only the kernels' own passes
from ._kernels import _half_pass
from .algebra import (
    LCM_GRID_CAP, QuadratureSpec, _first_grid, _grid_mean, _row_blocks, discretize, midpoints,
    settle,
)
from .core import StepGraphon, _check_count, as_kernel, spread
from .errors import EnumerationBudgetError

ENUMERATION_CAP = 24
DEFAULT_RESTARTS = 50  # of the heuristic, on every path that does not set a count
_TAG_RESTARTS = 3


@dataclass(frozen=True)
class CutNormResult:
    """Cut-norm value with the block-subset witness (S, T) attaining it."""

    value: float
    n: int
    witness_s: tuple
    witness_t: tuple
    exact: bool

    def witness_value(self, values: np.ndarray) -> float:
        """Re-evaluate |sum over S x T| / n^2 from the witness: the independent reference
        that tests compare `value` against."""
        if not self.witness_s or not self.witness_t:
            return 0.0
        sub = values[np.ix_(self.witness_s, self.witness_t)]
        return abs(float(sub.sum())) / values.shape[0] ** 2


def _result(values: np.ndarray, sel: np.ndarray, exact: bool) -> CutNormResult:
    """The result for row subset S = sel (boolean): the sign-optimal T and its
    value from one reference pass, so every value matches its witness."""
    n = values.shape[0]
    value, t = _half_pass(values, sel)
    return CutNormResult(value=float(value) / (n * n), n=n,
                         witness_s=tuple(np.flatnonzero(sel).tolist()),
                         witness_t=tuple(np.flatnonzero(t).tolist()), exact=exact)


def cut_norm_exact(s: StepGraphon) -> CutNormResult:
    """Exact cut norm by subset enumeration (n <= 24)."""
    if s.n > ENUMERATION_CAP:
        raise EnumerationBudgetError(
            f"exact enumeration capped at n={ENUMERATION_CAP}, got n={s.n}; "
            "use cut_norm_lower_bound"
        )
    mask = _kernels.enum_best_mask(s.values)
    return _result(s.values, (mask >> np.arange(s.n)) & 1 == 1, exact=True)


def cut_norm_lower_bound(s: StepGraphon, restarts: int = DEFAULT_RESTARTS, seed: int = 0) -> CutNormResult:
    """Alternating maximization from seeded restarts; always <= the true value."""
    _check_count(restarts, "restarts", 1)
    key = rng.derive_key(seed, _TAG_RESTARTS)
    return _result(s.values, _kernels.altmax_best_rows(s.values, restarts, key), exact=False)


def cut_norm_auto(s: StepGraphon, restarts: int = DEFAULT_RESTARTS, seed: int = 0) -> CutNormResult:
    """Exact within the enumeration budget, heuristic beyond it."""
    _check_count(restarts, "restarts", 1)  # refused on both paths, not only the heuristic's
    if s.n <= ENUMERATION_CAP:
        return cut_norm_exact(s)
    return cut_norm_lower_bound(s, restarts=restarts, seed=seed)


# ---------------------------------------------------------------------------
# L1 distance
# ---------------------------------------------------------------------------


_PAIRWISE_LEAF = 1 << 16  # entries per np.sum in _pairwise_sum: 512 KiB of float64


def _pairwise_sum(entries, lo: int, hi: int) -> float:
    """np.sum of flat entries lo..hi-1 that ``entries(lo, hi)`` builds a leaf at a time, to
    NumPy's bytes: its add-reduce halves n entries at n//2 - (n//2) % 8, so any node of
    that tree sums its entries to the same bits with one np.sum. Summing leaves of at most
    _PAIRWISE_LEAF entries with np.sum and adding the halves back up the tree is the whole
    array's sum."""
    n = hi - lo
    if n <= _PAIRWISE_LEAF:
        return float(np.sum(entries(lo, hi)))
    half = n // 2 - (n // 2) % 8
    return _pairwise_sum(entries, lo, lo + half) + _pairwise_sum(entries, lo + half, hi)


def _mean_abs_diff(lim: np.ndarray, v: np.ndarray) -> float:
    """Mean of |lim - V| over a g x g grid, V the n x n step matrix v spread over s x s
    blocks (s = g // n): np.abs(lim - V).mean() to its bytes, with no g x g temporary.
    At s = 1 a leaf subtracts v's rows themselves. Otherwise it spreads its cell rows of v
    along x once and takes each grid row of V from them, so the subtraction runs over whole
    rows of g entries, not over s entries at a time."""
    g, n = lim.shape[0], v.shape[0]
    s = g // n

    def entries(lo: int, hi: int) -> np.ndarray:  # the grid rows that hold lo..hi-1
        r0, r1 = lo // g, -(-hi // g)
        if s == 1:
            diff = np.subtract(lim[r0:r1], v[r0:r1])
        else:
            band = np.repeat(v[r0 // s : (r1 - 1) // s + 1], s, axis=1)  # its cell rows of V
            diff = band[np.arange(r0, r1) // s - r0 // s]  # its grid rows of V
            np.subtract(lim[r0:r1], diff, out=diff)
        return np.abs(diff, out=diff).reshape(-1)[lo - r0 * g : hi - r0 * g]

    return _pairwise_sum(entries, 0, g * g) / (g * g)


def l1_distance(a, b, q: QuadratureSpec = QuadratureSpec()) -> float:
    """Integral of |a - b|: exact on a common step grid, quadrature otherwise.

    Two steps whose lcm grid m is within LCM_GRID_CAP are compared exactly by
    `_mean_abs_diff`: the finer step spread to m against the coarser one's own values,
    the bytes of np.abs(A - B).mean() on the m-grid in either order (|a - b| and |b - a|
    are the same bits). No m x m difference is built, and when one n divides the other no
    m x m array at all."""
    ka, kb = as_kernel(a), as_kernel(b)
    sa, sb = ka.step, kb.step
    if sa is not None and sb is not None:
        m = math.lcm(sa.n, sb.n)
        if m <= LCM_GRID_CAP:
            fine, coarse = (sa, sb) if sa.n >= sb.n else (sb, sa)
            return _mean_abs_diff(spread(fine.values, m // fine.n), coarse.values)

    def abs_diff(g: int, rows: int):
        xs = midpoints(g)
        pairs = zip(_row_blocks(ka, xs, g, rows), _row_blocks(kb, xs, g, rows))
        return (np.abs(x - y) for x, y in pairs)

    g0 = _first_grid(q, 1, ka, kb)
    return settle(q, g0, lambda g: _grid_mean(abs_diff, g), "integral").value


@dataclass(frozen=True)
class CutNormInterval:
    """Bracket [low, high] for the cut norm of a general kernel."""

    low: float
    high: float
    l1_gap: float
    m: int
    discretized: CutNormResult


def cut_distance_upper_via_discretization(
    a,
    m: int,
    q: QuadratureSpec = QuadratureSpec(),
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
) -> CutNormInterval:
    """Bracket the cut norm of `a` through its m-block discretization.

    Valid because discretization moves the cut norm by at most the L1
    distance between the kernel and its cell-average step function.
    """
    _check_count(restarts, "restarts", 1)  # refused before any grid is built
    d = discretize(a, m, q)
    cut = cut_norm_auto(d, restarts=restarts, seed=seed)
    gap = l1_distance(a, d, q)  # exactly 0.0 for a step whose n divides m
    return CutNormInterval(
        low=cut.value - gap, high=cut.value + gap, l1_gap=gap, m=m, discretized=cut
    )
