"""L1 distance and cut norm, the two convergence gauges.

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
scans every pair (low subset, high subset) at O(n) each: O(2^n * n) time in
O(2^(n/2) * n) memory (meet in the middle). The split sums are scanned in
float32 and only nominate masks; those are rescored in float64 by summing
the rows of S in ascending order, and the first best one wins, so the
witness does not depend on the split or on the scan's precision. The
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
    LCM_GRID_CAP, QuadratureSpec, _first_grid, _grid_mean, _row_blocks, discretize, settle,
)
from .core import StepGraphon, as_kernel
from .errors import EnumerationBudgetError, ValidationError

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
    if restarts < 1:
        raise ValidationError("restarts must be >= 1")
    key = rng.derive_key(seed, _TAG_RESTARTS)
    return _result(s.values, _kernels.altmax_best_rows(s.values, restarts, key), exact=False)


def cut_norm_auto(s: StepGraphon, restarts: int = DEFAULT_RESTARTS, seed: int = 0) -> CutNormResult:
    """Exact within the enumeration budget, heuristic beyond it."""
    if restarts < 1:  # refused on both paths, not only where the heuristic runs
        raise ValidationError("restarts must be >= 1")
    if s.n <= ENUMERATION_CAP:
        return cut_norm_exact(s)
    return cut_norm_lower_bound(s, restarts=restarts, seed=seed)


# ---------------------------------------------------------------------------
# L1 distance
# ---------------------------------------------------------------------------


def l1_distance(a, b, q: QuadratureSpec = QuadratureSpec()) -> float:
    """Integral of |a - b|: exact on a common step grid, quadrature otherwise."""
    ka, kb = as_kernel(a), as_kernel(b)
    sa, sb = ka.step, kb.step
    if sa is not None and sb is not None:
        m = math.lcm(sa.n, sb.n)
        if m <= LCM_GRID_CAP:
            av = sa.refine(m // sa.n).values
            bv = sb.refine(m // sb.n).values
            return float(np.abs(av - bv).mean())

    def abs_diff(g: int, rows: int):
        pairs = zip(_row_blocks(ka, g, rows), _row_blocks(kb, g, rows))
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
    if restarts < 1:  # refused before any grid is built
        raise ValidationError("restarts must be >= 1")
    d = discretize(a, m, q)
    cut = cut_norm_auto(d, restarts=restarts, seed=seed)
    gap = l1_distance(a, d, q)  # exactly 0.0 for a step whose n divides m
    return CutNormInterval(
        low=cut.value - gap, high=cut.value + gap, l1_gap=gap, m=m, discretized=cut
    )
