"""Kernel products, powers, discretization, and the shared quadrature engine.

Integrals use the midpoint rule on uniform grids, refined by grid doubling
until two successive estimates agree within tolerance. Midpoint Riemann sums
are deterministic, handle bounded discontinuous step mixtures, and are exact
for step functions whenever the grid is aligned with the step grain, which is
why grids are always rounded up to a multiple of the relevant block counts.
That one doubling rule is `settle`, used by `integrate2d`, `cell_means`, lazy
products and the sweep's limit distance: matrix estimates agree when no entry
moves by more than the tolerance (read in row blocks, with no difference as large as the
estimate), and after QuadratureSpec.max_refinements doublings QuadratureError names the
quantity that did not settle. Integrals, L1 distances, cell averages and the sampler's
edge draw (the columns from each block's diagonal on) read kernels through one evaluator,
`_row_blocks`, a few rows at a time; a lazy product is evaluated whole, once per grid level
or point read, and sliced. Every row-block pass but the integrals' (whose 512-row blocks fix
their bytes) takes as many rows as fit in one budget, `core.block_rows`: 256 KiB a block,
16 rows at g = 2048, so that its few temporaries stay in L2 at once.
`_first_grid` is the one grid-alignment rule: every quadrature, a lazy product's
z-integral at a point read included, starts on its grid. Cell averages over s x s grid blocks
(`_row_means`) have the bytes of NumPy's ``reshape(...).mean(axis=(1, 3))``;
for s < 16 and at least two cells a row they are whole-row strided adds in
the order NumPy's reduction adds, which runs its inner loop over one cell side
(s entries) and so spends its time on loop overhead: sequential below s = 8, and from
s = 8 NumPy's pairwise sum, 8 lanes combined pairwise and then the tail in order (lane
sums). One cell a row (NumPy merges the axes into one pairwise sum) and s >= 16 (an
inner loop long enough to beat strided adds) keep NumPy's mean.

Products of analytic kernels are kept lazy: (a (.) b)(x, y) is evaluated by
midpoint quadrature in z on demand, and grid evaluation contracts the factor
matrices with a matrix product, so no grid is committed before the final norm
computation chooses one; evaluated without a z-grid (gz == 0), a lazy product
settles its z-integral under the QuadratureSpec it was built with. A product or
power of steps is the exact matrix formula (1/n) A B on the common (lcm) grid: a
StepGraphon when symmetric, or else a ProductGraphon holding the asymmetric matrix.
Every kernel matrix product is `_matmul`, whose bytes do not depend on the thread count
(it pads an unaligned row count on both of its routes), and every square of a bitwise
symmetric matrix is `_square_in_place`: a step power's squarings and a step times itself
square a copy of their operand (step values are symmetric by construction, and so is each
square), and a lazy product's square on its own z-grid (W (.) W, the sweep's limit)
squares its factor grid F, filled a row block at a time. It squares 512 rows of the upper part
at a time, a syrk for the diagonal block and a gemm to its right into one panel buffer,
then mirrors the lower triangle: syrk's flops, and the bytes of `_matmul(F, F)`, since on
the plain route syrk's triangle equals the gemm's and that gemm of an exactly symmetric F
is exactly symmetric (the tests check four BLAS kernels at 1 and 2 threads). It holds F
and the buffer, 1.25 grids at g = 2048. It takes the square's divisor (g for W (.) W,
n^(k-1) for the last square of a step power whose k is a power of two, m for a step times
itself) and divides each panel as it copies it out, so no pass of its own scales the
result; and a square, mirrored, is bitwise symmetric, so none is symmetrized or tested.
Only the lazy square tests F: an F that is not
bitwise symmetric (a kernel whose two argument orders round apart) keeps the gemm
`_matmul(F, F)`, whose F F differs from F F.T in its last bits. A power of a step whose
values are all 0.0 or 1.0 (a sampled graph's adjacency) is computed in float32 while
n^(k-1) < 2^24 (`_exact_in_float32`) and then divided into float64: every partial sum is
an integer below 2^24, so the power has the float64 bytes in any summation order, on any
BLAS kernel and thread count, at half the bytes and about twice syrk's speed; the route
is chosen by testing the values (`_is_zero_one`), never by the caller. A clip runs only
when an entry lies outside its range or on a zero bound. Every symmetrization is
`core.sym_mean` in place, on a matrix its caller owns: an input that is already bitwise
symmetric is left as it is; the transposed passes (`core.is_symmetric`,
`core.sym_mean`, `core.asymmetry`) read a matrix in cache-sized tiles.
The kernel protocol is two attributes: `eval_grid(xs, ys, gz)` and `step`, the exact
StepGraphon or None. `grain_of` reads `step`, or the lcm of a ProductGraphon's factors'
grains, exact or lazy, and `core.evaluate` is the one point read. `validate_graphon` is the
one rule for being a graphon (symmetric, finite, in [0, 1]); every command and the theorem
sweep that needs a graphon calls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    RANGE_TOL, StepGraphon, _check_count, _trusted, as_kernel, asymmetry, block_rows,
    cell_index, is_symmetric, spread, sym_mean, tile_pairs,
)
from .errors import QuadratureError, ValidationError

LCM_GRID_CAP = 4096
SYMMETRY_TOL = 1e-12
# A lazy power nests k - 1 products, and evaluating it (eval_grid) or finding its grain
# (grain_of) recurses once per product. Under Python's default recursion limit of 1000,
# `power --graphon-builtin minmax --discretize 4` ran up to k = 981 and a theorem sweep up
# to k = 985; with one wrapper frame around each eval_grid (as a tracer installs) power ran
# up to k = 492. The bound keeps 92 products of margin under such a wrapper.
MAX_LAZY_POWER = 400
# rows of the panel buffer in which `_square_in_place` computes a self-product's upper part:
# a multiple of the 64 rows to which `_matmul` aligns, so no panel pads but the last, and of
# core._TILE, so every diagonal tile of the mirror lies in a panel's diagonal block
_PANEL_ROWS = 512
_ONE_BITS = np.float64(1.0).view(np.uint64)


@dataclass(frozen=True)
class QuadratureSpec:
    """Grid resolution and refinement policy for all integrals."""

    base_grid: int = 256
    max_refinements: int = 4
    tol: float = 1e-4

    def __post_init__(self):
        _check_count(self.base_grid, "base_grid", 2)  # grids shift and count refinements
        _check_count(self.max_refinements, "max_refinements", 0)
        if not (0.0 < self.tol < math.inf):  # NaN fails every comparison
            raise ValidationError(f"tol must be a positive finite number, got {self.tol}")


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error: float
    grid: int
    refinements: int


def settle(q: QuadratureSpec, g0: int, estimate, what: str, tol: Optional[float] = None):
    """The first ``estimate(g)``, g = g0 << r for r = 0..q.max_refinements, whose
    largest entry moved by at most ``tol`` (q.tol by default) from the previous one."""
    tol = q.tol if tol is None else tol
    prev = cur = None
    for r in range(q.max_refinements + 1):
        g = g0 << r
        prev, cur = cur, estimate(g)
        if prev is not None:
            change = _largest_change(cur, prev)
            if change <= tol:
                return QuadratureResult(cur, change, g, r)
    raise QuadratureError(
        f"{what} did not settle within tol={tol} at grid {g}", last_estimates=(prev, cur)
    )


def _largest_change(cur, prev) -> float:
    """max |cur - prev| of two scalar or matrix estimates, a matrix `core.block_rows` rows
    at a time: no estimate-sized difference. The max does not depend on the order, and a
    NaN anywhere makes it NaN."""
    if np.ndim(cur) == 0:
        return abs(float(cur - prev))
    gaps = []
    rows = block_rows(cur.shape[1])
    for lo in range(0, len(cur), rows):
        d = cur[lo : lo + rows] - prev[lo : lo + rows]
        gaps.append(np.abs(d, out=d).max(initial=0.0))
    return float(np.max(gaps, initial=0.0))


def midpoints(g: int) -> np.ndarray:
    return (np.arange(g) + 0.5) / g


def ceil_to_multiple(value: int, factor: int) -> int:
    factor = max(1, factor)
    return ((max(1, value) + factor - 1) // factor) * factor


def grain_of(kernel) -> int:
    """Step block count whose multiples sample the kernel exactly (0 if none): the side of
    its step or, for a product, the lcm of its factors' grains (0 when either has none),
    since a product of steps is exact on any grid aligned to both. An exact product's
    factors are its two steps, and their lcm is its matrix's side."""
    if isinstance(kernel, ProductGraphon):
        return math.lcm(grain_of(kernel.left), grain_of(kernel.right))
    return kernel.step.n if kernel.step is not None else 0


def _first_grid(q: QuadratureSpec, need: int, *kernels) -> int:
    """q.base_grid rounded up to a multiple of ``need`` and, while their lcm stays
    within LCM_GRID_CAP, of the kernels' step grains, so steps are sampled exactly."""
    align = math.lcm(need, *(max(1, grain_of(k)) for k in kernels))
    return ceil_to_multiple(q.base_grid, align if align <= LCM_GRID_CAP else need)


def _row_blocks(kernel, xs: np.ndarray, gz: int, rows: int, upper: bool = False):
    """The kernel on xs x xs (z-grid gz), ``rows`` rows at a time; with ``upper``, the block
    of rows [lo, lo + rows) holds the columns from lo on only (its diagonal tile and the
    columns to its right). A lazy product is evaluated whole and sliced: its matmul needs
    the whole right factor, and its point read (gz = 0) settles its z-integral once per
    call."""
    lazy = isinstance(kernel, ProductGraphon) and kernel.asym_values is None
    whole = kernel.eval_grid(xs, xs, gz) if lazy else None
    for lo in range(0, len(xs), rows):
        hi, left = lo + rows, lo if upper else 0
        yield kernel.eval_grid(xs[lo:hi], xs[left:], gz) if whole is None else whole[lo:hi, left:]


def _grid_mean(blocks, g: int) -> float:
    """Mean of the g-grid that ``blocks(g, rows)`` yields: one sum up to g = 1024, then
    sequential sums of 512-row blocks. That order fixes the bytes of every integral."""
    if g <= 1024:
        return float(np.mean(next(blocks(g, g))))
    total = 0.0
    for block in blocks(g, 512):
        total += float(np.sum(block))
    return total / (g * g)


def integrate2d(f, q: QuadratureSpec) -> QuadratureResult:
    """Midpoint integral of f over [0,1]^2 with doubling refinement.

    Every grid is a multiple of f's step grain, so step integrands are sampled
    exactly. Raises QuadratureError when the estimates have not settled within
    q.tol after q.max_refinements doublings.
    """
    kernel = as_kernel(f)

    def blocks(g: int, rows: int):
        return _row_blocks(kernel, midpoints(g), g, rows)

    return settle(q, _first_grid(q, 1, kernel), lambda g: _grid_mean(blocks, g), "integral")


# ---------------------------------------------------------------------------
# Products and powers
# ---------------------------------------------------------------------------


def _matmul(a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """a @ b, into ``out`` if given, rounded alike at every BLAS thread count: a thread split
    inside an unaligned edge rounds differently. So a's rows are padded with zeros to a
    multiple of 64 on every route. An inner dimension that is a multiple of 256 with a column
    count that is a multiple of 64 then takes the plain product; any other also pads b's
    columns to a multiple of 64 and adds 256-row inner panels in ascending order."""
    (rows, inner), cols = a.shape, b.shape[1]
    plain = inner % 256 == 0 and cols % 64 == 0
    if plain and rows % 64 == 0:
        return np.matmul(a, b, out=out)
    if rows % 64:
        a = np.pad(a, ((0, -rows % 64), (0, 0)))
    if plain:
        acc = a @ b
    else:
        b = np.pad(b, ((0, 0), (0, -cols % 64)))
        acc = a[:, :256] @ b[:256]
        for lo in range(256, inner, 256):
            acc += a[:, lo : lo + 256] @ b[lo : lo + 256]
    if out is None:
        return np.ascontiguousarray(acc[:rows, :cols])
    out[...] = acc[:rows, :cols]
    return out


def _matrix_power(a: np.ndarray, k: int, divisor: float = 1) -> np.ndarray:
    """a^k / divisor, k >= 2, of the bitwise symmetric a, which the caller owns: its squares
    may overwrite it. np.linalg.matrix_power's order: (a a) a at k = 3, else squarings
    multiplied in from the lowest bit (a a at k = 2). Each square is `_square_in_place`,
    on a copy only where its operand is also a factor, so bitwise symmetric in turn; every
    other product is `_matmul`. A power of two is its last square, which divides its panels
    as it copies them out, and so is bitwise symmetric; any other k is divided at the end."""
    if k & (k - 1) == 0:
        for _ in range(k.bit_length() - 2):
            a = _square_in_place(a)
        return _square_in_place(a, divisor)
    if k == 3:
        result = _matmul(_square_in_place(a.copy()), a)
    else:
        z = result = None
        while k:
            z = a if z is None else _square_in_place(z.copy() if z is result else z)
            k, bit = divmod(k, 2)
            if bit:
                result = z if result is None else _matmul(result, z)
    if divisor != 1:
        result /= divisor
    return result


@dataclass(frozen=True, eq=False)
class ProductGraphon:
    """Kernel product ``left`` (.) ``right`` that no step graphon holds: an exact asymmetric
    product of two steps (its matrix in ``asym_values``), or a lazy product. Either way its
    grain is the lcm of its factors' (`grain_of`). ``q`` settles the z-integral of a lazy
    product evaluated without a z-grid (gz == 0), from the grid `_first_grid` aligns to the
    factors' grains. ``step`` is None: no product held here is a step.

    On a grid, a lazy product allocates its result before its factors, so that the factors
    are freed above it on the heap. A self-product (``left is right``) on its own z-grid
    is `_own_square`: its factor grid, squared in place when it is bitwise symmetric.
    """

    label: str
    left: object
    right: object
    asym_values: Optional[np.ndarray] = None
    q: QuadratureSpec = QuadratureSpec()
    step = None  # the kernel protocol's step form; not a field

    def eval_grid(self, xs, ys, gz: int) -> np.ndarray:
        if self.asym_values is not None:
            n = self.asym_values.shape[0]
            return self.asym_values[np.ix_(cell_index(xs, n), cell_index(ys, n))]
        if gz == 0:
            return settle(
                self.q, _first_grid(self.q, 1, self.left, self.right),
                lambda g: self.eval_grid(xs, ys, g),
                f"z-integral of {self.label}",
            ).value
        zm = midpoints(gz)
        if self.left is self.right and np.array_equal(xs, zm) and np.array_equal(ys, zm):
            return _own_square(self.left, zm)
        # the result first, so that the factors are freed above it on the heap, not below it
        out = np.empty((len(xs), len(ys)))
        _matmul(self.left.eval_grid(xs, zm, gz), self.right.eval_grid(zm, ys, gz), out)
        out /= gz  # in place: no second full-size grid
        return out


def _own_square(kernel, zm: np.ndarray) -> np.ndarray:
    """kernel (.) kernel on its own z-grid zm: the factor grid F, filled `core.block_rows`
    rows at a time (16 at g = 2048), times itself over len(zm). F is the one square whose
    symmetry is tested: a bitwise symmetric F is squared in place; any other (the grid of a
    kernel such as exp(-abs(x-y))*x*y, whose two argument orders round apart) keeps the
    gemm `_matmul(F, F)`, whose F F is not F F.T to the bit."""
    g, rows = len(zm), block_rows(len(zm))
    f = np.empty((g, g))
    for lo, block in zip(range(0, g, rows), _row_blocks(kernel, zm, g, rows)):
        f[lo : lo + rows] = block
    del block  # the last row block would otherwise live through the square
    if is_symmetric(f):
        return _square_in_place(f, g)
    f = _matmul(f, f)
    f /= g
    return f


def _square_in_place(f: np.ndarray, divisor: float = 1) -> np.ndarray:
    """Overwrite the bitwise symmetric square f with f @ f.T / divisor, to the bytes of
    `_matmul(f, f.T) / divisor` (BLAS syrk's upper triangle, mirrored, on the plain route):
    the one square of a symmetric matrix. For each panel p = f[lo:hi] of _PANEL_ROWS rows,
    the upper part of its rows goes into one buffer of f's dtype as the diagonal block
    `_matmul(p, p.T)` (syrk on the plain route) and the gemm `_matmul(p, f[hi:].T)` to its
    right, and is divided as it is copied over rows that no later panel reads; then each
    tile below the diagonal takes the transpose of its mirror above, so the result is
    bitwise symmetric. Every entry equals the whole product's (the tests check this on
    four BLAS kernels at 1 and 2 threads). Returns f."""
    g = f.shape[0]
    buf = np.empty(min(g, _PANEL_ROWS) * g, dtype=f.dtype)
    for lo in range(0, g, _PANEL_ROWS):
        hi = min(lo + _PANEL_ROWS, g)
        p, rows = f[lo:hi], hi - lo
        diag = _matmul(p, p.T, buf[: rows * rows].reshape(rows, rows))
        right = _matmul(p, f[hi:].T, buf[rows * rows : rows * (g - lo)].reshape(rows, g - hi))
        np.divide(diag, divisor, out=f[lo:hi, lo:hi])
        np.divide(right, divisor, out=f[lo:hi, hi:])
    for r, c in tile_pairs(g):
        if r != c:  # a diagonal tile lies in a panel's diagonal block, computed whole
            f[c, r] = f[r, c].T
    return f


def _clip_to(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    # matrix products of in-range factors can overshoot by float rounding only; every caller
    # hands over a matrix it owns, which is clipped in place. The clip changes no entry
    # inside [lo, hi], so it runs only when an entry lies outside or on a bound that is
    # zero (whether a clip keeps -0.0 at a bound of 0.0 is NumPy's choice)
    low, high = values.min(), values.max()
    if low < lo - 1e-9 or high > hi + 1e-9:
        raise ValidationError("product values escape the expected range")
    if (lo < low or low == lo != 0.0) and (high < hi or high == hi != 0.0):
        return values
    return np.clip(values, lo, hi, out=values)


def _step_range(*steps: StepGraphon) -> tuple[float, float]:
    return (0.0, 1.0) if all(s.lo >= 0.0 for s in steps) else (-1.0, 1.0)


def _step_product(sa: StepGraphon, sb: StepGraphon, label: str):
    """(1/m) A B on the lcm grid m: a step when symmetric within SYMMETRY_TOL,
    otherwise the exact asymmetric matrix. A step times itself squares a copy in place."""
    m = math.lcm(sa.n, sb.n)
    a = sa.refine(m // sa.n).values
    lo, hi = _step_range(sa, sb)
    if sa is sb:  # a square, mirrored: bitwise symmetric
        vals = _clip_to(_square_in_place(a.copy(), m), lo, hi)
    else:
        vals = _matmul(a, sb.refine(m // sb.n).values)
        vals /= m  # in place, as the clip
        vals = _clip_to(vals, lo, hi)
        if asymmetry(vals) > SYMMETRY_TOL:
            return ProductGraphon(label=label, left=sa, right=sb, asym_values=vals)
        vals = sym_mean(vals)
    # symmetric, finite and in range by construction: no re-check, no copy
    return _trusted(StepGraphon, n=m, values=vals, lo=lo, hi=hi)


def product(a, b, q: QuadratureSpec = QuadratureSpec()):
    """Kernel product (a (.) b)(x, y) = integral of a(x, z) b(z, y) dz."""
    ka = as_kernel(a)
    kb = ka if b is a else as_kernel(b)
    label = f"prod[{getattr(ka, 'label', '?')},{getattr(kb, 'label', '?')}]"
    sa, sb = ka.step, kb.step
    if sa is not None and sb is not None:
        return _step_product(sa, sb, label)
    return ProductGraphon(label=label, left=ka, right=kb, q=q)


def _exact_in_float32(n: int, k: int) -> bool:
    """Whether float32 holds every partial sum of the k-th power of an n x n 0/1 matrix
    exactly: each is a nonnegative integer of at most n^(k-1), which stays below 2^24, so
    the power has the same bits in any summation order, on any BLAS kernel and thread
    count."""
    return n ** (k - 1) < 1 << 24


def _is_zero_one(values: np.ndarray) -> bool:
    """Whether every entry is 0.0 or 1.0 bit for bit (a -0.0 is not), `core.block_rows`
    rows at a time: False at the first block that holds any other value."""
    bits = values.view(np.uint64)
    rows = block_rows(bits.shape[1])
    for lo in range(0, len(bits), rows):
        block = bits[lo : lo + rows]
        if not ((block == 0) | (block == _ONE_BITS)).all():
            return False
    return True


def power(w, k: int, q: QuadratureSpec = QuadratureSpec()):
    """k-fold self-product; the step (1/n)^(k-1) A^k for a step, else a lazy chain of k - 1
    products. A k whose n^(k-1) overflows a float, or a lazy chain deeper than
    MAX_LAZY_POWER, is refused before any product is formed."""
    _check_count(k, "power exponent", 1)
    if k == 1:
        return w
    kw = as_kernel(w)
    s = kw.step
    if s is not None:
        try:
            scale = float(s.n) ** (k - 1)
        except OverflowError:
            raise ValidationError(
                f"power k={k} of an n={s.n} step: n^(k-1) overflows a float"
            ) from None
        lo, hi = _step_range(s)
        if _exact_in_float32(s.n, k) and _is_zero_one(s.values):
            # a graph's adjacency: the float32 power is A^k to the bit, so it is symmetric,
            # and in [0, 1] once divided by n^(k-1), the most walks of length k from i to j.
            # A holds the first half of each row of the result, where a power of two is
            # squared in place, so no n x n array but the result is added to the step's
            vals = np.empty((s.n, s.n))
            a = vals.view(np.float32)[:, : s.n]
            a[...] = s.values
            a = _matrix_power(a, k)
            rows = block_rows(s.n)
            for top in range(0, s.n, rows):  # NumPy reads a block before it overwrites it
                np.divide(a[top : top + rows], scale, out=vals[top : top + rows],
                          dtype=np.float64)
        else:
            # the divisions, the symmetrization and the clip all work in place
            vals = _matrix_power(s.values.copy(), k, scale)
            if k & (k - 1):  # a power of two is its last square, mirrored
                vals = sym_mean(vals)
            vals = _clip_to(vals, lo, hi)
        # symmetric, finite and in range by construction: no re-check, no copy
        return _trusted(StepGraphon, n=s.n, values=vals, lo=lo, hi=hi)
    name = getattr(kw, "label", "?")
    if k > MAX_LAZY_POWER:
        raise ValidationError(
            f"lazy power k={k} of {name}: at most k={MAX_LAZY_POWER}, the deepest product "
            "chain that evaluates within Python's recursion limit"
        )
    label = f"pow[{name},{k}]"
    node = kw
    for _ in range(k - 1):
        node = ProductGraphon(label=label, left=node, right=kw, q=q)
    return node


# ---------------------------------------------------------------------------
# Cell averaging
# ---------------------------------------------------------------------------


def _row_means(vals: np.ndarray, m: int) -> np.ndarray:
    """Means of the s x s blocks of a grid of whole cell rows, s = vals.shape[1] / m, to the
    bytes of ``vals.reshape(rows // s, s, m, s).mean(axis=(1, 3))``.

    On a C-contiguous float64 block with m >= 2, NumPy's reduction runs its inner loop over
    one cell side: it takes each grid row's sum over a cell's s column offsets, adds those
    row sums in order from 0.0 and divides by s * s. Its inner sum is sequential from 0.0 for
    s < 8, and pairwise from s = 8: 8 lanes (offsets j, j + 8, ... below s - s % 8), combined
    as ((0 + 1) + (2 + 3)) + ((4 + 5) + (6 + 7)), then the remaining offsets in order. For
    2 <= s < 16, where each lane is one offset, whole-row strided adds in that same order
    give the same bytes in a few long loops instead of many loops of length s; adding 0.0
    last turns a cell of -0.0s into NumPy's +0.0. At s = 1 the block plus 0.0 is the mean.
    Any other block keeps NumPy's reduction: at m = 1 NumPy merges the axes into one
    pairwise sum, from s = 16 its inner loop is long enough to beat strided adds (on 2 vCPUs
    of a SkylakeX the theorem-large sweep's s = 16 blocks took 8.0 ms through NumPy against
    13.4 ms as lanes, and its s = 8 blocks 14.7 ms against 10.4 ms), and a block that is not
    C-contiguous (a transposed grid, or the zero-stride grid of a constant expression) may
    be iterated in another order."""
    s = vals.shape[1] // m
    v = vals.reshape(vals.shape[0] // s, s, m, s)
    if not (s < 16 and m >= 2 and vals.flags.c_contiguous and vals.dtype == np.float64):
        return v.mean(axis=(1, 3))
    if s == 1:  # a cell is one grid point x, whose mean NumPy takes as (0.0 + x) / 1
        return vals + 0.0
    row_sums = v[..., 0] + v[..., 1]  # (cell rows, s, m): each grid row's sum over a cell
    done = 2
    if s >= 8:  # the 8 lanes
        row_sums += v[..., 2] + v[..., 3]
        upper = v[..., 4] + v[..., 5]
        upper += v[..., 6] + v[..., 7]
        row_sums += upper
        done = 8
    for b in range(done, s):
        row_sums += v[..., b]
    out = row_sums[:, 0] + row_sums[:, 1]
    for a in range(2, s):
        out += row_sums[:, a]
    out /= s * s
    out += 0.0
    return out


def _cell_rows(g: int, m: int) -> int:
    """Whole cell rows of the m-grid per block of a g-grid pass: as many as fit in
    `core.block_rows`, and at least one."""
    return max(1, block_rows(g) // (g // m))


def _cells(blocks, m: int, rows: int) -> np.ndarray:
    """Means over the m-grid of the blocks of ``rows`` whole cell rows (the last may be
    shorter) that ``blocks`` yields in order, symmetrized in place."""
    cells = np.empty((m, m))
    for lo, block in zip(range(0, m, rows), blocks):
        cells[lo : lo + rows] = _row_means(block, m)
    return sym_mean(cells)


def block_means(vals: np.ndarray, m: int) -> np.ndarray:
    """Symmetrized means of the m x m blocks of a square grid whose side m divides, read a
    block of cell rows at a time as `cell_means` reads a kernel, so that the temporaries
    of `_row_means` stay a block's size."""
    side, rows = vals.shape[0] // m, _cell_rows(vals.shape[0], m)
    return _cells((vals[lo * side : (lo + rows) * side] for lo in range(0, m, rows)), m, rows)


def cell_means(w, m: int, q: QuadratureSpec, zero_diagonal: bool = False) -> np.ndarray:
    """Matrix of cell averages of w over the uniform m-grid, with refinement.

    Convergence is measured as the max absolute change of any cell entry
    between successive grid doublings (a zeroed diagonal never changes).
    The kernel is read through `_row_blocks` in whole cell rows, as many as
    fit in `core.block_rows` grid rows (16 at g = 2048), or one (a lazy product
    whole, once per grid level). A step whose n divides m (diagonal kept) is its
    values spread to m exactly, in one new array that the caller owns.
    """
    kernel = as_kernel(w)
    s = kernel.step
    if s is not None and m % s.n == 0 and not zero_diagonal:
        cells = spread(s.values, m // s.n)
        return cells.copy() if cells is s.values else cells

    def cells_at(g: int) -> np.ndarray:
        rows = _cell_rows(g, m)
        cells = _cells(_row_blocks(kernel, midpoints(g), g, rows * (g // m)), m, rows)
        if zero_diagonal:
            np.fill_diagonal(cells, 0.0)
        return cells

    g0 = _first_grid(q, m, kernel)
    return settle(q, g0, cells_at, f"cell averages on the {m}-grid").value


def validate_graphon(w, q: QuadratureSpec = QuadratureSpec()) -> None:
    """Refuse, with ValidationError, a kernel that is not a graphon: an exact asymmetric
    product, or values that are not finite, not symmetric within SYMMETRY_TOL or not in
    [0, 1] within RANGE_TOL. A step form is checked on its own values (symmetric by
    construction); any other kernel once on the q.base_grid midpoint grid. The grid holds
    no boundary line, so a violation within half a cell of the edge goes unseen here; the
    sampler's [0, 1] check (on the pairs it reads: every block of rows from its diagonal
    on) and StepGraphon's range check still refuse it downstream."""
    kernel = as_kernel(w)
    label = getattr(kernel, "label", "kernel")
    if getattr(kernel, "asym_values", None) is not None:
        raise ValidationError(f"{label} is not symmetric, so it has no step graphon")
    s = kernel.step
    g = q.base_grid if s is None else s.n
    xs = midpoints(g)
    vals = kernel.eval_grid(xs, xs, g) if s is None else s.values

    def point(i, j) -> str:  # a grid point and its value, in full
        return f"W({float(xs[i])!r}, {float(xs[j])!r}) = {float(vals[i, j])!r}"

    bad = np.argwhere(~np.isfinite(vals))
    if len(bad):
        raise ValidationError(f"{label} is not finite: {point(*bad[0])}")
    if s is None:
        gap = asymmetry(vals)
        if gap > SYMMETRY_TOL:
            raise ValidationError(
                f"{label} is not symmetric: max |V - V^T| = {gap:.3g} on the {g}-grid"
            )
    excess = np.maximum(-vals, vals - 1.0)
    worst = np.unravel_index(np.argmax(excess), excess.shape)
    if excess[worst] > RANGE_TOL:
        raise ValidationError(f"{label} is not in [0, 1]: {point(*worst)}")


def discretize(w, m: int, q: QuadratureSpec = QuadratureSpec()) -> StepGraphon:
    """Step graphon of cell averages over the m-grid (diagonal included), in the
    range of w's step form, or [0, 1] without one."""
    _check_count(m, "discretization block count", 1)
    kernel = as_kernel(w)
    s = kernel.step
    if s is None:  # a signed step is valid input: it brackets a cut norm
        validate_graphon(kernel, q)
    lo, hi = (s.lo, s.hi) if s is not None else (0.0, 1.0)
    cells = cell_means(kernel, m, q, zero_diagonal=False)
    return StepGraphon(m, _clip_to(cells, lo, hi), lo, hi)
