"""Kernel products, powers, discretization, and the shared quadrature engine.

Integrals use the midpoint rule on uniform grids, refined by grid doubling
until two successive estimates agree within tolerance. Midpoint Riemann sums
are deterministic, handle bounded discontinuous step mixtures, and are exact
for step functions whenever the grid is aligned with the step grain, which is
why grids are always rounded up to a multiple of the relevant block counts.
That one doubling rule is `settle`, used by `integrate2d`, `cell_means`, lazy
products and the sweep's limit distance: matrix estimates agree when no entry
moves by more than the tolerance, and after QuadratureSpec.max_refinements
doublings QuadratureError names the quantity that did not settle. Integrals,
L1 distances and cell averages read kernels through one evaluator, `_row_blocks`,
a few grid rows at a time; a lazy product is evaluated whole, once per grid
level, and sliced. `_first_grid` is the one grid-alignment rule: every quadrature,
a lazy product's z-integral at a point read included, starts on its grid. Cell
averages over s x s grid blocks (`_row_means`) have the bytes of NumPy's
``reshape(...).mean(axis=(1, 3))``; for 2 <= s < 8 and at least two cells a row
they are whole-row strided adds in the order NumPy's reduction adds, which runs
its inner loop over one cell side (s entries) and so spends its time on loop
overhead. One cell a row (NumPy merges the axes into one pairwise sum) and
s >= 8 (a pairwise inner loop) sum in other orders and keep NumPy's mean.

Products of analytic kernels are kept lazy: (a (.) b)(x, y) is evaluated by
midpoint quadrature in z on demand, and grid evaluation contracts the factor
matrices with a matrix product, so no grid is committed before the final norm
computation chooses one; evaluated without a z-grid (gz == 0), a lazy product
settles its z-integral under the QuadratureSpec it was built with. A product or
power of steps is the exact matrix formula (1/n) A B on the common (lcm) grid: a
StepGraphon when symmetric, or else a ProductGraphon holding the asymmetric matrix.
Every kernel matrix product is `_matmul`, whose bytes do not depend on the thread count
(it pads an unaligned row count on both of its routes).
A self-product `_matmul(a, a)` (a lazy product's square on its own z-grid, a step power's
squarings, a step times itself) multiplies by `a.T` when a is exactly symmetric. The values
are the same. On `_matmul`'s plain route NumPy hands `a @ a.T` over one buffer to BLAS
syrk, which computes one triangle (half a gemm's flops) that NumPy mirrors; the bytes are
kept because that triangle equals the gemm's and the gemm of an exactly symmetric factor is
exactly symmetric on that route (the tests check this on the default, Haswell and Prescott
kernels at 1 and 2 threads). On the padded route the transposed factor is copied, so the
product is the gemm. Every symmetrization is `core.sym_mean`, which hands back an input
that is already bitwise symmetric as it is (in a theorem sweep every input is); the
transposed passes (`core.is_symmetric`, `core.sym_mean`, `core.asymmetry`) read a matrix
in cache-sized tiles.
The kernel protocol is two attributes: `eval_grid(xs, ys, gz)` and `step`, the exact
StepGraphon or None. `grain_of` reads `step`, or a ProductGraphon's matrix or factors, and
`core.evaluate` is the one point read. `validate_graphon` is the one rule for being a
graphon (symmetric, finite, in [0, 1]); every command and the theorem sweep that needs a
graphon calls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .core import (
    RANGE_TOL, StepGraphon, as_kernel, asymmetry, cell_index, is_symmetric, sym_mean,
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
_BLOCK_ROWS = 128  # grid rows per block in cell_means (a kernel evaluation) and block_means


@dataclass(frozen=True)
class QuadratureSpec:
    """Grid resolution and refinement policy for all integrals."""

    base_grid: int = 256
    max_refinements: int = 4
    tol: float = 1e-4

    def __post_init__(self):
        if self.base_grid < 2:
            raise ValidationError("base_grid must be >= 2")
        if not (0.0 < self.tol < math.inf):  # NaN fails every comparison
            raise ValidationError(f"tol must be a positive finite number, got {self.tol}")
        if self.max_refinements < 0:
            raise ValidationError("max_refinements must be >= 0")


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
            d = np.asarray(cur - prev)  # 0-d for a scalar estimate
            change = float(np.abs(d, out=d).max(initial=0.0))
            if change <= tol:
                return QuadratureResult(cur, change, g, r)
    raise QuadratureError(
        f"{what} did not settle within tol={tol} at grid {g}", last_estimates=(prev, cur)
    )


def midpoints(g: int) -> np.ndarray:
    return (np.arange(g) + 0.5) / g


def ceil_to_multiple(value: int, factor: int) -> int:
    factor = max(1, factor)
    return ((max(1, value) + factor - 1) // factor) * factor


def grain_of(kernel) -> int:
    """Step block count whose multiples sample the kernel exactly (0 if none): the side of
    its step, of an exact product's matrix, or, for a lazy product, the lcm of its factors'
    grains (0 when either has none), since a product of steps is exact on any grid aligned
    to both."""
    if isinstance(kernel, ProductGraphon):
        if kernel.asym_values is not None:
            return kernel.asym_values.shape[0]
        return math.lcm(grain_of(kernel.left), grain_of(kernel.right))
    return kernel.step.n if kernel.step is not None else 0


def _first_grid(q: QuadratureSpec, need: int, *kernels) -> int:
    """q.base_grid rounded up to a multiple of ``need`` and, while their lcm stays
    within LCM_GRID_CAP, of the kernels' step grains, so steps are sampled exactly."""
    align = math.lcm(need, *(max(1, grain_of(k)) for k in kernels))
    return ceil_to_multiple(q.base_grid, align if align <= LCM_GRID_CAP else need)


def _row_blocks(kernel, g: int, rows: int):
    """The kernel on the g-midpoint grid (z-grid g), ``rows`` grid rows at a time. A lazy
    product is evaluated whole and sliced: its matmul needs the whole right factor."""
    xs = midpoints(g)
    lazy = isinstance(kernel, ProductGraphon) and kernel.asym_values is None
    whole = kernel.eval_grid(xs, xs, g) if lazy else None
    for lo in range(0, g, rows):
        hi = lo + rows
        yield kernel.eval_grid(xs[lo:hi], xs, g) if whole is None else whole[lo:hi]


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
    blocks = partial(_row_blocks, kernel)
    return settle(q, _first_grid(q, 1, kernel), lambda g: _grid_mean(blocks, g), "integral")


# ---------------------------------------------------------------------------
# Products and powers
# ---------------------------------------------------------------------------


def _matmul(a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """a @ b, into ``out`` if given, rounded alike at every BLAS thread count: a thread split
    inside an unaligned edge rounds differently. So a's rows are padded with zeros to a
    multiple of 64 on every route. An inner dimension that is a multiple of 256 with a column
    count that is a multiple of 64 then takes the plain product; any other also pads b's
    columns to a multiple of 64 and adds 256-row inner panels in ascending order. A
    self-product (b is a) of an exactly symmetric a is a @ a.T: the same values, and on the
    plain route NumPy hands it over one buffer to BLAS syrk, half the work."""
    if b is a and is_symmetric(a):
        b = a.T
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


def _matrix_power(a: np.ndarray, k: int) -> np.ndarray:
    """a^k, k >= 2, in np.linalg.matrix_power's order with every product by _matmul:
    (a a) a at k = 3, else squarings multiplied in from the lowest bit (a a at k = 2)."""
    if k == 3:
        return _matmul(_matmul(a, a), a)
    z = result = None
    while k:
        z = a if z is None else _matmul(z, z)
        k, bit = divmod(k, 2)
        if bit:
            result = z if result is None else _matmul(result, z)
    return result


@dataclass(frozen=True, eq=False)
class ProductGraphon:
    """Kernel product a (.) b that no step graphon holds: an exact asymmetric
    step-by-step product (its matrix in ``asym_values``), or a lazy product of
    ``left`` and ``right``. ``q`` settles the z-integral of a lazy product
    evaluated without a z-grid (gz == 0), from the grid `_first_grid` aligns to the
    factors' grains. ``step`` is None: no product held here is a step.
    """

    label: str
    left: object = None
    right: object = None
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
        # the result first, so that the factors are freed above it on the heap, not below it
        out = np.empty((len(xs), len(ys)))
        zm = midpoints(gz)
        lhs = self.left.eval_grid(xs, zm, gz)
        # a self-product on its own z-grid: both factors are one grid, which _matmul squares
        own_grid = self.left is self.right and np.array_equal(xs, zm) and np.array_equal(ys, zm)
        _matmul(lhs, lhs if own_grid else self.right.eval_grid(zm, ys, gz), out)
        out /= gz  # in place: no second full-size grid
        return out


def _clip_to(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    # matrix products of in-range factors can overshoot by float rounding only
    if values.min() < lo - 1e-9 or values.max() > hi + 1e-9:
        raise ValidationError("product values escape the expected range")
    return np.clip(values, lo, hi)


def _step_range(*steps: StepGraphon) -> tuple[float, float]:
    return (0.0, 1.0) if all(s.lo >= 0.0 for s in steps) else (-1.0, 1.0)


def _step_product(sa: StepGraphon, sb: StepGraphon, label: str):
    """(1/m) A B on the lcm grid m: a step when symmetric within SYMMETRY_TOL,
    otherwise the exact asymmetric matrix."""
    m = math.lcm(sa.n, sb.n)
    a = sa.refine(m // sa.n).values
    b = sb.refine(m // sb.n).values
    lo, hi = _step_range(sa, sb)
    vals = _clip_to(_matmul(a, b) / m, lo, hi)
    if asymmetry(vals) > SYMMETRY_TOL:
        return ProductGraphon(label=label, asym_values=vals)
    vals = sym_mean(vals)  # reassigned: the unsymmetrized matrix dies here
    return StepGraphon(m, vals, lo, hi)


def product(a, b, q: QuadratureSpec = QuadratureSpec()):
    """Kernel product (a (.) b)(x, y) = integral of a(x, z) b(z, y) dz."""
    ka = as_kernel(a)
    kb = ka if b is a else as_kernel(b)
    label = f"prod[{getattr(ka, 'label', '?')},{getattr(kb, 'label', '?')}]"
    sa, sb = ka.step, kb.step
    if sa is not None and sb is not None:
        return _step_product(sa, sb, label)
    return ProductGraphon(label=label, left=ka, right=kb, q=q)


def power(w, k: int, q: QuadratureSpec = QuadratureSpec()):
    """k-fold self-product; the step (1/n)^(k-1) A^k for a step, else a lazy chain of k - 1
    products. A k whose n^(k-1) overflows a float, or a lazy chain deeper than
    MAX_LAZY_POWER, is refused before any product is formed."""
    if k < 1:
        raise ValidationError("power exponent must be >= 1")
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
        vals = _matrix_power(s.values, k) / scale
        vals = sym_mean(vals)  # reassigned so that at most two n x n arrays live
        lo, hi = _step_range(s)
        vals = _clip_to(vals, lo, hi)
        return StepGraphon(s.n, vals, lo, hi)
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
    one cell side: it sums each grid row's s column offsets in order from 0.0, adds those
    row sums in order and divides by s * s. For 2 <= s < 8 that inner loop is a plain
    sequential sum, so whole-row strided adds in the same order give the same bytes in a few
    long loops instead of many loops of length s; adding 0.0 last turns a cell of -0.0s
    into NumPy's +0.0. Any other block keeps NumPy's reduction: at m = 1 NumPy merges the
    axes into one pairwise sum, at s >= 8 its inner loop sums pairwise (and is long enough
    already), and a block that is not C-contiguous (a transposed grid, or the zero-stride
    grid of a constant expression) may be iterated in another order."""
    s = vals.shape[1] // m
    v = vals.reshape(vals.shape[0] // s, s, m, s)
    if not (2 <= s < 8 and m >= 2 and vals.flags.c_contiguous and vals.dtype == np.float64):
        return v.mean(axis=(1, 3))
    row_sums = v[..., 0] + v[..., 1]  # (cell rows, s, m): each grid row's sum over a cell
    for b in range(2, s):
        row_sums += v[..., b]
    out = row_sums[:, 0] + row_sums[:, 1]
    for a in range(2, s):
        out += row_sums[:, a]
    out /= s * s
    out += 0.0
    return out


def _cells(blocks, m: int, rows: int) -> np.ndarray:
    """Symmetrized means over the m-grid of the blocks of ``rows`` whole cell rows (the
    last may be shorter) that ``blocks`` yields in order."""
    cells = np.empty((m, m))
    for lo, block in zip(range(0, m, rows), blocks):
        cells[lo : lo + rows] = _row_means(block, m)
    return sym_mean(cells)


def block_means(vals: np.ndarray, m: int) -> np.ndarray:
    """Symmetrized means of the m x m blocks of a square grid whose side m divides, read a
    block of cell rows at a time as `cell_means` reads a kernel, so that the temporaries
    of `_row_means` stay a block's size."""
    side = vals.shape[0] // m  # grid rows per cell row
    rows = max(1, _BLOCK_ROWS // side)  # cell rows per block
    return _cells((vals[lo * side : (lo + rows) * side] for lo in range(0, m, rows)), m, rows)


def cell_means(w, m: int, q: QuadratureSpec, zero_diagonal: bool = False) -> np.ndarray:
    """Matrix of cell averages of w over the uniform m-grid, with refinement.

    Convergence is measured as the max absolute change of any cell entry
    between successive grid doublings (a zeroed diagonal never changes).
    The kernel is read through `_row_blocks` in whole cell rows, about
    _BLOCK_ROWS grid rows at a time (a lazy product whole, once per grid level).
    """
    kernel = as_kernel(w)
    s = kernel.step
    if s is not None and m % s.n == 0 and not zero_diagonal:
        return s.refine(m // s.n).values.copy()

    def cells_at(g: int) -> np.ndarray:
        side = g // m  # grid rows per cell row
        rows = max(1, _BLOCK_ROWS // side)  # cell rows per block
        cells = _cells(_row_blocks(kernel, g, rows * side), m, rows)
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
    sampler's [0, 1] check and StepGraphon's range check still refuse it downstream."""
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
    if m < 1:
        raise ValidationError("discretization block count must be >= 1")
    kernel = as_kernel(w)
    s = kernel.step
    if s is None:  # a signed step is valid input: it brackets a cut norm
        validate_graphon(kernel, q)
    lo, hi = (s.lo, s.hi) if s is not None else (0.0, 1.0)
    cells = cell_means(kernel, m, q, zero_diagonal=False)
    return StepGraphon(m, _clip_to(cells, lo, hi), lo, hi)
