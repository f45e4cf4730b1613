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
level, and sliced. `_first_grid` is the one grid-alignment rule.

Products of analytic kernels are kept lazy: (a (.) b)(x, y) is evaluated by
midpoint quadrature in z on demand, and grid evaluation contracts the factor
matrices with a matrix product, so no grid is committed before the final norm
computation chooses one; evaluated without a z-grid (gz == 0), a lazy product
settles its z-integral under the QuadratureSpec it was built with. A product or
power of steps is the exact matrix formula (1/n) A B on the common (lcm) grid: a
StepGraphon when symmetric, or else a ProductGraphon holding the asymmetric matrix.
The kernel protocol is `eval_grid` plus `step_form`; `require_symmetric` is the one
graphon check, and reads any kernel without a step form on its midpoint grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .core import StepGraphon, as_kernel, cell_index
from .errors import QuadratureError, ValidationError

LCM_GRID_CAP = 4096
_BLOCK_ROWS = 128  # grid rows per kernel evaluation in cell_means


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


def _is_lazy(kernel) -> bool:
    """A product evaluated by z-quadrature, not an exact asymmetric matrix."""
    return isinstance(kernel, ProductGraphon) and kernel.asym_values is None


def grain_of(kernel) -> int:
    """Step block count whose multiples sample the kernel exactly (0 if none).

    Lazy products of step factors are exact on any grid aligned to the lcm of
    the factor grains, so the hint is propagated through the product tree.
    """
    if _is_lazy(kernel):
        ga, gb = grain_of(kernel.left), grain_of(kernel.right)
        if ga and gb:
            return math.lcm(ga, gb)
        return 0
    asym = getattr(kernel, "asym_values", None)
    if asym is not None:
        return asym.shape[0]
    s = kernel.step_form()
    return s.n if s is not None else 0


def _first_grid(q: QuadratureSpec, need: int, *kernels) -> int:
    """q.base_grid rounded up to a multiple of ``need`` and, while their lcm stays
    within LCM_GRID_CAP, of the kernels' step grains, so steps are sampled exactly."""
    align = math.lcm(need, *(max(1, grain_of(k)) for k in kernels))
    return ceil_to_multiple(q.base_grid, align if align <= LCM_GRID_CAP else need)


def _row_blocks(kernel, g: int, rows: int):
    """The kernel on the g-midpoint grid (z-grid g), ``rows`` grid rows at a time. A lazy
    product is evaluated whole and sliced: its matmul needs the whole right factor."""
    xs = midpoints(g)
    whole = kernel.eval_grid(xs, xs, g) if _is_lazy(kernel) else None
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


@dataclass(frozen=True, eq=False)
class ProductGraphon:
    """Kernel product a (.) b that no step graphon holds: an exact asymmetric
    step-by-step product (its matrix in ``asym_values``), or a lazy product of
    ``left`` and ``right``. ``q`` settles the z-integral of a lazy product
    evaluated without a z-grid (gz == 0).
    """

    label: str
    left: object = None
    right: object = None
    asym_values: Optional[np.ndarray] = None
    q: QuadratureSpec = QuadratureSpec()
    # not a field: the benchmark tracer perfbench/pb_trace._count_product reads it
    step = None

    def step_form(self) -> None:
        return None

    def eval_grid(self, xs, ys, gz: int) -> np.ndarray:
        if self.asym_values is not None:
            n = self.asym_values.shape[0]
            return self.asym_values[np.ix_(cell_index(xs, n), cell_index(ys, n))]
        if gz == 0:
            return settle(
                self.q, self.q.base_grid, lambda g: self.eval_grid(xs, ys, g),
                f"z-integral of {self.label}",
            ).value
        zm = midpoints(gz)
        lhs = self.left.eval_grid(xs, zm, gz)
        if self.left is self.right and np.array_equal(xs, zm) and np.array_equal(ys, zm):
            rhs = lhs  # a self-product on its own z-grid: both factors are one grid
        else:
            rhs = self.right.eval_grid(zm, ys, gz)
        out = lhs @ rhs
        out /= gz  # in place: no second full-size grid
        return out

    def evaluate(self, x: float, y: float) -> float:
        """Pointwise value; a lazy product settles its z-integral under ``q``."""
        return float(self.eval_grid(np.array([x]), np.array([y]), 0)[0, 0])


def _clip_to(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    # matrix products of in-range factors can overshoot by float rounding only
    if values.min() < lo - 1e-9 or values.max() > hi + 1e-9:
        raise ValidationError("product values escape the expected range")
    return np.clip(values, lo, hi)


def _asymmetry(vals: np.ndarray) -> float:
    """max |V - V^T|, with one temporary."""
    d = vals - vals.T
    return float(np.abs(d, out=d).max())


def _step_range(*steps: StepGraphon) -> tuple[float, float]:
    return (0.0, 1.0) if all(s.lo >= 0.0 for s in steps) else (-1.0, 1.0)


def _step_product(sa: StepGraphon, sb: StepGraphon, label: str):
    """(1/m) A B on the lcm grid m: a step when symmetric within 1e-12, otherwise
    the exact asymmetric matrix."""
    m = math.lcm(sa.n, sb.n)
    a = sa.refine(m // sa.n).values
    b = sb.refine(m // sb.n).values
    lo, hi = _step_range(sa, sb)
    vals = _clip_to((a @ b) / m, lo, hi)
    if _asymmetry(vals) > 1e-12:
        return ProductGraphon(label=label, asym_values=vals)
    vals = 0.5 * (vals + vals.T)  # reassigned: the unsymmetrized matrix dies before the copy
    return StepGraphon(m, vals, lo, hi)


def product(a, b, q: QuadratureSpec = QuadratureSpec()):
    """Kernel product (a (.) b)(x, y) = integral of a(x, z) b(z, y) dz."""
    ka = as_kernel(a)
    kb = ka if b is a else as_kernel(b)
    label = f"prod[{getattr(ka, 'label', '?')},{getattr(kb, 'label', '?')}]"
    sa, sb = ka.step_form(), kb.step_form()
    if sa is not None and sb is not None:
        return _step_product(sa, sb, label)
    return ProductGraphon(label=label, left=ka, right=kb, q=q)


def power(w, k: int, q: QuadratureSpec = QuadratureSpec()):
    """k-fold self-product; the step (1/n)^(k-1) A^k for a step."""
    if k < 1:
        raise ValidationError("power exponent must be >= 1")
    if k == 1:
        return w
    kw = as_kernel(w)
    s = kw.step_form()
    if s is not None:
        vals = np.linalg.matrix_power(s.values, k) / float(s.n) ** (k - 1)
        vals = 0.5 * (vals + vals.T)  # reassigned so that at most two n x n arrays live
        lo, hi = _step_range(s)
        vals = _clip_to(vals, lo, hi)
        return StepGraphon(s.n, vals, lo, hi)
    label = f"pow[{getattr(kw, 'label', '?')},{k}]"
    node = kw
    for _ in range(k - 1):
        node = ProductGraphon(label=label, left=node, right=kw, q=q)
    return node


# ---------------------------------------------------------------------------
# Cell averaging
# ---------------------------------------------------------------------------


def _row_means(vals: np.ndarray, m: int) -> np.ndarray:
    """Means of the s x s blocks of a grid of whole cell rows, s = vals.shape[1] / m."""
    s = vals.shape[1] // m
    return vals.reshape(vals.shape[0] // s, s, m, s).mean(axis=(1, 3))


def _symmetrized(cells: np.ndarray) -> np.ndarray:
    t = cells + cells.T
    t *= 0.5
    return t


def block_means(vals: np.ndarray, m: int) -> np.ndarray:
    """Symmetrized means of the m x m blocks of a square grid whose side m divides."""
    return _symmetrized(_row_means(vals, m))


def cell_means(w, m: int, q: QuadratureSpec, zero_diagonal: bool = False) -> np.ndarray:
    """Matrix of cell averages of w over the uniform m-grid, with refinement.

    Convergence is measured as the max absolute change of any cell entry
    between successive grid doublings (a zeroed diagonal never changes).
    The kernel is read through `_row_blocks` in whole cell rows, about
    _BLOCK_ROWS grid rows at a time (a lazy product whole, once per grid level).
    """
    kernel = as_kernel(w)
    s = kernel.step_form()
    if s is not None and m % s.n == 0 and not zero_diagonal:
        return s.refine(m // s.n).values.copy()

    def cells_at(g: int) -> np.ndarray:
        side = g // m  # grid rows per cell row
        rows = max(1, _BLOCK_ROWS // side)  # cell rows per block
        cells = np.empty((m, m))
        for lo, block in zip(range(0, m, rows), _row_blocks(kernel, g, rows * side)):
            cells[lo : lo + rows] = _row_means(block, m)
        cells = _symmetrized(cells)
        if zero_diagonal:
            upper = np.triu(cells, 1)
            cells = upper + upper.T
        return cells

    g0 = _first_grid(q, m, kernel)
    return settle(q, g0, cells_at, f"cell averages on the {m}-grid").value


def require_symmetric(kernel, q: QuadratureSpec) -> None:
    """Reject a kernel that is not a graphon: an exact asymmetric product, or a kernel
    without a step form that is asymmetric beyond q.tol on the q.base_grid midpoint grid."""
    label = getattr(kernel, "label", "kernel")
    if getattr(kernel, "asym_values", None) is not None:
        raise ValidationError(f"{label} is not symmetric, so it has no step graphon")
    if kernel.step_form() is None:
        g = q.base_grid
        xs = midpoints(g)
        gap = _asymmetry(kernel.eval_grid(xs, xs, g))
        if gap > q.tol:
            raise ValidationError(
                f"{label} is not symmetric: max |V - V^T| = {gap:.3g} on the {g}-grid"
            )


def discretize(w, m: int, q: QuadratureSpec = QuadratureSpec()) -> StepGraphon:
    """Step graphon of cell averages over the m-grid (diagonal included), in the
    range of w's step form, or [0, 1] without one."""
    if m < 1:
        raise ValidationError("discretization block count must be >= 1")
    kernel = as_kernel(w)
    require_symmetric(kernel, q)
    s = kernel.step_form()
    lo, hi = (s.lo, s.hi) if s is not None else (0.0, 1.0)
    cells = cell_means(kernel, m, q, zero_diagonal=False)
    return StepGraphon(m, _clip_to(cells, lo, hi), lo, hi)
