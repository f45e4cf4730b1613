"""Kernel products, powers, discretization, and the shared quadrature engine.

Integrals use the midpoint rule on uniform grids, refined by grid doubling
until two successive estimates agree within tolerance. Midpoint Riemann sums
are deterministic, handle bounded discontinuous step mixtures, and are exact
for step functions whenever the grid is aligned with the step grain, which is
why grids are always rounded up to a multiple of the relevant block counts.
That one doubling rule is `settle`, used by `integrate2d`, `cell_means`, lazy
products and the sweep's limit distance: matrix estimates agree when no entry
moves by more than the tolerance, and after QuadratureSpec.max_refinements
doublings QuadratureError names the quantity that did not settle.

Products of analytic kernels are kept lazy: (a (.) b)(x, y) is evaluated by
midpoint quadrature in z on demand, and grid evaluation contracts the factor
matrices with a matrix product, so no grid is committed before the final norm
computation chooses one; evaluated without a z-grid (gz == 0), a lazy product
settles its z-integral under the QuadratureSpec it was built with. Step-by-step
products always use the exact matrix formula (1/n) A B on the common (lcm) grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import StepGraphon
from .errors import QuadratureError, ValidationError

LCM_GRID_CAP = 4096


@dataclass(frozen=True)
class QuadratureSpec:
    """Grid resolution and refinement policy for all integrals."""

    base_grid: int = 256
    max_refinements: int = 4
    tol: float = 1e-4

    def __post_init__(self):
        if self.base_grid < 2:
            raise ValidationError("base_grid must be >= 2")
        if self.tol <= 0:
            raise ValidationError("tol must be positive")
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
            change = float(np.abs(cur - prev).max(initial=0.0))
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


def as_kernel(obj):
    """Coerce graphon-like objects and plain callables f(x, y) to the
    eval_grid/step_form protocol."""
    if hasattr(obj, "eval_grid") and hasattr(obj, "step_form"):
        return obj
    if isinstance(getattr(obj, "step", None), StepGraphon):
        return obj.step
    if callable(obj):
        return _CallableKernel(obj)
    raise TypeError(f"not a graphon-like object: {type(obj).__name__}")


def grain_of(kernel) -> int:
    """Step block count whose multiples sample the kernel exactly (0 if none).

    Lazy products of step factors are exact on any grid aligned to the lcm of
    the factor grains, so the hint is propagated through the product tree.
    """
    if isinstance(kernel, ProductGraphon) and kernel.step is None:
        if kernel.asym_values is not None:
            return kernel.asym_values.shape[0]
        ga, gb = grain_of(kernel.left), grain_of(kernel.right)
        if ga and gb:
            return math.lcm(ga, gb)
        return 0
    s = kernel.step_form()
    return s.n if s is not None else 0


class _CallableKernel:
    """Adapter for plain callables f(x, y); vectorized when possible."""

    def __init__(self, fn):
        self.fn = fn
        self.label = getattr(fn, "__name__", "kernel")

    def step_form(self):
        return None

    def eval_grid(self, xs, ys, gz: int = 0):
        X = np.asarray(xs, dtype=np.float64)[:, None]
        Y = np.asarray(ys, dtype=np.float64)[None, :]
        try:
            out = np.asarray(self.fn(X, Y), dtype=np.float64)
            return np.broadcast_to(out, (X.shape[0], Y.shape[1]))
        except (TypeError, ValueError):
            out = np.empty((X.shape[0], Y.shape[1]))
            for i, x in enumerate(np.ravel(X)):
                for j, y in enumerate(np.ravel(Y)):
                    out[i, j] = self.fn(float(x), float(y))
            return out


def _grid_mean(kernel, g: int) -> float:
    xs = midpoints(g)
    if g <= 1024:
        return float(np.mean(kernel.eval_grid(xs, xs, g)))
    # row blocks keep peak memory flat on fine grids
    total = 0.0
    block = 512
    for lo in range(0, g, block):
        total += float(np.sum(kernel.eval_grid(xs[lo : lo + block], xs, g)))
    return total / (g * g)


def integrate2d(f, q: QuadratureSpec, align: int = 1) -> QuadratureResult:
    """Midpoint integral of f over [0,1]^2 with doubling refinement.

    ``align`` forces every grid to be a multiple of the given block count so
    step integrands are sampled exactly. Raises QuadratureError when the
    estimates have not settled within q.tol after q.max_refinements doublings.
    """
    kernel = as_kernel(f)
    grain = grain_of(kernel)
    if grain:
        aligned = math.lcm(align, grain)
        align = aligned if aligned <= LCM_GRID_CAP else align
    g0 = ceil_to_multiple(q.base_grid, align)
    return settle(q, g0, lambda g: _grid_mean(kernel, g), "integral")


# ---------------------------------------------------------------------------
# Products and powers
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ProductGraphon:
    """Kernel product a (.) b; materialized for step inputs, lazy otherwise.

    ``symmetric`` records whether the result is a graphon (equal symmetric
    factors, or symmetry verified on the materialized matrix); products of
    distinct kernels are otherwise labelled kernels. Asymmetric step-by-step
    products keep their exact matrix in ``asym_values``. ``q`` settles the
    z-integral of a lazy product evaluated without a z-grid (gz == 0).
    """

    label: str
    symmetric: bool
    step: Optional[StepGraphon] = None
    left: object = None
    right: object = None
    asym_values: Optional[np.ndarray] = None
    q: QuadratureSpec = QuadratureSpec()

    def step_form(self) -> Optional[StepGraphon]:
        return self.step

    def bounds(self) -> tuple[float, float]:
        if self.step is not None:
            return self.step.bounds()
        return (0.0, 1.0)

    def eval_grid(self, xs, ys, gz: int) -> np.ndarray:
        if self.step is not None:
            return self.step.eval_grid(xs, ys)
        if self.asym_values is not None:
            from .core import cell_index

            n = self.asym_values.shape[0]
            return self.asym_values[np.ix_(cell_index(xs, n), cell_index(ys, n))]
        if gz == 0:
            return settle(
                self.q, self.q.base_grid, lambda g: self.eval_grid(xs, ys, g),
                f"z-integral of {self.label}",
            ).value
        zm = midpoints(gz)
        lhs = self.left.eval_grid(xs, zm, gz)
        rhs = self.right.eval_grid(zm, ys, gz)
        return (lhs @ rhs) / gz

    def evaluate(self, x: float, y: float) -> float:
        """Pointwise value; a lazy product settles its z-integral under ``q``."""
        return float(self.eval_grid(np.array([x]), np.array([y]), 0)[0, 0])


def _clip_to(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    # matrix products of in-range factors can overshoot by float rounding only
    if values.min() < lo - 1e-9 or values.max() > hi + 1e-9:
        raise ValidationError("product values escape the expected range")
    return np.clip(values, lo, hi)


def _step_product(sa: StepGraphon, sb: StepGraphon, symmetric: bool, label: str) -> ProductGraphon:
    m = math.lcm(sa.n, sb.n)
    a = sa.refine(m // sa.n).values
    b = sb.refine(m // sb.n).values
    vals = (a @ b) / m
    proper = sa.lo >= 0.0 and sb.lo >= 0.0
    lo, hi = (0.0, 1.0) if proper else (-1.0, 1.0)
    vals = _clip_to(vals, lo, hi)
    if not symmetric:
        symmetric = float(np.max(np.abs(vals - vals.T))) <= 1e-12
    if not symmetric:
        # genuinely asymmetric kernel: exact matrix, but not a StepGraphon
        return ProductGraphon(label=label, symmetric=False, asym_values=vals)
    vals = 0.5 * (vals + vals.T)
    return ProductGraphon(label=label, symmetric=True, step=StepGraphon(m, vals, lo, hi))


def _factors_equal(ka, kb) -> bool:
    if ka is kb:
        return True
    sa, sb = ka.step_form(), kb.step_form()
    if sa is not None and sb is not None:
        return sa.n == sb.n and np.array_equal(sa.values, sb.values)
    la = getattr(ka, "label", None)
    return la is not None and la == getattr(kb, "label", None)


def product(a, b, q: QuadratureSpec = QuadratureSpec()) -> ProductGraphon:
    """Kernel product (a (.) b)(x, y) = integral of a(x, z) b(z, y) dz."""
    ka, kb = as_kernel(a), as_kernel(b)
    symmetric = _factors_equal(ka, kb)
    label = f"prod[{getattr(ka, 'label', '?')},{getattr(kb, 'label', '?')}]"
    sa, sb = ka.step_form(), kb.step_form()
    if sa is not None and sb is not None:
        return _step_product(sa, sb, symmetric, label)
    return ProductGraphon(label=label, symmetric=symmetric, left=ka, right=kb, q=q)


def power(w, k: int, q: QuadratureSpec = QuadratureSpec()):
    """k-fold self-product; exact matrix algebra (1/n)^(k-1) A^k for steps."""
    if k < 1:
        raise ValidationError("power exponent must be >= 1")
    if k == 1:
        return w
    kw = as_kernel(w)
    s = kw.step_form()
    label = f"pow[{getattr(kw, 'label', '?')},{k}]"
    if s is not None:
        vals = np.linalg.matrix_power(s.values, k) / float(s.n) ** (k - 1)
        vals = 0.5 * (vals + vals.T)
        lo, hi = (0.0, 1.0) if s.lo >= 0.0 else (-1.0, 1.0)
        vals = _clip_to(vals, lo, hi)
        return ProductGraphon(label=label, symmetric=True, step=StepGraphon(s.n, vals, lo, hi))
    node = kw
    for _ in range(k - 1):
        node = ProductGraphon(label=label, symmetric=True, left=node, right=kw, q=q)
    return node


# ---------------------------------------------------------------------------
# Cell averaging
# ---------------------------------------------------------------------------


def cell_means(w, m: int, q: QuadratureSpec, zero_diagonal: bool = False) -> np.ndarray:
    """Matrix of cell averages of w over the uniform m-grid, with refinement.

    Convergence is measured as the max absolute change of any cell entry
    between successive grid doublings (a zeroed diagonal never changes).
    """
    kernel = as_kernel(w)
    s = kernel.step_form()
    if s is not None and m % s.n == 0 and not zero_diagonal:
        return s.refine(m // s.n).values.copy()
    grain = grain_of(kernel)
    align = math.lcm(m, grain) if grain else m
    if align > LCM_GRID_CAP:
        align = m

    def cells_at(g: int) -> np.ndarray:
        xs = midpoints(g)
        vals = kernel.eval_grid(xs, xs, g)
        s_per = g // m
        cells = vals.reshape(m, s_per, m, s_per).mean(axis=(1, 3))
        cells = 0.5 * (cells + cells.T)
        if zero_diagonal:
            upper = np.triu(cells, 1)
            cells = upper + upper.T
        return cells

    g0 = ceil_to_multiple(q.base_grid, align)
    return settle(q, g0, cells_at, f"cell averages on the {m}-grid").value


def require_symmetric(kernel) -> None:
    """Reject a product proven asymmetric: no step graphon represents it."""
    if getattr(kernel, "asym_values", None) is not None:
        raise ValidationError(f"{kernel.label} is not symmetric, so it has no step graphon")


def discretize(w, m: int, q: QuadratureSpec = QuadratureSpec()) -> StepGraphon:
    """Step graphon of cell averages over the m-grid (diagonal included)."""
    if m < 1:
        raise ValidationError("discretization block count must be >= 1")
    kernel = as_kernel(w)
    require_symmetric(kernel)
    lo, hi = kernel.bounds() if hasattr(kernel, "bounds") else (0.0, 1.0)
    cells = cell_means(kernel, m, q, zero_diagonal=False)
    return StepGraphon(m, _clip_to(cells, lo, hi), lo, hi)
