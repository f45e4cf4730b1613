"""Domain types: graphon kernels, step graphons, graphs, latent points.

Step functions live on the uniform n-grid of [0,1]^2 with half-open blocks
[i/n, (i+1)/n); the last block is closed at 1, so evaluation is defined on
the whole unit square without measure-zero ambiguity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import rng
from .errors import DomainError, ValidationError

SYMMETRY_TOL = 1e-12
RANGE_TOL = 1e-12


def _as_square_float_matrix(values) -> np.ndarray:
    m = np.array(values, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    return m


def cell_index(x, n: int):
    """Block index of x in the uniform n-grid (last block closed at 1)."""
    return np.minimum(np.floor(np.asarray(x) * n).astype(np.int64), n - 1)


@dataclass(frozen=True, eq=False)
class StepGraphon:
    """Symmetric step function on the uniform n-grid.

    Signed entries are permitted (declared via lo/hi) so that differences of
    graphons are first-class step objects; proper graphons use [0, 1].
    """

    n: int
    values: np.ndarray
    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self):
        m = _as_square_float_matrix(self.values)
        if m.shape[0] != self.n:
            raise ValidationError(f"declared n={self.n} but matrix is {m.shape[0]}x{m.shape[0]}")
        if not (-1.0 <= self.lo <= self.hi <= 1.0):
            raise ValidationError(f"declared range [{self.lo}, {self.hi}] not inside [-1, 1]")
        if not np.isfinite(m).all():
            i, j = np.argwhere(~np.isfinite(m))[0]
            raise ValidationError(f"non-finite entry at ({i}, {j})")
        if not np.array_equal(m, m.T):
            i, j = np.argwhere(m != m.T)[0]
            raise ValidationError(f"matrix not symmetric at ({i}, {j})")
        if m.min() < self.lo - RANGE_TOL or m.max() > self.hi + RANGE_TOL:
            raise ValidationError(
                f"entries in [{m.min()}, {m.max()}] exceed declared range [{self.lo}, {self.hi}]"
            )
        m.setflags(write=False)
        object.__setattr__(self, "values", m)

    @property
    def label(self) -> str:
        return f"step(n={self.n})"

    def evaluate(self, x: float, y: float) -> float:
        return float(self.values[int(cell_index(x, self.n)), int(cell_index(y, self.n))])

    def eval_grid(self, xs, ys, gz: int = 0) -> np.ndarray:
        ix = cell_index(xs, self.n)
        iy = cell_index(ys, self.n)
        return self.values[np.ix_(ix, iy)]

    def step_form(self) -> "StepGraphon":
        return self

    def refine(self, factor: int) -> "StepGraphon":
        """Exact representation on the (n*factor)-grid."""
        if factor < 1:
            raise ValidationError("refine factor must be >= 1")
        if factor == 1:
            return self
        big = np.kron(self.values, np.ones((factor, factor)))
        return StepGraphon(self.n * factor, big, self.lo, self.hi)


@dataclass(frozen=True, eq=False)
class SimpleGraph:
    """Undirected simple graph. ``pairs`` is a read-only (E, 2) int64 array of
    the edges (i, j), i < j, in lexicographic order; ``edges`` is its tuple view.
    Any iterable of pairs or int array is accepted and normalized."""

    n: int
    pairs: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("graph needs at least one vertex")
        raw = self.pairs if isinstance(self.pairs, np.ndarray) else list(self.pairs)
        e = np.array(raw, dtype=np.int64).reshape(len(raw), 2)
        lo, hi = e.min(axis=1), e.max(axis=1)
        loops = lo == hi
        if loops.any():
            raise ValidationError(f"self-loop at vertex {lo[loops.argmax()]}")
        bad = (lo < 0) | (hi >= self.n)
        if bad.any():
            u, v = e[bad.argmax()]
            raise ValidationError(f"edge ({u}, {v}) out of range for n={self.n}")
        # sort-and-compare dedupe: np.unique would import numpy.ma on first use
        keys = np.sort(lo * self.n + hi)
        keys = keys[np.diff(keys, prepend=-1) != 0]
        pairs = np.stack((keys // self.n, keys % self.n), axis=1)
        pairs.setflags(write=False)
        object.__setattr__(self, "pairs", pairs)

    @property
    def edges(self) -> tuple:
        return tuple(zip(self.pairs[:, 0].tolist(), self.pairs[:, 1].tolist()))

    @property
    def edge_count(self) -> int:
        return len(self.pairs)

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        i, j = self.pairs.T
        a[i, j] = a[j, i] = 1.0
        return a


@dataclass(frozen=True, eq=False)
class LatentPoints:
    """One latent coordinate per stratum: xs[i] in [i/n, (i+1)/n)."""

    n: int
    xs: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=np.float64)
        if xs.shape != (self.n,):
            raise ValidationError(f"expected {self.n} latent points, got shape {xs.shape}")
        lo = np.arange(self.n) / self.n
        hi = np.arange(1, self.n + 1) / self.n
        if np.any(xs < lo) or np.any(xs >= hi):
            bad = int(np.argmax((xs < lo) | (xs >= hi)))
            raise ValidationError(f"latent {bad} = {xs[bad]} outside its stratum")
        xs.setflags(write=False)
        object.__setattr__(self, "xs", xs)


# ---------------------------------------------------------------------------
# Graphon specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Builtin:
    fn: Callable
    sup: float
    lipschitz: float


def _constant_fn(p):
    def fn(x, y):
        return np.full(np.broadcast(np.asarray(x), np.asarray(y)).shape, p)

    return fn


_BUILTINS = {
    "product": _Builtin(lambda x, y: np.asarray(x) * np.asarray(y), 1.0, 1.0),
    "minmax": _Builtin(
        lambda x, y: np.minimum(x, y) * (1.0 - np.maximum(x, y)), 0.25, 1.0
    ),
    "attachment": _Builtin(lambda x, y: 1.0 - np.maximum(x, y), 1.0, 1.0),
}


@dataclass(frozen=True, eq=False)
class GraphonSpec:
    """A kernel on [0,1]^2 defined by a builtin or an expression.

    ``fn`` evaluates on broadcastable float arrays. ``sup_bound`` is an upper
    bound on |W| and ``lipschitz`` the rate constant used in convergence
    bounds (None when unknown).
    """

    label: str
    fn: Callable
    step: Optional[StepGraphon] = None
    clamp: bool = False
    sup_bound: float = 1.0
    lipschitz: Optional[float] = None

    def eval_grid(self, xs, ys, gz: int = 0) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        out = np.asarray(self.fn(xs[:, None], ys[None, :]), dtype=np.float64)
        out = np.broadcast_to(out, (xs.shape[0], ys.shape[0]))
        if self.clamp:
            out = np.clip(out, 0.0, 1.0)
        return out

    def step_form(self) -> Optional[StepGraphon]:
        return self.step


def _arrays_or_points(fn):
    """fn on broadcast arrays, or point by point where it takes scalars only."""

    def on_arrays(x, y):
        try:
            shape = np.broadcast_shapes(np.shape(x), np.shape(y))
            return np.broadcast_to(np.asarray(fn(x, y), dtype=np.float64), shape)
        except (TypeError, ValueError):
            return np.vectorize(lambda a, b: fn(float(a), float(b)), otypes=[np.float64])(x, y)

    return on_arrays


def as_kernel(obj):
    """Coerce graphon-like objects to the eval_grid/step_form protocol; a plain
    callable f(x, y) becomes a GraphonSpec labelled with its name."""
    if hasattr(obj, "eval_grid") and hasattr(obj, "step_form"):
        return obj
    if isinstance(getattr(obj, "step", None), StepGraphon):
        return obj.step
    if callable(obj):
        return GraphonSpec(label=getattr(obj, "__name__", "kernel"), fn=_arrays_or_points(obj))
    raise TypeError(f"not a graphon-like object: {type(obj).__name__}")


def constant(p: float) -> GraphonSpec:
    if not (0.0 <= p <= 1.0):
        raise ValidationError(f"constant level {p} outside [0, 1]")
    return GraphonSpec(
        label=f"constant({p:g})",
        fn=_constant_fn(float(p)),
        step=StepGraphon(1, [[float(p)]]),
        sup_bound=float(p),
        lipschitz=0.0,
    )


def builtin(name: str, **params) -> GraphonSpec:
    """Catalog lookup: constant(p), product, minmax, attachment."""
    if name == "constant":
        if set(params) != {"p"}:
            raise ValidationError("builtin 'constant' takes exactly the parameter p")
        return constant(params["p"])
    if params:
        raise ValidationError(f"builtin '{name}' takes no parameters")
    if name not in _BUILTINS:
        known = ", ".join(["constant"] + sorted(_BUILTINS))
        raise ValidationError(f"unknown builtin '{name}' (known: {known})")
    b = _BUILTINS[name]
    return GraphonSpec(label=name, fn=b.fn, sup_bound=b.sup, lipschitz=b.lipschitz)


def builtin_names() -> list[str]:
    return ["constant"] + sorted(_BUILTINS)


def from_step(step: StepGraphon) -> StepGraphon:
    """The step itself, once its values are checked to lie in [0, 1]."""
    if step.lo < 0.0:
        raise ValidationError("a graphon needs values in [0, 1]; got a signed step")
    return step


def evaluate(w, x: float, y: float) -> float:
    """Pointwise kernel value, read off a 1x1 grid evaluation (so a lazy product
    settles its z-integral); raises DomainError outside the unit square."""
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise DomainError(f"point ({x}, {y}) outside the unit square")
    return float(as_kernel(w).eval_grid(np.array([float(x)]), np.array([float(y)]), 0)[0, 0])


def canonical_graphon(g: SimpleGraph) -> StepGraphon:
    """Step graphon whose block values are the adjacency matrix of g."""
    return StepGraphon(g.n, g.adjacency(), 0.0, 1.0)


def graph_from_step(s: StepGraphon) -> SimpleGraph:
    """Inverse of canonical_graphon for 0/1 matrices with zero diagonal."""
    v = s.values
    if not np.all((v == 0.0) | (v == 1.0)):
        raise ValidationError("step values are not all 0/1")
    if np.any(np.diag(v) != 0.0):
        raise ValidationError("nonzero diagonal block; not a simple-graph graphon")
    return SimpleGraph(s.n, np.argwhere(np.triu(v, 1)))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@dataclass
class ValidationReport:
    label: str
    samples: int
    passed: bool
    max_asymmetry: float
    range_violations: list = field(default_factory=list)
    asymmetry_violations: list = field(default_factory=list)

    def raise_if_failed(self):
        if not self.passed:
            details = []
            for x, y, v in self.range_violations[:5]:
                details.append(f"range: W({x:.6g},{y:.6g})={v:.6g}")
            for x, y, d in self.asymmetry_violations[:5]:
                details.append(f"asymmetry {d:.3g} at ({x:.6g},{y:.6g})")
            raise ValidationError(f"{self.label}: " + "; ".join(details))


_CORNERS = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (0.5, 0.5)]

# additive low-discrepancy recurrence (R2 sequence, plastic-constant steps)
_R2_A1 = 0.7548776662466927
_R2_A2 = 0.5698402909980532


def validation_points(samples: int, seed: int):
    """Corner points plus a seeded quasi-random filling of the square."""
    key = rng.derive_key(seed, 11)
    ox = rng.uniform01(key, 0)
    oy = rng.uniform01(key, 1)
    k = np.arange(1, samples + 1)
    xs = np.mod(ox + _R2_A1 * k, 1.0)
    ys = np.mod(oy + _R2_A2 * k, 1.0)
    pts = list(_CORNERS)
    pts.extend(zip(xs.tolist(), ys.tolist()))
    return pts

def validate_graphon(w, samples: int = 1000, seed: int = 0) -> ValidationReport:
    """Check range and symmetry at quasi-random points (corners included)."""
    if samples < 1:
        raise ValidationError("samples must be >= 1")
    label = getattr(w, "label", "graphon")
    max_asym = 0.0
    range_bad = []
    asym_bad = []
    for x, y in validation_points(samples, seed):
        v = evaluate(w, x, y)
        vt = evaluate(w, y, x)
        d = abs(v - vt)
        max_asym = max(max_asym, d)
        if d > SYMMETRY_TOL:
            asym_bad.append((x, y, d))
        if not (math.isfinite(v)) or v < -RANGE_TOL or v > 1.0 + RANGE_TOL:
            range_bad.append((x, y, v))
    return ValidationReport(
        label=label,
        samples=samples,
        passed=not range_bad and not asym_bad,
        max_asymmetry=max_asym,
        range_violations=range_bad,
        asymmetry_violations=asym_bad,
    )
