"""Domain types: graphon kernels, step graphons, graphs, latent points.

Step functions live on the uniform n-grid of [0,1]^2 with half-open blocks
[i/n, (i+1)/n); the last block is closed at 1, so evaluation is defined on
the whole unit square without measure-zero ambiguity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, ValidationError

RANGE_TOL = 1e-12


def _trusted(cls, **fields):
    """A frozen core value built from fields that are valid by construction, without its
    __post_init__ checks; its array fields are made read-only, as the checks would leave
    them. Only for values built here from already checked ones, never from outside input."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, name, value)
    return obj


# Side of the square tiles in which a transposed pass reads a matrix. A transposed tile
# walks its rows one cache line each, a row's stride apart; at n = 2048 (16 KiB rows) the
# passes ran 1.7x slower in 256-row tiles than in 128-row ones, on 2 vCPUs of a SkylakeX.
_TILE = 128

# Bytes of one block of a row-block pass (the edge draw, the kernel reads of the cell
# averages and of a lazy square, settle's comparison): a few float64 or uint64 temporaries
# of this size stay in a 2 MiB L2 at once. The 2048-grid of minmax took 52 ms in 128-row
# blocks (2 MiB each) and 14 ms in 16-row ones, on 2 vCPUs of a SkylakeX.
_BLOCK_BYTES = 1 << 18


def block_rows(width: int) -> int:
    """Rows of ``width`` float64 entries that fit in _BLOCK_BYTES: at least one."""
    return max(1, _BLOCK_BYTES // (8 * max(1, width)))


def tile_pairs(n: int) -> list[tuple[slice, slice]]:
    """(rows, cols) slices of the _TILE x _TILE tiles on and above the diagonal of an n x n
    matrix. A transposed pass reads tile [cols, rows] against tile [rows, cols], so both
    stay in cache, where ``m.T`` would walk a whole column at a row's stride per entry."""
    tiles = [slice(lo, lo + _TILE) for lo in range(0, n, _TILE)]
    return [(r, c) for i, r in enumerate(tiles) for c in tiles[i:]]


def is_symmetric(m: np.ndarray) -> bool:
    """np.array_equal(m, m.T), a tile pair at a time: False at the first unequal pair, and
    for a NaN anywhere (a NaN on the diagonal equals no transpose either)."""
    return all(np.array_equal(m[r, c], m[c, r].T) for r, c in tile_pairs(m.shape[0]))


def asymmetry(m: np.ndarray) -> float:
    """max |m - m.T|, a tile pair at a time: no n x n temporary. The max does not depend
    on the order, and a NaN anywhere makes it NaN."""
    gaps = []
    for r, c in tile_pairs(m.shape[0]):
        d = m[r, c] - m[c, r].T
        gaps.append(np.abs(d, out=d).max())
    return float(np.max(gaps))


def sym_mean(m: np.ndarray) -> np.ndarray:
    """(m + m.T) / 2 into m itself, which it returns: a tile pair at a time (a tile's sum is
    taken before either tile of its pair is overwritten), halved once at the end. Each entry
    is the same one addition and one halving, so the bytes do not depend on the tile order.
    Its callers own m: a matrix they built.

    Writes nothing when m equals its transpose bit for bit: each entry's result is
    (a + a) * 0.5, which is a, so m already holds the result's bytes (an |a| above half the
    float range, where a + a overflowed to inf, is now kept). The test compares bits, not
    values, because a -0.0 facing a 0.0 is equal in value but sums to 0.0 on both sides."""
    if is_symmetric(m.view(np.uint64)):
        return m
    for r, c in tile_pairs(m.shape[0]):
        upper = m[r, c] + m[c, r].T
        if r != c:
            np.add(m[c, r], m[r, c].T, out=m[c, r])
        m[r, c] = upper
    m *= 0.5
    return m


def _check_count(value, what: str, least: int, refusal: Optional[str] = None) -> None:
    """Refuse, with a ValidationError, a count that is not an int or NumPy integer (a float
    would be truncated, or fail deep inside NumPy) or that is below ``least``; ``refusal``
    replaces the message "{what} must be >= {least}"."""
    if not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    if value < least:
        raise ValidationError(refusal or f"{what} must be >= {least}")


def _as_reals(values, what: str) -> np.ndarray:
    """values as a float64 array, or a ValidationError naming ``what`` for entries that are
    not real numbers: a string, a complex or a ragged row."""
    try:
        if np.iscomplexobj(values):  # NumPy would drop an array's imaginary part
            raise TypeError("got complex values")
        return np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} must be real numbers: {exc}") from None


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
        m = np.array(_as_reals(self.values, "step values"))  # a copy of its own
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValidationError(f"expected a square matrix, got shape {m.shape}")
        if m.shape[0] != self.n:
            raise ValidationError(f"declared n={self.n} but matrix is {m.shape[0]}x{m.shape[0]}")
        if not (-1.0 <= self.lo <= self.hi <= 1.0):
            raise ValidationError(f"declared range [{self.lo}, {self.hi}] not inside [-1, 1]")
        low, high = m.min(), m.max()  # a NaN or an infinity reaches one of them
        if not (np.isfinite(low) and np.isfinite(high)):
            i, j = np.argwhere(~np.isfinite(m))[0]
            raise ValidationError(f"non-finite entry at ({i}, {j})")
        if not is_symmetric(m):
            i, j = np.argwhere(m != m.T)[0]
            raise ValidationError(f"matrix not symmetric at ({i}, {j})")
        if low < self.lo - RANGE_TOL or high > self.hi + RANGE_TOL:
            raise ValidationError(
                f"entries in [{low}, {high}] exceed declared range [{self.lo}, {self.hi}]"
            )
        m.setflags(write=False)
        object.__setattr__(self, "values", m)

    @property
    def label(self) -> str:
        return f"step(n={self.n})"

    def eval_grid(self, xs, ys, gz: int = 0) -> np.ndarray:
        ix = cell_index(xs, self.n)
        iy = cell_index(ys, self.n)
        return self.values[np.ix_(ix, iy)]

    @property
    def step(self) -> "StepGraphon":  # the kernel protocol's step form
        return self

    def refine(self, factor: int) -> "StepGraphon":
        """Exact representation on the (n*factor)-grid: each value repeated in a factor x
        factor block, so still finite, symmetric and in range."""
        _check_count(factor, "refine factor", 1)
        if factor == 1:
            return self
        big = spread(self.values, factor)
        return _trusted(StepGraphon, n=self.n * factor, values=big, lo=self.lo, hi=self.hi)


def spread(values: np.ndarray, factor: int) -> np.ndarray:
    """The (n*factor)-square matrix that repeats each value in a factor x factor block: the
    bits of ``np.kron(values, np.ones((factor, factor)))`` for float64 values, by one
    broadcast copy into a new C-ordered array. Returns values itself at factor 1."""
    if factor == 1:
        return values
    n = len(values)
    out = np.empty((n * factor, n * factor))
    out.reshape(n, factor, n, factor)[...] = values[:, None, :, None]
    return out


def _is_normalized(e: np.ndarray, n: int) -> bool:
    """Whether the (E, 2) int64 array e is what `_normalize` returns: edges 0 <= i < j < n
    in strictly increasing lexicographic order. O(E), with boolean temporaries only."""
    if len(e) == 0:
        return True
    i, j = e[:, 0], e[:, 1]
    later = i[1:] > i[:-1]
    later |= (i[1:] == i[:-1]) & (j[1:] > j[:-1])
    return bool(i[0] >= 0 and (i < j).all() and (j < n).all() and later.all())


def _normalize(e: np.ndarray, n: int) -> np.ndarray:
    """The edges of e as (min, max) pairs, sorted and deduplicated; a self-loop or a vertex
    outside [0, n) is refused."""
    lo, hi = e.min(axis=1), e.max(axis=1)
    loops = lo == hi
    if loops.any():
        raise ValidationError(f"self-loop at vertex {lo[loops.argmax()]}")
    bad = (lo < 0) | (hi >= n)
    if bad.any():
        u, v = e[bad.argmax()]
        raise ValidationError(f"edge ({u}, {v}) out of range for n={n}")
    # sort-and-compare dedupe: np.unique would import numpy.ma on first use
    keys = np.sort(lo * n + hi)
    keys = keys[np.diff(keys, prepend=-1) != 0]
    return np.stack((keys // n, keys % n), axis=1)


@dataclass(frozen=True, eq=False)
class SimpleGraph:
    """Undirected simple graph. ``pairs`` is a read-only (E, 2) int64 array of
    the edges (i, j), i < j, in lexicographic order; ``edges`` is its tuple view.
    Any iterable of integer pairs or (E, 2) integer array is accepted and normalized; one
    that is already normalized is checked in O(E) and kept in its order. The edge draw
    builds its graph without these checks: its edges are normalized by construction."""

    n: int
    pairs: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("graph needs at least one vertex")
        try:
            e = np.array(self.pairs if isinstance(self.pairs, np.ndarray) else list(self.pairs))
        except ValueError:  # pairs of unequal lengths
            raise ValidationError(
                "expected (E, 2) vertex pairs, got pairs of unequal lengths"
            ) from None
        except TypeError:  # not iterable: a number, None
            raise ValidationError(f"expected (E, 2) vertex pairs, got {self.pairs!r}") from None
        if e.shape[:1] == (0,):  # no pairs, whatever the input's dtype
            e = np.empty((0, 2), dtype=np.int64)
        elif e.ndim != 2 or e.shape[1] != 2:
            raise ValidationError(f"expected (E, 2) vertex pairs, got shape {e.shape}")
        elif e.dtype.kind not in "iu":
            raise ValidationError(f"vertices must be integers, got dtype {e.dtype}")
        e = e.astype(np.int64, copy=False)
        pairs = e if _is_normalized(e, self.n) else _normalize(e, self.n)
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
        xs = _as_reals(self.xs, "latent points")
        if xs.shape != (self.n,):
            raise ValidationError(f"expected {self.n} latent points, got shape {xs.shape}")
        lo = np.arange(self.n) / self.n
        hi = np.arange(1, self.n + 1) / self.n
        inside = (xs >= lo) & (xs < hi)  # False on NaN
        if not inside.all():
            bad = int(np.argmin(inside))
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

    ``fn`` evaluates on broadcastable float arrays; ``step`` is the exact step form, where
    there is one (a constant), else None. ``sup_bound`` is an upper
    bound on |W| and ``lipschitz`` the rate constant used in convergence
    bounds (None when unknown).
    """

    label: str
    fn: Callable
    step: Optional[StepGraphon] = None
    sup_bound: float = 1.0
    lipschitz: Optional[float] = None

    def eval_grid(self, xs, ys, gz: int = 0) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        out = np.asarray(self.fn(xs[:, None], ys[None, :]), dtype=np.float64)
        return np.broadcast_to(out, (xs.shape[0], ys.shape[0]))


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
    """An object with the kernel protocol's two attributes, ``eval_grid(xs, ys, gz)`` and
    ``step`` (its exact StepGraphon, or None), as it is, or a plain callable f(x, y) as a
    GraphonSpec labelled with its name; nothing else is a kernel (a McEstimate has a
    ``step`` but no ``eval_grid``)."""
    if hasattr(obj, "eval_grid") and hasattr(obj, "step"):
        return obj
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


def evaluate(w, x: float, y: float) -> float:
    """The one point read of a kernel: its 1x1 grid evaluation without a z-grid (so a
    lazy product settles its z-integral); raises DomainError outside the unit square."""
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise DomainError(f"point ({x}, {y}) outside the unit square")
    return float(as_kernel(w).eval_grid(np.array([float(x)]), np.array([float(y)]), 0)[0, 0])


def canonical_graphon(g: SimpleGraph) -> StepGraphon:
    """Step graphon whose block values are the adjacency matrix of g, kept without a copy
    and not re-checked: the 0/1 adjacency of a simple graph is symmetric by construction."""
    return _trusted(StepGraphon, n=g.n, values=g.adjacency(), lo=0.0, hi=1.0)
