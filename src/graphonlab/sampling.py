"""Stratified graph sampling and expected graphons.

The construction: split [0,1] into n equal strata, draw one uniform latent
point per stratum, and connect distinct vertices i != j independently with
probability W(x_i, x_j). The associated expected graphon is the StepGraphon
whose off-diagonal block (i, j) carries the average of W over the cell
I_ij = [i/n,(i+1)/n) x [j/n,(j+1)/n) and whose diagonal blocks are zero
(no self-loops). A Monte-Carlo estimate is a result record, not a kernel: its
mean is the StepGraphon ``est.step``.

Randomness is fully deterministic: all variates come from the counter-based
generator in :mod:`graphonlab.rng`. Latents for a config use the stream
``derive_key(seed, 1)`` at counters 0..n-1; pair uniforms use
``derive_key(seed, 2)`` at counter i*n + j for the pair (i, j), i < j. Draw d
of a Monte-Carlo run uses the sub-seed ``draw_seed(seed, d)``; latents are
resampled every draw, since the expectation ranges over latents and edges.

`sample_graph` is the one edge draw: `mc_expected_graphon`, the CLI and the
sweeps all take its ``SimpleGraph.pairs``, the (E, 2) int64 array of the edges
in lexicographic order. Edges are drawn a block of t = ``core.block_rows(n)``
rows at a time, as many n-wide float64 rows as fit in 256 KiB (16 at n = 2048,
so that a block's few temporaries stay in L2), and only the pairs i < j enter
the draw, so only they are read: the block of rows [lo, lo + t) reads
W(x[lo:lo + t], x[lo:]) through `algebra._row_blocks` (a lazy product whole,
once per draw, and sliced), its diagonal tile and the columns to the tile's
right, about n^2/2 points in all. It draws the tile's pairs above the diagonal
and the whole rectangle to its right at those same counters, so every variate
and edge is the one a whole-matrix draw gives, in the same order, whatever t
is, and a draw at n = 2048 peaks at about 3.4 MiB, 2.7 of them its edge list.
The tile's pairs (i, j), i < j, are built once per tile size and kept, not
once per draw, and the last block, which has no rectangle to its right, draws
none, so a draw at n <= 181, whose block holds all n rows, is one tile. Each
block keeps its hits as flat offsets into the block, in row-major order, and
they are expanded once into one (E, 2) array, so the edge list is held once
(20 bytes an edge at the peak). Its edges are sorted and distinct by
construction, so the draw builds its `SimpleGraph` without re-checking them.
A non-finite probability is named by its pair, and wins over an out-of-range
one, wherever the blocks hold them; a value below the diagonal outside the
diagonal tiles is never read, and `validate_graphon`, not the sampler, refuses
a kernel that is bad only there.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import chain

import numpy as np

from . import rng
from .algebra import QuadratureSpec, _row_blocks, cell_means
from .core import (
    RANGE_TOL, LatentPoints, SimpleGraph, StepGraphon, _as_reals, _check_count, _trusted,
    as_kernel, block_rows,
)
from .errors import DomainError, ValidationError

_TAG_LATENTS = 1
_TAG_EDGES = 2
_TAG_DRAW = 4


@dataclass(frozen=True)
class SamplerConfig:
    n: int
    seed: int
    graphon: object

    def __post_init__(self):
        _check_count(self.n, "sampler n", 1, "sampler needs n >= 1")


@dataclass(frozen=True, eq=False)
class McEstimate:
    """Entrywise Monte-Carlo mean of sampled canonical graphons."""

    step: StepGraphon
    stderr: np.ndarray
    draws: int


def draw_seed(master_seed: int, draw_index: int) -> int:
    """Sub-seed for one Monte-Carlo draw (counter-mode hash of the master)."""
    return rng.derive_key(master_seed, _TAG_DRAW, draw_index)


def sample_latents(cfg: SamplerConfig) -> LatentPoints:
    """One uniform latent per stratum; identical seeds give identical points."""
    n = cfg.n
    key = rng.derive_key(cfg.seed, _TAG_LATENTS)
    u = rng.uniform_block(key, n)
    idx = np.arange(n)
    xs = (idx + u) / n
    # keep strictly inside the half-open stratum even if the sum rounded up
    upper = np.nextafter((idx + 1) / n, 0.0)
    return LatentPoints(n, np.minimum(xs, upper))


def sample_latents_iid(cfg: SamplerConfig) -> np.ndarray:
    """Classical i.i.d. uniform latents (comparison only, not stratified)."""
    key = rng.derive_key(cfg.seed, _TAG_LATENTS)
    return np.sort(rng.uniform_block(key, cfg.n))


def _refuse(blocks):
    """Raise for the first non-finite probability in the blocks left, in row-major order (so
    a NaN in a later block wins over an escape in this one), or else for a probability
    outside [0, 1]. For a symmetric kernel that is the first NaN of the whole matrix."""
    for lo, p in blocks:
        bad = np.argwhere(~np.isfinite(p))
        if len(bad):
            i, j = bad[0]
            raise ValidationError(
                f"edge probability of pair ({lo + i}, {lo + j}) is {p[i, j]}, not a number in "
                "[0, 1]; validate the graphon"
            )
    raise ValidationError("edge probabilities escape [0, 1]; validate the graphon")


@lru_cache(maxsize=16)
def _tile_pairs_above(rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (r, c), r < c, of a rows x rows tile in row-major order (read-only), built
    once per tile size: a draw has at most two sizes, its block's and the last one's."""
    r, c = np.triu_indices(rows, 1)
    r.setflags(write=False)
    c.setflags(write=False)
    return r, c


def sample_graph(cfg: SamplerConfig, latents) -> SimpleGraph:
    """Independent Bernoulli edges with probability W(x_i, x_j), i < j: pair (i, j) is an
    edge when the uniform at counter i*n + j is below W(x_i, x_j). Read and drawn
    `core.block_rows(n)` rows at a time: a block's pairs are those of its diagonal tile
    above the diagonal and the whole rectangle to the tile's right, once every probability
    the block read lies in [0, 1] within RANGE_TOL; 0 <= u < 1 compares with an unclipped p
    as with its clip."""
    stratified = isinstance(latents, LatentPoints)
    xs = latents.xs if stratified else _as_reals(latents, "latents")
    if xs.shape != (cfg.n,):
        raise ValidationError(f"latents have shape {xs.shape}, expected ({cfg.n},)")
    if not stratified:  # stratified points lie in their strata by construction
        inside = (xs >= 0.0) & (xs <= 1.0)  # False on NaN
        if not inside.all():
            bad = int(np.argmin(inside))
            raise DomainError(f"latent {bad} = {xs[bad]} outside [0, 1]")
    n = cfg.n
    key = rng.derive_key(cfg.seed, _TAG_EDGES)
    tile = block_rows(n)
    read = _row_blocks(as_kernel(cfg.graphon), xs, 0, tile, upper=True)
    blocks = zip(range(0, n, tile), read)
    offset = np.int32 if tile * n < 2**31 else np.int64  # a block's offsets lie below tile * n
    hits = []
    for lo, p in blocks:
        if not (np.min(p) >= -RANGE_TOL and np.max(p) <= 1.0 + RANGE_TOL):  # False on NaN too
            _refuse(chain([(lo, p)], blocks))
        rows = len(p)
        hit = np.zeros(p.shape, dtype=bool)  # hit[r, c]: the pair (lo + r, lo + c) is an edge
        r, c = _tile_pairs_above(rows)
        hit[r, c] = rng.uniforms_at(key, (lo + r) * n + (lo + c)) < p[r, c]
        if lo + rows < n:  # the rectangle right of the tile; the last block has none
            r = np.arange(lo, lo + rows, dtype=np.uint64)[:, None] * np.uint64(n)
            c = np.arange(lo + rows, n, dtype=np.uint64)
            hit[:, rows:] = rng.uniforms_at(key, r + c) < p[:, rows:]
        hits.append(np.flatnonzero(hit).astype(offset, copy=False))  # row-major: lexicographic
    pairs = np.empty((sum(map(len, hits)), 2), dtype=np.int64)
    at = 0
    for lo, off in zip(range(0, n, tile), hits):
        edges = pairs[at:at + len(off)]
        np.divmod(off, n - lo, out=(edges[:, 0], edges[:, 1]))  # the block is n - lo wide
        edges += lo
        at += len(off)
    return _trusted(SimpleGraph, n=n, pairs=pairs)


def expected_graphon(w, n: int, q: QuadratureSpec = QuadratureSpec()) -> StepGraphon:
    """Exact-in-expectation step graphon of the sampling construction.

    Off-diagonal entry (i, j) is the average of W over the cell I_ij,
    computed by the shared quadrature engine; each cell value therefore lies
    between the infimum and supremum of W on its cell. Only i < j is
    computed; the matrix is mirrored and the diagonal set to zero.
    """
    _check_count(n, "expected graphon n", 1, "expected graphon needs n >= 1")
    return StepGraphon(n, cell_means(w, n, q, zero_diagonal=True), 0.0, 1.0)


def mc_expected_graphon(cfg: SamplerConfig, draws: int) -> McEstimate:
    """Entrywise mean over independent draws, with standard errors.

    Each draw d re-samples latents and edges under ``draw_seed(seed, d)``, so
    the estimate is reproducible regardless of evaluation order. Standard
    errors use the unbiased Bernoulli formula sqrt(m(1-m)/(draws-1)) per
    entry (zero when draws == 1).
    """
    _check_count(draws, "draws", 1)
    n = cfg.n
    counts = np.zeros((n, n))
    for d in range(draws):
        sub = replace(cfg, seed=draw_seed(cfg.seed, d))
        i, j = sample_graph(sub, sample_latents(sub)).pairs.T
        counts[i, j] += 1.0
        counts[j, i] += 1.0
    mean = counts / draws
    if draws > 1:
        stderr = np.sqrt(mean * (1.0 - mean) / (draws - 1))
    else:
        stderr = np.zeros((n, n))
    return McEstimate(step=StepGraphon(n, mean, 0.0, 1.0), stderr=stderr, draws=draws)
