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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import numpy as np

from . import rng
from .algebra import QuadratureSpec, cell_means
from .core import RANGE_TOL, LatentPoints, SimpleGraph, StepGraphon, as_kernel
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
        if self.n < 1:
            raise ValidationError("sampler needs n >= 1")


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


def _pair_probabilities(graphon, xs: np.ndarray) -> np.ndarray:
    kernel = as_kernel(graphon)
    p = kernel.eval_grid(xs, xs, 0)
    if not (np.min(p) >= -RANGE_TOL and np.max(p) <= 1.0 + RANGE_TOL):  # False on NaN too
        bad = np.argwhere(~np.isfinite(p))
        if len(bad):
            i, j = bad[0]
            raise ValidationError(
                f"edge probability of pair ({i}, {j}) is {p[i, j]}, not a number in [0, 1]; "
                "validate the graphon"
            )
        raise ValidationError("edge probabilities escape [0, 1]; validate the graphon")
    return np.clip(p, 0.0, 1.0)


def _edge_draw(cfg: SamplerConfig, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint arrays (i, j), i < j in lexicographic order, of one edge draw."""
    n = cfg.n
    p = _pair_probabilities(cfg.graphon, xs)
    iu, ju = np.triu_indices(n, 1)
    key = rng.derive_key(cfg.seed, _TAG_EDGES)
    u = rng.uniforms_at(key, iu.astype(np.uint64) * np.uint64(n) + ju.astype(np.uint64))
    hit = u < p[iu, ju]
    return iu[hit], ju[hit]


def sample_graph(cfg: SamplerConfig, latents) -> SimpleGraph:
    """Independent Bernoulli edges with probability W(x_i, x_j), i < j."""
    stratified = isinstance(latents, LatentPoints)
    xs = latents.xs if stratified else np.asarray(latents, float)
    if xs.shape != (cfg.n,):
        raise ValidationError(f"latents have shape {xs.shape}, expected ({cfg.n},)")
    if not stratified:  # stratified points lie in their strata by construction
        inside = (xs >= 0.0) & (xs <= 1.0)  # False on NaN
        if not inside.all():
            bad = int(np.argmin(inside))
            raise DomainError(f"latent {bad} = {xs[bad]} outside [0, 1]")
    return SimpleGraph(cfg.n, np.stack(_edge_draw(cfg, xs), axis=1))


def expected_graphon(w, n: int, q: QuadratureSpec = QuadratureSpec()) -> StepGraphon:
    """Exact-in-expectation step graphon of the sampling construction.

    Off-diagonal entry (i, j) is the average of W over the cell I_ij,
    computed by the shared quadrature engine; each cell value therefore lies
    between the infimum and supremum of W on its cell. Only i < j is
    computed; the matrix is mirrored and the diagonal set to zero.
    """
    if n < 1:
        raise ValidationError("expected graphon needs n >= 1")
    return StepGraphon(n, cell_means(w, n, q, zero_diagonal=True), 0.0, 1.0)


def mc_expected_graphon(cfg: SamplerConfig, draws: int) -> McEstimate:
    """Entrywise mean over independent draws, with standard errors.

    Each draw d re-samples latents and edges under ``draw_seed(seed, d)``, so
    the estimate is reproducible regardless of evaluation order. Standard
    errors use the unbiased Bernoulli formula sqrt(m(1-m)/(draws-1)) per
    entry (zero when draws == 1).
    """
    if draws < 1:
        raise ValidationError("draws must be >= 1")
    n = cfg.n
    counts = np.zeros((n, n))
    for d in range(draws):
        sub = replace(cfg, seed=draw_seed(cfg.seed, d))
        xs = sample_latents(sub).xs
        i, j = _edge_draw(sub, xs)
        counts[i, j] += 1.0
        counts[j, i] += 1.0
    mean = counts / draws
    if draws > 1:
        stderr = np.sqrt(mean * (1.0 - mean) / (draws - 1))
    else:
        stderr = np.zeros((n, n))
    return McEstimate(step=StepGraphon(n, mean, 0.0, 1.0), stderr=stderr, draws=draws)
