import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphonlab as gl
from graphonlab import core, rng, sampling
from graphonlab.core import _TILE, as_kernel
from graphonlab.errors import DomainError, ValidationError
from conftest import random_step


def cfg(n, seed, w=None):
    return gl.SamplerConfig(n, seed, w if w is not None else gl.constant(0.5))


def test_single_stratum():
    pts = gl.sample_latents(cfg(1, 42))
    assert pts.n == 1 and 0.0 <= pts.xs[0] < 1.0


def test_latents_deterministic():
    a = gl.sample_latents(cfg(4, 7))
    b = gl.sample_latents(cfg(4, 7))
    assert np.array_equal(a.xs, b.xs)
    c = gl.sample_latents(cfg(4, 8))
    assert not np.array_equal(a.xs, c.xs)


def test_latents_stratified_at_scale():
    pts = gl.sample_latents(cfg(1000, 12345))
    lo = np.arange(1000) / 1000
    hi = np.arange(1, 1001) / 1000
    assert np.all(pts.xs >= lo) and np.all(pts.xs < hi)


@given(n=st.integers(1, 64), seed=st.integers(-(2**63), 2**63))
@settings(max_examples=80, deadline=None)
def test_latents_stratified_property(n, seed):
    pts = gl.sample_latents(cfg(n, seed))
    idx = np.arange(n)
    assert np.all(pts.xs >= idx / n)
    assert np.all(pts.xs < (idx + 1) / n)
    assert np.all(np.diff(pts.xs) > 0)


def test_iid_latents_are_sorted_uniforms():
    xs = gl.sample_latents_iid(cfg(100, 3))
    assert np.all(np.diff(xs) >= 0)
    assert xs.min() >= 0.0 and xs.max() < 1.0


@pytest.mark.parametrize("xs, bad", [([-0.3, 0.7], 0), ([0.2, 1.8], 1), ([math.nan, 0.7], 0),
                                     ([0.2, math.inf], 1)])
def test_raw_latents_outside_the_unit_interval_are_refused(xs, bad):
    # on a step graphon these were read as cell -1, clamped into the last cell, or an
    # IndexError
    c = cfg(2, 1, gl.StepGraphon(2, [[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(DomainError, match=rf"^latent {bad} = {xs[bad]} outside \[0, 1\]$"):
        gl.sample_graph(c, np.array(xs))


@pytest.mark.parametrize("xs, why", [
    (["a", 0.7], "could not convert string to float: 'a'"),
    ([1j, 0.7], "got complex values"),
    (np.array([0.2 + 0j, 0.7]), "got complex values"),  # NumPy would drop the 0j
], ids=["string", "complex", "complex-array"])
def test_raw_latents_that_are_not_real_numbers_are_refused(xs, why):
    c = cfg(2, 1, gl.StepGraphon(2, [[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValidationError) as info:
        gl.sample_graph(c, xs)
    assert str(info.value) == f"latents must be real numbers: {why}"


def test_expected_graphon_refuses_n_below_1():
    with pytest.raises(ValidationError) as info:
        gl.expected_graphon(gl.builtin("minmax"), 0)
    assert str(info.value) == "expected graphon needs n >= 1"


def test_raw_latents_may_lie_on_the_ends_of_the_unit_interval():
    c = cfg(2, 1, gl.StepGraphon(2, [[0.0, 1.0], [1.0, 0.0]]))
    assert gl.sample_graph(c, np.array([0.0, 1.0])).edges == ((0, 1),)


def test_complete_and_empty_graphs():
    c = cfg(5, 11, gl.constant(1.0))
    g = gl.sample_graph(c, gl.sample_latents(c))
    assert g.edge_count == 10

    c0 = cfg(5, 11, gl.constant(0.0))
    g0 = gl.sample_graph(c0, gl.sample_latents(c0))
    assert g0.edge_count == 0


def test_graph_deterministic_under_seed():
    c = cfg(30, 99)
    g1 = gl.sample_graph(c, gl.sample_latents(c))
    g2 = gl.sample_graph(c, gl.sample_latents(c))
    assert g1.edges == g2.edges


def test_er_edge_count_within_clt_band():
    c = cfg(200, 2024)
    g = gl.sample_graph(c, gl.sample_latents(c))
    pairs = math.comb(200, 2)
    sigma = math.sqrt(pairs * 0.25)
    assert abs(g.edge_count - pairs / 2) <= 4.0 * sigma


def test_expected_constant_zero_diagonal():
    e = gl.expected_graphon(gl.constant(0.5), 2)
    assert e.values.tolist() == [[0.0, 0.5], [0.5, 0.0]]


def test_expected_product_cell_is_product_of_means():
    e = gl.expected_graphon(gl.builtin("product"), 2)
    assert e.values[0, 1] == pytest.approx(0.25 * 0.75, abs=1e-12)
    assert e.values[0, 0] == 0.0


def test_expected_step_same_grid_is_identity_off_diagonal():
    s = gl.StepGraphon(3, np.array([[0.2, 0.4, 0.6], [0.4, 0.8, 0.5], [0.6, 0.5, 0.3]]))
    e = gl.expected_graphon(s, 3)
    off = ~np.eye(3, dtype=bool)
    assert np.allclose(e.values[off], s.values[off], atol=1e-15)
    assert np.all(np.diag(e.values) == 0.0)


def _cell_bounds(w, n, i, j):
    """inf/sup estimate on cell (i, j): dense scan plus corners."""
    xs = i / n + np.linspace(0, 1 / n, 33)
    ys = j / n + np.linspace(0, 1 / n, 33)
    xs = np.clip(xs, 0.0, 1.0)
    ys = np.clip(ys, 0.0, 1.0)
    grid = w.eval_grid(xs, ys)
    return float(grid.min()), float(grid.max())


@pytest.mark.parametrize("name", ["product", "minmax", "attachment"])
@pytest.mark.parametrize("n", [3, 5])
def test_expected_entries_sandwiched_by_cell_bounds(name, n):
    w = gl.builtin(name)
    e = gl.expected_graphon(w, n).values
    slack = 0.0 if name in ("product", "attachment") else math.sqrt(2) / (32 * n)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            lo, hi = _cell_bounds(w, n, i, j)
            assert e[i, j] >= lo - slack
            assert e[i, j] <= hi + slack


@pytest.fixture
def variates(monkeypatch):
    """Counts the variates drawn through the attribute `rng.uniforms_at`; a caller that
    bound the function itself would draw past the counter."""
    seen = []
    draw = rng.uniforms_at

    def counted(key, counters):
        u = draw(key, counters)
        seen.append(u.size)
        return u

    monkeypatch.setattr(rng, "uniforms_at", counted)
    return seen


@pytest.mark.parametrize("n", [1, 2, 9])
def test_every_variate_is_drawn_through_uniforms_at(variates, n):
    c, pairs = cfg(n, 5, gl.builtin("minmax")), n * (n - 1) // 2
    gl.sample_graph(c, gl.sample_latents(c))
    assert sum(variates) == n + pairs  # one latent per stratum, one uniform per pair
    variates.clear()
    xs = gl.sample_latents_iid(c)
    assert sum(variates) == n
    variates.clear()
    gl.sample_graph(c, xs)  # the --iid path's edges
    assert sum(variates) == pairs
    variates.clear()
    gl.mc_expected_graphon(c, draws=3)
    assert sum(variates) == 3 * (n + pairs)


def test_mc_all_ones_has_zero_stderr():
    est = gl.mc_expected_graphon(cfg(4, 5, gl.constant(1.0)), draws=3)
    off = ~np.eye(4, dtype=bool)
    assert np.all(est.step.values[off] == 1.0)
    assert np.all(est.stderr == 0.0)


def test_mc_single_draw_is_one_canonical_sample():
    master = 77
    est = gl.mc_expected_graphon(cfg(6, master), draws=1)
    sub = cfg(6, gl.draw_seed(master, 0))
    g = gl.sample_graph(sub, gl.sample_latents(sub))
    assert np.array_equal(est.step.values, gl.canonical_graphon(g).values)
    assert np.all(est.stderr == 0.0)


def test_mc_consistency_with_exact_expectation():
    draws = 2000
    est = gl.mc_expected_graphon(cfg(4, 20240801), draws=draws)
    exact = gl.expected_graphon(gl.constant(0.5), 4).values
    off = ~np.eye(4, dtype=bool)
    assert np.all(np.abs(est.step.values - exact)[off] <= 5.0 * est.stderr[off])
    assert np.all(est.stderr[off] > 0.0)


@pytest.mark.parametrize("name", ["constant", "product", "minmax", "attachment"])
def test_mc_within_five_sigma_for_every_builtin(name):
    w = gl.constant(0.5) if name == "constant" else gl.builtin(name)
    n, draws = 8, 10_000
    est = gl.mc_expected_graphon(gl.SamplerConfig(n, 20240801, w), draws)
    exact = gl.expected_graphon(w, n).values
    off = ~np.eye(n, dtype=bool)
    assert np.all(np.abs(est.step.values - exact)[off] <= 5.0 * est.stderr[off])


def test_mc_deterministic():
    a = gl.mc_expected_graphon(cfg(5, 9), draws=50)
    b = gl.mc_expected_graphon(cfg(5, 9), draws=50)
    assert np.array_equal(a.step.values, b.step.values)
    assert np.array_equal(a.stderr, b.stderr)


def test_bad_inputs():
    with pytest.raises(ValidationError):
        gl.SamplerConfig(0, 1, gl.constant(0.5))
    with pytest.raises(ValidationError):
        gl.mc_expected_graphon(cfg(3, 1), draws=0)
    with pytest.raises(ValidationError):
        gl.sample_graph(cfg(3, 1), gl.sample_latents(cfg(4, 1)))


def test_sampler_names_a_non_finite_edge_probability():
    # exp overflows to inf at the far corner, and 0 * inf is NaN; the CLI refuses this
    # kernel before sampling, so its own check is pinned here
    w = gl.from_expression("0.5+0*exp(1000*x*y)")
    msg = r"^edge probability of pair \(9, 11\) is nan, not a number in \[0, 1\]"
    with pytest.raises(ValidationError, match=msg):
        gl.sample_graph(cfg(12, 1, w), gl.sample_latents(cfg(12, 1, w)))
    with pytest.raises(ValidationError, match="^edge probability of pair"):
        gl.mc_expected_graphon(cfg(12, 1, w), draws=3)


def test_lazy_product_sampling_matches_its_edge_density():
    # a lazy power evaluated without a z-grid settles its z-integral
    w = gl.power(gl.builtin("minmax"), 2)
    want = gl.integrate2d(w, gl.QuadratureSpec()).value
    n, seeds = 200, 10
    edges = 0
    for seed in range(seeds):
        c = cfg(n, seed, w)
        edges += gl.sample_graph(c, gl.sample_latents(c)).edge_count
    assert want == pytest.approx(1 / 120, abs=1e-4)
    assert abs(edges / (seeds * n * (n - 1) / 2) - want) <= 0.001

    est = gl.mc_expected_graphon(cfg(16, 3, w), draws=20)
    assert np.isfinite(est.step.values).all() and est.step.values.sum() > 0


# the first NaN of 0.5+0*exp(1000*x*y) is past the first 128-row block; 2*x*y escapes [0, 1]
# from row 300 on, a block before the first NaN of its sum, which must still win; the
# messages are those of the whole-matrix check the row blocks replaced
@pytest.mark.parametrize("source, n, draw, pair", [
    ("0.5+0*exp(1000*x*y)", 300, "sample", "(214, 298)"),
    ("0.5+0*exp(1000*x*y)", 300, "mc", "(213, 299)"),
    ("2*x*y+0*exp(1000*x*y)", 600, "sample", "(426, 599)"),
    ("2*x*y+0*exp(1000*x*y)", 600, "iid", "(430, 599)"),
])
def test_a_non_finite_probability_is_named_by_its_pair_in_any_block(source, n, draw, pair):
    c = cfg(n, 1, gl.from_expression(source))
    msg = rf"^edge probability of pair {re.escape(pair)} is nan, not a number in \[0, 1\]; "
    with pytest.raises(ValidationError, match=msg):
        if draw == "mc":
            gl.mc_expected_graphon(c, draws=2)
        else:
            latents = gl.sample_latents(c) if draw == "sample" else gl.sample_latents_iid(c)
            gl.sample_graph(c, latents)


def test_the_earlier_block_of_the_nan_case_escapes_the_unit_interval():
    c = cfg(600, 1, gl.from_expression("2*x*y+0*exp(1000*x*y)"))
    xs = gl.sample_latents(c).xs
    early = c.graphon.eval_grid(xs[256:384], xs)  # the third block of rows
    assert np.isfinite(early).all() and early.max() > 1.0


def test_a_probability_outside_the_unit_interval_is_refused_in_any_block():
    c = cfg(300, 1, gl.from_expression("2*x*y"))
    with pytest.raises(ValidationError, match=r"^edge probabilities escape \[0, 1\]"):
        gl.sample_graph(c, gl.sample_latents(c))


def _whole_matrix_draw(c, xs):
    """The edge draw on the whole n x n matrix of probabilities at once."""
    n = c.n
    p = np.clip(as_kernel(c.graphon).eval_grid(xs, xs, 0), 0.0, 1.0)
    iu, ju = np.triu_indices(n, 1)
    key = rng.derive_key(c.seed, sampling._TAG_EDGES)
    u = rng.uniforms_at(key, iu.astype(np.uint64) * np.uint64(n) + ju.astype(np.uint64))
    hit = u < p[iu, ju]
    return iu[hit], ju[hit]


_DRAW_KERNELS = {
    "minmax": gl.builtin("minmax"),
    "exp": gl.from_expression("exp(-abs(x-y))*x*y"),  # transcendental ufuncs on short rows
    "step": random_step(5, key=7, signed=False),
    "lazy_power": gl.power(gl.builtin("minmax"), 2),
}


@pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 255, 256, 257, 300])
@pytest.mark.parametrize("kernel, iid", [
    *((name, False) for name in _DRAW_KERNELS), ("minmax", True),
], ids=[*_DRAW_KERNELS, "minmax_iid"])
def test_the_blocked_draw_gives_the_edges_of_the_whole_matrix_draw(n, kernel, iid):
    c = cfg(n, 11, _DRAW_KERNELS[kernel])
    xs = gl.sample_latents_iid(c) if iid else gl.sample_latents(c).xs
    got, want = gl.sample_graph(c, xs).pairs, np.stack(_whole_matrix_draw(c, xs), axis=1)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_the_blocked_mc_estimate_is_the_mean_of_whole_matrix_draws():
    c = cfg(200, 8, gl.builtin("minmax"))
    counts = np.zeros((200, 200))
    for d in range(3):
        sub = replace(c, seed=gl.draw_seed(c.seed, d))
        i, j = _whole_matrix_draw(sub, gl.sample_latents(sub).xs)
        counts[i, j] += 1.0
        counts[j, i] += 1.0
    mean = counts / 3
    est = gl.mc_expected_graphon(c, draws=3)
    assert est.step.values.tobytes() == mean.tobytes()
    assert est.stderr.tobytes() == np.sqrt(mean * (1.0 - mean) / 2).tobytes()


def test_the_mc_estimate_draws_through_sample_graph(monkeypatch):
    draw, seeds = sampling.sample_graph, []

    def counting(cfg, latents):
        seeds.append(cfg.seed)
        return draw(cfg, latents)

    monkeypatch.setattr(sampling, "sample_graph", counting)
    c = cfg(40, 5, gl.builtin("minmax"))
    gl.mc_expected_graphon(c, draws=3)
    assert seeds == [gl.draw_seed(c.seed, d) for d in range(3)]


def test_a_draw_holds_no_full_grid(peak_bytes):
    c = cfg(2048, 1, gl.builtin("minmax"))
    pts = gl.sample_latents(c)
    # the whole-matrix draw held about 28 bytes a pair: 112 MiB; a 128-row block is 15 MiB
    assert peak_bytes(lambda: gl.sample_graph(c, pts)) < 24 * 2**20


def test_a_draw_holds_its_edge_list_once(peak_bytes):
    c = cfg(8192, 3, gl.builtin("minmax"))
    pts = gl.sample_latents(c)
    graphs = []
    peak = peak_bytes(lambda: graphs.append(gl.sample_graph(c, pts)))
    # each block's hits are int32 offsets until one expansion: 20 bytes an edge; the join of
    # the blocks' (E, 2) hits held two edge lists, 2.0 times the edges' bytes
    assert peak <= 1.5 * graphs[0].pairs.nbytes


@pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 300])
@pytest.mark.parametrize("kernel", ["constant(0)", "constant(1)", "minmax"])
def test_a_draw_builds_a_normalized_edge_array_without_checking_it(n, kernel, monkeypatch):
    w = {"constant(0)": gl.constant(0.0), "constant(1)": gl.constant(1.0),
         "minmax": gl.builtin("minmax")}[kernel]
    c = cfg(n, 3, w)
    xs = gl.sample_latents(c)
    calls = []
    post, normalized = core.SimpleGraph.__post_init__, core._is_normalized
    monkeypatch.setattr(core.SimpleGraph, "__post_init__",
                        lambda self: calls.append("__post_init__") or post(self))
    monkeypatch.setattr(core, "_is_normalized",
                        lambda e, n: calls.append("_is_normalized") or normalized(e, n))
    pairs = gl.sample_graph(c, xs).pairs
    assert calls == []
    assert pairs.dtype == np.int64 and pairs.ndim == 2 and pairs.shape[1] == 2
    assert pairs.flags.c_contiguous and not pairs.flags.writeable
    assert normalized(pairs, n)
    assert pairs.tobytes() == core._normalize(pairs, n).tobytes()
    if kernel != "minmax":
        assert len(pairs) == (n * (n - 1) // 2 if kernel == "constant(1)" else 0)


class _CountingMinmax:
    """minmax through the kernel protocol, counting the points it is read at."""

    step = None

    def __init__(self):
        self.points = 0

    def eval_grid(self, xs, ys, gz):
        self.points += len(xs) * len(ys)
        return gl.builtin("minmax").eval_grid(xs, ys, gz)


@pytest.mark.parametrize("n", [300, 2048])
def test_a_draw_reads_the_diagonal_tiles_and_the_columns_to_their_right(variates, n):
    w = _CountingMinmax()
    c = cfg(n, 4, w)
    pts = gl.sample_latents(c)
    variates.clear()
    g = gl.sample_graph(c, pts)
    # a whole-matrix read is n * n points; a block of _TILE rows reads from its diagonal on
    assert w.points <= n * (n + 1) // 2 + n * _TILE // 2
    assert sum(variates) == n * (n - 1) // 2  # one uniform per pair i < j, and no other
    want = gl.sample_graph(cfg(n, 4, gl.builtin("minmax")), pts)
    assert g.pairs.tobytes() == want.pairs.tobytes()


@pytest.mark.parametrize("bad", [2.0, math.nan])
def test_a_kernel_bad_only_far_below_the_diagonal_is_drawn_and_refused_by_validation(bad):
    # pairs more than 127 rows below the diagonal lie in no block's read, so the draw never
    # sees them; validate_graphon, which every command runs first, still refuses the kernel
    def below(x, y):
        return np.where(x > y + 0.5, bad, 0.5)

    c = cfg(300, 1, below)
    xs = gl.sample_latents(c).xs
    got, want = gl.sample_graph(c, xs).pairs, np.stack(_whole_matrix_draw(c, xs), axis=1)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    with pytest.raises(ValidationError, match="^below is not"):
        gl.validate_graphon(below)


class _RowRecordingKernel:
    """A kernel through the kernel protocol that records how many rows each read has."""

    step = None

    def __init__(self, kernel):
        self.kernel, self.rows = kernel, []

    def eval_grid(self, xs, ys, gz):
        self.rows.append(len(xs))
        return self.kernel.eval_grid(xs, ys, gz)


@pytest.mark.parametrize("rows", [1, 3, 5])
@pytest.mark.parametrize("kernel", sorted(_DRAW_KERNELS))
def test_a_draw_in_blocks_of_a_few_rows_keeps_the_whole_matrix_draw(kernel, rows, monkeypatch):
    n = 131  # a prime: no block size divides it
    c = cfg(n, 13, _DRAW_KERNELS[kernel])
    xs = gl.sample_latents(c).xs
    default = gl.sample_graph(c, xs).pairs
    monkeypatch.setattr(core, "_BLOCK_BYTES", rows * 8 * n)
    w = _RowRecordingKernel(as_kernel(c.graphon))
    got = gl.sample_graph(replace(c, graphon=w), xs).pairs
    if kernel != "lazy_power":  # a lazy product is read whole, once, and sliced
        assert w.rows == [rows] * (n // rows) + [n % rows] * (n % rows > 0)
    want = np.stack(_whole_matrix_draw(c, xs), axis=1)
    assert got.tobytes() == default.tobytes() == want.tobytes()


def test_a_draw_takes_its_block_rows_from_the_byte_budget(monkeypatch):
    w = _RowRecordingKernel(gl.builtin("minmax"))
    for n, rows in [(20, [20]), (300, [109, 109, 82]), (2048, [16] * 128)]:
        w.rows.clear()
        c = cfg(n, 2, w)
        gl.sample_graph(c, gl.sample_latents(c))
        assert w.rows == rows  # 256 KiB of float64 rows: 109 at n = 300, 16 at n = 2048
