import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphonlab as gl
from graphonlab.errors import ValidationError


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
    assert e.step.values.tolist() == [[0.0, 0.5], [0.5, 0.0]]


def test_expected_product_cell_is_product_of_means():
    e = gl.expected_graphon(gl.builtin("product"), 2)
    assert e.step.values[0, 1] == pytest.approx(0.25 * 0.75, abs=1e-12)
    assert e.step.values[0, 0] == 0.0


def test_expected_step_same_grid_is_identity_off_diagonal():
    s = gl.StepGraphon(3, np.array([[0.2, 0.4, 0.6], [0.4, 0.8, 0.5], [0.6, 0.5, 0.3]]))
    e = gl.expected_graphon(gl.from_step(s), 3)
    off = ~np.eye(3, dtype=bool)
    assert np.allclose(e.step.values[off], s.values[off], atol=1e-15)
    assert np.all(np.diag(e.step.values) == 0.0)


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
    e = gl.expected_graphon(w, n).step.values
    slack = 0.0 if name in ("product", "attachment") else math.sqrt(2) / (32 * n)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            lo, hi = _cell_bounds(w, n, i, j)
            assert e[i, j] >= lo - slack
            assert e[i, j] <= hi + slack


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
    exact = gl.expected_graphon(gl.constant(0.5), 4).step.values
    off = ~np.eye(4, dtype=bool)
    assert np.all(np.abs(est.step.values - exact)[off] <= 5.0 * est.stderr[off])
    assert np.all(est.stderr[off] > 0.0)


@pytest.mark.parametrize("name", ["constant", "product", "minmax", "attachment"])
def test_mc_within_five_sigma_for_every_builtin(name):
    w = gl.constant(0.5) if name == "constant" else gl.builtin(name)
    n, draws = 8, 10_000
    est = gl.mc_expected_graphon(gl.SamplerConfig(n, 20240801, w), draws)
    exact = gl.expected_graphon(w, n).step.values
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
