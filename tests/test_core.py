import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphonlab as gl
from graphonlab.errors import DomainError, ValidationError


def test_evaluate_constant():
    assert gl.evaluate(gl.constant(0.5), 0.3, 0.7) == 0.5


def test_evaluate_step_block_lookup():
    s = gl.StepGraphon(2, [[0.0, 1.0], [1.0, 0.0]])
    assert gl.evaluate(s, 0.25, 0.75) == 1.0
    # last block closed at 1
    assert gl.evaluate(s, 1.0, 1.0) == 0.0
    assert gl.evaluate(s, 1.0, 0.0) == 1.0
    # block boundaries are half-open
    assert gl.evaluate(s, 0.5, 0.5) == 0.0


def test_evaluate_expression_kernel():
    w = gl.from_expression("min(x,y)*(1-max(x,y))")
    assert gl.evaluate(w, 0.25, 0.5) == pytest.approx(0.125, abs=1e-15)


def test_evaluate_domain_error():
    with pytest.raises(DomainError):
        gl.evaluate(gl.constant(0.5), 1.2, 0.5)
    with pytest.raises(DomainError):
        gl.evaluate(gl.constant(0.5), 0.5, -0.1)


def test_builtin_catalog():
    assert gl.evaluate(gl.builtin("product"), 0.5, 0.4) == pytest.approx(0.2)
    assert gl.evaluate(gl.builtin("attachment"), 0.3, 0.6) == pytest.approx(0.4)
    assert gl.evaluate(gl.builtin("minmax"), 0.5, 0.5) == pytest.approx(0.25)
    with pytest.raises(ValidationError):
        gl.builtin("no-such-kernel")
    with pytest.raises(ValidationError):
        gl.builtin("product", p=0.5)


def test_canonical_graphon_examples():
    single = gl.SimpleGraph(2, frozenset({(0, 1)}))
    assert gl.canonical_graphon(single).values.tolist() == [[0, 1], [1, 0]]

    empty = gl.SimpleGraph(3, frozenset())
    assert np.array_equal(gl.canonical_graphon(empty).values, np.zeros((3, 3)))

    triangle = gl.SimpleGraph(3, frozenset({(0, 1), (0, 2), (1, 2)}))
    want = np.ones((3, 3)) - np.eye(3)
    assert np.array_equal(gl.canonical_graphon(triangle).values, want)


@given(
    n=st.integers(2, 12),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_canonical_graphon_roundtrips_to_graph(n, data):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picks = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    g = gl.SimpleGraph(n, frozenset(picks))
    assert gl.graph_from_step(gl.canonical_graphon(g)).edges == g.edges


def test_step_midpoint_agreement():
    s = gl.StepGraphon(3, np.array([[0.1, 0.2, 0.3], [0.2, 0.5, 0.4], [0.3, 0.4, 0.9]]))
    for i in range(3):
        for j in range(3):
            assert gl.evaluate(s, (i + 0.5) / 3, (j + 0.5) / 3) == s.values[i, j]


def test_step_graphon_invariants():
    with pytest.raises(ValidationError):
        gl.StepGraphon(2, [[0.0, 1.0], [0.5, 0.0]])  # asymmetric
    with pytest.raises(ValidationError):
        gl.StepGraphon(2, [[0.0, 2.0], [2.0, 0.0]])  # out of range
    with pytest.raises(ValidationError):
        gl.StepGraphon(2, [[0.0, -0.5], [-0.5, 0.0]], 0.0, 1.0)  # below declared lo


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_step_graphon_rejects_non_finite_entries(bad):
    with pytest.raises(ValidationError, match=r"non-finite entry at \(0, 1\)"):
        gl.StepGraphon(2, [[0.1, bad], [bad, 0.2]])


def test_simple_graph_invariants():
    with pytest.raises(ValidationError):
        gl.SimpleGraph(3, frozenset({(1, 1)}))
    with pytest.raises(ValidationError):
        gl.SimpleGraph(3, frozenset({(0, 5)}))


def test_simple_graph_normalizes_reversed_and_repeated_pairs():
    g = gl.SimpleGraph(4, [(2, 0), (0, 2), (3, 1), (0, 1), (1, 3)])
    assert g.edges == ((0, 1), (0, 2), (1, 3))
    assert g.edge_count == 3
    assert g.pairs.dtype == np.int64 and g.pairs.shape == (3, 2)


@given(n=st.integers(2, 12), data=st.data())
@settings(max_examples=40, deadline=None)
def test_simple_graph_matches_set_reference(n, data):
    vertex = st.integers(0, n - 1)
    raw = data.draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1])))
    want = tuple(sorted({(min(u, v), max(u, v)) for u, v in raw}))
    g = gl.SimpleGraph(n, raw)
    assert g.edges == want
    adj = np.zeros((n, n))
    for u, v in want:
        adj[u, v] = adj[v, u] = 1.0
    assert np.array_equal(g.adjacency(), adj)


def test_simple_graph_empty():
    for pairs in ([], frozenset(), np.zeros((0, 2), dtype=np.int64)):
        g = gl.SimpleGraph(3, pairs)
        assert g.edges == () and g.edge_count == 0 and g.pairs.shape == (0, 2)
        assert np.array_equal(g.adjacency(), np.zeros((3, 3)))


def test_simple_graph_rejects_negative_vertex():
    with pytest.raises(ValidationError, match="out of range"):
        gl.SimpleGraph(3, [(0, 1), (-1, 2)])


def test_simple_graph_array_input_equals_iterable_input():
    pairs = [(4, 1), (0, 3), (1, 2), (2, 4), (1, 4)]
    from_iter = gl.SimpleGraph(5, frozenset(pairs))
    from_array = gl.SimpleGraph(5, np.array(pairs, dtype=np.int32))
    assert np.array_equal(from_iter.pairs, from_array.pairs)
    assert from_iter.edges == from_array.edges
    assert np.array_equal(from_iter.adjacency(), from_array.adjacency())


def test_simple_graph_pairs_read_only_and_edges_sorted_view():
    g = gl.SimpleGraph(4, {(3, 2), (1, 0), (0, 3)})
    with pytest.raises(ValueError):
        g.pairs[0, 0] = 2
    assert g.edges == tuple(sorted(g.edges)) == ((0, 1), (0, 3), (2, 3))
    assert all(type(u) is int and type(v) is int for u, v in g.edges)


def test_latent_points_invariants():
    gl.LatentPoints(2, [0.25, 0.75])
    with pytest.raises(ValidationError):
        gl.LatentPoints(2, [0.75, 0.25])


def test_validate_constant_passes():
    report = gl.validate_graphon(gl.constant(0.5), samples=1000, seed=3)
    assert report.passed
    assert report.max_asymmetry == 0.0


def test_validate_rejects_asymmetric_expression():
    report = gl.validate_graphon(gl.from_expression("x"), samples=200, seed=3)
    assert not report.passed
    assert report.asymmetry_violations
    with pytest.raises(ValidationError):
        report.raise_if_failed()


def test_validate_rejects_range_violation_at_corner():
    report = gl.validate_graphon(gl.from_expression("2*x*y"), samples=200, seed=3)
    assert not report.passed
    assert any(x == 1.0 and y == 1.0 for x, y, _ in report.range_violations)
    # the clamped variant passes
    clamped = gl.validate_graphon(gl.from_expression("2*x*y", clamp=True), samples=200, seed=3)
    assert clamped.passed


@given(seed=st.integers(0, 2**32), x=st.floats(0, 1), y=st.floats(0, 1))
@settings(max_examples=60, deadline=None)
def test_accepted_specs_evaluate_symmetrically(seed, x, y):
    for w in (gl.builtin("product"), gl.builtin("minmax"), gl.builtin("attachment"),
              gl.symmetrize(gl.parse("x^2*y"))):
        assert abs(gl.evaluate(w, x, y) - gl.evaluate(w, y, x)) <= 1e-12


def test_eval_grid_matches_pointwise():
    xs = np.array([0.1, 0.6, 0.9])
    for w in (gl.builtin("minmax"), gl.from_expression("x*y"),
              gl.from_step(gl.StepGraphon(2, [[0.0, 1.0], [1.0, 0.0]]))):
        grid = w.eval_grid(xs, xs)
        for i, x in enumerate(xs):
            for j, y in enumerate(xs):
                assert grid[i, j] == pytest.approx(gl.evaluate(w, x, y), abs=1e-15)


def test_evaluate_dispatches_through_products_and_estimates():
    p2 = gl.power(gl.builtin("product"), 2)
    assert gl.evaluate(p2, 0.3, 0.8) == pytest.approx(0.3 * 0.8 / 3, abs=1e-6)
    assert gl.validate_graphon(p2, samples=100, seed=1).passed

    e = gl.expected_graphon(gl.builtin("minmax"), 4)
    assert gl.evaluate(e, 0.1, 0.6) == e.step.values[0, 2]
    assert gl.validate_graphon(e, samples=100, seed=1).passed

    mc = gl.mc_expected_graphon(gl.SamplerConfig(3, 5, gl.constant(1.0)), 2)
    assert gl.evaluate(mc, 0.1, 0.9) == 1.0
    assert gl.evaluate(mc, 0.1, 0.2) == 0.0


def test_from_step_returns_the_step():
    s = gl.StepGraphon(2, [[0.0, 1.0], [1.0, 0.0]])
    assert gl.from_step(s) is s
    with pytest.raises(ValidationError):
        gl.from_step(gl.StepGraphon(2, [[0.0, -0.5], [-0.5, 0.0]], -1.0, 1.0))


def test_evaluate_and_validate_plain_callable():
    def f(x, y):
        return x * y

    assert gl.evaluate(f, 0.3, 0.5) == pytest.approx(0.15, abs=1e-15)
    assert gl.evaluate(lambda x, y: min(x, y), 0.3, 0.5) == 0.3
    report = gl.validate_graphon(f, samples=100, seed=1)
    assert report.passed and report.max_asymmetry == 0.0
    assert not gl.validate_graphon(lambda x, y: x - y, samples=100, seed=1).passed
