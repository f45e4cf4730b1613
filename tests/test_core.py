import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphonlab as gl
from graphonlab import core
from graphonlab.core import asymmetry, is_symmetric, sym_mean
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
    v = gl.canonical_graphon(g).values
    assert gl.SimpleGraph(n, np.argwhere(np.triu(v, 1))).edges == g.edges


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


# one min and one max find every NaN and infinity; the checks still run non-finite first,
# then symmetry, then range, whatever else the matrix holds
@pytest.mark.parametrize("values, msg", [
    ([[0.1, math.inf], [0.3, 0.2]], r"^non-finite entry at \(0, 1\)$"),
    ([[0.1, 0.3], [-math.inf, 0.2]], r"^non-finite entry at \(1, 0\)$"),
    ([[-math.inf, math.inf], [math.inf, 0.2]], r"^non-finite entry at \(0, 0\)$"),
    ([[0.1, 0.3], [math.nan, 0.2]], r"^non-finite entry at \(1, 0\)$"),
    ([[0.1, -math.inf], [math.nan, 0.2]], r"^non-finite entry at \(0, 1\)$"),
    ([[0.1, 2.0], [0.3, 0.2]], r"^matrix not symmetric at \(0, 1\)$"),
    ([[0.1, 0.3], [0.4, -0.5]], r"^matrix not symmetric at \(0, 1\)$"),
], ids=["inf", "-inf", "both-infs", "asymmetric-nan", "nan-and-inf", "asymmetric-high",
        "asymmetric-low"])
def test_step_graphon_checks_finite_then_symmetric_then_range(values, msg):
    with pytest.raises(ValidationError, match=msg):
        gl.StepGraphon(2, values)


def _symmetric(n: int) -> np.ndarray:
    u = np.random.default_rng(n).random((n, n))
    return 0.5 * (u + u.T)


def _one_pair(n: int, where: str):
    """(i, j) of one asymmetric pair: in a diagonal tile, in an off-diagonal tile, or
    against the last (partial) tile, at the tile size the transposed passes use."""
    t = core._TILE
    return {"diagonal": (1, 0), "off-diagonal": (2, t + 3), "last": (n - 1, 0)}[where]


_PAIR_CASES = [(n, where) for n in (255, 256, 257, 513, 2048)
               for where in ("diagonal", "off-diagonal", "last")
               if max(_one_pair(n, where)) < n]


def _check_against_the_whole_matrix_passes(m):
    assert is_symmetric(m) == np.array_equal(m, m.T)
    np.testing.assert_array_equal(asymmetry(m), np.abs(m - m.T).max())  # NaN equals NaN
    got = sym_mean(m.copy())
    assert got.flags.c_contiguous and got.tobytes() == ((m + m.T) * 0.5).tobytes()


@pytest.mark.parametrize("n", [1, 255, 256, 257, 513, 2048])
def test_tiled_symmetry_helpers_match_the_transposed_passes_on_symmetric_matrices(n):
    m = _symmetric(n)
    assert is_symmetric(m)
    _check_against_the_whole_matrix_passes(m)
    m[n // 2, n // 3], m[n // 3, n // 2] = -0.0, 0.0  # -0.0 == 0.0, and sums to 0.0
    assert is_symmetric(m)
    _check_against_the_whole_matrix_passes(m)


@pytest.mark.parametrize("n, where", _PAIR_CASES, ids=[f"{n}-{w}" for n, w in _PAIR_CASES])
def test_tiled_symmetry_helpers_find_one_asymmetric_pair(n, where):
    m = _symmetric(n)
    i, j = _one_pair(n, where)
    m[i, j] += 0.25
    assert not is_symmetric(m)
    _check_against_the_whole_matrix_passes(m)


@pytest.mark.parametrize("n", [1, 257, 513])
def test_a_nan_is_never_symmetric(n):
    for i, j in {(0, 0), (n - 1, n - 1), (0, n - 1)}:  # a pair of NaNs, or one on the diagonal
        m = _symmetric(n)
        m[i, j] = m[j, i] = np.nan
        assert not is_symmetric(m)
        _check_against_the_whole_matrix_passes(m)


def _with_pair(n: int, kind: str) -> np.ndarray:
    """A symmetric matrix with one mirrored pair (n - 1, 0), across tiles when n > 256, set
    so that it is bitwise symmetric ("same", "nan-pair") or only equal in value or not at all
    ("signed-zeros", "one-nan", "one-ulp")."""
    m = _symmetric(n)
    i, j = n - 1, 0
    if kind == "signed-zeros":
        m[i, j], m[j, i] = -0.0, 0.0
    elif kind == "nan-pair":
        m[i, j] = m[j, i] = np.nan
    elif kind == "one-nan":
        m[i, j] = np.nan
    elif kind == "one-ulp":
        m[i, j] = np.nextafter(m[j, i], np.inf)
    return m


@pytest.mark.parametrize("kind, bitwise", [("same", True), ("nan-pair", True),
                                           ("signed-zeros", False), ("one-nan", False),
                                           ("one-ulp", False)])
@pytest.mark.parametrize("n", [2, 257, 513])
def test_sym_mean_returns_its_input_only_when_it_is_bitwise_symmetric(n, kind, bitwise):
    m = _with_pair(n, kind)
    want = ((m + m.T) * 0.5).tobytes()
    m.setflags(write=not bitwise)  # a bitwise symmetric input is handed back unwritten
    got = sym_mean(m)
    assert got is m
    assert got.tobytes() == want
    if kind == "signed-zeros":  # both sides of the pair are +0.0, as the sum makes them
        assert got[n - 1, 0].tobytes() == got[0, n - 1].tobytes() == np.float64(0.0).tobytes()


def test_step_graphon_names_the_first_asymmetric_entry():
    m = _symmetric(300)
    m[40, 9] += 0.125  # the lower entry comes first in row order
    m[2, 280] += 0.125  # across tiles, and in an earlier row
    with pytest.raises(ValidationError, match=r"^matrix not symmetric at \(2, 280\)$"):
        gl.StepGraphon(300, m)
    m[2, 280] = m[280, 2]
    with pytest.raises(ValidationError, match=r"^matrix not symmetric at \(9, 40\)$"):
        gl.StepGraphon(300, m)


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
    for pairs in ([], frozenset(), np.zeros((0, 2), dtype=np.int64), np.zeros((0, 2))):
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


def _drawn_pairs(n: int) -> np.ndarray:
    """A writable copy of the sorted edges of a minmax draw."""
    c = gl.SamplerConfig(n, 3, gl.builtin("minmax"))
    return np.array(gl.sample_graph(c, gl.sample_latents(c)).pairs)


@pytest.mark.parametrize("kind", ["sorted", "unsorted", "duplicated", "reversed", "frozenset",
                                  "empty"])
def test_normalized_edges_keep_the_bytes_of_the_sort(kind, monkeypatch):
    n, e = 60, _drawn_pairs(60)
    raw = {
        "sorted": e,
        "unsorted": e[np.random.default_rng(1).permutation(len(e))],
        "duplicated": np.concatenate([e, e[::3]]),
        "reversed": e[:, ::-1],  # every pair as (j, i), in the sorted order
        "frozenset": frozenset(map(tuple, e.tolist())),
        "empty": np.zeros((0, 2), dtype=np.int64),
    }[kind]
    sorts = []
    normalize = core._normalize
    monkeypatch.setattr(core, "_normalize", lambda e, n: sorts.append(n) or normalize(e, n))
    got = gl.SimpleGraph(n, raw).pairs
    want = np.array(sorted({(min(u, v), max(u, v)) for u, v in np.array(list(raw)).tolist()}),
                    dtype=np.int64).reshape(-1, 2)
    assert got.dtype == np.int64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert not sorts if kind in ("sorted", "empty") else sorts == [n]


@pytest.mark.parametrize("pairs, msg", [
    ([(0, 1), (2, 2), (3, 4)], r"^self-loop at vertex 2$"),
    ([(0, 1), (1, 5)], r"^edge \(1, 5\) out of range for n=5$"),
    ([(-1, 0), (0, 1)], r"^edge \(-1, 0\) out of range for n=5$"),
])
def test_a_sorted_edge_list_is_still_checked(pairs, msg):
    for raw in (pairs, np.array(pairs)):
        with pytest.raises(ValidationError, match=msg):
            gl.SimpleGraph(5, raw)


def test_a_callers_edge_array_is_neither_aliased_nor_made_read_only():
    e = _drawn_pairs(40)
    g = gl.SimpleGraph(40, e)
    assert not np.shares_memory(g.pairs, e) and not g.pairs.flags.writeable
    assert e.flags.writeable
    e[0] = (38, 39)  # the graph does not see it
    assert g.pairs[0].tolist() != [38, 39]


def test_a_normalized_edge_array_costs_one_copy(peak_bytes):
    e = _drawn_pairs(2048)
    # the sort path held about 4.6 times the input: a copy, lo/hi, the keys, the pairs
    assert peak_bytes(lambda: gl.SimpleGraph(2048, e)) <= 1.5 * e.nbytes


def test_simple_graph_pairs_read_only_and_edges_sorted_view():
    g = gl.SimpleGraph(4, {(3, 2), (1, 0), (0, 3)})
    with pytest.raises(ValueError):
        g.pairs[0, 0] = 2
    assert g.edges == tuple(sorted(g.edges)) == ((0, 1), (0, 3), (2, 3))
    assert all(type(u) is int and type(v) is int for u, v in g.edges)


def test_latent_points_invariants():
    gl.LatentPoints(2, [0.25, 0.75])
    for xs, bad in (([0.75, 0.25], 0), ([math.nan, 0.7], 0), ([0.2, math.nan], 1),
                    ([0.2, math.inf], 1), ([-0.3, 0.7], 0)):
        with pytest.raises(ValidationError, match=rf"^latent {bad} = {xs[bad]} outside its"):
            gl.LatentPoints(2, xs)


def test_validate_constant_passes():
    assert gl.validate_graphon(gl.constant(0.5)) is None


def test_validate_rejects_asymmetric_expression():
    with pytest.raises(ValidationError, match="^x is not symmetric: max"):
        gl.validate_graphon(gl.from_expression("x"))


def test_validate_rejects_range_violation_at_corner():
    with pytest.raises(ValidationError, match=r"^2\*x\*y is not in \[0, 1\]: W\(") as exc:
        gl.validate_graphon(gl.from_expression("2*x*y"))
    assert float(str(exc.value).rsplit("= ", 1)[1]) > 1.0  # the value, in full
    # the clamped variant passes
    gl.validate_graphon(gl.from_expression("2*x*y", clamp=True))
    # a step is checked on its own values, at its cell midpoints
    signed = gl.StepGraphon(2, [[0.0, -0.5], [-0.5, 0.0]], -1.0, 1.0)
    with pytest.raises(ValidationError, match=r"^step\(n=2\) is not in .*W\(0.25, 0.75\) = -0.5$"):
        gl.validate_graphon(signed)


@given(seed=st.integers(0, 2**32), x=st.floats(0, 1), y=st.floats(0, 1))
@settings(max_examples=60, deadline=None)
def test_accepted_specs_evaluate_symmetrically(seed, x, y):
    for w in (gl.builtin("product"), gl.builtin("minmax"), gl.builtin("attachment"),
              gl.from_expression("x^2*y", symmetrize=True)):
        assert abs(gl.evaluate(w, x, y) - gl.evaluate(w, y, x)) <= 1e-12


def test_eval_grid_matches_pointwise():
    xs = np.array([0.1, 0.6, 0.9])
    for w in (gl.builtin("minmax"), gl.from_expression("x*y"),
              gl.StepGraphon(2, [[0.0, 1.0], [1.0, 0.0]])):
        grid = w.eval_grid(xs, xs)
        for i, x in enumerate(xs):
            for j, y in enumerate(xs):
                assert grid[i, j] == pytest.approx(gl.evaluate(w, x, y), abs=1e-15)


def test_evaluate_dispatches_through_products_and_estimates():
    p2 = gl.power(gl.builtin("product"), 2)
    assert gl.evaluate(p2, 0.3, 0.8) == pytest.approx(0.3 * 0.8 / 3, abs=1e-6)
    gl.validate_graphon(p2)

    e = gl.expected_graphon(gl.builtin("minmax"), 4)
    assert gl.evaluate(e, 0.1, 0.6) == e.values[0, 2]
    gl.validate_graphon(e)

    mc = gl.mc_expected_graphon(gl.SamplerConfig(3, 5, gl.constant(1.0)), 2)
    assert gl.evaluate(mc.step, 0.1, 0.9) == 1.0
    assert gl.evaluate(mc.step, 0.1, 0.2) == 0.0


def test_evaluate_and_validate_plain_callable():
    def f(x, y):
        return x * y

    assert gl.evaluate(f, 0.3, 0.5) == pytest.approx(0.15, abs=1e-15)
    assert gl.evaluate(lambda x, y: min(x, y), 0.3, 0.5) == 0.3
    gl.validate_graphon(f)
    with pytest.raises(ValidationError, match="^<lambda> is not symmetric"):
        gl.validate_graphon(lambda x, y: x - y)


def test_canonical_graphon_keeps_its_adjacency_without_a_copy(peak_bytes):
    c = gl.SamplerConfig(2048, 1, gl.builtin("minmax"))
    g = gl.sample_graph(c, gl.sample_latents(c))
    # the adjacency is 32 MiB; a copy was 32 MiB more
    assert peak_bytes(lambda: gl.canonical_graphon(g)) < 40 * 2**20


def test_the_public_step_constructor_still_runs_every_check():
    s = gl.canonical_graphon(gl.SimpleGraph(3, [(0, 1)]))
    assert not s.values.flags.writeable
    for values, msg in [([[0.0, 1.0], [0.0, 0.0]], r"not symmetric at \(0, 1\)"),
                        ([[0.0, math.nan], [math.nan, 0.0]], r"non-finite entry at \(0, 1\)"),
                        ([[0.0, 2.0], [2.0, 0.0]], "exceed declared range"),
                        ([[0.0, 1.0]], "expected a square matrix"),
                        ([[0.1, "a"], ["a", 0.1]],
                         r"^step values must be real numbers: could not convert string to "
                         r"float: .*'a'")]:
        for raw in (values, np.array(values)):
            with pytest.raises(ValidationError, match=msg):
                gl.StepGraphon(len(values), raw)


def _built_from_checked_values():
    """(build, the public constructor's value) for each step value that core builds from
    already checked ones without re-checking it."""
    c = gl.SamplerConfig(300, 3, gl.builtin("minmax"))
    g = gl.sample_graph(c, gl.sample_latents(c))
    e = gl.expected_graphon(gl.builtin("minmax"), 7)
    signed = gl.StepGraphon(3, [[0.0, -0.5, 0.25], [-0.5, -0.0, 1.0], [0.25, 1.0, -1.0]],
                            -1.0, 1.0)
    yield pytest.param(lambda: gl.canonical_graphon(g), gl.StepGraphon(300, g.adjacency()),
                       id="canonical")
    yield pytest.param(lambda: e.refine(3),
                       gl.StepGraphon(21, np.kron(e.values, np.ones((3, 3)))), id="refine")
    yield pytest.param(lambda: signed.refine(np.int64(2)),
                       gl.StepGraphon(6, np.kron(signed.values, np.ones((2, 2))), -1.0, 1.0),
                       id="refine-signed")
    yield pytest.param(lambda: signed.refine(5),
                       gl.StepGraphon(15, np.kron(signed.values, np.ones((5, 5))), -1.0, 1.0),
                       id="refine-signed-5")
    one = gl.StepGraphon(1, [[-0.0]], -1.0, 1.0)
    yield pytest.param(lambda: one.refine(5),
                       gl.StepGraphon(5, np.kron(one.values, np.ones((5, 5))), -1.0, 1.0),
                       id="refine-one-block-5")


@pytest.mark.parametrize("build, want", _built_from_checked_values())
def test_values_built_from_checked_ones_match_the_public_constructor_unchecked(
        build, want, monkeypatch):
    calls = []
    post = core.StepGraphon.__post_init__
    monkeypatch.setattr(core.StepGraphon, "__post_init__",
                        lambda self: calls.append("__post_init__") or post(self))
    monkeypatch.setattr(core, "is_symmetric", lambda m: calls.append("is_symmetric") or True)
    got = build()
    assert calls == []
    assert type(got) is gl.StepGraphon and (got.n, got.lo, got.hi) == (want.n, want.lo, want.hi)
    assert got.values.dtype == want.values.dtype and got.values.shape == want.values.shape
    assert got.values.tobytes() == want.values.tobytes()
    assert got.values.flags.c_contiguous and not got.values.flags.writeable
    gl.StepGraphon(2, [[0.0, 1.0], [1.0, 0.0]])  # the counters see the public constructor
    assert calls == ["__post_init__", "is_symmetric"]


@pytest.mark.parametrize("factor", [2.5, 2.0, "2", None])
def test_refine_refuses_a_factor_that_is_not_an_integer(factor):
    with pytest.raises(ValidationError, match=r"^refine factor must be an integer, got "):
        gl.constant(0.5).step.refine(factor)


def _count_entry_points():
    """(what, value, call) for every public entry point that takes a count; `refine` and
    `QuadratureSpec` have tests of their own."""
    step, w = gl.constant(0.5).step, gl.builtin("minmax")
    cfg = gl.SamplerConfig(4, 1, w)
    yield "power exponent", 2.0, lambda: gl.power(step, 2.0)
    yield "power exponent", 2.5, lambda: gl.power(w, 2.5)
    yield "power k", 2.0, lambda: gl.run_theorem_sweep(w, 2.0, [4], seed=1)
    yield "discretization block count", 4.5, lambda: gl.discretize(w, 4.5)
    yield "expected graphon n", 4.5, lambda: gl.expected_graphon(w, 4.5)
    yield "draws_per_n", 2.5, lambda: gl.run_counterexample_sweep(0.5, [4], 2.5)
    yield "draws", 2.5, lambda: gl.mc_expected_graphon(cfg, 2.5)
    yield "restarts", 2.5, lambda: gl.cut_norm_lower_bound(step, restarts=2.5)
    yield "restarts", "3", lambda: gl.cut_norm_auto(step, restarts="3")
    yield "restarts", 2.0, lambda: gl.cut_distance_upper_via_discretization(w, 4, restarts=2.0)
    yield "sampler n", 4.5, lambda: gl.SamplerConfig(4.5, 1, w)


@pytest.mark.parametrize("what, value, call", [
    pytest.param(*case, id=f"{case[0]}-{case[1]!r}") for case in _count_entry_points()])
def test_every_count_must_be_an_integer(what, value, call):
    with pytest.raises(ValidationError, match=f"^{what} must be an integer, got {value!r}$"):
        call()


@pytest.mark.parametrize("raw, msg", [
    ([(0, 1.7)], r"^vertices must be integers, got dtype float64$"),
    (np.array([[0.5, 1.9]]), r"^vertices must be integers, got dtype float64$"),
    ([(True, False)], r"^vertices must be integers, got dtype bool$"),
    (np.array([[0, 1]], dtype=bool), r"^vertices must be integers, got dtype bool$"),
    ([(0, 1, 2)], r"^expected \(E, 2\) vertex pairs, got shape \(1, 3\)$"),
    (np.zeros((2, 3), int), r"^expected \(E, 2\) vertex pairs, got shape \(2, 3\)$"),
    (np.array([0, 1]), r"^expected \(E, 2\) vertex pairs, got shape \(2,\)$"),
    ([(0, 1), (2,)], r"^expected \(E, 2\) vertex pairs, got pairs of unequal lengths$"),
    (5, r"^expected \(E, 2\) vertex pairs, got 5$"),
    (None, r"^expected \(E, 2\) vertex pairs, got None$"),
], ids=["float-list", "float-array", "bool-list", "bool-array", "triple-list", "triple-array",
        "flat-array", "ragged-list", "int", "none"])
def test_simple_graph_refuses_edges_that_are_not_integer_pairs(raw, msg):
    with pytest.raises(ValidationError, match=msg):
        gl.SimpleGraph(3, raw)


@pytest.mark.parametrize("xs, why", [
    (["a", 0.75], "could not convert string to float: 'a'"),
    ([1j, 0.75], "got complex values"),
    (np.array([0.25 + 0j, 0.75]), "got complex values"),  # NumPy would drop the 0j
    ([0.25, [0.75]], "setting an array element with a sequence"),
], ids=["string", "complex", "complex-array", "ragged"])
def test_latent_points_that_are_not_real_numbers_are_refused(xs, why):
    with pytest.raises(ValidationError) as info:
        gl.LatentPoints(2, xs)
    assert str(info.value).startswith(f"latent points must be real numbers: {why}")


# each constructor check that no other test reaches, pinned by one input and its message
@pytest.mark.parametrize("make, message", [
    (lambda: gl.StepGraphon(3, np.zeros((2, 2))), "declared n=3 but matrix is 2x2"),
    (lambda: gl.StepGraphon(1, [[0.0]], -2.0, 1.0),
     "declared range [-2.0, 1.0] not inside [-1, 1]"),
    (lambda: gl.StepGraphon(1, [[0.0]]).refine(0), "refine factor must be >= 1"),
    (lambda: gl.SimpleGraph(0, []), "graph needs at least one vertex"),
    (lambda: gl.LatentPoints(2, [0.25]), "expected 2 latent points, got shape (1,)"),
    (lambda: gl.builtin("constant"), "builtin 'constant' takes exactly the parameter p"),
], ids=["step-n", "step-range", "refine-0", "graph-0", "latent-count", "constant-no-p"])
def test_core_constructors_refuse_bad_fields(make, message):
    with pytest.raises(ValidationError) as info:
        make()
    assert str(info.value) == message


@pytest.mark.parametrize("values", [np.array([[0.5 + 0.25j]]), np.array([[0.5 + 0j]]),
                                    [[0.5 + 0.25j]]])
def test_step_values_that_are_complex_are_refused(values):
    with pytest.raises(ValidationError, match="^step values must be real numbers: got complex"):
        gl.StepGraphon(1, values)


def test_sym_mean_holds_one_tile_pair(peak_bytes):
    m = _symmetric(1024)
    m[5, 900] += 0.25
    # a copy would be 8 MiB; a tile's sum is 128 KiB
    assert peak_bytes(lambda: sym_mean(m)) < 2**20
