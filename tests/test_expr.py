import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphonlab.expr as ex
from graphonlab import evaluate
from graphonlab.expr import Bin, Call, ExprEvalError, Num, Unary, Var


def test_parse_simple_product():
    ast = ex.parse("x*y")
    assert isinstance(ast, ex.Bin) and ast.op == "*"
    assert isinstance(ast.left, ex.Var) and ast.left.name == "x"
    assert isinstance(ast.right, ex.Var) and ast.right.name == "y"


def test_parse_minmax_kernel():
    ast = ex.parse("min(x,y)*(1-max(x,y))")
    assert ex.eval_array(ast, 0.5, 0.5) == pytest.approx(0.25, abs=1e-15)


def test_unknown_identifier_offset():
    with pytest.raises(ex.ExprNameError) as err:
        ex.parse("x*z")
    assert err.value.offset == 2
    assert err.value.name == "z"


def test_eval_examples():
    assert ex.eval_array(ex.parse("1/2"), 0.9, 0.1) == 0.5
    assert ex.eval_array(ex.parse("x^2"), 0.3, 0.0) == pytest.approx(0.09, abs=1e-15)
    with pytest.raises(ex.ExprEvalError):
        ex.eval_array(ex.parse("sqrt(x-1)"), 0.5, 0.5)
    with pytest.raises(ex.ExprEvalError):
        ex.eval_array(ex.parse("1/(x-x)"), 0.5, 0.5)


def test_power_is_right_associative():
    assert ex.eval_array(ex.parse("2^3^2"), 0.0, 0.0) == 512.0


def test_unary_minus_binds_tighter_than_power():
    assert ex.eval_array(ex.parse("-2^2"), 0.0, 0.0) == 4.0


def test_functions_and_arity():
    assert ex.eval_array(ex.parse("abs(-3)"), 0.0, 0.0) == 3.0
    assert ex.eval_array(ex.parse("exp(0)"), 0.0, 0.0) == 1.0
    assert ex.eval_array(ex.parse("sqrt(4)"), 0.0, 0.0) == 2.0
    assert ex.eval_array(ex.parse("min(x, y)"), 0.2, 0.7) == 0.2
    with pytest.raises(ex.ExprSyntaxError):
        ex.parse("min(x)")
    with pytest.raises(ex.ExprSyntaxError):
        ex.parse("abs(x, y)")


@pytest.mark.parametrize("bad, offset", [
    ("x*", 2),
    ("(x", 2),
    ("x )", 2),
    ("", 0),
    ("x + + y", 4),
    ("1 2", 2),
])
def test_syntax_errors_carry_offsets(bad, offset):
    with pytest.raises(ex.ExprSyntaxError) as err:
        ex.parse(bad)
    assert err.value.offset == offset


@pytest.mark.parametrize("bad, offset", [
    ("x+\u00b2", 2),  # superscript two
    ("x*\u0663", 2),  # Arabic-Indic three
    ("1\u0663", 1),
    ("2.5e\u0663", 3),
])
def test_only_ascii_digits_make_numbers(bad, offset):
    with pytest.raises(ex.ExprSyntaxError) as err:
        ex.parse(bad)
    assert err.value.offset == offset


def test_unexpected_character():
    with pytest.raises(ex.ExprSyntaxError) as err:
        ex.parse("x ? y")
    assert err.value.offset == 2


def test_unparse_disambiguates_grammar_slots():
    assert ex.unparse(ex.parse("(x^y)^x")) == "(x^y)^x"
    assert ex.unparse(ex.parse("-(x^2)")) == "-(x^2)"
    assert ex.unparse(ex.parse("-x^2")) == "-x^2"
    assert ex.unparse(ex.parse("x/(y*x)")) == "x / (y * x)"
    assert ex.unparse(ex.parse("(x+y)*x")) == "(x + y) * x"


_leaf = st.one_of(
    st.builds(ex.Num, st.floats(0.0, 4.0, allow_nan=False).map(lambda v: round(v, 3))),
    st.builds(ex.Var, st.sampled_from(["x", "y"])),
)


def _node(children):
    return st.one_of(
        st.builds(ex.Bin, st.sampled_from(["+", "-", "*", "/", "^"]), children, children),
        st.builds(ex.Unary, st.just("-"), children),
        st.builds(lambda f, a: ex.Call(f, (a,)), st.sampled_from(["abs", "exp", "sqrt"]), children),
        st.builds(lambda f, a, b: ex.Call(f, (a, b)), st.sampled_from(["min", "max"]),
                  children, children),
    )


_ast = st.recursive(_leaf, _node, max_leaves=12)


@given(ast=_ast, x=st.floats(0.01, 0.99), y=st.floats(0.01, 0.99))
@settings(max_examples=120, deadline=None)
def test_unparse_parse_roundtrip_evaluates_identically(ast, x, y):
    text = ex.unparse(ast)
    reparsed = ex.parse(text)
    try:
        expected = float(ex.eval_array(ast, x, y))
    except ex.ExprEvalError:
        with pytest.raises(ex.ExprEvalError):
            ex.eval_array(reparsed, x, y)
        return
    got = float(ex.eval_array(reparsed, x, y))
    if math.isnan(expected):
        assert math.isnan(got)
    elif math.isinf(expected):
        assert got == expected
    else:
        assert got == pytest.approx(expected, abs=1e-15, rel=1e-15)


_soup = st.text(
    alphabet=list("xy0123456789+-*/^(), .minmaxabsexpsqrt_e"),
    max_size=24,
)


@given(source=_soup)
@settings(max_examples=300, deadline=None)
def test_parser_never_crashes_on_token_soup(source):
    try:
        ex.parse(source)
    except (ex.ExprSyntaxError, ex.ExprNameError):
        pass


def test_symmetrize_examples():
    half_sum = ex.from_expression("x", symmetrize=True)
    assert evaluate(half_sum, 0.2, 0.8) == pytest.approx(0.5, abs=1e-15)

    unchanged = ex.from_expression("x*y", symmetrize=True)
    assert evaluate(unchanged, 0.3, 0.9) == pytest.approx(0.27, abs=1e-15)

    mixed = ex.from_expression("x^2*y", symmetrize=True)
    assert evaluate(mixed, 0.2, 0.8) == pytest.approx(0.08, abs=1e-15)


def test_symmetrize_is_bit_symmetric():
    w = ex.from_expression("x^2*y + exp(x)/3", symmetrize=True)
    for x, y in [(0.1, 0.9), (0.37, 0.82), (0.5, 0.25)]:
        assert evaluate(w, x, y) == evaluate(w, y, x)


# --- evaluator temporaries ----------------------------------------------------


def _fresh_eval(node, x, y):
    """Reference evaluator: every number a full array and every node a fresh
    result. eval_array must match it bit for bit, errors included."""
    if isinstance(node, Num):
        return np.full(np.broadcast(x, y).shape, node.value)
    if isinstance(node, Var):
        base = x if node.name == "x" else y
        return np.broadcast_to(np.asarray(base, dtype=np.float64), np.broadcast(x, y).shape)
    if isinstance(node, Unary):
        return -_fresh_eval(node.operand, x, y)
    if isinstance(node, Bin):
        a = _fresh_eval(node.left, x, y)
        b = _fresh_eval(node.right, x, y)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            if np.any(b == 0.0):
                raise ExprEvalError("division by zero", node)
            return a / b
        # '^'
        out = a**b
        if np.any(np.isnan(out) & ~(np.isnan(a) | np.isnan(b))):
            raise ExprEvalError("invalid power (negative base, fractional exponent)", node)
        return out
    if isinstance(node, Call):
        args = [_fresh_eval(a, x, y) for a in node.args]
        if node.fn == "min":
            return np.minimum(args[0], args[1])
        if node.fn == "max":
            return np.maximum(args[0], args[1])
        if node.fn == "abs":
            return np.abs(args[0])
        if node.fn == "exp":
            return np.exp(args[0])
        # sqrt
        if np.any(args[0] < 0.0):
            raise ExprEvalError("sqrt of a negative value", node)
        return np.sqrt(args[0])
    raise TypeError(f"not an AST node: {node!r}")


def _outcome(evaluate_with, ast, x, y):
    """('value', shape, dtype, bytes) of an evaluation, or ('error', message)."""
    try:
        with np.errstate(all="ignore"):
            v = np.asarray(evaluate_with(ast, x, y))
    except ExprEvalError as err:
        return ("error", str(err))
    return ("value", v.shape, v.dtype.str, v.tobytes())


def _assert_same_as_fresh(ast, x, y):
    xf, yf = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    assert _outcome(ex.eval_array, ast, x, y) == _outcome(_fresh_eval, ast, xf, yf)


_coord = st.floats(-2.0, 2.0, allow_nan=False)
_inputs = st.one_of(
    st.tuples(_coord, _coord),
    st.tuples(_coord, _coord).map(lambda p: (np.array([[p[0]]]), np.array([[p[1]]]))),
    st.integers(1, 5).flatmap(lambda g: st.tuples(
        st.lists(_coord, min_size=g, max_size=g).map(lambda v: np.array(v)[:, None]),
        st.lists(_coord, min_size=g, max_size=g).map(lambda v: np.array(v)[None, :]),
    )),
)


@given(ast=_ast, xy=_inputs)
@settings(max_examples=300, deadline=None)
def test_eval_array_matches_fresh_array_evaluation_bit_for_bit(ast, xy):
    _assert_same_as_fresh(ast, *xy)


@pytest.mark.parametrize("source", [
    "x^2", "x^0.5", "x^-1", "x^1", "2^x", "2^3^2", "-x^2", "(x-y)^0.5", "2*3-1", "-(1.5)",
    "sqrt(x-1)", "1/(x-x)",
    "min(x,y)*(1-max(x,y))", "exp(x)/y",
])
def test_eval_array_matches_fresh_array_evaluation_on_examples(source):
    ast = ex.parse(source)
    g = np.linspace(0.0, 1.5, 7)
    for x, y in [(0.3, 0.7), (np.array([[0.3]]), np.array([[1.2]])), (g[:, None], g[None, :]),
                 (g[:, None] + 0.1, g[None, :])]:
        _assert_same_as_fresh(ast, x, y)


def test_eval_array_never_writes_its_inputs():
    g = np.linspace(0.05, 0.95, 6)
    full_x, full_y = np.meshgrid(g, g[::-1], indexing="ij")
    for x, y in [(g[:, None].copy(), g[None, :].copy()), (full_x.copy(), full_y.copy())]:
        before = (x.copy(), y.copy())
        for source in ("x", "-x", "x*y", "min(x,y)*(1-max(x,y))", "exp(-x)+abs(y-x)",
                       "sqrt(x)/y", "x^2-y"):
            ex.eval_array(ex.parse(source), x, y)
        assert x.flags.writeable and y.flags.writeable
        assert np.array_equal(x, before[0]) and np.array_equal(y, before[1])


def test_theorem_kernel_evaluation_holds_at_most_two_grids(peak_bytes):
    g = 1024
    m = (np.arange(g) + 0.5) / g
    ast = ex.parse("min(x,y)*(1-max(x,y))")
    grid = g * g * 8
    # the fresh-array evaluator needs four grids: a full constant 1, max,
    # 1 - max and min
    assert peak_bytes(lambda: ex.eval_array(ast, m[:, None], m[None, :])) < 2 * grid + (1 << 20)
