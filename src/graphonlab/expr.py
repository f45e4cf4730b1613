"""A small expression language for analytic kernels W(x, y).

Grammar (whitespace insignificant, no implicit multiplication):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := unary ('^' factor)?          # '^' right-associative
    unary  := '-' unary | atom
    atom   := number | 'x' | 'y' | func '(' args ')' | '(' expr ')'

Functions: min(a,b), max(a,b), abs(a), exp(a), sqrt(a). Unary minus binds
tighter than '^', i.e. -x^2 is (-x)^2. Errors carry 0-based byte offsets.

Evaluation allocates only the temporaries it must. A number is a read-only
zero-stride view of one float, and x and y enter as read-only broadcast
views, so no leaf is copied to the full shape. An array that an operator or
function allocated is owned by the evaluator: the next operator or function
writes its result into its first owned operand, and allocates only when no
operand is owned. '^' always allocates, because its NaN check reads both
operands after the power, and it takes a number operand as a full array.
Inputs and views are never written, and every operation keeps its operands
and their order, so the values are those of an evaluation that gives every
node a fresh array, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .core import GraphonSpec
from .errors import GraphonLabError


class ExprSyntaxError(GraphonLabError):
    def __init__(self, message: str, offset: int, expected: Tuple[str, ...] = ()):
        hint = f" (expected one of: {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at offset {offset}{hint}")
        self.offset = offset
        self.expected = expected


class ExprNameError(GraphonLabError):
    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier '{name}' at offset {offset}")
        self.name = name
        self.offset = offset


class ExprEvalError(GraphonLabError):
    def __init__(self, message: str, node):
        super().__init__(f"{message} (node '{unparse(node)}' at offset {node.offset})")
        self.node = node


# --- AST -------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float
    offset: int = 0


@dataclass(frozen=True)
class Var:
    name: str
    offset: int = 0


@dataclass(frozen=True)
class Unary:
    op: str
    operand: object
    offset: int = 0


@dataclass(frozen=True)
class Bin:
    op: str
    left: object
    right: object
    offset: int = 0


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple
    offset: int = 0


FUNCTIONS = {"min": 2, "max": 2, "abs": 1, "exp": 1, "sqrt": 1}


# --- tokenizer ---------------------------------------------------------------

_SYMBOLS = ("+", "-", "*", "/", "^", "(", ")", ",")
_DIGITS = "0123456789"  # ASCII only: str.isdigit() also accepts "²" and "٣"


def _tokenize(source: str):
    tokens = []
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c in _SYMBOLS:
            tokens.append((c, c, i))
            i += 1
            continue
        if c in _DIGITS:
            j = i
            while j < n and source[j] in _DIGITS:
                j += 1
            if j < n and source[j] == ".":
                j += 1
                while j < n and source[j] in _DIGITS:
                    j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k] in _DIGITS:
                    j = k
                    while j < n and source[j] in _DIGITS:
                        j += 1
            tokens.append(("num", source[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(("name", source[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, expected: Tuple[str, ...]):
        tok = self.peek()
        if tok[0] != kind:
            raise ExprSyntaxError(f"unexpected token {tok[1]!r}", tok[2], expected)
        return self.advance()

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprSyntaxError(
                f"unexpected trailing token {tok[1]!r}", tok[2], ("+", "-", "*", "/", "^", "end")
            )
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op, _, off = self.advance()
            node = Bin(op, node, self.term(), off)
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            op, _, off = self.advance()
            node = Bin(op, node, self.factor(), off)
        return node

    def factor(self):
        node = self.unary()
        if self.peek()[0] == "^":
            _, _, off = self.advance()
            node = Bin("^", node, self.factor(), off)
        return node

    def unary(self):
        tok = self.peek()
        if tok[0] == "-":
            self.advance()
            return Unary("-", self.unary(), tok[2])
        return self.atom()

    def atom(self):
        tok = self.advance()
        kind, text, off = tok
        if kind == "num":
            return Num(float(text), off)
        if kind == "name":
            if text in ("x", "y"):
                return Var(text, off)
            if text in FUNCTIONS:
                self.expect("(", ("(",))
                args = [self.expr()]
                while self.peek()[0] == ",":
                    self.advance()
                    args.append(self.expr())
                self.expect(")", (")", ","))
                if len(args) != FUNCTIONS[text]:
                    raise ExprSyntaxError(
                        f"{text} takes {FUNCTIONS[text]} argument(s), got {len(args)}", off
                    )
                return Call(text, tuple(args), off)
            raise ExprNameError(text, off)
        if kind == "(":
            node = self.expr()
            self.expect(")", (")",))
            return node
        raise ExprSyntaxError(
            f"unexpected token {text!r}" if text else "unexpected end of input",
            off,
            ("number", "x", "y", "function", "(", "-"),
        )


def parse(source: str):
    """Parse an expression into an AST; raises ExprSyntaxError/ExprNameError."""
    return _Parser(source).parse()


# --- evaluation --------------------------------------------------------------


_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}
_CALLS = {"min": np.minimum, "max": np.maximum, "abs": np.abs, "exp": np.exp, "sqrt": np.sqrt}


def _apply(ufunc, *operands):
    """ufunc over (array, owned) operands, written into the first owned one."""
    arrays = [a for a, _ in operands]
    out = next((a for a, owned in operands if owned), None)
    if out is None:
        out = ufunc(*arrays)
        # 0-d operands give a NumPy scalar, which cannot be written into
        return out, isinstance(out, np.ndarray)
    return ufunc(*arrays, out=out), True


def _power(node, a, b, shape):
    """a ** b as a fresh array; the NaN check reads both operands after it."""
    # NumPy's power picks its loop by operand layout, and a zero-stride
    # exponent takes shortcuts (x^2 as x*x, x^0.5 as sqrt) whose bits can
    # differ from pow's: numbers enter as full arrays, the layout of a
    # fresh-array evaluation
    if isinstance(node.left, Num):
        a = np.full(shape, node.left.value)
    if isinstance(node.right, Num):
        b = np.full(shape, node.right.value)
    out = a**b
    if np.any(np.isnan(out) & ~(np.isnan(a) | np.isnan(b))):
        raise ExprEvalError("invalid power (negative base, fractional exponent)", node)
    return out, isinstance(out, np.ndarray)


def _eval(node, x, y, shape):
    """(values, owned) of a node; see the module docstring for ownership."""
    if isinstance(node, Num):
        return np.broadcast_to(np.float64(node.value), shape), False
    if isinstance(node, Var):
        return np.broadcast_to(x if node.name == "x" else y, shape), False
    if isinstance(node, Unary):
        return _apply(np.negative, _eval(node.operand, x, y, shape))
    if isinstance(node, Bin):
        left = _eval(node.left, x, y, shape)
        right = _eval(node.right, x, y, shape)
        if node.op == "^":
            return _power(node, left[0], right[0], shape)
        if node.op == "/" and np.any(right[0] == 0.0):
            raise ExprEvalError("division by zero", node)
        return _apply(_BINARY[node.op], left, right)
    if isinstance(node, Call):
        args = [_eval(a, x, y, shape) for a in node.args]
        if node.fn == "sqrt" and np.any(args[0][0] < 0.0):
            raise ExprEvalError("sqrt of a negative value", node)
        return _apply(_CALLS[node.fn], *args)
    raise TypeError(f"not an AST node: {node!r}")


def eval_array(ast, x, y) -> np.ndarray:
    """Evaluate on broadcastable arrays; errors instead of propagating NaN."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    with np.errstate(all="ignore"):
        return _eval(ast, x, y, np.broadcast_shapes(x.shape, y.shape))[0]


# --- pretty printing ----------------------------------------------------------
#
# Nodes are assigned the tightest grammar category that can produce them bare
# (expr=0, term=1, factor=2, unary=3, atom=4); a child is parenthesized when
# its category is looser than what the parent's grammar slot accepts.

_CAT = {"+": 0, "-": 0, "*": 1, "/": 1, "^": 2}


def _category(node) -> int:
    if isinstance(node, Bin):
        return _CAT[node.op]
    if isinstance(node, Unary):
        return 3
    return 4


def _render(node, min_cat: int) -> str:
    if isinstance(node, Num):
        v = node.value
        text = repr(int(v)) if v.is_integer() and abs(v) < 1e16 else repr(v)
    elif isinstance(node, Var):
        text = node.name
    elif isinstance(node, Unary):
        text = "-" + _render(node.operand, 3)
    elif isinstance(node, Call):
        text = f"{node.fn}({', '.join(_render(a, 0) for a in node.args)})"
    elif isinstance(node, Bin) and node.op == "^":
        text = _render(node.left, 3) + "^" + _render(node.right, 2)
    elif isinstance(node, Bin):
        own = _CAT[node.op]
        text = f"{_render(node.left, own)} {node.op} {_render(node.right, own + 1)}"
    else:
        raise TypeError(f"not an AST node: {node!r}")
    if _category(node) < min_cat:
        return "(" + text + ")"
    return text


def unparse(ast) -> str:
    """Render an AST to a string that re-parses to an equivalent AST."""
    return _render(ast, 0)


# --- graphon construction -----------------------------------------------------


def from_expression(source: str, clamp: bool = False, symmetrize: bool = False):
    """GraphonSpec of the expression, optionally symmetrized and then clamped to [0, 1],
    labelled with its source (``sym:`` plus the source when symmetrized). The symmetrized
    kernel (f(x, y) + f(y, x)) / 2 is bit-symmetric by construction, since float addition
    commutes, so it always passes the graphon rule's symmetry check."""
    ast = parse(source)
    if symmetrize:
        def raw(x, y, _ast=ast):
            return 0.5 * (eval_array(_ast, x, y) + eval_array(_ast, y, x))
    else:
        def raw(x, y, _ast=ast):
            return eval_array(_ast, x, y)

    fn = (lambda x, y: np.clip(raw(x, y), 0.0, 1.0)) if clamp else raw
    return GraphonSpec(label=("sym:" + source if symmetrize else source), fn=fn)
