"""Analytic expressions in the radial variable r with exact symbolic derivatives.

Grammar (infix, standard precedence: power > unary minus > mul/div > add/sub):

    expr   = term { ("+" | "-") term } ;
    term   = unary { ("*" | "/") unary } ;
    unary  = ("-" | "+") unary | power ;
    power  = atom [ ("^" | "**") unary ] ;          right-associative
    atom   = NUMBER | "r" | NAME "(" expr ")" | "(" expr ")" ;
    NAME   = "exp" | "log" | "sin" | "cos" | "sinh" | "cosh"
           | "tanh" | "sech" | "sqrt" ;

Evaluation is strict about domains: log of non-positive values, sqrt of
negative values, division by zero, non-integer powers of non-positive bases
and floating overflow all raise DomainError (with the offending node index
when evaluating over a grid) instead of returning a non-finite value.

Derivative trees are built by the textbook rules and are only lightly
constant-folded; they are not simplified beyond that.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import DomainError, ExprSyntaxError, UnknownIdentifierError
from .grid import RadialGrid, SampledField

__all__ = [
    "AnalyticExpr",
    "parse",
    "differentiate",
    "evaluate_on_grid",
    "call",
]

# printing precedence levels
_P_ADD, _P_MUL, _P_NEG, _P_POW, _P_ATOM = 1, 2, 3, 4, 5


def _fail(message: str, where) -> None:
    """Raise DomainError, reporting the first offending node for array input."""
    bad = np.asarray(where)
    node = None
    if bad.ndim:
        node = int(np.flatnonzero(bad)[0])
    raise DomainError(message, node)


def _ensure_finite(out, what: str):
    ok = np.isfinite(out)
    if not np.all(ok):
        _fail(f"non-finite result in {what}", ~np.asarray(ok))
    return out


class Node:
    __slots__ = ()
    prec = _P_ATOM

    def eval(self, r):
        raise NotImplementedError

    def diff(self) -> "Node":
        raise NotImplementedError

    def fmt(self) -> str:
        raise NotImplementedError

    def _wrap(self, child: "Node", parens_at: int) -> str:
        s = child.fmt()
        return f"({s})" if child.prec < parens_at else s


class Num(Node):
    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = float(value)

    def eval(self, r):
        # numpy scalar, so composite arithmetic keeps IEEE inf/nan semantics
        # (python float ** raises OverflowError instead) and every non-finite
        # intermediate is routed through the DomainError checks
        return np.float64(self.value)

    def diff(self):
        return Num(0.0)

    def fmt(self):
        # the sign test is on the text, so -0.0 is parenthesized as well
        s = repr(self.value)
        return f"({s})" if s.startswith("-") else s


class Var(Node):
    __slots__ = ()

    def eval(self, r):
        return r

    def diff(self):
        return Num(1.0)

    def fmt(self):
        return "r"


def _is_num(node: Node, value: float) -> bool:
    return isinstance(node, Num) and node.value == value


def _add(a: Node, b: Node) -> Node:
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num) and np.isfinite(a.value + b.value):
        return Num(a.value + b.value)
    return Add(a, b)


def _sub(a: Node, b: Node) -> Node:
    if _is_num(b, 0.0):
        return a
    if _is_num(a, 0.0):
        return Neg(b)
    if isinstance(a, Num) and isinstance(b, Num) and np.isfinite(a.value - b.value):
        return Num(a.value - b.value)
    return Sub(a, b)


def _mul(a: Node, b: Node) -> Node:
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num) and np.isfinite(a.value * b.value):
        return Num(a.value * b.value)
    return Mul(a, b)


class Add(Node):
    __slots__ = ("a", "b")
    prec = _P_ADD

    def __init__(self, a, b):
        self.a, self.b = a, b

    def eval(self, r):
        return _ensure_finite(self.a.eval(r) + self.b.eval(r), "addition")

    def diff(self):
        return _add(self.a.diff(), self.b.diff())

    def fmt(self):
        return f"{self._wrap(self.a, _P_ADD)} + {self._wrap(self.b, _P_ADD)}"


class Sub(Node):
    __slots__ = ("a", "b")
    prec = _P_ADD

    def __init__(self, a, b):
        self.a, self.b = a, b

    def eval(self, r):
        return _ensure_finite(self.a.eval(r) - self.b.eval(r), "subtraction")

    def diff(self):
        return _sub(self.a.diff(), self.b.diff())

    def fmt(self):
        return f"{self._wrap(self.a, _P_ADD)} - {self._wrap(self.b, _P_ADD + 1)}"


class Mul(Node):
    __slots__ = ("a", "b")
    prec = _P_MUL

    def __init__(self, a, b):
        self.a, self.b = a, b

    def eval(self, r):
        return _ensure_finite(self.a.eval(r) * self.b.eval(r), "multiplication")

    def diff(self):
        return _add(_mul(self.a.diff(), self.b), _mul(self.a, self.b.diff()))

    def fmt(self):
        return f"{self._wrap(self.a, _P_MUL)}*{self._wrap(self.b, _P_MUL)}"


class Div(Node):
    __slots__ = ("a", "b")
    prec = _P_MUL

    def __init__(self, a, b):
        self.a, self.b = a, b

    def eval(self, r):
        den = self.b.eval(r)
        zero = np.asarray(den) == 0.0
        if np.any(zero):
            _fail("division by zero", zero)
        return _ensure_finite(self.a.eval(r) / den, "division")

    def diff(self):
        num = _sub(_mul(self.a.diff(), self.b), _mul(self.a, self.b.diff()))
        return Div(num, Pow(self.b, Num(2.0)))

    def fmt(self):
        return f"{self._wrap(self.a, _P_MUL)}/{self._wrap(self.b, _P_MUL + 1)}"


class Neg(Node):
    __slots__ = ("a",)
    prec = _P_NEG

    def __init__(self, a):
        self.a = a

    def eval(self, r):
        return -self.a.eval(r)

    def diff(self):
        d = self.a.diff()
        return Num(-d.value) if isinstance(d, Num) else Neg(d)

    def fmt(self):
        return f"-{self._wrap(self.a, _P_NEG)}"


class Pow(Node):
    __slots__ = ("base", "exp")
    prec = _P_POW

    def __init__(self, base, exp):
        self.base, self.exp = base, exp

    def _integer_exponent(self):
        if isinstance(self.exp, Num) and float(self.exp.value).is_integer():
            return int(self.exp.value)
        return None

    def eval(self, r):
        base = self.base.eval(r)
        k = self._integer_exponent()
        if k is not None:
            if k < 0:
                zero = np.asarray(base) == 0.0
                if np.any(zero):
                    _fail("zero base with negative exponent", zero)
            return _ensure_finite(base ** k, "power")
        # non-integer (or non-constant) exponent requires a positive base
        nonpos = ~(np.asarray(base) > 0.0)
        if np.any(nonpos):
            _fail("non-integer power of a non-positive base", nonpos)
        return _ensure_finite(base ** self.exp.eval(r), "power")

    def diff(self):
        if isinstance(self.exp, Num):
            n = self.exp.value
            return _mul(
                _mul(Num(n), Pow(self.base, Num(n - 1.0))),
                self.base.diff(),
            )
        # b^e * (e' log b + e b'/b)
        term = _add(
            _mul(self.exp.diff(), Fn("log", self.base)),
            _mul(self.exp, Div(self.base.diff(), self.base)),
        )
        return _mul(self, term)

    def fmt(self):
        b = self._wrap(self.base, _P_ATOM)
        e = self._wrap(self.exp, _P_NEG)
        return f"{b}^{e}"


def _sech(x):
    return 1.0 / np.cosh(x)


def _checked_log(x):
    bad = ~(np.asarray(x) > 0.0)
    if np.any(bad):
        _fail("log of a non-positive value", bad)
    return np.log(x)


def _checked_sqrt(x):
    bad = np.asarray(x) < 0.0
    if np.any(bad):
        _fail("sqrt of a negative value", bad)
    return np.sqrt(x)


# name -> (evaluator, derivative builder given (arg, d_arg))
_FUNCTIONS = {
    "exp": (np.exp, lambda u, du: _mul(Fn("exp", u), du)),
    "log": (_checked_log, lambda u, du: Div(du, u)),
    "sin": (np.sin, lambda u, du: _mul(Fn("cos", u), du)),
    "cos": (np.cos, lambda u, du: _mul(Neg(Fn("sin", u)), du)),
    "sinh": (np.sinh, lambda u, du: _mul(Fn("cosh", u), du)),
    "cosh": (np.cosh, lambda u, du: _mul(Fn("sinh", u), du)),
    "tanh": (np.tanh, lambda u, du: _mul(Pow(Fn("sech", u), Num(2.0)), du)),
    "sech": (_sech, lambda u, du: _mul(_mul(Neg(Fn("sech", u)), Fn("tanh", u)), du)),
    "sqrt": (_checked_sqrt, lambda u, du: Div(du, _mul(Num(2.0), Fn("sqrt", u)))),
}


class Fn(Node):
    __slots__ = ("name", "a")

    def __init__(self, name: str, a: Node):
        self.name, self.a = name, a

    def eval(self, r):
        f = _FUNCTIONS[self.name][0]
        return _ensure_finite(f(self.a.eval(r)), self.name)

    def diff(self):
        return _FUNCTIONS[self.name][1](self.a, self.a.diff())

    def fmt(self):
        return f"{self.name}({self.a.fmt()})"


# ---------------------------------------------------------------------------
# tokenizer / parser


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
    | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
    | (?P<pow>\*\*|\^)
    | (?P<op>[+\-*/()])
    """,
    re.VERBOSE,
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            kind = m.lastgroup
            tokens.append(("pow" if kind == "pow" else kind, m.group(), m.start()))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.peek()
        if kind == "op" and val == op:
            self.next()
            return
        raise ExprSyntaxError(f"expected {op!r}", pos)

    def parse(self) -> Node:
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected token {val!r}", pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                node = Add(node, rhs) if val == "+" else Sub(node, rhs)
            else:
                return node

    def term(self) -> Node:
        node = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.unary()
                node = Mul(node, rhs) if val == "*" else Div(node, rhs)
            else:
                return node

    def unary(self) -> Node:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            node = self.unary()
            # fold negated literals so "(-2.0)" stays a constant and keeps
            # the integer-exponent power rules on reparse
            if isinstance(node, Num):
                return Num(-node.value)
            return Neg(node)
        if kind == "op" and val == "+":
            self.next()
            return self.unary()
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        kind, _, _ = self.peek()
        if kind == "pow":
            self.next()
            return Pow(base, self.unary())
        return base

    def atom(self) -> Node:
        kind, val, pos = self.next()
        if kind == "num":
            value = float(val)
            if not np.isfinite(value):
                raise ExprSyntaxError(f"numeric literal {val!r} overflows", pos)
            return Num(value)
        if kind == "name":
            if val == "r":
                return Var()
            if val in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Fn(val, arg)
            raise UnknownIdentifierError(val, pos)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"unexpected token {val!r}" if val else "unexpected end of input", pos)


# ---------------------------------------------------------------------------
# public wrapper


@dataclass(frozen=True)
class AnalyticExpr:
    """Immutable parsed expression in the variable r.

    Supports arithmetic with other expressions and real numbers, producing new
    (unsimplified) expressions, so composite quantities such as 1/sqrt(h) can
    be built and differentiated exactly.
    """

    root: Node
    source: str | None = None

    def evaluate(self, r):
        """Evaluate at a scalar or ndarray of radii."""
        arr = np.asarray(r, dtype=float)
        with np.errstate(all="ignore"):
            out = self.root.eval(arr)
        out = np.asarray(out, dtype=float)
        if arr.ndim == 0:
            return float(np.broadcast_to(out, ()).item() if out.ndim else out)
        return np.broadcast_to(out, arr.shape).copy()

    def derivative(self) -> "AnalyticExpr":
        return AnalyticExpr(self.root.diff())

    def __str__(self) -> str:
        return self.root.fmt()

    def _coerce(self, other) -> Node:
        if isinstance(other, AnalyticExpr):
            return other.root
        if isinstance(other, Real):
            return Num(float(other))
        raise TypeError(f"cannot combine AnalyticExpr with {type(other).__name__}")

    def __add__(self, other):
        return AnalyticExpr(Add(self.root, self._coerce(other)))

    def __radd__(self, other):
        return AnalyticExpr(Add(self._coerce(other), self.root))

    def __sub__(self, other):
        return AnalyticExpr(Sub(self.root, self._coerce(other)))

    def __rsub__(self, other):
        return AnalyticExpr(Sub(self._coerce(other), self.root))

    def __mul__(self, other):
        return AnalyticExpr(Mul(self.root, self._coerce(other)))

    def __rmul__(self, other):
        return AnalyticExpr(Mul(self._coerce(other), self.root))

    def __truediv__(self, other):
        return AnalyticExpr(Div(self.root, self._coerce(other)))

    def __rtruediv__(self, other):
        return AnalyticExpr(Div(self._coerce(other), self.root))

    def __pow__(self, other):
        return AnalyticExpr(Pow(self.root, self._coerce(other)))

    def __neg__(self):
        return AnalyticExpr(Neg(self.root))


def parse(text: str) -> AnalyticExpr:
    """Parse expression text; raises ExprSyntaxError with a character offset."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    return AnalyticExpr(_Parser(text).parse(), source=text)


def differentiate(e: AnalyticExpr) -> AnalyticExpr:
    """Exact symbolic derivative d/dr."""
    return e.derivative()


def call(name: str, e: AnalyticExpr) -> AnalyticExpr:
    """Apply a named primitive function to an expression."""
    if name not in _FUNCTIONS:
        raise ValueError(f"unknown function {name!r}")
    return AnalyticExpr(Fn(name, e.root))


def evaluate_on_grid(e: AnalyticExpr, g: RadialGrid) -> SampledField:
    """Sample an expression and its symbolic derivative on a grid."""
    values = e.evaluate(g.r)
    derivs = e.derivative().evaluate(g.r)
    return SampledField(g, values, derivs)
