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

One walker computes values: `jet(r, order)` walks the tree once and
returns the value and the first `order` derivatives together, and
`evaluate` is the value row of the order-0 jet.  The derivative rows come
by truncated Taylor arithmetic (Griewank & Walther, Evaluating Derivatives,
2nd ed., SIAM 2008, ch. 13): the Leibniz rule for products, the division
recurrence for quotients, repeated products for non-negative integer
powers (so r^2 at r = 0 stays exact), the u^p recurrence for other constant
exponents and exp(e log b) for exponents that depend on r, and the
recurrences f' = g u' of the primitives, paired for sin/cos and sinh/cosh,
with 1 - tanh^2 for tanh and -sech tanh for sech.  An order-0 jet stops at
the value row, so it does no more work and makes no more checks than the
value needs.  Every jet coefficient passes the domain and finiteness
checks, and a derivative that does not exist (sqrt at zero) raises
DomainError as well.  The transforms read their higher derivatives of the
weight from jets, which avoids evaluating nested derivative trees that
grow with each level.

`diff` still builds a derivative tree by the textbook rules, only lightly
constant-folded; the public `derivative()`, `evaluate_on_grid`'s derivative
channel and `forge parse-check` use it.  A jet's derivative rows agree with
the evaluated derivative trees up to rounding.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from math import comb
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


# Jets are lists of derivatives [f, f', ..., f^(order)], each a numpy scalar
# or an array shaped like r; constants keep scalar rows.


def _leibniz(a, b, k: int, lo: int = 0, hi: int | None = None):
    """sum_{j=lo}^{hi} C(k, j) a^(j) b^(k-j); with lo = 0, hi = k it is
    the k-th derivative of a b."""
    total = None
    for j in range(lo, (k if hi is None else hi) + 1):
        term = a[j] * b[k - j]
        c = comb(k, j)
        if c != 1:
            term = c * term
        total = term if total is None else total + term
    return np.float64(0.0) if total is None else total


def _chain(g, u, k: int):
    """k-th derivative (k >= 1) of f with f' = g u', from g and u up to
    orders k - 1 and k."""
    return _leibniz(g, u[1:], k - 1)


def _product_jet(a, b, order: int, what: str) -> list:
    return [_ensure_finite(_leibniz(a, b, k), what) for k in range(order + 1)]


def _exp_jet(value, u, order: int, what: str) -> list:
    """Jet of f = exp(u) whose value row is given: f' = f u'."""
    f = [value]
    for k in range(1, order + 1):
        f.append(_ensure_finite(_chain(f, u, k), what))
    return f


def _power_jet(value, u, p: float, order: int) -> list:
    """Jet of v = u^p for a constant p, from u v' = p u' v; needs u != 0."""
    v = [value]
    for k in range(1, order + 1):
        num = p * _leibniz(u[1:], v, k - 1) - _leibniz(u, v[1:], k - 1, lo=1)
        v.append(_ensure_finite(num / u[0], "power"))
    return v


def _log_jet(value, u, order: int) -> list:
    """Jet of L = log(u), from u L' = u'; needs u > 0."""
    f = [value]
    for k in range(1, order + 1):
        num = u[k] - _leibniz(u, f[1:], k - 1, lo=1)
        f.append(_ensure_finite(num / u[0], "log"))
    return f


class Node:
    __slots__ = ()
    prec = _P_ATOM

    def diff(self) -> "Node":
        raise NotImplementedError

    def jet(self, r, order: int) -> list:
        """[value, d/dr, ..., d^order/dr^order] at r, in one pass."""
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

    def diff(self):
        return Num(0.0)

    def jet(self, r, order):
        # numpy scalar, so composite arithmetic keeps IEEE inf/nan semantics
        # (python float ** raises OverflowError instead) and every non-finite
        # intermediate is routed through the DomainError checks
        return [np.float64(self.value)] + [np.float64(0.0)] * order

    def fmt(self):
        # the sign test is on the text, so -0.0 is parenthesized as well
        s = repr(self.value)
        return f"({s})" if s.startswith("-") else s


class Var(Node):
    __slots__ = ()

    def diff(self):
        return Num(1.0)

    def jet(self, r, order):
        return ([r, np.float64(1.0)] + [np.float64(0.0)] * (order - 1))[: order + 1]

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

    def diff(self):
        return _add(self.a.diff(), self.b.diff())

    def jet(self, r, order):
        a, b = self.a.jet(r, order), self.b.jet(r, order)
        return [_ensure_finite(x + y, "addition") for x, y in zip(a, b)]

    def fmt(self):
        return f"{self._wrap(self.a, _P_ADD)} + {self._wrap(self.b, _P_ADD)}"


class Sub(Node):
    __slots__ = ("a", "b")
    prec = _P_ADD

    def __init__(self, a, b):
        self.a, self.b = a, b

    def diff(self):
        return _sub(self.a.diff(), self.b.diff())

    def jet(self, r, order):
        a, b = self.a.jet(r, order), self.b.jet(r, order)
        return [_ensure_finite(x - y, "subtraction") for x, y in zip(a, b)]

    def fmt(self):
        return f"{self._wrap(self.a, _P_ADD)} - {self._wrap(self.b, _P_ADD + 1)}"


class Mul(Node):
    __slots__ = ("a", "b")
    prec = _P_MUL

    def __init__(self, a, b):
        self.a, self.b = a, b

    def diff(self):
        return _add(_mul(self.a.diff(), self.b), _mul(self.a, self.b.diff()))

    def jet(self, r, order):
        if _is_num(self.a, 0.0) or _is_num(self.b, 0.0):
            # as in diff, a literal zero factor leaves the other's derivatives
            # unevaluated (sqrt(r)*0 has derivatives at r = 0)
            value = self.a.jet(r, 0)[0] * self.b.jet(r, 0)[0]
            return [_ensure_finite(value, "multiplication")] + [np.float64(0.0)] * order
        return _product_jet(self.a.jet(r, order), self.b.jet(r, order), order, "multiplication")

    def fmt(self):
        return f"{self._wrap(self.a, _P_MUL)}*{self._wrap(self.b, _P_MUL)}"


class Div(Node):
    __slots__ = ("a", "b")
    prec = _P_MUL

    def __init__(self, a, b):
        self.a, self.b = a, b

    def diff(self):
        num = _sub(_mul(self.a.diff(), self.b), _mul(self.a, self.b.diff()))
        return Div(num, Pow(self.b, Num(2.0)))

    def jet(self, r, order):
        # the denominator is walked and checked first; then a = b c gives
        # c^(k) = (a^(k) - sum_{j>=1} C(k, j) b^(j) c^(k-j)) / b
        b = self.b.jet(r, order)
        zero = np.asarray(b[0]) == 0.0
        if np.any(zero):
            _fail("division by zero", zero)
        a = self.a.jet(r, order)
        c = [_ensure_finite(a[0] / b[0], "division")]
        for k in range(1, order + 1):
            c.append(_ensure_finite((a[k] - _leibniz(b, c, k, lo=1)) / b[0], "division"))
        return c

    def fmt(self):
        return f"{self._wrap(self.a, _P_MUL)}/{self._wrap(self.b, _P_MUL + 1)}"


class Neg(Node):
    __slots__ = ("a",)
    prec = _P_NEG

    def __init__(self, a):
        self.a = a

    def diff(self):
        d = self.a.diff()
        return Num(-d.value) if isinstance(d, Num) else Neg(d)

    def jet(self, r, order):
        return [-x for x in self.a.jet(r, order)]

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

    def jet(self, r, order):
        # the value row is base ** exponent; the base is checked before the
        # exponent is walked, and an order-0 jet stops at the value row
        k = self._integer_exponent()
        # as in diff, u^0 leaves the base's derivatives unevaluated
        u = self.base.jet(r, 0 if k == 0 else order)
        if k == 0:
            return [_ensure_finite(u[0] ** 0, "power")] + [np.float64(0.0)] * order
        if k is not None:
            if k < 0:
                zero = np.asarray(u[0]) == 0.0
                if np.any(zero):
                    _fail("zero base with negative exponent", zero)
                return _power_jet(_ensure_finite(u[0] ** k, "power"), u, k, order)
            value = _ensure_finite(u[0] ** k, "power")
            if not order:
                return [value]
            # binary powering by products, since the u^p recurrence divides by u
            out = None
            while k:
                if k & 1:
                    out = u if out is None else _product_jet(out, u, order, "power")
                k >>= 1
                if k:
                    u = _product_jet(u, u, order, "power")
            return [value, *out[1:]]
        nonpos = ~(np.asarray(u[0]) > 0.0)
        if np.any(nonpos):
            _fail("non-integer power of a non-positive base", nonpos)
        e = self.exp.jet(r, order)
        value = _ensure_finite(u[0] ** e[0], "power")
        if not order:
            # e log b may overflow where b^e is finite, e.g. (1e-300)^(1e308 r)
            return [value]
        if isinstance(self.exp, Num):
            return _power_jet(value, u, self.exp.value, order)
        # b^e = exp(e log b)
        logb = _log_jet(np.log(u[0]), u, order)
        return _exp_jet(value, _product_jet(e, logb, order, "power"), order, "power")

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


def _sqrt_jet(s, u, k):
    # s^2 = u gives 2 s s^(k) = u^(k) - sum_{0<j<k} C(k, j) s^(j) s^(k-j)
    return (u[k] - _leibniz(s, s, k, lo=1, hi=k - 1)) / (2.0 * s[0])


def _fn_jet(name: str, value, u, order: int) -> list:
    """Jet of name(u) whose value row is given."""
    if not order:
        return [value]
    if name == "exp":
        return _exp_jet(value, u, order, name)
    if name == "log":
        return _log_jet(value, u, order)
    if name == "sqrt":
        zero = np.asarray(u[0]) == 0.0
        if np.any(zero):
            _fail("sqrt has no derivative at zero", zero)
        f = [value]
        for k in range(1, order + 1):
            f.append(_ensure_finite(_sqrt_jet(f, u, k), name))
        return f
    if name in ("sin", "cos", "sinh", "cosh"):
        # paired: sin' = cos u', cos' = -sin u'; sinh' = cosh u', cosh' = sinh u'
        trig = name in ("sin", "cos")
        s = [np.sin(u[0]) if trig else np.sinh(u[0])]
        c = [np.cos(u[0]) if trig else np.cosh(u[0])]
        for k in range(1, order + 1):
            s_k, c_k = _chain(c, u, k), _chain(s, u, k)
            s.append(_ensure_finite(s_k, name))
            c.append(_ensure_finite(-c_k if trig else c_k, name))
        f = s if name in ("sin", "sinh") else c
        return [value, *f[1:]]
    # tanh' = (1 - tanh^2) u' and sech' = -(sech tanh) u'; the leading
    # 1 - tanh^2 is taken as sech^2, which does not cancel for large |u|
    t, sech = [np.tanh(u[0])], [_sech(u[0])]
    w, p = [sech[0] ** 2], [sech[0] * t[0]]
    for k in range(1, order + 1):
        t.append(_ensure_finite(_chain(w, u, k), name))
        sech.append(_ensure_finite(-_chain(p, u, k), name))
        if k < order:
            w.append(-_leibniz(t, t, k))
            p.append(_leibniz(sech, t, k))
    return [value, *(t if name == "tanh" else sech)[1:]]


class Fn(Node):
    __slots__ = ("name", "a")

    def __init__(self, name: str, a: Node):
        self.name, self.a = name, a

    def diff(self):
        return _FUNCTIONS[self.name][1](self.a, self.a.diff())

    def jet(self, r, order):
        u = self.a.jet(r, order)
        value = _ensure_finite(_FUNCTIONS[self.name][0](u[0]), self.name)
        return _fn_jet(self.name, value, u, order)

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
        """Evaluate at a scalar or ndarray of radii: the order-0 jet's value row."""
        arr = np.asarray(r, dtype=float)
        with np.errstate(all="ignore"):
            out = self.root.jet(arr, 0)[0]
        out = np.asarray(out, dtype=float)
        if arr.ndim == 0:
            return float(np.broadcast_to(out, ()).item() if out.ndim else out)
        # a fresh row is returned as it is; a scalar row, or r itself, is copied
        if out.shape != arr.shape or np.may_share_memory(out, arr):
            return np.broadcast_to(out, arr.shape).copy()
        return out

    def derivative(self) -> "AnalyticExpr":
        return AnalyticExpr(self.root.diff())

    def jet(self, r, order: int) -> np.ndarray:
        """The value and the first `order` derivatives at r, from one pass.

        Returns an (order + 1, *shape(r)) array whose row k is the k-th
        derivative; row 0 equals `evaluate(r)` bit for bit.  Domain errors
        name the first offending node, as in `evaluate`.
        """
        order = operator.index(order)
        if order < 0:
            raise ValueError(f"jet order must be >= 0, got {order}")
        arr = np.asarray(r, dtype=float)
        with np.errstate(all="ignore"):
            rows = self.root.jet(arr, order)
        out = np.empty((order + 1,) + arr.shape)
        for k, row in enumerate(rows):
            out[k] = row
        return out

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
    return SampledField._sharing(g, values, derivs)
