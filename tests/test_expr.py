"""Expression parsing, evaluation, symbolic differentiation and Taylor jets."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from solvforge import (
    AnalyticExpr,
    DomainError,
    ExprSyntaxError,
    RadialGrid,
    UnknownIdentifierError,
    call,
    differentiate,
    evaluate_on_grid,
    parse,
)
from solvforge.expr import Add, Div, Mul, Neg, Num, Pow, Sub, Var

FUNCS = ["exp", "log", "sin", "cos", "sinh", "cosh", "tanh", "sech", "sqrt"]


class TestParse:
    def test_sech_squared(self):
        assert parse("2*sech(r)^2").evaluate(0.0) == pytest.approx(2.0, abs=1e-15)

    def test_rational(self):
        assert parse("1/(1+r)^2").evaluate(1.0) == pytest.approx(0.25, abs=1e-15)

    def test_gaussian_against_independent_eval(self):
        # independent oracle: math.exp
        assert parse("exp(-r^2)").evaluate(1.0) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_precedence_power_over_unary_minus(self):
        assert parse("-r^2").evaluate(2.0) == -4.0

    def test_signed_exponent(self):
        assert parse("2^-2").evaluate(0.0) == 0.25

    def test_power_right_associative(self):
        assert parse("r^2^3").evaluate(2.0) == 2.0 ** 8

    def test_double_star_alias(self):
        assert parse("r**3").evaluate(2.0) == 8.0

    def test_whitespace_and_parens(self):
        assert parse(" ( 1 + r ) * 2 ").evaluate(2.0) == 6.0

    def test_scientific_literal(self):
        assert parse("1e-3 + r").evaluate(0.0) == pytest.approx(1e-3)

    def test_syntax_error_offset(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse("2*(r")
        assert exc.value.offset == 4

    def test_unexpected_character(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse("r + $")
        assert exc.value.offset == 4

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError) as exc:
            parse("sec(r)")
        assert exc.value.name == "sec"
        assert exc.value.offset == 0

    def test_unknown_variable(self):
        with pytest.raises(UnknownIdentifierError):
            parse("x + 1")

    def test_empty_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse("   ")

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            parse("1 + 2 3")


class TestDifferentiate:
    def test_constant(self):
        d = differentiate(parse("3"))
        for r in (0.0, 0.7, 5.0):
            assert d.evaluate(r) == 0.0

    def test_gaussian_vs_finite_difference(self):
        e = parse("exp(-r^2)")
        d = e.derivative()
        step = 1e-5
        fd = (e.evaluate(1.0 + step) - e.evaluate(1.0 - step)) / (2 * step)
        assert d.evaluate(1.0) == pytest.approx(fd, abs=1e-6)

    def test_sinh_at_origin(self):
        assert differentiate(parse("sinh(r)")).evaluate(0.0) == 1.0

    @pytest.mark.parametrize("name", FUNCS)
    def test_every_primitive_vs_finite_difference(self, name, rng):
        e = call(name, parse("r"))
        d = e.derivative()
        pts = rng.uniform(0.3, 2.5, 100)
        step = 1e-5
        for p in pts:
            fd = (e.evaluate(p + step) - e.evaluate(p - step)) / (2 * step)
            sym = d.evaluate(p)
            assert abs(sym - fd) <= 1e-6 * (1.0 + abs(sym))

    def test_second_derivative_by_twice_differentiating(self):
        e = parse("1/sqrt((1+r)^4)")
        d2 = e.derivative().derivative()
        # (1+r)^-2 has second derivative 6 (1+r)^-4
        assert d2.evaluate(1.0) == pytest.approx(6.0 / 16.0, rel=1e-12)

    def test_variable_exponent(self):
        e = parse("r^r")
        d = e.derivative()
        # d/dr r^r = r^r (log r + 1)
        assert d.evaluate(2.0) == pytest.approx(4.0 * (math.log(2.0) + 1.0), rel=1e-12)


class TestEvaluateOnGrid:
    def test_identity(self):
        g = RadialGrid(0.0, 1.0, 11)
        f = evaluate_on_grid(parse("r"), g)
        assert np.allclose(f.values, np.linspace(0, 1, 11), atol=1e-15)
        assert np.allclose(f.derivs, 1.0, atol=1e-15)

    def test_constant_field(self):
        g = RadialGrid(0.0, 2.0, 21)
        f = evaluate_on_grid(parse("1"), g)
        assert np.all(f.values == 1.0)
        assert np.all(f.derivs == 0.0)

    def test_cosh_against_numpy(self):
        g = RadialGrid(0.0, 2.0, 201)
        f = evaluate_on_grid(parse("cosh(r)"), g)
        assert np.max(np.abs(f.values - np.cosh(g.r))) < 1e-12
        assert np.max(np.abs(f.derivs - np.sinh(g.r))) < 1e-12

    @pytest.mark.parametrize("text", ["r", "+r", "2", "-r", "exp(-r)", "r^2 + 1"])
    def test_evaluate_returns_an_array_of_its_own(self, text):
        # a fresh row is returned without a copy; a scalar row or r itself is
        # copied, so writing to the result never reaches r or a later result
        e = parse(text)
        r = np.linspace(0.0, 2.0, 21)
        r_before = r.copy()
        out = e.evaluate(r)
        expected = e.evaluate(r).copy()
        assert out.flags.writeable and out.shape == r.shape
        out[:] = -7.0
        assert np.array_equal(r, r_before)
        assert np.array_equal(e.evaluate(r), expected)

    def test_domain_violation_reports_node(self):
        g = RadialGrid(0.0, 3.0, 31)
        with pytest.raises(DomainError) as exc:
            evaluate_on_grid(parse("log(r - 2)"), g)
        assert exc.value.node == 0  # first node violating r > 2

    def test_sqrt_negative(self):
        g = RadialGrid(-1.0, 1.0, 21)
        with pytest.raises(DomainError):
            evaluate_on_grid(parse("sqrt(r)"), g)


class TestDomain:
    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            parse("1/r").evaluate(0.0)

    def test_log_nonpositive(self):
        with pytest.raises(DomainError):
            parse("log(r)").evaluate(-1.0)

    def test_zero_to_negative_power(self):
        with pytest.raises(DomainError):
            parse("r^-2").evaluate(0.0)

    def test_negative_base_integer_exponent_ok(self):
        assert parse("(r - 2)^3").evaluate(0.0) == -8.0

    def test_negative_base_fractional_exponent(self):
        with pytest.raises(DomainError):
            parse("(r - 2)^0.5").evaluate(0.0)

    def test_overflow_reported(self):
        with pytest.raises(DomainError):
            parse("exp(r^2)").evaluate(100.0)

    def test_scalar_power_overflow_is_domain_error(self):
        # tiny base, negative exponent: python float ** would raise
        # OverflowError; this must surface as a DomainError instead
        with pytest.raises(DomainError):
            parse("3.14e-168^-2").evaluate(1.0)

    def test_overflowing_literal_rejected_at_parse(self):
        with pytest.raises(ExprSyntaxError):
            parse("3e400 + r")

    def test_never_silent_nonfinite(self):
        g = RadialGrid(0.0, 40.0, 41)
        with pytest.raises(DomainError) as exc:
            evaluate_on_grid(parse("exp(r^2)"), g)
        assert exc.value.node is not None


def _leaf_exprs():
    consts = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False).map(
        lambda v: parse(repr(float(v)))
    )
    return st.one_of(st.just(parse("r")), consts)


def _combine(children):
    binops = st.tuples(children, children, st.sampled_from(["+", "-", "*", "/"])).map(
        lambda t: {"+": t[0] + t[1], "-": t[0] - t[1], "*": t[0] * t[1], "/": t[0] / t[1]}[t[2]]
    )
    powers = st.tuples(children, st.integers(min_value=-2, max_value=3)).map(
        lambda t: t[0] ** float(t[1])
    )
    calls = st.tuples(st.sampled_from(FUNCS), children).map(lambda t: call(t[0], t[1]))
    return st.one_of(binops, powers, calls, children.map(lambda e: -e))


random_exprs = st.recursive(_leaf_exprs(), _combine, max_leaves=6)


def test_negative_zero_power_base_roundtrip():
    # "-0.0^0.0" would parse as -(0^0) = -1; the base needs parentheses
    e = parse("-0.0") ** 0.0
    assert str(e) == "(-0.0)^0.0"
    assert parse(str(e)).evaluate(1.0) == e.evaluate(1.0) == 1.0


@given(random_exprs)
@settings(max_examples=60, deadline=None)
def test_print_parse_roundtrip(e: AnalyticExpr):
    """parse(str(e)) evaluates identically to e wherever e is defined."""
    pts = np.linspace(0.13, 2.9, 17)
    try:
        ref = np.array([e.evaluate(p) for p in pts])
    except DomainError:
        assume(False)
        return
    assume(np.max(np.abs(ref)) < 1e12)
    text = str(e)
    e2 = parse(text)
    again = np.array([e2.evaluate(p) for p in pts])
    assert np.max(np.abs(again - ref)) <= 1e-12 * (1.0 + np.max(np.abs(ref)))


@given(random_exprs)
@settings(max_examples=40, deadline=None)
def test_random_composite_derivative_vs_finite_difference(e: AnalyticExpr):
    step = 1e-5
    pts = np.linspace(0.4, 2.2, 9)
    d = e.derivative()
    try:
        sym = np.array([d.evaluate(p) for p in pts])
        lo = np.array([e.evaluate(p - step) for p in pts])
        hi = np.array([e.evaluate(p + step) for p in pts])
        third = np.array([d.derivative().derivative().evaluate(p) for p in pts])
    except DomainError:
        assume(False)
        return
    # the finite-difference oracle loses eps |f| / step to cancellation and
    # (step^2 / 6) |f'''| to truncation, so keep both bounded
    assume(np.max(np.abs(hi)) < 1e3)
    assume(np.max(np.abs(sym)) < 1e3)
    assume(np.max(np.abs(third)) < 1e4)
    fd = (hi - lo) / (2 * step)
    assert np.all(np.abs(sym - fd) <= 1e-6 * (1.0 + np.abs(sym)))


def test_exprs_compose_with_scalars():
    h = parse("(1+r)^4")
    s = 1.0 / call("sqrt", h)
    assert s.evaluate(1.0) == pytest.approx(0.25, rel=1e-14)
    assert (2 * parse("r") - 1).evaluate(3.0) == 5.0


# ---------------------------------------------------------------------------
# Taylor jets against the symbolic route

#: per-order bound on |jet - symbolic| relative to 1 + sup|symbolic|
JET_TOL = 1e-13


def _magnitude(node, r):
    """Size of the terms that make up node's value: every sum and product
    taken over absolute values, so that |value| << magnitude flags
    cancellation.  Rounding in any evaluation of node is ~eps * magnitude."""
    if isinstance(node, Num):
        return abs(node.value)
    if isinstance(node, Var):
        return np.abs(r)
    if isinstance(node, (Add, Sub)):
        return _magnitude(node.a, r) + _magnitude(node.b, r)
    if isinstance(node, Mul):
        return _magnitude(node.a, r) * _magnitude(node.b, r)
    if isinstance(node, Div):
        return _magnitude(node.a, r) / np.abs(node.b.jet(r, 0)[0])
    if isinstance(node, Neg):
        return _magnitude(node.a, r)
    k = node._integer_exponent() if isinstance(node, Pow) else None
    if k is not None and k > 0:
        return _magnitude(node.base, r) ** k
    return np.abs(node.jet(r, 0)[0])


def _symbolic_jet(e: AnalyticExpr, pts, order: int = 3):
    """Rows e, e', ..., e^(order) from evaluated derivative trees, and the
    magnitude of each row's terms."""
    rows, mags = [], []
    for _ in range(order + 1):
        rows.append(e.evaluate(pts))
        with np.errstate(all="ignore"):
            mags.append(np.max(_magnitude(e.root, np.asarray(pts, dtype=float))))
        e = e.derivative()
    return np.array(rows), mags


def _check_jet(e: AnalyticExpr, pts) -> None:
    """Row 0 is evaluate() bit for bit (or fails the same way), and rows
    0-3 match the symbolic route wherever that route is defined.

    The bound is JET_TOL (1 + sup|symbolic|).  Where a row's terms cancel by
    more than two digits (magnitude > 100 (1 + sup|symbolic|)), the symbolic
    reference itself is only good to ~eps * magnitude, and the bound is taken
    relative to 1 + magnitude instead.
    """
    try:
        value = e.evaluate(pts)
    except DomainError as exc:
        with pytest.raises(DomainError) as got:
            e.jet(pts, 0)
        assert (str(got.value), got.value.node) == (str(exc), exc.node)
        return
    assert e.jet(pts, 0)[0].view(np.uint64).tolist() == value.view(np.uint64).tolist()
    try:
        sym, mags = _symbolic_jet(e, pts)
    except DomainError:
        return
    jet = e.jet(pts, 3)
    assert jet.shape == sym.shape
    for k in range(4):
        scale = 1.0 + np.max(np.abs(sym[k]))
        # near the top of the double range 100 * scale overflows to inf,
        # which compares as the exact product would
        with np.errstate(over="ignore"):
            if mags[k] > 100.0 * scale:
                scale = 1.0 + mags[k]
        assert np.max(np.abs(jet[k] - sym[k])) <= JET_TOL * scale, (str(e), k)


@given(random_exprs)
@settings(max_examples=200, deadline=None)
def test_jet_matches_symbolic_on_random_exprs(e: AnalyticExpr):
    _check_jet(e, np.linspace(0.13, 2.9, 17))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_jet_matches_symbolic_on_c8_exprs(seed):
    from test_acceptance import _random_expression

    rng = np.random.default_rng(seed)
    e = _random_expression(rng, 3)
    _check_jet(e, rng.uniform(0.25, 2.75, 100))


def _shipped_exprs():
    for path in sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json")):
        cfg = json.loads(path.read_text())
        g = cfg["grid"]
        v0 = cfg["base"]["V0"]
        for text in [cfg["base"]["h"], *(v0 if isinstance(v0, list) else [v0])]:
            yield pytest.param(text, RadialGrid(g["a"], g["b"], g["n"]), id=f"{path.stem}:{text}")


@pytest.mark.parametrize("text,grid", list(_shipped_exprs()))
def test_jet_matches_symbolic_on_shipped_exprs(text, grid):
    e = parse(text)
    sym, _ = _symbolic_jet(e, grid.r)
    jet = e.jet(grid.r, 3)
    assert jet[0].view(np.uint64).tolist() == sym[0].view(np.uint64).tolist()
    for k in range(4):
        assert np.max(np.abs(jet[k] - sym[k])) <= JET_TOL * (1.0 + np.max(np.abs(sym[k])))


class TestJetDomain:
    def test_sqrt_at_zero_has_no_derivative(self):
        g = RadialGrid(0.0, 1.0, 11)
        assert parse("sqrt(r)").jet(g.r, 0)[0][0] == 0.0
        for order in (1, 2, 3):
            with pytest.raises(DomainError) as exc:
                parse("sqrt(r)").jet(g.r, order)
            assert exc.value.node == 0

    def test_log_reports_node(self):
        g = RadialGrid(0.0, 3.0, 31)
        with pytest.raises(DomainError) as exc:
            parse("log(r - 2)").jet(g.r, 2)
        assert exc.value.node == 0

    def test_overflow_reports_node(self):
        g = RadialGrid(0.0, 40.0, 41)
        with pytest.raises(DomainError) as exc:
            parse("exp(r^2)").jet(g.r, 3)
        assert exc.value.node is not None

    def test_derivative_overflow_reports_node(self):
        # exp(700) ~ 1e304 and 700 exp(700) stay finite; 700^2 exp(700) does not
        g = RadialGrid(0.5, 1.0, 6)
        assert np.all(np.isfinite(parse("exp(700*r)").jet(g.r, 1)))
        with pytest.raises(DomainError) as exc:
            parse("exp(700*r)").jet(g.r, 2)
        assert exc.value.node == 5

    def test_square_at_zero_is_exact(self):
        jet = parse("r^2").jet(np.array([0.0, 1.0]), 3)
        assert jet.tolist() == [[0.0, 1.0], [0.0, 2.0], [2.0, 2.0], [0.0, 0.0]]

    def test_integer_power_of_negative_base(self):
        jet = parse("(r - 2)^3").jet(0.0, 3)
        assert jet.tolist() == [-8.0, 12.0, -12.0, 6.0]

    def test_division_by_zero(self):
        with pytest.raises(DomainError) as exc:
            parse("1/(r - 1)").jet(np.linspace(0.0, 2.0, 5), 1)
        assert exc.value.node == 2

    def test_order_zero_stops_at_the_value(self):
        # b^e underflows to 0 where e log b overflows: only the derivative
        # rows need e log b, so the value row and evaluate keep b^e
        r = np.linspace(0.0, 1.5, 16)  # through r = 1; r*1e308 stays finite
        e = parse("(1e-300)^(r*1e308)")
        expected = np.where(r == 0.0, 1.0, 0.0)
        assert np.array_equal(e.evaluate(r), expected)
        assert np.array_equal(e.jet(r, 0)[0], expected)
        assert e.evaluate(1.0) == 0.0 and e.jet(1.0, 0).tolist() == [0.0]
        with pytest.raises(DomainError):
            e.jet(r, 1)

    def test_scalar_and_order_zero(self):
        assert parse("exp(r)").jet(0.0, 0).tolist() == [1.0]
        with pytest.raises(ValueError):
            parse("r").jet(0.0, -1)
