"""Grids, sampled fields, Wronskians, and prefix quadrature."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import const, field_of
from solvforge import (
    Direction,
    ForgeError,
    GridMismatchError,
    NonFiniteFieldError,
    RadialGrid,
    SampledField,
    field_from_arrays,
    integrate_prefix,
    signed_prefix,
    wronskian,
)

SINH_SQ_INT_AT_1 = 0.4067151019617546  # (sinh 1 cosh 1 - 1) / 2, closed form


class TestRadialGrid:
    def test_step(self):
        g = RadialGrid(0.0, 1.0, 11)
        assert g.step == pytest.approx(0.1)
        assert np.allclose(g.r, np.linspace(0, 1, 11))

    # the last two: a step whose 12*step^2 underflows, a span b - a that overflows
    @pytest.mark.parametrize(
        "a,b,n",
        [(1.0, 1.0, 10), (2.0, 1.0, 10), (0.0, 1.0, 2), (0.0, 1e-300, 201),
         (-1.7e308, 1.7e308, 201)],
    )
    def test_invalid(self, a, b, n):
        with pytest.raises(ValueError):
            RadialGrid(a, b, n)

    def test_nodes_increasing_uniform(self):
        g = RadialGrid(0.5, 2.5, 41)
        d = np.diff(g.r)
        assert np.all(d > 0)
        assert np.max(np.abs(d - g.step)) < 1e-14


class TestSampledField:
    def test_length_mismatch(self, grid01):
        with pytest.raises(ValueError):
            SampledField(grid01, np.zeros(5), np.zeros(grid01.n))

    def test_nonfinite_rejected(self, grid01):
        vals = np.zeros(grid01.n)
        vals[3] = np.inf
        with pytest.raises(ValueError, match="node 3"):
            SampledField(grid01, vals, np.zeros(grid01.n))

    def test_nonfinite_error_is_typed(self, grid01):
        # the first node holding a non-finite entry, whichever row holds it
        derivs = np.zeros((2, grid01.n))
        derivs[0, 9] = np.inf
        derivs[1, 7] = np.nan
        with pytest.raises(NonFiniteFieldError) as exc:
            SampledField(grid01, np.zeros((2, grid01.n)), derivs)
        assert isinstance(exc.value, ForgeError) and isinstance(exc.value, ValueError)
        assert exc.value.node == 7
        assert str(exc.value) == "derivs contains a non-finite entry at node 7"

    def test_immutable(self, grid01):
        f = const(grid01, 1.0)
        with pytest.raises(ValueError):
            f.values[0] = 2.0

    def test_product_rule_matches_symbolic(self, grid01):
        f = field_of("sin(r)", grid01)
        g = field_of("exp(-r)", grid01)
        prod = f * g
        ref = field_of("sin(r)*exp(-r)", grid01)
        assert np.max(np.abs(prod.derivs - ref.derivs)) < 1e-13

    def test_quotient_rule_matches_symbolic(self, grid01):
        f = field_of("cosh(r)", grid01)
        g = field_of("(1+r)^2", grid01)
        ref = field_of("cosh(r)/(1+r)^2", grid01)
        q = f / g
        assert np.max(np.abs(q.values - ref.values)) < 1e-13
        assert np.max(np.abs(q.derivs - ref.derivs)) < 1e-13

    def test_scalar_ops(self, grid01):
        f = field_of("r", grid01)
        g = 2.0 * f - 1.0
        assert g.values[0] == -1.0
        assert np.allclose(g.derivs, 2.0)

    def test_grid_mismatch(self, grid01):
        other = RadialGrid(0.0, 2.0, 1001)
        with pytest.raises(GridMismatchError):
            const(grid01, 1.0) + const(other, 1.0)

    def test_from_arrays_broadcasts_scalars(self, grid01):
        f = field_from_arrays(grid01, 2.5, 0.0)
        assert np.all(f.values == 2.5)
        assert np.all(f.derivs == 0.0)
        g = field_from_arrays(grid01, grid01.r, 1.0)
        assert np.array_equal(g.values, grid01.r)


class TestWronskian:
    def test_self_is_zero(self, grid01):
        f = field_of("exp(r)*sin(3*r)", grid01)
        w = wronskian(f, f)
        assert np.all(w.values == 0.0)

    def test_hyperbolic_identity(self, grid01):
        w = wronskian(field_of("cosh(r)", grid01), field_of("sinh(r)", grid01))
        assert np.max(np.abs(w.values - 1.0)) < 1e-12

    def test_trig_identity(self, grid01):
        # independent evaluation: sin*(cos)' - (sin)'*cos = -(sin^2 + cos^2)
        w = wronskian(field_of("sin(r)", grid01), field_of("cos(r)", grid01))
        assert np.max(np.abs(w.values + 1.0)) < 1e-12

    def test_grid_mismatch(self, grid01):
        g2 = RadialGrid(0.0, 1.0, 501)
        with pytest.raises(GridMismatchError):
            wronskian(const(grid01, 1.0), const(g2, 1.0))

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_antisymmetric_and_bilinear(self, seed):
        rng = np.random.default_rng(seed)
        g = RadialGrid(0.0, 1.0, 41)
        mk = lambda: SampledField(g, rng.uniform(-2, 2, g.n), rng.uniform(-2, 2, g.n))
        f1, f2, g1 = mk(), mk(), mk()
        a, b = rng.uniform(-3, 3, 2)
        anti = wronskian(f1, g1).values + wronskian(g1, f1).values
        assert np.max(np.abs(anti)) < 1e-12
        lin = wronskian(a * f1 + b * f2, g1).values - (
            a * wronskian(f1, g1).values + b * wronskian(f2, g1).values
        )
        assert np.max(np.abs(lin)) < 1e-10

    def test_wronskian_of_a_stack_is_row_by_row(self, grid01):
        rows = [(field_of(a, grid01), field_of(b, grid01))
                for a, b in (("sin(r)", "cos(r)"), ("exp(-r)", "r^3"))]

        def stacked(fields):
            return SampledField(grid01, np.stack([f.values for f in fields]),
                                np.stack([f.derivs for f in fields]))

        w = wronskian(stacked([f for f, _ in rows]), stacked([g for _, g in rows]))
        for j, (f, g) in enumerate(rows):
            one = wronskian(f, g)
            assert np.array_equal(w.values[j], one.values)
            assert np.array_equal(w.derivs[j], one.derivs)


class TestPrefixIntegral:
    def test_zero(self, grid01):
        out = integrate_prefix(const(grid01, 0.0), Direction.FROM_LEFT)
        assert np.all(out.values == 0.0)

    def test_constant_from_left(self, grid01):
        out = integrate_prefix(const(grid01, 1.0), Direction.FROM_LEFT)
        assert np.max(np.abs(out.values - grid01.r)) < 1e-12

    def test_exact_for_cubics_at_every_node(self):
        g = RadialGrid(0.0, 2.0, 38)  # even node count exercises the odd closing panel
        f = field_of("r^3 - 2*r^2 + 0.5*r - 1", g)
        exact = g.r ** 4 / 4 - 2 * g.r ** 3 / 3 + 0.25 * g.r ** 2 - g.r
        out = integrate_prefix(f, Direction.FROM_LEFT)
        assert np.max(np.abs(out.values - exact)) < 1e-13

    def test_sinh_squared_closed_form(self, grid01):
        out = integrate_prefix(field_of("sinh(r)^2", grid01), Direction.FROM_LEFT)
        assert out.values[-1] == pytest.approx(SINH_SQ_INT_AT_1, abs=1e-12)

    def test_left_at_b_equals_right_at_a(self, grid01):
        f = field_of("exp(-r)*cos(4*r)", grid01)
        left = integrate_prefix(f, Direction.FROM_LEFT)
        right = integrate_prefix(f, Direction.FROM_RIGHT)
        assert left.values[-1] == pytest.approx(right.values[0], abs=1e-12)
        # complement identity at every node
        total = left.values[-1]
        assert np.max(np.abs(left.values + right.values - total)) < 1e-12

    def test_derivative_channels(self, grid01):
        f = field_of("sin(r)", grid01)
        left = integrate_prefix(f, Direction.FROM_LEFT)
        right = integrate_prefix(f, Direction.FROM_RIGHT)
        assert np.array_equal(left.derivs, f.values)
        assert np.array_equal(right.derivs, -f.values)

    def test_convergence_order(self):
        # exact integral of exp on [0, 1] is e - 1
        errs = []
        for n in (34, 67):
            g = RadialGrid(0.0, 1.0, n)
            out = integrate_prefix(field_of("exp(r)", g), Direction.FROM_LEFT)
            errs.append(abs(out.values[-1] - (np.e - 1.0)))
        order = np.log2(errs[0] / errs[1])
        assert order >= 3.5

    @pytest.mark.parametrize("direction", [Direction.FROM_LEFT, Direction.FROM_RIGHT])
    @pytest.mark.parametrize("n", [1001, 1000])  # n - 1 even, then odd (closing panel)
    def test_column_stack_matches_each_column(self, n, direction):
        g = RadialGrid(0.0, 3.0, n)
        cols = [field_of(t, g) for t in ("exp(-r)*cos(4*r)", "r^3 - 2*r", "sinh(r)^2")]
        stack = SampledField(g, np.stack([c.values for c in cols]), np.stack([c.derivs for c in cols]))
        out = signed_prefix(stack, direction)
        for j, c in enumerate(cols):
            one = signed_prefix(c, direction)
            assert np.array_equal(out.values[j], one.values)
            assert np.array_equal(out.derivs[j], one.derivs)

    def test_column_stack_shape_mismatch_rejected(self, grid01):
        stack = SampledField(grid01, np.ones((2, grid01.n)), np.zeros((2, grid01.n)))
        with pytest.raises(ValueError, match="shapes"):
            stack * const(grid01, 2.0)
        with pytest.raises(ValueError, match="shapes"):
            stack + 1.0
        assert np.array_equal((stack * stack).values, stack.values)

    @pytest.mark.parametrize("direction", [Direction.FROM_LEFT, Direction.FROM_RIGHT])
    @pytest.mark.parametrize("columns", [0, 3], ids=["field", "stack"])
    def test_signed_prefix_is_the_oriented_integrate_prefix(self, direction, columns):
        g = RadialGrid(0.0, 3.0, 1000)
        texts = ("exp(-r)*cos(4*r)", "r^3 - 2*r", "sinh(r)^2")
        if columns:
            cols = [field_of(t, g) for t in texts]
            f = SampledField(g, np.stack([c.values for c in cols]),
                             np.stack([c.derivs for c in cols]))
        else:
            f = field_of(texts[0], g)
        ref = integrate_prefix(f, direction)
        if direction is Direction.FROM_RIGHT:
            ref = -ref
        out = signed_prefix(f, direction)
        assert np.array_equal(out.values, ref.values)
        assert np.array_equal(out.derivs, ref.derivs)

    def test_signed_prefix_orientation(self, grid01):
        f = field_of("1", grid01)
        sp = signed_prefix(f, Direction.FROM_RIGHT)
        # vanishes at b, negative of the r-to-b integral, derivative +f
        assert sp.values[-1] == 0.0
        assert sp.values[0] == pytest.approx(-1.0, abs=1e-12)
        assert np.array_equal(sp.derivs, f.values)
