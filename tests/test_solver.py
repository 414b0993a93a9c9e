"""RK4 integration of the generalized radial equation."""

import math

import numpy as np
import pytest

from conftest import const, field_of, unit_problem
from solvforge import (
    JOST_AT_RIGHT,
    REGULAR_AT_LEFT,
    BlowupError,
    BoundaryError,
    CustomBC,
    GridMismatchError,
    InvalidWeightError,
    RadialGrid,
    SeedRejectedError,
    default_grid,
    residual,
    seed_from_expression,
    solve,
    wronskian,
)

COSH_1 = 1.5430806348152437


def test_default_grid():
    g = default_grid()
    assert (g.a, g.b, g.n) == (0.0, 10.0, 10001)
    assert g.step == pytest.approx(1e-3)


class TestSolve:
    def test_free_oscillator_matches_sin(self):
        g = RadialGrid(0.0, math.pi, 3142)
        v0, h1 = unit_problem(g)
        sol = solve(v0, h1, 1.0, REGULAR_AT_LEFT)
        assert np.max(np.abs(sol.values - np.sin(g.r))) < 1e-8
        assert np.max(np.abs(sol.derivs - np.cos(g.r))) < 1e-8

    def test_zero_gamma_gives_linear(self):
        g = RadialGrid(0.0, math.pi, 1001)
        v0, h1 = unit_problem(g)
        sol = solve(v0, h1, 0.0, REGULAR_AT_LEFT)
        assert np.max(np.abs(sol.values - g.r)) < 1e-12

    def test_cosh_from_custom_bc(self, grid01):
        v0, h1 = unit_problem(grid01)
        sol = solve(v0, h1, -1.0, CustomBC(1.0, 0.0, "left"))
        assert sol.values[-1] == pytest.approx(COSH_1, abs=1e-8)

    def test_regular_endpoint_exact(self, grid01):
        v0, h1 = unit_problem(grid01)
        sol = solve(v0, h1, 2.5, REGULAR_AT_LEFT)
        assert sol.values[0] == 0.0
        assert sol.derivs[0] == 1.0

    def test_halving_step_order(self):
        errs = []
        for n in (101, 201):
            g = RadialGrid(0.0, math.pi, n)
            v0, h1 = unit_problem(g)
            sol = solve(v0, h1, 1.0, REGULAR_AT_LEFT)
            errs.append(np.max(np.abs(sol.values - np.sin(g.r))))
        assert errs[0] / errs[1] >= 11.0

    def test_jost_decaying_free_case(self):
        g = RadialGrid(0.0, 10.0, 10001)
        v0, h1 = unit_problem(g)
        sol = solve(v0, h1, -4.0, JOST_AT_RIGHT)
        assert np.max(np.abs(sol.values - np.exp(-2.0 * g.r))) < 1e-9
        assert np.max(np.abs(sol.derivs + 2.0 * np.exp(-2.0 * g.r))) < 1e-9

    def test_jost_requires_forbidden_tail(self, grid01):
        v0, h1 = unit_problem(grid01)
        with pytest.raises(BoundaryError):
            solve(v0, h1, 1.0, JOST_AT_RIGHT)

    def test_nonuniform_weight(self):
        # -phi'' = gamma^2 (1+r)^4 phi has phi = sin(gamma (1+r)^3 / 3 ...) no
        # simple closed form; check the residual oracle instead
        g = RadialGrid(0.0, 2.0, 2001)
        v0 = const(g, 0.0)
        h4 = field_of("(1+r)^4", g)
        sol = solve(v0, h4, 1.0, REGULAR_AT_LEFT)
        rep = residual(v0, h4, sol, tol=1e-6)
        assert rep.passed

    def test_blowup_reports_node(self):
        g = RadialGrid(0.0, 10.0, 10001)
        v0, h1 = unit_problem(g)
        with pytest.raises(BlowupError):
            solve(v0, h1, -10000.0, REGULAR_AT_LEFT)

    def test_backward_blowup_node_mirrors_the_forward_one(self):
        # V and h are constant, so the backward solve is the forward one
        # mirrored and blows up at the mirrored node
        g = RadialGrid(0.0, 10.0, 10001)
        v0, h1 = unit_problem(g)
        nodes = {}
        for at in ("left", "right"):
            with pytest.raises(BlowupError) as exc:
                solve(v0, h1, -1e4, CustomBC(1.0, 0.0, at))
            nodes[at] = exc.value.node
        assert nodes == {"left": 5764, "right": g.n - 1 - 5764}

    def test_weight_must_be_positive(self, grid01):
        v0 = const(grid01, 0.0)
        h = field_of("r - 0.5", grid01)
        with pytest.raises(InvalidWeightError):
            solve(v0, h, 1.0, REGULAR_AT_LEFT)

    def test_grid_mismatch(self, grid01):
        other = RadialGrid(0.0, 2.0, 1001)
        with pytest.raises(GridMismatchError):
            solve(const(grid01, 0.0), const(other, 1.0), 1.0, REGULAR_AT_LEFT)

    def test_wronskian_constant_for_shared_gamma(self):
        # same gamma^2, shared h: dW/dr = 0, so W is constant across nodes
        g = RadialGrid(0.0, 5.0, 5001)
        v0 = field_of("exp(-r)", g)
        h = field_of("1 + 0.5*exp(-r)", g)
        s1 = solve(v0, h, 1.3, REGULAR_AT_LEFT)
        s2 = solve(v0, h, 1.3, CustomBC(1.0, 0.0, "left"))
        w = wronskian(s1.field, s2.field).values
        assert np.max(np.abs(w - w[0])) < 1e-8

    def test_solver_output_passes_residual(self):
        g = RadialGrid(0.0, 5.0, 5001)
        v0 = field_of("-1/(1+r)^2", g)
        h = field_of("1 + exp(-2*r)", g)
        for gamma_sq in (-1.5, 0.0, 2.0):
            sol = solve(v0, h, gamma_sq, REGULAR_AT_LEFT)
            assert residual(v0, h, sol, tol=1e-6).passed


class TestSeedFromExpression:
    def test_cosh_accepted(self, grid01):
        v0, h1 = unit_problem(grid01)
        sol = seed_from_expression("cosh(r)", grid01, gamma_sq=-1.0, V0=v0, h=h1)
        assert sol.gamma_sq == -1.0
        assert np.max(np.abs(sol.values - np.cosh(grid01.r))) < 1e-12

    def test_constant_seed_zero_energy(self, grid01):
        v0 = const(grid01, 0.0)
        h4 = field_of("(1+r)^4", grid01)
        sol = seed_from_expression("1", grid01, gamma_sq=0.0, V0=v0, h=h4)
        assert np.all(sol.values == 1.0)

    def test_non_solution_rejected_with_report(self, grid01):
        v0, h1 = unit_problem(grid01)
        with pytest.raises(SeedRejectedError) as exc:
            seed_from_expression("sin(r) + 0.1", grid01, gamma_sq=1.0, V0=v0, h=h1)
        rep = exc.value.report
        assert rep.max_abs == pytest.approx(0.1, abs=0.02)
        assert 0.03 <= rep.max_rel <= 0.12
