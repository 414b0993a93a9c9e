"""Residual oracles and the Wronskian integral identity check."""

import numpy as np
import pytest

from conftest import const, field_of, unit_problem
from solvforge import (
    REGULAR_AT_LEFT,
    CustomBC,
    Direction,
    GridMismatchError,
    GridTooSmallError,
    RadialGrid,
    SampledField,
    Solution,
    check_wronskian_integral,
    matrix_residual,
    residual,
    solve,
)


def _analytic_solution(text: str, gamma_sq: float, grid) -> Solution:
    f = field_of(text, grid)
    return Solution(gamma_sq, f, CustomBC(float(f.values[0]), float(f.derivs[0]), "left"))


class TestResidual:
    def test_exact_solution_passes_tight(self, grid01):
        v0, h1 = unit_problem(grid01)
        rep = residual(v0, h1, _analytic_solution("sin(r)", 1.0, grid01), tol=1e-8)
        assert rep.passed
        assert rep.max_rel < 1e-8

    def test_offset_fails(self, grid01):
        v0, h1 = unit_problem(grid01)
        rep = residual(v0, h1, _analytic_solution("sin(r) + 0.1", 1.0, grid01), tol=1e-5)
        assert not rep.passed
        assert rep.max_abs == pytest.approx(0.1, abs=0.01)
        assert 0.03 <= rep.max_rel <= 0.12

    def test_zero_function_exact(self, grid01):
        v0 = field_of("exp(-r)", grid01)
        h = field_of("1 + r", grid01)
        rep = residual(v0, h, _analytic_solution("0", 3.7, grid01), tol=1e-12)
        assert rep.max_abs == 0.0
        assert rep.passed

    def test_small_grid_rejected(self):
        g = RadialGrid(0.0, 1.0, 5)
        v0, h1 = unit_problem(g)
        with pytest.raises(GridTooSmallError):
            residual(v0, h1, _analytic_solution("0", 1.0, g), tol=1e-5)

    def test_report_locates_defect(self, grid01):
        v0, h1 = unit_problem(grid01)
        vals = np.sin(grid01.r).copy()
        vals[500] += 1e-3
        f = Solution(1.0, type(v0)(grid01, vals, np.cos(grid01.r)), CustomBC(0, 1, "left"))
        rep = residual(v0, h1, f, tol=1e-5)
        assert not rep.passed
        assert abs(rep.argmax_node - 500) <= 2


def _stack(rows):
    """(N, K, n) stack of an N x K nested list of fields or solutions."""
    grid = rows[0][0].grid
    values = np.array([[f.values for f in row] for row in rows])
    derivs = np.array([[f.derivs for f in row] for row in rows])
    return SampledField(grid, values, derivs)


class TestMatrixResidual:
    def test_reduces_to_scalar_at_n1(self, grid01):
        v0, h1 = unit_problem(grid01)
        phi = _analytic_solution("sin(r)", 1.0, grid01)
        scalar = residual(v0, h1, phi, tol=1e-8)
        mat = matrix_residual(_stack([[v0]]), h1, _stack([[phi]]), [1.0], tol=1e-8)
        assert mat.max_abs == scalar.max_abs
        assert mat.max_rel == scalar.max_rel

    def test_decoupled_diagonal_analytic(self, grid01):
        v0, h1 = unit_problem(grid01)
        zero = const(grid01, 0.0)
        vm = ((zero, zero), (zero, zero))
        phi = (
            (_analytic_solution("sin(r)", 1.0, grid01), _analytic_solution("0", 1.0, grid01)),
            (_analytic_solution("0", 4.0, grid01), _analytic_solution("sin(2*r)", 4.0, grid01)),
        )
        rep = matrix_residual(_stack(vm), h1, _stack(phi), [1.0, 4.0], tol=1e-8)
        assert rep.passed

    def test_coupling_sum_enters(self, grid01):
        # V12 != 0 must break a solution of the decoupled problem
        v0, h1 = unit_problem(grid01)
        zero = const(grid01, 0.0)
        c = const(grid01, 0.5)
        vm = ((zero, c), (c, zero))
        phi = (
            (_analytic_solution("sin(r)", 1.0, grid01), _analytic_solution("sin(r)", 1.0, grid01)),
            (_analytic_solution("sin(r)", 1.0, grid01), _analytic_solution("sin(r)", 1.0, grid01)),
        )
        rep = matrix_residual(_stack(vm), h1, _stack(phi), [1.0, 1.0], tol=1e-6)
        assert not rep.passed

    def test_grid_mismatch_rejected(self, grid01):
        v0, h1 = unit_problem(grid01)
        phi = _analytic_solution("sin(r)", 1.0, grid01)
        other = RadialGrid(0.0, 2.0, grid01.n)
        moved = SampledField(other, phi.values, phi.derivs)
        with pytest.raises(GridMismatchError):
            matrix_residual(_stack([[v0]]), h1, _stack([[moved]]), [1.0])


class TestWronskianIntegral:
    def test_regular_pair_from_left(self):
        g = RadialGrid(0.0, 10.0, 10001)
        v0 = field_of("exp(-r)", g)
        h = field_of("1 + 0.3*exp(-r)", g)
        pa = solve(v0, h, 1.7, REGULAR_AT_LEFT)
        pb = solve(v0, h, -0.8, REGULAR_AT_LEFT)
        rep = check_wronskian_integral(pa, pb, h, Direction.FROM_LEFT, tol=1e-7)
        assert rep.passed

    def test_decaying_pair_from_right(self):
        g = RadialGrid(0.0, 10.0, 10001)
        v0, h1 = unit_problem(g)
        pa = _analytic_solution("exp(-1.1*r)", -1.21, g)
        pb = _analytic_solution("exp(-1.5*r)", -2.25, g)
        rep = check_wronskian_integral(pa, pb, h1, Direction.FROM_RIGHT, tol=1e-7)
        assert rep.passed

    def test_wrong_direction_fails(self):
        g = RadialGrid(0.0, 10.0, 10001)
        v0, h1 = unit_problem(g)
        pa = solve(v0, h1, 1.7, REGULAR_AT_LEFT)
        pb = solve(v0, h1, -0.8, REGULAR_AT_LEFT)
        rep = check_wronskian_integral(pa, pb, h1, Direction.FROM_RIGHT, tol=1e-7)
        assert not rep.passed
