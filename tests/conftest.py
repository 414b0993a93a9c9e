"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from solvforge import RadialGrid, SampledField, constant_field, evaluate_on_grid, parse


def const(grid: RadialGrid, value: float) -> SampledField:
    return constant_field(grid, value)


def field_of(text: str, grid: RadialGrid) -> SampledField:
    return evaluate_on_grid(parse(text), grid)


def unit_problem(grid: RadialGrid):
    """Free base problem: V0 = 0, h = 1."""
    return const(grid, 0.0), field_of("1", grid)


def fd4(values: np.ndarray, step: float) -> np.ndarray:
    """Fourth-order central first derivative on interior nodes [2, n-3] of the last axis."""
    return (values[..., :-4] - 8.0 * values[..., 1:-3] + 8.0 * values[..., 3:-1]
            - values[..., 4:]) / (12.0 * step)


@pytest.fixture
def grid01() -> RadialGrid:
    return RadialGrid(0.0, 1.0, 1001)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260808)
