"""Numerical integration of the generalized radial equation

    -phi'' + V(r) phi = gamma^2 h(r) phi

rewritten as phi'' = q(r) phi with q = V - gamma^2 h and marched with
classical RK4 on the first-order system (phi, phi').  Midpoint values of q
are obtained by cubic Hermite interpolation from the node values and the
carried derivatives, which preserves the fourth-order accuracy of RK4.

Solutions carry their derivative directly from the integration state, so
downstream Wronskians involve no numerical differentiation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from . import verify
from ._kernels import rk4_propagate
from .errors import (
    BlowupError,
    BoundaryError,
    DirectionMismatchError,
    GridMismatchError,
    InvalidWeightError,
    SeedRejectedError,
)
from .expr import AnalyticExpr, evaluate_on_grid, parse
from .grid import Direction, RadialGrid, SampledField

__all__ = [
    "RegularAtLeft",
    "JostAtRight",
    "CustomBC",
    "BoundaryCondition",
    "REGULAR_AT_LEFT",
    "JOST_AT_RIGHT",
    "Solution",
    "bc_for",
    "MIN_SPECTRAL_GAP",
    "solve",
    "seed_from_expression",
    "default_grid",
    "SEED_RESIDUAL_TOL",
]

#: residual tolerance of every seed gate (analytic seeds, Bargmann seed
#: sets, multichannel base solutions), relative to the problem scale
#: max|gamma^2 h phi| + 1
SEED_RESIDUAL_TOL = 1e-6

#: values beyond this magnitude are treated as blow-up
BLOWUP_LIMIT = 1e250


@dataclass(frozen=True)
class RegularAtLeft:
    """phi(a) = 0, phi'(a) = 1 exactly at the left endpoint node."""


@dataclass(frozen=True)
class JostAtRight:
    """Locally decaying branch at the right endpoint.

    Seeds the backward integration with phi(b) = exp(-kappa (b - a)) and
    phi'(b) = -kappa phi(b), where kappa = sqrt(V(b) - gamma^2 h(b)).
    Requires V(b) - gamma^2 h(b) > 0 (a classically forbidden tail), else no
    decaying branch exists on the interval.
    """


@dataclass(frozen=True)
class CustomBC:
    """Explicit value and slope at one endpoint ('left' or 'right')."""

    value: float
    slope: float
    at: str = "left"

    def __post_init__(self):
        if self.at not in ("left", "right"):
            raise ValueError("CustomBC.at must be 'left' or 'right'")


BoundaryCondition = Union[RegularAtLeft, JostAtRight, CustomBC]

REGULAR_AT_LEFT = RegularAtLeft()
JOST_AT_RIGHT = JostAtRight()


#: spectral parameters closer than this are treated as coinciding: two seeds
#: of a set, or a map's evaluation gamma^2 and its seed gamma^2
MIN_SPECTRAL_GAP = 1e-8


def bc_for(direction: Direction) -> BoundaryCondition:
    """Boundary class that pairs with `direction`: regular from-left, Jost-type from-right."""
    return REGULAR_AT_LEFT if direction is Direction.FROM_LEFT else JOST_AT_RIGHT


def _check_direction(bc, direction: Direction) -> None:
    """DirectionMismatchError unless a regular or Jost-type bc pairs with `direction`."""
    if isinstance(bc, RegularAtLeft) and direction is not Direction.FROM_LEFT:
        raise DirectionMismatchError("regular solutions pair with the from-left integral")
    if isinstance(bc, JostAtRight) and direction is not Direction.FROM_RIGHT:
        raise DirectionMismatchError(
            "decaying (Jost-type) solutions pair with the from-right integral"
        )


@dataclass(frozen=True)
class Solution:
    """A solved phi(gamma, r): spectral parameter, values + derivatives, BC tag."""

    gamma_sq: float
    field: SampledField
    bc: BoundaryCondition

    @property
    def grid(self) -> RadialGrid:
        return self.field.grid

    @property
    def values(self) -> np.ndarray:
        return self.field.values

    @property
    def derivs(self) -> np.ndarray:
        return self.field.derivs


def default_grid() -> RadialGrid:
    """The stock working grid: [0, 10] at step 1e-3."""
    return RadialGrid(0.0, 10.0, 10001)


def _check_weight(h: SampledField) -> None:
    """InvalidWeightError at the first node where h is not positive."""
    nonpos = h.values <= 0.0
    if np.any(nonpos):
        raise InvalidWeightError(int(np.flatnonzero(nonpos)[0]))


def _check_inputs(V: SampledField, h: SampledField) -> None:
    if V.grid != h.grid:
        raise GridMismatchError("potential and weight sampled on different grids")
    _check_weight(h)


def _coefficients(V: SampledField, h: SampledField, gamma_sq: float, step: float):
    """q = V - gamma^2 h at the nodes, and at the panel midpoints by cubic
    Hermite interpolation from the carried derivatives, error O(step^4)."""
    # an overflow here propagates through the kernel and is reported by solve
    with np.errstate(over="ignore", invalid="ignore"):
        q = V.values - gamma_sq * h.values
        qd = V.derivs - gamma_sq * h.derivs
        # 0.5 (q[:-1] + q[1:]) + (step / 8) (qd[:-1] - qd[1:]), in place
        qm = q[:-1] + q[1:]
        qm *= 0.5
        qd = qd[:-1] - qd[1:]
        qd *= step / 8.0
        qm += qd
    return q, qm


def solve(
    V: SampledField,
    h: SampledField,
    gamma_sq: float,
    bc: BoundaryCondition,
) -> Solution:
    """Integrate -phi'' + V phi = gamma^2 h phi for one boundary condition.

    Raises BlowupError (with the node index) if the trajectory leaves the
    representable range, InvalidWeightError if h is not positive.
    """
    _check_inputs(V, h)
    g = V.grid
    step = g.step
    q, qm = _coefficients(V, h, gamma_sq, step)

    if isinstance(bc, RegularAtLeft):
        value, slope, backward = 0.0, 1.0, False
    elif isinstance(bc, JostAtRight):
        qb = q[-1]
        if qb <= 0.0:
            raise BoundaryError(
                "no decaying branch at the right endpoint: "
                f"V(b) - gamma^2 h(b) = {qb:.6g} is not positive"
            )
        kappa = float(np.sqrt(qb))
        value = float(np.exp(-kappa * (g.b - g.a)))
        if value == 0.0:
            raise BoundaryError("decaying boundary value underflows; shrink the interval")
        slope = -kappa * value
        backward = True
    elif isinstance(bc, CustomBC):
        value, slope = float(bc.value), float(bc.slope)
        backward = bc.at == "right"
    else:
        raise TypeError(f"unsupported boundary condition {bc!r}")

    if backward:
        phi, dphi = rk4_propagate(q[::-1], qm[::-1], step, value, -slope)
        phi, dphi = phi[::-1], -dphi[::-1]
    else:
        phi, dphi = rk4_propagate(q, qm, step, value, slope)
    del q, qm  # only the solution is needed past the kernel

    # abs(phi) < BLOWUP_LIMIT is false at nan and +-inf as well
    bad = ~(np.isfinite(dphi) & (np.abs(phi) < BLOWUP_LIMIT))
    if np.any(bad):
        # the first bad node in the order of integration
        raise BlowupError(int(np.flatnonzero(bad)[-1 if backward else 0]))

    # the backward phi is a reversed view, which the field copies once
    return Solution(float(gamma_sq), SampledField._sharing(g, phi, dphi), bc)


def seed_from_expression(
    y_text: str | AnalyticExpr,
    g: RadialGrid,
    *,
    gamma_sq: float,
    V0: SampledField,
    h: SampledField,
) -> Solution:
    """Sample an analytic seed and validate it against its claimed base problem.

    The candidate is accepted only if the independent residual check of
    -y'' + V0 y = gamma_sq h y passes at SEED_RESIDUAL_TOL; otherwise
    SeedRejectedError carries the residual report.  This prevents constructing potentials from
    functions that do not actually solve the base equation.
    """
    e = parse(y_text) if isinstance(y_text, str) else y_text
    field = evaluate_on_grid(e, g)
    sol = Solution(
        float(gamma_sq),
        field,
        CustomBC(float(field.values[0]), float(field.derivs[0]), "left"),
    )
    report = verify.residual(V0, h, sol, tol=SEED_RESIDUAL_TOL)
    if not report.passed:
        raise SeedRejectedError(report, text=str(e))
    return sol
