"""Uniform radial grids and sampled fields.

A SampledField carries function values together with first derivatives at
every node, so that Wronskians and the algebraic transform formulas never
have to differentiate numerically.  A stack of fields holds the nodes on its
last axis, (..., n), the layout of the transforms' arrays.  Quadrature is
composite Simpson with a derivative-corrected trapezoid closing the odd
panel, which keeps prefix integrals exact for polynomials up to degree three
and fourth-order accurate for smooth integrands.

All types are immutable after construction; operations are pure and safe
to use from concurrent contexts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from numbers import Real

import numpy as np

from .errors import GridMismatchError, NonFiniteFieldError


class Direction(enum.Enum):
    """Orientation of a cumulative integral.

    FROM_LEFT accumulates from the left endpoint a (spectral data anchored at
    the origin, the convention for regular solutions); FROM_RIGHT accumulates
    from the right endpoint b (the convention for decaying, Jost-type
    solutions).
    """

    FROM_LEFT = "from_left"
    FROM_RIGHT = "from_right"


@dataclass(frozen=True)
class RadialGrid:
    """Uniform grid of n nodes on [a, b]."""

    a: float
    b: float
    n: int

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise ValueError("grid endpoints must be finite")
        if not self.a < self.b:
            raise ValueError(f"need a < b, got a={self.a}, b={self.b}")
        if self.n < 3:
            raise ValueError(f"need at least 3 nodes, got n={self.n}")
        span = float(self.b) - float(self.a)
        if not np.isfinite(span):
            raise ValueError(f"the span b - a overflows, a={self.a}, b={self.b}")
        # 12 step^2 divides the fourth-order stencils of the residual oracle
        step = span / (self.n - 1)
        if 12.0 * step * step < np.finfo(float).tiny:
            raise ValueError(f"the step {step:.3g} is too small: 12*step^2 underflows")

    @property
    def step(self) -> float:
        return (self.b - self.a) / (self.n - 1)

    @cached_property
    def r(self) -> np.ndarray:
        nodes = np.linspace(self.a, self.b, self.n)
        nodes.flags.writeable = False
        return nodes


def _checked(x, n: int, what: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim < 1 or arr.shape[-1] != n:
        raise ValueError(f"{what} must have shape (..., {n}), got {arr.shape}")
    if not np.isfinite(arr).all():
        finite = np.isfinite(arr).reshape(-1, n).all(axis=0)
        raise NonFiniteFieldError(what, int(np.flatnonzero(~finite)[0]))
    return arr


@dataclass(frozen=True)
class SampledField:
    """Function values and first derivatives on a radial grid.

    Arithmetic operators combine both channels (product and quotient rules),
    so composite fields keep exact derivative information.  A stack of fields
    has the nodes on its last axis, (k, n) for k rows or (N, N, n) for a
    matrix field, each entry one contiguous row, and combines only with
    stacks of the same shape.
    """

    grid: RadialGrid
    values: np.ndarray
    derivs: np.ndarray

    def __post_init__(self):
        for what in ("values", "derivs"):
            arr = _checked(getattr(self, what), self.grid.n, what).copy()
            arr.flags.writeable = False
            object.__setattr__(self, what, arr)

    @classmethod
    def _sharing(cls, grid: RadialGrid, values: np.ndarray, derivs: np.ndarray) -> "SampledField":
        """A field over arrays the library has just made: checked like any
        other, marked read-only and adopted without a copy.  A non-contiguous
        view, such as a reversed row, is copied once instead.  The public
        constructor copies every array a caller passes."""
        field = object.__new__(cls)
        field.__dict__["grid"] = grid
        for what, arr in (("values", values), ("derivs", derivs)):
            arr = np.ascontiguousarray(_checked(arr, grid.n, what))
            arr.flags.writeable = False
            field.__dict__[what] = arr
        return field

    def _coerce(self, other) -> "SampledField":
        if isinstance(other, Real):
            other = constant_field(self.grid, float(other))
        elif not isinstance(other, SampledField):
            return NotImplemented
        elif other.grid != self.grid:
            raise GridMismatchError("fields live on different grids")
        if other.values.shape != self.values.shape:
            raise ValueError(f"field shapes {self.values.shape} and {other.values.shape} differ")
        return other

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return SampledField._sharing(self.grid, self.values + o.values, self.derivs + o.derivs)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return SampledField._sharing(self.grid, self.values - o.values, self.derivs - o.derivs)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return SampledField._sharing(self.grid, o.values - self.values, o.derivs - self.derivs)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return SampledField._sharing(
            self.grid,
            self.values * o.values,
            self.derivs * o.values + self.values * o.derivs,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return SampledField._sharing(
            self.grid,
            self.values / o.values,
            (self.derivs * o.values - self.values * o.derivs) / (o.values * o.values),
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o / self

    def __neg__(self):
        return SampledField._sharing(self.grid, -self.values, -self.derivs)


def constant_field(grid: RadialGrid, value: float) -> SampledField:
    return SampledField._sharing(grid, np.full(grid.n, float(value)), np.zeros(grid.n))


def field_from_arrays(grid: RadialGrid, values, derivs) -> SampledField:
    """Convenience constructor that broadcasts scalars."""
    values = np.broadcast_to(np.asarray(values, dtype=float), (grid.n,))
    derivs = np.broadcast_to(np.asarray(derivs, dtype=float), (grid.n,))
    return SampledField(grid, values, derivs)


def wronskian(f: SampledField, g: SampledField) -> SampledField:
    """W{f, g} = f g' - f' g, node-wise, from the carried derivatives.

    The derivative channel of the result would need second derivatives of f
    and g, which value data alone does not determine.  It is filled with an
    O(step^2) finite difference of the W values as a convenience; transform
    code replaces it with the exact spectral identity W' = h (g1^2 - g2^2) f g
    whenever f and g solve the radial equation.
    """
    if f.grid != g.grid:
        raise GridMismatchError("wronskian operands live on different grids")
    w = f.values * g.derivs - f.derivs * g.values
    dw = np.gradient(w, f.grid.step, axis=-1)
    return SampledField._sharing(f.grid, w, dw)


def _prefix_from_left(values: np.ndarray, derivs: np.ndarray, step: float) -> np.ndarray:
    """Cumulative integral from the first node, O(step^4), along the last axis.

    Even node offsets use composite Simpson over panel pairs; an odd final
    panel is closed with the derivative-corrected trapezoid
    h (f0 + f1)/2 + h^2 (f0' - f1')/12, which is likewise exact for cubics.
    """
    out = np.zeros(values.shape)
    pair = (step / 3.0) * (values[..., 0:-2:2] + 4.0 * values[..., 1:-1:2] + values[..., 2::2])
    out[..., 2::2] = np.cumsum(pair, axis=-1)
    panel = (step / 2.0) * (values[..., 0:-1:2] + values[..., 1::2]) + (step * step / 12.0) * (
        derivs[..., 0:-1:2] - derivs[..., 1::2]
    )
    out[..., 1::2] = out[..., 0:-1:2] + panel
    return out


def _signed_prefix(values, derivs, step: float, direction: Direction) -> np.ndarray:
    """Oriented prefix values (see signed_prefix) of plain rows; negation is exact."""
    if direction is Direction.FROM_LEFT:
        return _prefix_from_left(values, derivs, step)
    return -_prefix_from_left(values[..., ::-1], -derivs[..., ::-1], step)[..., ::-1]


def integrate_prefix(f: SampledField, direction: Direction) -> SampledField:
    """Cumulative integral of f: from a to r (FROM_LEFT) or r to b (FROM_RIGHT).

    The derivative channel of the result is exact: +f values for FROM_LEFT,
    -f values for FROM_RIGHT.
    """
    vals = _signed_prefix(f.values, f.derivs, f.grid.step, direction)
    if direction is Direction.FROM_LEFT:
        return SampledField._sharing(f.grid, vals, f.values)
    return SampledField._sharing(f.grid, -vals, -f.values)


def signed_prefix(f, direction: Direction, grid: RadialGrid | None = None):
    """Oriented prefix integral vanishing at the anchor endpoint.

    FROM_LEFT gives integral from a to r; FROM_RIGHT gives the integral from
    b to r (the negative of the r-to-b integral).  With this orientation the
    derivative is +f in both cases, which is the form entering the Wronskian
    integral identity and the P-matrix diagonal.

    f is a SampledField, and so is the result.  Given a grid, f is instead a
    (values, derivs) pair of plain rows on it and the result the plain row of
    prefix values: nothing is copied, and a non-finite integrand or prefix
    raises NonFiniteFieldError at its first bad node, as a field would.
    """
    if grid is None:
        return SampledField._sharing(
            f.grid, _signed_prefix(f.values, f.derivs, f.grid.step, direction), f.values
        )
    values, derivs = f
    out = _signed_prefix(values, derivs, grid.step, direction)
    for what, row in (("values", values), ("derivs", derivs), ("prefix", out)):
        bad = ~np.isfinite(row)
        if bad.any():
            raise NonFiniteFieldError(what, int(np.flatnonzero(bad)[0]))
    return out
