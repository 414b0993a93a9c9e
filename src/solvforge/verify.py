"""Independent verification oracles.

The residual checks substitute a candidate (V, h, gamma^2, phi) back into the
governing equation with phi'' approximated by fourth-order central
differences.  That discretization is deliberately independent of the RK4
state used to produce solutions and of the algebraic identities used by the
transforms, so oracle and construction share no code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import GridMismatchError, GridTooSmallError
from .grid import Direction, SampledField, signed_prefix, wronskian

if TYPE_CHECKING:  # pragma: no cover
    from .solver import Solution

__all__ = [
    "ResidualReport",
    "residual",
    "matrix_residual",
    "check_wronskian_integral",
    "DEFAULT_TRANSFORM_TOL",
    "BASE_ANALYTIC_TOL",
]

#: default relative tolerance for transformed objects
DEFAULT_TRANSFORM_TOL = 1e-5
#: default relative tolerance for base analytic cases
BASE_ANALYTIC_TOL = 1e-8


@dataclass(frozen=True)
class ResidualReport:
    max_abs: float
    max_rel: float  # relative to max|gamma^2 h phi| + 1
    argmax_node: int
    tol: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "max_abs": self.max_abs,
            "max_rel": self.max_rel,
            "argmax_node": self.argmax_node,
            "tol": self.tol,
            "passed": self.passed,
        }


def _second_derivative(values: np.ndarray, step: float, scratch=None) -> np.ndarray:
    """Fourth-order central second derivative on interior nodes [2, n-3] of
    the last axis, (-f[i-2] + 16 f[i-1] - 30 f[i] + 16 f[i+1] - f[i+2]) /
    (12 step^2) summed left to right, formed in one new array; scratch (the
    shape of the result, made if not given) holds each term."""
    out = np.negative(values[..., :-4])
    term = np.multiply(16.0, values[..., 1:-3], out=scratch)
    out += term
    np.multiply(30.0, values[..., 2:-2], out=term)
    out -= term
    np.multiply(16.0, values[..., 3:-1], out=term)
    out += term
    out -= values[..., 4:]
    out /= 12.0 * step * step
    return out


def _report(defect: np.ndarray, scale: float, tol: float, offset: int) -> ResidualReport:
    k = int(np.argmax(np.abs(defect)))
    if not np.isfinite(defect[k]):  # argmax finds nan or inf if there is any
        # a defect that overflowed is reported at its first non-finite node
        k = int(np.flatnonzero(~np.isfinite(defect))[0])
    max_abs = float(np.abs(defect[k]))
    max_rel = max_abs / scale
    return ResidualReport(max_abs, max_rel, k + offset, tol, max_rel <= tol)


def residual(
    V: SampledField,
    h: SampledField,
    phi: "Solution",
    tol: float = DEFAULT_TRANSFORM_TOL,
) -> ResidualReport:
    """Defect of -phi'' + (V - gamma^2 h) phi, endpoints excluded.

    max_rel is max_abs divided by max|gamma^2 h phi| + 1; the report passes
    when max_rel <= tol.
    """
    g = V.grid
    if g != h.grid or g != phi.field.grid:
        raise GridMismatchError("residual operands live on different grids")
    if g.n < 7:
        raise GridTooSmallError(f"residual stencil needs at least 7 nodes, got {g.n}")
    vals = phi.field.values
    # _report places a defect that overflowed at its first non-finite node
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # two rows: `row` holds gamma^2 h phi for the scale, then the
        # stencil's terms, then (V - gamma^2 h) phi, with every value rounded
        # as in defect = -phi'' + (V - gamma^2 h) phi
        row = np.multiply(phi.gamma_sq, h.values)
        row *= vals
        scale = float(np.max(np.abs(row, out=row))) + 1.0
        defect = _second_derivative(vals, g.step, row[:-4])
        np.negative(defect, out=defect)
        q = np.multiply(phi.gamma_sq, h.values[2:-2], out=row[2:-2])
        np.subtract(V.values[2:-2], q, out=q)
        q *= vals[2:-2]
        defect += q
    return _report(defect, scale, tol, offset=2)


def matrix_residual(
    Vm: SampledField,
    h: SampledField,
    Phi: SampledField,
    gamma_sq: Sequence[float],
    tol: float = DEFAULT_TRANSFORM_TOL,
) -> ResidualReport:
    """Coupled-system defect, entry-wise with the coupling sum.

    For each entry (alpha, beta):
        -phi''_ab + sum_b' V_ab' phi_b'b - gamma_a^2 h phi_ab
    Vm is an (N, N, n) stack; Phi is (N, K, n) (columns are solution
    vectors), or (N, n) for a single solution vector.  The report aggregates
    the worst entry; argmax_node is its grid node.
    """
    phi = Phi.values if Phi.values.ndim == 3 else Phi.values[:, None]
    v = Vm.values
    n_rows = phi.shape[0]
    if v.shape[:2] != (n_rows, n_rows):
        raise ValueError("potential matrix shape does not match the solution rows")
    if len(gamma_sq) != n_rows:
        raise ValueError("need one gamma^2 per channel row")
    g = h.grid
    if g != Vm.grid or g != Phi.grid:
        raise GridMismatchError("residual operands live on different grids")
    if g.n < 7:
        raise GridTooSmallError(f"residual stencil needs at least 7 nodes, got {g.n}")
    gam = np.asarray(gamma_sq, dtype=float)

    # _report places a defect that overflowed at its first non-finite node
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # the coupling sum runs over k in order, from zero
        coupling = sum(v[:, k, None] * phi[None, k] for k in range(n_rows))
        rhs = gam[:, None, None] * h.values * phi
        defect = -_second_derivative(phi, g.step) + coupling[..., 2:-2] - rhs[..., 2:-2]
        scale = float(np.max(np.abs(rhs))) + 1.0
    # the worst entry at each node
    per_node = np.abs(defect).reshape(-1, defect.shape[-1]).max(axis=0)
    return _report(per_node, scale, tol, offset=2)


def check_wronskian_integral(
    phi_mu: "Solution",
    phi: "Solution",
    h: SampledField,
    direction: Direction,
    tol: float = 1e-7,
) -> ResidualReport:
    """Node-wise defect of the Wronskian integral identity

        W{phi_mu, phi}(r) = (gamma_mu^2 - gamma^2) * I(r),

    where I is the prefix integral of h phi_mu phi anchored at the endpoint
    matching `direction` (left for regular pairs, right for decaying pairs).
    Both solutions must belong to the same base problem.  max_rel is measured
    against max|W| + 1.
    """
    w = wronskian(phi_mu.field, phi.field).values
    integral = signed_prefix(h * phi_mu.field * phi.field, direction).values
    defect = w - (phi_mu.gamma_sq - phi.gamma_sq) * integral
    scale = float(np.max(np.abs(w))) + 1.0
    return _report(defect, scale, tol, offset=0)
