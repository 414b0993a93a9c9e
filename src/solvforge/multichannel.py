"""Matrix transform for N coupled channels.

The coupled system reads, for an N x N solution matrix phi (columns are
solution vectors, rows are channels),

    -phi''_ab + sum_b' V_ab' phi_b'b = gamma_a^2 h phi_ab,

with a real symmetric potential matrix.  Seed vectors psi0_a combine the
base matrix columns with spectral coefficients c_b at fixed gamma'_a^2.
One transform step divides them by the shared scalar

    D(r) = 1 + int h sum_j psi0_j^2,

and updates the potential entry-wise:

    V_ab = V0_ab - 2 d/dr[h psi_a psi0_b] + h' psi_a psi0_b.

Because psi_a is proportional to psi0_a, the update V - V0 is manifestly
symmetric.  New solution matrices follow from either the Wronskian or the
prefix-integral form of the same kernel; the identities close only when the
evaluation spectra are a rigid shift of the seed spectra (gamma_a^2 =
gamma'_a^2 + Delta for one common Delta), which multichannel_solution
enforces.  At N = 1 everything reduces to the single-channel transform with
C = c^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from . import verify
from .errors import (
    ConfigError,
    DuplicateSpectralError,
    GridMismatchError,
    NonUniformShiftError,
    SeedRejectedError,
    SingularPotentialError,
)
from .expr import AnalyticExpr, evaluate_on_grid, parse
from .grid import Direction, RadialGrid, SampledField, constant_field, signed_prefix
from .solver import SEED_RESIDUAL_TOL, CustomBC, Solution, bc_for, solve

__all__ = [
    "ChannelSystem",
    "diagonal_base_system",
    "seed_vectors",
    "transform_denominator",
    "transformed_seed_vectors",
    "multichannel_potential",
    "multichannel_solution",
]

FieldMatrix = tuple[tuple[SampledField, ...], ...]
SolutionMatrix = tuple[tuple[Solution, ...], ...]


@dataclass(frozen=True)
class ChannelSystem:
    """N-channel data: base potential matrix, weight, base solutions at the
    seed spectra, and the spectral coefficients c."""

    grid: RadialGrid
    h: AnalyticExpr
    h_field: SampledField
    v0: FieldMatrix
    phi0: SolutionMatrix
    gamma_prime_sq: tuple[float, ...]
    c: tuple[float, ...]
    direction: Direction = Direction.FROM_LEFT
    seed_tol: float = field(default=SEED_RESIDUAL_TOL, repr=False)

    def __post_init__(self):
        n = len(self.gamma_prime_sq)
        if n < 1:
            raise ValueError("need at least one channel")
        if len(self.c) != n:
            raise ValueError("need one coefficient per channel")
        if len(self.v0) != n or any(len(row) != n for row in self.v0):
            raise ValueError("base potential must be an N x N matrix of fields")
        if len(self.phi0) != n or any(len(row) != n for row in self.phi0):
            raise ValueError("base solutions must form an N x N matrix")
        for row in self.v0:
            for entry in row:
                if entry.grid != self.grid:
                    raise GridMismatchError("potential entry on a different grid")
        v = self._v0_values()
        defect = float(np.max(np.abs(v - v.transpose(1, 0, 2))))
        scale = float(np.max(np.abs(v))) + 1.0
        if defect > 1e-12 * scale:
            raise ValueError(f"base potential matrix is not symmetric (defect {defect:.3e})")
        report = verify.matrix_residual(
            self.v0, self.h_field, self.phi0, self.gamma_prime_sq, tol=self.seed_tol
        )
        if not report.passed:
            raise SeedRejectedError(report, text="base solution matrix")

    @cached_property
    def psi0(self) -> tuple[SampledField, ...]:
        """The seed vectors (see seed_vectors), computed once per system."""
        return tuple(seed_vectors(self))

    @cached_property
    def denominator(self) -> SampledField:
        """D(r) (see transform_denominator), computed once per system."""
        return transform_denominator(self)

    @property
    def n_channels(self) -> int:
        return len(self.gamma_prime_sq)

    def _v0_values(self) -> np.ndarray:
        return np.array([[e.values for e in row] for row in self.v0])

    def is_diagonal_base(self) -> bool:
        n = self.n_channels
        return all(
            not np.any(self.v0[i][j].values)
            for i in range(n)
            for j in range(n)
            if i != j
        )


def _zero_solution(grid: RadialGrid, gamma_sq: float) -> Solution:
    z = constant_field(grid, 0.0)
    return Solution(float(gamma_sq), z, CustomBC(0.0, 0.0, "left"))


def _diagonal_matrix_solutions(
    cs_like_v0: FieldMatrix,
    h_field: SampledField,
    gamma_sq: Sequence[float],
    direction: Direction,
) -> SolutionMatrix:
    """Base solution matrix for a diagonal potential: channels decouple, so
    entry (a, b) is delta_ab times the scalar solution of channel a."""
    n = len(gamma_sq)
    grid = h_field.grid
    rows = []
    for a in range(n):
        u = solve(cs_like_v0[a][a], h_field, float(gamma_sq[a]), bc_for(direction))
        rows.append(
            tuple(u if b == a else _zero_solution(grid, float(gamma_sq[a])) for b in range(n))
        )
    return tuple(rows)


def diagonal_base_system(
    v0_diagonal: Sequence[str | AnalyticExpr],
    h: str | AnalyticExpr,
    grid: RadialGrid,
    gamma_prime_sq: Sequence[float],
    c: Sequence[float],
    direction: Direction = Direction.FROM_LEFT,
    *,
    seed_tol: float = SEED_RESIDUAL_TOL,
) -> ChannelSystem:
    """Convenience builder for the decoupled (diagonal base) configuration."""
    n = len(v0_diagonal)
    if len(gamma_prime_sq) != n or len(c) != n:
        raise ValueError("v0_diagonal, gamma_prime_sq and c must have equal lengths")
    h_expr = parse(h) if isinstance(h, str) else h
    h_field = evaluate_on_grid(h_expr, grid)
    zero = constant_field(grid, 0.0)
    diag = [
        evaluate_on_grid(parse(e) if isinstance(e, str) else e, grid) for e in v0_diagonal
    ]
    v0 = tuple(
        tuple(diag[i] if i == j else zero for j in range(n)) for i in range(n)
    )
    phi0 = _diagonal_matrix_solutions(v0, h_field, gamma_prime_sq, direction)
    return ChannelSystem(
        grid,
        h_expr,
        h_field,
        v0,
        phi0,
        tuple(float(g) for g in gamma_prime_sq),
        tuple(float(x) for x in c),
        direction,
        seed_tol,
    )


def seed_vectors(cs: ChannelSystem) -> list[SampledField]:
    """psi0_a = sum_b phi0_ab c_b, with exact derivative channels."""
    out = []
    for a in range(cs.n_channels):
        acc = constant_field(cs.grid, 0.0)
        for b in range(cs.n_channels):
            if cs.c[b] != 0.0:
                acc = acc + cs.c[b] * cs.phi0[a][b].field
        out.append(acc)
    return out


def transform_denominator(cs: ChannelSystem) -> SampledField:
    """Shared scalar D(r) = 1 + prefix integral of h sum_j psi0_j^2.

    Monotone nondecreasing from the anchor for the from-left direction; a
    non-positive value (possible only from-right) raises."""
    gsum = constant_field(cs.grid, 0.0)
    for p in cs.psi0:
        gsum = gsum + p * p
    d = 1.0 + signed_prefix(cs.h_field * gsum, cs.direction)
    if np.any(d.values <= 0.0):
        raise SingularPotentialError(
            int(np.flatnonzero(d.values <= 0.0)[0]), what="transform denominator D"
        )
    return d


def transformed_seed_vectors(cs: ChannelSystem) -> list[SampledField]:
    """psi_a = psi0_a / D."""
    d = cs.denominator
    return [p / d for p in cs.psi0]


def _psi_arrays(cs: ChannelSystem):
    """Values and first/second derivatives of psi0 and psi = psi0 / D."""
    psi0 = cs.psi0
    hv, hd = cs.h_field.values, cs.h_field.derivs
    p0 = np.stack([p.values for p in psi0])  # (N, n)
    p0d = np.stack([p.derivs for p in psi0])
    v0 = cs._v0_values()
    gp = np.asarray(cs.gamma_prime_sq)
    p0dd = np.einsum("abn,bn->an", v0, p0) - gp[:, None] * hv[None, :] * p0

    g = (p0 * p0).sum(axis=0)
    gd = 2.0 * (p0 * p0d).sum(axis=0)
    dfield = cs.denominator
    d, dd = dfield.values, dfield.derivs  # dd = h g exactly
    ddd = hd * g + hv * gd

    p = p0 / d
    pd = p0d / d - p0 * dd / (d * d)
    pdd = (
        p0dd / d
        - 2.0 * p0d * dd / (d * d)
        - p0 * ddd / (d * d)
        + 2.0 * p0 * dd * dd / (d * d * d)
    )
    return p0, p0d, p0dd, p, pd, pdd


def multichannel_potential(cs: ChannelSystem) -> FieldMatrix:
    """Entry-wise transformed potential matrix (exactly symmetric).

    V_ab = V0_ab - 2 h (psi_a psi0_b)' - h' psi_a psi0_b, with the product
    derivatives taken from the carried channels and the second derivatives
    supplied by the governing equations, so the derivative channel is exact.
    """
    p0, p0d, p0dd, p, pd, pdd = _psi_arrays(cs)
    hv, hd = cs.h_field.values, cs.h_field.derivs
    hdd = cs.h.derivative().derivative().evaluate(cs.grid.r)
    n = cs.n_channels
    rows = []
    for a in range(n):
        row = []
        for b in range(n):
            g = p[a] * p0[b]
            gd = pd[a] * p0[b] + p[a] * p0d[b]
            gdd = pdd[a] * p0[b] + 2.0 * pd[a] * p0d[b] + p[a] * p0dd[b]
            v = cs.v0[a][b].values - 2.0 * hv * gd - hd * g
            vd = cs.v0[a][b].derivs - 3.0 * hd * gd - 2.0 * hv * gdd - hdd * g
            row.append(SampledField(cs.grid, v, vd))
        rows.append(tuple(row))
    return tuple(rows)


def _check_uniform_shift(cs: ChannelSystem, gamma_sq_new: Sequence[float]) -> float:
    gnew = np.asarray(gamma_sq_new, dtype=float)
    if gnew.shape != (cs.n_channels,):
        raise ValueError("need one evaluation gamma^2 per channel")
    delta = gnew - np.asarray(cs.gamma_prime_sq)
    spread = float(delta.max() - delta.min())
    if spread > 1e-12 * (1.0 + float(np.max(np.abs(delta)))):
        raise NonUniformShiftError(
            "evaluation spectra must be a rigid shift of the seed spectra; "
            f"per-channel shifts {delta.tolist()} differ"
        )
    return float(delta[0])


def multichannel_solution(
    cs: ChannelSystem,
    gamma_sq_new: Sequence[float],
    *,
    phi0_new: SolutionMatrix | None = None,
    form: str = "integral",
) -> SolutionMatrix:
    """Transformed solution matrix at a rigidly shifted spectrum.

    phi_ab = phi0_ab(new) - psi_a T_b, where T_b sums the transform kernel
    over channels; `form` selects the prefix-integral kernel (default, valid
    for any shift) or the Wronskian kernel (equivalent, but undefined at zero
    shift).  When phi0_new is omitted the base matrix at the new spectrum is
    solved channel-wise, which requires a diagonal base potential.
    """
    delta = _check_uniform_shift(cs, gamma_sq_new)
    if form not in ("integral", "wronskian"):
        raise ValueError("form must be 'integral' or 'wronskian'")
    if form == "wronskian" and abs(delta) < 1e-8:
        raise DuplicateSpectralError(
            "the Wronskian form is singular at zero shift; use the integral form"
        )
    if phi0_new is None:
        if not cs.is_diagonal_base():
            raise ConfigError(
                "base potential is not diagonal; supply phi0_new explicitly"
            )
        phi0_new = _diagonal_matrix_solutions(cs.v0, cs.h_field, gamma_sq_new, cs.direction)

    n = cs.n_channels
    psi0 = cs.psi0
    psi = transformed_seed_vectors(cs)

    solutions = []
    tvals = np.empty((n, cs.grid.n))
    tders = np.empty((n, cs.grid.n))
    for b in range(n):
        integrand = constant_field(cs.grid, 0.0)
        for j in range(n):
            integrand = integrand + cs.h_field * psi0[j] * phi0_new[j][b].field
        if form == "integral":
            tvals[b] = signed_prefix(integrand, cs.direction).values
        else:
            w = np.zeros(cs.grid.n)
            for j in range(n):
                w += (
                    psi0[j].values * phi0_new[j][b].derivs
                    - psi0[j].derivs * phi0_new[j][b].values
                )
            tvals[b] = w / (-delta)
        tders[b] = integrand.values

    for a in range(n):
        row = []
        for b in range(n):
            out = phi0_new[a][b].values - psi[a].values * tvals[b]
            outd = (
                phi0_new[a][b].derivs
                - psi[a].derivs * tvals[b]
                - psi[a].values * tders[b]
            )
            row.append(
                Solution(
                    float(gamma_sq_new[a]),
                    SampledField(cs.grid, out, outd),
                    CustomBC(float(out[0]), float(outd[0]), "left"),
                )
            )
        solutions.append(tuple(row))
    return tuple(solutions)
