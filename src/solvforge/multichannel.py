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

Fields are node-first stacks, as in the Bargmann transform: matrix fields
(V0, V, phi) are SampledFields of shape (n, N, N) with entry (a, b) at
[:, a, b], and the seed vectors psi0, psi are (n, N).  Sums over channels
run one channel at a time from zero, in the order of a running sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Sequence

import numpy as np

from . import verify
from .errors import (
    DuplicateSpectralError,
    GridMismatchError,
    NonUniformShiftError,
    SeedRejectedError,
    SingularPotentialError,
)
from .expr import AnalyticExpr, evaluate_on_grid, parse
from .grid import Direction, RadialGrid, SampledField, signed_prefix
from .solver import SEED_RESIDUAL_TOL, bc_for, solve

__all__ = [
    "ChannelSystem",
    "diagonal_base_system",
    "seed_vectors",
    "transform_denominator",
    "transformed_seed_vectors",
    "multichannel_potential",
    "multichannel_solution",
]


@dataclass(frozen=True)
class ChannelSystem:
    """N-channel data: base potential matrix, weight, the base as a map from
    a spectrum (one gamma^2 per channel) to its solution matrix, the seed
    spectra and the spectral coefficients c.  v0 and base(...) are (n, N, N)
    stacks.  A diagonal base maps through the channel-wise solve
    (diagonal_base_system); a transformed system is the next base through
    partial(multichannel_solution, cs)."""

    grid: RadialGrid
    h: AnalyticExpr
    h_field: SampledField
    v0: SampledField
    base: Callable[[Sequence[float]], SampledField]
    gamma_prime_sq: tuple[float, ...]
    c: tuple[float, ...]
    direction: Direction = Direction.FROM_LEFT

    def __post_init__(self):
        n = len(self.gamma_prime_sq)
        if n < 1:
            raise ValueError("need at least one channel")
        if len(self.c) != n:
            raise ValueError("need one coefficient per channel")
        for what, f in (("base potential", self.v0), ("base solutions", self.phi0)):
            if f.grid != self.grid:
                raise GridMismatchError(f"{what} on a different grid")
            if f.values.shape != (self.grid.n, n, n):
                raise ValueError(f"{what} must be an (n, N, N) stack, got {f.values.shape}")
        v = self.v0.values
        defect = float(np.max(np.abs(v - v.transpose(0, 2, 1))))
        scale = float(np.max(np.abs(v))) + 1.0
        if defect > 1e-12 * scale:
            raise ValueError(f"base potential matrix is not symmetric (defect {defect:.3e})")
        report = verify.matrix_residual(
            self.v0, self.h_field, self.phi0, self.gamma_prime_sq, tol=SEED_RESIDUAL_TOL
        )
        if not report.passed:
            raise SeedRejectedError(report, text="base solution matrix")

    @cached_property
    def phi0(self) -> SampledField:
        """The base solution matrix at the seed spectra, computed once per system."""
        return self.base(self.gamma_prime_sq)

    @cached_property
    def psi0(self) -> SampledField:
        """The seed vectors (see seed_vectors), computed once per system."""
        return seed_vectors(self)

    @cached_property
    def denominator(self) -> SampledField:
        """D(r) (see transform_denominator), computed once per system."""
        return transform_denominator(self)

    @property
    def n_channels(self) -> int:
        return len(self.gamma_prime_sq)


def _channel_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the last (channel) axis, one channel at a time from zero.

    numpy's reductions pair the terms in another order; a running sum keeps
    the bits independent of the array layout."""
    return sum(np.moveaxis(terms, -1, 0), np.zeros(terms.shape[:-1]))


def _diagonal_stack(grid: RadialGrid, fields) -> SampledField:
    """(n, N, N) stack with the N given fields on its diagonal, zero elsewhere."""
    n = len(fields)
    vals, ders = np.zeros((grid.n, n, n)), np.zeros((grid.n, n, n))
    diag = np.arange(n)
    vals[:, diag, diag] = np.transpose([f.values for f in fields])
    ders[:, diag, diag] = np.transpose([f.derivs for f in fields])
    return SampledField(grid, vals, ders)


def _diagonal_matrix_solutions(
    v0: SampledField,
    h_field: SampledField,
    direction: Direction,
    gamma_sq: Sequence[float],
) -> SampledField:
    """Base solution matrix for a diagonal potential: channels decouple, so
    entry (a, b) is delta_ab times the scalar solution of channel a."""
    grid = v0.grid
    return _diagonal_stack(grid, [
        solve(SampledField(grid, v0.values[:, a, a], v0.derivs[:, a, a]), h_field, float(g),
              bc_for(direction))
        for a, g in enumerate(gamma_sq)
    ])


def diagonal_base_system(
    v0_diagonal: Sequence[str | AnalyticExpr],
    h: str | AnalyticExpr,
    grid: RadialGrid,
    gamma_prime_sq: Sequence[float],
    c: Sequence[float],
    direction: Direction = Direction.FROM_LEFT,
) -> ChannelSystem:
    """Convenience builder for the decoupled (diagonal base) configuration."""
    n = len(v0_diagonal)
    if len(gamma_prime_sq) != n or len(c) != n:
        raise ValueError("v0_diagonal, gamma_prime_sq and c must have equal lengths")
    h_expr = parse(h) if isinstance(h, str) else h
    h_field = evaluate_on_grid(h_expr, grid)
    v0 = _diagonal_stack(grid, [
        evaluate_on_grid(parse(e) if isinstance(e, str) else e, grid) for e in v0_diagonal
    ])
    return ChannelSystem(
        grid,
        h_expr,
        h_field,
        v0,
        partial(_diagonal_matrix_solutions, v0, h_field, direction),
        tuple(float(g) for g in gamma_prime_sq),
        tuple(float(x) for x in c),
        direction,
    )


def seed_vectors(cs: ChannelSystem) -> SampledField:
    """psi0_a = sum_b phi0_ab c_b as an (n, N) stack, with exact derivative
    channels."""
    c = np.asarray(cs.c)
    # an overflow leaves a non-finite entry, which SampledField rejects
    with np.errstate(over="ignore", invalid="ignore"):
        values, derivs = _channel_sum(cs.phi0.values * c), _channel_sum(cs.phi0.derivs * c)
    return SampledField(cs.grid, values, derivs)


def transform_denominator(cs: ChannelSystem) -> SampledField:
    """Shared scalar D(r) = 1 + prefix integral of h sum_j psi0_j^2.

    Monotone nondecreasing from the anchor for the from-left direction; a
    non-positive value (possible only from-right) raises."""
    p, pd = cs.psi0.values, cs.psi0.derivs
    hv, hd = cs.h_field.values, cs.h_field.derivs
    # an overflow leaves a non-finite entry, which SampledField rejects
    with np.errstate(over="ignore", invalid="ignore"):
        g = _channel_sum(p * p)
        gd = _channel_sum(pd * p + p * pd)
        values, derivs = hv * g, hd * g + hv * gd
    d = 1.0 + signed_prefix(SampledField(cs.grid, values, derivs), cs.direction)
    if np.any(d.values <= 0.0):
        raise SingularPotentialError(
            int(np.flatnonzero(d.values <= 0.0)[0]), what="transform denominator D"
        )
    return d


def transformed_seed_vectors(cs: ChannelSystem) -> SampledField:
    """psi_a = psi0_a / D, an (n, N) stack."""
    p = cs.psi0
    d, dd = cs.denominator.values[:, None], cs.denominator.derivs[:, None]
    # an overflow leaves a non-finite entry, which SampledField rejects
    with np.errstate(over="ignore", invalid="ignore"):
        values, derivs = p.values / d, (p.derivs * d - p.values * dd) / (d * d)
    return SampledField(cs.grid, values, derivs)


def _psi_arrays(cs: ChannelSystem):
    """Values and first/second derivatives of psi0 and psi = psi0 / D, (n, N)."""
    hv, hd = cs.h_field.values, cs.h_field.derivs
    p0, p0d = cs.psi0.values, cs.psi0.derivs
    gp = np.asarray(cs.gamma_prime_sq)
    p0dd = _channel_sum(cs.v0.values * p0[:, None, :]) - gp * hv[:, None] * p0

    g = _channel_sum(p0 * p0)
    gd = 2.0 * _channel_sum(p0 * p0d)
    dfield = cs.denominator
    d, dd = dfield.values, dfield.derivs  # dd = h g exactly
    ddd = hd * g + hv * gd
    d, dd, ddd = d[:, None], dd[:, None], ddd[:, None]

    p = p0 / d
    pd = p0d / d - p0 * dd / (d * d)
    pdd = (
        p0dd / d
        - 2.0 * p0d * dd / (d * d)
        - p0 * ddd / (d * d)
        + 2.0 * p0 * dd * dd / (d * d * d)
    )
    return p0, p0d, p0dd, p, pd, pdd


def _outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Node-wise outer product of two (n, N) stacks: entry (a, b) is x_a y_b."""
    return x[:, :, None] * y[:, None, :]


def multichannel_potential(cs: ChannelSystem) -> SampledField:
    """Entry-wise transformed potential matrix (exactly symmetric), (n, N, N).

    V_ab = V0_ab - 2 h (psi_a psi0_b)' - h' psi_a psi0_b, with the product
    derivatives taken from the carried channels and the second derivatives
    supplied by the governing equations, so the derivative channel is exact.
    """
    hv = cs.h_field.values[:, None, None]
    hd = cs.h_field.derivs[:, None, None]
    hdd = cs.h.jet(cs.grid.r, 2)[2][:, None, None]
    # an overflow leaves a non-finite entry, which SampledField rejects
    with np.errstate(over="ignore", invalid="ignore"):
        p0, p0d, p0dd, p, pd, pdd = _psi_arrays(cs)
        g = _outer(p, p0)
        gd = _outer(pd, p0) + _outer(p, p0d)
        gdd = _outer(pdd, p0) + _outer(2.0 * pd, p0d) + _outer(p, p0dd)
        v = cs.v0.values - 2.0 * hv * gd - hd * g
        vd = cs.v0.derivs - 3.0 * hd * gd - 2.0 * hv * gdd - hdd * g
    return SampledField(cs.grid, v, vd)


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
    form: str = "integral",
) -> SampledField:
    """Transformed solution matrix at a rigidly shifted spectrum, (n, N, N).

    phi_ab = phi0_ab(new) - psi_a T_b, where phi0(new) is cs.base at the new
    spectrum and T_b sums the transform kernel over channels; `form` selects
    the prefix-integral kernel (default, valid for any shift) or the
    Wronskian kernel (equivalent, but undefined at zero shift).
    """
    delta = _check_uniform_shift(cs, gamma_sq_new)
    if form not in ("integral", "wronskian"):
        raise ValueError("form must be 'integral' or 'wronskian'")
    if form == "wronskian" and abs(delta) < 1e-8:
        raise DuplicateSpectralError(
            "the Wronskian form is singular at zero shift; use the integral form"
        )
    phi0 = cs.base(gamma_sq_new)
    psi0 = cs.psi0
    psi = transformed_seed_vectors(cs)
    # entry [:, b, j] of the transposed stacks is phi0_jb: sums run over j
    fv = phi0.values.transpose(0, 2, 1)
    fd = phi0.derivs.transpose(0, 2, 1)
    hv, hd = cs.h_field.values[:, None], cs.h_field.derivs[:, None]
    hp = hv * psi0.values
    hpd = hd * psi0.values + hv * psi0.derivs
    # T_b' = sum_j h psi0_j phi0_jb, the integrand of the prefix form
    tders = _channel_sum(hp[:, None, :] * fv)
    if form == "integral":
        integrand_d = _channel_sum(hpd[:, None, :] * fv + hp[:, None, :] * fd)
        tvals = signed_prefix(SampledField(cs.grid, tders, integrand_d), cs.direction).values
    else:
        p, pd = psi0.values[:, None, :], psi0.derivs[:, None, :]
        tvals = _channel_sum(p * fd - pd * fv) / (-delta)

    out = phi0.values - _outer(psi.values, tvals)
    outd = phi0.derivs - _outer(psi.derivs, tvals) - _outer(psi.values, tders)
    return SampledField(cs.grid, out, outd)
