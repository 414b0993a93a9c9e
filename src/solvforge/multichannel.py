"""Matrix transform for N coupled channels.

The coupled system reads, for an N x N solution matrix phi (columns are
solution vectors, rows are channels),

    -phi''_ab + sum_b' V_ab' phi_b'b = gamma_a^2 h phi_ab,

with a real symmetric potential matrix.  The seed vector psi0_a = sum_b
phi0_ab c_b at the seed spectra gamma'_a^2 drives one step, the generalized
Bargmann transform (bargmann.py) with K = 1 and C = 1: P is the scalar
D = 1 + int h psi0 . psi0, psi = psi0 / D, and V_ab = V0_ab - 2 (h psi_a
psi0_b)' + h' psi_a psi0_b.  Solution matrices map in the Wronskian or the
prefix-integral form of one kernel, at evaluation spectra that are a rigid
shift of the seed spectra.  At N = 1 this is the single-channel transform
with C = c^2.

Fields have the nodes on their last axis, the layout of bargmann.py's
rows: matrix fields (V0, V, phi) are (N, N, n) SampledFields with entry
(a, b) at [a, b], seed vectors (N, n).  The core's arrays are passed in and
adopted as they are.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Sequence

import numpy as np

from . import verify
from .bargmann import (
    PMatrix,
    _factor,
    _kernel,
    _map,
    _mat,
    _potential,
    _seed_rows,
    _wronskian,
)
from .errors import (
    DuplicateSpectralError,
    GridMismatchError,
    NonUniformShiftError,
    SeedRejectedError,
)
from .expr import AnalyticExpr, evaluate_on_grid, parse
from .grid import Direction, RadialGrid, SampledField
from .solver import MIN_SPECTRAL_GAP, SEED_RESIDUAL_TOL, bc_for, solve

__all__ = [
    "ChannelSystem",
    "diagonal_base_system",
    "seed_vectors",
    "transform_denominator",
    "transformed_seed_vectors",
    "multichannel_potential",
    "multichannel_solution",
    "multichannel_solutions",
]


@dataclass(frozen=True)
class ChannelSystem:
    """N-channel data: base potential matrix, weight, the base as a map from
    a spectrum (one gamma^2 per channel) to its solution matrix, the seed
    spectra and the spectral coefficients c.  v0 and base(...) are (N, N, n)
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
            if f.values.shape != (n, n, self.grid.n):
                raise ValueError(f"{what} must be an (N, N, n) stack, got {f.values.shape}")
        v = self.v0.values
        defect = float(np.max(np.abs(v - v.swapaxes(0, 1))))
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
    def denominator(self) -> PMatrix:
        """The step's 1 x 1 P (see transform_denominator), computed once per system."""
        return transform_denominator(self)

    @property
    def n_channels(self) -> int:
        return len(self.gamma_prime_sq)


def _diagonal_stack(grid: RadialGrid, fields) -> SampledField:
    """(N, N, n) stack with the N given fields on its diagonal, zero elsewhere."""
    n = len(fields)
    vals, ders = np.zeros((n, n, grid.n)), np.zeros((n, n, grid.n))
    diag = np.arange(n)
    vals[diag, diag] = [f.values for f in fields]
    ders[diag, diag] = [f.derivs for f in fields]
    return SampledField._sharing(grid, vals, ders)


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
        solve(SampledField._sharing(grid, v0.values[a, a], v0.derivs[a, a]), h_field,
              float(g), bc_for(direction))
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
    """psi0_a = sum_b phi0_ab c_b as an (N, n) stack, with exact derivative
    channels."""
    c = np.broadcast_to(np.asarray(cs.c)[:, None, None], (cs.n_channels, 1, cs.grid.n))
    # an overflow leaves a non-finite entry, which SampledField rejects
    with np.errstate(over="ignore", invalid="ignore"):
        values, derivs = (_mat(f, c)[:, 0] for f in (cs.phi0.values, cs.phi0.derivs))
    return SampledField._sharing(cs.grid, values, derivs)


def transform_denominator(cs: ChannelSystem) -> PMatrix:
    """The step's factored P: the 1 x 1 matrix D(r) = 1 + prefix integral of
    h psi0 . psi0, with the transformed seed vector as its image.  D is
    nondecreasing from the anchor from-left; a non-positive D (possible only
    from-right) raises SingularPotentialError."""
    psi0 = cs.psi0
    return _factor(_seed_rows(cs.direction, cs.h, cs.h_field, cs.v0.values,
                              [cs.gamma_prime_sq], [1.0], psi0.values[None], psi0.derivs[None]))


def transformed_seed_vectors(cs: ChannelSystem) -> SampledField:
    """psi_a = psi0_a / D, an (N, n) stack."""
    return SampledField._sharing(cs.grid, cs.denominator.images[0],
                                 cs.denominator.images_deriv[0])


def multichannel_potential(cs: ChannelSystem) -> SampledField:
    """Entry-wise transformed potential matrix, (N, N, n).

    V_ab = V0_ab - 2 h (psi_a psi0_b)' - h' psi_a psi0_b, with the product
    derivatives and the second derivatives in closed form, so the derivative
    channel is exact.
    """
    return SampledField._sharing(cs.grid, *_potential(cs.denominator, cs.v0.values, cs.v0.derivs))


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
    """Transformed solution matrix at a rigidly shifted spectrum, (N, N, n).

    phi_ab = phi0_ab(new) - psi_a T_b, where phi0(new) is cs.base at the new
    spectrum and T_b is the channel-dot kernel of psi0 against column b;
    `form` selects the prefix-integral kernel (default, valid for any shift)
    or the Wronskian kernel (equivalent, but undefined at zero shift).
    """
    return multichannel_solutions(cs, gamma_sq_new, (form,))[0]


def multichannel_solutions(
    cs: ChannelSystem,
    gamma_sq_new: Sequence[float],
    forms: Sequence[str],
) -> tuple[SampledField, ...]:
    """multichannel_solution in each of `forms`, from one evaluation of the base."""
    delta = _check_uniform_shift(cs, gamma_sq_new)
    for form in forms:
        if form not in ("integral", "wronskian"):
            raise ValueError("form must be 'integral' or 'wronskian'")
        if form == "wronskian" and abs(delta) < MIN_SPECTRAL_GAP:
            raise DuplicateSpectralError(
                "the Wronskian form is singular at zero shift; use the integral form"
            )
    phi0 = cs.base(gamma_sq_new)
    pm = cs.denominator
    seeds = pm.seeds
    g, dg = phi0.values, phi0.derivs
    kernels = [_kernel(seeds, k, g, dg) for k in range(pm.m)]
    out = []
    for form in forms:
        pairs = kernels
        if form == "wronskian":
            # W{psi0_k, phi0_b} / (gamma'_k^2 - gamma^2): the same kernel
            with np.errstate(over="ignore", invalid="ignore"):
                w = _wronskian(seeds.psi, seeds.dpsi, g, dg)
                pairs = [(w[k] / (seeds.gam[k, 0] - gamma_sq_new[0]), kd)
                         for k, (_, kd) in enumerate(kernels)]
        out.append(SampledField._sharing(cs.grid, *_map(pm, g, dg, pairs.__getitem__)))
    return tuple(out)
