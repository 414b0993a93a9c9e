"""M-fold Bargmann transformation.

From M base solutions phi_mu at pairwise distinct gamma_mu^2 with norm-like
constants C_mu, build the node-wise M x M matrix

    P_{mu nu}(r) = delta_{mu nu} + C_mu W{phi_mu, phi_nu} / (gamma_mu^2 - gamma_nu^2),

whose log-determinant derivative generates the transformed potential

    V = V0 - 2 sqrt(h) d/dr[(1/sqrt(h)) d/dr ln det P].

The Wronskian quotient is indeterminate on the diagonal; its limit is the
prefix integral of h phi_mu^2, so diagonal entries always use the integral
form (anchored at the endpoint matching the seed class) while off-diagonal
entries use the Wronskian form.

dP/dr = h c phi^T with c = diag(C) phi is rank one at every node, so every
trace in Jacobi's formula collapses to a dot product, tr(P^{-1} a b^T) =
b . P^{-1} a.  With u_j = P^{-1} diag(C) phi^(j) (phi'' from the governing
equation) and s_ij = phi^(i) . u_j, t = (ln det P)' and its derivatives are

    t   = h s00
    t'  = h' s00 + h (s01 + s10) - t^2
    t'' = h'' s00 + 2 h' (s01 + s10) + h (s02 + 2 s11 + s20)
          - 3 t (h' s00 + h (s01 + s10)) + 2 t^3,

all closed-form; no numerical differentiation enters.

Transformed objects:

    y_mu  = (P^{-1} c)_mu = u0_mu,  y' = u1 - h s00 u0     (bound-type, at gamma_mu^2)
    phi   = phi0 - sum_mu y_mu K_mu,   K_mu = prefix of h phi_mu phi0,

where K_mu equals W{phi_mu, phi0}/(gamma_mu^2 - gamma^2) by the Wronskian
integral identity and stays finite as gamma^2 approaches gamma_mu^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import verify
from .darboux import _check_direction, log_det_potential
from .errors import (
    DuplicateSpectralError,
    GridMismatchError,
    SeedRejectedError,
    SingularPotentialError,
)
from .expr import AnalyticExpr, evaluate_on_grid
from .grid import Direction, SampledField, signed_prefix
from .solver import SEED_RESIDUAL_TOL, CustomBC, Solution

__all__ = [
    "BargmannSeed",
    "BargmannSeedSet",
    "PMatrix",
    "p_matrix",
    "bargmann_potential",
    "bargmann_solution",
    "transformed_seed_solutions",
    "MAX_SEEDS",
    "MIN_SPECTRAL_GAP",
]

#: default cap on the number of seeds
MAX_SEEDS = 8

#: spectral parameters closer than this are treated as duplicates
MIN_SPECTRAL_GAP = 1e-8


@dataclass(frozen=True)
class BargmannSeed:
    """One seed: spectral parameter gamma_mu^2, constant C_mu, base solution."""

    gamma_sq: float
    coeff: float
    phi0: Solution


@dataclass(frozen=True)
class BargmannSeedSet:
    """Validated seed collection together with its base problem.

    Construction checks that the spectral parameters are pairwise separated,
    that every base solution actually solves (V0, h) at its gamma_mu^2, and
    that the boundary-condition classes are homogeneous and match the
    integration direction (regular with from-left, Jost-type with from-right;
    mixed sets are rejected).
    """

    seeds: tuple[BargmannSeed, ...]
    v0: SampledField
    h: AnalyticExpr
    h_field: SampledField
    direction: Direction

    def __post_init__(self):
        m = len(self.seeds)
        if m == 0:
            raise ValueError("need at least one seed")
        if m > MAX_SEEDS:
            raise ValueError(f"seed count {m} exceeds the cap of {MAX_SEEDS}")
        grid = self.v0.grid
        if self.h_field.grid != grid:
            raise GridMismatchError("weight and base potential on different grids")
        gammas = [s.gamma_sq for s in self.seeds]
        for i in range(m):
            for j in range(i + 1, m):
                if abs(gammas[i] - gammas[j]) < MIN_SPECTRAL_GAP:
                    raise DuplicateSpectralError(
                        f"seed spectral parameters {gammas[i]} and {gammas[j]} "
                        f"are closer than {MIN_SPECTRAL_GAP}"
                    )
        for s in self.seeds:
            _check_direction(s.phi0.bc, self.direction)
        for k, s in enumerate(self.seeds):
            if s.phi0.grid != grid:
                raise GridMismatchError(f"seed {k} sampled on a different grid")
            report = verify.residual(self.v0, self.h_field, s.phi0, tol=SEED_RESIDUAL_TOL)
            if not report.passed:
                raise SeedRejectedError(report, text=f"seed {k} (gamma^2={s.gamma_sq})")

    @property
    def grid(self):
        return self.v0.grid

    @cached_property
    def _stacked(self):
        """(phi, phi', C, gamma^2) of every seed, stacked once per set."""
        phi = np.stack([s.phi0.values for s in self.seeds], axis=1)
        dphi = np.stack([s.phi0.derivs for s in self.seeds], axis=1)
        coeff = np.array([s.coeff for s in self.seeds])
        gam = np.array([s.gamma_sq for s in self.seeds])
        for arr in (phi, dphi, coeff, gam):
            arr.flags.writeable = False
        return phi, dphi, coeff, gam


def make_seed_set(
    seeds: Sequence[BargmannSeed],
    v0: SampledField,
    h: AnalyticExpr,
    direction: Direction = Direction.FROM_LEFT,
) -> BargmannSeedSet:
    """Build a BargmannSeedSet, sampling the weight on the base grid."""
    return BargmannSeedSet(tuple(seeds), v0, h, evaluate_on_grid(h, v0.grid), direction)


@dataclass(frozen=True)
class PMatrix:
    """Node-wise P matrix, its inverse and determinant, and the seed images.

    images[:, mu] is the bound-type solution y_mu at gamma_mu^2 and
    images_deriv its exact derivative.  y = P^{-1} c (c_nu = C_nu phi_nu) is
    the orientation forced by self-consistency of the transform ansatz at the
    seed parameters: (I + diag(C) K) y = c with the symmetric
    Wronskian-quotient kernel K, which is exactly P y = c.
    """

    entries: np.ndarray  # (n, M, M)
    inv: np.ndarray  # (n, M, M)
    det: np.ndarray  # (n,)
    images: np.ndarray  # (n, M)
    images_deriv: np.ndarray  # (n, M)
    direction: Direction

    @property
    def m(self) -> int:
        return self.entries.shape[1]

    def condition_summary(self) -> dict:
        norm = np.abs(self.entries).sum(axis=2).max(axis=1)
        inv_norm = np.abs(self.inv).sum(axis=2).max(axis=1)
        return {
            "m": int(self.m),
            "det_min": float(self.det.min()),
            "det_max": float(self.det.max()),
            "det_sign": int(np.sign(self.det[0])),
            "max_condition": float((norm * inv_norm).max()),
        }


def _seed_prefix(sset: BargmannSeedSet, g, dg) -> SampledField:
    """Oriented prefix integrals of h phi_mu g for every seed, one (n, M) stack.

    The products follow the order of ``hf * phi_mu.field * g`` and the stack
    is summed column by column, so column mu is bit-identical to the
    per-seed signed_prefix; the derivative channel is the integrand itself.
    """
    phi, dphi = sset._stacked[:2]
    hv = sset.h_field.values[:, None]
    hphi = hv * phi
    hphi_d = sset.h_field.derivs[:, None] * phi + hv * dphi
    f = SampledField(sset.grid, hphi * g, hphi_d * g + hphi * dg)
    return signed_prefix(f, sset.direction)


def _apply(inv: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Node-wise P^{-1} v for an (n, M) stack of vectors."""
    return np.einsum("nmv,nv->nm", inv, v)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("nm,nm->n", a, b)


def p_matrix(sset: BargmannSeedSet) -> PMatrix:
    """Assemble P(r) at every node, invert it (LU with partial pivoting) and
    map the seeds to their images y = P^{-1} c.

    det P must be nonzero and of constant sign across the grid; a zero
    crossing raises SingularPotentialError naming the node.
    """
    phi, dphi, coeff, gam = sset._stacked
    m = phi.shape[1]

    denom = gam[:, None] - gam[None, :]
    np.fill_diagonal(denom, 1.0)
    entries = np.einsum("ni,nj->nij", phi, dphi) - np.einsum("ni,nj->nij", dphi, phi)
    entries *= coeff[:, None]
    entries /= denom
    entries += np.eye(m)
    entries[:, np.arange(m), np.arange(m)] = 1.0 + coeff * _seed_prefix(sset, phi, dphi).values

    det = np.linalg.det(entries)
    tiny = np.abs(det) < np.finfo(float).tiny
    flip = np.sign(det) != np.sign(det[0])
    bad = tiny | flip
    if np.any(bad):
        raise SingularPotentialError(int(np.flatnonzero(bad)[0]), what="det P")

    inv = np.linalg.inv(entries)
    yv = _apply(inv, coeff * phi)
    yd = _apply(inv, coeff * dphi) - (sset.h_field.values * _dot(phi, yv))[:, None] * yv
    return PMatrix(entries, inv, det, yv, yd, sset.direction)


def bargmann_potential(sset: BargmannSeedSet, pm: PMatrix | None = None) -> SampledField:
    """Transformed potential V = V0 - 2 sqrt(h) d/dr[(1/sqrt(h)) (ln det P)'].

    With t = tr(P^{-1} P') this is V0 + (h'/h) t - 2 t'; t, t' and t'' come
    from Jacobi's formula in the rank-one form of the module docstring, so
    the result (and its derivative channel) is exact up to rounding.
    """
    if pm is None:
        pm = p_matrix(sset)
    phi, dphi, coeff, gam = sset._stacked
    hf = sset.h_field
    hv, hd = hf.values, hf.derivs
    hdd = sset.h.jet(sset.grid.r, 2)[2]

    # second derivatives of the base solutions via the governing equation
    ddphi = (sset.v0.values[:, None] - gam[None, :] * hv[:, None]) * phi

    u0 = pm.images
    u1 = _apply(pm.inv, coeff * dphi)
    u2 = _apply(pm.inv, coeff * ddphi)
    s00 = _dot(phi, u0)
    s_1 = _dot(phi, u1) + _dot(dphi, u0)
    t = hv * s00
    trace_p2 = hd * s00 + hv * s_1  # tr(P^{-1} P'')
    td = trace_p2 - t * t
    tdd = (
        hdd * s00
        + 2.0 * hd * s_1
        + hv * (_dot(phi, u2) + 2.0 * _dot(dphi, u1) + _dot(ddphi, u0))
        - 3.0 * t * trace_p2
        + 2.0 * t * t * t
    )
    return log_det_potential(sset.v0, hf, hdd, t, td, tdd)


def transformed_seed_solutions(sset: BargmannSeedSet, pm: PMatrix | None = None) -> list[Solution]:
    """Bound-type solutions y_mu of the transformed potential at gamma_mu^2."""
    if pm is None:
        pm = p_matrix(sset)
    yv, yd = pm.images, pm.images_deriv
    return [
        Solution(s.gamma_sq, SampledField(sset.grid, yv[:, k], yd[:, k]),
                 CustomBC(float(yv[0, k]), float(yd[0, k]), "left"))
        for k, s in enumerate(sset.seeds)
    ]


def bargmann_solution(sset: BargmannSeedSet, pm: PMatrix, phi0: Solution) -> Solution:
    """Map a base solution at gamma^2 (distinct from every gamma_mu^2).

    Uses the integral form of the Wronskian quotient, so the combination is
    numerically stable even near the seed parameters; exactly at a seed
    parameter use transformed_seed_solutions instead.

    The integral form assumes W{phi_mu, phi0} vanishes at the anchor endpoint,
    which holds when phi0 belongs to the same boundary class as the seeds:
    regular with from-left sets, decaying with from-right sets, or sharing the
    seeds' (value, slope) anchor data for custom families.  A regular or
    decaying phi0 against the other direction raises DirectionMismatchError.
    """
    if phi0.grid != sset.grid:
        raise GridMismatchError("solution lives on a different grid")
    _check_direction(phi0.bc, sset.direction)
    gaps = np.abs(sset._stacked[3] - phi0.gamma_sq)
    if np.any(gaps < MIN_SPECTRAL_GAP):
        k = int(np.argmin(gaps))
        raise DuplicateSpectralError(
            f"gamma^2 = {phi0.gamma_sq} coincides with seed {k}; "
            "use transformed_seed_solutions for the seed parameters"
        )
    kmu = _seed_prefix(sset, phi0.values[:, None], phi0.derivs[:, None])
    yv, yd = pm.images, pm.images_deriv

    out = phi0.values - _dot(yv, kmu.values)
    outd = phi0.derivs - _dot(yd, kmu.values) - _dot(yv, kmu.derivs)
    return Solution(
        phi0.gamma_sq,
        SampledField(sset.grid, out, outd),
        CustomBC(float(out[0]), float(outd[0]), "left"),
    )
