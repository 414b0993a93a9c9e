"""M-fold Bargmann transformation.

From M base solutions phi_mu at pairwise distinct gamma_mu^2 with norm-like
constants C_mu, build the node-wise M x M matrix

    P_{mu nu}(r) = delta_{mu nu} + C_mu W{phi_mu, phi_nu} / (gamma_mu^2 - gamma_nu^2),

whose log-determinant derivative generates the transformed potential

    V = V0 - 2 sqrt(h) d/dr[(1/sqrt(h)) d/dr ln det P].

The Wronskian quotient is indeterminate on the diagonal; its limit is the
prefix integral of h phi_mu^2, so diagonal entries always use the integral
form (anchored at the endpoint matching the seed class) while off-diagonal
entries use the Wronskian form.  Since dP/dr has the closed form
C_mu h phi_mu phi_nu, every derivative below is evaluated analytically via
Jacobi's formula; no numerical differentiation enters.

Transformed objects:

    y_mu  = sum_nu C_nu phi_nu P^{-1}_{nu mu}              (bound-type, at gamma_mu^2)
    phi   = phi0 - sum_mu y_mu K_mu,   K_mu = prefix of h phi_mu phi0,

where K_mu equals W{phi_mu, phi0}/(gamma_mu^2 - gamma^2) by the Wronskian
integral identity and stays finite as gamma^2 approaches gamma_mu^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import verify
from .darboux import log_det_potential
from .errors import (
    DirectionMismatchError,
    DuplicateSpectralError,
    GridMismatchError,
    SeedRejectedError,
    SingularPotentialError,
)
from .expr import AnalyticExpr, evaluate_on_grid
from .grid import Direction, SampledField, signed_prefix
from .solver import (
    SEED_RESIDUAL_TOL,
    CustomBC,
    JostAtRight,
    RegularAtLeft,
    Solution,
)

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
    seed_tol: float = field(default=SEED_RESIDUAL_TOL, repr=False)

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
        has_regular = any(isinstance(s.phi0.bc, RegularAtLeft) for s in self.seeds)
        has_jost = any(isinstance(s.phi0.bc, JostAtRight) for s in self.seeds)
        if has_regular and has_jost:
            raise DirectionMismatchError("cannot mix regular and Jost-type seeds in one set")
        if has_regular and self.direction is not Direction.FROM_LEFT:
            raise DirectionMismatchError("regular seeds pair with the from-left integral")
        if has_jost and self.direction is not Direction.FROM_RIGHT:
            raise DirectionMismatchError("Jost-type seeds pair with the from-right integral")
        for k, s in enumerate(self.seeds):
            if s.phi0.grid != grid:
                raise GridMismatchError(f"seed {k} sampled on a different grid")
            report = verify.residual(self.v0, self.h_field, s.phi0, tol=self.seed_tol)
            if not report.passed:
                raise SeedRejectedError(report, text=f"seed {k} (gamma^2={s.gamma_sq})")

    @property
    def grid(self):
        return self.v0.grid

    def _stacked(self):
        phi = np.stack([s.phi0.values for s in self.seeds], axis=1)
        dphi = np.stack([s.phi0.derivs for s in self.seeds], axis=1)
        coeff = np.array([s.coeff for s in self.seeds])
        gam = np.array([s.gamma_sq for s in self.seeds])
        return phi, dphi, coeff, gam


def make_seed_set(
    seeds: Sequence[BargmannSeed],
    v0: SampledField,
    h: AnalyticExpr,
    direction: Direction = Direction.FROM_LEFT,
    *,
    seed_tol: float = SEED_RESIDUAL_TOL,
) -> BargmannSeedSet:
    """Build a BargmannSeedSet, sampling the weight on the base grid."""
    return BargmannSeedSet(
        tuple(seeds), v0, h, evaluate_on_grid(h, v0.grid), direction, seed_tol
    )


@dataclass(frozen=True)
class PMatrix:
    """Node-wise P matrix, its inverse, determinant and analytic derivative."""

    entries: np.ndarray  # (n, M, M)
    inv: np.ndarray  # (n, M, M)
    det: np.ndarray  # (n,)
    entries_deriv: np.ndarray  # (n, M, M), equals C_mu h phi_mu phi_nu
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


def p_matrix(sset: BargmannSeedSet) -> PMatrix:
    """Assemble P(r) at every node and invert it (LU with partial pivoting).

    det P must be nonzero and of constant sign across the grid; a zero
    crossing raises SingularPotentialError naming the node.
    """
    phi, dphi, coeff, gam = sset._stacked()
    n, m = phi.shape
    hv = sset.h_field.values

    w = np.einsum("ni,nj->nij", phi, dphi) - np.einsum("ni,nj->nij", dphi, phi)
    denom = gam[:, None] - gam[None, :]
    np.fill_diagonal(denom, 1.0)
    entries = coeff[:, None] * w / denom
    entries[:, np.arange(m), np.arange(m)] = 0.0
    entries += np.eye(m)

    for k in range(m):
        f = sset.h_field * sset.seeds[k].phi0.field * sset.seeds[k].phi0.field
        entries[:, k, k] = 1.0 + coeff[k] * signed_prefix(f, sset.direction).values

    det = np.linalg.det(entries)
    tiny = np.abs(det) < np.finfo(float).tiny
    flip = np.sign(det) != np.sign(det[0])
    bad = tiny | flip
    if np.any(bad):
        raise SingularPotentialError(int(np.flatnonzero(bad)[0]), what="det P")

    deriv = coeff[None, :, None] * hv[:, None, None] * np.einsum("ni,nj->nij", phi, phi)
    return PMatrix(entries, np.linalg.inv(entries), det, deriv, sset.direction)


def _trace(a: np.ndarray) -> np.ndarray:
    return np.einsum("nii->n", a)


def bargmann_potential(sset: BargmannSeedSet, pm: PMatrix | None = None) -> SampledField:
    """Transformed potential V = V0 - 2 sqrt(h) d/dr[(1/sqrt(h)) (ln det P)'].

    With t = tr(P^{-1} P') this is V0 + (h'/h) t - 2 t'; t and its derivatives
    come from Jacobi's formula with the closed-form P', P'', P''', so the
    result (and its derivative channel) is exact up to rounding.
    """
    if pm is None:
        pm = p_matrix(sset)
    phi, dphi, coeff, gam = sset._stacked()
    hf = sset.h_field
    hv, hd = hf.values, hf.derivs
    hdd = sset.h.derivative().derivative().evaluate(sset.grid.r)

    # second derivatives of the base solutions via the governing equation
    qmu = sset.v0.values[:, None] - gam[None, :] * hv[:, None]
    ddphi = qmu * phi

    pp = np.einsum("ni,nj->nij", phi, phi)
    pp_d = np.einsum("ni,nj->nij", dphi, phi) + np.einsum("ni,nj->nij", phi, dphi)
    pp_dd = (
        np.einsum("ni,nj->nij", ddphi, phi)
        + 2.0 * np.einsum("ni,nj->nij", dphi, dphi)
        + np.einsum("ni,nj->nij", phi, ddphi)
    )

    c_row = coeff[None, :, None]
    p1 = c_row * hv[:, None, None] * pp
    p2 = c_row * (hd[:, None, None] * pp + hv[:, None, None] * pp_d)
    p3 = c_row * (
        hdd[:, None, None] * pp
        + 2.0 * hd[:, None, None] * pp_d
        + hv[:, None, None] * pp_dd
    )

    x = pm.inv @ p1
    y = pm.inv @ p2
    z = pm.inv @ p3
    t = _trace(x)
    td = _trace(y) - _trace(x @ x)
    tdd = _trace(z) - 3.0 * _trace(x @ y) + 2.0 * _trace(x @ x @ x)

    return log_det_potential(sset.v0, hf, hdd, t, td, tdd)


def _seed_images(pm: PMatrix, phi, dphi, coeff):
    """y = P^{-1} c with c_nu = C_nu phi_nu, plus the analytic derivative.

    This is the orientation forced by self-consistency of the transform
    ansatz at the seed parameters: (I + diag(C) K) y = c with the symmetric
    Wronskian-quotient kernel K, which is exactly P y = c.
    """
    inv_d = -pm.inv @ pm.entries_deriv @ pm.inv
    cphi = coeff[None, :] * phi
    cdphi = coeff[None, :] * dphi
    yv = np.einsum("nmv,nv->nm", pm.inv, cphi)
    yd = np.einsum("nmv,nv->nm", pm.inv, cdphi) + np.einsum("nmv,nv->nm", inv_d, cphi)
    return yv, yd


def transformed_seed_solutions(sset: BargmannSeedSet, pm: PMatrix | None = None) -> list[Solution]:
    """Bound-type solutions y_mu of the transformed potential at gamma_mu^2."""
    if pm is None:
        pm = p_matrix(sset)
    phi, dphi, coeff, gam = sset._stacked()
    yv, yd = _seed_images(pm, phi, dphi, coeff)
    out = []
    for k in range(len(sset.seeds)):
        fld = SampledField(sset.grid, yv[:, k], yd[:, k])
        out.append(
            Solution(gam[k], fld, CustomBC(float(yv[0, k]), float(yd[0, k]), "left"))
        )
    return out


def bargmann_solution(sset: BargmannSeedSet, pm: PMatrix, phi0: Solution) -> Solution:
    """Map a base solution at gamma^2 (distinct from every gamma_mu^2).

    Uses the integral form of the Wronskian quotient, so the combination is
    numerically stable even near the seed parameters; exactly at a seed
    parameter use transformed_seed_solutions instead.

    The integral form assumes W{phi_mu, phi0} vanishes at the anchor endpoint,
    which holds when phi0 belongs to the same boundary class as the seeds:
    regular with from-left sets, decaying with from-right sets, or sharing the
    seeds' (value, slope) anchor data for custom families.
    """
    if phi0.grid != sset.grid:
        raise GridMismatchError("solution lives on a different grid")
    phi, dphi, coeff, gam = sset._stacked()
    gaps = np.abs(gam - phi0.gamma_sq)
    if np.any(gaps < MIN_SPECTRAL_GAP):
        k = int(np.argmin(gaps))
        raise DuplicateSpectralError(
            f"gamma^2 = {phi0.gamma_sq} coincides with seed {k}; "
            "use transformed_seed_solutions for the seed parameters"
        )
    hf = sset.h_field
    n, m = phi.shape

    kvals = np.empty((n, m))
    for k in range(m):
        f = hf * sset.seeds[k].phi0.field * phi0.field
        kvals[:, k] = signed_prefix(f, sset.direction).values
    kder = hf.values[:, None] * phi * phi0.values[:, None]

    yv, yd = _seed_images(pm, phi, dphi, coeff)

    out = phi0.values - np.einsum("nm,nm->n", yv, kvals)
    outd = phi0.derivs - np.einsum("nm,nm->n", yd, kvals) - np.einsum("nm,nm->n", yv, kder)
    return Solution(
        phi0.gamma_sq,
        SampledField(sset.grid, out, outd),
        CustomBC(float(out[0]), float(outd[0]), "left"),
    )
