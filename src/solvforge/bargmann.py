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
    def _constants(self):
        """(C, gamma^2) of every seed, (M,)."""
        coeff = np.array([s.coeff for s in self.seeds])
        gam = np.array([s.gamma_sq for s in self.seeds])
        for arr in (coeff, gam):
            arr.flags.writeable = False
        return coeff, gam

    @cached_property
    def _rows(self):
        """(phi, phi', h phi, (h phi)', phi'') of every seed, seed-major (M, n).

        P, the prefix integrals and the sums over seeds work one seed at a
        time, so each seed is one contiguous row over the nodes; phi'' comes
        from the governing equation.
        """
        phi = np.stack([s.phi0.values for s in self.seeds])
        dphi = np.stack([s.phi0.derivs for s in self.seeds])
        hv, hd = self.h_field.values, self.h_field.derivs
        ddphi = (self.v0.values - self._constants[1][:, None] * hv) * phi
        rows = (phi, dphi, hv * phi, hd * phi + hv * dphi, ddphi)
        for arr in rows:
            arr.flags.writeable = False
        return rows


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
    """LU factors and determinant of the node-wise P matrix, and the seed images.

    P is assembled entry-major, (M, M, n), so that every entry is one
    contiguous row over the nodes, and factored in that buffer: `lu` holds the
    factors with partial pivoting (unit-lower L below the diagonal, U on and
    above it) and `swaps` the row exchanges of each pivot column.  `entries`,
    the (n, M, M) view of P itself, is assembled again from the seed set on
    request.  `jacobi[j]` is u_j = P^{-1} diag(C) phi^(j) for j = 0, 1, 2, the
    vectors of Jacobi's formula, seed-major (M, n) like the seed rows.

    images[mu] = u0_mu is the bound-type solution y_mu at gamma_mu^2 and
    images_deriv its exact derivative.  y = P^{-1} c (c_nu = C_nu phi_nu) is
    the orientation forced by self-consistency of the transform ansatz at the
    seed parameters: (I + diag(C) K) y = c with the symmetric
    Wronskian-quotient kernel K, which is exactly P y = c.
    """

    seed_set: BargmannSeedSet
    lu: np.ndarray  # (M, M, n)
    swaps: tuple  # per pivot column k: (nodes, rows) exchanged with row k
    det: np.ndarray  # (n,)
    jacobi: np.ndarray  # (3, M, n)
    images_deriv: np.ndarray  # (M, n)

    @property
    def m(self) -> int:
        return self.lu.shape[0]

    @property
    def images(self) -> np.ndarray:
        return self.jacobi[0]

    @cached_property
    def entries(self) -> np.ndarray:
        """P at every node, (n, M, M), assembled again on request."""
        return _assemble(self.seed_set).transpose(2, 0, 1)

    @cached_property
    def inv(self) -> np.ndarray:
        """P^{-1} at every node, (n, M, M), solved from the factors on request."""
        m, n = self.m, self.lu.shape[2]
        eye = np.broadcast_to(np.eye(m)[:, :, None], (m, m, n)).copy()
        return _lu_solve(self.lu, self.swaps, eye).transpose(2, 0, 1)

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


def _seed_prefix(sset: BargmannSeedSet, g, dg) -> tuple[np.ndarray, np.ndarray]:
    """Oriented prefix integrals of h phi_mu g for every seed, as (M, n) rows
    of values and derivatives.

    g and dg are one node row shared by every seed or one row per seed.  The
    products follow the order of ``hf * phi_mu.field * g`` and each seed is
    integrated as a 1-D field, which is bit-identical to integrating the
    node-first (n, M) stack column by column; the derivative channel is the
    integrand itself.
    """
    hphi, hphi_d = sset._rows[2:4]
    g, dg = np.broadcast_to(g, hphi.shape), np.broadcast_to(dg, hphi.shape)
    values, derivs = np.empty(hphi.shape), np.empty(hphi.shape)
    for mu in range(hphi.shape[0]):
        f = SampledField(sset.grid, hphi[mu] * g[mu], hphi_d[mu] * g[mu] + hphi[mu] * dg[mu])
        k = signed_prefix(f, sset.direction)
        values[mu], derivs[mu] = k.values, k.derivs
    return values, derivs


def _assemble(sset: BargmannSeedSet) -> np.ndarray:
    """P at every node, entry-major (M, M, n).

    Row i, entry j: C_i W{phi_i, phi_j} / (gamma_i^2 - gamma_j^2) + delta_ij,
    then the prefix form on the diagonal.  The raw Wronskian is formed for
    i < j only; W{phi_j, phi_i} is its exact negation.  delta_ij is added to
    every entry because adding 0.0 turns an off-diagonal -0.0 (also from that
    negation) into +0.0, a bit of P.
    """
    phi, dphi = sset._rows[:2]
    coeff, gam = sset._constants
    m, n = phi.shape
    denom = gam[:, None] - gam[None, :]
    np.fill_diagonal(denom, 1.0)
    eye = np.eye(m)
    p = np.empty((m, m, n))
    for i in range(m):
        w = p[i, i + 1:]
        np.multiply(phi[i], dphi[i + 1:], out=w)
        w -= dphi[i] * phi[i + 1:]
        np.negative(w, out=p[i + 1:, i])
    diag = _seed_prefix(sset, phi, dphi)[0]
    for i in range(m):
        row = p[i]
        row[i] = 0.0
        row *= coeff[i]
        row /= denom[i][:, None]
        row += eye[i][:, None]
        np.multiply(coeff[i], diag[i], out=row[i])
        row[i] += 1.0
    return p


def _swap_rows(x: np.ndarray, k: int, rows: np.ndarray, nodes: np.ndarray) -> None:
    """Exchange row k with row rows[i] at node nodes[i] of an (M, ..., n) stack."""
    held = x[k, ..., nodes]
    x[k, ..., nodes] = x[rows, ..., nodes]
    x[rows, ..., nodes] = held


def _lu_factor(a: np.ndarray) -> tuple[np.ndarray, tuple]:
    """In-place LU factorization with partial pivoting of an (M, M, n) stack.

    Every node is factored on its own (Golub & Van Loan, Matrix Computations,
    sec. 3.4); each step is one whole-array operation over the node axis.  The
    pivot of column k is the first entry of largest modulus on or below the
    diagonal, and the multipliers are scaled by the reciprocal pivot.  Returns
    det P (the permutation's sign times the product of U's diagonal) at every
    node and the row exchanges.
    """
    m, n = a.shape[0], a.shape[2]
    det = np.ones(n)
    swaps = []
    for k in range(m):
        rows = np.full(n, k)
        pivot = np.abs(a[k, k])
        for i in range(k + 1, m):
            cand = np.abs(a[i, k])
            rows[cand > pivot] = i
            np.maximum(pivot, cand, out=pivot)
        nodes = np.flatnonzero(rows != k)
        rows = rows[nodes]
        if nodes.size:
            _swap_rows(a, k, rows, nodes)
            det[nodes] = -det[nodes]
        swaps.append((nodes, rows))
        if k + 1 < m:
            rpiv = 1.0 / a[k, k]
            for i in range(k + 1, m):
                a[i, k] *= rpiv
                a[i, k + 1:] -= a[i, k] * a[k, k + 1:]
    for k in range(m):
        det *= a[k, k]
    return det, tuple(swaps)


def _lu_solve(lu: np.ndarray, swaps: tuple, b: np.ndarray) -> np.ndarray:
    """Solve P x = b in place for an (M, k, n) stack of right-hand sides.

    U's diagonal enters through its reciprocal, as in the multipliers.
    """
    m = lu.shape[0]
    for k, (nodes, rows) in enumerate(swaps):
        if nodes.size:
            _swap_rows(b, k, rows, nodes)
    for i in range(1, m):
        for j in range(i):
            b[i] -= lu[i, j] * b[j]
    for i in reversed(range(m)):
        for j in range(i + 1, m):
            b[i] -= lu[i, j] * b[j]
        b[i] *= 1.0 / lu[i, i]
    return b


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_mu a[mu] b[mu] over (M, n) rows, one seed at a time from zero."""
    return np.einsum("mn,mn->n", a, b)


def p_matrix(sset: BargmannSeedSet) -> PMatrix:
    """Assemble P(r) at every node, factor it once in place (LU with partial
    pivoting) and solve for the Jacobi vectors u_j, whose first is the seed
    images y = P^{-1} c.

    det P must be nonzero, finite and of constant sign across the grid;
    otherwise SingularPotentialError names the first bad node.
    """
    lu = _assemble(sset)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        det, swaps = _lu_factor(lu)
    bad = ~np.isfinite(det) | (np.abs(det) < np.finfo(float).tiny)
    bad |= np.sign(det) != np.sign(det[0])
    if np.any(bad):
        k = int(np.flatnonzero(bad)[0])
        if not np.isfinite(det[k]):
            raise SingularPotentialError(k, what="det P", how="is not finite")
        raise SingularPotentialError(k, what="det P")

    phi, dphi, _, _, ddphi = sset._rows
    # each right-hand side diag(C) phi^(j) is solved in place in its slot
    jacobi = np.stack((phi, dphi, ddphi))
    jacobi *= sset._constants[0][:, None]
    for rhs in jacobi:
        _lu_solve(lu, swaps, rhs[:, None])
    yv = jacobi[0]
    yd = jacobi[1] - sset.h_field.values * _dot(phi, yv) * yv
    return PMatrix(sset, lu, swaps, det, jacobi, yd)


def bargmann_potential(sset: BargmannSeedSet, pm: PMatrix | None = None) -> SampledField:
    """Transformed potential V = V0 - 2 sqrt(h) d/dr[(1/sqrt(h)) (ln det P)'].

    With t = tr(P^{-1} P') this is V0 + (h'/h) t - 2 t'; t, t' and t'' come
    from Jacobi's formula in the rank-one form of the module docstring, so
    the result (and its derivative channel) is exact up to rounding.
    """
    if pm is None:
        pm = p_matrix(sset)
    phi, dphi, _, _, ddphi = sset._rows
    hf = sset.h_field
    hv, hd = hf.values, hf.derivs
    hdd = sset.h.jet(sset.grid.r, 2)[2]

    u0, u1, u2 = pm.jacobi
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
        Solution(s.gamma_sq, SampledField(sset.grid, yv[k], yd[k]),
                 CustomBC(float(yv[k, 0]), float(yd[k, 0]), "left"))
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
    gaps = np.abs(sset._constants[1] - phi0.gamma_sq)
    if np.any(gaps < MIN_SPECTRAL_GAP):
        k = int(np.argmin(gaps))
        raise DuplicateSpectralError(
            f"gamma^2 = {phi0.gamma_sq} coincides with seed {k}; "
            "use transformed_seed_solutions for the seed parameters"
        )
    kv, kd = _seed_prefix(sset, phi0.values, phi0.derivs)
    yv, yd = pm.images, pm.images_deriv

    out = phi0.values - _dot(yv, kv)
    outd = phi0.derivs - _dot(yd, kv) - _dot(yv, kd)
    return Solution(
        phi0.gamma_sq,
        SampledField(sset.grid, out, outd),
        CustomBC(float(out[0]), float(outd[0]), "left"),
    )
