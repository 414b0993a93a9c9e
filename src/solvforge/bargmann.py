"""The generalized Bargmann transformation: K seeds over N channels.

Seed k is a solution vector psi_k of the base problem (N channels, a real
symmetric potential matrix V0) at the spectrum gamma_k^2, with a constant C_k.
The single-channel M-fold transform is N = 1, K = M; the multichannel step is
K = 1 with psi = Phi0 c and C = 1.  Seed spectra are rigid shifts of one
another, so gamma_k^2 - gamma_l^2 is one number.  At every node

    P_kl = delta_kl + C_k W{psi_k, psi_l} / (gamma_k^2 - gamma_l^2),

with the channel-dot Wronskian W{f, g} = sum_a (f_a g_a' - f_a' g_a).  On the
diagonal the quotient's limit, the prefix integral of h psi_k . psi_k
(anchored at the endpoint matching the seed class), is used instead.

A = P^{-1} diag(C) is symmetric and A' = -h (A psi)(A psi)^T.  With
u_j = A psi^(j) (psi'' = V0 psi - gamma^2 h psi) and the N x N fields
S_ij = sum_k u_i[k] psi^(j)[k]^T, everything is in closed form:

    G   = S00 = sum_k y_k psi_k^T        (hG = (ln det P)' at N = 1)
    G'  = S10 + S01 - G (hG)
    G'' = S20 + 2 S11 + S02 - S10 (hG) - (hG) S01 - h' G G - G' (hG) - (hG) G'
    V   = V0 - 2 (hG)' + h' G = V0 - 2 h G' - h' G
    y_k = u0[k],  y' = u1 - y (hG)       (seed images, at gamma_k^2)
    phi = phi0 - sum_k y_k K_k^T,  K_k = prefix of h psi_k . phi0,

where phi0 is a base solution matrix (columns are solutions) and the prefix
kernel K_k equals W{psi_k, phi0}/(gamma_k^2 - gamma^2), finite as gamma^2
approaches gamma_k^2.  Arrays are entry-major, each entry one contiguous row
over the nodes: seed rows (K, N, n), P (K, K, n), N x N fields (N, N, n).
Sums over seeds and channels add one term at a time, in order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from . import verify
from .errors import (
    DuplicateSpectralError,
    GridMismatchError,
    SeedRejectedError,
    SingularPotentialError,
)
from .expr import AnalyticExpr, evaluate_on_grid
from .grid import Direction, SampledField, signed_prefix
from .solver import MIN_SPECTRAL_GAP, SEED_RESIDUAL_TOL, CustomBC, Solution, _check_direction

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


class _Seeds(NamedTuple):
    """K seed vectors over N channels: psi, psi' (K, N, n), C_k (K,), gamma_k^2
    (K, N) and the (N, N, n) base potential, from which _ddpsi forms psi''."""

    direction: Direction
    h: AnalyticExpr
    h_field: SampledField
    v0: np.ndarray
    coeff: np.ndarray
    gam: np.ndarray
    psi: np.ndarray
    dpsi: np.ndarray


def _seed_rows(direction, h, h_field, v0, gam, coeff, psi, dpsi) -> _Seeds:
    """_Seeds of (K, N, n) rows psi, psi' on the (N, N, n) base potential v0,
    with (K, N) seed spectra gam and (K,) constants coeff."""
    rows = (np.array(coeff, dtype=float), np.array(gam, dtype=float),
            np.ascontiguousarray(psi), np.ascontiguousarray(dpsi))
    for arr in rows:
        arr.flags.writeable = False
    return _Seeds(direction, h, h_field, v0, *rows)


def _ddpsi(seeds: _Seeds, k: int) -> np.ndarray:
    """psi_k'' = V0 psi_k - gamma_k^2 h psi_k of seed k, (N, n), formed anew."""
    psi = seeds.psi[k]
    # an overflow leaves a non-finite entry, which every later check rejects
    with np.errstate(over="ignore", invalid="ignore"):
        return (_mat(seeds.v0, psi[:, None])[:, 0]
                - seeds.gam[k][:, None] * seeds.h_field.values * psi)


def _mat(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Node-wise matrix product of (I, J, n) and (J, L, n) stacks: entry
    (i, l) is sum_j x[i, j] y[j, l], one term at a time from zero."""
    return np.einsum("ijn,jln->iln", x, y)


def _wronskian(f, df, g, dg) -> np.ndarray:
    """Channel-dot Wronskians sum_a (f_a g_a' - f_a' g_a) of (I, N, n) rows
    against (N, J, n) columns, (I, J, n)."""
    return _mat(f, dg) - _mat(df, g)


def _kernel(seeds: _Seeds, k: int, g, dg) -> tuple[np.ndarray, np.ndarray]:
    """Channel-dot prefix kernel of seed k against every column b of g, dg
    (N, B, n): the oriented prefix of h psi_k . g_b, integrated as a plain
    row, and its integrand (the exact derivative), (B, n) each."""
    psi, dpsi = seeds.psi[k:k + 1], seeds.dpsi[k:k + 1]
    hv, hd = seeds.h_field.values, seeds.h_field.derivs
    # a non-finite integrand or prefix raises NonFiniteFieldError
    with np.errstate(over="ignore", invalid="ignore"):
        hpsi = hv * psi
        derivs = _mat(hpsi, g)[0]
        integrand_d = _mat(hd * psi + hv * dpsi, g)[0] + _mat(hpsi, dg)[0]
        values = np.stack([signed_prefix(pair, seeds.direction, seeds.h_field.grid)
                           for pair in zip(derivs, integrand_d)])
    return values, derivs


def _diagonal(seeds: _Seeds) -> np.ndarray:
    """The prefix integral of h psi_k . psi_k at every node, (K, n): the
    diagonal of P before C_k and delta_kk."""
    psi, dpsi = seeds.psi[:, :, None], seeds.dpsi[:, :, None]
    return np.stack([_kernel(seeds, k, psi[k], dpsi[k])[0][0] for k in range(len(psi))])


def _blocks(seeds: _Seeds) -> list[slice]:
    """The node blocks in which P is assembled: ceil(3 N n / K) nodes each,
    so a block is no larger than the (3, K, N, n) Jacobi stack."""
    m, channels, n = seeds.psi.shape
    size = -(-3 * channels * n // m)
    return [slice(start, start + size) for start in range(0, n, size)]


def _assemble(seeds: _Seeds, diag: np.ndarray, nodes: slice = slice(None)) -> np.ndarray:
    """P at the nodes of a slice, entry-major (K, K, len), from the full
    diagonal prefix diag (K, n) of _diagonal.

    Row i, entry j: C_i W{psi_i, psi_j} / (gamma_i^2 - gamma_j^2) + delta_ij,
    then the prefix form on the diagonal.  The raw Wronskian is formed for
    i < j only; W{psi_j, psi_i} is its exact negation.  delta_ij is added to
    every entry because adding 0.0 turns an off-diagonal -0.0 (also from that
    negation) into +0.0, a bit of P.
    """
    psi, dpsi, diag = seeds.psi[..., nodes], seeds.dpsi[..., nodes], diag[:, nodes]
    coeff, gam = seeds.coeff, seeds.gam[:, 0]
    m, n = psi.shape[0], psi.shape[2]
    denom = gam[:, None] - gam[None, :]
    np.fill_diagonal(denom, 1.0)
    eye = np.eye(m)
    p = np.empty((m, m, n))
    # an overflow leaves a non-finite entry, which p_matrix names
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(m):
            later = psi[i + 1:].swapaxes(0, 1), dpsi[i + 1:].swapaxes(0, 1)
            p[i, i + 1:] = _wronskian(psi[i:i + 1], dpsi[i:i + 1], *later)[0]
            np.negative(p[i, i + 1:], out=p[i + 1:, i])
        for i in range(m):
            row = p[i]
            row[i] = 0.0
            row *= coeff[i]
            row /= denom[i][:, None]
            row += eye[i][:, None]
            np.multiply(coeff[i], diag[i], out=row[i])
            row[i] += 1.0
    return p


@dataclass(frozen=True)
class PMatrix:
    """Determinant of the node-wise P matrix, its Jacobi vectors and seed images.

    P itself is not kept: _factor assembles and factors it block by block,
    and condition_summary does so again.  Every array has the nodes on its
    last axis.  `jacobi[j]` is u_j = P^{-1} diag(C) psi^(j), j = 0, 1, 2,
    (K, N, n) like the seed rows; images = u0 are the seed images
    y = P^{-1} c, the orientation that solves the transform ansatz at the
    seed parameters, and images_deriv their exact derivative.  `jacobi` and
    `images_deriv` are read-only, and the seed images share their rows.
    """

    seeds: _Seeds
    det: np.ndarray  # (n,)
    jacobi: np.ndarray  # (3, K, N, n)
    images_deriv: np.ndarray  # (K, N, n)

    @property
    def m(self) -> int:
        return self.jacobi.shape[1]

    @property
    def images(self) -> np.ndarray:
        return self.jacobi[0]

    def condition_summary(self) -> dict:
        """det P's range and sign, and the largest row-sum condition number over
        the nodes, from P assembled and inverted in _factor's blocks, not kept."""
        seeds, diag = self.seeds, _diagonal(self.seeds)
        cond = np.empty(self.det.shape)
        for nodes in _blocks(seeds):
            p = _assemble(seeds, diag, nodes)
            # the norm of P is taken before _inverse factors p in place
            cond[nodes] = _row_sum_norm(p) * _row_sum_norm(_inverse(p))
        return {
            "m": int(self.m),
            "det_min": float(self.det.min()),
            "det_max": float(self.det.max()),
            "det_sign": int(np.sign(self.det[0])),
            "max_condition": float(cond.max()),
        }


def _row_sum_norm(a: np.ndarray) -> np.ndarray:
    """max_i sum_j |a_ij| at every node of a (K, K, b) stack, summed in order."""
    return sum(np.abs(col) for col in a.swapaxes(0, 1)).max(axis=0)


def _inverse(p: np.ndarray) -> np.ndarray:
    """P^{-1} of a (K, K, b) stack, factoring p in place."""
    m, b = p.shape[1:]
    swaps = _lu_factor(p)[1]
    return _lu_solve(p, swaps, np.broadcast_to(np.eye(m)[:, :, None], (m, m, b)).copy())


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


def _factor(seeds: _Seeds) -> PMatrix:
    """Factor P(r) (LU with partial pivoting) and solve for the Jacobi vectors
    u_j, whose first is the seed images y = P^{-1} c.

    P is assembled and factored in the blocks of _blocks, each dropped once
    its slice of the stack is solved; psi'' enters the stack seed by seed.
    """
    psi, diag = seeds.psi, _diagonal(seeds)
    det = np.empty(psi.shape[2])
    # each right-hand side diag(C) psi^(j) is solved in place in its slot
    jacobi = np.empty((3, *psi.shape))
    jacobi[0], jacobi[1] = psi, seeds.dpsi
    for k in range(len(psi)):
        jacobi[2, k] = _ddpsi(seeds, k)
    # an overflow leaves a non-finite entry, which the returned fields reject
    with np.errstate(over="ignore", invalid="ignore"):
        jacobi *= seeds.coeff[:, None, None]
    for nodes in _blocks(seeds):
        _factor_block(seeds, diag, nodes, det, jacobi)
    with np.errstate(over="ignore", invalid="ignore"):
        # y' = u1 - y (hG), G = sum_k y_k psi_k^T
        y = jacobi[0]
        yd = jacobi[1] - _mat(y, seeds.h_field.values * _mat(y.swapaxes(0, 1), psi))
    jacobi.flags.writeable = yd.flags.writeable = False
    return PMatrix(seeds, det, jacobi, yd)


def _factor_block(seeds: _Seeds, diag: np.ndarray, nodes: slice, det: np.ndarray,
                  jacobi: np.ndarray) -> None:
    """Factor P on one block of nodes into det[nodes] and solve the block's
    slice of the Jacobi stack in place.

    det P must be nonzero, finite and of the sign of det[0]; otherwise
    SingularPotentialError names the first bad node, by its global index.
    """
    p = _assemble(seeds, diag, nodes)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        det[nodes], swaps = _lu_factor(p)
    block = det[nodes]
    bad = ~np.isfinite(block) | (np.abs(block) < np.finfo(float).tiny)
    bad |= np.sign(block) != np.sign(det[0])
    if np.any(bad):
        k = int(np.flatnonzero(bad)[0])
        if not np.isfinite(block[k]):
            raise SingularPotentialError(nodes.start + k, what="det P", how="is not finite")
        raise SingularPotentialError(nodes.start + k, what="det P")
    # an overflow leaves a non-finite entry, which the returned fields reject
    with np.errstate(over="ignore", invalid="ignore"):
        for rhs in jacobi:
            _lu_solve(p, swaps, rhs[..., nodes])


def _potential(pm: PMatrix, v0: np.ndarray, dv0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """V = V0 - 2 h G' - h' G and its exact derivative, entry-major (N, N, n),
    from the (N, N, n) base potential and its derivative; G, G' and G'' in
    the closed form of the module docstring."""
    s = pm.seeds
    u0, u1, u2 = (u.swapaxes(0, 1) for u in pm.jacobi)
    hv, hd = s.h_field.values, s.h_field.derivs
    hdd = s.h.jet(s.h_field.grid.r, 2)[2]
    # an overflow leaves a non-finite entry, which the returned fields reject
    with np.errstate(over="ignore", invalid="ignore"):
        g = _mat(u0, s.psi)
        hg = hv * g
        s10, s01 = _mat(u1, s.psi), _mat(u0, s.dpsi)
        gd = s10 + s01 - _mat(g, hg)
        s02 = np.zeros(g.shape)
        for k in range(len(s.psi)):
            s02 += _mat(u0[:, k:k + 1], _ddpsi(s, k)[None])
        gdd = (
            _mat(u2, s.psi) + 2.0 * _mat(u1, s.dpsi) + s02
            - _mat(s10, hg) - _mat(hg, s01) - hd * _mat(g, g) - _mat(gd, hg) - _mat(hg, gd)
        )
        v = v0 - 2.0 * hv * gd - hd * g
        vd = dv0 - 3.0 * hd * gd - 2.0 * hv * gdd - hdd * g
    return v, vd


def _map(pm: PMatrix, g, dg, kernel) -> tuple[np.ndarray, np.ndarray]:
    """phi = phi0 - sum_k y_k K_k^T and its derivative, (N, B, n), for base
    columns g, dg (N, B, n) and kernel(k), seed k's (B, n) rows K_k, K_k'; the
    sums of y_k K_k, y_k' K_k, y_k K_k' run from zero, one seed's rows alive."""
    sums = np.zeros((3, *g.shape))
    # an overflow leaves a non-finite entry, which the returned fields reject
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(pm.m):
            y, yd = pm.images[k][:, None], pm.images_deriv[k][:, None]
            kv, kd = (row[None] for row in kernel(k))
            sums[0] += _mat(y, kv)
            sums[1] += _mat(yd, kv)
            sums[2] += _mat(y, kd)
            del kv, kd
        return g - sums[0], dg - sums[1] - sums[2]


# ---------------------------------------------------------------------------
# the single-channel M-fold transform: N = 1, K = M


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
    def _seeds(self) -> _Seeds:
        """The seeds as rows of the transform: one channel, (M, 1, n)."""
        phi = np.stack([s.phi0.values for s in self.seeds])[:, None]
        dphi = np.stack([s.phi0.derivs for s in self.seeds])[:, None]
        gam = [[s.gamma_sq] for s in self.seeds]
        return _seed_rows(self.direction, self.h, self.h_field, self.v0.values[None, None], gam,
                          [s.coeff for s in self.seeds], phi, dphi)


def make_seed_set(
    seeds: Sequence[BargmannSeed],
    v0: SampledField,
    h: AnalyticExpr,
    direction: Direction = Direction.FROM_LEFT,
) -> BargmannSeedSet:
    """Build a BargmannSeedSet, sampling the weight on the base grid."""
    return BargmannSeedSet(tuple(seeds), v0, h, evaluate_on_grid(h, v0.grid), direction)


def p_matrix(sset: BargmannSeedSet) -> PMatrix:
    """Factor P(r) of the seed set block by block (see _factor)."""
    return _factor(sset._seeds)


def bargmann_potential(sset: BargmannSeedSet, pm: PMatrix) -> SampledField:
    """Transformed potential V = V0 - 2 h G' - h' G with G = sum_mu y_mu phi_mu,
    which is V0 - 2 sqrt(h) d/dr[(1/sqrt(h)) (ln det P)'], with its exact
    derivative channel; pm is p_matrix(sset)."""
    v, vd = _potential(pm, sset.v0.values[None, None], sset.v0.derivs[None, None])
    return SampledField._sharing(sset.grid, v[0, 0], vd[0, 0])


def transformed_seed_solutions(sset: BargmannSeedSet, pm: PMatrix) -> list[Solution]:
    """Bound-type solutions y_mu of the transformed potential at gamma_mu^2;
    pm is p_matrix(sset)."""
    yv, yd = pm.images[:, 0], pm.images_deriv[:, 0]
    return [
        Solution(s.gamma_sq, SampledField._sharing(sset.grid, yv[k], yd[k]),
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
    gaps = np.abs(pm.seeds.gam[:, 0] - phi0.gamma_sq)
    if np.any(gaps < MIN_SPECTRAL_GAP):
        k = int(np.argmin(gaps))
        raise DuplicateSpectralError(
            f"gamma^2 = {phi0.gamma_sq} coincides with seed {k}; "
            "use transformed_seed_solutions for the seed parameters"
        )
    g, dg = phi0.values[None, None], phi0.derivs[None, None]
    out, outd = _map(pm, g, dg, lambda k: _kernel(pm.seeds, k, g, dg))
    return Solution(
        phi0.gamma_sq,
        SampledField._sharing(sset.grid, out[0, 0], outd[0, 0]),
        CustomBC(float(out[0, 0, 0]), float(outd[0, 0, 0]), "left"),
    )
