"""Single generalized Darboux step and the two-step chain.

Given a nodeless seed y(r) solving the base problem at a fixed spectral
parameter g'^2, one step produces

    V = V0 - 2 sqrt(h) d/dr[(1/sqrt(h)) d/dr ln y] + sqrt(h) d^2/dr^2 (1/sqrt(h))

and maps any base solution phi0 at gamma^2 to

    phi = W{y, phi0} / (sqrt(h) y).

Every single-channel potential here has the form
V0 - 2 sqrt(h) d/dr[(1/sqrt(h)) d/dr ln F], assembled once by
`log_det_potential`.  The Darboux step is the case F = y plus the weight
term w = sqrt(h) d^2/dr^2 (1/sqrt(h)) and its derivative w'.

All derivatives are evaluated in closed form: the weight h is analytic, the
log-derivative t = y'/y comes from the carried channels, and t' = (V0 -
g'^2 h) - t^2 follows from the equation itself, so no finite differencing
enters the construction.  The Wronskian derivative uses
dW/dr = h (g'^2 - gamma^2) y phi0.

The second chain step combines the inverted seed with the prefix integral
P(r) = 1 + C * int h y^2; the first-step terms cancel and the chained
potential collapses to the case F = P, with the solution map

    phi = phi0 - C y W{y, phi0} / (P (g'^2 - gamma^2)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .errors import (
    DomainError,
    DuplicateSpectralError,
    GridMismatchError,
    SingularPotentialError,
    SingularSeedError,
)
from .expr import AnalyticExpr, evaluate_on_grid
from .grid import Direction, SampledField, signed_prefix
from .solver import MIN_SPECTRAL_GAP, CustomBC, Solution, _check_direction

__all__ = [
    "DarbouxTransform",
    "darboux_transform",
    "darboux_potential",
    "darboux_solution",
    "chain_second_step",
    "EPS_NODE",
]

#: seed values smaller than this flag a node of the seed
EPS_NODE = 1e-10


def _check_domain(bad: np.ndarray, message: str) -> None:
    if np.any(bad):
        raise DomainError(message, int(np.flatnonzero(bad)[0]))


def _seed_zero_masks(y: np.ndarray) -> np.ndarray:
    """Mask of near-zero seed entries; interior zeros or sign changes are fatal.

    Endpoint zeros are tolerated (regular seeds vanish at the origin); the
    returned boolean mask marks them so callers can patch those nodes.
    """
    small = np.abs(y) < EPS_NODE
    if np.any(small[1:-1]):
        raise SingularSeedError(int(np.flatnonzero(small[1:-1])[0]) + 1)
    sign_change = y[:-1] * y[1:] < 0.0
    if np.any(sign_change):
        raise SingularSeedError(int(np.flatnonzero(sign_change)[0]) + 1)
    return small


def _extrapolate(vals: np.ndarray, idx: int) -> float:
    """Quadratic extrapolation to an endpoint from its three neighbours."""
    if idx == 0:
        return 3.0 * vals[1] - 3.0 * vals[2] + vals[3]
    return 3.0 * vals[-2] - 3.0 * vals[-3] + vals[-4]


def log_det_potential(V0: SampledField, hf: SampledField, hdd, t, td, tdd) -> SampledField:
    """V = V0 - 2 sqrt(h) d/dr[(1/sqrt(h)) t] = V0 + (h'/h) t - 2 t', with its
    derivative channel, for t = (ln F)' of the transform's factor F (y for
    the Darboux step, which adds the weight term, P for the chain); hdd is
    h'' and td, tdd are t', t''."""
    hv, hd = hf.values, hf.derivs
    # a non-finite t (an overflowed factor) is rejected by the returned field
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = hd / hv
        v = V0.values + ratio * t - 2.0 * td
        ratio_d = hdd / hv - ratio * ratio
        vd = V0.derivs + ratio_d * t + ratio * td - 2.0 * tdd
    return SampledField._sharing(V0.grid, v, vd)


def darboux_potential(seed: Solution, h: AnalyticExpr, V0: SampledField) -> SampledField:
    """Transformed potential from one Darboux step.

    The seed must be nodeless on the open interval; a zero at an endpoint is
    allowed (the true potential diverges there, e.g. a centrifugal-type term)
    and the endpoint entry is filled by extrapolation so the field stays
    finite.  An interior zero raises SingularSeedError naming the node.
    """
    grid = V0.grid
    if seed.grid != grid:
        raise GridMismatchError("seed and base potential live on different grids")
    # h to h''' from one jet; the weight term w = sqrt(h) (1/sqrt(h))'' and
    # its derivative are polynomials in q_k = h^(k)/h
    hj = h.jet(grid.r, 3)
    _check_domain(~(hj[0] > 0.0), "1/sqrt(h) needs a positive weight")
    hv, hd = hj[0], hj[1]
    with np.errstate(over="ignore", invalid="ignore"):
        q1, q2, q3 = hj[1:] / hv
        w = 0.75 * q1 * q1 - 0.5 * q2
        wd = q1 * (2.0 * q2 - 1.5 * q1 * q1) - 0.5 * q3
    _check_domain(~(np.isfinite(w) & np.isfinite(wd)), "non-finite derivative of 1/sqrt(h)")

    y, yd = seed.values, seed.derivs
    patch = _seed_zero_masks(y)
    # t = (ln y)', with t' and t'' from the governing equation
    t = yd / np.where(patch, 1.0, y)
    td = (V0.values - seed.gamma_sq * hv) - t * t
    tdd = (V0.derivs - seed.gamma_sq * hd) - 2.0 * t * td
    log_part = log_det_potential(V0, SampledField._sharing(grid, hv, hd), hj[2], t, td, tdd)

    v = log_part.values + w
    vd = log_part.derivs + wd
    for idx in np.flatnonzero(patch):
        v[idx] = _extrapolate(v, idx)
        vd[idx] = _extrapolate(vd, idx)
    return SampledField._sharing(grid, v, vd)


def darboux_solution(seed: Solution, h: SampledField, phi0: Solution) -> Solution:
    """Map a base solution through the Darboux step: W{y, phi0} / (sqrt(h) y).

    The derivative channel is assembled from dW/dr = h (g'^2 - gamma^2) y phi0,
    so the output carries exact derivatives.  Where both the seed and phi0
    vanish at an endpoint the 0/0 limit is zero (the transform preserves
    regularity); a lone seed zero there makes the image singular and raises.
    """
    grid = phi0.grid
    if seed.grid != grid:
        raise GridMismatchError("seed and solution live on different grids")
    if h.grid != grid:
        raise GridMismatchError("weight sampled on a different grid")

    y, yd = seed.values, seed.derivs
    p, pd = phi0.values, phi0.derivs
    patch = _seed_zero_masks(y)
    y_safe = np.where(patch, 1.0, y)

    w = y * pd - yd * p
    wd = h.values * (seed.gamma_sq - phi0.gamma_sq) * y * p

    rt = np.sqrt(h.values)
    den = rt * y_safe
    dend = h.derivs / (2.0 * rt) * y_safe + rt * yd

    out = w / den
    outd = (wd * den - w * dend) / (den * den)

    if np.any(patch):
        w_scale = float(np.max(np.abs(w))) + 1.0
        for idx in np.flatnonzero(patch):
            if abs(w[idx]) > 1e-8 * w_scale:
                raise SingularSeedError(int(idx))
            out[idx] = 0.0
            outd[idx] = 0.0
    return Solution(
        phi0.gamma_sq,
        SampledField._sharing(grid, out, outd),
        CustomBC(float(out[0]), float(outd[0]), "left"),
    )


@dataclass(frozen=True)
class DarbouxTransform:
    """One validated Darboux step: seed, weight, base and transformed potential."""

    seed: Solution
    h: AnalyticExpr
    h_field: SampledField
    base_potential: SampledField
    new_potential: SampledField

    def apply(self, phi0: Solution) -> Solution:
        return darboux_solution(self.seed, self.h_field, phi0)


def darboux_transform(seed: Solution, h: AnalyticExpr, V0: SampledField) -> DarbouxTransform:
    return DarbouxTransform(
        seed=seed,
        h=h,
        h_field=evaluate_on_grid(h, V0.grid),
        base_potential=V0,
        new_potential=darboux_potential(seed, h, V0),
    )


def chain_second_step(
    first: DarbouxTransform,
    C: float,
    direction: Direction,
) -> Tuple[SampledField, Callable[[Solution], Solution]]:
    """Second step of the two-step chain built on `first`.

    Returns the chained potential and the solution map phi0 -> phi.  The
    map is the identity when C = 0.  P(r) = 1 + C * int h y^2 must stay
    positive; a non-positive value (C too negative) raises
    SingularPotentialError naming the node.
    """
    seed = first.seed
    _check_direction(seed.bc, direction)
    grid = seed.grid
    hf = first.h_field
    hv, hd = hf.values, hf.derivs
    hdd = first.h.jet(grid.r, 2)[2]
    y, yd = seed.values, seed.derivs
    gamma_prime_sq = seed.gamma_sq

    pref = signed_prefix(hf * seed.field * seed.field, direction)
    # -inf is caught below as non-positive, +inf as a non-finite potential
    with np.errstate(over="ignore"):
        P = 1.0 + C * pref.values
    bad = P <= 0.0
    if np.any(bad):
        raise SingularPotentialError(int(np.flatnonzero(bad)[0]), what="chain factor P")

    # an overflow leaves a non-finite entry, which the potential's field rejects
    with np.errstate(over="ignore", invalid="ignore"):
        ydd = (first.base_potential.values - gamma_prime_sq * hv) * y
        N = C * hv * y * y
        Nd = C * (hd * y * y + 2.0 * hv * y * yd)
        Ndd = C * (hdd * y * y + 4.0 * hd * y * yd + 2.0 * hv * (yd * yd + y * ydd))
        t = N / P
        td = Nd / P - t * t
        tdd = Ndd / P - 3.0 * N * Nd / (P * P) + 2.0 * t * t * t

    potential = log_det_potential(first.base_potential, hf, hdd, t, td, tdd)

    def solution_map(phi0: Solution) -> Solution:
        if phi0.grid != grid:
            raise GridMismatchError("solution lives on a different grid")
        delta = gamma_prime_sq - phi0.gamma_sq
        if abs(delta) < MIN_SPECTRAL_GAP:
            raise DuplicateSpectralError(
                "chain map is singular at the seed spectral parameter; "
                f"gamma^2 = {phi0.gamma_sq} coincides with the seed value"
            )
        p, pd = phi0.values, phi0.derivs
        # three rows, the two outputs and a scratch row t, with every value
        # rounded as in
        #   w = y pd - yd p,  wd = hv delta y p,  gfac = y w / P,
        #   gfac_d = (yd w + y wd - gfac N) / P,
        #   out = p - C gfac / delta,  outd = pd - C gfac_d / delta
        w = np.multiply(y, pd)
        t = np.multiply(yd, p)
        w -= t
        gfac = np.multiply(y, w)
        gfac /= P
        gfac_d = w
        gfac_d *= yd
        np.multiply(hv, delta, out=t)
        t *= y
        t *= p
        t *= y
        gfac_d += t
        np.multiply(gfac, N, out=t)
        gfac_d -= t
        gfac_d /= P
        out, outd = gfac, gfac_d
        for row, base in ((out, p), (outd, pd)):
            row *= C
            row /= delta
            np.subtract(base, row, out=row)
        return Solution(
            phi0.gamma_sq,
            SampledField._sharing(grid, out, outd),
            CustomBC(float(out[0]), float(outd[0]), "left"),
        )

    return potential, solution_map
