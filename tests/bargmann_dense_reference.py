"""Dense Jacobi-formula reference for the Bargmann potential and seed images.

This is the assembly the package used before its rank-one form: it builds
the full (n, M, M) stacks P', P'', P''' and evaluates
t = tr(P^{-1} P'), t' = tr(P^{-1} P'') - tr((P^{-1} P')^2) and
t'' = tr(P^{-1} P''') - 3 tr(P^{-1} P' P^{-1} P'') + 2 tr((P^{-1} P')^3) with
batched M x M products, and the seed-image derivative through
(P^{-1})' = -P^{-1} P' P^{-1}.  Tests hold the package's dot-product form to
it.  Only P, P^{-1} (p_and_inverse) and the seed set are taken from the
package.
"""

from __future__ import annotations

import numpy as np

from solvforge.bargmann import _assemble, _diagonal, _inverse
from solvforge.darboux import log_det_potential


def p_and_inverse(pm):
    """P and P^{-1} at every node, (K, K, n), assembled and factored as the package does."""
    p = _assemble(pm.seeds, _diagonal(pm.seeds))
    return p, _inverse(p.copy())


def _trace(a: np.ndarray) -> np.ndarray:
    return np.einsum("nii->n", a)


def _stacked(sset):
    phi = np.stack([s.phi0.values for s in sset.seeds], axis=1)
    dphi = np.stack([s.phi0.derivs for s in sset.seeds], axis=1)
    coeff = np.array([s.coeff for s in sset.seeds])
    gam = np.array([s.gamma_sq for s in sset.seeds])
    return phi, dphi, coeff, gam


def entries_deriv(sset) -> np.ndarray:
    """dP/dr = C_mu h phi_mu phi_nu as a dense (n, M, M) stack."""
    phi, dphi, coeff, gam = _stacked(sset)
    hv = sset.h_field.values
    return coeff[None, :, None] * hv[:, None, None] * np.einsum("ni,nj->nij", phi, phi)


def dense_potential(sset, pm):
    phi, dphi, coeff, gam = _stacked(sset)
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

    inv = np.moveaxis(p_and_inverse(pm)[1], -1, 0)  # (n, M, M)
    x = inv @ p1
    y = inv @ p2
    z = inv @ p3
    t = _trace(x)
    td = _trace(y) - _trace(x @ x)
    tdd = _trace(z) - 3.0 * _trace(x @ y) + 2.0 * _trace(x @ x @ x)

    return log_det_potential(sset.v0, hf, hdd, t, td, tdd)


def dense_seed_images(sset, pm):
    """y = P^{-1} c with c_nu = C_nu phi_nu, plus the analytic derivative."""
    phi, dphi, coeff, gam = _stacked(sset)
    inv = np.moveaxis(p_and_inverse(pm)[1], -1, 0)  # (n, M, M)
    inv_d = -inv @ entries_deriv(sset) @ inv
    cphi = coeff[None, :] * phi
    cdphi = coeff[None, :] * dphi
    yv = np.einsum("nmv,nv->nm", inv, cphi)
    yd = np.einsum("nmv,nv->nm", inv, cdphi) + np.einsum("nmv,nv->nm", inv_d, cphi)
    return yv, yd
