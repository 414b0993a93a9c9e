"""RK4 propagation kernel for phi'' = q(r) phi.

The equation is linear, so one RK4 step maps the state s = (phi, phi') by a
2x2 matrix, s_{i+1} = (I + N_i) s_i, and the trajectory is a prefix product
of those matrices.  The product is computed as a blocked scan (Blelloch,
"Prefix sums and their applications", 1990) with whole-array numpy
operations:

1. the increment matrices N_i are built for every panel at once, from the
   RK4 stages applied to e1 and e2 with the identity removed analytically;
2. within blocks of L panels the delta-form products G_j = prod(I + N) - I
   are accumulated, vectorized across blocks, and a short sequential carry
   links the block ends;
3. a finish pass evaluates the RK4 increments N_i s_i once more from the
   scanned node states and sums them with a running sum, so the output
   accumulates its rounding in the same order as a sequential step loop.
   The residual oracle differentiates phi twice and sits near its rounding
   floor, so this pass is what keeps its worst residual where the
   sequential loop had it.

Panel data are kept in scan layout, shape (L, blocks): panel b*L + j sits at
[j, b], so step j of every block is one contiguous row.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["rk4_propagate", "kernel_backend"]


def kernel_backend() -> str:
    """Name of the integration kernel."""
    return "numpy"


def _block_length(panels: int) -> int:
    """Panels per scan block: about sqrt(panels) / 3, which balances the
    vectorized in-block loop (L iterations) against the scalar carry loop
    (panels / L iterations)."""
    return max(4, math.isqrt(panels) // 3)


def _scan_layout(x: np.ndarray, length: int, blocks: int) -> np.ndarray:
    """Panel array x in scan layout, zero-padded to length * blocks."""
    out = np.zeros(blocks * length)
    out[: x.shape[0]] = x
    return out.reshape(blocks, length).T.copy()


def _increment_matrices(qi, qmid, qn, h):
    """N = M - I for every panel, shape (2, 2) + qi.shape.

    Column k is the RK4 increment of the unit state e_k.  Summing the stages
    in closed form leaves only O(h) entries, so no 1 + O(h^2) value is
    formed and rounded."""
    hh = h * h
    n = np.empty((2, 2) + qi.shape)
    # from e1: k1 = (0, qi), k2 = (h/2 qi, qmid), k3 = (h/2 qmid, k3d),
    # k4 = (h k3d, qn (1 + h^2/2 qmid))
    k3d = qmid * (1.0 + (0.25 * hh) * qi)
    n[0, 0] = (hh / 6.0) * (qi + qmid + k3d)
    n[1, 0] = (h / 6.0) * (qi + 2.0 * qmid + 2.0 * k3d + qn * (1.0 + (0.5 * hh) * qmid))
    # from e2: k1 = (1, 0), k2 = (1, h/2 qmid), k3 = (1 + h^2/4 qmid, h/2 qmid),
    # k4 = (1 + h^2/2 qmid, h qn (1 + h^2/4 qmid))
    n[0, 1] = h + (h * hh / 6.0) * qmid
    n[1, 1] = (hh / 6.0) * (2.0 * qmid + qn * (1.0 + (0.25 * hh) * qmid))
    return n


def _node_states(n, phi0, dphi0):
    """State (phi, phi') at the left node of every panel, in scan layout,
    from the increment matrices n (2, 2, L, blocks)."""
    length, blocks = n.shape[2:]
    # g[:, :, j] = (I + N_{j-1}) ... (I + N_0) - I within each block
    g = np.empty((2, 2, length + 1, blocks))
    g[:, :, 0] = 0.0
    for j in range(length):
        gj, nj = g[:, :, j], n[:, :, j]
        # G_{j+1} = G_j + N_j (I + G_j)
        g[:, :, j + 1] = gj + nj + (nj[:, 0, None] * gj[None, 0] + nj[:, 1, None] * gj[None, 1])

    # carry the block-start states s_b across the block products
    app, apd, adp, add = g[:, :, -1].reshape(4, blocks).tolist()
    sp = np.empty(blocks)
    sd = np.empty(blocks)
    p, d = float(phi0), float(dphi0)
    for b in range(blocks):
        sp[b] = p
        sd[b] = d
        p, d = p + (app[b] * p + apd[b] * d), d + (adp[b] * p + add[b] * d)

    g = g[:, :, :-1]
    return sp + (g[0, 0] * sp + g[0, 1] * sd), sd + (g[1, 0] * sp + g[1, 1] * sd)


def _running_sum(start: float, increments: np.ndarray, panels: int) -> np.ndarray:
    """start, start + inc_0, (start + inc_0) + inc_1, ... over the first
    `panels` increments (scan layout), summed in panel order."""
    length, blocks = increments.shape
    buf = np.empty(blocks * length + 1)
    buf[0] = start
    buf[1:].reshape(blocks, length)[...] = increments.T
    return np.cumsum(buf[: panels + 1])


def rk4_propagate(q, qm, step, phi0, dphi0):
    """March (phi, phi') across the grid with classical RK4.

    q holds q(r) at the n nodes, qm holds q at the n-1 panel midpoints.
    Returns (phi, dphi) arrays of length n.  A trajectory that overflows
    yields inf/nan entries from the first affected node on, without numpy
    warnings: the caller decides what counts as a blow-up.
    """
    q = np.asarray(q, dtype=float)
    qm = np.asarray(qm, dtype=float)
    h = float(step)
    panels = q.shape[0] - 1
    length = _block_length(panels)
    # one block more than the whole blocks: the padding panels (at least
    # one) then always start at panels % length of the last block
    blocks = panels // length + 1
    with np.errstate(over="ignore", invalid="ignore"):
        n = _increment_matrices(
            *(_scan_layout(x, length, blocks) for x in (q[:-1], qm, q[1:])), h
        )
        # padding panels take the identity step
        n[:, :, panels % length :, -1] = 0.0
        p, d = _node_states(n, phi0, dphi0)
        phi = _running_sum(float(phi0), n[0, 0] * p + n[0, 1] * d, panels)
        dphi = _running_sum(float(dphi0), n[1, 0] * p + n[1, 1] * d, panels)
    return phi, dphi
