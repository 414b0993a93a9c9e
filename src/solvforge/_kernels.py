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

Each thread keeps the scan's two large stacks, the increment matrices
(2, 2, L, blocks) and the in-block products (2, 2, L + 1, blocks), about
64 n bytes together (6.4 MB at n = 100001, 12.8 MB at n = 200001), and
reuses them on its next call with the same L and block count.  Blocks of
this size are served from fresh memory, which a call that allocated its
stacks would fault in page by page every time.  The pair is replaced when
n changes and freed when the thread ends; every call overwrites all of it
before reading.

All of a call's full-length scratch lives in the two stacks.  Until the
in-block loop the prefix stack holds q, qm and q[1:] in scan layout and
the one scratch row of step 1, whose products and sums are written in
place into the increment stack.  The loop writes each product with out=,
the node states overwrite the in-block products, and each finish sum is
formed in place in its output's buffer (through a transposed view) and
summed there.  Beyond the two outputs, a call allocates only arrays of
O(blocks) entries.
"""

from __future__ import annotations

import math
import threading

import numpy as np

__all__ = ["rk4_propagate", "kernel_backend"]


def kernel_backend() -> str:
    """Name of the integration kernel."""
    return "numpy"


#: this thread's scan stacks: n, g and the (L, blocks) they were made for
_stacks = threading.local()


def _scan_stacks(length: int, blocks: int):
    """This thread's increment stack n (2, 2, L, blocks) and prefix stack g
    (2, 2, L + 1, blocks), made anew only when (L, blocks) changes."""
    if getattr(_stacks, "size", None) != (length, blocks):
        _stacks.n = _stacks.g = None  # free the old pair before making the new
        _stacks.n = np.empty((2, 2, length, blocks))
        _stacks.g = np.empty((2, 2, length + 1, blocks))
        _stacks.size = (length, blocks)
    return _stacks.n, _stacks.g


def _block_length(panels: int) -> int:
    """Panels per scan block: about sqrt(panels) / 3, which balances the
    vectorized in-block loop (L iterations) against the scalar carry loop
    (panels / L iterations)."""
    return max(4, math.isqrt(panels) // 3)


def _scan_layout(out: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Lay panel array x into out (L, blocks) in scan layout, zero-padded:
    panel b*L + j goes to [j, b]."""
    length, blocks = out.shape
    whole = x.shape[0] // length
    by_block = out.T
    by_block[:whole] = x[: whole * length].reshape(whole, length)
    by_block[whole:] = 0.0
    by_block[whole, : x.shape[0] - whole * length] = x[whole * length :]
    return out


def _one_plus(out, c, x, y):
    """out = y (1 + c x), rounded as written."""
    np.multiply(c, x, out=out)
    out += 1.0
    out *= y
    return out


def _increment_matrices(qi, qmid, qn, h, n, scratch):
    """Write N = M - I for every panel into n, shape (2, 2) + qi.shape.

    Column k is the RK4 increment of the unit state e_k.  Summing the stages
    in closed form leaves only O(h) entries, so no 1 + O(h^2) value is
    formed and rounded.  Each entry is formed in place, in n or in scratch
    (qi's shape), and rounded as in the formula beside it."""
    hh = h * h
    n00, n01, n10, n11 = n[0, 0], n[0, 1], n[1, 0], n[1, 1]
    # from e1: k1 = (0, qi), k2 = (h/2 qi, qmid), k3 = (h/2 qmid, k3d),
    # k4 = (h k3d, qn (1 + h^2/2 qmid)), with k3d = qmid (1 + h^2/4 qi)
    k3d = _one_plus(scratch, 0.25 * hh, qi, qmid)
    # n00 = h^2/6 (qi + qmid + k3d)
    np.add(qi, qmid, out=n00)
    n00 += k3d
    n00 *= hh / 6.0
    # n10 = h/6 (qi + 2 qmid + 2 k3d + qn (1 + h^2/2 qmid)); n11 is scratch
    # until it is written last
    np.multiply(2.0, qmid, out=n10)
    n10 += qi
    n10 += np.multiply(2.0, k3d, out=n11)
    n10 += _one_plus(n11, 0.5 * hh, qmid, qn)
    n10 *= h / 6.0
    # from e2: k1 = (1, 0), k2 = (1, h/2 qmid), k3 = (1 + h^2/4 qmid, h/2 qmid),
    # k4 = (1 + h^2/2 qmid, h qn (1 + h^2/4 qmid))
    # n01 = h + h^3/6 qmid
    np.multiply(h * hh / 6.0, qmid, out=n01)
    n01 += h
    # n11 = h^2/6 (2 qmid + qn (1 + h^2/4 qmid))
    tail = _one_plus(scratch, 0.25 * hh, qmid, qn)
    np.multiply(2.0, qmid, out=n11)
    n11 += tail
    n11 *= hh / 6.0


def _node_states(n, g, phi0, dphi0):
    """State (phi, phi') at the left node of every panel, in scan layout,
    from the increment matrices n (2, 2, L, blocks); g (2, 2, L + 1, blocks)
    is overwritten with the in-block products and then with the states,
    returned as views of g[0, 0] and g[1, 0]."""
    length, blocks = n.shape[2:]
    # g[:, :, j] = (I + N_{j-1}) ... (I + N_0) - I within each block
    g[:, :, 0] = 0.0
    t0 = np.empty((2, 2, blocks))
    t1 = np.empty((2, 2, blocks))
    for j in range(length):
        gj, nj, gn = g[:, :, j], n[:, :, j], g[:, :, j + 1]
        # G_{j+1} = G_j + N_j + (N_j[:, 0] G_j[0] + N_j[:, 1] G_j[1])
        np.add(gj, nj, out=gn)
        np.multiply(nj[:, 0, None], gj[None, 0], out=t0)
        np.multiply(nj[:, 1, None], gj[None, 1], out=t1)
        t0 += t1
        gn += t0

    # carry the block-start states s_b across the block products
    app, apd, adp, add = g[:, :, -1].reshape(4, blocks).tolist()
    sp = np.empty(blocks)
    sd = np.empty(blocks)
    p, d = float(phi0), float(dphi0)
    for b in range(blocks):
        sp[b] = p
        sd[b] = d
        p, d = p + (app[b] * p + apd[b] * d), d + (adp[b] * p + add[b] * d)

    # phi = sp + (G00 sp + G01 sd) and phi' = sd + (G10 sp + G11 sd), in place
    g = g[:, :, :-1]
    g[:, 0] *= sp
    g[:, 1] *= sd
    g[:, 0] += g[:, 1]
    g[0, 0] += sp
    g[1, 0] += sd
    return g[0, 0], g[1, 0]


def _running_sum(start: float, n0, s0, n1, s1, panels: int) -> np.ndarray:
    """start, start + inc_0, (start + inc_0) + inc_1, ... over the first
    `panels` increments inc = n0 s0 + n1 s1 (scan layout), summed in panel
    order.  The increments are formed in the output's own buffer, read in
    panel order through its transposed view; n1 is overwritten."""
    length, blocks = n0.shape
    buf = np.empty(blocks * length + 1)
    buf[0] = start
    inc = buf[1:].reshape(blocks, length).T
    np.multiply(n0, s0, out=inc)
    n1 *= s1
    inc += n1
    out = buf[: panels + 1]
    return np.cumsum(out, out=out)


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
    n, g = _scan_stacks(length, blocks)
    with np.errstate(over="ignore", invalid="ignore"):
        # the prefix stack is free until the in-block loop: three of its
        # rows take q, qm and q[1:] in scan layout, the fourth is scratch
        qi, qmid, qn, scratch = (g[a, c, :length] for a in (0, 1) for c in (0, 1))
        _increment_matrices(
            _scan_layout(qi, q[:-1]), _scan_layout(qmid, qm), _scan_layout(qn, q[1:]),
            h, n, scratch,
        )
        # padding panels take the identity step
        n[:, :, panels % length :, -1] = 0.0
        p, d = _node_states(n, g, phi0, dphi0)
        phi = _running_sum(float(phi0), n[0, 0], p, n[0, 1], d, panels)
        dphi = _running_sum(float(dphi0), n[1, 0], p, n[1, 1], d, panels)
    return phi, dphi
