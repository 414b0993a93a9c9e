"""Sequential RK4 propagation loop for phi'' = q(r) phi.

Reference for the package kernel (solvforge._kernels): one step at a time,
in the plain evaluation order of classical RK4.  The tests compare the
blocked-scan kernel against it.
"""

from __future__ import annotations

import numpy as np


def rk4_propagate(q, qm, step, phi0, dphi0):
    """March (phi, phi') across the grid with classical RK4.

    q holds q(r) at the n nodes, qm holds q at the n-1 panel midpoints.
    Returns (phi, dphi) arrays of length n.
    """
    n = q.shape[0]
    phi = np.empty(n)
    dphi = np.empty(n)
    ql = q.tolist()
    qml = qm.tolist()
    h = float(step)
    h2 = 0.5 * h
    h6 = h / 6.0
    p = float(phi0)
    d = float(dphi0)
    phi[0] = p
    dphi[0] = d
    for i in range(n - 1):
        qi = ql[i]
        qmid = qml[i]
        qn = ql[i + 1]
        k1p = d
        k1d = qi * p
        k2p = d + h2 * k1d
        k2d = qmid * (p + h2 * k1p)
        k3p = d + h2 * k2d
        k3d = qmid * (p + h2 * k2p)
        k4p = d + h * k3d
        k4d = qn * (p + h * k3p)
        p = p + h6 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        d = d + h6 * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
        phi[i + 1] = p
        dphi[i + 1] = d
    return phi, dphi
