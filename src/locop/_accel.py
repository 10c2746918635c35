"""Projected subgradient descent for the lower stability constant.

minimize ||A c||_p over the lp unit sphere, from several starts at once.
Normalized-subgradient steps with lp-sphere retraction; the step halves on
failure, grows modestly on success, and a start terminates when the step
drops below 1e-10 or after 5000 steps.
"""

from __future__ import annotations

import numpy as np

# Name of the implementation, kept for run metadata; numpy is the only one.
BACKEND = "numpy"


def descend_lp(csr, starts: np.ndarray, p: float):
    """Run projected subgradient descent from each start.

    Parameters
    ----------
    csr : scipy.sparse.csr_matrix (n x m)
    starts : (n_starts, m) array of initial coefficient vectors
    p : norm exponent in [1, inf]

    Returns (objective values, final vectors), one row per start.
    """
    A = csr
    AT = csr.T.tocsr()  # once: A.T builds a new matrix object on every access
    p = float(p)
    t0, tmin, max_iter = 0.25, 1e-10, 5000
    C = np.array(starts, dtype=np.float64, order="C")
    C /= np.linalg.norm(C, ord=p, axis=1)[:, None]
    Y = (A @ C.T).T
    F = np.linalg.norm(Y, ord=p, axis=1)
    T = np.full(C.shape[0], t0)
    active = np.ones(C.shape[0], dtype=bool)
    for _ in range(max_iter):
        if not active.any():
            break
        idx = np.flatnonzero(active)
        Ya = Y[idx]
        if np.isinf(p):  # the sign of one largest entry per row
            W = np.zeros_like(Ya)
            rows, top = np.arange(len(idx)), np.abs(Ya).argmax(axis=1)
            W[rows, top] = np.sign(Ya[rows, top])
        else:
            W = np.abs(Ya) ** (p - 1.0) * np.sign(Ya)
        G = (AT @ W.T).T
        gn = np.linalg.norm(G, axis=1)
        dead = gn <= 0.0
        if dead.any():
            active[idx[dead]] = False
            keep = ~dead
            idx, G, gn = idx[keep], G[keep], gn[keep]
            if idx.size == 0:
                continue
        D = G / gn[:, None]
        Ct = C[idx] - T[idx, None] * D
        Ct /= np.linalg.norm(Ct, ord=p, axis=1)[:, None]
        Yt = (A @ Ct.T).T
        Ft = np.linalg.norm(Yt, ord=p, axis=1)
        acc = Ft < F[idx]
        iacc = idx[acc]
        C[iacc] = Ct[acc]
        Y[iacc] = Yt[acc]
        F[iacc] = Ft[acc]
        T[iacc] = np.minimum(T[iacc] * 1.3, t0)
        irej = idx[~acc]
        T[irej] *= 0.5
        active[T < tmin] = False
    return F, C
