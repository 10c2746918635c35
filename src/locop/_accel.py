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


def _pnorm_rows(Y: np.ndarray, p: float) -> np.ndarray:
    if np.isinf(p):
        return np.abs(Y).max(axis=1)
    if p == 1.0:
        return np.abs(Y).sum(axis=1)
    if p == 2.0:
        return np.sqrt((Y * Y).sum(axis=1))
    return (np.abs(Y) ** p).sum(axis=1) ** (1.0 / p)


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
    p = float(p)
    t0, tmin, max_iter = 0.25, 1e-10, 5000
    C = np.array(starts, dtype=np.float64, order="C")
    C /= _pnorm_rows(C, p)[:, None]
    Y = (A @ C.T).T
    F = _pnorm_rows(Y, p)
    T = np.full(C.shape[0], t0)
    active = np.ones(C.shape[0], dtype=bool)
    for _ in range(max_iter):
        if not active.any():
            break
        idx = np.flatnonzero(active)
        Ya = Y[idx]
        if np.isinf(p):
            top = np.abs(Ya).argmax(axis=1)
            s = np.sign(Ya[np.arange(len(idx)), top])
            G = A[top, :].multiply(s[:, None]).toarray()
        elif p == 1.0:
            G = (A.T @ np.sign(Ya).T).T
        else:
            W = np.abs(Ya) ** (p - 1.0) * np.sign(Ya)
            G = (A.T @ W.T).T
        gn = np.sqrt((G * G).sum(axis=1))
        dead = gn <= 0.0
        if dead.any():
            active[idx[dead]] = False
            keep = ~dead
            idx, G, gn = idx[keep], G[keep], gn[keep]
            if idx.size == 0:
                continue
        D = G / gn[:, None]
        Ct = C[idx] - T[idx, None] * D
        Ct /= _pnorm_rows(Ct, p)[:, None]
        Yt = (A @ Ct.T).T
        Ft = _pnorm_rows(Yt, p)
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
