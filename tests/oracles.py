"""Reference implementations of profile extrema, moduli and assemblies.

These are the one-interval, one-point forms that the array code in
``locop.profiles`` and the masked loops in ``locop.synthesis`` replaced,
and the piecewise antiderivative that integrated every piece on each call.
They evaluate each interval or probe point on its own, so the array code
is checked against an independent, obviously-correct loop.  The perturbed
identity is checked against a sparse matrix sum, the row-major window
assemblies (kernel windows and corpus Toeplitz matrices) against the
diagonal-order loops they replaced, the descent against its
earlier form with one norm formula and one subgradient per exponent, and
the left-inverse LP, which solves the dual, against the primal over L.
The square-window inverse norm and its codimension-one interior are the
two routines, one LU and one pass over the inverse each, that the shared
pass replaced, and the weighted median along v sorts every column, not
only v's support.  Both constants also have an exact reference that calls
no locop code: a Gauss-Jordan inverse in fractions of an integer window,
and brute force over every breakpoint (p = inf) or every vertex of the
hyperplane section of the l1 ball (p = 1).  An index set's duplicate check is compared against
every pair of points, and its separation constant against a count of the
points in every unit cube with point coordinates for its corner.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from locop.errors import InvariantViolation
from locop.lattice import IndexSet
from locop.matalg import LocalizedMatrix
from locop.profiles import PiecewisePolynomial, _poly_eval
from locop.stability import (_inverse_blocks, _max_l1_on_hyperplane,
                             _square_lu, _unit_solve)


def pp_interval_extrema(pp, a: float, b: float, right_open: bool = False):
    """(min, max) of a piecewise polynomial over [a, b] (or [a, b))."""
    if b < a:
        raise ValueError("empty interval")
    lo, hi = np.inf, -np.inf
    zero_right = b > pp.breaks[-1] if right_open else b >= pp.breaks[-1]
    if a < pp.breaks[0] or zero_right:
        lo, hi = 0.0, 0.0  # the zero extension is visible
    for i, c in enumerate(pp.coeffs):
        pa, pb = pp.breaks[i], pp.breaks[i + 1]
        if right_open and pa >= b:
            continue  # the piece only begins at the excluded endpoint
        s, e = max(a, pa), min(b, pb)
        if s > e or (s == e and s == pb):
            continue  # a lone overlap point belonging to the next piece
        cand = [s, e]
        if c.size > 2:
            der = c[1:] * np.arange(1, c.size)
            for r in np.roots(der[::-1]):
                if abs(r.imag) < 1e-12:
                    xr = r.real + pa
                    if s <= xr <= e:
                        cand.append(xr)
        vals = _poly_eval(c, np.asarray(cand) - pa)
        lo = min(lo, float(vals.min()))
        hi = max(hi, float(vals.max()))
    if lo is np.inf:  # interval met no piece
        lo = hi = 0.0
    return lo, hi


def pp_antiderivative(pp, x):
    """F with F' = f for a piecewise polynomial, integrating every piece up
    to its right break on each call: F at x is the sum of the pieces' full
    integrals left of x plus its own piece's antiderivative at x."""
    def piece(i, t):
        c = pp.coeffs[i]
        ic = np.concatenate([[0.0], c / np.arange(1, c.size + 1)])
        return _poly_eval(ic, np.asarray(t, dtype=float) - pp.breaks[i])
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    ints = [float(piece(i, pp.breaks[i + 1]) - piece(i, pp.breaks[i]))
            for i in range(len(pp.coeffs))]
    cum = np.concatenate([[0.0], np.cumsum(ints)])
    out = np.zeros_like(arr)
    idx = np.searchsorted(pp.breaks, arr, side="right") - 1
    mid = (idx >= 0) & (arr < pp.breaks[-1])
    out[arr >= pp.breaks[-1]] = cum[-1]
    for i in np.unique(idx[mid]):
        sel = mid & (idx == i)
        out[sel] = cum[i] + piece(i, arr[sel])
    return out


def interval_extrema(prof, a: float, b: float, right_open: bool = False):
    """(min, max) over one interval; Gaussian and exponential profiles peak
    at 0 and are monotone on each side."""
    if isinstance(prof, PiecewisePolynomial):
        return pp_interval_extrema(prof, a, b, right_open)
    cand = [a, b]
    if a < 0.0 < b:
        cand.append(0.0)
    vals = prof(np.asarray(cand))
    return float(vals.min()), float(vals.max())


def cell_sup(prof, k: int) -> float:
    """sup |f| over the unit cell [k, k + 1)."""
    mn, mx = interval_extrema(prof, float(k), float(k + 1), right_open=True)
    return max(abs(mn), abs(mx))


def modulus_of_continuity(prof, delta: float, x: float) -> float:
    """sup_{|y| <= delta} |f(x + y) - f(x)| at one point."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    mn, mx = interval_extrema(prof, x - delta, x + delta)
    fx = float(prof(x))
    return max(mx - fx, fx - mn)


def family_validate(fam, probe_per_unit: int = 64,
                    deltas=(0.5, 0.25, 0.125, 0.0625, 0.03125),
                    slack: float = 1e-9) -> dict:
    """GeneratorFamily.validate's report, one probe point at a time."""
    h = fam.envelope
    worst_env = 0.0
    worst_mod = 0.0
    for prof in fam._distinct_profiles():
        xs = fam._probe_grid(prof)
        fv = np.abs(np.asarray(prof(xs), dtype=float))
        hv = np.asarray(h(xs), dtype=float)
        worst_env = max(worst_env, float((fv - hv).max()))
        if fam.modulus is not None:
            for d in deltas:
                bound = fam.modulus(d)
                for x, hx in zip(xs, hv):
                    m = modulus_of_continuity(prof, d, float(x))
                    excess = m - bound * float(hx)
                    worst_mod = max(worst_mod, excess)
                    if excess > slack * max(1.0, m):
                        raise InvariantViolation(
                            f"modulus bound fails at x={x:.4f}, delta={d}: "
                            f"{m:.3e} > {bound * float(hx):.3e}")
    return {"envelope_excess": worst_env, "modulus_excess": worst_mod,
            "deltas": list(deltas)}


def calibrated_power(fam, deltas=(0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625),
                     probe_per_unit: int = 64) -> tuple[float, float]:
    """(C, alpha) that GeneratorFamily.calibrate_modulus fits, one probe
    point at a time."""
    needed = []
    for d in deltas:
        worst = 0.0
        for prof in fam._distinct_profiles():
            for x in fam._probe_grid(prof):
                m = modulus_of_continuity(prof, d, float(x))
                if m <= 1e-15:
                    continue
                hx = float(fam.envelope(x))
                if hx <= 1e-13:
                    raise InvariantViolation(
                        f"envelope vanishes at x={x:.4f} where the modulus is {m:.3e}")
                worst = max(worst, m / hx)
        needed.append(worst)
    needed = np.asarray(needed)
    mask = needed > 0
    X = np.stack([np.ones(mask.sum()), np.log(np.asarray(deltas)[mask])], axis=1)
    coef, *_ = np.linalg.lstsq(X, np.log(needed[mask]), rcond=None)
    alpha = float(min(max(coef[1], 1e-6), 1.0))
    return float(np.max(needed / np.asarray(deltas) ** alpha)) * (1 + 1e-9), alpha


def identity_plus(A, scale: float):
    """I + scale * A as a CSR sum, rebuilt as a LocalizedMatrix."""
    m = sp.eye(A.shape[0], format="csr") + scale * A.csr()
    coo = m.tocoo()
    return LocalizedMatrix(A.rows, A.cols, coo.row, coo.col, coo.data)


def toeplitz_matrix(sequence, window: int) -> LocalizedMatrix:
    """``corpus.toeplitz_matrix`` as a loop over the diagonals, skipping
    zero taps, with LocalizedMatrix sorting the entries into row order."""
    seq = [float(v) for v in sequence]
    if len(seq) % 2 != 1:
        raise ValueError("band sequence must have odd length (centered)")
    half = len(seq) // 2
    index = IndexSet.integer_range(0, window - 1)
    ii, jj, vv = [], [], []
    for d, v in zip(range(-half, half + 1), seq):
        if v == 0.0:
            continue
        i = np.arange(max(0, d), min(window, window + d))
        ii.extend(i.tolist())
        jj.extend((i - d).tolist())
        vv.extend([v] * i.size)
    return LocalizedMatrix(index, index, ii, jj, vv)


def window_entries_by_diagonal(op, n: int, window):
    """(i, j, value) arrays of a convolution rule's A_n listed diagonal
    after diagonal, from offset -kmax up, each diagonal in row order: the
    order in which ``kernelop._window_entries`` once emitted them, before
    it switched to row-major order."""
    from locop.kernelop import _cell_range, _offset_table
    k_lo, k_hi = _cell_range(window, n)
    ncells = k_hi - k_lo
    table = _offset_table(op, n)
    mid = table.size // 2
    kmax = min(mid, ncells - 1)
    ii, jj, vv = [], [], []
    for k in range(-kmax, kmax + 1):
        rows = np.arange(max(0, k), min(ncells, ncells + k))
        ii.append(rows)
        jj.append(rows - k)
        vv.append(np.full(rows.size, table[mid + k]))
    return np.concatenate(ii), np.concatenate(jj), np.concatenate(vv)


def _pnorm_rows(Y: np.ndarray, p: float) -> np.ndarray:
    if np.isinf(p):
        return np.abs(Y).max(axis=1)
    if p == 1.0:
        return np.abs(Y).sum(axis=1)
    if p == 2.0:
        return np.sqrt((Y * Y).sum(axis=1))
    return (np.abs(Y) ** p).sum(axis=1) ** (1.0 / p)


def descend_lp(csr, starts: np.ndarray, p: float):
    """locop._accel.descend_lp with a norm per exponent and the p = inf
    subgradient gathered from the sparse rows it picks."""
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


def left_inverse_primal(A, p: float) -> float:
    """(1 - ||LA - I||_p) / ||L||_p for the left inverse L of least p-norm,
    p in {1, inf}, from the primal LP over L = P - N with P, N >= 0: minimize
    t subject to (P - N)A = I and every column (p = 1) or row (p = inf)
    abs-sum of L at most t.  0 when A has no left inverse."""
    n, m = A.shape
    mn = m * n
    # row-major vec(L): vec(LA) = kron(I_m, A^T) vec(L)
    K = sp.kron(sp.identity(m, format="csr"), A.csr().T, format="csr")
    if p == 1.0:
        S = sp.kron(np.ones((1, m)), sp.identity(n), format="csr")
    else:
        S = sp.kron(sp.identity(m), np.ones((1, n)), format="csr")
    c_obj = np.zeros(2 * mn + 1)
    c_obj[-1] = 1.0
    A_eq = sp.hstack([K, -K, sp.csr_matrix((m * m, 1))], format="csr")
    A_ub = sp.hstack([S, S, -np.ones((S.shape[0], 1))], format="csr")
    res = linprog(c_obj, A_ub=A_ub, b_ub=np.zeros(S.shape[0]), A_eq=A_eq,
                  b_eq=np.eye(m).ravel(), bounds=(0, None), method="highs")
    if res.status == 2:
        return 0.0
    assert res.status == 0, res.message
    L = (res.x[:mn] - res.x[mn:2 * mn]).reshape(m, n)
    axis = 0 if p == 1.0 else 1
    resid = float(np.abs(L @ A.dense() - np.eye(m)).sum(axis=axis).max())
    return (1.0 - resid) / float(np.abs(L).sum(axis=axis).max())


def _inverse_norm_lower(A: LocalizedMatrix, p: float) -> float:
    """Exact lower constant 1 / ||A^-1||_p of a square matrix, p in {1, inf}.

    ||A^-1||_1 is the largest absolute column sum of A^-1 and ||A^-1||_inf
    the largest absolute row sum, i.e. the largest column sum of A^-T.  An
    exactly singular factor gives 0.
    """
    lu = _square_lu(A.shape[0], A.i, A.j, A.values)
    if lu is None:
        return 0.0
    trans = "N" if p == 1.0 else "T"
    return 1.0 / max(float(np.abs(X).sum(axis=0).max())
                     for X in _inverse_blocks(lu, A.shape[0], trans))


def _min_l1_along(U: np.ndarray, v: np.ndarray) -> np.ndarray:
    """min over t of ||U[a] + t v||_1 for every row a of U, with max |v| = 1.

    The minimum sits at the weighted median of the breakpoints -U[a, k]/v[k]
    with weights |v[k]|, sorted over every column.  A breakpoint whose
    quotient would overflow (v[k] zero or subnormal) is put at +-inf: its
    weight is too small to move the median.
    """
    w = np.abs(v)
    finite = np.abs(U) < w * 2.0 ** 1000
    R = np.copysign(np.inf, -U * v)
    np.divide(-U, v, out=R, where=finite)
    order = np.argsort(R, axis=1)
    cum = np.cumsum(w[order], axis=1)
    med = np.argmax(cum >= 0.5 * cum[:, -1:], axis=1)[:, None]
    t = np.take_along_axis(R, np.take_along_axis(order, med, axis=1), axis=1)
    return np.abs(U + t * v).sum(axis=1)


def _codim_one_lower(A: LocalizedMatrix, j: int, p: float) -> float | None:
    """Exact lower constant of a square A without column j, p in {1, inf}.

    With I the kept columns, U = A^-1[I, :] is a left inverse of A[:, I]
    and v = A^-1[j, :] spans its left null space, so the left inverses are
    exactly U + w v^T.  At p = inf (l-inf is injective) 1/lower is the
    largest over rows a of min_t ||U[a] + t v||_1; at p = 1 the range of
    A[:, I] is v's orthogonal complement, and 1/lower is the largest
    ||U y||_1 over its unit l1 ball.  Returns None when A is singular.
    """
    n = A.shape[0]
    lu = _square_lu(A.shape[0], A.i, A.j, A.values)
    if lu is None:
        return None
    if p == math.inf:
        v = _unit_solve(lu, n, j, j + 1, "T")[:, 0]
        v = v / np.abs(v).max()
        # row j of A^-1 is v itself, whose minimum is 0
        return 1.0 / max(float(_min_l1_along(X.T, v).max())
                         for X in _inverse_blocks(lu, n, "T"))
    (inv,) = _inverse_blocks(lu, n, "N")  # n <= INVERSE_BLOCK_COLS
    v = inv[j] / np.abs(inv[j]).max()
    return 1.0 / _max_l1_on_hyperplane(np.delete(inv, j, axis=0), v)


def exact_inverse(dense) -> list | None:
    """The inverse of an integer matrix as rows of Fractions, by Gauss-Jordan
    elimination, or None when it is singular."""
    n = len(dense)
    M = [[Fraction(int(x)) for x in row] + [Fraction(int(r == c)) for c in range(n)]
         for r, row in enumerate(dense)]
    for c in range(n):
        piv = next((r for r in range(c, n) if M[r][c] != 0), None)
        if piv is None:
            return None
        M[c], M[piv] = M[piv], M[c]
        M[c] = [x / M[c][c] for x in M[c]]
        for r in range(n):
            if r != c and M[r][c] != 0:
                f = M[r][c]
                M[r] = [x - f * y for x, y in zip(M[r], M[c])]
    return [row[n:] for row in M]


def exact_inverse_norm_lower(dense, p: float) -> Fraction:
    """1 / ||A^-1||_p of an integer matrix exactly, p in {1, inf}: one over
    the largest absolute column (p = 1) or row (p = inf) sum of the
    inverse; 0 when A is singular."""
    inv = exact_inverse(dense)
    if inv is None:
        return Fraction(0)
    lines = zip(*inv) if p == 1.0 else inv
    return 1 / max(sum(abs(x) for x in line) for line in lines)


def exact_codim_one_lower(dense, j: int, p: float) -> Fraction | None:
    """Exact lower constant, p in {1, inf}, of an integer matrix A without
    column j by brute force; None when A is singular.

    With U the rows of A^-1 other than j and v its row j, the left inverses
    of A without column j are U + w v^T.  At p = inf, 1/lower is the
    largest over rows a of min_t ||U[a] + t v||_1, a convex piecewise
    linear function of t, evaluated at every breakpoint.  At p = 1 the
    range is {y : v.y = 0} and 1/lower is the largest ||U y||_1 over the
    vertices of its unit l1 ball: e_i where v_i = 0, and (v_k e_i - v_i e_k)
    / (|v_i| + |v_k|) for every pair with v_i v_k != 0.
    """
    inv = exact_inverse(dense)
    if inv is None:
        return None
    v, U = inv[j], inv[:j] + inv[j + 1:]
    on = [k for k in range(len(v)) if v[k] != 0]
    if p == math.inf:
        return 1 / max(min(sum(abs(u[l] - u[k] / v[k] * v[l]) for l in range(len(v)))
                           for k in on) for u in U)
    best = max((sum(abs(u[i]) for u in U) for i in range(len(v)) if v[i] == 0),
               default=Fraction(0))
    for i, k in itertools.combinations(on, 2):
        best = max(best, sum(abs(u[i] * v[k] - u[k] * v[i]) for u in U)
                   / (abs(v[i]) + abs(v[k])))
    return 1 / best


def has_duplicate_points(pts: np.ndarray, tol: float) -> bool:
    """Whether two points agree within tol in every coordinate, pair by pair."""
    m = pts.shape[0]
    return any((np.abs(pts[a] - pts[b]) <= tol).all()
               for a in range(m) for b in range(a + 1, m))


def max_unit_cube_count(pts: np.ndarray) -> int:
    """Most points in one half-open unit cube c + [0, 1)^d.

    A cube pushed up until each lower face meets a point keeps its points,
    so corners whose coordinates are point coordinates suffice."""
    axes = [np.unique(pts[:, k]) for k in range(pts.shape[1])]
    return max(int(((pts >= c) & (pts < c + 1.0)).all(axis=1).sum())
               for c in map(np.array, itertools.product(*axes)))
