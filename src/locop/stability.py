"""Stability-constant estimation on finite windows.

Lower constants (inf ||Ac||_p / ||c||_p) come from sigma_min at p = 2 (a
dense SVD, or a dense symmetric eigensolve widened by Weyl's bound when a
square window is symmetric up to rounding, split into two half-size solves
when the window is also centrosymmetric, as Toeplitz windows are, and
read straight off the band for a Toeplitz window given as one; or on
large localized windows a banded eigensolve of A^T A, or of
[[0, A], [A^T, 0]] when A is ill-conditioned), from the exact inverse norm
1 / ||A^-1||_p on square windows at p in {1, inf}, and from Riesz-Thorin
interpolation of those on square windows in between.  A square
window without one column (the interior of a ladder window) has an exact
constant at p in {1, inf} in closed form from the window's own inverse:
the window and its interior share one band LU and one pass over it.
A one-column window has the exact constant ||a||_p at every p.  Tall
windows at p in {1, inf} with few columns solve one linear program, the
dual of the least-norm left inverse problem, and certify the left inverse
L read from its multipliers by (1 - ||LA - I||_p) / ||L||_p; the window's
zero rows are dropped first, and a centrosymmetric window's LP is folded
to half its rows and variables, like the p = 2 centrosymmetric split.
Intermediate p and larger tall windows use a projected descent from two
deterministic starts, the p = 2 minimizer and the best column of the Gram
inverse (A^T A)^-1.  Upper constants are closed-form at p in {1, inf},
spectral at p = 2, and interpolation bounds in between.  No path draws a
random number.  Window ladders aggregate the per-window constants into
stabilization / degeneration verdicts.

Dense p = 2 windows are solved by numpy.linalg, and the closed-form sums,
column restrictions and square LUs read the matrix's COO arrays, so
importing this module loads no scipy.  Each path that needs scipy (the band
LU, band eigensolves, the linear program, the descent) imports it there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _accel
from .errors import InvariantViolation, NumericalError
from .lattice import IndexSet
from .matalg import (ENTRY_DROP_TOL, LocalizedMatrix, OffsetProfile, abs_sums,
                     group_max, vector_pnorm)

# tall windows at p in {1, inf} with at most this many columns solve the
# left-inverse LP, wider ones the descent.  The dual LP grows fast with the
# columns: on the 32-column synth windows (2 vCPUs, one BLAS thread) it
# took 0.1-1.0 s at p = inf and 0.8-14 s at p = 1, against 4-11 ms for the
# descent.
LP_MAX_COLS = 14
DENSE_EIG_CUTOFF = 1200
EPS = float(np.finfo(float).eps)
# bound m eps kappa^2 on the relative error of lambda_min(A^T A) above which
# sigma_min comes from the Jordan-Wielandt band instead of the Gram band
GRAM_MAX_REL_ERR = 1e-9
INVERSE_BLOCK_COLS = 128
# points on the torus at which convolution_stability samples a symbol
SYMBOL_GRID = 65536
# ladder verdicts: last-doubling change below STAB_TOL with a lower constant
# above POS_THRESHOLD is "stabilized"; every doubling dropping by at least
# DEGEN_DROP is "degenerating"
STAB_TOL = 0.05
POS_THRESHOLD = 0.1
DEGEN_DROP = 0.30


def normalize_p(p) -> float:
    if isinstance(p, str):
        if p.strip().lower() in ("inf", "infinity", "oo"):
            return math.inf
        p = float(p)
    p = float(p)
    if not p >= 1.0:
        raise ValueError(f"p must satisfy 1 <= p <= inf, got {p}")
    return p


@dataclass(frozen=True)
class ConstantEstimate:
    value: float
    certified: bool
    method: str


# ----------------------------------------------------------------------
# spectral helpers


def _singular_extremes(A: LocalizedMatrix) -> tuple[float, float]:
    """(sigma_min, sigma_max) of A, computed once per matrix.

    Windows within DENSE_EIG_CUTOFF, and larger ones whose bands would cost
    more than a dense solve, are solved dense: a square window symmetric up
    to rounding by ``_symmetric_singular_extremes``, any other by
    numpy's ``svd``.  The others take the extreme eigenvalues of a band
    (``_banded_singular_extremes``).  The pair is kept in ``A._cache`` next
    to ``"csr"`` and ``"band"``: the entry arrays of a LocalizedMatrix are
    write-protected, so it cannot go stale, and the lower and upper
    constants at p = 2 share one solve.
    """
    n, m = A.shape
    if m > n:
        raise ValueError("lower constant needs rows >= cols")
    ext = A._cache.get("singular_extremes")
    if ext is not None:
        return ext
    if m > DENSE_EIG_CUTOFF or n > 4 * DENSE_EIG_CUTOFF:
        ext = _banded_singular_extremes(A)
    if ext is None:
        D = A.dense()
        if n == m:
            ext = _symmetric_singular_extremes(D)
        if ext is None:
            svals = np.linalg.svd(D, compute_uv=False)
            ext = float(svals[-1]), float(svals[0])
    A._cache["singular_extremes"] = ext
    return ext


def _asymmetry_bounds(D: np.ndarray) -> tuple[float, float, bool]:
    """(asym, scale, centro) of a square D, read in blocks of rows so that
    no second n x n array is held.

    asym = sqrt(||E||_1 ||E||_inf) bounds ||E||_2 for E the strict upper
    triangle of D - D^T, and scale = sqrt(||D||_1 ||D||_inf) bounds ||D||_2.
    centro says whether n is even and the symmetric S with D's lower
    triangle equals J S J (J the reversal), that is D[i, j] ==
    D[n-1-j, n-1-i] for every i >= j, as every Toeplitz window does.
    """
    n = D.shape[0]
    e_rows, e_cols, d_rows, d_cols = np.zeros((4, n))
    buf = np.empty((min(n, INVERSE_BLOCK_COLS), n))
    flip = D[::-1, ::-1].T  # flip[i, j] = D[n-1-j, n-1-i]
    centro = n % 2 == 0
    for lo in range(0, n, INVERSE_BLOCK_COLS):
        rows = D[lo:lo + INVERSE_BLOCK_COLS]
        hi = lo + len(rows)
        blk = np.abs(rows, out=buf[:len(rows)])
        d_rows[lo:hi] = blk.sum(axis=1)
        d_cols += blk.sum(axis=0)
        lower = np.tri(*blk.shape, lo, dtype=bool)  # column <= row
        if centro:
            centro = not (np.not_equal(rows, flip[lo:hi]) & lower).any()
        np.subtract(rows, D[:, lo:hi].T, out=blk)
        blk[lower] = 0.0  # keep column > row
        np.abs(blk, out=blk)
        e_rows[lo:hi] = blk.sum(axis=1)
        e_cols += blk.sum(axis=0)
    return (math.sqrt(e_cols.max() * e_rows.max()),
            math.sqrt(d_cols.max() * d_rows.max()), centro)


def _symmetric_singular_extremes(D: np.ndarray) -> tuple[float, float] | None:
    """(sigma_min, sigma_max) of a square D from eigenvalue solves of its
    lower triangle S, or None when D is not symmetric to rounding level.

    D = S + E with E the strict upper triangle of D - D^T.  The solve runs
    only when asym, which bounds ||E||_2, is at most eps times a bound on
    ||D||_2 (see ``_asymmetry_bounds``); ``_lower_triangle_extremes`` then
    solves and widens.
    """
    asym, scale, centro = _asymmetry_bounds(D)
    if asym > EPS * scale:
        return None
    return _lower_triangle_extremes(D, asym, centro)


def toeplitz_singular_extremes(band, n: int) -> tuple[float, float] | None:
    """(sigma_min, sigma_max) of the n x n Toeplitz window T[i, j] =
    band[mid + i - j] (zero for |i - j| > mid, mid = len(band) // 2), read
    off the band: the pair ``_singular_extremes`` gives T, or None where it
    takes another path (n above DENSE_EIG_CUTOFF, a band that is not finite,
    or a T that is not symmetric to rounding level).

    ``_asymmetry_bounds`` of T in O(n): with a_d = |band[mid - d] -
    band[mid + d]|, row 0 and column n - 1 of E hold every a_d for 1 <= d
    <= min(mid, n - 1) and every other row and column a subset, so asym =
    ||E||_1 = ||E||_inf = the sum of those a_d; each row and column of T
    holds n consecutive offsets, so scale is the largest sum of n
    consecutive |band| entries; and T is persymmetric, so the split applies
    whenever n is even.  T itself is a read-only strided view of the padded
    band, never an n x n array.
    """
    band = np.asarray(band, dtype=np.float64)
    if band.size % 2 != 1:
        raise ValueError("Toeplitz band must have odd length (centered)")
    if n > DENSE_EIG_CUTOFF or not np.isfinite(band).all():
        return None
    mid = band.size // 2
    k = min(mid, n - 1)
    # padded[t] is the entry at offset t - (n - 1), for every offset in T
    padded = np.zeros(2 * n - 1)
    padded[n - 1 - k:n + k] = band[mid - k:mid + k + 1]
    # row 0 of E: a_d at column d, as _asymmetry_bounds sums it
    asym = float(np.abs(padded[n - 1:] - padded[n - 1::-1]).sum())
    sums = np.cumsum(np.abs(padded))
    scale = float(np.max(sums[n - 1:] - np.concatenate(([0.0], sums[:n - 1]))))
    if asym > EPS * scale:
        return None
    T = np.lib.stride_tricks.sliding_window_view(padded, n)[:, ::-1]
    return _lower_triangle_extremes(T, asym, n % 2 == 0)


def _lower_triangle_extremes(D, asym: float, centro: bool) -> tuple[float, float]:
    """(sigma_min, sigma_max) of a square D within asym of the symmetric S
    with D's lower triangle, from eigenvalue solves of S.  D may be any
    array or strided view; centro says that n = 2h and J S J = S (J the
    reversal).

    By Weyl, |sigma_i(D) - sigma_i(S)| <= ||E||_2 <= asym, and the singular
    values of S are |lambda|, so the pair is widened by asym (0 for an
    exactly symmetric D) and stays certified.  numpy copies its argument
    into one Fortran-ordered work array for LAPACK.

    A centrosymmetric S is orthogonally similar, by Q = [[I, I], [J, -J]] /
    sqrt(2), to the direct sum of B+- = S11 +- S12 J, so its eigenvalues
    are those of two h x h solves at a quarter of the cost each.  In D's
    terms B+-[i, j] = D[i, j] +- D[n-1-j, i] for i >= j.  Each entry of B+-
    is rounded once, by at most eps/2 |B+-[i, j]|, so fl(B+-) - B+- has
    2-norm at most eps/2 times the largest absolute row sum of the
    symmetric B+-; the widening adds eps times that sum, which also covers
    the rounding of the sum.  The split holds one h x h matrix, its
    absolute values and the work copy next to D; any other S takes one
    n x n solve, which holds a work copy of the window.
    """
    if not centro:
        lam = np.abs(np.linalg.eigvalsh(D, UPLO="L"))
        return max(float(lam.min()) - asym, 0.0), float(lam.max()) + asym
    h = D.shape[0] // 2
    top, bottom = D[:h, :h], D[::-1, :h][:h].T  # bottom[i, j] = D[n-1-j, i]
    lower = np.tri(h, dtype=bool)
    mags = np.empty((h, h))
    lo, hi, row_sum = math.inf, 0.0, 0.0
    for combine in (np.add, np.subtract):
        B = combine(top, bottom)  # its upper triangle is not read
        np.multiply(np.abs(B, out=mags), lower, out=mags)
        row_sum = max(row_sum, float((mags.sum(axis=1) + mags.sum(axis=0)
                                      - mags.diagonal()).max()))
        lam = np.abs(np.linalg.eigvalsh(B, UPLO="L"))
        lo, hi = min(lo, float(lam.min())), max(hi, float(lam.max()))
    widen = asym + EPS * row_sum
    return max(lo - widen, 0.0), hi + widen


def _dense_svd_cheaper(n: int, m: int, size: int, bw: int, calls: int) -> bool:
    """Whether LAPACK's flop counts favour a dense SVD of an n x m matrix
    (4 n m^2 - 4 m^3 / 3) over ``calls`` eigenvalue solves of a symmetric
    band of the given size and bandwidth (dsbtrd: 6 size^2 bw each)."""
    return 4.0 * n * m * m - 4.0 * m ** 3 / 3.0 <= calls * 6.0 * size * size * bw


def _row_spans(n: int, i, j) -> tuple[np.ndarray, np.ndarray]:
    """(first, last) column of each of n rows, read off COO arrays in any
    order; an empty row spans (n, -1).  The widest span is the bandwidth of
    A^T A, read before the product is formed."""
    first, last = np.full(n, n), np.full(n, -1)
    np.minimum.at(first, i, j)
    np.maximum.at(last, i, j)
    return first, last


def _lower_band(mat) -> np.ndarray:
    """Lower-form banded storage ab[r - c, c] of a sparse symmetric matrix."""
    import scipy.sparse as sp
    low = sp.tril(mat).tocoo()
    ab = np.zeros((int((low.row - low.col).max(initial=0)) + 1, mat.shape[0]))
    ab[low.row - low.col, low.col] = low.data
    return ab


def _band_eigenvalue(ab: np.ndarray, k: int) -> float:
    """The k-th smallest eigenvalue (from 0) of a lower-form symmetric band."""
    import scipy.linalg
    return float(scipy.linalg.eigvals_banded(ab, lower=True, select="i",
                                             select_range=(k, k))[0])


def _banded_singular_extremes(A: LocalizedMatrix) -> tuple[float, float] | None:
    """(sigma_min, sigma_max) from eigenvalues of symmetric bands, or None
    when a dense SVD of A costs fewer flops.

    Both come from the Gram matrix A^T A, whose band is as narrow as A's
    rows.  Its eigensolve errs by about m eps lambda_max, so sigma_min keeps
    its digits only while m eps kappa^2 is below GRAM_MAX_REL_ERR; otherwise
    it is minus the (m-1)-th smallest eigenvalue of the Jordan-Wielandt
    matrix [[0, A], [A^T, 0]] (eigenvalues +-sigma and n - m zeros), whose
    error eps sigma_max does not square kappa.  Reverse Cuthill-McKee order
    interleaves its row and column indices into a narrow band.
    """
    n, m = A.shape
    first, last = _row_spans(n, A.i, A.j)
    if _dense_svd_cheaper(n, m, m, int((last - first).max(initial=0)), 2):
        return None
    ab = _lower_band(A.csr().T @ A.csr())
    lam_min, lam_max = _band_eigenvalue(ab, 0), _band_eigenvalue(ab, m - 1)
    smax = math.sqrt(max(lam_max, 0.0))
    if lam_min > 0.0 and m * np.finfo(float).eps * lam_max < GRAM_MAX_REL_ERR * lam_min:
        return math.sqrt(lam_min), smax
    import scipy.sparse as sp
    from scipy.sparse.csgraph import reverse_cuthill_mckee
    jw = sp.bmat([[None, A.csr()], [A.csr().T, None]], format="csr")
    order = reverse_cuthill_mckee(jw, symmetric_mode=True)
    ab = _lower_band(jw[order][:, order])
    if _dense_svd_cheaper(n, m, n + m, ab.shape[0] - 1, 1):
        return None
    return -_band_eigenvalue(ab, m - 1), smax


def _min_singular_vector(A: LocalizedMatrix) -> np.ndarray:
    import scipy.linalg
    n, m = A.shape
    if m <= DENSE_EIG_CUTOFF:
        G = (A.csr().T @ A.csr()).toarray()
        w, V = scipy.linalg.eigh(G)
        return V[:, 0]
    _, V = scipy.linalg.eig_banded(_lower_band(A.csr().T @ A.csr()), lower=True,
                                   select="i", select_range=(0, 0))
    return V[:, 0]


# ----------------------------------------------------------------------
# exact square windows and their interiors at p = 1 and p = inf


def _square_lu(n: int, i, j, values):
    """LAPACK band LU of the n x n matrix with COO entries (i, j, values), a
    window or a Gram matrix, as solve(rhs, trans); None at an exactly zero
    pivot, where the matrix is singular.

    It factors B = PA, A's rows in (first column, last column) order, which
    puts a row-permuted banded window back in its own band and changes no
    l^p norm.  solve answers for A, in the Fortran order LAPACK returns:
    A^-1 b = B^-1 (P b) and A^-T b = P^T (B^-T b).
    """
    from scipy.linalg.lapack import dgbtrf, dgbtrs
    order = np.lexsort(_row_spans(n, i, j)[::-1])
    d = np.argsort(order)[i] - j  # each entry's row in B, less its column
    kl, ku = int(d.max(initial=0)), int(-d.min(initial=0))
    ab = np.zeros((2 * kl + ku + 1, n), order="F")
    ab[kl + ku + d, j] = values
    lu, piv, info = dgbtrf(ab, kl, ku, overwrite_ab=True)

    def solve(rhs, trans):
        if trans == "N":
            return dgbtrs(lu, kl, ku, rhs[order], piv)[0]
        y = dgbtrs(lu, kl, ku, rhs, piv, trans=1)[0]
        x = np.empty_like(y)  # Fortran-ordered, as LAPACK returns y
        x[order] = y
        return x
    return None if info > 0 else solve


def _unit_solve(lu, n: int, lo: int, hi: int, trans: str) -> np.ndarray:
    """Columns lo..hi-1 of A^-1 (trans "N") or of A^-T (trans "T": rows of
    A^-1), solved against a block of unit vectors."""
    X = lu(np.eye(n, hi - lo, k=-lo), trans)
    if not np.isfinite(X).all():
        raise NumericalError("inverse-norm solve produced non-finite values")
    return X


def _inverse_blocks(lu, n: int, trans: str):
    """All of A^-1 or A^-T in blocks of INVERSE_BLOCK_COLS columns, so no
    dense n x n inverse or identity is ever held."""
    for lo in range(0, n, INVERSE_BLOCK_COLS):
        yield _unit_solve(lu, n, lo, min(lo + INVERSE_BLOCK_COLS, n), trans)


def _min_l1_along(U: np.ndarray, v: np.ndarray) -> np.ndarray:
    """min over t of ||U[a] + t v||_1 for every row a of U, with max |v| = 1.

    The minimum sits at the weighted median of the breakpoints -U[a, k]/v[k]
    with weights |v[k]|.  Only the support of v is sorted: a zero weight
    adds exactly 0.0 to the cumulative sum, so it can neither move the
    median nor change its float, and the inverse rows of a banded window
    leave many entries of v exactly zero.  The norm at the median still
    sums over every column.  A breakpoint whose quotient would overflow
    (v[k] subnormal) is put at +-inf: its weight is too small to move the
    median.
    """
    on = np.flatnonzero(v)
    Uon, von = U[:, on], v[on]
    w = np.abs(von)
    finite = np.abs(Uon) < w * 2.0 ** 1000
    R = np.copysign(np.inf, -Uon * von)
    np.divide(-Uon, von, out=R, where=finite)
    order = np.argsort(R, axis=1)
    cum = np.cumsum(w[order], axis=1)
    med = np.argmax(cum >= 0.5 * cum[:, -1:], axis=1)[:, None]
    t = np.take_along_axis(R, np.take_along_axis(order, med, axis=1), axis=1)
    return np.abs(U + t * v).sum(axis=1)


def _max_l1_on_hyperplane(U: np.ndarray, v: np.ndarray) -> float:
    """max ||U y||_1 over {y : v.y = 0, ||y||_1 <= 1}.

    A convex function peaks at a vertex: +-e_i where v_i = 0, and for every
    pair v_i v_j != 0 the point (v_j e_i - v_i e_j) / (|v_i| + |v_j|).  The
    pair weights are ratios of |v| formed before they touch U, so subnormal
    entries of v cannot carry a vertex outside the l1 ball.
    """
    on = v != 0
    best = float(np.abs(U[:, ~on]).sum(axis=0).max(initial=0.0))
    W = U[:, on] * np.sign(v[on])
    a = np.abs(v[on])
    for i in range(a.size - 1):
        pair = a[i] + a[i + 1:]
        Y = W[:, i:i + 1] * (a[i + 1:] / pair) - W[:, i + 1:] * (a[i] / pair)
        best = max(best, float(np.abs(Y).sum(axis=0).max()))
    return best


def _square_inverse_lower(A: LocalizedMatrix, p: float,
                          j: int | None = None) -> tuple[float, float | None]:
    """Exact lower constants, p in {1, inf}, of a square A and, given j, of
    A without column j, from one band LU and one pass over A^-1 (p = 1)
    or A^-T (p = inf) in blocks.

    A's constant is 1 / ||A^-1||_p, the largest absolute column sum of A^-1
    (p = 1) or of A^-T (p = inf).  It is kept as a float in ``A._cache``,
    so a ladder's interior, computed first, leaves it for the window; no
    factor or block is kept.  A zero pivot gives (0.0, None).

    With I the kept columns, U = A^-1[I, :] is a left inverse of A[:, I]
    and v = A^-1[j, :] spans its left null space, so the left inverses are
    exactly U + w v^T.  At p = inf (l-inf is injective) 1/lower is the
    largest over rows a of min_t ||U[a] + t v||_1; at p = 1 the range of
    A[:, I] is v's orthogonal complement, and 1/lower is the largest
    ||U y||_1 over its unit l1 ball, read while one block holds all of A^-1.
    """
    key = ("inverse_norm_lower", p)
    if j is None and key in A._cache:
        return A._cache[key], None
    n = A.shape[0]
    lu = _square_lu(n, A.i, A.j, A.values)
    if lu is None:
        A._cache[key] = 0.0
        return 0.0, None
    if j is not None and p == math.inf:
        v = _unit_solve(lu, n, j, j + 1, "T")[:, 0]
        v = v / np.abs(v).max()
    norm = inner = 0.0
    for X in _inverse_blocks(lu, n, "N" if p == 1.0 else "T"):
        norm = max(norm, float(np.abs(X).sum(axis=0).max()))
        if j is not None and p == math.inf:
            # row j of A^-1 is v itself, whose minimum is 0
            inner = max(inner, float(_min_l1_along(X.T, v).max()))
    if j is not None and p == 1.0:  # X is all of A^-1 (n <= INVERSE_BLOCK_COLS)
        v = X[j] / np.abs(X[j]).max()
        inner = _max_l1_on_hyperplane(np.delete(X, j, axis=0), v)
    A._cache[key] = 1.0 / norm
    return 1.0 / norm, None if j is None else 1.0 / inner


# ----------------------------------------------------------------------
# small tall windows at p = 1 and p = inf


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported at its first call.

    scipy.optimize, and the scipy.spatial it loads, would add about 0.08 s
    to every cold start, and only the left-inverse LP needs it.  It stays a
    module-level name so that tests and tracers can patch it.
    """
    from scipy.optimize import linprog as scipy_linprog
    return scipy_linprog(*args, **kwargs)


def _left_inverse(A: LocalizedMatrix, p: float) -> np.ndarray | None:
    """The left inverse L (m x n, columns in A's row order) of least
    ||L||_p, p in {1, inf}, read from the multipliers of one linear
    program; None when A has no left inverse.

    Every left inverse L (LA = I) gives ||c||_p <= ||L||_p ||Ac||_p, and
    the least ||L||_p, the largest column (p = 1) or row (p = inf) abs-sum
    of L, is by LP duality the optimum of

        max tr(Y)  s.t.  |(Y a_j)_k| <= s_g,  sum_g s_g <= 1,  s >= 0

    over free Y (m x m), with a_j row j of A and g the column j (p = 1) or
    the row k (p = inf) of L that (j, k) belongs to.  It has m^2 + n (or
    m^2 + m) variables where the primal over L = P - N has 2mn + 1.  The
    multipliers mu+ and mu- of the two |.| <= s rows of (j, k) give
    L[k, j] = mu+ - mu-.  Y = 0 is feasible, so an unbounded LP means A
    has no left inverse.

    A's zero rows are dropped first: their columns of L are 0 and the
    optimum does not change.  When the rest, B, is centrosymmetric (B = J B
    J exactly, J the order reversal, as synthesis windows are), the LP is
    invariant under vec(Y) index t -> m^2 - 1 - t (Y -> J Y J), s_g ->
    s_(G-1-g) and row (j, k) -> (n-1-j, m-1-k) within each +- block.  It is
    convex, so it has a mirror-invariant optimum, and it is solved folded
    to the invariant points, like the p = 2 centrosymmetric split: one
    variable per mirror orbit, with the coefficients of mirrored columns
    summed, and one row per mirrored pair of rows.  Each row of a pair
    takes half the folded multiplier (a row that is its own mirror all of
    it), which satisfies the full LP's dual and so is optimal for it; L =
    J L J exactly.  Any other B takes the full LP: every mirror below is the
    identity.
    """
    import scipy.sparse as sp
    m = A.shape[1]
    # the nonzero rows: stored entries are nonzero
    rows, i = np.unique(A.i, return_inverse=True)
    n = rows.size
    B = np.zeros((n, m))
    B[i, A.j] = A.values
    centro = np.array_equal(B, B[::-1, ::-1])

    def mirror(size: int) -> tuple[np.ndarray, int]:
        """Each index's orbit under the mirror, numbered 0, 1, ... from the
        low end, and the number of orbits."""
        t = np.arange(size)
        if not centro:
            return t, size
        return np.minimum(t, size - 1 - t), (size + 1) // 2

    groups = n if p == 1.0 else m
    y_orbit, ny = mirror(m * m)
    s_orbit, ns = mirror(groups)
    r_orbit, nr = mirror(m * n)
    # entry (j, c) of B gives (Y a_j)_k its coefficient at row j * m + k and
    # vec(Y) column c * m + k (column-major); row r is kept when it is its
    # orbit's first, r < nr, and s_g is column ny + orbit of g
    k = np.arange(m)
    r = (i[:, None] * m + k).ravel()
    t = (A.j[:, None] * m + k).ravel()
    v = np.repeat(A.values, m)
    keep = r < nr
    r, t, v = r[keep], y_orbit[t[keep]], v[keep]
    own = np.arange(nr)
    g = ny + s_orbit[own // m if p == 1.0 else own % m]
    A_ub = sp.csr_matrix(
        (np.concatenate([v, -v, -np.ones(2 * nr), np.ones(groups)]),
         (np.concatenate([r, r + nr, own, own + nr, np.full(groups, 2 * nr)]),
          np.concatenate([t, t, g, g, ny + s_orbit]))),
        shape=(2 * nr + 1, ny + ns))
    b_ub = np.zeros(2 * nr + 1)
    b_ub[-1] = 1.0
    c_obj = np.zeros(ny + ns)
    c_obj[:ny] = -np.bincount(y_orbit[k * (m + 1)], minlength=ny)
    bounds = [(None, None)] * ny + [(0, None)] * ns
    res = linprog(c_obj, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    # scipy reports HiGHS's "unbounded or infeasible" as status 4
    if res.status == 3 or (res.status == 4 and "unbounded or infeasible" in res.message):
        return None
    if res.status != 0:
        raise NumericalError(f"left-inverse linear program failed: {res.message}")
    # the marginals of a minimization's <= rows are the multipliers negated;
    # each orbit's multiplier is shared evenly by its rows
    mu = res.ineqlin.marginals[nr:2 * nr] - res.ineqlin.marginals[:nr]
    L = np.zeros((m, A.shape[0]))
    L[:, rows] = (mu[r_orbit] / np.bincount(r_orbit)[r_orbit]).reshape(n, m).T
    return L


def _left_inverse_lower(A: LocalizedMatrix, p: float) -> float:
    """Lower constant (1 - ||LA - I||_p) / ||L||_p, with L the left inverse
    of ``_left_inverse``: one linear program, on a centrosymmetric window
    (once its zero rows are dropped) folded to half its rows and variables.

    At p = inf the least ||L||_p is exactly 1 / (lower constant), since l-inf
    is injective; at p = 1 it gives a certified lower bound.  The solver's
    residual LA - I, against the whole window, counts against the bound, so
    a bad solve raises NumericalError instead of certifying.  A window with
    no left inverse has constant 0.
    """
    L = _left_inverse(A, p)
    if L is None:
        return 0.0
    axis = 0 if p == 1.0 else 1
    resid = float(np.abs(L @ A.dense() - np.eye(A.shape[1])).sum(axis=axis).max())
    if not resid < 1.0:
        raise NumericalError(
            f"left-inverse linear program residual {resid:.3e} is not below 1")
    return (1.0 - resid) / float(np.abs(L).sum(axis=axis).max())


# ----------------------------------------------------------------------
# descent from two deterministic starts


def _gram_inverse_start(A: LocalizedMatrix, p: float) -> np.ndarray | None:
    """The column x of (A^T A)^-1 with the least ||Ax||_p / ||x||_p.

    Ax is a row of the pseudo-inverse A^+ = (A^T A)^-1 A^T, whose rows are
    localized like those of any good left inverse.  Columns come from the
    Gram matrix's band LU in blocks, so no dense m x m inverse is held.
    None when the Gram matrix is singular, or so near it that its inverse
    overflows.
    """
    csr = A.csr()
    G = (csr.T @ csr).tocoo()
    lu = _square_lu(A.shape[1], G.row, G.col, G.data)
    if lu is None:
        return None
    best, start = math.inf, None
    try:
        for X in _inverse_blocks(lu, A.shape[1], "N"):
            ratio = (np.linalg.norm(csr @ X, ord=p, axis=0)
                     / np.linalg.norm(X, ord=p, axis=0))
            k = int(np.argmin(ratio))
            if ratio[k] < best:
                best, start = ratio[k], X[:, k]
    except NumericalError:
        return None
    return start


def _multistart_lower(A: LocalizedMatrix, p: float) -> float:
    """Upper estimate of the lower constant: the least ||Ac||_p / ||c||_p
    the descent reaches from the p = 2 minimizer and from the best column
    of the Gram inverse."""
    starts = [_min_singular_vector(A), _gram_inverse_start(A, p)]
    F, _ = _accel.descend_lp(A.csr(), np.array([s for s in starts if s is not None]), p)
    return float(np.min(F))


# ----------------------------------------------------------------------
# the two constants


def _riesz_thorin(p: float, at_end: float, at_2: float) -> float:
    """Riesz-Thorin interpolation of an operator norm bound at exponent p.

    ``at_end`` is the bound at p = 1 when p < 2 and at p = inf when p > 2.
    It serves the upper constant (norms of A) and the lower constant of a
    square matrix (reciprocal norms of A^-1) alike.
    """
    if p < 2.0:
        theta = 2.0 / p - 1.0  # 1/p = theta/1 + (1-theta)/2
        return float(at_end ** theta * at_2 ** (1.0 - theta))
    theta = 2.0 / p  # 1/p = theta/2
    return float(at_2 ** theta * at_end ** (1.0 - theta))


def lower_constant(A: LocalizedMatrix, p) -> ConstantEstimate:
    """inf ||Ac||_p / ||c||_p over nonzero coefficient vectors.

    Certified: one column at every p (``column-norm``), p = 2
    (``singular-value``), square windows at p in {1, inf}
    (``inverse-norm``), square windows at other p (``interpolation-bound``)
    and tall windows at p in {1, inf} with at most LP_MAX_COLS columns
    (``left-inverse-lp``).  Other tall windows use the multistart descent
    and report an uncertified upper bound on the infimum.
    """
    p = normalize_p(p)
    n, m = A.shape
    if m == 0 or n == 0:
        raise ValueError("empty index set")
    if n < m:
        raise ValueError("lower constant needs rows >= cols")
    if A.nnz == 0:
        return ConstantEstimate(0.0, True, "zero-matrix")
    if m == 1:
        # Ac = c a, so ||Ac||_p / |c| is ||a||_p for every c
        return ConstantEstimate(vector_pnorm(A.values, p), True, "column-norm")
    if p == 2.0:
        smin, _ = _singular_extremes(A)
        return ConstantEstimate(smin, True, "singular-value")
    if n == m:
        if p in (1.0, math.inf):
            return ConstantEstimate(_square_inverse_lower(A, p)[0], True,
                                    "inverse-norm")
        smin, _ = _singular_extremes(A)
        end, _ = _square_inverse_lower(A, 1.0 if p < 2.0 else math.inf)
        return ConstantEstimate(_riesz_thorin(p, end, smin), True,
                                "interpolation-bound")
    if p in (1.0, math.inf) and m <= LP_MAX_COLS:
        return ConstantEstimate(_left_inverse_lower(A, p), True, "left-inverse-lp")
    return ConstantEstimate(_multistart_lower(A, p), False, "multistart")


def upper_constant(A: LocalizedMatrix, p) -> ConstantEstimate:
    """sup ||Ac||_p / ||c||_p (the induced p-norm, or a certified bound).

    Exact at p in {1, 2, inf} and for one column at every p
    (``column-norm``); Riesz-Thorin interpolation against the neighboring
    exact exponents otherwise (certified upper bound).
    """
    p = normalize_p(p)
    if A.nnz == 0:
        return ConstantEstimate(0.0, True, "zero-matrix")
    if A.shape[1] == 1:
        # Ac = c a, so ||Ac||_p / |c| is ||a||_p for every c
        return ConstantEstimate(vector_pnorm(A.values, p), True, "column-norm")
    if p == 2.0:
        return ConstantEstimate(_singular_extremes(A)[1], True, "singular-value")
    row_sums, col_sums = abs_sums(A)
    col_sum = float(col_sums.max(initial=0.0))
    row_sum = float(row_sums.max(initial=0.0))
    if p == 1.0:
        return ConstantEstimate(col_sum, True, "column-sums")
    if p == math.inf:
        return ConstantEstimate(row_sum, True, "row-sums")
    _, n2 = _singular_extremes(A)
    bound = _riesz_thorin(p, col_sum if p < 2.0 else row_sum, n2)
    return ConstantEstimate(bound, True, "interpolation-bound")


def interior_column_indices(A: LocalizedMatrix, margin: float) -> np.ndarray:
    """Columns whose points keep the given margin to the column window."""
    pts = A.cols.points
    win = A.cols.window
    ok = np.ones(len(A.cols), dtype=bool)
    for ax in range(A.dim):
        ok &= (pts[:, ax] >= win[ax, 0] + margin) & (pts[:, ax] <= win[ax, 1] - margin)
    return np.flatnonzero(ok)


def lower_constant_interior(A: LocalizedMatrix, p) -> ConstantEstimate | None:
    """Lower constant with test vectors supported away from the window edge.

    Edge columns see truncated rows and can fake degeneracy; restricting
    the support by the matrix band width removes that artifact.  Returns
    None when no interior columns remain.  A nonsingular square window that
    loses exactly one column gets the exact ``codim-one`` constant at
    p = inf, and at p = 1 while one solve block holds its inverse; every
    other interior goes to ``lower_constant``.
    """
    p = normalize_p(p)
    idx = interior_column_indices(A, A.band())
    if idx.size == 0:
        return None
    n, m = A.shape
    if (n == m == idx.size + 1
            and (p == math.inf or (p == 1.0 and n <= INVERSE_BLOCK_COLS))):
        j = int(np.setdiff1d(np.arange(m), idx)[0])
        _, value = _square_inverse_lower(A, p, j)
        if value is not None:
            return ConstantEstimate(value, True, "codim-one")
    return lower_constant(A.restrict_cols(idx), p)


# ----------------------------------------------------------------------
# window ladders


@dataclass(frozen=True)
class WindowEntry:
    """Lower and upper constants of one window at one exponent.  Each
    operator class subclasses it with its own labels; the fields are the
    report entry's keys."""

    window: int | float
    lower: float
    upper: float
    lower_certified: bool
    upper_certified: bool
    method: str

    def __post_init__(self):
        if self.lower > self.upper * (1 + 1e-9) + 1e-300:
            raise ValueError("lower constant exceeds upper constant")

    @classmethod
    def of(cls, A: LocalizedMatrix, p: float, window, scale: float = 1.0,
           **labels):
        """The entry of window A, both constants multiplied by ``scale``."""
        lo, hi = lower_constant(A, p), upper_constant(A, p)
        return cls(window, lo.value * scale, hi.value * scale, lo.certified,
                   hi.certified, lo.method, **labels)


@dataclass(frozen=True)
class LadderEntry(WindowEntry):
    """A prefix window's entry with its interior lower constant."""

    interior_lower: float | None
    interior_certified: bool | None
    interior_method: str | None


@dataclass(frozen=True)
class StabilityReport:
    """Constants along one window ladder at a fixed exponent."""

    p: float
    entries: list[WindowEntry]
    verdict: str


def ladder_verdict(lowers: list[float]) -> str:
    """Classify a sequence of lower constants along doubling windows."""
    if len(lowers) < 2:
        return "undetermined"
    ratios = [b / a if a > 0 else 0.0 for a, b in zip(lowers, lowers[1:])]
    if len(ratios) >= 2 and all(r <= 1.0 - DEGEN_DROP for r in ratios):
        return "degenerating"
    last_rel = abs(lowers[-1] - lowers[-2]) / max(abs(lowers[-2]), 1e-300)
    if last_rel < STAB_TOL and lowers[-1] > POS_THRESHOLD:
        return "stabilized"
    return "undetermined"


def check_window_sizes(windows, limit=None) -> list:
    """A ladder of window sizes or scales as a list; ValueError unless it is
    non-empty, strictly increasing and, when ``limit`` is given, within
    [1, limit].  A repeated or descending ladder would otherwise pass for a
    stabilized one."""
    windows = list(windows)
    if not windows:
        raise ValueError("empty ladder")
    if any(b <= a for a, b in zip(windows, windows[1:])):
        raise ValueError(f"ladder must be strictly increasing: {windows}")
    if limit is not None and (windows[0] < 1 or windows[-1] > limit):
        raise ValueError(f"window sizes must lie in [1, {limit}]: {windows}")
    return windows


def _prefix_windows(A: LocalizedMatrix, windows) -> list[LocalizedMatrix]:
    """The leading w x w windows of A, for strictly increasing sizes w in
    [1, min(A.shape)]: a ladder nested by construction."""
    return [A.window_prefix(w, w) for w in check_window_sizes(windows, min(A.shape))]


def _ladder(windows: list[LocalizedMatrix], p: float) -> StabilityReport:
    entries = []
    for W in windows:
        inner = (lower_constant_interior(W, p)
                 or ConstantEstimate(None, None, None))
        entries.append(LadderEntry.of(W, p, W.shape[1], interior_lower=inner.value,
                                      interior_certified=inner.certified,
                                      interior_method=inner.method))
    return StabilityReport(p, entries, ladder_verdict([e.lower for e in entries]))


@dataclass(frozen=True)
class EquivalenceReport:
    ps: list[float]
    per_p: dict
    verdicts: dict
    consistent: bool
    counterexample_candidates: list


def equivalence_report(A: LocalizedMatrix, ps, window_sizes) -> EquivalenceReport:
    """Cross-exponent comparison of the ladders of A's leading windows.

    Exponents whose constants stabilize while another degenerates are
    flagged as counterexample candidates rather than silently averaged.  An
    exponent that repeats after ``normalize_p`` (2 and 2.0, inf and "oo") is
    a ValueError: ``per_p`` would hold one ladder for two entries of ``ps``.
    """
    ps = [normalize_p(p) for p in ps]
    if len(set(ps)) < len(ps):
        raise ValueError(f"exponent list repeats an exponent: {ps}")
    windows = _prefix_windows(A, window_sizes)
    per_p = {p: _ladder(windows, p) for p in ps}
    verdicts = {p: rep.verdict for p, rep in per_p.items()}
    kinds = set(verdicts.values())
    candidates = []
    if "stabilized" in kinds and "degenerating" in kinds:
        stab = [p for p, v in verdicts.items() if v == "stabilized"]
        degen = [p for p, v in verdicts.items() if v == "degenerating"]
        candidates = [{"stabilized_p": "inf" if math.isinf(a) else a,
                       "degenerating_p": "inf" if math.isinf(b) else b}
                      for a in stab for b in degen]
    return EquivalenceReport(ps, per_p, verdicts, consistent=not candidates,
                             counterexample_candidates=candidates)


# ----------------------------------------------------------------------
# convolution symbols


@dataclass(frozen=True)
class SymbolCertificate:
    grid_size: int
    grid_min: float
    argmin: float
    lipschitz_bound: float
    certified_min_interval: tuple[float, float]
    sign_change: bool
    real_symbol: bool
    verdict: str


def convolution_stability(offsets, values,
                          grid_size: int = SYMBOL_GRID) -> SymbolCertificate:
    """Certify min |sum_j a(j) e^{-i j xi}| over the torus from a fine grid.

    The symbol derivative is bounded by L = sum |a(j)| |j|, so the true
    minimum lies within L*h/2 of the grid minimum (h the grid spacing).
    Verdicts: ``stable`` when the certified interval excludes zero,
    ``unstable`` when a real-symbol sign change or a grid minimum below
    1e-9 max(1, sum |a(j)|) confirms a zero, else ``undetermined: refine
    grid``.
    """
    offs = np.asarray(offsets, dtype=np.int64).reshape(-1)
    vals = np.asarray(values, dtype=np.float64).reshape(-1)
    if offs.size == 0 or offs.size != vals.size:
        raise ValueError("need matching nonempty offset/value sequences")
    if not np.isfinite(vals).all():
        t = int(np.flatnonzero(~np.isfinite(vals))[0])
        raise InvariantViolation(f"filter tap {float(vals[t])!r} at offset {offs[t]} "
                                 "is not finite")
    if np.unique(offs).size != offs.size:
        raise ValueError("duplicate offsets in sequence")
    support_width = int(offs.max() - offs.min() + 1)
    if grid_size < 4 * support_width:
        raise ValueError(f"grid_size must be >= 4 * support width = {4 * support_width}")
    # on the grid xi_k = 2 pi k / N the symbol is the DFT of the
    # coefficients wrapped onto it: the real FFT and its conjugate mirror,
    # bit for bit what scipy.fft.fft returns for real input
    wrapped = np.zeros(grid_size)
    wrapped[offs % grid_size] = vals
    half = np.fft.rfft(wrapped)
    symbol = np.concatenate([half, half[1:(grid_size + 1) // 2][::-1].conj()])
    mags = np.abs(symbol)
    k = int(np.argmin(mags))
    grid_min = float(mags[k])
    L = float(np.sum(np.abs(vals) * np.abs(offs)))
    h = 2.0 * np.pi / grid_size
    interval = (grid_min - L * h / 2.0, grid_min)
    # a(-j) = a(j) (real values) makes the symbol real-valued
    by_off = dict(zip(offs.tolist(), vals.tolist()))
    real_symbol = all(by_off.get(-j, 0.0) == v for j, v in by_off.items())
    sign_change = False
    if real_symbol:
        re = symbol.real
        sign_change = bool((re * np.roll(re, -1) < 0).any())
    tol = 1e-9 * max(1.0, float(np.sum(np.abs(vals))))
    if interval[0] > 0.0:
        verdict = "stable"
    elif sign_change or grid_min <= tol:
        verdict = "unstable"
    else:
        verdict = "undetermined: refine grid"
    return SymbolCertificate(int(grid_size), grid_min, 2.0 * np.pi * k / grid_size, L,
                             interval, sign_change, real_symbol, verdict)


# ----------------------------------------------------------------------
# inverse decay


@dataclass(frozen=True)
class InverseDecayResult:
    profile: "object"
    rate: float
    fit_intercept: float
    fit_residual: float
    condition: float
    usable_offsets: int


def inverse_decay_profile(A: LocalizedMatrix, margin: float) -> InverseDecayResult:
    """Offset profile of the inverse and its fitted decay rate.

    Rows of the inverse are restricted to points at least ``margin`` away
    from the window edge before binning (finite sections pollute the
    boundary); log sup-values above 1e-13 are least-squares fitted against
    ||k||_inf.  A matrix with condition number above 1e12 is refused.
    The rows come from the band LU in blocks, in A's own order, each reduced
    to offset-cell maxima at once, so no dense inverse is held.
    """
    if not math.isfinite(margin):
        raise InvariantViolation(f"inverse decay margin must be finite, got {margin!r}")
    if margin < 0:
        raise InvariantViolation(
            f"inverse decay margin must be non-negative, got {margin!r}")
    n, m = A.shape
    if n != m:
        raise ValueError("inverse decay needs a square matrix")
    smin, smax = _singular_extremes(A)
    if smin <= 0 or smax / smin > 1e12:
        raise NumericalError(
            f"matrix condition {smax / max(smin, 1e-300):.3e} exceeds 1.0e+12")
    # the inverse maps the row index set back to the column index set, so
    # its rows are A's columns
    idx = interior_column_indices(A, margin)
    if idx.size == 0:
        raise ValueError("margin leaves no interior rows")
    lu = _square_lu(n, A.i, A.j, A.values)
    if lu is None:
        raise NumericalError("inverse decay of a singular matrix")
    cells, sups = [], []
    for lo, X in zip(range(0, n, INVERSE_BLOCK_COLS), _inverse_blocks(lu, n, "T")):
        rows = idx[(idx >= lo) & (idx < lo + X.shape[1])]
        vals = np.abs(X[:, rows - lo].T)
        off = np.floor(A.cols.points[rows, None, :] - A.rows.points[None, :, :])
        kept = vals >= ENTRY_DROP_TOL
        k, s = group_max(off[kept].astype(np.int64), vals[kept])
        cells.append(k)
        sups.append(s)
    prof = OffsetProfile(A.dim, *group_max(np.concatenate(cells), np.concatenate(sups)))
    dist = np.abs(prof.cells).max(axis=1).astype(float)
    usable = prof.sups > 1e-13
    if usable.sum() < 4:
        raise ValueError("fewer than 4 offsets above the fit floor")
    X = np.stack([np.ones(usable.sum()), dist[usable]], axis=1)
    y = np.log(prof.sups[usable])
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = float(np.sqrt(np.mean((X @ coef - y) ** 2)))
    return InverseDecayResult(prof, float(math.exp(coef[1])), float(coef[0]),
                              resid, float(smax / smin), int(usable.sum()))


# ----------------------------------------------------------------------
# density


@dataclass(frozen=True)
class DensityVerdict:
    box: list
    rows_in_neighborhood: int
    cols_in_box: int
    passed: bool


def _dist_to_box(points: np.ndarray, box: np.ndarray) -> np.ndarray:
    lo, hi = box[:, 0], box[:, 1]
    below = np.maximum(lo - points, 0.0)
    above = np.maximum(points - hi, 0.0)
    return np.linalg.norm(np.maximum(below, above), axis=1)


def density_check(rows: IndexSet, cols: IndexSet, r0: float,
                  boxes) -> list[DensityVerdict]:
    """Necessary counting condition for stability.

    For each compact box K: the row set must place at least as many
    points in the open r0-neighborhood of K as the column set has in K.
    A failed box certifies instability at radius r0; passes are only
    consistent, never sufficient.
    """
    if not math.isfinite(r0):
        raise InvariantViolation(f"density radius r0 must be finite, got {r0!r}")
    if r0 <= 0:
        raise ValueError("r0 must be positive")
    boxes = [np.atleast_2d(np.asarray(raw, dtype=float)) for raw in boxes]
    for box in boxes:  # every box is checked before any is counted
        if not np.isfinite(box).all():
            raise InvariantViolation(
                f"density box bounds must be finite, got {box.tolist()!r}")
        if box.shape != (rows.dim, 2) or (box[:, 1] < box[:, 0]).any():
            raise ValueError(f"box must be ({rows.dim}, 2) with lo <= hi")
    out = []
    for box in boxes:
        in_nbhd = int((_dist_to_box(rows.points, box) < r0).sum())
        inside = np.ones(len(cols), dtype=bool)
        for ax in range(cols.dim):
            inside &= (cols.points[:, ax] >= box[ax, 0]) & (cols.points[:, ax] <= box[ax, 1])
        n_cols = int(inside.sum())
        out.append(DensityVerdict(box.tolist(), in_nbhd, n_cols, in_nbhd >= n_cols))
    return out
