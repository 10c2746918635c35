"""Stability-constant estimation on finite windows.

Lower constants (inf ||Ac||_p / ||c||_p) come from an exact eigensolve at
p = 2, from the exact inverse norm 1 / ||A^-1||_p on square windows at
p in {1, inf}, and from Riesz-Thorin interpolation of those on square
windows in between.  A square window without one column (the interior of a
ladder window) has an exact constant at p in {1, inf} in closed form from
the window's own inverse.  Tall windows at p in {1, inf} with few columns
use one left-inverse linear program; intermediate p and larger tall windows
use a multistart projected descent from fixed starts.  Upper constants are
closed-form at p in {1, inf}, spectral at p = 2, and interpolation bounds
in between.  Window ladders aggregate the per-window constants into
stabilization / degeneration verdicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.optimize import linprog

from . import _accel
from .errors import NumericalError
from .lattice import IndexSet
from .matalg import LocalizedMatrix, offset_profile

LP_MAX_COLS = 14
DENSE_EIG_CUTOFF = 1200
BANDED_EIG_MAX_BAND = 1200
MULTISTART_COUNT = 64
MULTISTART_MAX_ITER = 5000
MULTISTART_STEP_MIN = 1e-10
INVERSE_BLOCK_COLS = 128
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


def _dense_singular_extremes(A: LocalizedMatrix) -> tuple[float, float]:
    """(sigma_min, sigma_max) of A, computed once per matrix.

    The pair is kept in ``A._cache`` next to ``"csr"`` and ``"band"``: the
    entry arrays of a LocalizedMatrix are write-protected, so it cannot go
    stale, and the lower and upper constants at p = 2 share one solve.
    """
    n, m = A.shape
    if m > n:
        raise ValueError("lower constant needs rows >= cols")
    ext = A._cache.get("singular_extremes")
    if ext is not None:
        return ext
    if m <= DENSE_EIG_CUTOFF and n <= 4 * DENSE_EIG_CUTOFF:
        svals = scipy.linalg.svdvals(A.dense())
        ext = float(svals[-1]), float(svals[0])
    elif m <= DENSE_EIG_CUTOFF:
        # tall: eigensolve the (small) normal matrix
        G = (A.csr().T @ A.csr()).toarray()
        w = scipy.linalg.eigvalsh(G)
        ext = float(math.sqrt(max(w[0], 0.0))), float(math.sqrt(max(w[-1], 0.0)))
    else:
        ext = _iterative_singular_extremes(A)
    A._cache["singular_extremes"] = ext
    return ext


def _csr_bandwidth(mat) -> int:
    coo = mat.tocoo()
    if coo.nnz == 0:
        return 0
    return int(np.max(np.abs(coo.row - coo.col)))


def _banded_storage(G, bw: int) -> np.ndarray:
    """Lower-form symmetric banded storage: ab[k, j] = G[j+k, j]."""
    n = G.shape[0]
    ab = np.zeros((bw + 1, n))
    for k in range(bw + 1):
        d = G.diagonal(-k)
        ab[k, :d.size] = d
    return ab


def _gram_smallest(G, return_vector: bool = False):
    """Smallest eigenpair of a sparse symmetric PSD Gram matrix.

    Banded bisection is the workhorse: Gram matrices of localized finite
    sections have narrow bands, and bisection cannot stall on the
    eigenvalue cluster that typically parks next to the smallest one.
    (ARPACK can, in plain and shift-invert mode alike, whenever the
    smallest singular value is not well separated.)
    """
    bw = _csr_bandwidth(G)
    if bw <= BANDED_EIG_MAX_BAND:
        ab = _banded_storage(G, bw)
        if return_vector:
            w, V = scipy.linalg.eig_banded(ab, lower=True, select="i",
                                           select_range=(0, 0))
            return float(w[0]), V[:, 0]
        w = scipy.linalg.eigvals_banded(ab, lower=True, select="i",
                                        select_range=(0, 0))
        return float(w[0]), None
    try:
        w, V = spla.eigsh(G, k=1, sigma=0.0, which="LM", maxiter=2000,
                          v0=_fixed_normal(G.shape[0]))
        return float(w[0]), V[:, 0]
    except Exception as exc:
        n = G.shape[0]
        if n * n <= 4_000_000:
            w, V = scipy.linalg.eigh(G.toarray())
            return float(w[0]), V[:, 0]
        raise NumericalError(f"iterative eigensolve failed: {exc}") from exc


def _fixed_normal(shape) -> np.ndarray:
    """Normal draws from a fixed generator, for ARPACK start vectors and
    descent starts: without one ARPACK draws from numpy's global random
    state, and reruns can differ in the last digit."""
    return np.random.default_rng(0).standard_normal(shape)


def _iterative_singular_extremes(A: LocalizedMatrix) -> tuple[float, float]:
    csr = A.csr().astype(np.float64)
    smax = float(spla.svds(csr, k=1, which="LM", return_singular_vectors=False,
                           v0=_fixed_normal(min(csr.shape)))[0])
    lam, _ = _gram_smallest((csr.T @ csr).tocsr())
    return float(math.sqrt(max(lam, 0.0))), smax


def _min_singular_vector(A: LocalizedMatrix) -> np.ndarray:
    n, m = A.shape
    if m <= DENSE_EIG_CUTOFF:
        G = (A.csr().T @ A.csr()).toarray()
        w, V = scipy.linalg.eigh(G)
        return V[:, 0]
    G = (A.csr().T @ A.csr()).tocsr()
    try:
        _, vec = _gram_smallest(G, return_vector=True)
    except NumericalError as exc:
        raise NumericalError(f"singular-vector solve failed: {exc}") from exc
    return vec


# ----------------------------------------------------------------------
# exact square windows at p = 1 and p = inf


def _square_lu(A: LocalizedMatrix):
    """Sparse LU factors of a square matrix, or None when it is singular."""
    try:
        return spla.splu(A.csr().tocsc())
    except RuntimeError as exc:
        if "singular" in str(exc):
            return None
        raise NumericalError(f"inverse-norm factorization failed: {exc}") from exc


def _unit_solve(lu, n: int, lo: int, hi: int, trans: str) -> np.ndarray:
    """Columns lo..hi-1 of A^-1 (trans "N") or of A^-T (trans "T": rows of
    A^-1), solved against a block of unit vectors."""
    X = lu.solve(np.eye(n, hi - lo, k=-lo), trans=trans)
    if not np.isfinite(X).all():
        raise NumericalError("inverse-norm solve produced non-finite values")
    return X


def _inverse_blocks(lu, n: int, trans: str):
    """All of A^-1 or A^-T in blocks of INVERSE_BLOCK_COLS columns, so no
    dense n x n inverse or identity is ever held."""
    for lo in range(0, n, INVERSE_BLOCK_COLS):
        yield _unit_solve(lu, n, lo, min(lo + INVERSE_BLOCK_COLS, n), trans)


def _inverse_norm_lower(A: LocalizedMatrix, p: float) -> float:
    """Exact lower constant 1 / ||A^-1||_p of a square matrix, p in {1, inf}.

    ||A^-1||_1 is the largest absolute column sum of A^-1 and ||A^-1||_inf
    the largest absolute row sum, i.e. the largest column sum of A^-T.  An
    exactly singular factor gives 0.
    """
    lu = _square_lu(A)
    if lu is None:
        return 0.0
    trans = "N" if p == 1.0 else "T"
    return 1.0 / max(float(np.abs(X).sum(axis=0).max())
                     for X in _inverse_blocks(lu, A.shape[0], trans))


# ----------------------------------------------------------------------
# square windows without one column at p = 1 and p = inf


def _min_l1_along(U: np.ndarray, v: np.ndarray) -> np.ndarray:
    """min over t of ||U[a] + t v||_1 for every row a of U, with max |v| = 1.

    The minimum sits at the weighted median of the breakpoints -U[a, k]/v[k]
    with weights |v[k]|.  A breakpoint whose quotient would overflow (v[k]
    zero or subnormal) is put at +-inf: its weight is too small to move the
    median.
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
    lu = _square_lu(A)
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


# ----------------------------------------------------------------------
# small tall windows at p = 1 and p = inf


def _left_inverse_lower(A: LocalizedMatrix, p: float) -> float:
    """Lower constant (1 - ||LA - I||_p) / ||L||_p from one linear program.

    Every left inverse L (LA = I) gives ||c||_p <= ||L||_p ||Ac||_p.  The
    LP writes L = P - N with P, N >= 0 and minimizes t subject to
    (P - N)A = I and every column (p = 1) or row (p = inf) abs-sum of L at
    most t.  At p = inf the minimum is exactly 1 / (lower constant), since
    l-inf is injective; at p = 1 it is a certified lower bound.  The
    solver's residual LA - I counts against the bound, and a matrix with no
    left inverse (an infeasible LP) gives 0.
    """
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
    if res.status != 0:
        raise NumericalError(f"left-inverse linear program failed: {res.message}")
    L = (res.x[:mn] - res.x[mn:2 * mn]).reshape(m, n)
    axis = 0 if p == 1.0 else 1
    resid = float(np.abs((A.csr().T @ L.T).T - np.eye(m)).sum(axis=axis).max())
    if not resid < 1.0:
        raise NumericalError(
            f"left-inverse linear program residual {resid:.3e} is not below 1")
    return (1.0 - resid) / float(np.abs(L).sum(axis=axis).max())


# ----------------------------------------------------------------------
# multistart descent


def _multistart_lower(A: LocalizedMatrix, p: float) -> float:
    n, m = A.shape
    starts = _fixed_normal((MULTISTART_COUNT, m))
    # one deterministic warm start: the p=2 minimizer is a strong start at
    # every p and keeps window ladders comparable
    warm = _min_singular_vector(A)
    starts = np.vstack([warm[None, :], starts])
    F, _ = _accel.descend_lp(A.csr(), starts, p, max_iter=MULTISTART_MAX_ITER,
                             tmin=MULTISTART_STEP_MIN)
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

    Certified: p = 2 (``singular-value``), square windows at p in {1, inf}
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
    if p == 2.0:
        smin, _ = _dense_singular_extremes(A)
        return ConstantEstimate(smin, True, "singular-value")
    if n == m:
        if p in (1.0, math.inf):
            return ConstantEstimate(_inverse_norm_lower(A, p), True, "inverse-norm")
        smin, _ = _dense_singular_extremes(A)
        end = _inverse_norm_lower(A, 1.0 if p < 2.0 else math.inf)
        return ConstantEstimate(_riesz_thorin(p, end, smin), True,
                                "interpolation-bound")
    if p in (1.0, math.inf) and m <= LP_MAX_COLS:
        return ConstantEstimate(_left_inverse_lower(A, p), True, "left-inverse-lp")
    return ConstantEstimate(_multistart_lower(A, p), False, "multistart")


def upper_constant(A: LocalizedMatrix, p) -> ConstantEstimate:
    """sup ||Ac||_p / ||c||_p (the induced p-norm, or a certified bound).

    Exact at p in {1, 2, inf}; Riesz-Thorin interpolation against the
    neighboring exact exponents otherwise (certified upper bound).
    """
    p = normalize_p(p)
    if A.nnz == 0:
        return ConstantEstimate(0.0, True, "zero-matrix")
    absA = abs(A.csr())
    col_sum = float((absA.T @ np.ones(A.shape[0])).max(initial=0.0))
    row_sum = float((absA @ np.ones(A.shape[1])).max(initial=0.0))
    if p == 1.0:
        return ConstantEstimate(col_sum, True, "column-sums")
    if p == math.inf:
        return ConstantEstimate(row_sum, True, "row-sums")
    _, n2 = _dense_singular_extremes(A)
    if p == 2.0:
        return ConstantEstimate(n2, True, "singular-value")
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
        value = _codim_one_lower(A, j, p)
        if value is not None:
            return ConstantEstimate(value, True, "codim-one")
    sub = A.csr()[:, idx].tocoo()
    inner = LocalizedMatrix(A.rows, A.cols.restrict(idx), sub.row, sub.col, sub.data)
    return lower_constant(inner, p)


# ----------------------------------------------------------------------
# window ladders


@dataclass(frozen=True)
class StabilityReport:
    """Constants along one window ladder at a fixed exponent."""

    p: float
    window_sizes: list[int]
    lower_constants: list[float]
    upper_constants: list[float]
    lower_certified: list[bool]
    upper_certified: list[bool]
    methods: list[str]
    interior_lower: list[ConstantEstimate | None] = field(default_factory=list)
    verdict: str = "undetermined"

    def __post_init__(self):
        for lo, hi in zip(self.lower_constants, self.upper_constants):
            if lo > hi * (1 + 1e-9) + 1e-300:
                raise ValueError("lower constant exceeds upper constant")


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


def _check_nested(ladder: list[LocalizedMatrix]) -> None:
    for small, big in zip(ladder, ladder[1:]):
        mr, mc = small.shape
        nr, nc = big.shape
        if nr < mr or nc < mc:
            raise ValueError("windows not nested: ladder must be ascending")
        if not (np.array_equal(small.rows.points, big.rows.points[:mr])
                and np.array_equal(small.cols.points, big.cols.points[:mc])):
            raise ValueError("windows not nested: point sets are not prefixes")
        sub = big.csr()[:mr, :mc]
        if (abs(sub - small.csr())).max() > 0:
            raise ValueError("windows not nested: entries disagree on the overlap")


@dataclass(frozen=True)
class EquivalenceReport:
    ps: list[float]
    window_sizes: list[int]
    per_p: dict
    verdicts: dict
    consistent: bool
    counterexample_candidates: list


def stability_ladder(ladder: list[LocalizedMatrix], p) -> StabilityReport:
    """Lower/upper constants along a nested window ladder at one exponent."""
    p = normalize_p(p)
    _check_nested(ladder)

    results = [(lower_constant(A, p), upper_constant(A, p),
                lower_constant_interior(A, p)) for A in ladder]
    lowers = [r[0].value for r in results]
    return StabilityReport(
        p=p,
        window_sizes=[A.shape[1] for A in ladder],
        lower_constants=lowers,
        upper_constants=[r[1].value for r in results],
        lower_certified=[r[0].certified for r in results],
        upper_certified=[r[1].certified for r in results],
        methods=[r[0].method for r in results],
        interior_lower=[r[2] for r in results],
        verdict=ladder_verdict(lowers),
    )


def equivalence_report(ladder: list[LocalizedMatrix], ps) -> EquivalenceReport:
    """Cross-exponent comparison of window ladders.

    Exponents whose constants stabilize while another degenerates are
    flagged as counterexample candidates rather than silently averaged.
    """
    ps = [normalize_p(p) for p in ps]
    per_p = {}
    verdicts = {}
    for p in ps:
        rep = stability_ladder(ladder, p)
        per_p[p] = rep
        verdicts[p] = rep.verdict
    kinds = set(verdicts.values())
    candidates = []
    if "stabilized" in kinds and "degenerating" in kinds:
        stab = [p for p, v in verdicts.items() if v == "stabilized"]
        degen = [p for p, v in verdicts.items() if v == "degenerating"]
        candidates = [{"stabilized_p": "inf" if math.isinf(a) else a,
                       "degenerating_p": "inf" if math.isinf(b) else b}
                      for a in stab for b in degen]
    return EquivalenceReport(ps, [A.shape[1] for A in ladder], per_p, verdicts,
                             consistent=not candidates,
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


def convolution_stability(offsets, values, grid_size: int = 65536,
                          tol: float | None = None) -> SymbolCertificate:
    """Certify min |sum_j a(j) e^{-i j xi}| over the torus from a fine grid.

    The symbol derivative is bounded by L = sum |a(j)| |j|, so the true
    minimum lies within L*h/2 of the grid minimum (h the grid spacing).
    Verdicts: ``stable`` when the certified interval excludes zero,
    ``unstable`` when a real-symbol sign change or a numerically zero
    grid minimum confirms a zero, else ``undetermined: refine grid``.
    """
    offs = np.asarray(offsets, dtype=np.int64).reshape(-1)
    vals = np.asarray(values, dtype=np.float64).reshape(-1)
    if offs.size == 0 or offs.size != vals.size:
        raise ValueError("need matching nonempty offset/value sequences")
    if np.unique(offs).size != offs.size:
        raise ValueError("duplicate offsets in sequence")
    support_width = int(offs.max() - offs.min() + 1)
    if grid_size < 4 * support_width:
        raise ValueError(f"grid_size must be >= 4 * support width = {4 * support_width}")
    xi = 2.0 * np.pi * np.arange(grid_size) / grid_size
    symbol = np.exp(-1j * np.outer(xi, offs)) @ vals.astype(complex)
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
    scale = float(np.sum(np.abs(vals)))
    if tol is None:
        tol = 1e-9 * max(1.0, scale)
    if interval[0] > 0.0:
        verdict = "stable"
    elif sign_change or grid_min <= tol:
        verdict = "unstable"
    else:
        verdict = "undetermined: refine grid"
    return SymbolCertificate(int(grid_size), grid_min, float(xi[k]), L,
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


def inverse_decay_profile(A: LocalizedMatrix, margin: float, *,
                          cond_limit: float = 1e12,
                          floor: float = 1e-13) -> InverseDecayResult:
    """Offset profile of the dense inverse and its fitted decay rate.

    Rows of the inverse are restricted to points at least ``margin`` away
    from the window edge before binning (finite sections pollute the
    boundary); log sup-values are least-squares fitted against ||k||_inf.
    """
    n, m = A.shape
    if n != m:
        raise ValueError("inverse decay needs a square matrix")
    dense = A.dense()
    svals = scipy.linalg.svdvals(dense)
    if svals[-1] <= 0 or svals[0] / svals[-1] > cond_limit:
        raise NumericalError(
            f"matrix condition {svals[0] / max(svals[-1], 1e-300):.3e} exceeds {cond_limit:.1e}")
    inv = scipy.linalg.inv(dense)
    # the inverse maps row index set back to column index set
    B = LocalizedMatrix.from_dense(A.cols, A.rows, inv, drop_tol=0.0)
    pts = B.rows.points
    win = B.rows.window
    keep_rows = np.ones(len(B.rows), dtype=bool)
    for ax in range(B.dim):
        keep_rows &= (pts[:, ax] >= win[ax, 0] + margin) & (pts[:, ax] <= win[ax, 1] - margin)
    idx = np.flatnonzero(keep_rows)
    if idx.size == 0:
        raise ValueError("margin leaves no interior rows")
    mask = np.isin(B.i, idx)
    interior = LocalizedMatrix(B.rows, B.cols, B.i[mask], B.j[mask], B.values[mask])
    prof = offset_profile(interior)
    dist = np.abs(prof.cells).max(axis=1).astype(float)
    usable = prof.sups > floor
    if usable.sum() < 4:
        raise ValueError("fewer than 4 offsets above the fit floor")
    X = np.stack([np.ones(usable.sum()), dist[usable]], axis=1)
    y = np.log(prof.sups[usable])
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = float(np.sqrt(np.mean((X @ coef - y) ** 2)))
    return InverseDecayResult(prof, float(math.exp(coef[1])), float(coef[0]),
                              resid, float(svals[0] / svals[-1]), int(usable.sum()))


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
    if r0 <= 0:
        raise ValueError("r0 must be positive")
    out = []
    for raw in boxes:
        box = np.asarray(raw, dtype=float)
        if box.ndim == 1:
            box = box[None, :]
        if box.shape != (rows.dim, 2) or (box[:, 1] < box[:, 0]).any():
            raise ValueError(f"box must be ({rows.dim}, 2) with lo <= hi")
        in_nbhd = int((_dist_to_box(rows.points, box) < r0).sum())
        inside = np.ones(len(cols), dtype=bool)
        for ax in range(cols.dim):
            inside &= (cols.points[:, ax] >= box[ax, 0]) & (cols.points[:, ax] <= box[ax, 1])
        n_cols = int(inside.sum())
        out.append(DensityVerdict(box.tolist(), in_nbhd, n_cols, in_nbhd >= n_cols))
    return out
