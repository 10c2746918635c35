import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import oracles
from locop import _accel, corpus, stability
from locop.errors import NumericalError
from locop.lattice import IndexSet
from locop.matalg import LocalizedMatrix, offset_profile, toeplitz_entries, vector_pnorm
from locop.profiles import GaussianProfile
from locop.stability import (DENSE_EIG_CUTOFF, INVERSE_BLOCK_COLS,
                             LP_MAX_COLS, ConstantEstimate, LadderEntry,
                             _left_inverse_lower, _multistart_lower,
                             _singular_extremes, _square_inverse_lower,
                             convolution_stability, density_check,
                             equivalence_report, inverse_decay_profile,
                             ladder_verdict, lower_constant,
                             lower_constant_interior, toeplitz_singular_extremes,
                             upper_constant)
from locop.kernelop import PerturbedEntry
from locop.synthesis import GeneratorFamily, SynthesisEntry, discretize_synthesis


def toeplitz(seq, w):
    return corpus.toeplitz_matrix(list(seq), w)


# ----------------------------------------------------------------------
# exact enumeration oracles for small windows at p = 1 and p = inf


def orthant_lp_min_l1(A: LocalizedMatrix) -> float:
    """Exact min of ||Ac||_1 over the l1 sphere by sign-orthant LPs.

    One LP per sign pattern tau (tau_1 = +1 by symmetry): minimize
    sum(u) subject to -u <= Ac <= u, tau^T c = 1, tau_i c_i >= 0.
    """
    n, m = A.shape
    dense = A.dense()
    best = math.inf
    c_obj = np.concatenate([np.zeros(m), np.ones(n)])
    A_ub = np.block([[dense, -np.eye(n)], [-dense, -np.eye(n)]])
    b_ub = np.zeros(2 * n)
    for tau_rest in itertools.product((1.0, -1.0), repeat=m - 1):
        tau = np.array((1.0,) + tau_rest)
        bounds = [(0, None) if t > 0 else (None, 0) for t in tau]
        bounds += [(0, None)] * n
        A_eq = np.concatenate([tau, np.zeros(n)])[None, :]
        res = linprog(c_obj, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=[1.0],
                      bounds=bounds, method="highs")
        if res.status == 0 and res.fun < best:
            best = float(res.fun)
    assert math.isfinite(best), "all orthant linear programs failed"
    return max(best, 0.0)


def face_lp_min_linf(A: LocalizedMatrix) -> float:
    """Exact min of ||Ac||_inf over the sup-norm sphere by face LPs.

    The sphere is the union of cube faces {c_j = 1, |c| <= 1} (up to
    sign); minimize t with -t <= Ac <= t on each face.
    """
    n, m = A.shape
    dense = A.dense()
    best = math.inf
    c_obj = np.concatenate([np.zeros(m), [1.0]])
    A_ub = np.block([[dense, -np.ones((n, 1))], [-dense, -np.ones((n, 1))]])
    b_ub = np.zeros(2 * n)
    for jfix in range(m):
        bounds = [(-1.0, 1.0)] * m + [(0, None)]
        bounds[jfix] = (1.0, 1.0)
        res = linprog(c_obj, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
        if res.status == 0 and res.fun < best:
            best = float(res.fun)
    assert math.isfinite(best), "all face linear programs failed"
    return max(best, 0.0)


# Exact p = 1 constants of the windows below with 10 to 12 columns, where
# orthant_lp_min_l1 runs 2^9 to 2^11 linear programs (1-8 s each on a
# 2-vCPU host).
# Regenerate with
#     PYTHONPATH=src python tests/test_stability.py
ORTHANT_EXACT = {
    "hat12-n3": 4.1375728505009475,
    "banded12x10": 0.5627388119187203,
    "banded12": 0.5000028615680376,
    "t121-w12": 0.08095238095238103,
    "t131-w12": 1.0093750000000004,
    "banded-w12": 0.5000089631098076,
}


def pinned_windows():
    """The windows of ORTHANT_EXACT, by name."""
    return {
        "hat12-n3": discretize_synthesis(corpus.hat_family(12), 3),
        "banded12x10": corpus.banded_random(12, band=2, seed=9).window_prefix(12, 10),
        "banded12": corpus.banded_random(12, band=1, seed=4),
        "t121-w12": _interior_window(toeplitz([1, 2, 1], 12)),
        "t131-w12": _interior_window(toeplitz([1, 3, 1], 12)),
        "banded-w12": _interior_window(corpus.banded_random(12, band=1, seed=2)),
    }


def enumeration_oracle(A, p, name=None):
    """Exact constant of A; at p = 1 the pinned value when ``name`` has one."""
    if p == 1.0:
        if name in ORTHANT_EXACT:
            return ORTHANT_EXACT[name]
        return orthant_lp_min_l1(A)
    return face_lp_min_linf(A)


def test_pinned_orthant_constants_match_the_oracle():
    # one pinned window stays live, so the table and the oracle cannot drift
    # apart unseen
    A = pinned_windows()["banded12x10"]
    assert orthant_lp_min_l1(A) == pytest.approx(ORTHANT_EXACT["banded12x10"],
                                                 rel=1e-12)


def _interior_window(A):
    idx = stability.interior_column_indices(A, A.band())
    sub = A.csr()[:, idx].tocoo()
    return LocalizedMatrix(A.rows, A.cols.restrict(idx), sub.row, sub.col, sub.data)


# ----------------------------------------------------------------------
# two-sided constants, p = 2 (certified singular values)


def test_p2_constants_match_eigenvalue_formula():
    # symmetric Toeplitz section with symbol 3 + 2 cos xi: eigenvalues are
    # 3 + 2 cos(k pi / (n+1)), so the extreme singular values are explicit
    n = 200
    A = toeplitz([1, 3, 1], n)
    lo = lower_constant(A, 2.0)
    hi = upper_constant(A, 2.0)
    assert lo.certified and hi.certified
    assert lo.value == pytest.approx(3.0 - 2.0 * math.cos(math.pi / (n + 1)), rel=1e-9)
    assert hi.value == pytest.approx(3.0 + 2.0 * math.cos(math.pi / (n + 1)), rel=1e-9)


def test_p2_lower_and_upper_share_one_svd(count_calls):
    # a symmetric Toeplitz window: one pair of half-size eigvalsh serves
    # both constants, and no SVD runs
    svdvals = scipy.linalg.svdvals
    eig_calls, svd_calls = count_calls("eigvalsh"), count_calls("svd")
    A = toeplitz([1, 3, 1], 40)
    lo = lower_constant(A, 2.0)
    hi = upper_constant(A, 2.0)
    assert eig_calls == [(20, 20), (20, 20)] and svd_calls == []
    s = svdvals(A.dense())
    assert lo.value == pytest.approx(s[-1], rel=1e-14)
    assert hi.value == pytest.approx(s[0], rel=1e-14)
    # a second matrix with the same entries gets its own solve
    upper_constant(toeplitz([1, 3, 1], 40), 2.0)
    assert len(eig_calls) == 4


def test_p2_iterative_path_matches_dense_oracle():
    # window above the dense cutoff takes the sparse path; the banded
    # bisection eigensolver must agree with the closed form
    n = 1400
    A = toeplitz([1, 3, 1], n)
    lo = lower_constant(A, 2.0)
    assert lo.value == pytest.approx(3.0 - 2.0 * math.cos(math.pi / (n + 1)), rel=1e-9)


def test_gram_band_matches_dense_gram():
    # rows in any order: the Gram band comes from each row's column span
    A = corpus.permuted_rows(corpus.banded_random(60, band=3, seed=2), seed=4)
    G = (A.csr().T @ A.csr()).toarray()
    ab = stability._lower_band(A.csr().T @ A.csr())
    first, last = stability._row_spans(60, A.i, A.j)
    assert ab.shape[0] - 1 == (last - first).max() == 6
    for k in range(ab.shape[0]):
        assert np.array_equal(ab[k, :60 - k], np.diag(G, -k))
    # above the cut-off the descent's p = 2 start reads the same band
    B = corpus.banded_random(1300, band=3, seed=2)
    v = stability._min_singular_vector(B)
    smin, _ = _singular_extremes(B)
    assert np.linalg.norm(B.csr() @ v) == pytest.approx(smin, rel=1e-12)


@pytest.fixture
def no_random_draws(monkeypatch):
    """Make every numpy random draw raise, the global state's included."""
    class NoDraws:
        def __getattr__(self, name):
            raise AssertionError(f"random draw through np.random.{name}")

    def forbidden(*args, **kwargs):
        raise AssertionError("random draw")

    for name in ("default_rng", "RandomState", "Generator", "seed", "rand",
                 "randn", "random", "uniform", "normal", "standard_normal"):
        monkeypatch.setattr(np.random, name, forbidden)
    monkeypatch.setattr(np.random.mtrand, "_rand", NoDraws())


def test_singular_extremes_draw_no_random_numbers(request):
    # above the cut-off: the Gram band (well conditioned) and the
    # Jordan-Wielandt band (kappa 8e5)
    windows = [corpus.banded_random(1280, band=1, seed=2),
               toeplitz([-1.0, 2.0, -1.0], 1400)]
    assert all(A.shape[1] > DENSE_EIG_CUTOFF for A in windows)
    request.getfixturevalue("no_random_draws")
    for A in windows:
        lo, hi = lower_constant(A, 2.0), upper_constant(A, 2.0)
        assert lo.method == hi.method == "singular-value"
        assert 0.0 < lo.value < hi.value


def test_wide_band_window_takes_the_dense_svd(count_calls):
    # Gram band 300: two banded eigensolves cost more flops than one dense
    # solve, which for this symmetric window is one eigvalsh
    A = corpus.banded_random(1300, band=150, seed=2)
    assert A.shape[1] > DENSE_EIG_CUTOFF
    assert stability._banded_singular_extremes(A) is None
    svals = scipy.linalg.svdvals(A.dense())
    eig_calls, svd_calls = count_calls("eigvalsh"), count_calls("svd")
    smin, smax = _singular_extremes(A)
    assert eig_calls == [(1300, 1300)] and svd_calls == []
    assert smin == pytest.approx(svals[-1], rel=1e-14)
    assert smax == pytest.approx(svals[0], rel=1e-14)


def _with_asymmetry(ulps):
    """toeplitz (1,3,1) on 40 points with entry (2, 3) raised by ulps * eps,
    so E = that one entry and the gate compares ulps * eps with about
    5 eps (||A||_1 = ||A||_inf = 5)."""
    A = toeplitz([1, 3, 1], 40)
    v = A.values.copy()
    v[(A.i == 2) & (A.j == 3)] += ulps * np.finfo(float).eps
    return LocalizedMatrix(A.rows, A.cols, A.i, A.j, v)


@pytest.mark.parametrize("A", [corpus.permuted_rows(toeplitz([1, 3, 1], 40), seed=21),
                               _with_asymmetry(6)],
                         ids=["row-permuted", "just-above-the-gate"])
def test_asymmetric_square_window_takes_svdvals(A, count_calls):
    asym, scale, _ = stability._asymmetry_bounds(A.dense())
    assert asym > np.finfo(float).eps * scale
    svals = scipy.linalg.svdvals(A.dense())
    eig_calls = count_calls("eigvalsh")
    assert _singular_extremes(A) == (svals[-1], svals[0])
    assert eig_calls == []


def test_asymmetry_below_the_gate_is_widened_by_its_bound(count_calls):
    # the raised entry sits in the upper triangle, so the lower triangle S
    # is still Toeplitz and takes the centrosymmetric split
    A = _with_asymmetry(4)
    asym, scale, centro = stability._asymmetry_bounds(A.dense())
    assert 0.0 < asym == 4 * np.finfo(float).eps <= np.finfo(float).eps * scale
    assert centro
    svals = scipy.linalg.svdvals(A.dense())
    eig_calls = count_calls("eigvalsh")
    smin, smax = _singular_extremes(A)
    assert eig_calls == [(20, 20), (20, 20)]
    assert smin <= svals[-1] and smax >= svals[0]
    assert smin == pytest.approx(svals[-1], rel=1e-14)
    assert smax == pytest.approx(svals[0], rel=1e-14)


@pytest.mark.parametrize("n,copies", [(1151, 2.25), (1150, 2.0)],
                         ids=["full-solve", "centrosymmetric-split"])
def test_symmetric_solve_holds_two_copies_of_the_window(n, copies):
    # odd n: the dense window plus the one work copy that
    # numpy.linalg.eigvalsh hands to LAPACK; a symmetrized temporary would
    # be a third.  Even n splits: the window plus one half-size matrix, its
    # absolute values and its work copy.  numpy allocates the work copy
    # outside tracemalloc's view, so the peak is the resident-set
    # high-water mark of a fresh interpreter, after a small solve has
    # loaded LAPACK.  It is read as VmHWM: Linux carries the parent's peak
    # across exec into getrusage's ru_maxrss, which then reads no growth
    # under a large test process.
    code = ("from locop import corpus; "
            "from locop.stability import _singular_extremes as ext; "
            "hwm = lambda: int(open('/proc/self/status').read()"
            ".split('VmHWM:')[1].split()[0]); "
            "t = corpus.toeplitz_matrix; A = t([1.0, 3.0, 1.0], %d); "
            "ext(t([1.0, 3.0, 1.0], 64)); "
            "before = hwm(); ext(A); print(1024 * (hwm() - before))" % n)
    src = str(Path(stability.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [q for q in os.environ.get("PYTHONPATH", "").split(os.pathsep) if q]))
    grown = int(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                               capture_output=True, text=True).stdout)
    # any dense solve holds one copy, so a reading below it measured nothing
    assert 8 * n * n <= grown <= copies * 8 * n * n


def test_odd_or_not_centrosymmetric_window_takes_one_full_solve(count_calls):
    # odd n has no half-size split, and a symmetric window whose lower
    # triangle is not persymmetric (one diagonal entry raised) is not
    # centrosymmetric: both take one n x n eigvalsh
    even = toeplitz([1, 3, 1], 40)
    v = np.where((even.i == 0) & (even.j == 0), 4.0, even.values)
    windows = [toeplitz([1, 3, 1], 41), LocalizedMatrix(even.rows, even.cols,
                                                        even.i, even.j, v)]
    eig_calls = count_calls("eigvalsh")
    for A in windows:
        asym, _, centro = stability._asymmetry_bounds(A.dense())
        assert asym == 0.0 and not centro
        svals = scipy.linalg.svdvals(A.dense())
        smin, smax = _singular_extremes(A)
        assert smin == pytest.approx(svals[-1], rel=1e-14)
        assert smax == pytest.approx(svals[0], rel=1e-14)
    assert eig_calls == [(41, 41), (40, 40)]


@st.composite
def centrosymmetric_matrices(draw):
    """Symmetric S = J S J of even order: a Gaussian one, or the exactly
    singular integer V V^T with J V = V and fewer columns than rows."""
    h = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    if draw(st.booleans()):
        X = rng.standard_normal((2 * h, 2 * h))
        S = X + X.T
        return S + S[::-1, ::-1]
    V = rng.integers(-3, 4, (h, draw(st.integers(1, 2 * h - 1)))).astype(float)
    V = np.vstack([V, V[::-1]])
    return V @ V.T


@settings(deadline=None, max_examples=60)
@given(centrosymmetric_matrices())
def test_centrosymmetric_split_agrees_with_svdvals(S):
    assert np.array_equal(S, S.T) and np.array_equal(S, S[::-1, ::-1])
    assert stability._asymmetry_bounds(S)[2]
    svals = scipy.linalg.svdvals(S)
    smin, smax = stability._symmetric_singular_extremes(S)
    assert 0.0 <= smin <= smax
    assert abs(smin - svals[-1]) <= 1e-13 * svals[0]
    assert abs(smax - svals[0]) <= 1e-13 * svals[0]


@st.composite
def toeplitz_bands(draw):
    """(band, n): a centred band that is even, even up to ulps (as kernel
    offset tables are), or clearly not even, on an odd or even window that
    may be narrower than the band."""
    mid = draw(st.integers(0, 30))
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    half = rng.standard_normal(mid) * 10.0 ** rng.uniform(-17, 1, mid)
    band = np.concatenate((half[::-1], rng.standard_normal(1), half))
    kind = draw(st.sampled_from(["even", "ulps", "asymmetric"]))
    if kind == "ulps":
        moved = rng.random(band.size) < 0.5
        band[moved] = np.nextafter(band[moved], rng.choice([-np.inf, np.inf], moved.sum()))
    elif kind == "asymmetric":
        band += 1e-3 * rng.standard_normal(band.size)
    return band, n


def _toeplitz_dense(band, n):
    D = np.zeros((n, n))
    i, j, v = toeplitz_entries(band, n)
    D[i, j] = v
    return D


@settings(deadline=None, max_examples=200)
@given(toeplitz_bands())
def test_toeplitz_band_route_is_the_dense_symmetric_route(case):
    # the O(n) symmetry test and the strided views of the band give the
    # dense window's floats bit for bit, or decline it alike
    band, n = case
    want = stability._symmetric_singular_extremes(_toeplitz_dense(band, n))
    got = toeplitz_singular_extremes(band, n)
    assert (got is None) == (want is None)
    if got is not None:
        assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("n", [31, 32])
def test_toeplitz_band_route_splits_even_windows(n, count_calls):
    band = np.array([1.0, -0.25, 3.0, -0.25, 1.0])
    eig_calls = count_calls("eigvalsh")
    smin, smax = toeplitz_singular_extremes(band, n)
    svals = scipy.linalg.svdvals(_toeplitz_dense(band, n))
    assert eig_calls == ([(16, 16), (16, 16)] if n % 2 == 0 else [(31, 31)])
    assert smin == pytest.approx(svals[-1], rel=1e-14)
    assert smax == pytest.approx(svals[0], rel=1e-14)


@pytest.mark.parametrize("band,n", [([1.0, 3.0, 1.1], 8), ([1.0, np.nan, 1.0], 8),
                                    ([1.0, 3.0, 1.0], DENSE_EIG_CUTOFF + 1)],
                         ids=["asymmetric", "not-finite", "above-the-dense-cutoff"])
def test_toeplitz_band_route_declines(band, n, count_calls):
    eig_calls = count_calls("eigvalsh")
    assert toeplitz_singular_extremes(np.array(band), n) is None
    assert eig_calls == []


@pytest.mark.parametrize("c", [2, 3])
@pytest.mark.parametrize("n", [16, 32, 64])
def test_p2_lower_constant_of_toeplitz_stays_below_the_closed_form(c, n):
    # sigma_min of (1, c, 1) on n points is c - 2 cos(pi / (n + 1)); the
    # widened split must not report more, at 40 digits
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        exact = c - 2 * mpmath.cos(mpmath.pi / (n + 1))
        lo = lower_constant(toeplitz([1, c, 1], n), 2.0)
        assert lo.certified and lo.method == "singular-value"
        assert mpmath.mpf(lo.value) <= exact
        assert lo.value >= (1 - 1e-12) * float(exact)


def test_ill_conditioned_window_keeps_sigma_min_digits():
    # kappa = 8e5: lambda_min of A^T A keeps only five digits of sigma_min
    A = toeplitz([-1.0, 2.0, -1.0], 1400)
    svals = scipy.linalg.svdvals(A.dense())
    smin, smax = stability._banded_singular_extremes(A)
    assert smin == pytest.approx(svals[-1], rel=1e-9)
    assert smax == pytest.approx(svals[0], rel=1e-14)
    assert lower_constant(A, 2.0).value == smin
    assert upper_constant(A, 2.0).value == smax


def test_tall_window_above_the_cut_off_matches_dense_svd():
    A = discretize_synthesis(corpus.hat_family(200), 5)
    n, m = A.shape
    assert n > 4 * DENSE_EIG_CUTOFF and m < DENSE_EIG_CUTOFF
    svals = scipy.linalg.svdvals(A.dense())
    smin, smax = stability._banded_singular_extremes(A)
    assert smin == pytest.approx(svals[-1], rel=1e-12)
    assert smax == pytest.approx(svals[0], rel=1e-12)
    assert _singular_extremes(A) == (smin, smax)


def test_lower_constant_requires_tall_matrices():
    s = IndexSet.integer_range(0, 3)
    wide = LocalizedMatrix(s.prefix(2), s, [0, 1], [0, 1], [1.0, 1.0])
    with pytest.raises(ValueError, match="rows >= cols"):
        lower_constant(wide, 2.0)


# ----------------------------------------------------------------------
# exact square windows at p = 1 and p = inf (inverse norms)


def _dense_inverse_lower(A, p):
    B = np.linalg.inv(A.dense())
    return 1.0 / np.abs(B).sum(axis=0 if p == 1.0 else 1).max()


@pytest.mark.parametrize("p", [1.0, math.inf])
def test_inverse_norm_matches_exact_enumeration(p):
    A = pinned_windows()["banded12"]
    est = lower_constant(A, p)
    assert est.certified and est.method == "inverse-norm"
    assert est.value == pytest.approx(enumeration_oracle(A, p, "banded12"), rel=1e-12)


@pytest.mark.parametrize("p", [1.0, math.inf])
def test_inverse_norm_matches_dense_inverse_on_large_window(p):
    n = 1300
    assert n > DENSE_EIG_CUTOFF and n > 2 * INVERSE_BLOCK_COLS
    A = corpus.banded_random(n, band=2, seed=5)
    window, _ = _square_inverse_lower(A, p)
    assert window == pytest.approx(_dense_inverse_lower(A, p), rel=1e-12)


@pytest.mark.parametrize("p", [1.0, math.inf])
def test_inverse_norm_of_singular_matrix_is_zero(p):
    A = corpus.banded_random(10, band=2, seed=9)
    dense = A.dense()
    dense[:, 3] = 0.0
    Z = LocalizedMatrix.from_dense(A.rows, A.cols, dense)
    est = lower_constant(Z, p)
    assert est == ConstantEstimate(0.0, True, "inverse-norm")


@pytest.mark.parametrize("p", [1.0, 1.5, math.inf])
def test_inverse_norm_of_window_with_zero_rows_is_zero(p):
    # half the rows of this prefix window are zero; SuperLU reports it as a
    # failed factorization, not as an exactly singular one
    A = corpus.permuted_rows(toeplitz([1, 3, 1], 32), seed=5).window_prefix(16, 16)
    assert (np.abs(A.dense()).sum(axis=1) == 0.0).sum() == 8
    est = lower_constant(A, p)
    assert est.certified and est.value == 0.0


@pytest.mark.parametrize("p", [1.0, math.inf])
def test_inverse_norm_overflow_is_numerical_error(p):
    # unit lower bidiagonal with subdiagonal 1e160: A^-1 holds 1e320
    s = IndexSet.integer_range(0, 2)
    A = LocalizedMatrix(s, s, [0, 1, 2, 1, 2], [0, 1, 2, 0, 1],
                        [1.0, 1.0, 1.0, 1e160, 1e160])
    with pytest.raises(NumericalError, match="inverse-norm solve"):
        lower_constant(A, p)


def _dense_interpolated_lower(A, p):
    # Riesz-Thorin for A^-1 between p = 2 and the end exponent on p's side
    smin = np.linalg.svd(A.dense(), compute_uv=False)[-1]
    if p < 2.0:
        theta = 2.0 / p - 1.0
        return _dense_inverse_lower(A, 1.0) ** theta * smin ** (1.0 - theta)
    theta = 2.0 / p
    return smin ** theta * _dense_inverse_lower(A, math.inf) ** (1.0 - theta)


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0, math.inf])
def test_square_windows_never_reach_descent_or_lps(p, monkeypatch, rng):
    def forbidden(*args, **kwargs):
        raise AssertionError("square windows must not search")

    monkeypatch.setattr(_accel, "descend_lp", forbidden)
    monkeypatch.setattr(stability, "linprog", forbidden)
    for A in (corpus.banded_random(10, band=2, seed=9), toeplitz([1, 3, 1], 40),
              corpus.permuted_rows(toeplitz([1, 3, 1], 64), seed=11)):
        est = lower_constant(A, p)
        assert est.certified
        if p in (1.0, math.inf):
            assert est.method == "inverse-norm"
            ref = _dense_inverse_lower(A, p)
        else:
            assert est.method == "interpolation-bound"
            ref = _dense_interpolated_lower(A, p)
        assert est.value == pytest.approx(ref, rel=1e-12)
        # a certified lower bound: no vector may beat it
        C = rng.standard_normal((100, A.shape[1]))
        for c in C:
            ratio = vector_pnorm(A.dense() @ c, p) / vector_pnorm(c, p)
            assert ratio >= est.value * (1.0 - 1e-12)


def test_interpolation_bound_sits_below_the_descent_on_square_windows():
    # the descent's value is an upper bound on the infimum, the
    # interpolation bound a lower one
    for w in (4, 8, 16):
        A = corpus.banded_random(w, band=2, seed=3)
        for p in (1.5, 3.0):
            est = lower_constant(A, p)
            assert est.value <= _multistart_lower(A, p) * (1.0 + 1e-9)


# ----------------------------------------------------------------------
# small tall windows at p = 1 and p = inf (one left-inverse linear program)


def _synth_gaussian_family(size):
    return GeneratorFamily(IndexSet.integer_range(0, size - 1),
                           (GaussianProfile(0.5),),
                           GaussianProfile(0.5 * math.sqrt(2.0)))


def _tall_lp_windows():
    cases = []
    for family, fam in (("hat", corpus.hat_family(8)),
                        ("gauss", _synth_gaussian_family(8))):
        for n0 in (3, 4):
            for w in (6, 8):
                name = f"{family}-n{n0}-w{w}"
                cases.append(pytest.param(
                    name, discretize_synthesis(fam.prefix(w), n0), id=name))
    pinned = pinned_windows()
    cases += [pytest.param(name, pinned[name], id=name)
              for name in ("hat12-n3", "banded12x10")]
    return cases


@pytest.mark.parametrize("p", [1.0, math.inf])
@pytest.mark.parametrize("name,A", _tall_lp_windows())
def test_left_inverse_lp_matches_enumeration(name, A, p):
    n, m = A.shape
    assert n > m and m <= LP_MAX_COLS
    est = lower_constant(A, p)
    assert est.certified and est.method == "left-inverse-lp"
    exact = enumeration_oracle(A, p, name)
    # a certified lower bound never exceeds the exact constant, and the
    # solver tolerance costs at most 1e-5 relative
    assert est.value <= exact * (1.0 + 1e-12)
    assert est.value >= exact * (1.0 - 1e-5)


@pytest.mark.parametrize("p", [1.0, math.inf])
def test_small_window_lp_constant_is_certified_lower_bound(p, rng):
    # square, so this takes the inverse norm; the tall variant below
    # reaches the linear programs
    A = corpus.banded_random(10, band=2, seed=9)
    est = lower_constant(A, p)
    assert est.certified
    # no vector may beat a certified enumeration
    for _ in range(300):
        c = rng.standard_normal(10)
        ratio = vector_pnorm(A.dense() @ c, p) / vector_pnorm(c, p)
        assert ratio >= est.value - 1e-10


@pytest.mark.parametrize("p", [1.0, math.inf])
def test_small_tall_window_lp_constant_is_certified_lower_bound(p, rng):
    A = corpus.banded_random(12, band=2, seed=9).window_prefix(12, 10)
    est = lower_constant(A, p)
    assert est.certified
    assert est.method == "left-inverse-lp"
    # no vector may beat a certified enumeration
    for _ in range(300):
        c = rng.standard_normal(10)
        ratio = vector_pnorm(A.dense() @ c, p) / vector_pnorm(c, p)
        assert ratio >= est.value - 1e-10


@pytest.mark.parametrize("p", [1.0, math.inf])
def test_left_inverse_lp_of_rank_deficient_window_is_zero(p):
    dense = corpus.banded_random(12, band=2, seed=9).dense()[:, :10]
    dense[:, 4] = 0.0
    s = IndexSet.integer_range(0, 11)
    A = LocalizedMatrix.from_dense(s, s.prefix(10), dense)
    assert lower_constant(A, p) == ConstantEstimate(0.0, True, "left-inverse-lp")


@pytest.mark.parametrize("p", [1.0, math.inf])
def test_unbounded_or_infeasible_left_inverse_lp_is_zero(p, monkeypatch):
    # Y = 0 is feasible, so HiGHS's "unbounded or infeasible" means unbounded
    A = corpus.banded_random(12, band=2, seed=9).window_prefix(12, 10)
    monkeypatch.setattr(stability, "linprog", lambda *a, **k: SimpleNamespace(
        status=4, message="The problem is unbounded or infeasible. (HiGHS Status 9)",
        ineqlin=SimpleNamespace(marginals=None)))
    assert _left_inverse_lower(A, p) == 0.0


@pytest.mark.parametrize("p", [1.0, math.inf])
def test_failing_left_inverse_lp_is_numerical_error(p, monkeypatch):
    A = corpus.banded_random(12, band=2, seed=9).window_prefix(12, 10)
    monkeypatch.setattr(stability, "linprog", lambda *a, **k: SimpleNamespace(
        status=4, message="numerical difficulties",
        ineqlin=SimpleNamespace(marginals=None)))
    with pytest.raises(NumericalError, match="left-inverse linear program failed"):
        lower_constant(A, p)
    # multipliers whose L has a residual ||LA - I|| of 1 certify nothing
    monkeypatch.setattr(stability, "linprog", lambda c, **k: SimpleNamespace(
        status=0, message="",
        ineqlin=SimpleNamespace(marginals=np.zeros(k["A_ub"].shape[0]))))
    with pytest.raises(NumericalError, match="residual"):
        _left_inverse_lower(A, p)


@pytest.mark.parametrize("p", [1.0, math.inf])
@pytest.mark.parametrize("name,A", _tall_lp_windows())
def test_left_inverse_lp_dual_matches_primal(name, A, p, monkeypatch):
    calls, inverses = [], []

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return linprog(*args, **kwargs)

    def keep(*args):
        inverses.append(left_inverse(*args))
        return inverses[-1]

    left_inverse = stability._left_inverse
    monkeypatch.setattr(stability, "linprog", spy)
    monkeypatch.setattr(stability, "_left_inverse", keep)
    value = _left_inverse_lower(A, p)
    assert len(calls) == 1
    L, = inverses
    axis = 0 if p == 1.0 else 1
    resid = float(np.abs(L @ A.dense() - np.eye(A.shape[1])).sum(axis=axis).max())
    assert resid <= 1e-8
    assert value == pytest.approx(
        (1.0 - resid) / float(np.abs(L).sum(axis=axis).max()), rel=1e-12)
    assert value >= oracles.left_inverse_primal(A, p) * (1.0 - 1e-6)


@st.composite
def centrosymmetric_tall_windows(draw):
    """An integer B = J B J with m from 2 to 9 columns and n - m from 1 to
    12 more rows (odd and even sizes, so rows and variables that are their
    own mirror occur), with or without a mirrored pair of zero rows."""
    m = draw(st.integers(2, 9))
    n = m + draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    H = rng.integers(-3, 4, (n, m)).astype(float)
    if draw(st.booleans()):
        z = draw(st.integers(0, n - 1))
        H[[z, n - 1 - z]] = 0.0
    return H + H[::-1, ::-1]


@settings(deadline=None, max_examples=100)
@given(centrosymmetric_tall_windows(), st.sampled_from([1.0, math.inf]))
def test_centrosymmetric_left_inverse_lp_is_folded(dense, p):
    n, m = dense.shape
    rows, cols = IndexSet.integer_range(0, n - 1), IndexSet.integer_range(0, m - 1)
    A = LocalizedMatrix.from_dense(rows, cols, dense)
    assume(np.linalg.matrix_rank(dense) == m)
    kept = int(np.count_nonzero(dense.any(axis=1)))
    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs["A_ub"].shape[0])
        return linprog(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stability, "linprog", spy)
        L = stability._left_inverse(A, p)
        value = _left_inverse_lower(A, p)
        assert calls[0] == 2 * ((m * kept + 1) // 2) + 1
        # one entry 1 ulp off the mirror takes the full LP
        nudged = dense.copy()
        r, c = np.argwhere(dense)[0]
        nudged[r, c] = np.nextafter(nudged[r, c], math.inf)
        _left_inverse_lower(LocalizedMatrix.from_dense(rows, cols, nudged), p)
        assert calls[2] == 2 * m * kept + 1
    primal = oracles.left_inverse_primal(A, p)
    assert value == pytest.approx(primal, rel=1e-6)
    # B's zero rows are mirrored too, so all of L is centrosymmetric
    assert np.array_equal(L, L[::-1, ::-1])
    axis = 0 if p == 1.0 else 1
    assert float(np.abs(L @ dense - np.eye(m)).sum(axis=axis).max()) <= 1e-8
    # B + BJ is centrosymmetric with columns c and m - 1 - c equal
    deficient = dense + dense[:, ::-1]
    if deficient.any():
        D = LocalizedMatrix.from_dense(rows, cols, deficient)
        assert _left_inverse_lower(D, p) == 0.0


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_one_column_window_is_its_column_norm(p, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a one-column window needs no solver")

    monkeypatch.setattr(_accel, "descend_lp", forbidden)
    monkeypatch.setattr(stability, "linprog", forbidden)
    A = corpus.banded_random(12, band=2, seed=9).window_prefix(12, 1)
    est = lower_constant(A, p)
    assert est.certified and est.method == "column-norm"
    assert est.value == pytest.approx(vector_pnorm(A.dense()[:, 0], p), rel=1e-15)
    # Ac = c a, so both constants are the norm
    assert upper_constant(A, p) == est


@pytest.mark.parametrize("p", [1.0, math.inf])
def test_multistart_agrees_with_exact_enumeration(p):
    A = corpus.banded_random(12, band=1, seed=4)
    exact = lower_constant(A, p)
    heur = _multistart_lower(A, p)
    assert exact.certified
    assert heur >= exact.value - 1e-9
    assert heur <= exact.value * 1.02 + 1e-9


def test_tall_multistart_is_deterministic_without_seed():
    # the descent starts are computed from the window, not drawn from a user
    # seed or from numpy's global random state
    A = toeplitz([1, 3, 1], 20).window_prefix(20, 16)
    a = lower_constant(A, 1.5)
    assert not a.certified and a.method == "multistart"
    for s in (1, 2):
        np.random.seed(s)
        assert lower_constant(toeplitz([1, 3, 1], 20).window_prefix(20, 16), 1.5) == a


def _wide_tall_windows():
    # tall, with more columns than the left-inverse LP takes
    windows = (toeplitz([1, 3, 1], 20).window_prefix(20, 16),
               corpus.banded_random(40, band=2, seed=3).window_prefix(40, 30),
               discretize_synthesis(corpus.hat_family(16), 3))
    assert all(LP_MAX_COLS < A.shape[1] < A.shape[0] for A in windows)
    return windows


def test_descent_draws_no_random_numbers(request):
    windows = _wide_tall_windows()
    # a ladder whose 30-column interior reaches the descent at every p != 2
    B = corpus.banded_random(32, band=2, seed=3)
    # and a tall p = 2 window above the cut-off
    big = discretize_synthesis(corpus.hat_family(200), 5)
    assert big.shape[0] > 4 * DENSE_EIG_CUTOFF
    request.getfixturevalue("no_random_draws")
    for A in windows:
        for p in (1.0, 1.5, math.inf):
            est = lower_constant(A, p)
            assert est.method == "multistart" and est.value > 0.0
    report = equivalence_report(B, [1.0, 1.5, 2.0, 3.0, math.inf], [16, 32])
    for p, rep in report.per_p.items():
        assert (rep.entries[-1].interior_method == "multistart") == (p != 2.0)
    assert lower_constant(big, 2.0).value > 0.0


def test_gram_inverse_start_beats_the_random_starts():
    A = toeplitz([1, 3, 1], 20).window_prefix(20, 16)
    est = lower_constant(A, 1.0)
    assert est.method == "multistart"
    # 1.0068953641861693 came from the p = 2 minimizer and 64 random starts;
    # the certified LP bound sits below every ratio a test vector reaches
    assert _left_inverse_lower(A, 1.0) <= est.value <= 1.0068953641861693


@pytest.mark.parametrize("scale", [0.0, 1e-160])
@pytest.mark.parametrize("p", [1.0, 1.5, math.inf])
def test_descent_skips_a_singular_gram_inverse(scale, p):
    # column 5 is zero, or so small that (A^T A)^-1 overflows: the descent
    # runs from the p = 2 minimizer alone, which is e_5 up to rounding
    dense = corpus.banded_random(24, band=2, seed=3).dense()[:, :18]
    dense[:, 5] *= scale
    s = IndexSet.integer_range(0, 23)
    A = LocalizedMatrix.from_dense(s, s.prefix(18), dense)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert stability._gram_inverse_start(A, p) is None
        est = lower_constant(A, p)
    assert est.method == "multistart"
    assert est.value == pytest.approx(0.0, abs=1e-12)


def test_upper_constant_interpolates_row_column_sums():
    A = toeplitz([1, 3, 1], 30)
    for p in (1.0, 2.0, math.inf):
        hi = upper_constant(A, p)
        assert hi.certified
        assert hi.value <= 5.0 + 1e-12  # max row/col sum


def test_interior_constant_discards_boundary_columns():
    A = toeplitz([1, 3, 1], 64)
    for p in (1.0, 2.0, math.inf):
        full = lower_constant(A, p)
        inner = lower_constant_interior(A, p)
        assert inner.value >= full.value * (1.0 - 1e-12)


# ----------------------------------------------------------------------
# square windows without one column at p = 1 and p = inf (codim-one)


def _random_tridiagonal(seed, n=10):
    d = np.random.default_rng(seed).standard_normal((3, n))
    dense = (np.diag(d[0] + 3.0 * np.sign(d[0])) + np.diag(d[1, 1:], -1)
             + np.diag(d[2, 1:], 1))
    s = IndexSet.integer_range(0, n - 1)
    return LocalizedMatrix.from_dense(s, s, dense)


def _codim_one_windows():
    cases = [pytest.param("t121-w12", toeplitz([1, 2, 1], 12), id="t121-w12"),
             pytest.param("t131-w12", toeplitz([1, 3, 1], 12), id="t131-w12"),
             pytest.param("banded-w12", corpus.banded_random(12, band=1, seed=2),
                          id="banded-w12")]
    cases += [pytest.param(None, _random_tridiagonal(seed), id=f"tridiag10-{seed}")
              for seed in range(4)]
    return cases


@pytest.mark.parametrize("p", [1.0, math.inf])
@pytest.mark.parametrize("name,A", _codim_one_windows())
def test_codim_one_matches_exact_enumeration(name, A, p):
    est = lower_constant_interior(A, p)
    assert est.certified and est.method == "codim-one"
    inner = _interior_window(A)
    assert inner.shape == (A.shape[0], A.shape[1] - 1)
    assert est.value == pytest.approx(enumeration_oracle(inner, p, name), rel=1e-12)


@pytest.mark.parametrize("p", [1.0, math.inf])
def test_codim_one_ladders_never_search(p, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("codimension-one interiors must not search")

    monkeypatch.setattr(_accel, "descend_lp", forbidden)
    monkeypatch.setattr(stability, "linprog", forbidden)
    monkeypatch.setattr(stability, "_min_singular_vector", forbidden)
    for A in (toeplitz([1, 2, 1], 64), toeplitz([1, 3, 1], 64),
              corpus.banded_random(64, band=1, seed=2)):
        rep = equivalence_report(A, [p], [16, 32, 64]).per_p[p]
        assert all(e.interior_certified and e.interior_method == "codim-one"
                   for e in rep.entries)


def test_codim_one_on_a_large_window_sits_between_its_bounds():
    n = 1280
    assert n > 2 * INVERSE_BLOCK_COLS
    A = corpus.banded_random(n, band=1, seed=2)
    tracemalloc.start()
    try:
        est = lower_constant_interior(A, math.inf)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.method == "codim-one"
    # no n x n array, dense inverse or identity alike
    assert peak < n * n * 8
    # dropping a column never lowers the constant, and the exact value sits
    # below the ratio any test vector reaches
    assert est.value >= lower_constant(A, math.inf).value
    inner = _interior_window(A)
    warm = stability._min_singular_vector(inner)
    F, _ = _accel.descend_lp(inner.csr(), warm[None, :], math.inf)
    assert est.value <= F[0]


@pytest.mark.parametrize("p", [1.0, math.inf])
def test_codim_one_with_underflowing_null_vector(p):
    # upper bidiagonal with two tiny couplings: the null vector v (row 0 of
    # A^-1) runs 1/2, -2.5e-161, then subnormals down to 1e-323, where
    # -U/v overflows
    n = 10
    dense = 2.0 * np.eye(n) + np.diag([1e-160, 1e-160] + [1.0] * (n - 3), 1)
    s = IndexSet.integer_range(0, n - 1)
    A = LocalizedMatrix.from_dense(s, s, dense)
    v = np.linalg.inv(dense)[0]
    assert v[-1] != 0.0 and abs(v[-1]) < np.finfo(float).tiny
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = lower_constant_interior(A, p)
    assert est.method == "codim-one"
    assert est.value == pytest.approx(enumeration_oracle(_interior_window(A), p),
                                      rel=1e-12)


@pytest.mark.parametrize("p", [1.0, math.inf])
def test_codim_one_singular_window_falls_back(p):
    # the dropped column is the zero one: the window is singular but its
    # interior has full rank
    A = _random_tridiagonal(5)
    dense = A.dense()
    dense[:, 0] = 0.0
    Z = LocalizedMatrix.from_dense(A.rows, A.cols, dense)
    assert lower_constant(Z, p).value == 0.0
    est = lower_constant_interior(Z, p)
    inner = _interior_window(Z)
    assert est == lower_constant(inner, p)
    assert est.method == "left-inverse-lp"
    exact = enumeration_oracle(inner, p)
    assert exact * (1.0 - 1e-5) <= est.value <= exact * (1.0 + 1e-12)


@st.composite
def banded_square_windows(draw):
    """A random banded square window with 2 to 300 columns, so that p = inf
    spans up to three solve blocks; about one in four has a zero column or
    row and is exactly singular."""
    n = draw(st.integers(2, 300))
    band = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    i, k = np.indices((n, n))
    dense = np.where(np.abs(i - k) <= band, rng.standard_normal((n, n)), 0.0)
    dense += np.diag(draw(st.floats(0.0, 2.0 * band)) * np.sign(dense.diagonal()))
    zero = draw(st.sampled_from([None, None, None, "row", "column"]))
    if zero is not None:
        at = draw(st.integers(0, n - 1))
        if zero == "row":
            dense[at] = 0.0
        else:
            dense[:, at] = 0.0
    s = IndexSet.integer_range(0, n - 1)
    return LocalizedMatrix.from_dense(s, s, dense), zero is not None


@settings(deadline=None, max_examples=60)
@given(banded_square_windows(), st.sampled_from([1.0, math.inf]), st.data())
def test_shared_pass_matches_the_two_routines_bit_for_bit(window, p, data):
    A, singular = window
    n = A.shape[0]
    j = None
    if p == math.inf or n <= INVERSE_BLOCK_COLS:
        j = data.draw(st.one_of(st.none(), st.integers(0, n - 1)))
    lower, inner = _square_inverse_lower(A, p, j)
    assert lower == oracles._inverse_norm_lower(A, p)
    assert inner == (None if j is None else oracles._codim_one_lower(A, j, p))
    if singular:
        assert (lower, inner) == (0.0, None)
    # the window's own constant reads the value the pass left in the cache
    assert lower_constant(A, p).value == lower


@st.composite
def integer_banded_windows(draw):
    """An integer banded square window with 2 to 12 columns, its rows
    permuted in about half the cases; about one in four has a zero row or
    column and is singular.  Every other one is nonsingular with a 1-norm
    condition number below 1e4, so its float constants keep twelve digits."""
    n = draw(st.integers(2, 12))
    band = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    i, k = np.indices((n, n))
    dense = np.where(np.abs(i - k) <= band, rng.integers(-3, 4, size=(n, n)), 0)
    dense[i == k] = rng.integers(-3 * band - 2, 3 * band + 3, size=n)
    zero = draw(st.sampled_from([None, None, None, "row", "column"]))
    at = draw(st.integers(0, n - 1))
    if zero == "row":
        dense[at] = 0
    elif zero == "column":
        dense[:, at] = 0
    if draw(st.booleans()):
        dense = dense[rng.permutation(n)]
    if zero is None:
        inv = oracles.exact_inverse(dense)
        assume(inv is not None)
        inv_norm = max(sum(abs(x) for x in col) for col in zip(*inv))
        assume(np.abs(dense).sum(axis=0).max() * inv_norm < 1e4)
    return dense


@settings(deadline=None, max_examples=150)
@given(integer_banded_windows(), st.sampled_from([1.0, math.inf]), st.data())
def test_inverse_norm_and_codim_one_match_an_exact_inverse(dense, p, data):
    # the references invert in fractions and call no locop code, so they
    # pin the band LU itself, row order included
    n = dense.shape[0]
    s = IndexSet.integer_range(0, n - 1)
    j = data.draw(st.integers(0, n - 1))
    A = LocalizedMatrix.from_dense(s, s, dense.astype(float))
    est = lower_constant(A, p)
    lower, inner = _square_inverse_lower(A, p, j)
    exact_inner = oracles.exact_codim_one_lower(dense, j, p)
    if exact_inner is None:
        assert est.value == 0.0 and (lower, inner) == (0.0, None)
        return
    exact = float(oracles.exact_inverse_norm_lower(dense, p))
    assert est.method == "inverse-norm"
    assert est.value == pytest.approx(exact, rel=1e-12) and lower == est.value
    assert inner == pytest.approx(float(exact_inner), rel=1e-12)


def test_inverse_decay_of_permuted_rows_matches_the_dense_inverse():
    # the band LU factors the rows in their own band order; its solves
    # must answer in the window's row order, or the profile's cells move
    A = corpus.permuted_rows(toeplitz([1, 3, 1], 64), seed=9)
    res = inverse_decay_profile(A, margin=16)
    B = LocalizedMatrix.from_dense(A.cols, A.rows, np.linalg.inv(A.dense()))
    keep = np.isin(B.i, stability.interior_column_indices(A, 16))
    ref = offset_profile(LocalizedMatrix(B.rows, B.cols, B.i[keep], B.j[keep],
                                         B.values[keep]))
    assert np.array_equal(res.profile.cells, ref.cells)
    np.testing.assert_allclose(res.profile.sups, ref.sups, rtol=0, atol=1e-13)


def test_band_lu_solves_in_the_windows_own_row_order():
    A = corpus.permuted_rows(toeplitz([1, 3, 1], 40), seed=21)
    solve = stability._square_lu(40, A.i, A.j, A.values)
    b = np.random.default_rng(0).standard_normal((40, 3))
    for trans, D in (("N", A.dense()), ("T", A.dense().T)):
        np.testing.assert_allclose(solve(b, trans), np.linalg.solve(D, b),
                                   rtol=1e-13, atol=1e-13)


def test_row_permuted_band_factors_in_its_own_band(monkeypatch):
    import scipy.linalg.lapack as lapack
    dgbtrf, bands = lapack.dgbtrf, []

    def recording(ab, kl, ku, **kwargs):
        bands.append(kl + ku)
        return dgbtrf(ab, kl, ku, **kwargs)

    monkeypatch.setattr(lapack, "dgbtrf", recording)
    A = corpus.banded_random(1280, band=1)
    P = corpus.permuted_rows(A, seed=3)
    assert lower_constant_interior(A, math.inf).method == "codim-one"
    want = _square_inverse_lower(A, math.inf, 0)
    got = _square_inverse_lower(P, math.inf, 0)
    assert max(bands) <= 2 and len(bands) == 3
    assert got == pytest.approx(want, rel=1e-15)


@st.composite
def rows_and_directions(draw):
    """Rows U and a direction v with max |v| = 1, up to 60 columns, past the
    length at which argsort stops keeping ties in order.  The data are real
    or integer-valued; integer-valued v is a multiple of 1/4, so tied
    breakpoints abound and every weight sum is exact whatever order the
    ties sort in.  v has exact zeros and subnormal entries, and U has
    all-zero rows."""
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        U = rng.integers(-3, 4, size=(m, n)).astype(float)
        v = rng.integers(-4, 5, size=n) / 4.0
    else:
        U = rng.standard_normal((m, n))
        v = rng.standard_normal(n)
        v /= np.abs(v).max()
    v[rng.random(n) < draw(st.floats(0.0, 0.9))] = 0.0
    tiny = rng.random(n) < draw(st.floats(0.0, 0.3))
    v[tiny] = rng.choice([5e-324, -1e-310, 2.0 ** -1030], size=tiny.sum())
    U[rng.random(m) < draw(st.floats(0.0, 0.5))] = 0.0
    v[draw(st.integers(0, n - 1))] = draw(st.sampled_from([1.0, -1.0]))
    return U, v


@settings(deadline=None, max_examples=300)
@given(rows_and_directions())
def test_median_over_the_support_of_v_matches_the_full_sort(Uv):
    # zero weights add exactly 0.0 to the cumulative sum, so sorting only
    # v's support picks the same breakpoint, and the sum runs over all of U
    U, v = Uv
    assert np.array_equal(stability._min_l1_along(U, v),
                          oracles._min_l1_along(U, v))


@pytest.mark.parametrize("build, p, counts", [
    (lambda: corpus.banded_random(300, band=1), math.inf,
     {"lu": 1, "solves": 4, "columns": 301}),
    (lambda: toeplitz([1, 3, 1], 64), 1.0, {"lu": 1, "solves": 1, "columns": 64})],
    ids=["banded300-pinf", "t131-w64-p1"])
def test_window_and_interior_share_one_lu_and_one_pass(build, p, counts, count_lu):
    A = build()
    (e,) = equivalence_report(A, [p], [A.shape[0]]).per_p[p].entries
    assert (e.method, e.interior_method) == ("inverse-norm", "codim-one")
    assert count_lu == counts


def test_codim_one_at_p1_only_while_one_block_holds_the_inverse(monkeypatch):
    n = INVERSE_BLOCK_COLS + 2
    A = toeplitz([1, 3, 1], n)
    calls = []
    monkeypatch.setattr(stability, "lower_constant",
                        lambda B, p: calls.append(B.shape) or "today's path")
    assert lower_constant_interior(A, 1.0) == "today's path"
    assert calls == [(n, n - 1)]
    assert lower_constant_interior(A, math.inf).method == "codim-one"
    assert len(calls) == 1


# ----------------------------------------------------------------------
# ladders and verdicts


def test_ladder_verdict_classification():
    assert ladder_verdict([1.0, 0.999, 0.9995]) == "stabilized"
    assert ladder_verdict([1.0, 0.6, 0.35]) == "degenerating"
    assert ladder_verdict([1.0]) == "undetermined"
    assert ladder_verdict([0.5, 0.2]) != "stabilized"


def test_stability_ladder_stable_matrix():
    A = toeplitz([1, 3, 1], 128)
    rep = equivalence_report(A, [2.0], [32, 64, 128]).per_p[2.0]
    assert rep.verdict == "stabilized"
    assert [e.window for e in rep.entries] == [32, 64, 128]
    assert all(e.lower_certified for e in rep.entries)
    assert rep.entries[-1].lower > 0.99


def test_stability_ladder_degenerating_matrix():
    # symbol 2 + 2cos xi vanishes at pi: the finite sections lose their
    # smallest singular value like 1/n^2
    A = toeplitz([1, 2, 1], 128)
    rep = equivalence_report(A, [2.0], [32, 64, 128]).per_p[2.0]
    assert rep.verdict == "degenerating"
    assert rep.entries[2].lower < 0.55 * rep.entries[1].lower


@pytest.mark.parametrize("windows, match", [
    ([32, 16], "strictly increasing"), ([16, 16], "strictly increasing"),
    ([16, 128], r"\[1, 64\]"), ([0, 16], r"\[1, 64\]"), ([], "empty")])
def test_prefix_windows_rejects_bad_sizes(windows, match):
    A = toeplitz([1, 3, 1], 64)
    with pytest.raises(ValueError, match=match):
        stability._prefix_windows(A, windows)
    with pytest.raises(ValueError, match=match):
        equivalence_report(A, [2.0], windows)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, math.inf])
def test_ladder_entries_are_the_window_constants(p):
    A = corpus.banded_random(40, band=2, seed=5)
    windows = [10, 20, 40]
    rep = equivalence_report(A, [p], windows).per_p[p]
    assert rep.p == p and [e.window for e in rep.entries] == windows
    for w, e in zip(windows, rep.entries):
        W = A.window_prefix(w, w)
        lo, hi = lower_constant(W, p), upper_constant(W, p)
        inner = lower_constant_interior(W, p)
        assert (e.lower, e.lower_certified, e.method) == (lo.value, lo.certified,
                                                          lo.method)
        assert (e.upper, e.upper_certified) == (hi.value, hi.certified)
        assert (e.interior_lower, e.interior_certified, e.interior_method) == (
            inner.value, inner.certified, inner.method)


@pytest.mark.parametrize("entry_type, extra", [
    (LadderEntry, dict(interior_lower=None, interior_certified=None,
                       interior_method=None)),
    (SynthesisEntry, dict(n0=3, bias_bound=None)),
    (PerturbedEntry, dict(n=3, uncertainty=None))])
def test_every_entry_type_rejects_lower_above_upper(entry_type, extra):
    fields = dict(window=8, lower_certified=True, upper_certified=True,
                  method="singular-value", **extra)
    entry_type(lower=1.0, upper=1.0, **fields)
    with pytest.raises(ValueError, match="lower constant exceeds upper"):
        entry_type(lower=1.001, upper=1.0, **fields)


def test_equivalence_report_consistent_for_symmetric_toeplitz():
    A = toeplitz([1, 3, 1], 96)
    eq = equivalence_report(A, [1.0, 2.0, math.inf], [24, 48, 96])
    assert eq.consistent
    assert set(eq.verdicts.values()) == {"stabilized"}
    assert eq.counterexample_candidates == []


@pytest.mark.parametrize("ps", [[2, 2.0], [1, math.inf, "oo"]])
def test_equivalence_report_rejects_a_repeated_exponent(ps):
    # per_p holds one ladder per distinct exponent, so a repeat would leave
    # ps and per_p disagreeing
    with pytest.raises(ValueError, match="repeats"):
        equivalence_report(toeplitz([1, 3, 1], 32), ps, [8, 16])


def test_row_permutation_leaves_constants_unchanged():
    A = toeplitz([1, 3, 1], 48)
    P = corpus.permuted_rows(A, seed=21)
    for p in (1.0, 2.0, math.inf):
        a = lower_constant(A, p)
        b = lower_constant(P, p)
        # p-norms never see the output order; only summation order may differ
        assert a.value == pytest.approx(b.value, rel=5e-13)


# ----------------------------------------------------------------------
# convolution symbol certificates


def test_symbol_certificate_stable_filter():
    cert = convolution_stability([-1, 0, 1], [1.0, 3.0, 1.0], grid_size=1 << 16)
    assert cert.verdict == "stable"
    assert cert.real_symbol and not cert.sign_change
    lo, hi = cert.certified_min_interval
    assert 0.999 <= lo <= hi <= 1.0
    assert cert.lipschitz_bound == 2.0


def test_symbol_certificate_vanishing_filter():
    cert = convolution_stability([-1, 0, 1], [1.0, 2.0, 1.0], grid_size=1 << 16)
    assert cert.verdict == "unstable"
    lo, hi = cert.certified_min_interval
    assert lo <= 0.0 <= hi
    assert cert.argmin == pytest.approx(math.pi, rel=1e-3)


def test_symbol_certificate_complex_asymmetric():
    # one-sided filter a(0)=1, a(1)=-1: |symbol| = 2|sin(xi/2)| vanishes at 0
    cert = convolution_stability([0, 1], [1.0, -1.0], grid_size=1 << 16)
    assert not cert.real_symbol
    assert cert.verdict == "unstable"


def test_symbol_certificate_rejects_bad_input():
    with pytest.raises(ValueError, match="duplicate"):
        convolution_stability([0, 0], [1.0, 2.0])
    with pytest.raises(ValueError, match="grid_size"):
        convolution_stability([-4, 0, 4], [1.0, 3.0, 1.0], grid_size=16)


def test_symbol_matches_the_direct_sum_on_a_small_grid():
    rng = np.random.default_rng(5)
    offs = np.arange(-30, 31)
    values = rng.standard_normal(offs.size)
    cert = convolution_stability(offs, values, grid_size=257)
    xi = 2.0 * np.pi * np.arange(257) / 257
    direct = np.abs(np.exp(-1j * np.outer(xi, offs)) @ values.astype(complex))
    assert cert.grid_min == pytest.approx(direct.min(), abs=1e-12)
    assert cert.argmin == xi[np.argmin(direct)]


@pytest.mark.parametrize("grid", [256, 257])
@pytest.mark.parametrize("symmetric", [True, False])
def test_symbol_is_bit_identical_to_scipy_fft(grid, symmetric):
    import scipy.fft

    rng = np.random.default_rng(11)
    offs = np.arange(-20, 21)
    values = rng.standard_normal(offs.size)
    if symmetric:
        values = values + values[::-1]
    cert = convolution_stability(offs, values, grid_size=grid)
    wrapped = np.zeros(grid)
    wrapped[offs % grid] = values
    symbol = scipy.fft.fft(wrapped)
    mags = np.abs(symbol)
    assert cert.grid_min == mags.min()
    assert cert.argmin == 2.0 * np.pi * int(np.argmin(mags)) / grid
    assert cert.real_symbol == symmetric
    re = symbol.real
    assert cert.sign_change == (symmetric and bool((re * np.roll(re, -1) < 0).any()))


def test_symbol_memory_does_not_grow_with_grid_times_taps():
    # the grid x taps exponential matrix peaked at 802 MiB for 401 taps
    import tracemalloc
    offs = np.arange(-200, 201)
    values = 1.0 / (1.0 + np.abs(offs))
    tracemalloc.start()
    try:
        cert = convolution_stability(offs, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.grid_size == 65536
    assert peak < 64 * 2 ** 20


@settings(deadline=None, max_examples=30)
@given(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=5))
def test_certified_interval_contains_sampled_symbol_minimum(values):
    if not any(abs(v) > 1e-6 for v in values):
        values = values + [1.0]
    offs = list(range(len(values)))
    cert = convolution_stability(offs, values, grid_size=4096)
    xi = np.linspace(0, 2 * np.pi, 777)
    sym = np.abs(np.exp(-1j * np.outer(xi, offs)) @ np.asarray(values, complex))
    lo, hi = cert.certified_min_interval
    assert sym.min() >= lo - 1e-12
    assert hi <= sym.min() + 1e-12 or hi == pytest.approx(cert.grid_min)


# ----------------------------------------------------------------------
# inverse decay


def test_inverse_decay_rate_toeplitz131():
    A = toeplitz([1, 3, 1], 101)
    res = inverse_decay_profile(A, margin=25)
    # the symmetric symbol 3 + 2cos factors with root (3 - sqrt 5) / 2
    assert res.rate == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0, abs=0.01)
    assert res.fit_residual < 0.1
    assert res.usable_offsets >= 10


def test_inverse_decay_profile_matches_the_dense_inverse():
    # 300 columns: three solve blocks, with interior rows in each
    A = corpus.banded_random(300, band=2, seed=7)
    assert A.shape[1] > 2 * INVERSE_BLOCK_COLS
    res = inverse_decay_profile(A, margin=40)
    B = LocalizedMatrix.from_dense(A.cols, A.rows, np.linalg.inv(A.dense()))
    rows = stability.interior_column_indices(A, 40)
    assert rows[0] < INVERSE_BLOCK_COLS and rows[-1] >= 2 * INVERSE_BLOCK_COLS
    keep = np.isin(B.i, rows)
    ref = offset_profile(LocalizedMatrix(B.rows, B.cols, B.i[keep], B.j[keep],
                                         B.values[keep]))
    assert np.array_equal(res.profile.cells, ref.cells)
    np.testing.assert_allclose(res.profile.sups, ref.sups, rtol=1e-9)
    smin, smax = _singular_extremes(A)
    assert res.condition == smax / smin


def test_inverse_decay_checks_margin():
    A = toeplitz([1, 3, 1], 21)
    with pytest.raises(ValueError):
        inverse_decay_profile(A, margin=11)  # no interior left


# ----------------------------------------------------------------------
# density counting


def lattice_1d(step, lo, hi):
    pts = np.arange(lo, hi + step / 2, step, dtype=float)
    return IndexSet(1, pts, window=[[float(lo), float(hi + 1)]])


def test_density_sparse_rows_fail():
    rows = lattice_1d(2.0, 0, 120)   # 2Z
    cols = lattice_1d(1.0, 0, 120)   # Z
    verdicts = density_check(rows, cols, 3.0, [[10.0, 90.0]])
    assert len(verdicts) == 1
    v = verdicts[0]
    assert not v.passed
    assert v.cols_in_box == 81      # integers in [10, 90]
    assert v.rows_in_neighborhood == 43  # even integers in (7, 93)


def test_density_equal_sets_pass_everywhere():
    rows = lattice_1d(1.0, 0, 120)
    cols = lattice_1d(1.0, 0, 120)
    boxes = [[0.0, 120.0], [10.0, 90.0], [55.0, 56.0], [17.25, 17.75]]
    for v in density_check(rows, cols, 3.0, boxes):
        assert v.passed
        assert v.rows_in_neighborhood >= v.cols_in_box


def test_density_rejects_bad_inputs():
    rows = lattice_1d(1.0, 0, 10)
    with pytest.raises(ValueError, match="r0"):
        density_check(rows, rows, 0.0, [[0.0, 5.0]])
    with pytest.raises(ValueError, match="box"):
        density_check(rows, rows, 1.0, [[5.0, 0.0]])


if __name__ == "__main__":
    # print the ORTHANT_EXACT table afresh (2^(m-1) LPs per window)
    for name, A in pinned_windows().items():
        print(f"    {name!r}: {orthant_lp_min_l1(A)!r},")
