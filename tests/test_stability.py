import itertools
import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from locop import _accel, corpus, stability
from locop.errors import NumericalError
from locop.lattice import IndexSet
from locop.matalg import LocalizedMatrix, vector_pnorm
from locop.profiles import GaussianProfile
from locop.stability import (DENSE_EIG_CUTOFF, INVERSE_BLOCK_COLS,
                             LP_MAX_COLS, ConstantEstimate,
                             _gram_smallest, _inverse_norm_lower,
                             _iterative_singular_extremes,
                             _left_inverse_lower, _multistart_lower,
                             convolution_stability, density_check,
                             equivalence_report, inverse_decay_profile,
                             ladder_verdict, lower_constant,
                             lower_constant_interior, stability_ladder,
                             upper_constant)
from locop.synthesis import GeneratorFamily, discretize_synthesis


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


def enumeration_oracle(A, p):
    return orthant_lp_min_l1(A) if p == 1.0 else face_lp_min_linf(A)


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


def test_p2_lower_and_upper_share_one_svd(monkeypatch):
    calls = []
    svdvals = scipy.linalg.svdvals

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return svdvals(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "svdvals", counting)
    A = toeplitz([1, 3, 1], 40)
    lo = lower_constant(A, 2.0)
    hi = upper_constant(A, 2.0)
    assert calls == [(40, 40)]
    s = svdvals(A.dense())
    assert (lo.value, hi.value) == (s[-1], s[0])
    # a second matrix with the same entries gets its own solve
    upper_constant(toeplitz([1, 3, 1], 40), 2.0)
    assert len(calls) == 2


def test_p2_iterative_path_matches_dense_oracle():
    # window above the dense cutoff takes the sparse path; the banded
    # bisection eigensolver must agree with the closed form
    n = 1400
    A = toeplitz([1, 3, 1], n)
    lo = lower_constant(A, 2.0)
    assert lo.value == pytest.approx(3.0 - 2.0 * math.cos(math.pi / (n + 1)), rel=1e-9)


def test_gram_smallest_banded_vs_dense(rng):
    A = corpus.banded_random(60, band=3, seed=2)
    G = (A.csr().T @ A.csr()).tocsr()
    lam, _ = _gram_smallest(G)
    ref = scipy.linalg.eigvalsh(G.toarray())[0]
    assert lam == pytest.approx(ref, rel=1e-12, abs=1e-12)
    lam2, vec = _gram_smallest(G, return_vector=True)
    assert lam2 == pytest.approx(ref, rel=1e-12, abs=1e-12)
    resid = np.linalg.norm(G @ vec - lam2 * vec)
    assert resid <= 1e-8 * max(1.0, abs(lam2))


def test_iterative_singular_extremes_ignore_global_random_state():
    # ARPACK draws its start vector from numpy's global state unless given one
    A = corpus.banded_random(1280, band=1, seed=2)
    results = set()
    for s in range(1, 7):
        np.random.seed(s)
        results.add(_iterative_singular_extremes(A))
    assert len(results) == 1


def test_gram_smallest_wide_band_ignores_global_random_state():
    # bandwidth above BANDED_EIG_MAX_BAND takes the shift-invert eigsh path
    n = 1300
    G = sp.diags(np.arange(1.0, n + 1.0)).tolil()
    G[0, n - 1] = G[n - 1, 0] = 0.5
    G = G.tocsr()
    results = set()
    for s in range(1, 4):
        np.random.seed(s)
        lam, vec = _gram_smallest(G, return_vector=True)
        results.add((lam, vec.tobytes()))
    assert len(results) == 1
    assert lam == pytest.approx(scipy.linalg.eigvalsh(G.toarray())[0], rel=1e-12)


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
    A = corpus.banded_random(12, band=1, seed=4)
    est = lower_constant(A, p)
    assert est.certified and est.method == "inverse-norm"
    assert est.value == pytest.approx(enumeration_oracle(A, p), rel=1e-12)


@pytest.mark.parametrize("p", [1.0, math.inf])
def test_inverse_norm_matches_dense_inverse_on_large_window(p):
    n = 1300
    assert n > DENSE_EIG_CUTOFF and n > 2 * INVERSE_BLOCK_COLS
    A = corpus.banded_random(n, band=2, seed=5)
    assert _inverse_norm_lower(A, p) == pytest.approx(
        _dense_inverse_lower(A, p), rel=1e-12)


@pytest.mark.parametrize("p", [1.0, math.inf])
def test_inverse_norm_of_singular_matrix_is_zero(p):
    A = corpus.banded_random(10, band=2, seed=9)
    dense = A.dense()
    dense[:, 3] = 0.0
    Z = LocalizedMatrix.from_dense(A.rows, A.cols, dense)
    est = lower_constant(Z, p)
    assert est == ConstantEstimate(0.0, True, "inverse-norm")


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
    for name, fam in (("hat", corpus.hat_family(8)),
                      ("gauss", _synth_gaussian_family(8))):
        for n0 in (3, 4):
            for w in (6, 8):
                cases.append(pytest.param(discretize_synthesis(fam.prefix(w), n0),
                                          id=f"{name}-n{n0}-w{w}"))
    cases.append(pytest.param(discretize_synthesis(corpus.hat_family(12), 3),
                              id="hat12-n3"))
    cases.append(pytest.param(
        corpus.banded_random(12, band=2, seed=9).window_prefix(12, 10),
        id="banded12x10"))
    return cases


@pytest.mark.parametrize("p", [1.0, math.inf])
@pytest.mark.parametrize("A", _tall_lp_windows())
def test_left_inverse_lp_matches_enumeration(A, p):
    n, m = A.shape
    assert n > m and m <= LP_MAX_COLS
    est = lower_constant(A, p)
    assert est.certified and est.method == "left-inverse-lp"
    exact = enumeration_oracle(A, p)
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
def test_failing_left_inverse_lp_is_numerical_error(p, monkeypatch):
    A = corpus.banded_random(12, band=2, seed=9).window_prefix(12, 10)
    monkeypatch.setattr(stability, "linprog", lambda *a, **k: SimpleNamespace(
        status=4, message="numerical difficulties", x=None))
    with pytest.raises(NumericalError, match="left-inverse linear program failed"):
        lower_constant(A, p)
    # a "solution" whose residual ||LA - I|| reaches 1 certifies nothing
    monkeypatch.setattr(stability, "linprog", lambda c, **k: SimpleNamespace(
        status=0, message="", x=np.zeros(c.size)))
    with pytest.raises(NumericalError, match="residual"):
        _left_inverse_lower(A, p)


@pytest.mark.parametrize("p", [1.0, math.inf])
def test_multistart_agrees_with_exact_enumeration(p):
    A = corpus.banded_random(12, band=1, seed=4)
    exact = lower_constant(A, p)
    heur = _multistart_lower(A, p)
    assert exact.certified
    assert heur >= exact.value - 1e-9
    assert heur <= exact.value * 1.02 + 1e-9


def test_tall_multistart_is_deterministic_without_seed():
    # the descent starts come from a fixed generator, not from a user seed
    # or from numpy's global random state
    A = toeplitz([1, 3, 1], 20).window_prefix(20, 16)
    a = lower_constant(A, 1.5)
    assert not a.certified and a.method == "multistart"
    for s in (1, 2):
        np.random.seed(s)
        assert lower_constant(toeplitz([1, 3, 1], 20).window_prefix(20, 16), 1.5) == a


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


def _interior_window(A):
    idx = stability.interior_column_indices(A, A.band())
    sub = A.csr()[:, idx].tocoo()
    return LocalizedMatrix(A.rows, A.cols.restrict(idx), sub.row, sub.col, sub.data)


def _random_tridiagonal(seed, n=10):
    d = np.random.default_rng(seed).standard_normal((3, n))
    dense = (np.diag(d[0] + 3.0 * np.sign(d[0])) + np.diag(d[1, 1:], -1)
             + np.diag(d[2, 1:], 1))
    s = IndexSet.integer_range(0, n - 1)
    return LocalizedMatrix.from_dense(s, s, dense)


def _codim_one_windows():
    cases = [pytest.param(toeplitz([1, 2, 1], 12), id="t121-w12"),
             pytest.param(toeplitz([1, 3, 1], 12), id="t131-w12"),
             pytest.param(corpus.banded_random(12, band=1, seed=2), id="banded-w12")]
    cases += [pytest.param(_random_tridiagonal(seed), id=f"tridiag10-{seed}")
              for seed in range(4)]
    return cases


@pytest.mark.parametrize("p", [1.0, math.inf])
@pytest.mark.parametrize("A", _codim_one_windows())
def test_codim_one_matches_exact_enumeration(A, p):
    est = lower_constant_interior(A, p)
    assert est.certified and est.method == "codim-one"
    inner = _interior_window(A)
    assert inner.shape == (A.shape[0], A.shape[1] - 1)
    assert est.value == pytest.approx(enumeration_oracle(inner, p), rel=1e-12)


@pytest.mark.parametrize("p", [1.0, math.inf])
def test_codim_one_ladders_never_search(p, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("codimension-one interiors must not search")

    monkeypatch.setattr(_accel, "descend_lp", forbidden)
    monkeypatch.setattr(stability, "linprog", forbidden)
    monkeypatch.setattr(stability, "_min_singular_vector", forbidden)
    for A in (toeplitz([1, 2, 1], 64), toeplitz([1, 3, 1], 64),
              corpus.banded_random(64, band=1, seed=2)):
        rep = stability_ladder([A.window_prefix(w, w) for w in (16, 32, 64)], p)
        assert all(est.certified and est.method == "codim-one"
                   for est in rep.interior_lower)


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
    ladder = [A.window_prefix(w, w) for w in (32, 64, 128)]
    rep = stability_ladder(ladder, 2.0)
    assert rep.verdict == "stabilized"
    assert rep.window_sizes == [32, 64, 128]
    assert all(rep.lower_certified)
    assert rep.lower_constants[-1] > 0.99


def test_stability_ladder_degenerating_matrix():
    # symbol 2 + 2cos xi vanishes at pi: the finite sections lose their
    # smallest singular value like 1/n^2
    A = toeplitz([1, 2, 1], 128)
    ladder = [A.window_prefix(w, w) for w in (32, 64, 128)]
    rep = stability_ladder(ladder, 2.0)
    assert rep.verdict == "degenerating"
    assert rep.lower_constants[2] < 0.55 * rep.lower_constants[1]


def test_stability_ladder_rejects_non_nested():
    A = toeplitz([1, 3, 1], 64)
    B = toeplitz([1, 4, 1], 32)
    with pytest.raises(ValueError, match="nested"):
        stability_ladder([B, A], 2.0)


def test_equivalence_report_consistent_for_symmetric_toeplitz():
    A = toeplitz([1, 3, 1], 96)
    ladder = [A.window_prefix(w, w) for w in (24, 48, 96)]
    eq = equivalence_report(ladder, [1.0, 2.0, math.inf])
    assert eq.consistent
    assert set(eq.verdicts.values()) == {"stabilized"}
    assert eq.counterexample_candidates == []


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
