import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locop import corpus
from locop.errors import InvariantViolation
from locop.lattice import CutoffOperator, IndexSet, separation_constant
from locop.matalg import (LocalizedMatrix, abs_sums, commutator_with_cutoff,
                          group_max, offset_profile,
                          schur_norm, sjostrand_norm, slant_norm, toeplitz_entries,
                          truncate, truncation_tail, vector_pnorm)
from locop.stability import lower_constant, upper_constant


def small(sequence=(1, 3, 1), window=8):
    return corpus.toeplitz_matrix(list(sequence), window)


# ----------------------------------------------------------------------
# construction and views


def test_shape_nnz_band(t131_64):
    assert t131_64.shape == (64, 64)
    assert t131_64.nnz == 3 * 64 - 2
    assert t131_64.band() == 1.0


def test_dense_matches_entries():
    A = small(window=5)
    D = A.dense()
    assert D.shape == (5, 5)
    assert D[0, 0] == 3.0 and D[0, 1] == 1.0 and D[1, 0] == 1.0
    assert D[0, 2] == 0.0
    assert np.allclose(D, D.T)


def test_duplicate_entries_rejected():
    s = IndexSet.integer_range(0, 2)
    with pytest.raises(ValueError):
        LocalizedMatrix(s, s, [0, 0], [1, 1], [1.0, 2.0])


def test_sorted_entries_with_a_duplicate_are_rejected():
    # non-decreasing but not strictly increasing: the sort is not skipped
    s = IndexSet.integer_range(0, 3)
    with pytest.raises(ValueError, match=r"duplicate entry at \(1, 2\)"):
        LocalizedMatrix(s, s, [0, 1, 1, 2], [0, 2, 2, 1], [1.0, 2.0, 3.0, 4.0])


def test_json_round_trip(t131_64):
    again = LocalizedMatrix.from_json_dict(t131_64.to_json_dict())
    assert np.array_equal(again.dense(), t131_64.dense())


def test_from_dense_rejects_nan_entry():
    # a NaN used to be dropped with the zeros: the 3 x 3 matrix below came
    # out with 6 entries and a p = 2 lower constant of 0.732 labelled certified
    s = IndexSet.integer_range(0, 2)
    dense = np.array([[2.0, 1.0, 0.0], [1.0, np.nan, 1.0], [0.0, 1.0, 2.0]])
    with pytest.raises(InvariantViolation, match=r"non-finite entry .* at \(1, 1\)"):
        LocalizedMatrix.from_dense(s, s, dense)


@pytest.mark.parametrize("bad,text", [(np.nan, "nan"), (-np.inf, "-inf")])
def test_non_finite_entry_message_prints_the_plain_number(bad, text):
    s = IndexSet.integer_range(0, 1)
    with pytest.raises(InvariantViolation) as err:
        LocalizedMatrix(s, s, [0, 1], [0, 1], [1.0, bad])
    assert str(err.value) == f"non-finite entry {text} at (1, 1)"


def test_fractional_index_message_prints_the_plain_number():
    s = IndexSet.integer_range(0, 1)
    with pytest.raises(InvariantViolation) as err:
        LocalizedMatrix(s, s, [0, 0.5], [0, 1], [1.0, 2.0])
    assert str(err.value) == "row index 0.5 is not an integer"


def test_window_prefix_is_leading_block():
    A = small(window=10)
    B = A.window_prefix(6, 6)
    assert B.shape == (6, 6)
    assert np.array_equal(B.dense(), A.dense()[:6, :6])


# ----------------------------------------------------------------------
# the COO forms against the CSR forms they replace, bit for bit


@st.composite
def scattered_matrices(draw):
    """A LocalizedMatrix between 1-D or 2-D index sets of up to 12 points
    stored in random order, with at least one empty row and one empty
    column and magnitudes spread over six decades."""
    dim, n, m = draw(st.integers(1, 2)), draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))

    def index_set(k):
        flat = rng.choice(16, size=k, replace=False)
        pts = np.stack(np.unravel_index(flat, (4, 4)) if dim == 2 else (flat,), axis=1)
        return IndexSet(dim, pts.astype(float), [[0.0, 16.0 / 4 ** (dim - 1)]] * dim)

    mask = rng.random((n, m)) < draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    mask[rng.integers(n)] = False
    mask[:, rng.integers(m)] = False
    i, j = np.nonzero(mask)
    values = rng.standard_normal(i.size) * 10.0 ** rng.integers(-3, 3, i.size)
    return LocalizedMatrix(index_set(n), index_set(m), rng.permutation(n)[i], j, values)


def _same_entries(A, B):
    return (A.rows == B.rows and A.cols == B.cols
            and all(a.tobytes() == b.tobytes()
                    for a, b in ((A.i, B.i), (A.j, B.j), (A.values, B.values))))


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 20).flatmap(lambda mid: st.tuples(
    st.lists(st.floats(-1e3, 1e3), min_size=2 * mid + 1, max_size=2 * mid + 1),
    st.integers(0, 2 * mid + 3))))
def test_toeplitz_entries_are_the_clipped_band_in_row_order(case):
    # odd tables of length 1..41 on windows narrower and wider than the band
    table, n = case
    mid = len(table) // 2
    ii, jj, vv = toeplitz_entries(table, n)
    want = [(i, j, table[mid + i - j]) for i in range(n) for j in range(n)
            if abs(i - j) <= mid]
    assert list(zip(ii.tolist(), jj.tolist(), vv.tolist())) == want


@settings(deadline=None, max_examples=80)
@given(scattered_matrices())
def test_abs_sums_equal_the_csr_products(A):
    absA = abs(A.csr())
    row, col = abs_sums(A)
    assert row.tobytes() == (absA @ np.ones(A.shape[1])).tobytes()
    assert col.tobytes() == (absA.T @ np.ones(A.shape[0])).tobytes()
    assert schur_norm(A) == max(row.max(), col.max())
    if A.nnz and A.shape[1] > 1:
        assert upper_constant(A, 1).value == col.max()
        assert upper_constant(A, math.inf).value == row.max()


@settings(deadline=None, max_examples=80)
@given(scattered_matrices(), st.integers(0, 2 ** 31 - 1))
def test_shuffled_and_sorted_entries_build_the_same_matrix(A, seed):
    # sorted entries skip the sort; a shuffled copy is sorted into them
    perm = np.random.default_rng(seed).permutation(A.nnz)
    shuffled = LocalizedMatrix(A.rows, A.cols, A.i[perm], A.j[perm], A.values[perm])
    in_order = LocalizedMatrix(A.rows, A.cols, A.i, A.j, A.values)
    assert _same_entries(shuffled, in_order) and _same_entries(in_order, A)


@settings(deadline=None, max_examples=80)
@given(scattered_matrices(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_window_prefix_equals_the_csr_slice(A, fr, fc):
    r, c = round(fr * A.shape[0]), round(fc * A.shape[1])
    sub = A.csr()[:r, :c].tocoo()
    ref = LocalizedMatrix(A.rows.prefix(r), A.cols.prefix(c), sub.row, sub.col, sub.data)
    assert _same_entries(A.window_prefix(r, c), ref)


@settings(deadline=None, max_examples=80)
@given(scattered_matrices(), st.integers(0, 2 ** 31 - 1))
def test_column_restriction_equals_the_csr_slice(A, seed):
    keep = np.random.default_rng(seed).random(A.shape[1]) < 0.5
    idx = np.flatnonzero(keep)
    sub = A.csr()[:, idx].tocoo()
    ref = LocalizedMatrix(A.rows, A.cols.restrict(idx), sub.row, sub.col, sub.data)
    assert _same_entries(A.restrict_cols(idx), ref)


@settings(deadline=None, max_examples=80)
@given(scattered_matrices(), st.sampled_from([1.0, 1.5, 2.0, math.inf]))
def test_column_norm_reads_the_csr_data(A, p):
    for k in range(A.shape[1]):
        a = A.restrict_cols(np.array([k]))
        if a.nnz:
            ref = vector_pnorm(a.csr().data, p)
            assert lower_constant(a, p).value == upper_constant(a, p).value == ref


# ----------------------------------------------------------------------
# norms


def test_offset_profile_of_banded_toeplitz():
    prof = offset_profile(small(window=12))
    assert len(prof) == 3
    assert prof.cells.tolist() == [[-1], [0], [1]]
    assert prof.sups.tolist() == [1.0, 3.0, 1.0]


def test_schur_and_sjostrand_norms():
    A = small(window=12)
    # row/column sums are 5; the three offset cells carry sups 1, 3, 1
    assert schur_norm(A) == 5.0
    assert sjostrand_norm(A) == 5.0


def test_sjostrand_pays_each_offset_cell_once():
    # two unit entries share the offset cell [0, 1): the cell-sup norm
    # charges the sup once, while the column sum sees both
    s = IndexSet(1, [0.0, 0.4, 1.0], window=[[0.0, 2.0]])
    A = LocalizedMatrix(s, s, [0, 1, 2], [0, 0, 2], [1.0, 1.0, 1.0])
    assert schur_norm(A) == 2.0
    assert sjostrand_norm(A) == 1.0


def test_slant_norm_of_single_slant_is_one():
    A = corpus.slanted_matrix(2, {0: 1.0}, 16)
    assert slant_norm(A, 2.0) == 1.0


def test_slant_norm_sums_tap_magnitudes():
    A = corpus.slanted_matrix(2, {0: 1.0, 1: -0.5}, 16)
    assert slant_norm(A, 2.0) == pytest.approx(1.5, abs=1e-15)


# ----------------------------------------------------------------------
# truncation


def test_truncate_keeps_offsets_strictly_below_radius():
    A = small(window=10)
    assert truncate(A, 0.0).nnz == 0
    A1 = truncate(A, 1.0)
    assert A1.nnz == 10
    assert np.array_equal(A1.dense(), np.diag(np.full(10, 3.0)))
    assert truncate(A, 2.0).nnz == A.nnz


def test_truncation_tail_values():
    tails = truncation_tail(small(window=10), [0, 1, 2, 5])
    assert tails == [(0.0, 5.0), (1.0, 2.0), (2.0, 0.0), (5.0, 0.0)]


def test_truncation_tail_nonincreasing_random(rng):
    A = corpus.banded_random(48, band=3, seed=5)
    tails = [t for _, t in truncation_tail(A, range(0, 8))]
    assert all(a >= b - 1e-15 for a, b in zip(tails, tails[1:]))
    assert tails[-1] == 0.0


# ----------------------------------------------------------------------
# output bound and vector norms


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from([1.0, 2.0, math.inf]))
def test_output_norm_bounded_by_sjostrand_times_separation(seed, p):
    # ||Ac||_p <= R(rows)^{1/p} R(cols)^{1-1/p} ||A||_S ||c||_p
    A = corpus.banded_random(24, band=2, seed=11)
    c = np.random.default_rng(seed).standard_normal(24)
    inv_p = 0.0 if math.isinf(p) else 1.0 / p
    bound = (separation_constant(A.rows) ** inv_p
             * separation_constant(A.cols) ** (1.0 - inv_p)
             * sjostrand_norm(A) * vector_pnorm(c, p))
    assert vector_pnorm(A.dense() @ c, p) <= bound * (1 + 1e-12)


def test_vector_pnorm_agrees_with_numpy(rng):
    x = rng.standard_normal(40)
    for p, ref in ((1.0, np.linalg.norm(x, 1)), (2.0, np.linalg.norm(x, 2)),
                   (math.inf, np.linalg.norm(x, np.inf))):
        assert vector_pnorm(x, p) == pytest.approx(ref, rel=1e-14)


# ----------------------------------------------------------------------
# cutoff commutators


def test_commutator_entries_scale_with_offset_over_scale():
    A = small(window=33)
    op = CutoffOperator(center=[16.0], scale=4, target=A.cols)
    C = commutator_with_cutoff(A, op)
    # [psi, A] kills the diagonal; off-diagonal entries shrink by <= s/N
    assert C.band() <= A.band()
    lhs = sjostrand_norm(C)
    rhs = (A.band() / 4.0) * sjostrand_norm(A)
    assert lhs <= rhs + 1e-12


@pytest.mark.parametrize("scale", [4, 8, 16])
def test_commutator_bound_on_random_banded(scale):
    A = corpus.banded_random(64, band=2, seed=3)
    op = CutoffOperator(center=[float(scale)], scale=scale, target=A.cols)
    assert sjostrand_norm(commutator_with_cutoff(A, op)) <= \
        (A.band() / scale) * sjostrand_norm(A) + 1e-12


# ----------------------------------------------------------------------
# grouped maxima


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 3), st.integers(0, 60), st.integers(0, 2 ** 31 - 1),
       st.sampled_from([3, 1 << 20, 1 << 40]))
def test_group_max_matches_dict_oracle_in_every_dimension(dim, n, seed, span):
    rng = np.random.default_rng(seed)
    # few distinct coordinates per axis, so cells repeat
    axis_values = rng.integers(-span, span + 1, size=(dim, 4))
    cells = np.stack([rng.choice(axis_values[a], size=n) for a in range(dim)], axis=1)
    values = rng.standard_normal(n)
    expect = {}
    for k, v in zip(map(tuple, cells.tolist()), values.tolist()):
        expect[k] = max(expect.get(k, -math.inf), v)
    out_k, out_v = group_max(cells, values)
    assert out_k.shape == (len(expect), dim)
    assert [tuple(k) for k in out_k.tolist()] == sorted(expect)
    assert out_v.tolist() == [expect[k] for k in sorted(expect)]


def test_group_max_matches_dict_oracle(rng):
    keys = rng.integers(0, 40, size=500)
    values = rng.standard_normal(500)
    expect = {}
    for k, v in zip(keys.tolist(), values.tolist()):
        expect[k] = max(expect.get(k, -math.inf), v)
    out_k, out_v = group_max(keys, values)
    assert out_k.tolist() == sorted(expect)
    assert out_v.tolist() == [expect[k] for k in sorted(expect)]


def test_group_max_empty():
    out_k, out_v = group_max(np.array([], dtype=np.int64),
                             np.array([], dtype=np.float64))
    assert out_k.size == 0 and out_v.size == 0


# ----------------------------------------------------------------------
# offset cells in three dimensions and far from the origin


def _brute_cell_sups(A, off):
    """{cell: sup |a|} by a Python loop over the entries."""
    sups = {}
    for k, v in zip(map(tuple, np.floor(off).astype(int).tolist()), A.values.tolist()):
        sups[k] = max(sups.get(k, 0.0), abs(v))
    return sups


def test_sjostrand_norm_of_3d_stencil(stencil_3d):
    A = stencil_3d
    assert A.dim == 3
    assert sjostrand_norm(A) == 14.0 == sum(_brute_cell_sups(A, A.offsets()).values())
    prof = offset_profile(A)
    assert len(prof) == 7
    sups = dict(zip(map(tuple, prof.cells.tolist()), prof.sups.tolist()))
    assert sups[(0, 0, 0)] == 8.0 and sups[(0, -1, 0)] == 1.0 and (2, 0, 0) not in sups


def test_truncation_tail_of_3d_stencil_matches_brute_force(stencil_3d):
    A = stencil_3d
    off = A.offsets()
    for s, tail in truncation_tail(A, [0, 0.5, 1, 2]):
        far = np.abs(off).max(axis=1) >= s
        sub = LocalizedMatrix(A.rows, A.cols, A.i[far], A.j[far], A.values[far])
        assert tail == pytest.approx(sum(_brute_cell_sups(sub, off[far]).values()),
                                     rel=1e-15)
    assert [t for _, t in truncation_tail(A, [0, 1, 2])] == [14.0, 6.0, 0.0]


@pytest.mark.parametrize("alpha", [1.0, 2.0, 0.5])
def test_slant_norm_of_3d_stencil_matches_brute_force(stencil_3d, alpha):
    A = stencil_3d
    off = A.cols.points[A.j] - alpha * A.rows.points[A.i]
    sups = _brute_cell_sups(A, off)
    assert slant_norm(A, alpha) == pytest.approx(sum(sups.values()), rel=1e-14)


def test_sjostrand_norm_with_an_offset_beyond_2_pow_20():
    # offsets of 2^21 were refused by the 21-bit packed cell keys
    far = 1 << 21
    s = IndexSet(1, [0.0, 1.0, float(far)], window=[[0.0, far + 1.0]])
    A = LocalizedMatrix(s, s, [0, 1, 2, 2], [0, 1, 2, 0], [2.0, -3.0, 1.0, 0.5])
    assert sjostrand_norm(A) == 3.0 + 0.5
    assert offset_profile(A).cells.tolist() == [[0], [far]]
