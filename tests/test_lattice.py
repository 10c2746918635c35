import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locop.lattice import (DISTINCT_TOL, CutoffOperator, IndexSet,
                           cutoff_partition_check, cutoff_psi, separation_constant)

import oracles


def test_integer_range_basics():
    s = IndexSet.integer_range(0, 9)
    assert len(s) == 10
    assert s.dim == 1
    assert s.window.tolist() == [[0.0, 10.0]]
    assert separation_constant(s) == 1


def test_duplicate_points_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        IndexSet(1, [0.0, 1.0, 1.0 + 1e-14], window=[[0.0, 2.0]])


def test_duplicate_points_rejected_beyond_lexicographic_neighbours():
    # the first and third points agree within 1e-12 on both axes; the
    # second sorts between them
    with pytest.raises(ValueError, match="duplicate"):
        IndexSet(2, [[0, 5], [1e-13, 0], [2e-13, 5]], [[-1, 1], [-1, 6]])


# near-ties on every axis, so duplicates and near misses both come up
_NEAR_TIES = st.sampled_from([0.0, 4e-13, 9e-13, 1e-12, 1.6e-12, 3e-12, 1.0, 1.0 + 7e-13])


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 3).flatmap(
    lambda d: st.lists(st.lists(_NEAR_TIES, min_size=d, max_size=d),
                       min_size=1, max_size=12)))
def test_duplicate_check_matches_the_pairwise_oracle(rows):
    pts = np.array(rows)
    dim = pts.shape[1]
    window = [[-1.0, 2.0]] * dim
    if oracles.has_duplicate_points(pts, DISTINCT_TOL):
        with pytest.raises(ValueError, match="duplicate"):
            IndexSet(dim, pts, window)
    else:
        assert len(IndexSet(dim, pts, window)) == len(pts)


def test_point_outside_window_rejected():
    with pytest.raises(ValueError, match="outside"):
        IndexSet(1, [0.0, 5.0], window=[[0.0, 2.0]])


def test_index_sets_hash_by_value():
    from locop import corpus
    assert hash(IndexSet.integer_range(0, 7)) == hash(IndexSet.integer_range(0, 7))
    # -0.0 == 0.0, so both hash alike
    signed = [IndexSet(1, [z, 1.0], window=[[z, 2.0]]) for z in (0.0, -0.0)]
    assert signed[0] == signed[1] and hash(signed[0]) == hash(signed[1])
    assert len({IndexSet.integer_range(0, 7), IndexSet.integer_range(0, 7),
                IndexSet.integer_range(0, 8)}) == 2
    assert hash(corpus.hat_family(8)) == hash(corpus.hat_family(8))


def test_separation_counts_densest_unit_cube():
    # three points packed into [0, 1), two more spread out
    s = IndexSet(1, [0.0, 0.25, 0.75, 3.0, 7.5], window=[[0.0, 8.0]])
    assert separation_constant(s) == 3


def test_separation_two_dims():
    pts = [[0.0, 0.0], [0.5, 0.5], [0.25, 0.75], [4.0, 4.0]]
    s = IndexSet(2, pts, window=[[0.0, 5.0], [0.0, 5.0]])
    assert separation_constant(s) == 3


def test_separation_unit_cube_is_half_open():
    # 0 and 1 never share a [k, k+1) cube
    s = IndexSet(1, [0.0, 1.0], window=[[0.0, 2.0]])
    assert separation_constant(s) == 1


# eighths are exact in binary, so a gap of exactly 1 (the half-open face)
# comes up without rounding
_EIGHTHS = st.integers(0, 24).map(lambda k: k / 8.0)


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 2).flatmap(
    lambda d: st.lists(st.tuples(*[_EIGHTHS] * d), min_size=1, max_size=14,
                       unique=True)))
def test_separation_matches_the_unit_cube_oracle(rows):
    pts = np.array(rows)
    s = IndexSet(pts.shape[1], pts, [[0.0, 3.0]] * pts.shape[1])
    assert separation_constant(s) == oracles.max_unit_cube_count(pts)


def test_prefix_is_nested():
    s = IndexSet.integer_range(0, 9)
    head = s.prefix(4)
    assert len(head) == 4
    assert np.array_equal(head.points, s.points[:4])
    with pytest.raises(ValueError):
        s.prefix(11)


def test_json_round_trip():
    s = IndexSet(2, [[0.0, 1.5], [2.0, 3.0]], window=[[0.0, 4.0], [0.0, 4.0]])
    again = IndexSet.from_json_dict(s.to_json_dict())
    assert again == s


def test_dyadic_range_points():
    s = IndexSet.dyadic_range(2, 0, 8)
    assert len(s) == 8
    assert s.points[1, 0] == 0.25
    assert s.window.tolist() == [[0.0, 2.0]]


def test_cutoff_psi_shape():
    assert cutoff_psi(0.0) == 1.0
    assert cutoff_psi(1.0) == 1.0
    assert cutoff_psi(1.5) == 0.5
    assert cutoff_psi(2.0) == 0.0
    assert cutoff_psi(-3.0) == 0.0
    # max-norm plateau in two dimensions
    assert cutoff_psi(np.array([1.0, -1.0])) == 1.0
    assert cutoff_psi(np.array([0.0, 1.25])) == 0.75


def test_cutoff_operator_weights():
    s = IndexSet.integer_range(0, 9)
    op = CutoffOperator(center=[4.0], scale=2, target=s)
    w = op.weights_on(s.points)
    assert w[4] == 1.0          # at the center
    assert w[6] == 1.0          # edge of the plateau |x-4|/2 = 1
    assert w[7] == 0.5          # on the ramp
    assert w[9] == 0.0          # outside the support


def test_cutoff_center_must_sit_on_coarse_grid():
    s = IndexSet.integer_range(0, 9)
    with pytest.raises(ValueError, match="integer multiples"):
        CutoffOperator(center=[3.0], scale=2, target=s)
    with pytest.raises(ValueError, match="scale"):
        CutoffOperator(center=[4.0], scale=0, target=s)


@settings(deadline=None, max_examples=40)
@given(st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=30),
       st.integers(1, 5))
def test_squared_cutoffs_partition_between_bounds(xs, scale):
    rep = cutoff_partition_check(scale, xs)
    assert rep.ok, rep.violations
    assert rep.lower_bound == 2.0
    assert rep.upper_bound == 4.0


def test_partition_check_two_dims(rng):
    pts = rng.uniform(-10, 10, size=(64, 2))
    rep = cutoff_partition_check(3, pts)
    assert rep.ok
    assert rep.lower_bound == 4.0 and rep.upper_bound == 16.0
    assert 4.0 - 1e-12 <= rep.min_observed <= rep.max_observed <= 16.0 + 1e-12
