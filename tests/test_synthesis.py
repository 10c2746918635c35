import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from locop import corpus
from locop.errors import InvariantViolation
from locop.lattice import IndexSet
from locop.profiles import (ExponentialProfile, GaussianProfile, bspline_profile,
                            gauss_legendre_integral, trapezoid_profile)
from locop.synthesis import (MODULUS_DELTAS, DyadicFunction, GeneratorFamily,
                             ModulusBound, discretize_synthesis, project_Pn,
                             synthesis_stability)

import oracles


def hat():
    return bspline_profile(2)


# ----------------------------------------------------------------------
# modulus bounds


def test_power_modulus_evaluates():
    m = ModulusBound("power", c=2.0, alpha=0.5)
    assert m(0.25) == 1.0
    d = m.to_json_dict()
    assert d == {"form": "power", "C": 2.0, "alpha": 0.5}
    assert ModulusBound.from_json_dict(d)(0.25) == 1.0


def test_table_modulus_rounds_up():
    m = ModulusBound("table", entries=((0.25, 0.3), (0.5, 0.6), (1.0, 1.0)))
    assert m(0.3) == 0.6  # next tabulated delta >= 0.3
    assert m(1.0) == 1.0
    with pytest.raises(ValueError):
        m(2.0)


def test_modulus_json_rejects_unknown_form():
    # the legacy "kind" key, a misspelled form and a missing form
    for obj in ({"kind": "power", "C": 1.0, "alpha": 1.0},
                {"form": "Power", "C": 1.0, "alpha": 1.0},
                {"entries": [[1.0, 1.0]]}):
        with pytest.raises(ValueError, match="modulus form"):
            ModulusBound.from_json_dict(obj)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_modulus_rejects_non_finite_parameters(bad):
    for kwargs in ({"c": bad}, {"alpha": bad}, {"entries": ((0.5, bad),)},
                   {"entries": ((bad, 1.0),)}):
        kind = "table" if "entries" in kwargs else "power"
        with pytest.raises(InvariantViolation, match="finite"):
            ModulusBound(kind, **kwargs)


# ----------------------------------------------------------------------
# family validation


def test_hat_family_validates():
    fam = corpus.hat_family(16)   # calibrated by the corpus builder
    rep = fam.validate()
    assert rep["envelope_excess"] <= 0.0
    assert rep["holder_margin"] >= 0.0 if "holder_margin" in rep else True


def test_envelope_must_dominate_profile():
    idx = IndexSet.integer_range(0, 7)
    small_env = GaussianProfile(0.3, 0.05)
    fam = GeneratorFamily(idx, (hat(),), small_env, "shift",
                          ModulusBound("power", c=1.0, alpha=1.0))
    with pytest.raises(InvariantViolation, match="envelope"):
        fam.validate()


def test_modulus_must_dominate_oscillation():
    # an envelope equal to the profile leaves no room for the modulus
    # outside the support, where the hat still oscillates
    idx = IndexSet.integer_range(0, 7)
    fam = GeneratorFamily(idx, (hat(),), hat(), "shift",
                          ModulusBound("power", c=1.0, alpha=1.0))
    with pytest.raises(InvariantViolation, match="modulus"):
        fam.validate()


def test_stability_requires_validation_to_pass():
    idx = IndexSet.integer_range(0, 7)
    fam = GeneratorFamily(idx, (hat(),), hat(), "shift",
                          ModulusBound("power", c=1.0, alpha=1.0))
    with pytest.raises(InvariantViolation):
        synthesis_stability(fam, 2.0, [3], [8])


def test_calibrate_modulus_passes_validation():
    idx = IndexSet.integer_range(0, 7)
    env = trapezoid_profile(0.0, 2.0, 1.0, 1.0)
    fam = GeneratorFamily(idx, (hat(),), env, "shift", None)
    cal = fam.calibrate_modulus()
    cal.validate()
    assert 0 < cal.modulus.alpha <= 1.0


def _gaussian_family():
    sigma = 0.5
    return GeneratorFamily(IndexSet.integer_range(0, 7), (GaussianProfile(sigma),),
                           GaussianProfile(sigma * math.sqrt(2.0)))


@pytest.mark.parametrize("make", [lambda: corpus.hat_family(16),
                                  lambda: _gaussian_family().calibrate_modulus()],
                         ids=["hat", "gaussian"])
def test_validate_equals_per_point_loop(make):
    fam = make()
    assert fam.validate() == oracles.family_validate(fam, deltas=MODULUS_DELTAS)


@pytest.mark.parametrize("make", [lambda: corpus.hat_family(16), _gaussian_family],
                         ids=["hat", "gaussian"])
def test_calibrate_modulus_equals_per_point_loop(make):
    fam = make()
    cal = fam.calibrate_modulus().modulus
    assert (cal.c, cal.alpha) == oracles.calibrated_power(fam)


def test_validate_names_the_first_failing_point():
    idx = IndexSet.integer_range(0, 7)
    fam = GeneratorFamily(idx, (hat(),), hat(), "shift",
                          ModulusBound("power", c=1.0, alpha=1.0))
    with pytest.raises(InvariantViolation) as want:
        oracles.family_validate(fam)
    with pytest.raises(InvariantViolation) as got:
        fam.validate()
    assert str(got.value) == str(want.value)


def test_calibrate_modulus_names_the_first_vanishing_envelope_point():
    idx = IndexSet.integer_range(0, 7)
    fam = GeneratorFamily(idx, (hat(),), trapezoid_profile(0.0, 0.5, 0.5, 1.0),
                          "shift", None)
    with pytest.raises(InvariantViolation) as want:
        oracles.calibrated_power(fam)
    with pytest.raises(InvariantViolation) as got:
        fam.calibrate_modulus()
    assert str(got.value) == str(want.value)
    assert "envelope vanishes" in str(got.value)


def test_validate_checks_the_finest_calibration_delta():
    # a modulus that holds for delta >= 1/32 but not at 1/64, the last delta
    # calibrate_modulus fits on, used to pass validation, and synthesis at
    # n0 = 6 reported a bias bound of 4e-9
    entries = tuple((2.0 ** -k, 2.0 ** (1 - k)) for k in range(1, 6))
    modulus = ModulusBound("table", entries=entries + ((2.0 ** -6, 1e-9),))
    fam = GeneratorFamily(IndexSet.integer_range(0, 7), (hat(),),
                          trapezoid_profile(0.0, 2.0, 1.0, 1.0), "shift", modulus)
    with pytest.raises(InvariantViolation, match="delta=0.015625"):
        fam.validate()
    with pytest.raises(InvariantViolation, match="delta=0.015625"):
        synthesis_stability(fam, 2, [5, 6], [8])


def _table_family_wrong_at_1_128():
    """A hat family whose table modulus (delta, 2 delta) holds down to 1/64
    and is 1e-9 at 1/128, a delta that validate does not check."""
    entries = tuple((2.0 ** -k, 2.0 ** (1 - k)) for k in range(1, 7))
    modulus = ModulusBound("table", entries=entries + ((2.0 ** -7, 1e-9),))
    return GeneratorFamily(IndexSet.integer_range(0, 7), (hat(),),
                           trapezoid_profile(0.0, 2.0, 1.0, 1.0), "shift", modulus)


def test_synthesis_checks_the_modulus_at_scales_finer_than_validate():
    # n0 = 7 used to report a bias bound of 4e-9 from the unchecked entry
    fam = _table_family_wrong_at_1_128()
    fam.validate()
    with pytest.raises(InvariantViolation, match="delta=0.0078125"):
        synthesis_stability(fam, 2, [6, 7], [8])
    # checked scales still run, and their bias bound follows the table
    b5, b6 = [e.bias_bound for e in synthesis_stability(fam, 2, [5, 6], [8]).entries]
    assert b5 == 2.0 * b6 > 0.0


@pytest.mark.parametrize("n0_values,windows,what", [([3.5], [8], "scale 3.5"),
                                                    ([3], [8.5], "window 8.5")])
def test_synthesis_rejects_fractional_scales_and_windows(n0_values, windows, what):
    # int() ran a scale of 3.5 at n0 = 3 and a window of 8.5 at 8
    with pytest.raises(InvariantViolation, match=f"{what} is not an integer"):
        synthesis_stability(corpus.hat_family(16), 2, n0_values, windows)


def test_family_json_round_trip():
    fam = corpus.hat_family(8)
    again = GeneratorFamily.from_json_dict(fam.to_json_dict())
    xs = np.linspace(-1, 3, 50)
    assert np.array_equal(np.asarray(again.profiles[0](xs)),
                          np.asarray(fam.profiles[0](xs)))
    again.validate()


# ----------------------------------------------------------------------
# dyadic functions


@settings(deadline=None, max_examples=60)
@given(
    arrays(np.float64, st.integers(1, 40),
           elements=st.floats(-100.0, 100.0, allow_nan=False)),
    st.integers(0, 6),
    st.sampled_from([1.0, 2.0, math.inf]),
)
def test_dyadic_norm_identity(values, level, p):
    f = DyadicFunction(level, -3, values)
    coeff = np.linalg.norm(values, 1 if p == 1.0 else (np.inf if math.isinf(p) else 2))
    expect = 2.0 ** (-level / p) * coeff if not math.isinf(p) else coeff
    assert f.lp_norm(p) == pytest.approx(expect, rel=1e-12, abs=1e-300)


def test_refine_preserves_values_and_norms(rng):
    f = DyadicFunction(2, 4, rng.standard_normal(12))
    g = f.refine(5)
    assert g.level == 5
    # each coarse cell splits into 2^3 fine cells that carry its value
    assert g.start == f.start * 8
    assert np.array_equal(g.values.reshape(-1, 8),
                          np.repeat(f.values[:, None], 8, axis=1))
    for p in (1.0, 2.0, math.inf):
        assert g.lp_norm(p) == pytest.approx(f.lp_norm(p), rel=1e-12)


def test_dyadic_function_rejects_two_dimensional_values():
    with pytest.raises(ValueError, match="one-dimensional"):
        DyadicFunction(2, 0, np.ones((4, 4)))


def test_subtract_aligns_windows():
    f = DyadicFunction(1, 0, np.array([1.0, 2.0, 3.0, 4.0]))
    g = DyadicFunction(1, 2, np.array([1.0, 1.0]))
    d = f.subtract(g)
    # g's cells [1, 1.5) and [1.5, 2) are f's third and fourth
    assert (d.level, d.start) == (1, 0)
    assert np.array_equal(d.values, [1.0, 2.0, 2.0, 3.0])


# ----------------------------------------------------------------------
# projection


def test_projection_is_idempotent_on_dyadic_input(rng):
    f = DyadicFunction(4, -8, rng.standard_normal(64))
    once = project_Pn(f, 4)
    assert np.allclose(once.values, f.values, atol=1e-15)
    twice = project_Pn(once, 4)
    assert np.allclose(twice.values, once.values, atol=1e-12)


def test_projection_onto_a_coarser_level_is_rejected():
    f = DyadicFunction(5, 0, np.ones(96))
    with pytest.raises(ValueError, match="level-5 .* coarser level 3"):
        project_Pn(f, 3)


@pytest.mark.parametrize("q", [1.0, 2.0, math.inf])
def test_projection_is_a_contraction(q):
    # the hat's norms are 1, sqrt(2/3) and 1; exp(-x^2) has norms sqrt(pi),
    # (pi/2)^(1/4) and 1, and its tail beyond |x| = 6 is below e^-36
    norms = {1.0: (1.0, math.sqrt(math.pi)),
             2.0: (math.sqrt(2.0 / 3.0), (math.pi / 2.0) ** 0.25),
             math.inf: (1.0, 1.0)}[q]
    for f, window, norm in ((hat(), (0.0, 2.0), norms[0]),
                            (lambda x: np.exp(-x * x), (-6.0, 6.0), norms[1])):
        for n in (2, 3, 4):
            g = project_Pn(f, n, window=window)
            assert g.lp_norm(q) <= norm * (1 + 1e-12)


def test_projection_of_profile_matches_cell_averages():
    h = hat()
    f = project_Pn(h, 1, window=(-2.0, 2.0))
    # hat on [0,2] at half-integer cells: averages 1/8, 3/8, 3/8, 1/8 per
    # unit of the two support cells, scaled by cell width 1/2; the cells
    # outside the support average to zero
    k0 = -f.start   # the cell [0, 1/2)
    assert np.allclose(f.values[k0:k0 + 4], [0.25, 0.75, 0.75, 0.25], atol=1e-14)
    assert not np.delete(f.values, np.arange(k0, k0 + 4)).any()


@pytest.mark.parametrize("level,window", [(5, (-1.0, 2.0)), (3, (-6.3, 6.1)), (0, (0.0, 1.0))])
def test_projection_of_callable_matches_cellwise_quadrature(level, window):
    # one evaluation of f on every cell's nodes gives the floats of one
    # gauss_legendre_integral per cell
    f = lambda x: np.exp(-((x - 0.3) ** 2)) + np.sin(3.0 * x)  # noqa: E731
    got = project_Pn(f, level, window=window)
    h = 2.0 ** -level
    want = [gauss_legendre_integral(f, (got.start + t) * h, (got.start + t + 1) * h) / h
            for t in range(got.values.size)]
    assert got.values.tobytes() == np.array(want).tobytes()


def test_projection_of_callable_needs_window():
    with pytest.raises(ValueError, match="window"):
        project_Pn(lambda x: np.exp(-x * x), 3)


def test_two_scale_projection_consistency():
    # projecting at a finer scale then averaging down equals projecting coarse
    h = hat()
    fine = project_Pn(h, 3, window=(-2.0, 2.0))
    coarse = project_Pn(h, 1, window=(-2.0, 2.0))
    assert np.allclose(fine.values.reshape(-1, 4).mean(axis=1), coarse.values,
                       atol=1e-14)


# ----------------------------------------------------------------------
# synthesis operator


def test_synthesize_partition_of_unity():
    fam = corpus.hat_family(10)
    grid = np.linspace(3.0, 7.0, 29)
    total = np.zeros_like(grid)
    for col in range(fam.n_columns):
        prof, shift = fam.column_profile(col)
        total += prof(grid - shift)
    assert np.allclose(total, 1.0, atol=1e-13)


def test_discretized_synthesis_columns_are_cell_averages():
    fam = corpus.hat_family(6)
    A = discretize_synthesis(fam, 0)
    D = A.dense()
    col = D[:, 2]
    nz = col[col != 0.0]
    assert np.allclose(sorted(nz), [0.5, 0.5], atol=1e-14)


@pytest.mark.parametrize("n0", [0, 3, 5])
def test_table_family_of_hats_discretizes_like_the_shift_family(n0):
    shift = corpus.hat_family(8)
    table = GeneratorFamily(shift.index, tuple(hat() for _ in range(8)),
                            shift.envelope, "table", shift.modulus)
    A, B = discretize_synthesis(shift, n0), discretize_synthesis(table, n0)
    assert np.array_equal(A.rows.points, B.rows.points)
    assert np.array_equal(A.cols.points, B.cols.points)
    for a, b in ((A.i, B.i), (A.j, B.j), (A.values, B.values)):
        assert np.array_equal(a, b)


def test_table_family_checks_each_distinct_profile_once():
    # profiles compare by value, so a table of 64 hats read from JSON (64
    # distinct objects) validates one profile, as the shift family does
    shift = corpus.hat_family(64)
    table = GeneratorFamily.from_json_dict(GeneratorFamily(
        shift.index, (hat(),) * 64, shift.envelope, "table", shift.modulus).to_json_dict())
    assert table._distinct_profiles() == [hat()]
    assert table.validate() == shift.validate()
    assert table.calibrate_modulus().modulus == shift.calibrate_modulus().modulus


def test_synthesis_rejects_scales_that_are_not_increasing():
    # [4, 3, 3] was analysed as six entries, two of them repeats
    with pytest.raises(ValueError, match="strictly increasing"):
        synthesis_stability(corpus.hat_family(16), 2, [4, 3, 3], [8, 16])


def test_two_profile_shift_family_interleaves_and_is_not_stable():
    # equal profiles at each point give two equal columns, so no lower
    # constant survives
    fam = GeneratorFamily(IndexSet.integer_range(0, 5), (hat(), hat()),
                          trapezoid_profile(0.0, 2.0, 1.0, 1.0))
    pts = fam.effective_index().points[:, 0]
    assert np.array_equal(pts, np.arange(12) / 2.0)
    assert [fam.column_profile(c)[1] for c in range(4)] == [0.0, 0.0, 1.0, 1.0]
    rep = synthesis_stability(fam, 2, [3], [6])
    assert rep.entries[0].lower == pytest.approx(0.0, abs=1e-12)
    assert rep.entries[0].upper > 1.0


def test_table_family_on_irregular_points_matches_cell_quadrature():
    pts = np.array([0.0, 0.7, 1.9, 3.25, 4.0])
    profs = (hat(), GaussianProfile(0.5), ExponentialProfile(3.0, 0.5),
             trapezoid_profile(0.0, 0.5, 0.25, 0.8), hat())
    fam = GeneratorFamily(IndexSet(1, pts, np.array([[0.0, 5.0]])), profs,
                          GaussianProfile(4.0), "table")
    n0 = 3
    h = 2.0 ** -n0
    A = discretize_synthesis(fam, n0)
    ref = np.zeros(A.shape)
    for col, (prof, x0) in enumerate(zip(profs, pts)):
        kinks = x0 + prof.smooth_breakpoints()
        for row, lo in enumerate(A.rows.points[:, 0]):
            ref[row, col] = gauss_legendre_integral(
                lambda x: prof(x - x0), lo, lo + h, splits=kinks) / h
    assert np.abs(A.dense() - ref).max() <= 1e-12
    assert np.abs(ref).max() > 0.5


def test_synthesis_constants_match_gram_eigenvalues():
    # oracle: the continuum frame bounds are singular values of the Gram
    # finite section; at n0 = 6 the cell-average matrix sits within the
    # recorded bias of those targets
    w = 32
    G = corpus.bspline_gram(2, w).dense()
    evals = scipy.linalg.eigvalsh(G)
    lo_ref, hi_ref = math.sqrt(max(evals[0], 0.0)), math.sqrt(evals[-1])
    rep = synthesis_stability(corpus.hat_family(w), 2.0, [6], [w])
    e = rep.entries[-1]
    assert e.lower == pytest.approx(lo_ref, rel=2e-3)
    assert e.upper == pytest.approx(hi_ref, rel=2e-3)
    assert e.lower_certified and e.upper_certified


def test_synthesis_scale_factor_matches_matrix_constants():
    # each entry is exactly 2^{-n0/p} times the constant of the
    # cell-average matrix at that scale
    from locop.stability import lower_constant, upper_constant

    fam = corpus.hat_family(12)
    rep = synthesis_stability(fam, 1.0, [2, 3], [12])
    for e in rep.entries:
        A = discretize_synthesis(fam.prefix(e.window), e.n0)
        fac = 2.0 ** (-e.n0 / 1.0)
        assert e.lower == pytest.approx(
            lower_constant(A, 1.0).value * fac, rel=1e-12)
        assert e.upper == pytest.approx(
            upper_constant(A, 1.0).value * fac, rel=1e-12)


def test_synthesis_ladder_verdict_stabilizes():
    rep = synthesis_stability(corpus.hat_family(64), 2.0, [5], [16, 32, 64])
    assert rep.verdict == "stabilized"
    assert rep.sjostrand_bound_ratio <= 1.0 + 1e-12

