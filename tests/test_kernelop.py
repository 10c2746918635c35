import math

import numpy as np
import pytest

from locop import corpus, kernelop, stability
from locop.errors import InvariantViolation, NumericalError
from locop.kernelop import (ConvolutionRule, KernelOperator, PerturbedEntry, SeparableRule,
                            _conv_offset_table, _verify_offset_quadrature,
                            apply_discretized,
                            discretization_error_curve, discretize_kernel,
                            perturbed_identity_stability, rule_from_json_dict)
from locop.matalg import LocalizedMatrix
from locop.profiles import (ExponentialProfile, GaussianProfile,
                            PiecewisePolynomial, bspline_profile,
                            gauss_legendre_integral, trapezoid_profile)
from locop.synthesis import DyadicFunction, project_Pn

import oracles

# shorthand for the acceptance-style operator 0.1 * exp(-(x - y)^2); the
# session fixture carries the calibrated budget


def hat():
    return bspline_profile(2)


# ----------------------------------------------------------------------
# kernel rules


def test_convolution_rule_evaluates_difference():
    rule = ConvolutionRule(hat())
    xs = np.array([0.0, 0.5, 1.25, 3.0])
    ys = np.array([-1.0, -0.5, 0.25, 1.0])
    assert np.array_equal(rule.value(xs, ys), hat()(xs - ys))


def test_convolution_transpose_is_reflection():
    # the hat is not even, so reflection genuinely changes the kernel;
    # evaluating through the reflected flag reuses the same profile
    # arithmetic, which keeps the swap bitwise exact
    rule = ConvolutionRule(hat())
    xs = np.linspace(-2.0, 3.0, 23)
    ys = np.linspace(-1.0, 4.0, 23)
    t = ConvolutionRule(hat(), reflected=True)
    assert np.array_equal(t.value(xs, ys), rule.value(ys, xs))


def test_rule_json_round_trips():
    conv = ConvolutionRule(hat(), reflected=True)
    again = rule_from_json_dict(conv.to_json_dict())
    xs = np.linspace(-3, 3, 31)
    assert again.reflected
    assert np.array_equal(again.value(xs, 2 * xs), conv.value(xs, 2 * xs))

    sep = SeparableRule(((0.5, hat(), GaussianProfile(2.0, 0.3)),
                         (-0.25, GaussianProfile(1.0, 1.0), hat())))
    again = rule_from_json_dict(sep.to_json_dict())
    assert np.array_equal(again.value(xs, -xs), sep.value(xs, -xs))

    with pytest.raises(ValueError, match="kind"):
        rule_from_json_dict({"kind": "mystery"})


def test_operator_json_round_trip(gaussian_op):
    again = KernelOperator.from_json_dict(gaussian_op.to_json_dict())
    xs = np.linspace(-4, 4, 41)
    assert np.array_equal(again.kernel(xs, 0.3 * xs),
                          gaussian_op.kernel(xs, 0.3 * xs))
    assert again.alpha == gaussian_op.alpha
    assert again.d_const == gaussian_op.d_const
    again.validate()


# ----------------------------------------------------------------------
# hypothesis validation


def test_operator_rejects_bad_parameters():
    rule = ConvolutionRule(GaussianProfile(1.0, 0.1))
    env = GaussianProfile(2.0, 0.1)
    with pytest.raises(ValueError, match="alpha"):
        KernelOperator(rule, env, 0.0, 1.0)
    with pytest.raises(ValueError, match="alpha"):
        KernelOperator(rule, env, 1.5, 1.0)
    with pytest.raises(ValueError, match="D"):
        KernelOperator(rule, env, 1.0, 0.0)


def test_validate_rejects_narrow_envelope():
    # envelope decays faster than the kernel, so the tails poke out
    op = KernelOperator(ConvolutionRule(GaussianProfile(1.0, 0.1)),
                        GaussianProfile(0.5, 0.1), 1.0, 10.0)
    with pytest.raises(InvariantViolation, match="envelope"):
        op.validate()


def test_validate_rejects_small_budget():
    op = KernelOperator(ConvolutionRule(GaussianProfile(1.0, 0.1)),
                        GaussianProfile(math.sqrt(2.0), 0.1), 1.0, 0.01)
    with pytest.raises(InvariantViolation, match="exceeds D"):
        op.validate()


def test_calibrated_operator_validates(gaussian_op):
    rep = gaussian_op.validate()
    assert rep["envelope_excess"] <= 0.0
    assert rep["amalgam_sum"] <= gaussian_op.d_const
    assert rep["holder_margin"] >= 0.0


# ----------------------------------------------------------------------
# application


def test_apply_discretized_agrees_with_matrix(gaussian_op, rng):
    # the tablewise application and the assembled matrix must produce the
    # same numbers (up to summation order) on interior data
    n, h = 2, 0.25
    f = DyadicFunction(n, 20, rng.standard_normal(12))
    A = discretize_kernel(gaussian_op, n, (0.0, 16.0))
    c = np.zeros(A.shape[1])
    c[20:32] = f.values
    y = h * (A.csr() @ c)
    g = apply_discretized(gaussian_op, n, f)
    for k in range(A.shape[0]):
        idx = k - g.start
        want = g.values[idx] if 0 <= idx < g.values.size else 0.0
        assert y[k] == pytest.approx(want, rel=1e-12, abs=1e-15)


# ----------------------------------------------------------------------
# discretization structure


def test_discretized_convolution_is_exactly_toeplitz(gaussian_op):
    D = discretize_kernel(gaussian_op, 2, (0.0, 8.0)).dense()
    for k in range(-D.shape[0] + 1, D.shape[0]):
        diag = np.diag(D, k)
        assert np.unique(diag).size <= 1


def test_discretized_transpose_is_bitwise_transpose(gaussian_op):
    # the operator as a kernel JSON file with {"reflected": true} reads it
    obj = gaussian_op.to_json_dict()
    obj["rule"]["reflected"] = True
    reflected = KernelOperator.from_json_dict(obj)
    assert reflected.rule.reflected
    D = discretize_kernel(gaussian_op, 2, (0.0, 8.0)).dense()
    Dt = discretize_kernel(reflected, 2, (0.0, 8.0)).dense()
    assert np.array_equal(Dt, D.T)


def test_discretized_separable_is_outer_product():
    u, v = hat(), GaussianProfile(1.0, 1.0)
    op = KernelOperator(SeparableRule(((1.0, u, v),)),
                        GaussianProfile(3.0, 2.0), 1.0, 50.0)
    A = discretize_kernel(op, 1, (-2.0, 2.0))
    edges = np.arange(-4, 5) * 0.5
    expect = np.outer(u.cell_averages(edges), v.cell_averages(edges))
    assert np.allclose(A.dense(), expect, atol=0)


def _scalar_offset_table(g, ks, h, order=8):
    """Oracle: the per-offset loop of scalar Gauss-Legendre integrals."""
    kinks = np.asarray(g.smooth_breakpoints(), dtype=float)
    out = np.empty(ks.size)
    for idx, k in enumerate(ks):
        base = k * h
        cuts = {-h, 0.0, h}
        for b in kinks:
            u = b - base
            if -h < u < h:
                cuts.add(float(u))
        pts = np.array(sorted(cuts))
        total = 0.0
        for a, b in zip(pts[:-1], pts[1:]):
            total += gauss_legendre_integral(
                lambda u: (h - np.abs(u)) * np.asarray(g(base + u), dtype=float),
                float(a), float(b), order=order)
        out[idx] = total / (h * h)
    return out


@pytest.mark.parametrize("g", [GaussianProfile(1.0, 0.1), ExponentialProfile(1.5),
                               bspline_profile(3),
                               trapezoid_profile(-1.0, 0.5, ramp=0.75)],
                         ids=["gaussian", "exponential", "bspline3", "trapezoid"])
@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_offset_table_matches_scalar_oracle(g, n):
    h = 2.0 ** (-n)
    ks = np.arange(-int(6 / h), int(6 / h) + 1)
    kinks = g.smooth_breakpoints()
    if kinks.size:
        # dyadic h puts kinks exactly on -h, 0 and h of some offsets
        u = kinks[:, None] - ks[None, :] * h
        assert all((u == t).any() for t in (-h, 0.0, h))
    table = _conv_offset_table(g, ks, h)
    oracle = _scalar_offset_table(g, ks, h)
    assert np.allclose(table, oracle, rtol=1e-14, atol=0.0)
    _verify_offset_quadrature(g, ks, h, table)


def test_offset_quadrature_check_fires_without_kink_splits(monkeypatch):
    # integrating across the B-spline's kinks unsplit breaks Gauss-Legendre
    # exactness, and the order-doubling check must notice; h = 0.3 puts
    # the integer kinks inside segments (a dyadic h puts them on -h, 0, h)
    g = bspline_profile(3)
    monkeypatch.setattr(PiecewisePolynomial, "smooth_breakpoints",
                        lambda self: np.empty(0))
    h = 0.3
    ks = np.arange(-4, 15)
    table = _conv_offset_table(g, ks, h)
    with pytest.raises(NumericalError, match="quadrature"):
        _verify_offset_quadrature(g, ks, h, table)


@pytest.mark.parametrize("g", [GaussianProfile(0.7, 2.0), ExponentialProfile(1.3),
                               bspline_profile(2), bspline_profile(4)],
                         ids=["gaussian", "exponential", "hat", "bspline4"])
def test_omega_matches_scalar_modulus(g):
    xs = np.linspace(-4.0, 4.0, 161)
    for r in (0.5, 2.0 ** -6):
        want = [oracles.modulus_of_continuity(g, r, float(x)) for x in xs]
        assert np.array_equal(g.modulus_of_continuity(r, xs), want)


def test_fft_branch_matches_direct_convolution(gaussian_op):
    # 1.2e6 and 8.2e6 table-by-probe terms: the FFT product holds at every
    # size, on both sides of 2^22
    n = 8
    h = 2.0 ** (-n)
    kmax = int(math.ceil(gaussian_op._offset_radius() / h)) + 1
    ks = np.arange(-kmax, kmax + 1)
    table = _conv_offset_table(gaussian_op.rule.profile, ks, h)
    rng = np.random.default_rng(7)
    for cells in (300, 2000):
        f = DyadicFunction(n, -cells // 2, rng.standard_normal(cells))
        out = apply_discretized(gaussian_op, n, f)
        ref = h * np.convolve(project_Pn(f, n).values, table)
        assert out.values.shape == ref.shape
        assert np.allclose(out.values, ref, rtol=0.0,
                           atol=1e-12 * np.abs(ref).max())


def test_empty_window_is_rejected(gaussian_op):
    with pytest.raises(ValueError, match="cells"):
        discretize_kernel(gaussian_op, 0, (2.0, 1.0))


# ----------------------------------------------------------------------
# error curve


def test_error_curve_halves_per_scale(gaussian_op):
    from locop.kernelop import _default_probes

    probes = _default_probes(gaussian_op, (0.0, 16.0), 3)
    curve = discretization_error_curve(gaussian_op, [3, 4, 5], probes, r=2.0)
    ratios = [r for _, r in curve.entries]
    assert ratios == sorted(ratios, reverse=True)
    assert -1.2 <= curve.slope <= -0.8
    assert curve.r == 2.0 and len(curve.entries) == 3


def test_error_curve_rejects_scales_that_are_not_increasing(gaussian_op):
    with pytest.raises(ValueError, match="strictly increasing"):
        discretization_error_curve(gaussian_op, [3, 3], [DyadicFunction(0, 4, np.ones(4))])


def test_error_curve_rejects_zero_probes(gaussian_op):
    silent = DyadicFunction(0, 4, np.zeros(4))
    with pytest.raises(ValueError, match="nonzero"):
        discretization_error_curve(gaussian_op, [2, 3], [silent])


# ----------------------------------------------------------------------
# perturbed identity


def test_zero_kernel_gives_exact_identity_constants():
    zero = GaussianProfile(1.0, 0.0)
    op = KernelOperator(ConvolutionRule(zero), zero, 1.0, 1.0)
    rep = perturbed_identity_stability(op, 2.0, [2, 3], [8.0])
    for e in rep.entries:
        assert e.lower == 1.0 and e.upper == 1.0
        assert e.method == "identity"
        assert e.lower_certified and e.upper_certified


def test_gaussian_perturbation_stays_near_identity(gaussian_op):
    rep = perturbed_identity_stability(gaussian_op, 2.0, [2, 3], [16.0])
    for e in rep.entries:
        # the discretized Gaussian kernel is positive semidefinite, so the
        # lower constant cannot drop below 1
        assert e.lower == pytest.approx(1.0, abs=1e-9)
        assert e.lower >= 1.0 - 1e-12
        assert 1.17 < e.upper < 1.18
        assert e.uncertainty is not None and e.uncertainty < 0.01


def test_perturbed_identity_at_p2_takes_no_svd(gaussian_op, count_calls):
    # I + 2^-n A_n of an even kernel is symmetric up to rounding, and its
    # lower triangle is Toeplitz, so centrosymmetric: each window's p = 2
    # constants come from two half-size symmetric eigensolves
    svd_calls, eig_calls = count_calls("svd"), count_calls("eigvalsh")
    rep = perturbed_identity_stability(gaussian_op, 2.0, [2, 3], [16.0])
    assert svd_calls == []
    assert len(rep.entries) == 2
    assert eig_calls == [(32, 32), (32, 32), (64, 64), (64, 64)]


@pytest.mark.parametrize("n_values,windows", [([4, 3], [16.0, 16.0]), ([4, 3], [16.0]),
                                             ([3], [32.0, 16.0])])
def test_perturbed_identity_rejects_a_ladder_that_is_not_increasing(gaussian_op, n_values,
                                                                    windows):
    # scales [4, 3] were sorted without a word, and a repeated window was
    # analysed twice: the verdict was "stabilized" where [3], [16.0] gives
    # "undetermined"
    with pytest.raises(ValueError, match="strictly increasing"):
        perturbed_identity_stability(gaussian_op, 2, n_values, windows)


def test_perturbed_identity_needs_room_for_probes(gaussian_op):
    with pytest.raises(ValueError, match="window too small"):
        perturbed_identity_stability(gaussian_op, 2.0, [3], [4.0])


def _fresh(op):
    """The same operator without the offset tables kept on ``op``."""
    return KernelOperator(op.rule, op.envelope, op.alpha, op.d_const)


def _reflected(op):
    """The operator with K(x, y) = g(y - x) for the rule's profile g."""
    return KernelOperator(ConvolutionRule(op.rule.profile, reflected=True),
                          op.envelope, op.alpha, op.d_const)


def _separable_op():
    return KernelOperator(SeparableRule(((1.0, hat(), GaussianProfile(1.0, 1.0)),)),
                          GaussianProfile(3.0, 2.0), 1.0, 50.0)


_PROBE = DyadicFunction(1, 2, np.array([1.0, -0.5, 2.0, 0.25]))


@pytest.mark.parametrize("case,window", [("gaussian", 8.0), ("reflected", 8.0),
                                         ("separable", 8.0), ("gaussian", 3.0)],
                         ids=["gaussian", "reflected", "separable",
                              "narrower-than-offset-radius"])
def test_perturbed_identity_matches_sparse_sum(gaussian_op, monkeypatch, case,
                                               window):
    # the matrices handed to lower_constant must be I + 2^-n A_n exactly as
    # a CSR sum builds it: same (i, j) pattern, bitwise the same values.  A
    # convolution rule builds its matrix at p in {1, inf} only (at p = 2 its
    # constants come from the band), so its cases run at p = 1
    op = {"gaussian": gaussian_op, "reflected": _reflected(gaussian_op),
          "separable": _separable_op()}[case]
    if case == "gaussian" and window < 4.0:
        assert op._offset_radius() > window   # the table is cut to the window
    seen = []
    real = stability.lower_constant
    monkeypatch.setattr(stability, "lower_constant",
                        lambda M, p: seen.append(M) or real(M, p))
    p = 2.0 if case == "separable" else 1.0
    perturbed_identity_stability(op, p, [2, 3], [window], probes=[_PROBE])
    assert len(seen) == 2
    for n, M in zip([2, 3], seen):
        want = oracles.identity_plus(discretize_kernel(op, n, (0.0, window)),
                                     2.0 ** (-n))
        assert M.rows == want.rows and M.cols == want.cols
        assert np.array_equal(M.i, want.i) and np.array_equal(M.j, want.j)
        assert np.array_equal(M.values, want.values)


@pytest.mark.parametrize("case,n,window", [("gaussian", 3, 16.0), ("gaussian", 2, 3.0),
                                           ("reflected", 4, 8.0), ("hat", 3, 5.0),
                                           ("hat", 1, 1.0)])
def test_window_entries_come_in_row_order(gaussian_op, case, n, window):
    # the row-major assembly is strictly increasing in (row, column), so
    # LocalizedMatrix keeps it unsorted, and it builds the matrix of the
    # diagonal-order assembly it replaced bit for bit
    op = {"gaussian": gaussian_op, "reflected": _reflected(gaussian_op),
          "hat": KernelOperator(ConvolutionRule(hat()), GaussianProfile(3.0, 2.0),
                                1.0, 50.0)}[case]
    index, ii, jj, vv = kernelop._window_entries(op, n, (0.0, window))
    di, dj = np.diff(ii), np.diff(jj)
    assert ((di > 0) | ((di == 0) & (dj > 0))).all()
    assert (ii == jj).sum() == len(index)  # every diagonal entry is listed
    new = LocalizedMatrix(index, index, ii, jj, vv)
    old = LocalizedMatrix(index, index,
                          *oracles.window_entries_by_diagonal(op, n, (0.0, window)))
    assert new.i.tobytes() == old.i.tobytes()
    assert new.j.tobytes() == old.j.tobytes()
    assert new.values.tobytes() == old.values.tobytes()


def test_perturbed_identity_builds_one_table_per_scale(gaussian_op, monkeypatch):
    # scales 3..5 and their error-curve references 6..8: each table is
    # built once and order-doubling checked once, and each (window, scale)
    # assembles one matrix
    op = _fresh(gaussian_op)
    tables = []
    real_table = kernelop._conv_offset_table
    monkeypatch.setattr(kernelop, "_conv_offset_table",
                        lambda g, ks, h, **kw: tables.append(h) or real_table(g, ks, h, **kw))
    matrices = []
    real_init = LocalizedMatrix.__init__

    def init(self, *args):
        matrices.append(args[0])
        real_init(self, *args)
    monkeypatch.setattr(LocalizedMatrix, "__init__", init)
    perturbed_identity_stability(op, 1.0, [3, 4, 5], [8.0, 12.0], probes=[_PROBE])
    assert sorted(tables) == sorted(2 * [2.0 ** -n for n in range(3, 9)])
    assert len(matrices) == 2 * 3
    perturbed_identity_stability(op, 2.0, [3, 4, 5], [8.0], probes=[_PROBE])
    assert len(tables) == 12                     # kept on the operator


@pytest.mark.parametrize("case", ["gaussian", "reflected"])
def test_perturbed_identity_at_p2_builds_no_matrix(gaussian_op, monkeypatch, case):
    # each (window, scale) of a convolution rule is one band, read by
    # toeplitz_singular_extremes: no LocalizedMatrix and no second table
    op = _fresh(gaussian_op if case == "gaussian" else _reflected(gaussian_op))
    tables = []
    real_table = kernelop._conv_offset_table
    monkeypatch.setattr(kernelop, "_conv_offset_table",
                        lambda g, ks, h, **kw: tables.append(h) or real_table(g, ks, h, **kw))
    matrices = []
    real_init = LocalizedMatrix.__init__
    monkeypatch.setattr(LocalizedMatrix, "__init__",
                        lambda self, *args: matrices.append(args) or real_init(self, *args))
    rep = perturbed_identity_stability(op, 2.0, [3, 4, 5], [8.0, 12.0], probes=[_PROBE])
    assert matrices == []
    assert sorted(tables) == sorted(2 * [2.0 ** -n for n in range(3, 9)])
    assert [e.method for e in rep.entries] == 6 * ["singular-value"]


@pytest.mark.parametrize("case,window", [("gaussian", 8.0), ("reflected", 4.75),
                                         ("gaussian", 3.0), ("hat", 5.0)],
                         ids=["gaussian", "reflected-odd-cells", "narrower-than-offset-radius",
                              "hat"])
def test_perturbed_identity_at_p2_matches_the_assembled_window(gaussian_op, case, window):
    # the band route reports the floats that lower_constant and
    # upper_constant give the assembled I + 2^-n A_n
    op = {"gaussian": gaussian_op, "reflected": _reflected(gaussian_op),
          "hat": KernelOperator(ConvolutionRule(hat()), GaussianProfile(3.0, 2.0),
                                1.0, 50.0)}[case]
    rep = perturbed_identity_stability(op, 2.0, [2, 3], [window], probes=[_PROBE])
    for e in rep.entries:
        M = oracles.identity_plus(discretize_kernel(op, e.n, (0.0, window)), 2.0 ** -e.n)
        want = PerturbedEntry.of(M, 2.0, window, n=e.n, uncertainty=e.uncertainty)
        assert e == want


@pytest.mark.parametrize("call", [
    lambda op: perturbed_identity_stability(op, 2.0, [2, 3.5], [8.0], probes=[_PROBE]),
    lambda op: discretization_error_curve(op, [2.5, 3], [_PROBE]),
], ids=["perturbed-identity", "error-curve"])
def test_kernel_analyses_reject_a_fractional_scale(gaussian_op, call):
    # int() ran a scale of 3.5 at 3
    with pytest.raises(InvariantViolation, match="scale .* is not an integer"):
        call(gaussian_op)

