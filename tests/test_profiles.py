import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from locop.errors import InvariantViolation
from locop.profiles import (ExponentialProfile, GaussianProfile,
                            PiecewisePolynomial, bspline_profile,
                            gauss_legendre_integral, pp_inner_product,
                            profile_from_json_dict, trapezoid_profile)

import oracles


def hat():
    return bspline_profile(2)


def test_bspline_orders_evaluate_correctly():
    box = bspline_profile(1)
    assert box(0.5) == 1.0 and box(-0.1) == 0.0 and box(1.1) == 0.0
    h = hat()
    assert h(1.0) == 1.0
    assert h(0.5) == 0.5
    assert h(1.75) == pytest.approx(0.25, abs=1e-15)
    assert h(2.0) == 0.0
    # order 3: quadratic, C^1, integrates to one
    q = bspline_profile(3)
    xs = np.linspace(-1, 4, 2001)
    assert np.trapezoid(q(xs), xs) == pytest.approx(1.0, abs=1e-6)


def test_piecewise_profiles_compare_and_hash_by_value():
    from locop import corpus
    assert bspline_profile(2) == bspline_profile(2)
    assert hash(bspline_profile(2)) == hash(bspline_profile(2))
    assert corpus.hat_family(8) == corpus.hat_family(8)
    assert bspline_profile(2) != bspline_profile(3)
    assert bspline_profile(2) != PiecewisePolynomial(np.array([0.0, 2.0]), (np.array([1.0]),))
    assert corpus.hat_family(8) != corpus.hat_family(9)
    # -0.0 == 0.0, so both hash alike
    signed = [PiecewisePolynomial(np.array([0.0, 1.0]), (np.array([z, 1.0]),))
              for z in (0.0, -0.0)]
    assert signed[0] == signed[1] and hash(signed[0]) == hash(signed[1])
    # the profile copies its coefficients, so the caller cannot change it
    c = np.array([1.0, 2.0])
    prof = PiecewisePolynomial(np.array([0.0, 1.0]), (c,))
    c[0] = 5.0
    assert prof(0.0) == 1.0 and not prof.coeffs[0].flags.writeable


def test_bspline_partition_of_unity():
    h = hat()
    xs = np.linspace(2.0, 6.0, 101)
    total = sum(h(xs - k) for k in range(0, 8))
    assert np.allclose(total, 1.0, atol=1e-14)


def test_trapezoid_profile_shape():
    t = trapezoid_profile(0.0, 2.0, ramp=1.0, height=1.0)
    assert t(-1.0) == 0.0
    assert t(-0.5) == 0.5
    assert t(0.0) == 1.0 and t(2.0) == 1.0 and t(1.3) == 1.0
    assert t(2.5) == 0.5
    assert t(3.0) == 0.0


def test_antiderivative_consistency_piecewise():
    h = hat()
    # F(b) - F(a) must equal the exact integral of the hat
    assert h.antiderivative_at(2.0) - h.antiderivative_at(0.0) == pytest.approx(1.0, abs=1e-15)
    assert h.antiderivative_at(1.0) - h.antiderivative_at(0.0) == pytest.approx(0.5, abs=1e-15)


@settings(deadline=None, max_examples=25)
@given(st.floats(-3.0, 3.0), st.floats(0.0, 4.0))
def test_antiderivative_matches_quadrature_gaussian(a, width):
    g = GaussianProfile(1.3, 0.7)
    b = a + width
    exact = g.antiderivative_at(b) - g.antiderivative_at(a)
    quad = gauss_legendre_integral(g, a, b, order=12,
                                   splits=np.arange(-3.0, 7.5, 0.5).tolist())
    assert exact == pytest.approx(quad, abs=1e-12)


def test_interval_extrema_straddles_kinks():
    h = hat()
    lo, hi = h.interval_extrema(0.5, 1.5)
    assert (lo, hi) == (0.5, 1.0)
    lo, hi = h.interval_extrema(-1.0, 0.25)
    assert lo == 0.0 and hi == pytest.approx(0.25, abs=1e-15)


def test_interval_extrema_gaussian_peak_inside():
    g = GaussianProfile(1.0, 2.0)
    lo, hi = g.interval_extrema(-0.5, 1.0)
    assert hi == 2.0  # peak at 0 is interior
    assert lo == pytest.approx(g(1.0), rel=1e-14)


@pytest.mark.parametrize("g", [GaussianProfile(0.8, 1.5),
                               GaussianProfile(1.0, -0.5),
                               ExponentialProfile(2.0, 0.3), bspline_profile(3)],
                         ids=["gaussian", "gaussian-negative", "exponential",
                              "bspline3"])
def test_interval_extrema_array_matches_scalar(g):
    # straddling 0, touching 0 from either side, far out in both tails,
    # across B-spline kinks, and degenerate
    a = np.array([-0.5, 0.0, -1.0, -1e-3, 7.5, -40.0, 0.25, 1.75, 2.0, -3.0])
    b = np.array([0.75, 1.0, 0.0, 1e-3, 9.0, -38.0, 1.25, 2.5, 2.0, 3.0])
    mn, mx = g.interval_extrema(a, b)
    want = np.array([oracles.interval_extrema(g, s, e) for s, e in zip(a, b)])
    assert np.array_equal(mn, want[:, 0])
    assert np.array_equal(mx, want[:, 1])


def _pp_cases():
    wiggle = PiecewisePolynomial(np.array([-1.0, 0.0, 0.5, 2.0]),
                                 (np.array([0.2, -1.0, 3.0, -2.0]),
                                  np.array([-0.5, 2.0]),
                                  np.array([1.0, 0.0, -4.0, 2.0])))
    return {"hat": hat(), "bspline3": bspline_profile(3),
            "bspline4": bspline_profile(4), "box": bspline_profile(1),
            "trapezoid": trapezoid_profile(0.0, 2.0, ramp=0.5, height=2.0),
            "wiggle": wiggle}


@pytest.mark.parametrize("name", sorted(_pp_cases()))
@pytest.mark.parametrize("right_open", [False, True], ids=["closed", "right-open"])
def test_piecewise_interval_extrema_equal_the_scalar_oracle(name, right_open):
    # every pair of end points from breakpoints, points just beside them,
    # piece interiors (the cubic B-spline's interior critical points among
    # them), and points outside the support; a == b gives degenerate intervals
    g = _pp_cases()[name]
    br = g.breaks
    pts = np.unique(np.concatenate([
        br, np.nextafter(br, -np.inf), np.nextafter(br, np.inf),
        0.5 * (br[:-1] + br[1:]), br[:-1] + 0.3 * np.diff(br),
        [br[0] - 2.0, br[0] - 0.5, br[-1] + 0.5, br[-1] + 2.0]]))
    a, b = np.meshgrid(pts, pts, indexing="ij")
    keep = a <= b
    a, b = a[keep], b[keep]
    mn, mx = g.interval_extrema(a, b, right_open=right_open)
    want = np.array([oracles.pp_interval_extrema(g, s, e, right_open)
                     for s, e in zip(a.tolist(), b.tolist())])
    assert np.array_equal(mn, want[:, 0])
    assert np.array_equal(mx, want[:, 1])


@st.composite
def _piecewise_polynomials(draw):
    pieces = draw(st.integers(1, 5))
    left = draw(st.floats(-50.0, 50.0))
    widths = draw(st.lists(st.floats(1e-3, 10.0), min_size=pieces, max_size=pieces))
    breaks = left + np.concatenate([[0.0], np.cumsum(widths)])
    assume((np.diff(breaks) > 0).all())
    coeff = st.floats(-100.0, 100.0)
    coeffs = tuple(np.array(draw(st.lists(coeff, min_size=1, max_size=5)))
                   for _ in range(pieces))
    return PiecewisePolynomial(breaks, coeffs)


@settings(deadline=None, max_examples=60)
@given(_piecewise_polynomials(), st.lists(st.floats(-80.0, 120.0), min_size=1,
                                          max_size=20))
def test_piecewise_antiderivative_equals_per_call_integration(g, xs):
    # the stored piece integrals are bit for bit the ones the per-call
    # form recomputes, at the breaks and beside them too
    br = g.breaks
    x = np.concatenate([xs, br, np.nextafter(br, -np.inf), np.nextafter(br, np.inf)])
    assert np.array_equal(g.antiderivative_at(x), oracles.pp_antiderivative(g, x))
    assert g.antiderivative_at(float(br[-1])) == oracles.pp_antiderivative(g, br[-1])[0]


def test_piecewise_interval_extrema_rejects_empty_interval():
    with pytest.raises(ValueError, match="empty"):
        hat().interval_extrema(np.array([0.0, 1.0]), np.array([0.5, 0.5]))


@pytest.mark.parametrize("g", [GaussianProfile(0.8, 1.5), GaussianProfile(1.0, -0.5),
                               ExponentialProfile(2.0, 0.3)],
                         ids=["gaussian", "gaussian-negative", "exponential"])
def test_even_peak_interval_extrema_within_one_ulp_of_the_oracle(g, rng):
    a = rng.uniform(-12.0, 12.0, 6000)
    b = a + rng.exponential(1.0, a.size)
    mn, mx = g.interval_extrema(a, b)
    want = np.array([oracles.interval_extrema(g, s, e)
                     for s, e in zip(a.tolist(), b.tolist())])
    np.testing.assert_array_max_ulp(mn, want[:, 0], maxulp=1)
    np.testing.assert_array_max_ulp(mx, want[:, 1], maxulp=1)


@pytest.mark.parametrize("g", [hat(), bspline_profile(4),
                               trapezoid_profile(0.0, 2.0, ramp=0.5),
                               GaussianProfile(0.8, 1.5)],
                         ids=["hat", "bspline4", "trapezoid", "gaussian"])
def test_cell_sup_array_matches_per_cell_oracle(g):
    ks = np.arange(-6, 7)
    want = [oracles.cell_sup(g, int(k)) for k in ks]
    assert np.array_equal(g.cell_sup(ks), want)
    assert g.amalgam_norm() == pytest.approx(sum(want), rel=1e-13)


def test_decay_radius_contains_mass():
    g = GaussianProfile(0.8, 1.0)
    r = g.decay_radius(1e-10)
    assert g(r) <= 1e-10 * 1.0 * (1 + 1e-12)
    assert g(0.5 * r) > 1e-10


def test_exponential_profile_tail_and_values():
    e = ExponentialProfile(0.5, 2.0)  # 2 * exp(-0.5 |x|)
    assert e(0.0) == 2.0
    assert e(1.0) == pytest.approx(2.0 * math.exp(-0.5), rel=1e-14)


def test_amalgam_norm_box_and_hat():
    # box on [0,1): one cell of sup 1... plus the neighbour cell seeing the
    # closed endpoint; the hat spreads sups 0.5, 1, 1 over three cells
    assert bspline_profile(1).amalgam_norm() >= 1.0
    assert hat().amalgam_norm() == pytest.approx(2.0, abs=1e-12)


def test_amalgam_norm_gaussian_matches_direct_cell_sum():
    g = GaussianProfile(1.0, 0.3)
    direct = sum(g.interval_extrema(k, k + 1)[1] for k in range(-40, 40))
    assert g.amalgam_norm() == pytest.approx(direct, rel=1e-10)


def test_cell_averages_exact_for_hat():
    h = hat()
    edges = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    avg = h.cell_averages(edges)
    assert np.allclose(avg, [0.125 / 0.5, 0.375 / 0.5, 0.375 / 0.5, 0.125 / 0.5],
                       atol=1e-15)


def test_modulus_of_continuity_hat():
    h = hat()
    # at the peak the hat drops delta on both sides
    assert h.modulus_of_continuity(0.25, 1.0) == pytest.approx(0.25, abs=1e-12)
    # far from the support nothing oscillates
    assert h.modulus_of_continuity(0.25, 5.0) == 0.0


def test_modulus_of_continuity_takes_any_positive_radius():
    # the kernel's Hölder probes pass radius 2 * delta = 1
    assert hat().modulus_of_continuity(1.0, 1.0) == 1.0
    for bad in (0.0, -0.5, float("nan")):
        with pytest.raises(ValueError, match="positive"):
            hat().modulus_of_continuity(bad, 1.0)


def test_gauss_legendre_exact_on_polynomials():
    # order-8 rule integrates degree 15 exactly
    exact = 2.0 ** 16 / 16.0
    assert gauss_legendre_integral(lambda x: x ** 15, 0.0, 2.0, order=8) == \
        pytest.approx(exact, rel=1e-14)


def test_gauss_legendre_split_handles_kinks():
    h = hat()
    with_split = gauss_legendre_integral(h, 0.0, 2.0, order=4, splits=[1.0])
    assert with_split == pytest.approx(1.0, abs=1e-14)


def test_pp_inner_product_hat_gram_values():
    h = hat()
    assert pp_inner_product(h, h) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert pp_inner_product(h, h, shift=1.0) == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert pp_inner_product(h, h, shift=2.0) == 0.0
    assert pp_inner_product(h, h, shift=-1.0) == pytest.approx(1.0 / 6.0, abs=1e-15)


@settings(deadline=None, max_examples=20)
@given(st.floats(-2.5, 2.5))
def test_pp_inner_product_matches_quadrature(shift):
    p = bspline_profile(3)
    q = hat()
    exact = pp_inner_product(p, q, shift=shift)
    kinks = list(p.breaks) + [b - shift for b in q.breaks]
    quad = gauss_legendre_integral(lambda x: p(x) * q(x + shift), -1.0, 4.0,
                                   order=10, splits=kinks)
    assert exact == pytest.approx(quad, abs=1e-12)


def test_profile_json_round_trips():
    for prof in (hat(), GaussianProfile(0.9, 1.1), ExponentialProfile(2.0, 0.4),
                 trapezoid_profile(-1.0, 1.0, 0.5, 2.0)):
        again = profile_from_json_dict(prof.to_json_dict())
        xs = np.linspace(-4, 4, 101)
        assert np.array_equal(np.asarray(again(xs)), np.asarray(prof(xs)))


def test_unknown_profile_kind_rejected():
    with pytest.raises(ValueError):
        profile_from_json_dict({"kind": "wavelet", "scale": 1.0})


@pytest.mark.parametrize("order", [2.5, math.inf, math.nan])
def test_bspline_order_must_be_an_integer(order):
    # int() used to truncate 2.5 to a valid order 2 and overflow on inf
    with pytest.raises(InvariantViolation, match="order"):
        profile_from_json_dict({"kind": "bspline", "order": order})


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_profiles_reject_non_finite_parameters(bad):
    for make in (lambda: GaussianProfile(bad), lambda: GaussianProfile(1.0, bad),
                 lambda: ExponentialProfile(bad), lambda: ExponentialProfile(1.0, bad),
                 lambda: PiecewisePolynomial([0.0, bad], ([1.0],)),
                 lambda: PiecewisePolynomial([0.0, 1.0], ([1.0, bad],))):
        with pytest.raises(InvariantViolation, match="finite"):
            make()
