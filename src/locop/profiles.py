"""One-dimensional profiles: piecewise polynomials and closed decay forms.

These back generator families, envelopes, and convolution kernels.  Every
kind supports exact evaluation, exact definite integrals (antiderivatives),
exact extrema on intervals, and per-cell suprema of the absolute value --
the ingredients for amalgam-space norms and moduli of continuity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvariantViolation, integer_field

_SQRT_PI = math.sqrt(math.pi)


class Profile1D:
    """Base class; subclasses implement the exact-evaluation hooks."""

    kind = "abstract"

    # -- hooks ---------------------------------------------------------
    def __call__(self, x):  # pragma: no cover - abstract
        raise NotImplementedError

    def antiderivative_at(self, x):  # F with F' = f, vectorized
        raise NotImplementedError

    def interval_extrema(self, a, b) -> tuple[np.ndarray, np.ndarray]:
        """(min, max) of f over [a[i], b[i]], exact, per i; scalars broadcast."""
        raise NotImplementedError

    def sup_abs_halfopen(self, a, b) -> np.ndarray:
        """sup |f| over [a, b); equals the closed-interval value when f is continuous."""
        mn, mx = self.interval_extrema(a, b)
        return np.maximum(np.abs(mn), np.abs(mx))

    def smooth_breakpoints(self) -> np.ndarray:
        """Points where f is not smooth (for split quadrature)."""
        return np.empty(0)

    def decay_radius(self, tol: float = 1e-10) -> float:
        """R with |f| < tol outside [-R, R]."""
        raise NotImplementedError

    # -- shared machinery -----------------------------------------------
    def cell_averages(self, edges: np.ndarray) -> np.ndarray:
        """Mean of f over consecutive cells [edges[i], edges[i+1])."""
        F = self.antiderivative_at(np.asarray(edges, dtype=float))
        return np.diff(F) / np.diff(edges)

    def cell_sup(self, k) -> np.ndarray:
        """sup |f| over the unit cell [k, k + 1), per k."""
        k = np.asarray(k, dtype=float)
        return self.sup_abs_halfopen(k, k + 1.0)

    def modulus_of_continuity(self, delta: float, x) -> np.ndarray:
        """sup_{|y| <= delta} |f(x + y) - f(x)| per x, exact via interval extrema."""
        if not delta > 0.0:
            raise ValueError("delta must be positive")
        x = np.asarray(x, dtype=float)
        mn, mx = self.interval_extrema(x - delta, x + delta)
        fx = np.asarray(self(x), dtype=float)
        return np.maximum(mx - fx, fx - mn)

    def amalgam_norm(self) -> float:
        """Sum over integer cells of sup |f|, over the cells that meet the
        1e-14 decay radius (plus one on each side), in ascending k order."""
        radius = self.decay_radius(1e-14)
        ks = np.arange(int(math.floor(-radius)) - 1, int(math.ceil(radius)) + 2)
        sups = self.cell_sup(ks)
        return float(np.sum(sups[sups > 0.0]))


# ----------------------------------------------------------------------


def _even_peak_extrema(prof: Profile1D, a, b) -> tuple[np.ndarray, np.ndarray]:
    """Interval extrema of a profile monotone on each side of 0.

    The candidates are both end points, and 0 when it lies strictly inside
    the interval.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    fa, fb = prof(a), prof(b)
    mn, mx = np.minimum(fa, fb), np.maximum(fa, fb)
    peak = (a < 0.0) & (0.0 < b)
    f0 = float(prof(0.0))
    mn = np.where(peak, np.minimum(mn, f0), mn)
    mx = np.where(peak, np.maximum(mx, f0), mx)
    return mn, mx


def _poly_eval(coeffs: np.ndarray, u):
    """Evaluate ascending-power coefficients at u (local coordinate)."""
    out = np.zeros_like(np.asarray(u, dtype=float))
    for c in coeffs[::-1]:
        out = out * u + c
    return out


@dataclass(frozen=True)
class PiecewisePolynomial(Profile1D):
    """Polynomial pieces on [breaks[i], breaks[i+1]), zero outside.

    ``coeffs[i]`` holds ascending-power coefficients in the local
    coordinate u = x - breaks[i]; the local form keeps evaluation stable
    for windows far from the origin.  Construction integrates each piece
    once: its antiderivative's coefficients, which vanish at the piece's
    left break, and the integral up to every break.  Breaks and
    coefficients are read-only copies, compared by value and hashed by
    their bytes.
    """

    breaks: np.ndarray
    coeffs: tuple

    kind = "pp"

    def __post_init__(self):
        br = np.asarray(self.breaks, dtype=float)
        cf = tuple(np.asarray(c, dtype=float) for c in self.coeffs)
        if not (np.isfinite(br).all() and all(np.isfinite(c).all() for c in cf)):
            raise InvariantViolation("breaks and coefficients must be finite")
        if br.ndim != 1 or br.size < 2 or (np.diff(br) <= 0).any():
            raise ValueError("breaks must be strictly increasing with >= 2 entries")
        if len(cf) != br.size - 1 or any(c.ndim != 1 for c in cf):
            raise ValueError("need one flat coefficient row per interval")
        br, cf = br.copy(), tuple(c.copy() for c in cf)
        for arr in (br, *cf):
            arr.setflags(write=False)
        anti = tuple(np.concatenate([[0.0], c / np.arange(1, c.size + 1)]) for c in cf)
        widths = [_poly_eval(ic, b - a) for ic, a, b in zip(anti, br, br[1:])]
        object.__setattr__(self, "breaks", br)
        object.__setattr__(self, "coeffs", cf)
        object.__setattr__(self, "_anti", anti)
        object.__setattr__(self, "_cum", np.concatenate([[0.0], np.cumsum(widths)]))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PiecewisePolynomial)
            # equal breaks make equally many pieces
            and np.array_equal(self.breaks, other.breaks)
            and all(np.array_equal(c, d) for c, d in zip(self.coeffs, other.coeffs))
        )

    def __hash__(self) -> int:
        # + 0.0 turns -0.0 into 0.0, which compares equal to it
        return hash(tuple((arr + 0.0).tobytes() for arr in (self.breaks, *self.coeffs)))

    # -----------------------------------------------------------------
    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        out = np.zeros_like(arr)
        idx = np.searchsorted(self.breaks, arr, side="right") - 1
        inside = (idx >= 0) & (idx < len(self.coeffs)) & (arr < self.breaks[-1])
        for i in np.unique(idx[inside]):
            sel = inside & (idx == i)
            out[sel] = _poly_eval(self.coeffs[i], arr[sel] - self.breaks[i])
        return float(out[0]) if scalar else out

    def antiderivative_at(self, x):
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros_like(arr)
        idx = np.searchsorted(self.breaks, arr, side="right") - 1
        below = idx < 0
        above = arr >= self.breaks[-1]
        mid = ~below & ~above
        out[above] = self._cum[-1]
        for i in np.unique(idx[mid]):
            sel = mid & (idx == i)
            out[sel] = self._cum[i] + _poly_eval(self._anti[i], arr[sel] - self.breaks[i])
        result = np.asarray(out)
        return float(result[0]) if np.asarray(x).ndim == 0 else result

    def interval_extrema(self, a, b, right_open: bool = False
                         ) -> tuple[np.ndarray, np.ndarray]:
        """(min, max) over [a, b] per entry, or over [a, b) when ``right_open``.

        Each piece contributes its values at the clipped end points and at
        its real critical points inside them; the loop runs over pieces.
        """
        a, b = np.broadcast_arrays(np.asarray(a, dtype=float),
                                   np.asarray(b, dtype=float))
        if (b < a).any():
            raise ValueError("empty interval")
        zero_right = b > self.breaks[-1] if right_open else b >= self.breaks[-1]
        zero = (a < self.breaks[0]) | zero_right  # the zero extension is visible
        lo = np.where(zero, 0.0, np.inf)
        hi = np.where(zero, 0.0, -np.inf)
        for i, c in enumerate(self.coeffs):
            pa, pb = self.breaks[i], self.breaks[i + 1]
            s, e = np.maximum(a, pa), np.minimum(b, pb)
            # a lone overlap point at pb belongs to the next piece
            live = (s <= e) & ~((s == e) & (s == pb))
            if right_open:
                live &= pa < b  # else the piece begins at the excluded endpoint
            cand = [(live, _poly_eval(c, s - pa)), (live, _poly_eval(c, e - pa))]
            if c.size > 2:
                der = c[1:] * np.arange(1, c.size)
                for r in np.roots(der[::-1]):
                    if abs(r.imag) < 1e-12:
                        xr = r.real + pa
                        cand.append((live & (s <= xr) & (xr <= e),
                                     _poly_eval(c, xr - pa)))
            for mask, v in cand:
                lo = np.where(mask, np.minimum(lo, v), lo)
                hi = np.where(mask, np.maximum(hi, v), hi)
        met = np.isfinite(lo)  # else the interval met no piece
        return np.where(met, lo, 0.0), np.where(met, hi, 0.0)

    def sup_abs_halfopen(self, a, b) -> np.ndarray:
        mn, mx = self.interval_extrema(a, b, right_open=True)
        return np.maximum(np.abs(mn), np.abs(mx))

    def smooth_breakpoints(self) -> np.ndarray:
        return np.asarray(self.breaks)

    def decay_radius(self, tol: float = 1e-10) -> float:
        return float(max(abs(self.breaks[0]), abs(self.breaks[-1])))

    def to_json_dict(self) -> dict:
        return {"kind": "pp", "breaks": [float(b) for b in self.breaks],
                "coeffs": [[float(v) for v in c] for c in self.coeffs]}


@dataclass(frozen=True)
class GaussianProfile(Profile1D):
    """amplitude * exp(-(x/sigma)^2)."""

    sigma: float
    amplitude: float = 1.0

    kind = "gaussian"

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and math.isfinite(self.amplitude)):
            raise InvariantViolation("sigma and amplitude must be finite")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        return self.amplitude * np.exp(-((arr / self.sigma) ** 2))

    def antiderivative_at(self, x):
        arr = np.asarray(x, dtype=float)
        from scipy.special import erf

        return self.amplitude * self.sigma * _SQRT_PI / 2.0 * erf(arr / self.sigma)

    interval_extrema = _even_peak_extrema

    def decay_radius(self, tol: float = 1e-10) -> float:
        amp = abs(self.amplitude)
        if amp == 0 or tol >= amp:
            return 0.0
        return self.sigma * math.sqrt(math.log(amp / tol))

    def to_json_dict(self) -> dict:
        return {"kind": "gaussian", "sigma": float(self.sigma),
                "amplitude": float(self.amplitude)}


@dataclass(frozen=True)
class ExponentialProfile(Profile1D):
    """amplitude * exp(-rate * |x|)."""

    rate: float
    amplitude: float = 1.0

    kind = "exponential"

    def __post_init__(self):
        if not (math.isfinite(self.rate) and math.isfinite(self.amplitude)):
            raise InvariantViolation("rate and amplitude must be finite")
        if self.rate <= 0:
            raise ValueError("rate must be positive")

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        return self.amplitude * np.exp(-self.rate * np.abs(arr))

    def antiderivative_at(self, x):
        arr = np.asarray(x, dtype=float)
        # odd antiderivative: sign(x) * (1 - exp(-rate|x|))/rate
        return self.amplitude * np.sign(arr) * (1.0 - np.exp(-self.rate * np.abs(arr))) / self.rate

    interval_extrema = _even_peak_extrema

    def smooth_breakpoints(self) -> np.ndarray:
        return np.array([0.0])

    def decay_radius(self, tol: float = 1e-10) -> float:
        amp = abs(self.amplitude)
        if amp == 0 or tol >= amp:
            return 0.0
        return math.log(amp / tol) / self.rate

    def to_json_dict(self) -> dict:
        return {"kind": "exponential", "rate": float(self.rate),
                "amplitude": float(self.amplitude)}


# ----------------------------------------------------------------------


def bspline_profile(order: int) -> PiecewisePolynomial:
    """Cardinal B-spline of the given order, supported on [0, order].

    order 1 is the unit box, order 2 the hat on [0, 2].
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    m = int(order)
    fact = math.factorial(m - 1)
    breaks = np.arange(0, m + 1, dtype=float)
    coeffs = []
    for j in range(m):
        # B_m(x) = sum_{k<=j} (-1)^k C(m,k) (x-k)^{m-1} / (m-1)! on [j, j+1)
        poly = np.zeros(m)
        for k in range(j + 1):
            shift = float(j - k)  # local coordinate u = x - j, x - k = u + shift
            w = (-1.0) ** k * math.comb(m, k) / fact
            binom_row = np.array([math.comb(m - 1, t) * shift ** (m - 1 - t)
                                  for t in range(m)])
            poly += w * binom_row
        coeffs.append(poly)
    return PiecewisePolynomial(breaks, tuple(coeffs))


def trapezoid_profile(plateau_lo: float, plateau_hi: float, ramp: float = 1.0,
                      height: float = 1.0) -> PiecewisePolynomial:
    """height on [plateau_lo, plateau_hi], linear ramps of the given width."""
    if ramp <= 0:
        raise ValueError("ramp must be positive")
    br = np.array([plateau_lo - ramp, plateau_lo, plateau_hi, plateau_hi + ramp])
    s = height / ramp
    return PiecewisePolynomial(br, (np.array([0.0, s]),
                                    np.array([height]),
                                    np.array([height, -s])))


def profile_from_json_dict(obj: dict) -> Profile1D:
    kind = obj.get("kind")
    if kind == "pp":
        return PiecewisePolynomial(np.asarray(obj["breaks"], dtype=float),
                                   tuple(np.asarray(c, dtype=float) for c in obj["coeffs"]))
    if kind == "gaussian":
        return GaussianProfile(float(obj["sigma"]), float(obj.get("amplitude", 1.0)))
    if kind == "exponential":
        return ExponentialProfile(float(obj["rate"]), float(obj.get("amplitude", 1.0)))
    if kind == "bspline":
        return bspline_profile(integer_field(obj["order"], "order"))
    raise ValueError(f"unknown profile kind {kind!r}")


# ----------------------------------------------------------------------
# quadrature helpers

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of the order-point Gauss-Legendre rule on [-1, 1], cached."""
    rule = _GL_CACHE.get(order)
    if rule is None:
        rule = np.polynomial.legendre.leggauss(order)
        _GL_CACHE[order] = rule
    return rule


def gauss_legendre_integral(fn, a: float, b: float, order: int = 8,
                            splits: Sequence[float] = ()) -> float:
    """Composite Gauss-Legendre integral of fn over [a, b], split at kinks."""
    if b <= a:
        return 0.0
    pts = [a, b] + [s for s in splits if a < s < b]
    pts = np.unique(np.asarray(pts, dtype=float))
    nodes, weights = gauss_legendre_rule(order)
    total = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        total += half * float(np.dot(weights, fn(mid + half * nodes)))
    return total


def pp_inner_product(p: PiecewisePolynomial, q: PiecewisePolynomial,
                     shift: float = 0.0) -> float:
    """Exact integral of p(x) * q(x + shift) dx."""
    P = np.polynomial.Polynomial
    left = max(p.breaks[0], q.breaks[0] - shift)
    right = min(p.breaks[-1], q.breaks[-1] - shift)
    if right <= left:
        return 0.0
    cuts = np.unique(np.concatenate([
        np.clip(p.breaks, left, right),
        np.clip(q.breaks - shift, left, right),
    ]))
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b <= a:
            continue
        xm = 0.5 * (a + b)
        i = int(np.searchsorted(p.breaks, xm, side="right") - 1)
        j = int(np.searchsorted(q.breaks, xm + shift, side="right") - 1)
        if not (0 <= i < len(p.coeffs) and 0 <= j < len(q.coeffs)):
            continue
        # express both pieces in the local coordinate u = x - a
        pi = P(p.coeffs[i])(P([a - p.breaks[i], 1.0]))
        qj = P(q.coeffs[j])(P([a + shift - q.breaks[j], 1.0]))
        prod = (pi * qj).integ()
        total += float(prod(b - a) - prod(0.0))
    return total
