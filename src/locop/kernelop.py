"""Integral operators with enveloped kernels, and their dyadic discretization.

A kernel operator Tf(x) = ∫ K(x,y) f(y) dy enters the pipeline through a
rule (convolution g(x-y), or a finite sum of separable terms), an envelope
profile h with |K(x,y)| <= h(y-x), and a Hölder budget (alpha, D) for the
joint modulus of the kernel.  Discretizing to cell averages at scale 2^-n
gives a matrix A_n; the perturbed identity I + 2^-n A_n carries the same
stability constants as the projected operator I + P_n T P_n, and the
discretization error decays like 2^{-n alpha} on piecewise-constant probes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, NumericalError, integer_field
from .lattice import IndexSet
from .matalg import ENTRY_DROP_TOL, LocalizedMatrix, toeplitz_entries
from .profiles import Profile1D, gauss_legendre_rule, profile_from_json_dict
from .stability import (StabilityReport, WindowEntry, check_window_sizes, ladder_verdict,
                        normalize_p, toeplitz_singular_extremes)
from .synthesis import HYPOTHESIS_SLACK, PROBE_PER_UNIT, DyadicFunction, project_Pn

CONV_QUAD_ORDER = 8
QUAD_CHECK_TOL = 1e-12
ENTRY_CUTOFF_TOL = 1e-15


# ----------------------------------------------------------------------
# kernel rules


@dataclass(frozen=True)
class ConvolutionRule:
    """K(x, y) = g(x - y), or g(y - x) when ``reflected``.

    A reflected rule keeps g itself and reads its per-offset integrals at
    negated offsets, so no mirrored profile is built.
    """

    profile: Profile1D
    reflected: bool = False

    kind = "convolution"

    def value(self, x, y):
        u = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
        return self.profile(-u if self.reflected else u)

    def to_json_dict(self) -> dict:
        out = {"kind": "convolution", "g": self.profile.to_json_dict()}
        if self.reflected:
            out["reflected"] = True
        return out


@dataclass(frozen=True)
class SeparableRule:
    """K(x, y) = sum of weight * x_factor(x) * y_factor(y) terms."""

    terms: tuple

    kind = "table"

    def __post_init__(self):
        terms = tuple((float(c), u, v) for c, u, v in self.terms)
        if not all(math.isfinite(c) for c, _, _ in terms):
            raise InvariantViolation("separable kernel weights must be finite")
        object.__setattr__(self, "terms", terms)

    def value(self, x, y):
        xs = np.asarray(x, dtype=float)
        ys = np.asarray(y, dtype=float)
        out = np.zeros(np.broadcast(xs, ys).shape)
        for c, u, v in self.terms:
            out += c * np.asarray(u(xs), dtype=float) * np.asarray(v(ys), dtype=float)
        return out

    def to_json_dict(self) -> dict:
        return {"kind": "table",
                "terms": [{"weight": c, "x_factor": u.to_json_dict(),
                           "y_factor": v.to_json_dict()} for c, u, v in self.terms]}


def rule_from_json_dict(obj: dict):
    if obj["kind"] == "convolution":
        return ConvolutionRule(profile_from_json_dict(obj["g"]),
                               bool(obj.get("reflected", False)))
    if obj["kind"] == "table":
        return SeparableRule(tuple(
            (float(t["weight"]), profile_from_json_dict(t["x_factor"]),
             profile_from_json_dict(t["y_factor"])) for t in obj["terms"]))
    raise ValueError(f"unknown kernel rule kind {obj['kind']!r}")


# ----------------------------------------------------------------------
# the operator


@dataclass(frozen=True)
class KernelOperator:
    """Integral operator with envelope-dominated, Hölder-continuous kernel.

    Hypotheses enforced by validate():
      * sup_y |K(y, x+y)| <= envelope(x) pointwise on a probe grid;
      * the per-unit-cell sups of that function sum to at most d_const;
      * the joint modulus sup_y omega_delta(K)(y, x+y) has amalgam sum
        <= d_const * delta**alpha on the dyadic delta grid 2^-1 .. 2^-10.

    One envelope serves K(x, y) and K(y, x), so asymmetric
    kernels need an envelope dominating both orientations.
    """

    rule: object
    envelope: Profile1D
    alpha: float
    d_const: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.d_const)):
            raise InvariantViolation("alpha and D must be finite")
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must lie in (0, 1]")
        if self.d_const <= 0:
            raise ValueError("D must be positive")
        object.__setattr__(self, "_tables", {})

    # -- evaluation ------------------------------------------------------
    def kernel(self, x, y):
        return self.rule.value(x, y)

    def pad_radius(self) -> float:
        """Radius outside which the envelope is below 1e-10."""
        return self.envelope.decay_radius(1e-10)

    def _offset_radius(self) -> float:
        r = self.envelope.decay_radius(ENTRY_CUTOFF_TOL)
        if isinstance(self.rule, ConvolutionRule):
            r = max(r, self.rule.profile.decay_radius(ENTRY_CUTOFF_TOL))
        return r

    # -- hypothesis checks -------------------------------------------------
    def _diagonal_sup(self, xs: np.ndarray) -> np.ndarray:
        """sup_y |K(y, x+y)| sampled per x."""
        if isinstance(self.rule, ConvolutionRule):
            g = self.rule.profile
            return np.abs(np.asarray(g(xs if self.rule.reflected else -xs),
                                     dtype=float))
        spans = [max(u.decay_radius(1e-13), 1.0) for _, u, _ in self.rule.terms] or [1.0]
        ys = np.linspace(-max(spans), max(spans), 512)
        vals = self.rule.value(ys[:, None], xs[None, :] + ys[:, None])
        return np.abs(vals).max(axis=0)

    def validate(self) -> dict:
        """Probe-grid verification of the envelope and Hölder hypotheses.

        Sampled (PROBE_PER_UNIT points per unit cell), not a proof; raises
        InvariantViolation on any excess beyond HYPOTHESIS_SLACK.
        """
        h = self.envelope
        radius = max(self._offset_radius(), h.decay_radius(1e-13)) + 1.0
        k_hi = int(math.ceil(radius))
        cells = np.arange(-k_hi, k_hi)
        offs = (np.arange(PROBE_PER_UNIT) + 0.5) / PROBE_PER_UNIT
        xs = (cells[:, None] + offs[None, :]).reshape(-1)
        m = self._diagonal_sup(xs)
        hv = np.asarray(h(xs), dtype=float)
        gap = float((m - hv).max())
        if gap > HYPOTHESIS_SLACK * max(1.0, float(m.max(initial=0.0))):
            raise InvariantViolation(
                f"envelope does not dominate the kernel (excess {gap:.3e})")
        cell_sups = m.reshape(len(cells), PROBE_PER_UNIT).max(axis=1)
        total = float(cell_sups.sum())
        if total > self.d_const * (1.0 + HYPOTHESIS_SLACK):
            raise InvariantViolation(
                f"kernel amalgam sum {total:.6g} exceeds D = {self.d_const}")
        margin = math.inf
        need = 0.0
        for k in range(1, 11):
            delta = 2.0 ** (-k)
            md = self._modulus_sup(xs, delta)
            sums = float(md.reshape(len(cells), PROBE_PER_UNIT).max(axis=1).sum())
            budget = self.d_const * delta ** self.alpha
            margin = min(margin, budget - sums)
            need = max(need, sums / delta ** self.alpha)
            if sums > budget * (1.0 + HYPOTHESIS_SLACK):
                raise InvariantViolation(
                    f"Hölder bound fails at delta=2^-{k}: "
                    f"{sums:.6g} > D*delta^alpha = {budget:.6g}")
        return {"amalgam_sum": total, "envelope_excess": gap,
                "holder_margin": margin, "holder_need": need}

    def _modulus_sup(self, xs: np.ndarray, delta: float) -> np.ndarray:
        """sup_y of the joint modulus of K at (y, x+y), per probe x."""
        if isinstance(self.rule, ConvolutionRule):
            g = self.rule.profile
            pts = xs if self.rule.reflected else -xs
            return g.modulus_of_continuity(2.0 * delta, pts)
        spans = [max(u.decay_radius(1e-13), 1.0) for _, u, _ in self.rule.terms] or [1.0]
        ys = np.linspace(-max(spans), max(spans), 128)
        base = self.rule.value(ys[:, None], xs[None, :] + ys[:, None])
        worst = np.zeros_like(base)
        for du in (-delta, 0.0, delta):
            for dv in (-delta, 0.0, delta):
                if du == 0.0 and dv == 0.0:
                    continue
                shifted = self.rule.value(ys[:, None] + du,
                                          xs[None, :] + ys[:, None] + dv)
                worst = np.maximum(worst, np.abs(shifted - base))
        return worst.max(axis=0)

    # -- serialization -----------------------------------------------------
    def to_json_dict(self) -> dict:
        return {"rule": self.rule.to_json_dict(),
                "envelope": self.envelope.to_json_dict(),
                "alpha": self.alpha, "D": self.d_const}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "KernelOperator":
        return cls(rule_from_json_dict(obj["rule"]),
                   profile_from_json_dict(obj["envelope"]),
                   float(obj["alpha"]), float(obj["D"]))


# ----------------------------------------------------------------------
# discretization


def _conv_offset_table(g: Profile1D, ks: np.ndarray, h: float,
                       order: int = CONV_QUAD_ORDER) -> np.ndarray:
    """2^{2n} * integral of (h-|u|) g(k h + u) over [-h, h], per offset k.

    The triangular weight is the overlap of two width-h cells; splits at
    u=0 and at the profile's kinks keep Gauss-Legendre exact for
    piecewise polynomials and at 1e-12 for the smooth kinds.  All offsets
    are done in one array pass: each row of the cut matrix holds -h, 0, h
    and every kink clipped to [-h, h], sorted, and the nodes of all
    (offset, segment) pairs are evaluated at once.  A kink outside
    (-h, h) clips onto an end point, so its segment has length zero and
    contributes exactly 0.
    """
    base = ks * h
    kinks = np.asarray(g.smooth_breakpoints(), dtype=float)
    cuts = np.empty((ks.size, 3 + kinks.size))
    cuts[:, :3] = (-h, 0.0, h)
    cuts[:, 3:] = np.clip(kinks[None, :] - base[:, None], -h, h)
    cuts.sort(axis=1)
    mid = 0.5 * (cuts[:, :-1] + cuts[:, 1:])
    half = 0.5 * (cuts[:, 1:] - cuts[:, :-1])
    nodes, weights = gauss_legendre_rule(order)
    u = mid[:, :, None] + half[:, :, None] * nodes
    vals = (h - np.abs(u)) * np.asarray(g(base[:, None, None] + u), dtype=float)
    total = (half * (vals @ weights)).sum(axis=1)
    return total * (1.0 / (h * h))


def _verify_offset_quadrature(g: Profile1D, ks: np.ndarray, h: float,
                              table: np.ndarray) -> None:
    """Order-doubling check of every per-offset integral.

    Recomputes the whole table at twice the Gauss-Legendre order and
    raises NumericalError when any entry moves by more than
    QUAD_CHECK_TOL (relative, floored at 1).
    """
    if ks.size == 0:
        return
    refined = _conv_offset_table(g, ks, h, order=2 * CONV_QUAD_ORDER)
    err = np.abs(refined - table)
    tol = QUAD_CHECK_TOL * np.maximum(1.0, np.abs(refined))
    if (err > tol).any():
        worst = float(err.max())
        raise NumericalError(
            f"offset quadrature did not converge (order doubling moved an "
            f"entry by {worst:.3e})")


def _offset_table(op: KernelOperator, n: int) -> np.ndarray:
    """The checked per-offset table of a convolution rule at scale 2^-n.

    Covers |k| <= kmax, one past the offset radius in cells, and is
    reflected for a reflected rule.  It is built and order-doubling
    checked once per operator and scale, then kept on the operator.
    """
    table = op._tables.get(n)
    if table is None:
        h = 2.0 ** (-n)
        kmax = int(math.ceil(op._offset_radius() / h)) + 1
        ks = np.arange(-kmax, kmax + 1)
        table = _conv_offset_table(op.rule.profile, ks, h)
        _verify_offset_quadrature(op.rule.profile, ks, h, table)
        if op.rule.reflected:
            table = table[::-1]
        op._tables[n] = table
    return table


def _cell_range(window, n: int) -> tuple[int, int]:
    lo, hi = float(window[0]), float(window[1])
    k_lo = math.floor(lo * 2.0 ** n + 1e-9)
    k_hi = math.ceil(hi * 2.0 ** n - 1e-9)
    if k_hi <= k_lo:
        raise ValueError("window contains no dyadic cells at this scale")
    return k_lo, k_hi


def _window_entries(op: KernelOperator, n: int, window):
    """Index set and (i, j, value) arrays of A_n on a window's dyadic grid.

    The entries come in row-major order, so LocalizedMatrix keeps them
    without a sort; a convolution rule's value at (i, j) is the offset
    table's entry i - j.  Every diagonal entry is listed, zero or not, so
    the perturbed identity can add 1 in place; LocalizedMatrix drops the
    entries below its tolerance.
    """
    k_lo, k_hi = _cell_range(window, n)
    ncells = k_hi - k_lo
    index = IndexSet.dyadic_range(n, k_lo, k_hi)
    if isinstance(op.rule, ConvolutionRule):
        ii, jj, vv = toeplitz_entries(_offset_table(op, n), ncells)
    else:
        edges = (k_lo + np.arange(ncells + 1)) * 2.0 ** (-n)
        dense = np.zeros((ncells, ncells))
        for c, u, v in op.rule.terms:
            dense += c * np.outer(u.cell_averages(edges), v.cell_averages(edges))
        ii, jj = np.indices(dense.shape).reshape(2, -1)
        vv = dense.reshape(-1)
    return index, ii, jj, vv


def discretize_kernel(op: KernelOperator, n: int, window) -> LocalizedMatrix:
    """Cell-pair averages 2^{2n} ∬ K over the dyadic window grid.

    Convolution rules produce exactly Toeplitz matrices (one integral per
    offset, order-doubling checked); separable rules multiply cell
    averages of the factors.  Entries are cut off where the envelope
    falls below 1e-15.
    """
    index, ii, jj, vv = _window_entries(op, n, window)
    return LocalizedMatrix(index, index, ii, jj, vv)


def apply_discretized(op: KernelOperator, n: int, f: DyadicFunction) -> DyadicFunction:
    """T_n f = P_n T P_n f as a scale-2^{-n} piecewise-constant function.

    Works tablewise for convolution rules (no matrix assembly), so it
    stays cheap at the fine reference scales of the error curve.
    """
    u = project_Pn(f, n)
    h = 2.0 ** (-n)
    a = u.values
    if isinstance(op.rule, ConvolutionRule):
        table = _offset_table(op, n)
        # the real 1-D FFT convolution on numpy.fft, at the power-of-two
        # length that holds the full product: scipy.fft, and the
        # scipy.special it loads, would add about 0.08 s to the first call
        size = a.size + table.size - 1
        L = 1 << (size - 1).bit_length()
        conv = np.fft.irfft(np.fft.rfft(a, L) * np.fft.rfft(table, L), L)[:size]
        return DyadicFunction(n, u.start - table.size // 2, h * conv)
    # Separable output lives on the union of the x-factor supports.
    edges = (u.start + np.arange(a.size + 1)) * h
    radii = [x.decay_radius(ENTRY_CUTOFF_TOL) for _, x, _ in op.rule.terms]
    r_max = max(radii, default=1.0)
    lo_cell = math.floor(-r_max / h)
    hi_cell = math.ceil(r_max / h)
    out_edges = (lo_cell + np.arange(hi_cell - lo_cell + 1)) * h
    vals = np.zeros(hi_cell - lo_cell)
    for c, u_f, v_f in op.rule.terms:
        weight = float(np.diff(np.asarray(v_f.antiderivative_at(edges))) @ a)
        vals += c * weight * u_f.cell_averages(out_edges)
    return DyadicFunction(n, lo_cell, vals)


# ----------------------------------------------------------------------
# error curve


@dataclass(frozen=True)
class ErrorCurve:
    r: float
    entries: list  # (n, max ratio over probes)
    slope: float | None


def discretization_error_curve(op: KernelOperator, n_values, probes,
                               r=2.0) -> ErrorCurve:
    """max_f ||(T_{n+3} - T_n) f||_r / ||f||_r per n, with a log2 fit.

    The reference scale n + 3 stands in for the continuum
    operator; both applications are exact on piecewise-constant probes,
    so the measured ratios carry no quadrature noise beyond 1e-12.
    """
    r = normalize_p(r)
    n_values = check_window_sizes([integer_field(n, "scale") for n in n_values])
    entries = []
    for n in n_values:
        m = n + 3
        worst = 0.0
        for f in probes:
            fn = f.lp_norm(r)
            if fn == 0.0:
                raise ValueError("probes must be nonzero")
            ref = apply_discretized(op, m, f)
            coarse = apply_discretized(op, n, f).refine(m)
            worst = max(worst, ref.subtract(coarse).lp_norm(r) / fn)
        entries.append((n, float(worst)))
    ratios = np.array([e[1] for e in entries])
    slope = None
    if (ratios > 0).all() and len(entries) >= 2:
        slope = float(np.polyfit(n_values, np.log2(ratios), 1)[0])
    return ErrorCurve(r, entries, slope)


# ----------------------------------------------------------------------
# stability of the perturbed identity


@dataclass(frozen=True)
class PerturbedEntry(WindowEntry):
    n: int
    uncertainty: float | None


@dataclass(frozen=True)
class PerturbedIdentityReport(StabilityReport):
    error_curve: ErrorCurve


def _default_probes(op: KernelOperator, window, level: int) -> list:
    lo, hi = float(window[0]), float(window[1])
    pad = op.pad_radius() + 1.0
    a, b = lo + pad, hi - pad
    if b - a < 1.0:
        raise ValueError("window too small for interior probes")
    mid, quarter = (a + b) / 2.0, (b - a) / 4.0
    box = DyadicFunction(0, math.floor(mid - quarter),
                         np.ones(max(int(round(2 * quarter)), 1)))
    bump = project_Pn(lambda x: np.exp(-((x - mid) ** 2)), level,
                      window=(mid - 6.0, mid + 6.0))
    return [project_Pn(box, level), bump]


def _perturbed_band(op: KernelOperator, n: int, ncells: int) -> np.ndarray | None:
    """I + 2^-n A_n of a convolution rule on an ncells-cell window as its
    centred band: 2^-n times the offset table clipped to the window's
    offsets |k| <= ncells - 1, 1 added at offset 0, and entries below
    ENTRY_DROP_TOL zeroed, as LocalizedMatrix drops them.  None when A_n
    has no entry at or above that tolerance on the window."""
    table = _offset_table(op, n)
    mid = table.size // 2
    k = min(mid, ncells - 1)
    band = table[mid - k:mid + k + 1]
    if not (np.abs(band) >= ENTRY_DROP_TOL).any():
        return None
    band = 2.0 ** (-n) * band
    band[k] += 1.0
    band[np.abs(band) < ENTRY_DROP_TOL] = 0.0
    return band


def _perturbed_entry(op: KernelOperator, p: float, n: int, w: float,
                     uncertainty: float | None) -> PerturbedEntry:
    """The entry of I + 2^-n A_n on the window [0, w].

    A convolution rule's window is the Toeplitz matrix of one band; at
    p = 2 its constants come from the band itself, with no matrix
    assembled, unless ``toeplitz_singular_extremes`` declines it.  Every
    other window is assembled as one LocalizedMatrix.
    """
    labels = {"n": n, "uncertainty": uncertainty}
    identity = PerturbedEntry(w, 1.0, 1.0, True, True, "identity", **labels)
    if isinstance(op.rule, ConvolutionRule):
        k_lo, k_hi = _cell_range((0.0, w), n)
        ncells = k_hi - k_lo
        band = _perturbed_band(op, n, ncells)
        if band is None:
            return identity
        # one cell and the zero band are lower_constant's column-norm and
        # zero-matrix cases
        if p == 2.0 and ncells > 1 and band.any():
            ext = toeplitz_singular_extremes(band, ncells)
            if ext is not None:
                return PerturbedEntry(w, *ext, True, True, "singular-value", **labels)
        index = IndexSet.dyadic_range(n, k_lo, k_hi)
        M = LocalizedMatrix(index, index, *toeplitz_entries(band, ncells))
    else:
        index, ii, jj, vv = _window_entries(op, n, (0.0, w))
        if not (np.abs(vv) >= ENTRY_DROP_TOL).any():
            return identity
        vv = 2.0 ** (-n) * vv
        vv[ii == jj] += 1.0
        M = LocalizedMatrix(index, index, ii, jj, vv)
    return PerturbedEntry.of(M, p, w, **labels)


def perturbed_identity_stability(op: KernelOperator, p, n_values,
                                 window_sizes,
                                 probes=None) -> PerturbedIdentityReport:
    """Stability constants of I + 2^{-n} A_n across scale and window ladders.

    The dyadic norm identity scales function and coefficient norms by the
    same 2^{-n/p} factor, so the matrix constants reported here equal the
    constants of I + P_n T P_n on the corresponding Lp spaces.  Scales are
    integers (a fractional one is an InvariantViolation).  Each (window,
    scale) pair builds one window (see ``_perturbed_entry``): at p = 2 a
    convolution rule's window is read off its band, any other is one
    LocalizedMatrix.  The discretization-error ratio at each scale rides
    along as the uncertainty attached to every entry.
    """
    n_values = check_window_sizes([integer_field(n, "scale") for n in n_values])
    window_sizes = check_window_sizes([float(w) for w in window_sizes])
    op.validate()
    p = normalize_p(p)
    big = (0.0, max(window_sizes))
    if probes is None:
        probes = _default_probes(op, big, min(n_values))
    curve = discretization_error_curve(op, n_values, probes, r=p)
    bias = dict(curve.entries)
    entries = [_perturbed_entry(op, p, n, w, bias.get(n))
               for w in window_sizes for n in n_values]
    finest = max(n_values)
    lowers = [e.lower for e in entries if e.n == finest]
    return PerturbedIdentityReport(p, entries, ladder_verdict(lowers), curve)
