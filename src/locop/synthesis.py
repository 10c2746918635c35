"""Synthesis operators for enveloped generator families.

A generator family attaches a decaying profile to each point of an index
set (usually shifts of one base profile).  This module verifies the
envelope and modulus hypotheses, projects onto dyadic piecewise
constants, and discretizes the family into a localized matrix whose
stability constants transfer back to the function side through the
exact dyadic norm identity
||sum a(λ') φ0(2^n (x - λ'))||_p = 2^{-n d / p} ||a||_p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, integer_field
from .lattice import IndexSet, separation_constant
from .matalg import LocalizedMatrix, sjostrand_norm
from .profiles import Profile1D, gauss_legendre_rule, profile_from_json_dict
from .stability import (StabilityReport, WindowEntry, check_window_sizes, ladder_verdict,
                        normalize_p)

# Sampled hypothesis checks (here and in kernelop) share one probe density
# (points per unit length), one relative slack, and one delta grid on which
# a modulus of continuity is both fitted and verified.
PROBE_PER_UNIT = 64
HYPOTHESIS_SLACK = 1e-9
MODULUS_DELTAS = (0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625)


# ----------------------------------------------------------------------
# modulus bounds


@dataclass(frozen=True)
class ModulusBound:
    """Upper bound ω(δ) for moduli of continuity.

    Power form C δ^α, or a table of (δ, bound) samples; table lookups
    round δ up to the next tabulated point so the bound stays one-sided.
    """

    kind: str
    c: float = 0.0
    alpha: float = 1.0
    entries: tuple = ()

    def __post_init__(self):
        if self.kind not in ("power", "table"):
            raise ValueError(f"unknown modulus kind {self.kind!r}")
        if self.kind == "power":
            if not (math.isfinite(self.c) and math.isfinite(self.alpha)):
                raise InvariantViolation("power modulus needs finite C and alpha")
            if self.c < 0 or not 0 < self.alpha <= 1:
                raise ValueError("power modulus needs c >= 0 and alpha in (0, 1]")
        else:
            ent = tuple(sorted((float(d), float(b)) for d, b in self.entries))
            if not np.isfinite(np.asarray(ent, dtype=float)).all():
                raise InvariantViolation("table modulus needs finite entries")
            if not ent or any(d <= 0 for d, _ in ent):
                raise ValueError("table modulus needs positive deltas")
            object.__setattr__(self, "entries", ent)

    def __call__(self, delta: float) -> float:
        if delta <= 0:
            raise ValueError("delta must be positive")
        if self.kind == "power":
            return self.c * delta ** self.alpha
        for d, b in self.entries:
            if d >= delta:
                return b
        raise ValueError(f"delta {delta} beyond tabulated modulus range")

    def to_json_dict(self) -> dict:
        if self.kind == "power":
            return {"form": "power", "C": self.c, "alpha": self.alpha}
        return {"form": "table", "entries": [[d, b] for d, b in self.entries]}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ModulusBound":
        form = obj.get("form")
        if form == "power":
            return cls("power", c=float(obj["C"]), alpha=float(obj["alpha"]))
        if form == "table":
            return cls("table", entries=tuple((float(d), float(b)) for d, b in obj["entries"]))
        raise ValueError(f"unknown modulus form {form!r} (expected 'power' or 'table')")


# ----------------------------------------------------------------------
# generator families


@dataclass(frozen=True)
class GeneratorFamily:
    """Profiles attached to index points, dominated by a common envelope.

    rule = "shift": every index point carries every profile (profiles
    interleave at λ + i/N for bookkeeping); rule = "table": one profile
    per point, matched by position.
    """

    index: IndexSet
    profiles: tuple
    envelope: Profile1D
    rule: str = "shift"
    modulus: ModulusBound | None = None

    def __post_init__(self):
        if self.index.dim != 1:
            raise ValueError("generator families are built over 1-d index sets")
        profs = tuple(self.profiles)
        if not profs:
            raise ValueError("need at least one profile")
        if self.rule not in ("shift", "table"):
            raise ValueError(f"unknown rule {self.rule!r}")
        if self.rule == "table" and len(profs) != len(self.index):
            raise ValueError("table rule needs one profile per index point")
        object.__setattr__(self, "profiles", profs)

    # -- indexing -----------------------------------------------------
    @property
    def n_profiles(self) -> int:
        return len(self.profiles) if self.rule == "shift" else 1

    @property
    def n_columns(self) -> int:
        return len(self.index) * self.n_profiles if self.rule == "shift" else len(self.index)

    def column_profile(self, col: int):
        """(profile, shift) of the col-th generator (point-major order)."""
        if self.rule == "table":
            return self.profiles[col], float(self.index.points[col, 0])
        n = self.n_profiles
        return self.profiles[col % n], float(self.index.points[col // n, 0])

    def effective_index(self) -> IndexSet:
        """Index set of the generators; multi-profile shifts interleave at λ + i/N."""
        if self.rule == "table" or self.n_profiles == 1:
            return self.index
        n = self.n_profiles
        pts = (self.index.points[:, 0][:, None] + np.arange(n)[None, :] / n).reshape(-1)
        win = self.index.window.copy()
        win[0, 1] += 1.0
        return IndexSet(1, pts, win)

    def prefix(self, m: int) -> "GeneratorFamily":
        profs = self.profiles if self.rule == "shift" else self.profiles[:m]
        return GeneratorFamily(self.index.prefix(m), profs, self.envelope,
                               self.rule, self.modulus)

    # -- hypothesis checks ---------------------------------------------
    def _distinct_profiles(self):
        """The profiles, each equal one once, in order of first appearance."""
        return list(dict.fromkeys(self.profiles))

    def _probe_grid(self, prof) -> np.ndarray:
        radius = max(prof.decay_radius(1e-13),
                     self.envelope.decay_radius(1e-13)) + 1.0
        n_pts = max(int(2 * radius * PROBE_PER_UNIT) + 1, 1024)
        return np.linspace(-radius, radius, n_pts)

    def validate(self) -> dict:
        """Verify envelope dominance and (when given) the modulus bound.

        Shift-invariant families need each distinct profile checked once;
        the probe grid carries at least 1000 points per generator, and the
        modulus is checked at every delta of MODULUS_DELTAS.
        Raises InvariantViolation on failure; returns a probe report.
        """
        h = self.envelope
        worst_env = 0.0
        for prof in self._distinct_profiles():
            xs = self._probe_grid(prof)
            fv = np.abs(np.asarray(prof(xs), dtype=float))
            hv = np.asarray(h(xs), dtype=float)
            gap = float((fv - hv).max())
            worst_env = max(worst_env, gap)
            if gap > HYPOTHESIS_SLACK * max(1.0, float(np.abs(fv).max())):
                raise InvariantViolation(
                    f"envelope does not dominate profile (excess {gap:.3e})")
        worst_mod = self._check_modulus(MODULUS_DELTAS)
        return {"envelope_excess": worst_env, "modulus_excess": worst_mod,
                "deltas": list(MODULUS_DELTAS)}

    def _check_modulus(self, deltas) -> float:
        """Largest excess over the modulus bound at ``deltas`` on the probe
        grids; InvariantViolation names the first point beyond the slack."""
        if self.modulus is None or not deltas:
            return 0.0
        worst = 0.0
        for prof in self._distinct_profiles():
            xs = self._probe_grid(prof)
            hv = np.asarray(self.envelope(xs), dtype=float)
            for d in deltas:
                bound = self.modulus(d)
                m = prof.modulus_of_continuity(d, xs)
                excess = m - bound * hv
                bad = np.flatnonzero(excess > HYPOTHESIS_SLACK * np.maximum(1.0, m))
                if bad.size:
                    i = bad[0]
                    raise InvariantViolation(
                        f"modulus bound fails at x={xs[i]:.4f}, delta={d}: "
                        f"{m[i]:.3e} > {bound * hv[i]:.3e}")
                worst = max(worst, float(excess.max()))
        return worst

    def calibrate_modulus(self) -> "GeneratorFamily":
        """Fit a power modulus bound to measured moduli, then verify it.

        Measures needed(δ) = sup_x ω_δ(φ)(x) / h(x) on the same probe
        lattice validate() uses, fits log needed against log δ, and
        inflates the constant until the fitted bound dominates every
        measurement.
        """
        grids = []
        for prof in self._distinct_profiles():
            xs = self._probe_grid(prof)
            grids.append((prof, xs, np.asarray(self.envelope(xs), dtype=float)))
        needed = []
        for d in MODULUS_DELTAS:
            worst = 0.0
            for prof, xs, hv in grids:
                m = prof.modulus_of_continuity(d, xs)
                live = m > 1e-15
                bad = np.flatnonzero(live & (hv <= 1e-13))
                if bad.size:
                    i = bad[0]
                    raise InvariantViolation(
                        f"envelope vanishes at x={xs[i]:.4f} where the modulus "
                        f"is {m[i]:.3e}")
                if live.any():
                    worst = max(worst, float((m[live] / hv[live]).max()))
            needed.append(worst)
        needed = np.asarray(needed)
        if (needed <= 0).all():
            return GeneratorFamily(self.index, self.profiles, self.envelope,
                                   self.rule, ModulusBound("power", c=0.0, alpha=1.0))
        mask = needed > 0
        deltas = np.asarray(MODULUS_DELTAS)
        X = np.stack([np.ones(mask.sum()), np.log(deltas[mask])], axis=1)
        coef, *_ = np.linalg.lstsq(X, np.log(needed[mask]), rcond=None)
        alpha = float(min(max(coef[1], 1e-6), 1.0))
        c = float(np.max(needed / deltas ** alpha)) * (1 + 1e-9)
        out = GeneratorFamily(self.index, self.profiles, self.envelope,
                              self.rule, ModulusBound("power", c=c, alpha=alpha))
        out.validate()
        return out

    # -- serialization --------------------------------------------------
    def to_json_dict(self) -> dict:
        return {
            "index": self.index.to_json_dict(),
            "rule": {"kind": self.rule,
                     "profiles": [p.to_json_dict() for p in self.profiles]},
            "envelope": self.envelope.to_json_dict(),
            "modulus": None if self.modulus is None else self.modulus.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "GeneratorFamily":
        rule = obj["rule"]
        return cls(
            IndexSet.from_json_dict(obj["index"]),
            tuple(profile_from_json_dict(p) for p in rule["profiles"]),
            profile_from_json_dict(obj["envelope"]),
            rule.get("kind", "shift"),
            None if obj.get("modulus") is None else ModulusBound.from_json_dict(obj["modulus"]),
        )


# ----------------------------------------------------------------------
# dyadic functions


class DyadicFunction:
    """Piecewise-constant function on dyadic cells of width 2^-level.

    ``values[k]`` is the cell average on [(start+k) h, (start+k+1) h),
    where ``start`` is an int cell index; Lp norms of such functions are
    exact sums, which is what makes the dyadic norm identity testable to
    machine precision.
    """

    def __init__(self, level: int, start: int, values):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError(f"dyadic functions are one-dimensional; values "
                             f"have shape {values.shape}")
        self.level = int(level)
        self.start = int(start)
        self.values = values

    @property
    def width(self) -> float:
        return 2.0 ** (-self.level)

    def lp_norm(self, p) -> float:
        p = normalize_p(p)
        if math.isinf(p):
            return float(np.abs(self.values).max(initial=0.0))
        return float((np.sum(np.abs(self.values) ** p) * self.width) ** (1.0 / p))

    def refine(self, to_level: int) -> "DyadicFunction":
        if to_level < self.level:
            raise ValueError(f"cannot refine a level-{self.level} function to "
                             f"the coarser level {to_level}")
        f = 2 ** (to_level - self.level)
        return DyadicFunction(to_level, self.start * f, np.repeat(self.values, f))

    def subtract(self, other: "DyadicFunction") -> "DyadicFunction":
        """Pointwise difference on the union window at the finer level."""
        level = max(self.level, other.level)
        a, b = self.refine(level), other.refine(level)
        lo = min(a.start, b.start)
        hi = max(a.start + a.values.size, b.start + b.values.size)

        def embed(g):
            out = np.zeros(hi - lo)
            out[g.start - lo:g.start - lo + g.values.size] = g.values
            return out
        return DyadicFunction(level, lo, embed(a) - embed(b))


def project_Pn(f, level: int, window=None) -> DyadicFunction:
    """Project onto piecewise constants at dyadic scale 2^-level.

    Dyadic functions refine to the level (idempotent at equal level; a
    coarser level is a ValueError); callables use per-cell Gauss-Legendre
    quadrature over an explicit window, widened outward to whole cells, and
    are called once, on a 1-d array of every cell's nodes.
    """
    if isinstance(f, DyadicFunction):
        if window is not None:
            raise ValueError("window applies to callable input only")
        return f.refine(level)
    if callable(f):
        if window is None:
            raise ValueError("callable input needs an explicit window")
        h = 2.0 ** (-level)
        k_lo, k_hi = math.floor(float(window[0]) / h), math.ceil(float(window[1]) / h)
        # the order-8 rule of gauss_legendre_integral on every cell, with f
        # evaluated once on all the nodes; each cell keeps its own dot
        # product (one matrix product over all cells rounds differently) and
        # its 0.0 start, which turns a -0.0 cell into 0.0
        edges = (k_lo + np.arange(k_hi - k_lo + 1)) * h
        mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
        nodes, weights = gauss_legendre_rule(8)
        fx = np.asarray(f((mid[:, None] + half[:, None] * nodes).reshape(-1)),
                        dtype=float).reshape(mid.size, nodes.size)
        vals = np.array([0.0 + hw * float(np.dot(weights, row)) for hw, row in zip(half, fx)])
        return DyadicFunction(level, k_lo, vals / h)
    raise TypeError(f"cannot project object of type {type(f).__name__}")


# ----------------------------------------------------------------------
# discretization


def discretize_synthesis(fam: GeneratorFamily, n0: int) -> LocalizedMatrix:
    """Cell averages of each generator at scale 2^-n0.

    Rows are the dyadic points covering every generator's support (out to
    its 1e-14 decay radius); column k holds 2^{n0} ∫ φ_k over each row
    cell.  The localization norm of the result is bounded by
    2 ||envelope||_W1 for single-profile shift families.
    """
    h = 2.0 ** (-n0)
    spans = []
    for col in range(fam.n_columns):
        prof, shift = fam.column_profile(col)
        r = prof.decay_radius(1e-14)
        spans.append((shift - r, shift + r))
    lo = min(s for s, _ in spans)
    hi = max(e for _, e in spans)
    k_lo, k_hi = math.floor(lo / h), math.ceil(hi / h)
    rows = IndexSet.dyadic_range(n0, k_lo, k_hi)
    ii, jj, vv = [], [], []
    for col in range(fam.n_columns):
        prof, shift = fam.column_profile(col)
        c_lo = max(math.floor(spans[col][0] / h), k_lo)
        c_hi = min(math.ceil(spans[col][1] / h), k_hi)
        if c_hi <= c_lo:
            continue
        edges = (c_lo + np.arange(c_hi - c_lo + 1)) * h
        # LocalizedMatrix drops the averages below its ENTRY_DROP_TOL
        ii.extend(range(c_lo - k_lo, c_hi - k_lo))
        jj.extend([col] * (c_hi - c_lo))
        vv.extend(prof.cell_averages(edges - shift).tolist())
    return LocalizedMatrix(rows, fam.effective_index(), ii, jj, vv)


@dataclass(frozen=True)
class SynthesisEntry(WindowEntry):
    n0: int
    bias_bound: float | None


@dataclass(frozen=True)
class SynthesisStabilityReport(StabilityReport):
    sjostrand_bound_ratio: float


def synthesis_stability(fam: GeneratorFamily, p, n0_values,
                        window_sizes) -> SynthesisStabilityReport:
    """Stability constants of the discretized synthesis operator.

    Constants at scale n0 are 2^{-n0/p} times those of the cell-average
    matrix (exact dyadic identity).  The recorded bias bound scales like
    ω(2^{-n0}) ||envelope||_W1 R^{1-1/p}: it tracks how far the
    discretized constants may sit from the continuum ones, up to an
    unspecified geometry constant.
    """
    window_sizes = check_window_sizes([integer_field(w, "window") for w in window_sizes],
                                      len(fam.index))
    n0_values = check_window_sizes([integer_field(n, "scale") for n in n0_values])
    fam.validate()
    p = normalize_p(p)
    # the bias bound reads the modulus at 2^-n0; validate checks MODULUS_DELTAS
    fam._check_modulus([2.0 ** -n for n in n0_values if 2.0 ** -n not in MODULUS_DELTAS])
    inv_p = 0.0 if math.isinf(p) else 1.0 / p
    hnorm = fam.envelope.amalgam_norm()
    entries = []
    worst_ratio = 0.0
    for w in window_sizes:
        sub = fam.prefix(w)
        r_sep = separation_constant(sub.effective_index())
        for n0 in n0_values:
            A = discretize_synthesis(sub, n0)
            ratio = sjostrand_norm(A) / (2.0 * hnorm) if hnorm > 0 else 0.0
            worst_ratio = max(worst_ratio, float(ratio))
            bias = None
            if fam.modulus is not None:
                bias = (r_sep ** (1.0 - inv_p)) * fam.modulus(2.0 ** (-n0)) * hnorm
            entries.append(SynthesisEntry.of(A, p, w, 2.0 ** (-n0 * inv_p),
                                             n0=n0, bias_bound=bias))
    finest = max(n0_values)
    lowers = [e.lower for e in entries if e.n0 == finest]
    return SynthesisStabilityReport(p, entries, ladder_verdict(lowers),
                                    worst_ratio)
