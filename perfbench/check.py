"""Correctness check of one repetition's reports.

Every report is validated against ``src/locop/schemas/report.schema.json``
with jsonschema directly, and every lower constant that has an exact
reference is compared with one computed here from the input files, without
locop:

* p = 2: the smallest singular value from ``numpy.linalg.svd``;
* p in {1, inf} on square windows: ``1/||A^-1||_1`` (largest absolute
  column sum of the inverse) and ``1/||A^-1||_inf`` (largest row sum);
* the kernel workload's matrices ``I + 2^-n A_n`` are rebuilt from the
  closed form of the Gaussian convolution's cell-pair averages, and the
  synthesis matrices from exact antiderivatives of the generators;
* the hat family's continuum constant sqrt(1/3) at p = 2, to 1 %, on the
  finest scale and widest window (a closed form of the limit, so it is
  checked but kept out of the relative-error maximum).

A certified value that differs from its reference by more than
``REL_TOL`` relative, or a multistart value (an upper bound on the
infimum) that falls below it, fails its analysis.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema
import numpy as np
from scipy.special import erf

REL_TOL = 1e-8
# Relative errors below this read as this value: the references themselves
# carry rounding of this order (closed-form second differences, quadrature
# checked to 1e-12 in locop), so smaller differences carry no signal.
REL_ERR_FLOOR = 1e-12
SINGULAR_RTOL = 1e-12
HAT_LOWER = math.sqrt(1.0 / 3.0)
HAT_TOL = 0.01


@dataclass
class Outcome:
    """Check results for all reports of one repetition."""

    failures: dict = field(default_factory=dict)   # analysis -> [reasons]
    entries: list = field(default_factory=list)    # one record per compared value
    lowers: int = 0
    certified: int = 0

    def fail(self, name: str, reason: str) -> None:
        self.failures.setdefault(name, []).append(reason)

    @property
    def lower_rel_err_max(self) -> float:
        errs = [e["rel_err"] for e in self.entries if e["in_max"]]
        return max([REL_ERR_FLOOR] + errs)


# ----------------------------------------------------------------------
# reference constants


def _smallest_singular(A: np.ndarray) -> tuple[float, float]:
    s = np.linalg.svd(A, compute_uv=False)
    return float(s[-1]), float(s[0])


def _inverse_norm_lower(A: np.ndarray, p: str) -> float:
    B = np.linalg.inv(A)
    axis = 0 if p == "1" else 1
    return float(1.0 / np.abs(B).sum(axis=axis).max())


class _References:
    """Exact lower constants, memoized per (matrix key, p)."""

    def __init__(self):
        self._svd = {}
        self._lower = {}

    def lower(self, key, A: np.ndarray, p: str):
        """(reference, singular?) or None when no exact reference exists."""
        if key not in self._svd:
            self._svd[key] = _smallest_singular(A)
        smin, smax = self._svd[key]
        singular = smin <= SINGULAR_RTOL * max(smax, 1e-300)
        if p == "2":
            return smin, singular
        if p in ("1", "inf") and A.shape[0] == A.shape[1]:
            if singular:
                return 0.0, True
            if (key, p) not in self._lower:
                self._lower[(key, p)] = _inverse_norm_lower(A, p)
            return self._lower[(key, p)], False
        return None


def _compare(out: Outcome, refs: _References, name: str, key, A, p: str,
             value, certified: bool, method: str, label: dict,
             scale: float = 1.0) -> None:
    got = refs.lower(key, A, p)
    if got is None or value is None:
        return
    ref, singular = got
    ref *= scale
    smax = refs._svd[key][1] * scale
    rec = dict(label, analysis=name, p=p, value=value, reference=ref,
               certified=certified, method=method, in_max=not singular)
    if singular:
        rec["rel_err"] = None
        rec["abs_err"] = abs(value - ref)
        bad = (abs(value) > REL_TOL * smax) if certified else value < -REL_TOL * smax
    else:
        rec["rel_err"] = abs(value - ref) / ref
        bad = (rec["rel_err"] > REL_TOL) if certified else value < ref * (1 - REL_TOL)
    rec["ok"] = not bad
    out.entries.append(rec)
    if bad:
        out.fail(name, f"{label} p={p}: value {value!r} contradicts reference {ref!r}")


# ----------------------------------------------------------------------
# inputs, read without locop


def _load(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


class _Matrix:
    def __init__(self, obj: dict):
        ent = np.asarray(obj["entries"], dtype=float).reshape(-1, 3)
        self.i = ent[:, 0].astype(np.int64)
        self.j = ent[:, 1].astype(np.int64)
        self.v = ent[:, 2]
        self.row_pts = np.asarray(obj["rows"]["points"], dtype=float)[:, 0]
        self.col_pts = np.asarray(obj["cols"]["points"], dtype=float)[:, 0]
        self.col_window = np.asarray(obj["cols"]["window"], dtype=float)[0]

    def prefix(self, w: int) -> tuple[np.ndarray, float]:
        """Dense leading w x w window and its band (max |row pt - col pt|)."""
        keep = (self.i < w) & (self.j < w)
        A = np.zeros((w, w))
        A[self.i[keep], self.j[keep]] = self.v[keep]
        nz = keep & (self.v != 0.0)
        band = float(np.abs(self.row_pts[self.i[nz]] - self.col_pts[self.j[nz]]).max(initial=0.0))
        return A, band

    def interior_columns(self, w: int, margin: float) -> np.ndarray:
        pts = self.col_pts[:w]
        lo, hi = self.col_window
        return np.flatnonzero((pts >= lo + margin) & (pts <= hi - margin))


def _check_ladder_report(out, refs, name, rep, workdir: Path, cache: dict):
    path = rep["params"]["matrix"]
    if path not in cache:
        cache[path] = _Matrix(_load(workdir / path))
    M = cache[path]
    for e in rep["entries"]:
        w, p = int(e["window"]), e["p"]
        A, band = M.prefix(w)
        out.lowers += 1
        out.certified += bool(e["lower_certified"])
        _compare(out, refs, name, (path, w), A, p, e["lower"],
                 bool(e["lower_certified"]), e["method"], {"window": w})
        if p == "2" and e.get("interior_lower") is not None:
            idx = M.interior_columns(w, band)
            if idx.size:
                _compare(out, refs, name, (path, w, "interior"), A[:, idx], p,
                         e["interior_lower"], True, "interior",
                         {"window": w, "interior": True})


def _gaussian_second_antiderivative(x, sigma: float, amp: float):
    return amp * sigma * math.sqrt(math.pi) / 2.0 * (
        x * erf(x / sigma) + sigma / math.sqrt(math.pi) * np.exp(-(x / sigma) ** 2))


def _decay_radius(prof: dict, tol: float) -> float:
    if prof["kind"] == "gaussian":
        amp = abs(prof.get("amplitude", 1.0))
        return prof["sigma"] * math.sqrt(math.log(amp / tol)) if amp > tol else 0.0
    if prof["kind"] == "pp":
        return float(max(abs(prof["breaks"][0]), abs(prof["breaks"][-1])))
    raise ValueError(f"no reference for profile kind {prof['kind']!r}")


def _kernel_matrix(op: dict, n: int, window: float) -> np.ndarray | None:
    """I + 2^-n A_n for a Gaussian convolution kernel, from the closed form
    2^{2n} (G2(x+h) - 2 G2(x) + G2(x-h)), x = k h, G2'' = g."""
    rule = op["rule"]
    if rule["kind"] != "convolution" or rule["g"]["kind"] != "gaussian":
        return None
    g = rule["g"]
    sigma, amp = g["sigma"], g.get("amplitude", 1.0)
    h = 2.0 ** (-n)
    ncells = int(round(window / h))
    # the same entry cut-off locop applies (envelope and kernel below 1e-15)
    radius = max(_decay_radius(op["envelope"], 1e-15), _decay_radius(g, 1e-15))
    kmax = min(int(math.ceil(radius / h)) + 1, ncells - 1)
    ks = np.arange(-kmax, kmax + 1)
    x = ks * h
    G = lambda t: _gaussian_second_antiderivative(t, sigma, amp)  # noqa: E731
    table = (G(x + h) - 2.0 * G(x) + G(x - h)) / (h * h)
    idx = np.arange(ncells)
    offs = idx[:, None] - idx[None, :]
    A = np.where(np.abs(offs) <= kmax, table[np.clip(offs + kmax, 0, 2 * kmax)], 0.0)
    return np.eye(ncells) + h * A


def _check_kernel_report(out, refs, name, rep, workdir: Path, cache: dict):
    path = rep["params"]["kernel"]
    if path not in cache:
        cache[path] = _load(workdir / path)
    op = cache[path]
    p = rep["params"]["p"]
    for e in rep["entries"]:
        out.lowers += 1
        out.certified += bool(e["lower_certified"])
        n, w = int(e["n"]), float(e["window"])
        key = (path, n, w)
        if key not in cache:
            cache[key] = _kernel_matrix(op, n, w)
        A = cache[key]
        if A is not None:
            _compare(out, refs, name, key, A, p, e["lower"], bool(e["lower_certified"]),
                     e["method"], {"n": n, "window": w})


def _antiderivative(prof: dict):
    """Vectorized exact antiderivative F of a profile (F = 0 at -inf)."""
    if prof["kind"] == "gaussian":
        sigma, amp = prof["sigma"], prof.get("amplitude", 1.0)
        return lambda x: amp * sigma * math.sqrt(math.pi) / 2.0 * (1.0 + erf(x / sigma))
    if prof["kind"] != "pp":
        raise ValueError(f"no reference for profile kind {prof['kind']!r}")
    br = np.asarray(prof["breaks"], dtype=float)
    pieces = [np.polynomial.Polynomial(c).integ() for c in prof["coeffs"]]
    cum = np.concatenate([[0.0], np.cumsum([P(b - a) for P, a, b in
                                            zip(pieces, br[:-1], br[1:])])])

    def F(x):
        x = np.asarray(x, dtype=float)
        out = np.where(x >= br[-1], cum[-1], 0.0)
        for i, P in enumerate(pieces):
            sel = (x >= br[i]) & (x < br[i + 1])
            out = np.where(sel, cum[i] + P(x - br[i]), out)
        return out
    return F


def _synthesis_matrix(fam: dict, n0: int, w: int) -> np.ndarray:
    """Cell averages 2^{n0} int phi(x - s) over every dyadic cell that meets
    a generator's support, for the first w shifts (one-profile shift rule)."""
    (prof,) = fam["rule"]["profiles"]
    F = _antiderivative(prof)
    shifts = np.asarray(fam["index"]["points"], dtype=float)[:w, 0]
    r = _decay_radius(prof, 1e-14)
    h = 2.0 ** (-n0)
    k_lo = math.floor((shifts.min() - r) / h) - 1
    k_hi = math.ceil((shifts.max() + r) / h) + 1
    edges = np.arange(k_lo, k_hi + 1) * h
    Fv = F(edges[:, None] - shifts[None, :])
    return np.diff(Fv, axis=0) / h


def _is_hat(prof: dict) -> bool:
    return (prof["kind"] == "pp" and list(prof["breaks"]) == [0.0, 1.0, 2.0]
            and [list(c) for c in prof["coeffs"]] == [[0.0, 1.0], [1.0, -1.0]])


def _check_synth_report(out, refs, name, rep, workdir: Path, cache: dict):
    path = rep["params"]["family"]
    if path not in cache:
        cache[path] = _load(workdir / path)
    fam = cache[path]
    p = rep["params"]["p"]
    inv_p = {"1": 1.0, "2": 0.5, "inf": 0.0}.get(p)
    one_profile = fam["rule"]["kind"] == "shift" and len(fam["rule"]["profiles"]) == 1
    for e in rep["entries"]:
        out.lowers += 1
        out.certified += bool(e["lower_certified"])
        n0, w = int(e["n0"]), int(e["window"])
        if p == "2" and one_profile:
            key = (path, n0, w)
            A = _synthesis_matrix(fam, n0, w)
            _compare(out, refs, name, key, A, p, e["lower"], bool(e["lower_certified"]),
                     e["method"], {"n0": n0, "window": w}, scale=2.0 ** (-n0 * inv_p))
    if p == "2" and one_profile and _is_hat(fam["rule"]["profiles"][0]):
        e = max(rep["entries"], key=lambda e: (e["n0"], e["window"]))
        rel = abs(e["lower"] - HAT_LOWER) / HAT_LOWER
        ok = rel <= HAT_TOL
        out.entries.append({"analysis": name, "p": p, "n0": e["n0"], "window": e["window"],
                            "value": e["lower"], "reference": HAT_LOWER,
                            "reference_kind": "closed form sqrt(1/3), 1 % tolerance",
                            "rel_err": rel, "certified": bool(e["lower_certified"]),
                            "method": e["method"], "in_max": False, "ok": ok})
        if not ok:
            out.fail(name, f"hat family lower {e['lower']!r} is {rel:.2e} from sqrt(1/3)")


_CHECKERS = {"stab": _check_ladder_report, "equiv": _check_ladder_report,
             "kernel": _check_kernel_report, "synth": _check_synth_report}


def check_reports(workdir: Path, names, schema_path: Path) -> Outcome:
    """Validate and reference-check out/<name>.json for every analysis name."""
    validator = jsonschema.Draft7Validator(_load(schema_path))
    out = Outcome()
    refs = _References()
    cache: dict = {}
    for name in names:
        path = workdir / "out" / f"{name}.json"
        if not path.exists():
            out.fail(name, "no report written")
            continue
        rep = _load(path)
        errors = sorted(validator.iter_errors(rep), key=str)
        if errors:
            out.fail(name, f"schema: {errors[0].message}")
            continue
        checker = _CHECKERS.get(rep["analysis"])
        if checker is not None:
            checker(out, refs, name, rep, workdir, cache)
    return out
