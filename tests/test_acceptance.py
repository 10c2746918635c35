"""Acceptance gate: eleven numbered end-to-end checks.

Every check recomputes its target through the public API, compares against
an independently derived value (closed forms, dense eigensolves, exact
counting), and records one PASS/FAIL line that the terminal summary hook
in conftest echoes after the run.  Stated runtime budgets are asserted.
"""

import math
import time

import numpy as np

from locop import corpus
from locop.lattice import CutoffOperator, IndexSet
from locop.matalg import (commutator_with_cutoff, sjostrand_norm,
                          truncation_tail)
from locop.kernelop import (_default_probes, discretization_error_curve,
                            perturbed_identity_stability)
from locop.stability import (convolution_stability, density_check,
                             inverse_decay_profile, lower_constant)
from locop.synthesis import DyadicFunction, project_Pn, synthesis_stability

SEED = 20240817
P_VALUES = (1.0, 2.0, math.inf)


def _check(record, num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    record("acceptance", f"criterion {num:02d}: {status}  {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _corpus(window: int) -> dict:
    return {
        "toeplitz131": corpus.toeplitz_matrix([1.0, 3.0, 1.0], window),
        "permuted131": corpus.permuted_rows(
            corpus.toeplitz_matrix([1.0, 3.0, 1.0], window), seed=11),
        "banded_random": corpus.banded_random(window, band=2, gap=0.5, seed=1),
    }


def test_criterion_01_tridiagonal_lower_constant_closed_form(record_property):
    A = corpus.toeplitz_matrix([1.0, 3.0, 1.0], 200)
    t0 = time.perf_counter()
    res = lower_constant(A, 2.0)
    dt = time.perf_counter() - t0
    expect = 3.0 - 2.0 * math.cos(math.pi / 201.0)
    rel = abs(res.value - expect) / expect
    ok = rel <= 1e-9 and res.certified and dt < 1.0
    _check(record_property, 1, ok, f"lower {res.value:.12f} vs {expect:.12f} "
                  f"(rel {rel:.2e} <= 1e-09, {dt:.2f}s < 1s)")


def test_criterion_02_filter_symbol_certificates(record_property):
    t0 = time.perf_counter()
    bad = convolution_stability([-1, 0, 1], [1.0, 2.0, 1.0], grid_size=1 << 16)
    good = convolution_stability([-1, 0, 1], [1.0, 3.0, 1.0], grid_size=1 << 16)
    dt = time.perf_counter() - t0
    lo_b, hi_b = bad.certified_min_interval
    lo_g, hi_g = good.certified_min_interval
    ok = (bad.verdict == "unstable" and lo_b <= 0.0 <= hi_b
          and good.verdict == "stable" and 0.999 <= lo_g <= hi_g <= 1.0
          and dt < 1.0)
    _check(record_property, 2, ok, f"(1,2,1) {bad.verdict} [{lo_b:.2e},{hi_b:.2e}]; "
                  f"(1,3,1) {good.verdict} [{lo_g:.6f},{hi_g:.6f}] "
                  f"({dt:.2f}s < 1s)")


def test_criterion_03_inverse_offset_decay_rate(record_property):
    A = corpus.toeplitz_matrix([1.0, 3.0, 1.0], 101)
    t0 = time.perf_counter()
    res = inverse_decay_profile(A, margin=25)
    dt = time.perf_counter() - t0
    expect = (3.0 - math.sqrt(5.0)) / 2.0
    err = abs(res.rate - expect)
    ok = err <= 0.01 and dt < 1.0
    _check(record_property, 3, ok, f"rate {res.rate:.6f} vs {expect:.6f} "
                  f"(abs {err:.2e} <= 0.01, {dt:.2f}s < 1s)")


def test_criterion_04_lower_constants_stabilize_across_exponents(record_property):
    windows = (64, 128, 256)
    t0 = time.perf_counter()
    ladders: dict = {}
    for w in windows:
        for name, A in _corpus(w).items():
            for p in P_VALUES:
                ladders.setdefault((name, p), []).append(
                    lower_constant(A, p).value)
    decay: dict = {}
    for w in windows:
        A = corpus.toeplitz_matrix([1.0, 2.0, 1.0], w)
        for p in P_VALUES:
            decay.setdefault(p, []).append(lower_constant(A, p).value)
    dt = time.perf_counter() - t0

    worst_rel, worst_min = 0.0, math.inf
    for vals in ladders.values():
        worst_rel = max(worst_rel, abs(vals[2] - vals[1]) / vals[1])
        worst_min = min(worst_min, min(vals))
    worst_ratio = max(vals[i + 1] / vals[i]
                      for vals in decay.values() for i in range(2))
    ok = (worst_rel < 0.05 and worst_min > 0.1 and worst_ratio <= 0.7
          and dt < 30.0)
    _check(record_property, 4, ok, f"stable corpus: last-doubling rel {worst_rel:.4f} < 0.05, "
                  f"min {worst_min:.3f} > 0.1; (1,2,1) doubling ratio "
                  f"{worst_ratio:.3f} <= 0.70 ({dt:.1f}s < 30s)")


def test_criterion_05_cutoff_commutator_bound(record_property):
    t0 = time.perf_counter()
    window = 128
    mats = dict(_corpus(window))
    mats["toeplitz121"] = corpus.toeplitz_matrix([1.0, 2.0, 1.0], window)
    worst_slack = -math.inf
    for A in mats.values():
        s, base = A.band(), sjostrand_norm(A)
        for scale in (4, 8, 16, 32):
            center = float(scale * (window // (2 * scale)))
            op = CutoffOperator(center=[center], scale=scale, target=A.cols)
            lhs = sjostrand_norm(commutator_with_cutoff(A, op))
            worst_slack = max(worst_slack, lhs - (s / scale) * base)
    dt = time.perf_counter() - t0
    ok = worst_slack <= 1e-12 and dt < 5.0
    _check(record_property, 5, ok, f"max sjostrand excess {worst_slack:.2e} <= 1e-12 "
                  f"over 4 matrices x scales {{4,8,16,32}} ({dt:.2f}s < 5s)")


def test_criterion_06_truncation_tails(record_property):
    mats = _corpus(128)
    mats["toeplitz121"] = corpus.toeplitz_matrix([1.0, 2.0, 1.0], 128)
    monotone, vanishes = True, True
    for A in mats.values():
        s_values = list(range(int(A.band()) + 3))
        tails = [t for _, t in truncation_tail(A, s_values)]
        monotone &= all(a >= b for a, b in zip(tails, tails[1:]))
        vanishes &= tails[-1] == 0.0
    t131 = [t for _, t in
            truncation_tail(corpus.toeplitz_matrix([1.0, 3.0, 1.0], 128),
                            [0.0, 1.0, 2.0])]
    exact = t131 == [5.0, 2.0, 0.0]
    ok = monotone and vanishes and exact
    _check(record_property, 6, ok, f"tails nonincreasing={monotone}, terminally zero="
                  f"{vanishes}, (1,3,1) tail {t131} == [5, 2, 0]")


def test_criterion_07_hat_synthesis_constants(record_property):
    t0 = time.perf_counter()
    rep = synthesis_stability(corpus.hat_family(256), 2.0, [6], [256])
    dt = time.perf_counter() - t0
    e = rep.entries[-1]
    lo_ref = math.sqrt(1.0 / 3.0)
    rel_lo = abs(e.lower - lo_ref) / lo_ref
    rel_hi = abs(e.upper - 1.0)
    ok = rel_lo <= 0.01 and rel_hi <= 0.01 and dt < 5.0
    _check(record_property, 7, ok, f"lower {e.lower:.6f} vs {lo_ref:.6f} (rel {rel_lo:.1e}), "
                  f"upper {e.upper:.6f} vs 1 (rel {rel_hi:.1e}) "
                  f"({dt:.2f}s < 5s)")


def test_criterion_08_dyadic_norm_identity(record_property):
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(100):
        size = int(rng.integers(1, 60))
        a = rng.standard_normal(size)
        start = int(rng.integers(-20, 20))
        for n0 in range(7):
            f = DyadicFunction(n0, start, a)
            for p in P_VALUES:
                ref = (np.linalg.norm(a, np.inf) if math.isinf(p)
                       else 2.0 ** (-n0 / p) * np.linalg.norm(a, p))
                worst = max(worst, abs(f.lp_norm(p) - ref) / ref)
    ok = worst <= 1e-12
    _check(record_property, 8, ok, f"max relative defect {worst:.2e} <= 1e-12 over "
                  f"100 vectors x p in {{1,2,inf}} x scales 0..6")


def test_criterion_09_kernel_discretization_rate(record_property):
    op = corpus.gaussian_kernel_op(0.1, 1.0)
    t0 = time.perf_counter()
    probes = _default_probes(op, (0.0, 16.0), 3)
    curve = discretization_error_curve(op, range(3, 9), probes, r=2.0)
    dt = time.perf_counter() - t0
    ok = curve.slope is not None and -1.2 <= curve.slope <= -0.8 and dt < 20.0
    _check(record_property, 9, ok, f"log2 error slope {curve.slope:.6f} in [-1.2, -0.8] "
                  f"over scales 3..8 ({dt:.1f}s < 20s)")


def test_criterion_10_perturbed_identity_constants(record_property):
    op = corpus.gaussian_kernel_op(0.1, 1.0)
    rep = perturbed_identity_stability(op, 2.0, [2, 3, 4],
                                       [16.0, 32.0, 64.0])
    lowers = [e.lower for e in rep.entries]
    in_band = all(0.82 <= v <= 1.18 for v in lowers)

    probes = _default_probes(op, (0.0, 64.0), 2)
    idem, contract = 0.0, True
    for f in probes:
        for n in (2, 3, 4):
            once = project_Pn(f, n)
            twice = project_Pn(once, n)
            idem = max(idem, float(np.max(np.abs(
                twice.values - once.refine(twice.level).values))))
            for q in P_VALUES:
                contract &= once.lp_norm(q) <= f.lp_norm(q) * (1 + 1e-12)
    ok = (in_band and rep.verdict == "stabilized" and idem <= 1e-12
          and contract)
    _check(record_property, 10, ok, f"lowers in [{min(lowers):.4f},{max(lowers):.4f}] within "
                   f"[0.82,1.18], verdict {rep.verdict}; idempotence defect "
                   f"{idem:.2e} <= 1e-12; projections contract: {contract}")


def test_criterion_11_density_counting(record_property):
    def lattice(step, lo, hi):
        pts = np.arange(lo, hi + step / 2.0, step, dtype=float)
        return IndexSet(1, pts, window=[[float(lo), float(hi + 1)]])

    sparse_rows = lattice(2.0, 0, 120)
    dense_cols = lattice(1.0, 0, 120)
    verdict = density_check(sparse_rows, dense_cols, 3.0, [[10.0, 90.0]])[0]
    fails = (not verdict.passed and verdict.cols_in_box == 81
             and verdict.rows_in_neighborhood == 43)

    boxes = [[10.0, 90.0], [0.0, 120.0], [37.0, 63.0]]
    equal = density_check(dense_cols, dense_cols, 3.0, boxes)
    passes = all(v.passed for v in equal)
    exact = all(v.cols_in_box == int(b[1] - b[0]) + 1
                for v, b in zip(equal, boxes))
    ok = fails and passes and exact
    _check(record_property, 11, ok, f"2Z vs Z on [10,90]: rows {verdict.rows_in_neighborhood}"
                   f" < cols {verdict.cols_in_box} -> fails; identical sets "
                   f"pass all {len(boxes)} boxes with exact counts")
