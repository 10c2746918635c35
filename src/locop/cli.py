"""Command-line front end: corpus generation and analysis reports.

Every analysis subcommand funnels into a ``_run_<name>(params)`` function
returning ``(report, csv_header, csv_rows)``; ``locop run --config c.json``
dispatches to the same functions, so flag and config invocations produce
byte-identical files.  Exit codes: 0 success, 2 precondition/invariant
failure (including missing inputs), 3 numerical failure; failures print
``{"error": {"type", "message"}}`` on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

from . import corpus
from .errors import NumericalError
from .kernelop import KernelOperator, perturbed_identity_stability
from .lattice import IndexSet
from .matalg import LocalizedMatrix, schur_norm, sjostrand_norm, slant_norm
from .reporting import (STABILITY_CSV_HEADER, build_report, dump_json_bytes,
                        p_label, stability_csv_rows, validate_report,
                        write_csv, write_report)
from .stability import (convolution_stability, density_check,
                        equivalence_report, inverse_decay_profile,
                        stability_ladder)
from .synthesis import GeneratorFamily, synthesis_stability


# ----------------------------------------------------------------------
# input parsing helpers


def _load_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _load_matrix(path) -> LocalizedMatrix:
    return LocalizedMatrix.from_json_dict(_load_json(path))


def _parse_p_list(value) -> list[float]:
    if isinstance(value, str):
        value = value.split(",")
    out = []
    for tok in value:
        tok = str(tok).strip()
        out.append(math.inf if tok in ("inf", "Infinity") else float(tok))
    if not out:
        raise ValueError("empty exponent list")
    return out


def _parse_single_p(value) -> float:
    ps = _parse_p_list(value)
    if len(ps) != 1:
        raise ValueError("this analysis takes exactly one exponent")
    return ps[0]


def _parse_int_list(value) -> list[int]:
    """Accept '3..8' (inclusive range), '4,5,6', or a JSON list."""
    if isinstance(value, str):
        if ".." in value:
            lo, hi = value.split("..")
            return list(range(int(lo), int(hi) + 1))
        value = value.split(",")
    return [int(v) for v in value]


def _read_sequence_csv(path) -> tuple[list[int], list[float]]:
    """Filter coefficients from CSV: rows 'j,value', or one value per
    line for an odd centered sequence."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        for rec in csv.reader(fh):
            rec = [f.strip() for f in rec if f.strip()]
            if not rec:
                continue
            try:
                rows.append([float(f) for f in rec])
            except ValueError:
                if rows:
                    raise
                continue  # header line
    if not rows:
        raise ValueError(f"no numeric rows in {path}")
    widths = {len(r) for r in rows}
    if widths == {2}:
        return [int(r[0]) for r in rows], [r[1] for r in rows]
    if widths == {1}:
        if len(rows) % 2 == 0:
            raise ValueError("single-column sequence must have odd length "
                             "(centered around offset 0)")
        half = len(rows) // 2
        return list(range(-half, half + 1)), [r[0] for r in rows]
    raise ValueError("sequence CSV must be 'j,value' rows or one value per line")


def _build_ladder(A: LocalizedMatrix, windows) -> list[LocalizedMatrix]:
    windows = _parse_int_list(windows)
    if any(b <= a for a, b in zip(windows, windows[1:])):
        raise ValueError("windows must be strictly increasing")
    n_rows, n_cols = A.shape
    limit = min(n_rows, n_cols)
    if windows[-1] > limit:
        raise ValueError(f"window {windows[-1]} exceeds stored size {limit}")
    return [A.window_prefix(w, w) for w in windows]


# ----------------------------------------------------------------------
# analysis runners (shared by subcommands and `locop run`)


def _run_norms(params: dict):
    A = _load_matrix(params["matrix"])
    entries = [{"norm": "schur", "value": schur_norm(A)},
               {"norm": "sjostrand", "value": sjostrand_norm(A)}]
    norm_params = {"matrix": str(params["matrix"])}
    if params.get("alpha") is not None:
        alpha = float(params["alpha"])
        norm_params["alpha"] = alpha
        entries.append({"norm": "slant", "alpha": alpha,
                        "value": slant_norm(A, alpha)})
    meta = {"shape": list(A.shape), "nnz": A.nnz, "band": A.band()}
    report = build_report("norms", norm_params, None, entries, {}, meta)
    return report, None, None


def _stability_entries(per_p: dict) -> list[dict]:
    entries = []
    for p in sorted(per_p):
        rep = per_p[p]
        for i, w in enumerate(rep.window_sizes):
            inner = rep.interior_lower[i]
            entries.append({
                "p": p_label(p), "window": int(w),
                "lower": rep.lower_constants[i],
                "upper": rep.upper_constants[i],
                "lower_certified": rep.lower_certified[i],
                "upper_certified": rep.upper_certified[i],
                "method": rep.methods[i],
                "interior_lower": None if inner is None else inner.value,
                "interior_certified": None if inner is None else inner.certified,
                "interior_method": None if inner is None else inner.method,
            })
    return entries


def _run_stab(params: dict):
    A = _load_matrix(params["matrix"])
    ladder = _build_ladder(A, params["windows"])
    ps = _parse_p_list(params["p"])
    seed = params.get("seed")
    per_p = {p: stability_ladder(ladder, p) for p in ps}
    norm_params = {"matrix": str(params["matrix"]),
                   "p": [p_label(p) for p in ps],
                   "windows": [A.shape[1] for A in ladder]}
    report = build_report("stab", norm_params, seed, _stability_entries(per_p),
                          {p_label(p): rep.verdict for p, rep in per_p.items()})
    return report, STABILITY_CSV_HEADER, stability_csv_rows(per_p)


def _run_equiv(params: dict):
    A = _load_matrix(params["matrix"])
    ladder = _build_ladder(A, params["windows"])
    ps = _parse_p_list(params["p"])
    seed = params.get("seed")
    eq = equivalence_report(ladder, ps)
    verdicts = {p_label(p): v for p, v in eq.verdicts.items()}
    verdicts["consistent"] = eq.consistent
    norm_params = {"matrix": str(params["matrix"]),
                   "p": [p_label(p) for p in ps],
                   "windows": list(eq.window_sizes)}
    meta = {"counterexample_candidates": eq.counterexample_candidates}
    report = build_report("equiv", norm_params, seed,
                          _stability_entries(eq.per_p), verdicts, meta)
    return report, STABILITY_CSV_HEADER, stability_csv_rows(eq.per_p)


def _run_conv(params: dict):
    offsets, values = _read_sequence_csv(params["seq"])
    grid = int(params.get("grid", 65536))
    cert = convolution_stability(offsets, values, grid_size=grid)
    entry = {"grid_size": cert.grid_size, "grid_min": cert.grid_min,
             "argmin": cert.argmin, "lipschitz_bound": cert.lipschitz_bound,
             "certified_min_interval": list(cert.certified_min_interval),
             "sign_change": cert.sign_change, "real_symbol": cert.real_symbol,
             "verdict": cert.verdict}
    norm_params = {"seq": str(params["seq"]), "grid": grid,
                   "offsets": offsets, "values": values}
    report = build_report("conv", norm_params, None, [entry],
                          {"stability": cert.verdict})
    return report, None, None


def _run_invdecay(params: dict):
    A = _load_matrix(params["matrix"])
    margin = float(params["margin"])
    res = inverse_decay_profile(A, margin)
    entry = {"rate": res.rate, "fit_intercept": res.fit_intercept,
             "fit_residual": res.fit_residual, "condition": res.condition,
             "usable_offsets": res.usable_offsets}
    norm_params = {"matrix": str(params["matrix"]), "margin": margin}
    report = build_report("invdecay", norm_params, None, [entry], {},
                          {"profile_cells": len(res.profile)})
    header = tuple(f"k_{i + 1}" for i in range(res.profile.dim)) + ("sup_value",)
    rows = [tuple(int(c) for c in cell) + (float(s),)
            for cell, s in zip(res.profile.cells, res.profile.sups)]
    return report, header, rows


def _run_density(params: dict):
    rows = IndexSet.from_json_dict(_load_json(params["rows"]))
    cols = IndexSet.from_json_dict(_load_json(params["cols"]))
    boxes = _load_json(params["boxes"])
    r0 = float(params["r0"])
    verdicts = density_check(rows, cols, r0, boxes)
    entries = [{"box": v.box, "rows_in_neighborhood": v.rows_in_neighborhood,
                "cols_in_box": v.cols_in_box, "passed": v.passed}
               for v in verdicts]
    norm_params = {"rows": str(params["rows"]), "cols": str(params["cols"]),
                   "r0": r0, "boxes": str(params["boxes"])}
    report = build_report("density", norm_params, None, entries,
                          {"all_passed": all(v.passed for v in verdicts)})
    return report, None, None


def _run_synth(params: dict):
    fam = GeneratorFamily.from_json_dict(_load_json(params["family"]))
    p = _parse_single_p(params["p"])
    n0_values = _parse_int_list(params["n0"])
    windows = _parse_int_list(params["window"])
    seed = params.get("seed")
    rep = synthesis_stability(fam, p, n0_values, windows)
    entries = [dict(e.__dict__) for e in rep.entries]
    norm_params = {"family": str(params["family"]), "p": p_label(p),
                   "n0": n0_values, "window": windows}
    meta = {"sjostrand_bound_ratio": rep.sjostrand_bound_ratio}
    report = build_report("synth", norm_params, seed, entries,
                          {p_label(p): rep.verdict}, meta)
    finest = max(n0_values)
    rows = [(int(e.window), p_label(p), e.lower, e.upper,
             bool(e.lower_certified and e.upper_certified))
            for e in rep.entries if e.n0 == finest]
    return report, STABILITY_CSV_HEADER, rows


def _run_kernel(params: dict):
    op = KernelOperator.from_json_dict(_load_json(params["kernel"]))
    p = _parse_single_p(params["p"])
    n_values = _parse_int_list(params["n"])
    windows = [float(w) for w in _parse_int_list(params["window"])]
    seed = params.get("seed")
    rep = perturbed_identity_stability(op, p, n_values, windows)
    entries = [dict(e.__dict__) for e in rep.entries]
    curve = rep.error_curve
    norm_params = {"kernel": str(params["kernel"]), "p": p_label(p),
                   "n": n_values, "window": windows}
    meta = {"error_curve": {"r": p_label(p),
                            "entries": [[n, u] for n, u in curve.entries],
                            "slope": curve.slope}}
    report = build_report("kernel", norm_params, seed, entries,
                          {p_label(p): rep.verdict}, meta)
    return report, ("n", "ratio"), curve.entries


_RUNNERS = {"norms": _run_norms, "stab": _run_stab, "equiv": _run_equiv,
            "conv": _run_conv, "invdecay": _run_invdecay,
            "density": _run_density, "synth": _run_synth,
            "kernel": _run_kernel}


# ----------------------------------------------------------------------
# output emission


def _emit(report: dict, out, csv_header, csv_rows) -> None:
    validate_report(report)
    if out is None:
        sys.stdout.buffer.write(dump_json_bytes(report))
        return
    out = Path(out)
    if out.suffix == ".csv":
        if csv_rows is None:
            raise ValueError("this analysis produces no CSV curve")
        write_csv(out, csv_header, csv_rows)
        write_report(out.with_suffix(".json"), report)
    else:
        write_report(out, report)
        if csv_rows is not None:
            write_csv(out.with_suffix(".csv"), csv_header, csv_rows)


def _dispatch(analysis: str, params: dict, out) -> None:
    try:
        runner = _RUNNERS[analysis]
    except KeyError:
        raise ValueError(f"unknown analysis {analysis!r}") from None
    report, header, rows = runner(params)
    _emit(report, out, header, rows)


# ----------------------------------------------------------------------
# argument surface


def _add_out(sp):
    sp.add_argument("--out", default=None,
                    help="output path; .csv writes curve + sibling .json, "
                         "otherwise JSON report (+ sibling .csv when a curve "
                         "exists); default prints JSON to stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="locop",
        description="Finite-section stability toolkit for localized operators.")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a test corpus from a spec")
    g.add_argument("--spec", required=True, help="corpus spec JSON")
    g.add_argument("--out", required=True, help="output directory")

    n = sub.add_parser("norms", help="Schur/Sjostrand/slant norms of a matrix")
    n.add_argument("--matrix", required=True)
    n.add_argument("--alpha", type=float, default=None,
                   help="slant to weight (omit to skip the slant norm)")
    _add_out(n)

    for name, text in (("stab", "stability ladder over prefix windows"),
                       ("equiv", "cross-exponent equivalence of ladders")):
        s = sub.add_parser(name, help=text)
        s.add_argument("--matrix", required=True)
        s.add_argument("--p", required=True, help="comma list, e.g. 1,2,inf")
        s.add_argument("--windows", required=True, help="comma list, e.g. 32,64,128")
        s.add_argument("--seed", type=int, default=None,
                       help="recorded in the report's seed field only")
        _add_out(s)

    c = sub.add_parser("conv", help="certify min |symbol| of a filter")
    c.add_argument("--seq", required=True, help="CSV: 'j,value' rows, or one "
                                                "value per line (odd, centered)")
    c.add_argument("--grid", type=int, default=65536)
    _add_out(c)

    i = sub.add_parser("invdecay", help="decay profile of the dense inverse")
    i.add_argument("--matrix", required=True)
    i.add_argument("--margin", type=float, required=True,
                   help="boundary columns excluded from the fit")
    _add_out(i)

    d = sub.add_parser("density", help="necessary counting condition")
    d.add_argument("--rows", required=True, help="row IndexSet JSON")
    d.add_argument("--cols", required=True, help="column IndexSet JSON")
    d.add_argument("--r0", type=float, required=True)
    d.add_argument("--boxes", required=True, help="JSON list of boxes")
    _add_out(d)

    y = sub.add_parser("synth", help="stability of a discretized synthesis map")
    y.add_argument("--family", required=True, help="generator family JSON")
    y.add_argument("--p", required=True)
    y.add_argument("--n0", required=True, help="comma list of scales, e.g. 4,5,6")
    y.add_argument("--window", required=True, help="comma list of window sizes")
    y.add_argument("--seed", type=int, default=None,
                   help="recorded in the report's seed field only")
    _add_out(y)

    k = sub.add_parser("kernel", help="kernel discretization error and "
                                      "perturbed-identity stability")
    k.add_argument("--kernel", required=True, help="kernel operator JSON")
    k.add_argument("--p", required=True)
    k.add_argument("--n", required=True, help="scales, e.g. 3..8 or 3,4,5")
    k.add_argument("--window", required=True)
    k.add_argument("--seed", type=int, default=None,
                   help="recorded in the report's seed field only")
    _add_out(k)

    r = sub.add_parser("run", help="run an analysis described by a config file")
    r.add_argument("--config", required=True,
                   help='JSON {"analysis", "params", ["seed"], ["out"]}')
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            manifest = corpus.generate(_load_json(args.spec), args.out)
            sys.stdout.buffer.write(dump_json_bytes(manifest))
        elif args.command == "run":
            cfg = _load_json(args.config)
            params = dict(cfg["params"])
            if "seed" in cfg:
                params.setdefault("seed", cfg["seed"])
            _dispatch(cfg["analysis"], params, cfg.get("out"))
        else:
            params = {k: v for k, v in vars(args).items()
                      if k not in ("command", "out") and v is not None}
            _dispatch(args.command, params, args.out)
    except NumericalError as exc:
        _print_error(exc)
        return 3
    except (ValueError, TypeError, OSError, KeyError) as exc:
        _print_error(exc)
        return 2
    return 0


def _print_error(exc: Exception) -> None:
    payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
