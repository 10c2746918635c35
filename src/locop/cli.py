"""Command-line front end: corpus generation and analysis reports.

Every analysis is declared once, in ``_ANALYSES``: its runner, its help
text and its flags.  The subcommand's flags and the params a ``locop run
--config c.json`` file may hold are the same names, read from that one
table, and both reach the same runner, which returns ``(report,
csv_header, csv_rows)``; so flag and config invocations produce
byte-identical files.  Exit codes: 0 success, 2 precondition/invariant
failure (including missing inputs), 3 numerical failure; failures print
``{"error": {"type", "message"}}`` on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from functools import cache, partial
from pathlib import Path

from . import corpus
from .errors import NumericalError, integer_field
from .kernelop import KernelOperator, perturbed_identity_stability
from .lattice import IndexSet
from .matalg import LocalizedMatrix, schur_norm, sjostrand_norm, slant_norm
from .reporting import (STABILITY_CSV_HEADER, build_report, dump_json_bytes,
                        p_label, stability_csv_row, stability_csv_rows,
                        validate_report, write_csv, write_report)
from .stability import (SYMBOL_GRID, convolution_stability, density_check,
                        equivalence_report, inverse_decay_profile,
                        normalize_p)
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
    out = [normalize_p(str(tok)) for tok in value]
    if not out:
        raise ValueError("empty exponent list")
    return out


def _parse_single_p(value) -> float:
    ps = _parse_p_list(value)
    if len(ps) != 1:
        raise ValueError("this analysis takes exactly one exponent")
    return ps[0]


def _parse_int_list(value) -> list[int]:
    """Accept '3..8' (inclusive range), '4,5,6', or a JSON list.  The list
    must be non-empty (a descending range such as '5..3' is empty) and
    strictly increasing, or a ValueError is raised: a repeated or descending
    ladder would otherwise pass for a stabilized one.  A fractional entry
    raises InvariantViolation rather than being truncated."""
    items = value
    if isinstance(value, str):
        if ".." in value:
            lo, hi = value.split("..")
            items = range(integer_field(lo, "range start"),
                          integer_field(hi, "range end") + 1)
        else:
            items = value.split(",")
    out = [integer_field(v, "list entry") for v in items]
    if not out:
        raise ValueError(f"empty integer list: {value!r}")
    if any(b <= a for a, b in zip(out, out[1:])):
        raise ValueError(f"integer list must be strictly increasing: {value!r}")
    return out


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
        return [integer_field(r[0], "offset") for r in rows], [r[1] for r in rows]
    if widths == {1}:
        if len(rows) % 2 == 0:
            raise ValueError("single-column sequence must have odd length "
                             "(centered around offset 0)")
        half = len(rows) // 2
        return list(range(-half, half + 1)), [r[0] for r in rows]
    raise ValueError("sequence CSV must be 'j,value' rows or one value per line")


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


def _run_ladder(params: dict, analysis: str):
    """`stab` and `equiv`: one ladder per exponent over the same windows;
    `equiv` adds the cross-exponent verdict and its candidates."""
    A = _load_matrix(params["matrix"])
    windows = _parse_int_list(params["windows"])
    ps = _parse_p_list(params["p"])
    eq = equivalence_report(A, ps, windows)
    verdicts = {p_label(p): v for p, v in eq.verdicts.items()}
    meta = None
    if analysis == "equiv":
        verdicts["consistent"] = eq.consistent
        meta = {"counterexample_candidates": eq.counterexample_candidates}
    entries = [{"p": p_label(p), **vars(e)}
               for p in sorted(eq.per_p) for e in eq.per_p[p].entries]
    norm_params = {"matrix": str(params["matrix"]),
                   "p": [p_label(p) for p in ps], "windows": windows}
    report = build_report(analysis, norm_params, params.get("seed"), entries,
                          verdicts, meta)
    return report, STABILITY_CSV_HEADER, stability_csv_rows(eq.per_p)


def _run_conv(params: dict):
    offsets, values = _read_sequence_csv(params["seq"])
    grid = integer_field(params.get("grid", SYMBOL_GRID), "grid")
    cert = convolution_stability(offsets, values, grid_size=grid)
    norm_params = {"seq": str(params["seq"]), "grid": grid,
                   "offsets": offsets, "values": values}
    report = build_report("conv", norm_params, None, [dict(vars(cert))],
                          {"stability": cert.verdict})
    return report, None, None


def _run_invdecay(params: dict):
    A = _load_matrix(params["matrix"])
    margin = float(params["margin"])
    res = inverse_decay_profile(A, margin)
    entry = {k: v for k, v in vars(res).items() if k != "profile"}
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
    entries = [dict(vars(v)) for v in verdicts]
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
    rep = synthesis_stability(fam, p, n0_values, windows)
    entries = [dict(vars(e)) for e in rep.entries]
    norm_params = {"family": str(params["family"]), "p": p_label(p),
                   "n0": n0_values, "window": windows}
    meta = {"sjostrand_bound_ratio": rep.sjostrand_bound_ratio}
    report = build_report("synth", norm_params, params.get("seed"), entries,
                          {p_label(p): rep.verdict}, meta)
    finest = max(n0_values)
    rows = [stability_csv_row(p, e) for e in rep.entries if e.n0 == finest]
    return report, STABILITY_CSV_HEADER, rows


def _run_kernel(params: dict):
    op = KernelOperator.from_json_dict(_load_json(params["kernel"]))
    p = _parse_single_p(params["p"])
    n_values = _parse_int_list(params["n"])
    windows = [float(w) for w in _parse_int_list(params["window"])]
    rep = perturbed_identity_stability(op, p, n_values, windows)
    entries = [dict(vars(e)) for e in rep.entries]
    curve = rep.error_curve
    norm_params = {"kernel": str(params["kernel"]), "p": p_label(p),
                   "n": n_values, "window": windows}
    meta = {"error_curve": {"r": p_label(p),
                            "entries": [[n, u] for n, u in curve.entries],
                            "slope": curve.slope}}
    report = build_report("kernel", norm_params, params.get("seed"), entries,
                          {p_label(p): rep.verdict}, meta)
    return report, ("n", "ratio"), curve.entries


# ----------------------------------------------------------------------
# the analyses: runner, help text and flags as (name, required, help);
# the subcommands' flags and the `locop run` params both come from here


_SEED = ("seed", False, "recorded in the report's seed field only")

_ANALYSES = {
    "norms": (_run_norms, "Schur/Sjostrand/slant norms of a matrix", (
        ("matrix", True, None),
        ("alpha", False, "slant alpha of the slant norm (omit to skip it)"))),
    "stab": (partial(_run_ladder, analysis="stab"),
             "stability ladder over prefix windows", (
        ("matrix", True, None),
        ("p", True, "comma list, e.g. 1,2,inf"),
        ("windows", True, "comma list, e.g. 32,64,128"), _SEED)),
    "equiv": (partial(_run_ladder, analysis="equiv"),
              "cross-exponent equivalence of ladders", (
        ("matrix", True, None),
        ("p", True, "comma list, e.g. 1,2,inf"),
        ("windows", True, "comma list, e.g. 32,64,128"), _SEED)),
    "conv": (_run_conv, "certify min |symbol| of a filter", (
        ("seq", True, "CSV: 'j,value' rows, or one value per line (odd, centered)"),
        ("grid", False, f"symbol grid size (default {SYMBOL_GRID})"))),
    "invdecay": (_run_invdecay, "off-diagonal decay profile of the inverse", (
        ("matrix", True, None),
        ("margin", True, "boundary columns excluded from the fit"))),
    "density": (_run_density, "necessary counting condition", (
        ("rows", True, "row IndexSet JSON"),
        ("cols", True, "column IndexSet JSON"),
        ("r0", True, None),
        ("boxes", True, "JSON list of boxes"))),
    "synth": (_run_synth, "stability of a discretized synthesis map", (
        ("family", True, "generator family JSON"),
        ("p", True, None),
        ("n0", True, "comma list of scales, e.g. 4,5,6"),
        ("window", True, "comma list of window sizes"), _SEED)),
    "kernel": (_run_kernel, "kernel discretization error and "
                            "perturbed-identity stability", (
        ("kernel", True, "kernel operator JSON"),
        ("p", True, None),
        ("n", True, "scales, e.g. 3..8 or 3,4,5"),
        ("window", True, None), _SEED)),
}


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
    report, header, rows = _ANALYSES[analysis][0](params)
    _emit(report, out, header, rows)


def _config_params(cfg: dict) -> dict:
    """A `locop run` config's params; a top-level key other than analysis,
    params, seed and out, or a param that is no flag of the analysis, is an
    error."""
    keys = ["analysis", "out", "params", "seed"]
    unknown = sorted(set(cfg) - set(keys))
    if unknown:
        raise ValueError(f"config has no key {unknown[0]!r}; it takes {keys}")
    analysis = cfg["analysis"]
    if analysis not in _ANALYSES:
        raise ValueError(f"unknown analysis {analysis!r}")
    allowed = {name for name, _, _ in _ANALYSES[analysis][2]}
    params = dict(cfg["params"])
    unknown = sorted(set(params) - allowed)
    if unknown:
        raise ValueError(f"{analysis} has no parameter {unknown[0]!r}; "
                         f"it takes {sorted(allowed)}")
    if "seed" in cfg:
        params.setdefault("seed", cfg["seed"])
    return params


# ----------------------------------------------------------------------
# argument surface


class _Parser(argparse.ArgumentParser):
    """Flag errors exit 2 with a JSON error, like any other bad input."""

    def error(self, message):
        raise ValueError(message)


_FLAGS = ({"--spec", "--out", "--config"}
          | {f"--{name}" for _, _, flags in _ANALYSES.values() for name, _, _ in flags})


def _attach_flag_values(argv: list[str]) -> list[str]:
    """``--flag value`` as ``--flag=value``.  Every locop flag takes one
    value, so the token after a flag is its value even when it starts with
    '-' (argparse reads ``--alpha -inf`` as a second flag); a following
    flag name or -h/--help is left alone, so a missing value stays a flag
    error."""
    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        if (tok in _FLAGS and i + 1 < len(argv)
                and argv[i + 1] not in _FLAGS | {"-h", "--help"}):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


@cache
def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="locop",
        description="Finite-section stability toolkit for localized operators.")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a test corpus from a spec")
    g.add_argument("--spec", required=True, help="corpus spec JSON")
    g.add_argument("--out", required=True, help="output directory")

    for analysis, (_, text, flags) in _ANALYSES.items():
        sp = sub.add_parser(analysis, help=text)
        for name, required, help_text in flags:
            sp.add_argument(f"--{name}", required=required, help=help_text)
        sp.add_argument("--out", default=None,
                        help="output path; .csv writes curve + sibling .json, "
                             "otherwise JSON report (+ sibling .csv when a curve "
                             "exists); default prints JSON to stdout")

    r = sub.add_parser("run", help="run an analysis described by a config file")
    r.add_argument("--config", required=True,
                   help='JSON {"analysis", "params", ["seed"], ["out"]}')
    return ap


def main(argv=None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        args = build_parser().parse_args(_attach_flag_values(argv))
        if args.command == "gen":
            manifest = corpus.generate(_load_json(args.spec), args.out)
            sys.stdout.buffer.write(dump_json_bytes(manifest))
        elif args.command == "run":
            cfg = _load_json(args.config)
            _dispatch(cfg["analysis"], _config_params(cfg), cfg.get("out"))
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
