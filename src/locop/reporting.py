"""Report envelopes, schema validation, and canonical JSON/CSV emission.

Every analysis writes the same envelope::

    {"analysis": ..., "version": 1, "params": {...}, "seed": int|null,
     "entries": [...], "verdicts": {...}, "meta": {...}}

JSON bytes are canonical (sorted keys, two-space indent, trailing
newline) and files are written atomically, so identical (config, seed)
pairs produce byte-identical outputs.  CSV uses ``.`` decimals, LF line
endings, and shortest round-trip float formatting.
"""

from __future__ import annotations

import json
import math
import os
from importlib import resources
from pathlib import Path

import jsonschema

from .errors import InvariantViolation

REPORT_VERSION = 1

ANALYSES = ("norms", "stab", "equiv", "conv", "invdecay", "density",
            "synth", "kernel")

STABILITY_CSV_HEADER = ("window", "p", "lower", "upper", "certified")

_schema_cache = None


def report_schema() -> dict:
    """The published report schema, loaded once from package data."""
    global _schema_cache
    if _schema_cache is None:
        text = (resources.files("locop") / "schemas" / "report.schema.json").read_text()
        _schema_cache = json.loads(text)
    return _schema_cache


# ----------------------------------------------------------------------
# canonical serialization


def dump_json_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2, allow_nan=False,
                       separators=(",", ": ")) + "\n").encode()


def write_atomic(path, data: bytes) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def p_label(p) -> str:
    """Stable string key for an exponent: '1', '2', 'inf', '1.5'."""
    p = float(p)
    if math.isinf(p):
        return "inf"
    if p.is_integer():
        return str(int(p))
    return repr(p)


def format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def csv_bytes(header, rows) -> bytes:
    lines = [",".join(header)]
    lines += [",".join(format_cell(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


# ----------------------------------------------------------------------
# envelope assembly and validation


def build_report(analysis: str, params: dict, seed, entries, verdicts,
                 meta=None) -> dict:
    if analysis not in ANALYSES:
        raise ValueError(f"unknown analysis {analysis!r}")
    return {
        "analysis": analysis,
        "version": REPORT_VERSION,
        "params": dict(params),
        "seed": None if seed is None else int(seed),
        "entries": list(entries),
        "verdicts": dict(verdicts),
        "meta": dict(meta or {}),
    }


def validate_report(report: dict) -> None:
    try:
        jsonschema.validate(report, report_schema())
    except jsonschema.ValidationError as exc:
        raise InvariantViolation(f"report fails schema: {exc.message}") from exc


def write_report(path, report: dict) -> None:
    validate_report(report)
    write_atomic(path, dump_json_bytes(report))


def write_csv(path, header, rows) -> None:
    write_atomic(path, csv_bytes(header, rows))


# ----------------------------------------------------------------------
# stability curves


def stability_csv_rows(per_p: dict) -> list[tuple]:
    """Flatten {p: StabilityReport} into (window, p, lower, upper, certified)
    rows sorted by (p, window); a row is certified only when both bounds are.
    """
    rows = []
    for p in sorted(per_p):
        rep = per_p[p]
        for i, w in enumerate(rep.window_sizes):
            rows.append((int(w), p_label(p),
                         float(rep.lower_constants[i]),
                         float(rep.upper_constants[i]),
                         bool(rep.lower_certified[i] and rep.upper_certified[i])))
    return rows
