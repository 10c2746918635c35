"""Report envelopes, their validation, and canonical JSON/CSV emission.

Every analysis writes the same envelope::

    {"analysis": ..., "version": 1, "params": {...}, "seed": int|null,
     "entries": [...], "verdicts": {...}, "meta": {...}}

``schemas/report.schema.json`` publishes it.  ``validate_report`` checks
the schema's rules itself, a few type tests on a closed set of keys, so
locop needs no schema engine; a test holds it to ``jsonschema``'s verdict.
JSON bytes are canonical (sorted keys, two-space indent, trailing
newline) and files are written atomically, so identical (config, seed)
pairs produce byte-identical outputs.  CSV uses ``.`` decimals, LF line
endings, and shortest round-trip float formatting.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from pathlib import Path

from .errors import InvariantViolation, integer_field

REPORT_VERSION = 1

# the schema's ``analysis`` enum
ANALYSES = ("norms", "stab", "equiv", "conv", "invdecay", "density", "synth", "kernel")

_REPORT_KEYS = {"analysis", "version", "params", "seed", "entries", "verdicts", "meta"}

STABILITY_CSV_HEADER = ("window", "p", "lower", "upper", "certified")


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
    """The report envelope; ``ANALYSES``, which validate_report enforces
    before any write, names the known analyses."""
    return {
        "analysis": analysis,
        "version": REPORT_VERSION,
        "params": dict(params),
        "seed": None if seed is None else integer_field(seed, "seed"),
        "entries": list(entries),
        "verdicts": dict(verdicts),
        "meta": dict(meta or {}),
    }


def _envelope_error(report) -> str | None:
    """The first rule of the report schema that ``report`` breaks, if any."""
    if not isinstance(report, dict):
        return "the report is not an object"
    if report.keys() != _REPORT_KEYS:
        return f"keys {sorted(map(str, report))} are not {sorted(_REPORT_KEYS)}"
    if report["analysis"] not in ANALYSES:
        return f"unknown analysis {report['analysis']!r}"
    version = report["version"]
    if isinstance(version, bool) or version != REPORT_VERSION:
        return f"version {version!r} is not {REPORT_VERSION}"
    seed = report["seed"]
    # JSON Schema draft 7: an integral float is an integer, a boolean is not
    if isinstance(seed, bool) or not (seed is None or isinstance(seed, int)
                                      or isinstance(seed, float) and seed.is_integer()):
        return f"seed {seed!r} is not an integer or null"
    for key in ("params", "meta", "verdicts"):
        if not isinstance(report[key], dict):
            return f"{key} is not an object"
    entries = report["entries"]
    if not (isinstance(entries, list) and all(isinstance(e, dict) for e in entries)):
        return "entries is not a list of objects"
    for name, value in report["verdicts"].items():
        # numbers.Number includes bool
        if not isinstance(value, (str, numbers.Number)):
            return f"verdict {name!r} is {value!r}, not a string, boolean or number"
    return None


def validate_report(report: dict) -> None:
    error = _envelope_error(report)
    if error is not None:
        raise InvariantViolation(f"report fails schema: {error}")


def write_report(path, report: dict) -> None:
    """Write a report that validate_report has already accepted."""
    write_atomic(path, dump_json_bytes(report))


def write_csv(path, header, rows) -> None:
    write_atomic(path, csv_bytes(header, rows))


# ----------------------------------------------------------------------
# stability curves


def stability_csv_row(p: float, e) -> tuple:
    """The (window, p, lower, upper, certified) row of one window entry at
    exponent p; a row is certified only when both bounds are."""
    return (int(e.window), p_label(p), float(e.lower), float(e.upper),
            bool(e.lower_certified and e.upper_certified))


def stability_csv_rows(per_p: dict) -> list[tuple]:
    """Flatten {p: StabilityReport} into rows sorted by (p, window)."""
    return [stability_csv_row(p, e) for p in sorted(per_p) for e in per_p[p].entries]
