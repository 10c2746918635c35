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

import functools
import json
import math
import os
from importlib import resources
from pathlib import Path

import jsonschema
from jsonschema.exceptions import best_match

from .errors import InvariantViolation, integer_field

REPORT_VERSION = 1

STABILITY_CSV_HEADER = ("window", "p", "lower", "upper", "certified")


@functools.cache
def report_validator() -> jsonschema.Draft7Validator:
    """Validator for the published report schema, loaded and checked once."""
    text = (resources.files("locop") / "schemas" / "report.schema.json").read_text()
    schema = json.loads(text)
    jsonschema.Draft7Validator.check_schema(schema)
    return jsonschema.Draft7Validator(schema)


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
    """The report envelope; the schema's ``analysis`` enum, which
    validate_report enforces before any write, names the known analyses."""
    return {
        "analysis": analysis,
        "version": REPORT_VERSION,
        "params": dict(params),
        "seed": None if seed is None else integer_field(seed, "seed"),
        "entries": list(entries),
        "verdicts": dict(verdicts),
        "meta": dict(meta or {}),
    }


def validate_report(report: dict) -> None:
    error = best_match(report_validator().iter_errors(report))
    if error is not None:
        raise InvariantViolation(f"report fails schema: {error.message}") from error


def write_report(path, report: dict) -> None:
    """Write a report that validate_report has already accepted."""
    write_atomic(path, dump_json_bytes(report))


def write_csv(path, header, rows) -> None:
    write_atomic(path, csv_bytes(header, rows))


# ----------------------------------------------------------------------
# stability curves


def stability_csv_rows(per_p: dict) -> list[tuple]:
    """Flatten {p: StabilityReport} into (window, p, lower, upper, certified)
    rows sorted by (p, window); a row is certified only when both bounds are.
    """
    return [(int(e.window), p_label(p), float(e.lower), float(e.upper),
             bool(e.lower_certified and e.upper_certified))
            for p in sorted(per_p) for e in per_p[p].entries]
