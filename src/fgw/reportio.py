"""Deterministic report serialization.

Floats are printed with 12 significant digits, exact rationals as
"p/q" strings (plain "n" when integral), so identical runs emit
byte-identical JSON and CSV.  Non-finite floats are rejected: a report
with an infinity in it is a bug upstream.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction
from json.encoder import encode_basestring


def _render_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("non-finite float in report")
    return "%.12g" % x


def render_number(x) -> str:
    """Canonical text form of a report number."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return _render_float(x)
    # Fraction last: its metaclass is ABCMeta, so this isinstance is the slow one
    if isinstance(x, Fraction):
        return str(x)
    raise TypeError(f"not a report number: {x!r}")


def json_dumps(obj, indent: int = 0) -> str:
    """Serialize a report object tree; key order is insertion order.

    Strings are quoted by the stdlib's encode_basestring: '"', backslash,
    \\n, \\r and \\t as two-character escapes, other control characters
    as \\u00xx, everything else, non-ASCII included, verbatim.  (It also
    writes \\b and \\f as short escapes; no report string holds either.)

    The exact types that fill reports (float, str, dict, list, tuple)
    are tested first by identity; anything else (None, bool, int,
    Fraction, subclasses) takes the isinstance chain below, in which
    Fraction comes last because its metaclass is ABCMeta.
    """
    t = type(obj)
    if t is float:
        return _render_float(obj)
    if t is str:
        return encode_basestring(obj)
    if t is dict:
        return _dumps_dict(obj, indent)
    if t is list or t is tuple:
        return _dumps_list(obj, indent)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return render_number(obj)
    if isinstance(obj, str):
        return encode_basestring(obj)
    if isinstance(obj, (list, tuple)):
        return _dumps_list(obj, indent)
    if isinstance(obj, dict):
        return _dumps_dict(obj, indent)
    # Fraction last, as in render_number
    if isinstance(obj, Fraction):
        return encode_basestring(str(obj))
    raise TypeError(f"cannot serialize {type(obj).__name__} in a report")


def _dumps_list(obj, indent: int) -> str:
    if not obj:
        return "[]"
    inner = " " * (indent + 2)
    items = [inner + json_dumps(x, indent + 2) for x in obj]
    return "[\n" + ",\n".join(items) + "\n" + " " * indent + "]"


def _dumps_dict(obj, indent: int) -> str:
    if not obj:
        return "{}"
    inner = " " * (indent + 2)
    items = [
        inner + encode_basestring(str(k)) + ": " + json_dumps(v, indent + 2)
        for k, v in obj.items()
    ]
    return "{\n" + ",\n".join(items) + "\n" + " " * indent + "}"


def write_json(stream, objects) -> None:
    """Write a top-level JSON array of report objects."""
    stream.write(json_dumps(list(objects)))
    stream.write("\n")


CSV_HEADER = ("id", "params", "lhs", "rhs", "margin", "status")


def _csv_cell(x) -> str:
    # exact types first, as in json_dumps; the rest takes render_number's chain
    t = type(x)
    if t is float:
        return _render_float(x)
    if t is str or t is int:
        return str(x)
    if x is None:
        return ""
    return x if isinstance(x, str) else render_number(x)


def write_csv(stream, rows, header=CSV_HEADER) -> None:
    """Write rows with the mandatory header; one row per tested instance."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_cell(c) for c in row])
