"""Deterministic report serialization, and the one rule for report text.

render_number writes every number a report shows, in JSON, CSV, CSV
parameter blocks and check texts: floats with 12 significant digits,
exact rationals as "p/q" strings (plain "n" when integral), so identical
runs emit byte-identical reports.  Non-finite floats are rejected: a
report with an infinity in it is a bug upstream.

A verification report records each check row once, as the JSON object
it is written as (theorems.VerificationReport), so json_dumps takes the
rows as they are.  It writes each str key's '"key": ' text once and
reuses it from a table of at most _KEY_TEXTS_CAP keys; keys past the cap
are encoded per use.

CSV is written here too, without the csv module, so its bytes do not
depend on the Python version: a cell holding ',', '"', \\n or \\r is
quoted, its '"' doubled, and a row of one empty cell is written as "".
Cells are told apart by exact type, float first, as json_dumps' leaves
are; a subclass of str is quoted as a str, one of a number rendered.
"""

from __future__ import annotations

import math
from fractions import Fraction
from json.encoder import encode_basestring


def _render_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("non-finite float in report")
    return "%.12g" % x


def render_number(x) -> str:
    """Canonical text form of a report number; exact types are tested first, by identity."""
    t = type(x)
    if t is float:
        return _render_float(x)
    if t is int:
        return str(x)
    if t is bool:
        return "true" if x else "false"
    if t is Fraction:
        return str(x)
    # a numeric subclass (a numpy float64, say) renders as its base type;
    # Fraction last: its metaclass is ABCMeta, so this isinstance is the slow one
    for base in (float, int, Fraction):
        if isinstance(x, base):
            return render_number(base(x))
    raise TypeError(f"not a report number: {x!r}")


def render_param(v) -> str:
    """Canonical text of a parameter: strings verbatim, lists bracketed, numbers rendered."""
    if isinstance(v, str):
        return v
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(render_param(x) for x in v) + "]"
    return render_number(v)


# the leaf writers of json_dumps, keyed by exact type
_LEAVES = {
    float: _render_float,
    str: encode_basestring,
    int: int.__repr__,
    bool: lambda x: "true" if x else "false",
    type(None): lambda x: "null",
    Fraction: lambda x: encode_basestring(str(x)),
}


def json_dumps(obj, indent: int = 0) -> str:
    """Serialize a report object tree; key order is insertion order.

    Strings are quoted by the stdlib's encode_basestring: '"', backslash,
    \\n, \\r and \\t as two-character escapes, other control characters
    as \\u00xx, everything else, non-ASCII included, verbatim.  (It also
    writes \\b and \\f as short escapes; no report string holds either.)

    Leaves and containers are told apart by exact type, leaves through
    _LEAVES: None, bool, int, float, str, and a Fraction as its quoted
    "p/q" string.  A subclass of float, int or Fraction is written by
    render_number as its base type; anything else is refused.
    """
    t = type(obj)
    leaf = _LEAVES.get(t)
    if leaf is not None:
        return leaf(obj)
    if t is dict:
        return _dumps_dict(obj, indent)
    if t is list or t is tuple:
        return _dumps_list(obj, indent)
    text = render_number(obj)
    return encode_basestring(text) if isinstance(obj, Fraction) else text


def _dumps_list(obj, indent: int) -> str:
    if not obj:
        return "[]"
    inner = " " * (indent + 2)
    get = _LEAVES.get
    items = [
        leaf(x) if (leaf := get(type(x)))
        else _dumps_dict(x, indent + 2) if type(x) is dict
        else json_dumps(x, indent + 2)
        for x in obj
    ]
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + " " * indent + "]"


# '"key": ' per str key, so a key shared by many rows is encoded once;
# at most _KEY_TEXTS_CAP keys are kept, later ones are encoded per use
_KEY_TEXTS_CAP = 256
_KEY_TEXTS: dict = {}


def _key_text(k) -> str:
    text = encode_basestring(str(k)) + ": "
    if type(k) is str and len(_KEY_TEXTS) < _KEY_TEXTS_CAP:
        _KEY_TEXTS[k] = text
    return text


def _dumps_dict(obj, indent: int) -> str:
    if not obj:
        return "{}"
    inner = " " * (indent + 2)
    get = _LEAVES.get
    key_text = _KEY_TEXTS.get
    items = [
        (key_text(k) or _key_text(k))
        + (leaf(v) if (leaf := get(type(v))) else json_dumps(v, indent + 2))
        for k, v in obj.items()
    ]
    return "{\n" + inner + (",\n" + inner).join(items) + "\n" + " " * indent + "}"


def write_json(stream, objects) -> None:
    """Write a top-level JSON array of report objects."""
    stream.write(json_dumps(list(objects)))
    stream.write("\n")


CSV_HEADER = ("id", "params", "lhs", "rhs", "margin", "status")


def _csv_cell(x) -> str:
    """One CSV cell; float and str, nearly every cell, are told apart by exact type first."""
    t = type(x)
    if t is float:
        return _render_float(x)
    if x is None:
        return ""
    if t is not str and not isinstance(x, str):
        return render_number(x)
    if "," in x or '"' in x or "\n" in x or "\r" in x:
        return '"' + x.replace('"', '""') + '"'
    return x


def write_csv(stream, rows) -> None:
    """Write rows under CSV_HEADER; one row per tested instance."""
    write = stream.write
    write(",".join(CSV_HEADER) + "\n")
    for row in rows:
        line = ",".join([_csv_cell(c) for c in row])
        # a lone empty cell is quoted, or the row would read as no cells
        if not line and len(row) == 1:
            line = '""'
        write(line + "\n")
