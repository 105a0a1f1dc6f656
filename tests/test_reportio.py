"""Report serialization: the type dispatch of json_dumps, and write_csv.

Core claims:
    - json_dumps writes the same text as the isinstance chain it replaced
      (kept below as the reference) on random report trees of dicts,
      lists and tuples holding None, bool, int, float, str and Fraction,
      and subclasses of float, int and Fraction, which render_number
      writes as their base type
    - it refuses non-finite floats and unknown types as before, and
      render_number refuses anything that is not a number
    - write_csv writes the same text as csv.writer (kept below as the
      reference) on rows of 0-7 cells mixing None, numbers, numeric
      subclasses and text holding ',', '"' and newlines, the row of one
      empty cell included; a cell holding \\r is quoted on every Python
      version, and non-finite floats and non-numbers are refused as before
    - json_dumps and write_csv write the same text as their versions
      before the key table and the exact-type cell dispatch (kept below)
      on floats (-0.0 and subnormals included), ints, bools, Fractions,
      None, str subclasses and text holding ',', '"', \\n, \\r or
      non-ASCII characters, in values and in keys
    - the table of encoded keys stays within its cap however many keys
      are written, and a key past the cap is written as one in it
"""

import csv
import io
import math
from fractions import Fraction
from json.encoder import encode_basestring

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fgw.reportio
from fgw.reportio import CSV_HEADER, json_dumps, render_number, write_csv


def _reference_json_dumps(obj, indent=0):
    # json_dumps as it was: one isinstance chain, Fraction last
    pad = " " * indent
    inner = " " * (indent + 2)
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
        if not obj:
            return "[]"
        items = [inner + _reference_json_dumps(x, indent + 2) for x in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            inner + encode_basestring(str(k)) + ": " + _reference_json_dumps(v, indent + 2)
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, Fraction):
        return encode_basestring(str(obj))
    raise TypeError(f"cannot serialize {type(obj).__name__} in a report")


class _Float(float):
    pass


class _Int(int):
    pass


class _Fraction(Fraction):
    pass


_LEAVES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(_Float),
    st.integers().map(_Int),
    st.fractions(max_denominator=10**6).map(_Fraction),
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
    st.fractions(max_denominator=10**6),
)
_TREES = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(_TREES, st.sampled_from([0, 2, 4]))
def test_json_dumps_matches_isinstance_chain(tree, indent):
    assert json_dumps(tree, indent) == _reference_json_dumps(tree, indent)


def test_json_dumps_refuses_what_it_refused():
    for bad in (math.inf, [1.0, -math.inf], {"x": math.nan}):
        with pytest.raises(ValueError):
            json_dumps(bad)
    for bad in (object(), {"x": {1, 2}}, [b"bytes"]):
        with pytest.raises(TypeError):
            json_dumps(bad)


def test_render_number_refuses_what_is_not_a_number():
    for bad in ("1", None, [1], b"1", 1j):
        with pytest.raises(TypeError):
            render_number(bad)
    for bad in (math.inf, _Float(-math.inf), math.nan):
        with pytest.raises(ValueError):
            render_number(bad)


def _reference_write_csv(rows):
    # write_csv as it was: the cells rendered, then csv.writer
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow(["" if c is None else c if isinstance(c, str) else render_number(c) for c in row])
    return out.getvalue()


def _write_csv(rows):
    out = io.StringIO()
    write_csv(out, rows)
    return out.getvalue()


# csv.writer leaves a cell holding \r unquoted before Python 3.13 and
# quotes it from 3.13 on, and 3.10 refuses NUL; write_csv quotes \r on
# every version, so the reference is compared on text without either
_CELLS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.fractions(max_denominator=10**6),
    st.floats(allow_nan=False, allow_infinity=False).map(_Float),
    st.integers().map(_Int),
    st.fractions(max_denominator=10**6).map(_Fraction),
    st.text(alphabet=st.sampled_from('ab ,"\n1-/.'), max_size=6),
    st.text(alphabet=st.characters(blacklist_characters="\r\x00"), max_size=6),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_CELLS, max_size=7).map(tuple), max_size=5))
@example([("",)])
@example([(None,), (), ("", ""), ('"',)])
def test_write_csv_matches_csv_writer(rows):
    assert _write_csv(rows) == _reference_write_csv(rows)


def test_write_csv_pins_quoting():
    rows = [("",), (), ("a\rb", 'say "hi"', "x,y", "l1\nl2", "plain", None, 1.5)]
    assert _write_csv(rows) == (
        "id,params,lhs,rhs,margin,status\n"
        '""\n'
        "\n"
        '"a\rb","say ""hi""","x,y","l1\nl2",plain,,1.5\n'
    )


def test_write_csv_refuses_what_it_refused():
    for bad in (math.inf, _Float(math.nan)):
        with pytest.raises(ValueError):
            write_csv(io.StringIO(), [("id", bad)])
    for bad in (object(), [1], b"1", 1j):
        with pytest.raises(TypeError):
            write_csv(io.StringIO(), [("id", bad)])


# -- json_dumps and write_csv as they were before the key table -------------

_HEAD_LEAVES = {
    float: render_number,
    str: encode_basestring,
    int: int.__repr__,
    bool: lambda x: "true" if x else "false",
    type(None): lambda x: "null",
    Fraction: lambda x: encode_basestring(str(x)),
}


def _head_json_dumps(obj, indent=0):
    t = type(obj)
    leaf = _HEAD_LEAVES.get(t)
    if leaf is not None:
        return leaf(obj)
    if t is dict:
        return _head_dumps_dict(obj, indent)
    if t is list or t is tuple:
        return _head_dumps_list(obj, indent)
    text = render_number(obj)
    return encode_basestring(text) if isinstance(obj, Fraction) else text


def _head_dumps_list(obj, indent):
    if not obj:
        return "[]"
    inner = " " * (indent + 2)
    get = _HEAD_LEAVES.get
    items = [inner + (leaf(x) if (leaf := get(type(x))) else _head_json_dumps(x, indent + 2)) for x in obj]
    return "[\n" + ",\n".join(items) + "\n" + " " * indent + "]"


def _head_dumps_dict(obj, indent):
    if not obj:
        return "{}"
    inner = " " * (indent + 2)
    get = _HEAD_LEAVES.get
    items = [
        inner + encode_basestring(str(k)) + ": "
        + (leaf(v) if (leaf := get(type(v))) else _head_json_dumps(v, indent + 2))
        for k, v in obj.items()
    ]
    return "{\n" + ",\n".join(items) + "\n" + " " * indent + "}"


def _head_csv_cell(x):
    if x is None:
        return ""
    if not isinstance(x, str):
        return render_number(x)
    if "," in x or '"' in x or "\n" in x or "\r" in x:
        return '"' + x.replace('"', '""') + '"'
    return x


def _head_write_csv(rows):
    out = io.StringIO()
    out.write(",".join(CSV_HEADER) + "\n")
    for row in rows:
        line = ",".join([_head_csv_cell(c) for c in row])
        if not line and len(row) == 1:
            line = '""'
        out.write(line + "\n")
    return out.getvalue()


class _Str(str):
    pass


def _outcome(write, *args):
    """The text written, or the type of the error raised (json_dumps refuses a str subclass)."""
    try:
        return write(*args)
    except (TypeError, ValueError) as exc:
        return type(exc)


_TEXT = st.one_of(
    st.text(alphabet=st.sampled_from(',"\n\r ab1-/.\\\t\u00e9\u20ac\U0001d538'), max_size=8),
    st.text(max_size=6),
)
# report keys recur from row to row, so most keys come from a small set
_KEYS = st.one_of(st.sampled_from(["id", "lhs", "margin", "a,b", 'q"', "x\ny", "\u00e9"]), _TEXT)
_ROW_LEAVES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-310]),
    st.integers(),
    st.booleans(),
    st.fractions(max_denominator=10**6),
    st.none(),
    _TEXT,
    _TEXT.map(_Str),
    st.floats(allow_nan=False, allow_infinity=False).map(_Float),
    st.integers().map(_Int),
    st.fractions(max_denominator=10**6).map(_Fraction),
)
_ROW_TREES = st.recursive(
    _ROW_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_KEYS, inner, max_size=5),
    ),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_ROW_TREES, max_size=3), st.sampled_from([0, 2]))
@example([{"kind": "check", "id": "a,b", "lhs": -0.0, "rhs": 5e-324, "note": "\r\u00e9"}], 0)
def test_json_dumps_matches_the_version_before_the_key_table(tree, indent):
    # the same tree twice: the second pass reads keys from the table
    want = _outcome(_head_json_dumps, tree, indent)
    assert _outcome(json_dumps, tree, indent) == want
    assert _outcome(json_dumps, tree, indent) == want


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_ROW_LEAVES, max_size=7).map(tuple), max_size=5))
@example([(-0.0, 5e-324, "a,b", 'say "x"', "l1\nl2", "c\rr", "\u00e9t\u00e9", _Str("s,t"), None, True)])
def test_write_csv_matches_the_version_before_exact_type_cells(rows):
    assert _outcome(_write_csv, rows) == _outcome(_head_write_csv, rows)


def test_key_table_stays_within_its_cap():
    # convolve writes one str(l) key per sphere of the product
    obj = {str(l): str(l) for l in range(10_000)}
    assert json_dumps(obj) == _head_json_dumps(obj)
    table = fgw.reportio._KEY_TEXTS
    assert len(table) <= fgw.reportio._KEY_TEXTS_CAP
    assert all(text == encode_basestring(k) + ": " for k, text in table.items())
    # once the table is full, a new key is still written, and not kept
    fresh = "a key no other test writes"
    assert json_dumps({fresh: 1}) == '{\n  "a key no other test writes": 1\n}'
    assert len(table) <= fgw.reportio._KEY_TEXTS_CAP
    assert fresh not in table
