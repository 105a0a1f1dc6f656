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
"""

import csv
import io
import math
from fractions import Fraction
from json.encoder import encode_basestring

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
