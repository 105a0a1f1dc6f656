"""Radial convolution algebra with exact structure constants.

Core claims:
    - structure_constant matches a brute-force triple count over enumerated spheres
    - convolve_radial(chi_n, chi_m) equals the enumeration oracle exactly
    - convolve_radial equals the Fraction loop over the structure constants,
      coefficient by coefficient in type and repr, on exact, float and
      mixed inputs; float products keep their values to the last place
    - sphere_product(f, n) is convolve_radial(f, chi_n) as integers over
      f's common denominator (exact f) or as the same sums (float and mixed
      f), and sphere_product_norm_squared equals the product's
      l2_norm_squared in value and type
    - the chi_1 recursion chi_1 * chi_n = chi_{n+1} + q chi_{n-1} holds (n >= 2)
    - total mass is conserved: sum_l c(n,m,l) |S_l| = |S_n| |S_m|
    - the display coefficient majorizes the exact one within a factor 2
    - the algebra is commutative and associative with unit chi_0
    - exact rational coefficients survive arithmetic; floats stay floats
    - is_nonnegative, fixed at construction, equals all(c >= 0) over the
      coefficients, on mixed tuples of -0.0, tiny and negative floats,
      negative Fractions and Fraction subclasses
    - each function's cached exactness, common denominator and scaled
      items equal a fresh recomputation, after +, scalar * and trimming,
      and play no part in equality or hashing
    - a_functional splits exactly into rational + rational * sqrt(q)
    - a_functional_parts, summed on integers over D^2, equals the plain
      Fraction double sum, and keeps a float f's floats
    - conjecture_functional follows the stated s = 1 convention and sign flag
    - radial literals round trip through parse/format
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fgw.radial import (
    RadialFunction,
    _denominator,
    _scaled_items,
    a_functional,
    a_functional_parts,
    chi,
    conjecture_functional,
    convolve_radial,
    format_radial_literal,
    parse_radial_literal,
    paper_display_coefficient,
    sphere_product,
    sphere_product_norm_squared,
    structure_constant,
)
from fgw.oracle import oracle_convolve
from fgw.words import FreeGroupCtx, mul, sphere_size, sphere_stream


def _brute_structure_constant(ctx, n, m, l):
    # c(n,m,l) = #{(x,y) in S_n x S_m : xy = z} for any fixed z in S_l
    for z in sphere_stream(ctx, l):
        break
    count = 0
    for x in sphere_stream(ctx, n):
        for y in sphere_stream(ctx, m):
            if mul(x, y) == z:
                count += 1
    return count


def test_structure_constant_brute_force_k2():
    ctx = FreeGroupCtx(2)
    for n in range(0, 4):
        for m in range(0, 4):
            for l in range(0, n + m + 1):
                want = _brute_structure_constant(ctx, n, m, l)
                assert structure_constant(ctx, n, m, l) == want, (n, m, l)


def test_structure_constant_brute_force_k3():
    ctx = FreeGroupCtx(3)
    for n in range(0, 3):
        for m in range(0, 3):
            for l in range(0, n + m + 1):
                assert structure_constant(ctx, n, m, l) == _brute_structure_constant(ctx, n, m, l)


def test_structure_constant_closed_form_values():
    ctx = FreeGroupCtx(2)
    q = 3
    # top length: every pair of non-cancelling concatenations
    assert structure_constant(ctx, 2, 3, 5) == 1
    # full cancellation at l = 0 needs n = m
    assert structure_constant(ctx, 3, 3, 0) == (q + 1) * q ** 2 == sphere_size(ctx, 3)
    assert structure_constant(ctx, 3, 2, 0) == 0
    # partial cancellation, j letters cancelled
    assert structure_constant(ctx, 4, 2, 4) == (q - 1)
    assert structure_constant(ctx, 4, 2, 2) == q ** 2
    # parity exclusion
    assert structure_constant(ctx, 2, 2, 1) == 0
    assert structure_constant(ctx, 2, 2, 3) == 0


def test_oracle_convolve_agreement():
    for k, top in ((2, 4), (3, 4)):
        ctx = FreeGroupCtx(k)
        for n in range(top + 1):
            for m in range(top + 1):
                got = convolve_radial(chi(ctx, n), chi(ctx, m))
                assert _typed(got) == _typed(oracle_convolve(ctx, n, m))


def test_mass_conservation():
    ctx = FreeGroupCtx(2)
    for n in range(0, 13):
        for m in range(0, 13):
            h = convolve_radial(chi(ctx, n), chi(ctx, m))
            total = sum(c * sphere_size(ctx, l) for l, c in h.nonzero_items())
            assert total == sphere_size(ctx, n) * sphere_size(ctx, m)


def test_display_majorization():
    for k in (2, 3):
        ctx = FreeGroupCtx(k)
        for n in range(0, 13):
            for m in range(0, 13):
                for l in range(abs(n - m), n + m + 1, 2):
                    exact = structure_constant(ctx, n, m, l)
                    disp = paper_display_coefficient(ctx, n, m, l)
                    assert exact <= disp <= 2 * exact, (k, n, m, l)


def test_display_majorization_is_tight():
    # the factor 2 cannot be lowered below 1.5 at k=2
    ctx = FreeGroupCtx(2)
    exact = structure_constant(ctx, 2, 2, 2)
    disp = paper_display_coefficient(ctx, 2, 2, 2)
    assert Fraction(disp, exact) == Fraction(3, 2)


# mixed denominators, up to 10^6, so the scaled products outgrow 2^53
_EXACT = st.fractions(min_value=-20, max_value=20, max_denominator=10**6)
_FLOAT = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
_CTXS = st.sampled_from([FreeGroupCtx(2), FreeGroupCtx(3)])


def _radial(ctx, coeff, max_size=6):
    return st.lists(coeff, max_size=max_size).map(lambda cs: RadialFunction(ctx, tuple(cs)))


def _reference_convolve(f, g):
    # the product as a plain Fraction loop over the structure constants
    out = [Fraction(0)] * (f.degree + g.degree + 1)
    for n, fn in enumerate(f.coeffs):
        if not fn:
            continue
        for m, gm in enumerate(g.coeffs):
            if not gm:
                continue
            w = fn * gm
            for l in range(abs(n - m), n + m + 1, 2):
                out[l] = out[l] + w * structure_constant(f.ctx, n, m, l)
    return RadialFunction(f.ctx, tuple(out))


def _typed(f):
    return [(type(c), repr(c)) for c in f.coeffs]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_algebra_laws(data):
    ctx = data.draw(_CTXS)
    f, g, h = (data.draw(_radial(ctx, _EXACT)) for _ in range(3))
    one = chi(ctx, 0)
    assert convolve_radial(f, g) == convolve_radial(g, f)
    assert convolve_radial(f, one) == f
    assert convolve_radial(one, f) == f
    left = convolve_radial(convolve_radial(f, g), h)
    right = convolve_radial(f, convolve_radial(g, h))
    assert left == right
    assert left.is_exact()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_convolve_matches_fraction_loop(data):
    ctx = data.draw(_CTXS)
    coeff = data.draw(st.sampled_from([_EXACT, _FLOAT, st.one_of(_EXACT, _FLOAT)]))
    f = data.draw(_radial(ctx, coeff))
    g = data.draw(_radial(ctx, st.one_of(_EXACT, _FLOAT, st.integers(-5, 5))))
    assert _typed(convolve_radial(f, g)) == _typed(_reference_convolve(f, g))


_F_KINDS = st.sampled_from([_EXACT, _FLOAT, st.one_of(_EXACT, _FLOAT)])


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(0, 12))
def test_sphere_product_is_the_scaled_product(data, n):
    ctx = data.draw(_CTXS)
    f = data.draw(_radial(ctx, data.draw(_F_KINDS)))
    D, h = sphere_product(f, n)
    prod = convolve_radial(f, chi(ctx, n))
    assert D == _denominator(f)
    assert len(h) == f.degree + n + 1
    for l, c in enumerate(h):
        want = prod.coefficient(l)
        if f.is_exact():
            assert type(c) is int
            assert Fraction(c, D) == want
        else:
            # the loop's own sums: floats repr-equal, the rest equal
            assert D == 1 and c == want
            assert isinstance(c, float) == isinstance(want, float)
            assert repr(c) == repr(want) or not isinstance(c, float)
    pad = data.draw(st.integers(0, 3))
    D2, padded = sphere_product(f, n, len(h) + pad)
    assert (D2, padded) == (D, h + [0] * pad)


@settings(max_examples=150, deadline=None)
@given(
    ctx=_CTXS,
    coeffs=_F_KINDS.flatmap(lambda coeff: st.lists(coeff, max_size=6)),
    n=st.integers(0, 12),
)
# a float 0.0 makes f inexact, yet its product holds no float
@example(ctx=FreeGroupCtx(2), coeffs=[Fraction(1), 0.0, Fraction(1, 3)], n=3)
def test_sphere_chain_norm_equals_l2_norm_of_product(ctx, coeffs, n):
    # thm1's chain value ||f * chi_n||_2^2 / |S_n|, with == and the same type
    f = RadialFunction(ctx, tuple(coeffs))
    got = sphere_product_norm_squared(f, n) / sphere_size(ctx, n)
    want = convolve_radial(f, chi(ctx, n)).l2_norm_squared() / sphere_size(ctx, n)
    assert type(got) is type(want)
    assert got == want


def test_sphere_product_refuses_negative_index():
    with pytest.raises(ValueError, match="nonnegative"):
        sphere_product(chi(FreeGroupCtx(2), 1), -1)
    # a given length must leave room for the top coefficient, deg f + n
    with pytest.raises(ValueError, match="exceed"):
        sphere_product(chi(FreeGroupCtx(2), 1), 2, 3)
    assert len(sphere_product(chi(FreeGroupCtx(2), 1), 2, 4)[1]) == 4


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(0, 30))
def test_chi1_recursion(k, n):
    # chi_1 * chi_1 = chi_2 + (q + 1) chi_0: S_1 has q + 1 words
    ctx = FreeGroupCtx(k)
    q = ctx.q
    if n == 0:
        want = chi(ctx, 1)
    elif n == 1:
        want = chi(ctx, 2) + (q + 1) * chi(ctx, 0)
    else:
        want = chi(ctx, n + 1) + q * chi(ctx, n - 1)
    got = convolve_radial(chi(ctx, 1), chi(ctx, n))
    assert _typed(got) == _typed(want)


def test_float_products_pinned():
    # repr values of the Fraction-loop product, to the last place
    ctx = FreeGroupCtx(2)
    q = float(ctx.q)
    geometric = RadialFunction(ctx, tuple(q ** (-0.5 * n) for n in range(7)))
    h = convolve_radial(geometric, chi(ctx, 3))
    assert [repr(c) for c in h.coeffs[:4]] == [
        "6.92820323027551",
        "6.0",
        "4.618802153517006",
        "3.333333333333333",
    ]
    u = RadialFunction(ctx, (1, 0.5))
    assert _typed(convolve_radial(u, u)) == [(float, "2.0"), (float, "1.0"), (float, "0.25")]


def test_linearity_and_scalar_action():
    ctx = FreeGroupCtx(2)
    f = RadialFunction(ctx, (Fraction(1), Fraction(0), Fraction(2)))
    g = RadialFunction(ctx, (Fraction(0), Fraction(3)))
    h = chi(ctx, 1)
    lhs = convolve_radial(f + g, h)
    rhs = convolve_radial(f, h) + convolve_radial(g, h)
    assert lhs == rhs
    assert 2 * f == RadialFunction(ctx, (Fraction(2), Fraction(0), Fraction(4)))


def test_exactness_tracking():
    ctx = FreeGroupCtx(2)
    f = RadialFunction(ctx, (Fraction(1, 3), Fraction(2)))
    assert f.is_exact()
    assert convolve_radial(f, f).is_exact()
    g = RadialFunction(ctx, (0.5, 1.0))
    assert not g.is_exact()
    assert not (f + g).is_exact()


class _Fraction(Fraction):
    pass


_SIGNED = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, -1e-300, math.nan, Fraction(-1, 10**12)]),
    st.floats(allow_infinity=False),
    st.fractions(max_denominator=10**6),
    st.fractions(max_denominator=10**6).map(_Fraction),
    st.integers(-3, 3),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_SIGNED, max_size=6))
@example([_Fraction(-1, 3), 1.0])
@example([Fraction(1, 2), -0.0, 1.0])
def test_is_nonnegative_equals_the_coefficient_test(coeffs):
    f = RadialFunction(FreeGroupCtx(2), tuple(coeffs))
    assert f.is_nonnegative() == all(c >= 0 for c in f.coeffs)


def _fresh_integer_form(f):
    # exactness, D and the scaled items, recomputed from the coefficients
    exact = all(isinstance(c, Fraction) for c in f.coeffs)
    if not exact:
        return False, 1, [(n, c) for n, c in enumerate(f.coeffs) if c]
    D = math.lcm(*(c.denominator for c in f.coeffs))
    return True, D, [(n, int(c * D)) for n, c in enumerate(f.coeffs) if c]


def _cached_integer_form(f):
    D, items = _scaled_items(f)
    assert _denominator(f) == D
    return f.is_exact(), D, [(n, (type(c), repr(c))) for n, c in items]


def _typed_form(form):
    exact, D, items = form
    return exact, D, [(n, (type(c), repr(c))) for n, c in items]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_cached_integer_form_matches_recomputation(data):
    ctx = data.draw(_CTXS)
    coeff = data.draw(st.sampled_from([_EXACT, st.one_of(_EXACT, _FLOAT)]))
    # trailing zeros are drawn on purpose: the constructor trims them
    zeros = data.draw(st.lists(st.sampled_from([0, Fraction(0), 0.0]), max_size=3))
    f = RadialFunction(ctx, tuple(data.draw(st.lists(coeff, max_size=6)) + zeros))
    g = data.draw(_radial(ctx, coeff))
    s = data.draw(st.one_of(_EXACT, st.integers(-5, 5)))
    for h in (f, g, f + g, s * f, convolve_radial(f, g)):
        # twice: the first read fills the cache, the second reads it
        assert _cached_integer_form(h) == _typed_form(_fresh_integer_form(h))
        assert _cached_integer_form(h) == _typed_form(_fresh_integer_form(h))
        twin = RadialFunction(ctx, h.coeffs)
        assert twin == h and hash(twin) == hash(h)


def test_trailing_zeros_trimmed():
    ctx = FreeGroupCtx(2)
    f = RadialFunction(ctx, (Fraction(1), Fraction(0), Fraction(0)))
    assert f.degree == 0
    assert f == chi(ctx, 0)
    z = RadialFunction(ctx, (Fraction(0),))
    assert z.is_zero()
    assert z.degree == -1


def test_a_functional_exact_parts():
    ctx = FreeGroupCtx(2)
    q = 3
    # f = chi_1: single term n=m=1, q^{(1+1)/2} (1 + 1) = 2q, all even
    even, odd = a_functional_parts(chi(ctx, 1))
    assert (even, odd) == (Fraction(2 * q), Fraction(0))
    # f = chi_0 + chi_1: cross terms n=0,m=1 carry q^{1/2}
    f = chi(ctx, 0) + chi(ctx, 1)
    even, odd = a_functional_parts(f)
    # pairs (0,0): 1, (1,1): 2q even; (0,1) and (1,0): 1 * sqrt(q) each
    assert even == Fraction(1 + 2 * q)
    assert odd == Fraction(2)
    assert math.isclose(a_functional(f), float(even) + float(odd) * math.sqrt(q))


def _a_parts_by_fraction(f):
    # the plain double sum, one Fraction (or float) per pair
    q = f.ctx.q
    even = odd = Fraction(0)
    for n, fn in f.nonzero_items():
        for m, fm in f.nonzero_items():
            w = abs(fn) * abs(fm) * (1 + min(n, m)) * q ** ((n + m) // 2)
            if (n + m) % 2:
                odd = odd + w
            else:
                even = even + w
    return even, odd


@settings(max_examples=100, deadline=None)
@given(
    k=st.sampled_from([2, 3]),
    coeffs=st.lists(
        st.fractions(min_value=0, max_value=30, max_denominator=10**4), min_size=1, max_size=9
    ),
    exact=st.booleans(),
)
@example(k=2, coeffs=[Fraction(0)], exact=True)
def test_a_functional_parts_equal_the_fraction_double_sum(k, coeffs, exact):
    # exact f: one integer sum over D^2; float f: the same loop on its
    # floats, in the same (n, m) order, so every float is the same
    ctx = FreeGroupCtx(k)
    if not exact:
        coeffs = [float(c) for c in coeffs]
    f = RadialFunction(ctx, tuple(coeffs))
    got = a_functional_parts(f)
    want = _a_parts_by_fraction(f)
    assert got == want
    if exact:
        assert all(type(x) is Fraction for x in got)
    else:
        assert [repr(float(x)) for x in got] == [repr(float(x)) for x in want]
        assert repr(a_functional(f)) == repr(
            float(want[0]) + float(want[1]) * math.sqrt(ctx.q) if want[1] else want[0]
        )


def test_a_functional_uses_positive_exponent():
    # growing supports must blow the functional up, not shrink it
    ctx = FreeGroupCtx(2)
    vals = [a_functional(chi(ctx, n)) for n in range(1, 7)]
    assert vals == sorted(vals)
    assert vals[-1] > 100 * vals[0]
    # single sphere closed form (1 + n) q^n
    assert a_functional(chi(ctx, 4)) == 5 * 3 ** 4


def test_conjecture_functional_s1_convention():
    ctx = FreeGroupCtx(2)
    q = 3
    # s = 1: the min term is 1 on positive pairs, so each factor is 2
    assert math.isclose(conjecture_functional(chi(ctx, 2), 1.0), 2 * q ** 2)
    f = chi(ctx, 2) + chi(ctx, 3)
    want = 2 * sum(q ** ((n + m) / 2.0) for n in (2, 3) for m in (2, 3))
    assert math.isclose(conjecture_functional(f, 1.0), want)
    # chi_0 gives 1 at every s: the min term vanishes with the index
    for s in (1.0, 1.5, 2.0):
        assert conjecture_functional(chi(ctx, 0), s) == 1.0
    # s = 2 on a single sphere: (1 + sqrt(n)) q^n
    for n in (1, 3, 4):
        want = (1 + math.sqrt(n)) * q ** n
        assert math.isclose(conjecture_functional(chi(ctx, n), 2.0), want)
        assert a_functional(chi(ctx, n)) == (1 + n) * q ** n


def test_conjecture_functional_sign_flip():
    ctx = FreeGroupCtx(2)
    f = chi(ctx, 1) + chi(ctx, 4)
    up = conjecture_functional(f, 1.5, exponent_sign=1)
    down = conjecture_functional(f, 1.5, exponent_sign=-1)
    assert up > down
    with pytest.raises(ValueError):
        conjecture_functional(f, 1.5, exponent_sign=0)
    with pytest.raises(ValueError):
        conjecture_functional(f, 0.5)
    with pytest.raises(ValueError):
        conjecture_functional(-1 * f, 1.5)


def test_radial_literal_round_trip():
    ctx = FreeGroupCtx(2)
    f = RadialFunction(ctx, (Fraction(1, 2), Fraction(0), Fraction(3)))
    assert parse_radial_literal(ctx, format_radial_literal(f)) == f
    g = parse_radial_literal(ctx, "0,0,1")
    assert g == chi(ctx, 2)
    assert format_radial_literal(g) == "0,0,1"
    # decimal literals land on exact rationals, fraction syntax too
    h = parse_radial_literal(ctx, "0.25,3/2")
    assert h.is_exact()
    assert h.coefficient(0) == Fraction(1, 4)
    assert h.coefficient(1) == Fraction(3, 2)
    assert parse_radial_literal(ctx, format_radial_literal(h)) == h
