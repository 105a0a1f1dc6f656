"""Word arithmetic and sphere enumeration.

Core claims:
    - normalize cancels adjacent inverse pairs down to the unique reduced form
    - mul/inverse satisfy the group laws and the length parity constraint
    - sphere_size matches the closed form and the enumerated count
    - sphere_stream emits reduced words in lexicographic order, no repeats,
      lazily
    - ball_stream concatenates spheres by radius
    - string round trip is the identity on reduced words
    - enumeration refuses spheres beyond the cap
"""

import itertools
import random

import pytest

from fgw.errors import BudgetExceededError
from fgw.words import (
    FreeGroupCtx,
    ball_size,
    ball_stream,
    identity,
    inverse,
    inverse_letter,
    mul,
    normalize,
    sphere_size,
    sphere_stream,
    word_from_str,
    word_to_str,
)


def _random_word(ctx, rng, max_len):
    return normalize(ctx, [rng.randrange(ctx.alphabet) for _ in range(rng.randrange(max_len + 1))])


def _brute_sphere(ctx, n):
    # every letter string, keep the reduced ones
    out = []
    for seq in itertools.product(range(ctx.alphabet), repeat=n):
        if all(seq[i + 1] != inverse_letter(seq[i]) for i in range(n - 1)):
            out.append(seq)
    return out


def test_normalize_cancels_inverse_pairs():
    ctx = FreeGroupCtx(2)
    # a b b^-1 a = a a
    assert normalize(ctx, [0, 2, 3, 0]).letters == (0, 0)
    # full collapse to the identity
    assert normalize(ctx, [0, 2, 3, 1]).letters == ()
    # nested cancellation a (b a^-1 a b^-1) = a
    assert normalize(ctx, [0, 2, 1, 0, 3]).letters == (0,)


def test_group_laws_random():
    rng = random.Random(11)
    for k in (2, 3, 4):
        ctx = FreeGroupCtx(k)
        e = identity(ctx)
        for _ in range(200):
            x = _random_word(ctx, rng, 8)
            y = _random_word(ctx, rng, 8)
            z = _random_word(ctx, rng, 8)
            assert mul(mul(x, y), z) == mul(x, mul(y, z))
            assert mul(x, inverse(x)) == e
            assert mul(inverse(x), x) == e
            assert mul(x, e) == x and mul(e, x) == x
            xy = mul(x, y)
            assert (len(xy) - len(x) - len(y)) % 2 == 0
            assert abs(len(x) - len(y)) <= len(xy) <= len(x) + len(y)
            assert inverse(xy) == mul(inverse(y), inverse(x))


def test_sphere_size_closed_form():
    for k in (2, 3, 4):
        ctx = FreeGroupCtx(k)
        q = 2 * k - 1
        assert sphere_size(ctx, 0) == 1
        for n in range(1, 9):
            assert sphere_size(ctx, n) == (q + 1) * q ** (n - 1)
        assert ball_size(ctx, 4) == sum(sphere_size(ctx, n) for n in range(5))


def test_sphere_size_k2_known_values():
    ctx = FreeGroupCtx(2)
    assert [sphere_size(ctx, n) for n in range(8)] == [1, 4, 12, 36, 108, 324, 972, 2916]
    assert ball_size(ctx, 8) == 13121
    assert ball_size(ctx, 4) == 161
    assert ball_size(ctx, 1) == 5


def test_sphere_stream_matches_brute_force():
    for k in (2, 3):
        ctx = FreeGroupCtx(k)
        for n in range(0, 5):
            got = [w.letters for w in sphere_stream(ctx, n)]
            assert got == sorted(_brute_sphere(ctx, n))
            assert len(got) == sphere_size(ctx, n)
            assert len(set(got)) == len(got)


def test_sphere_stream_lexicographic():
    ctx = FreeGroupCtx(3)
    seq = [w.letters for w in sphere_stream(ctx, 4)]
    assert seq == sorted(seq)


def test_ball_stream_is_spheres_in_order():
    ctx = FreeGroupCtx(2)
    want = []
    for n in range(4):
        want.extend(w.letters for w in sphere_stream(ctx, n))
    assert [w.letters for w in ball_stream(ctx, 3)] == want


def test_word_str_round_trip():
    ctx = FreeGroupCtx(3)
    rng = random.Random(4)
    assert word_to_str(identity(ctx)) == ""
    assert word_from_str(ctx, "") == identity(ctx)
    for _ in range(100):
        w = _random_word(ctx, rng, 10)
        assert word_from_str(ctx, word_to_str(w)) == w
    # explicit sample: a B means letters 0 and 3
    w = word_from_str(ctx, "aB")
    assert w.letters == (0, 3)
    assert word_to_str(w) == "aB"


def test_word_from_str_rejects_unknown_letters():
    ctx = FreeGroupCtx(2)
    with pytest.raises(ValueError):
        word_from_str(ctx, "c")


def test_sphere_stream_is_lazy():
    # S_14 holds 6.4 million words; only a lazy stream yields the first cheaply
    assert word_to_str(next(sphere_stream(FreeGroupCtx(2), 14))) == "a" * 14


def test_sphere_cap_enforced():
    ctx = FreeGroupCtx(2)
    with pytest.raises(BudgetExceededError):
        next(sphere_stream(ctx, 16))
