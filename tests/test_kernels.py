"""Integer-packed kernel layer.

Core claims:
    - key encode/decode round trips and preserves lexicographic sphere order
    - the sphere rule lists every reduced word once, in lex order, for
      2k in {4, 6, 8}, and yields a^n first without building S_n
    - inv/len on keys agree with the ReducedWord layer
    - prod_len_hist matches a brute-force double loop over ReducedWord mul
    - extending S_n's keys one letter of x at a time (extend_image) gives
      x's image under S_n, list for list, as the oracle's sphere_image
      reduces each w*x on its own, for 2k in {4, 6, 8}, including the
      step from the identity, which a letter must not cancel
    - counting the images (count_images) matches brute force and
      conserves total mass (the weak estimator sums its squares off these
      counts), and inserts the keys in the order of the w-major pair
      loop, for every key list, whether the images come from the
      recurrence or from the oracle
    - distance_profiles of E^-1 gives, on its closure's nodes y, the
      count of x in E with |z x^-1| = j for z = y^-1, and every other z
      of the ball, at distance t from its nearest node y, reads y's
      profile t lanes on; the b(y) q^(t-1) such z are counted exactly,
      for k in {2, 3, 4}, E in B_3, z in B_{3+n}, the identity alone and
      closures that are a single path included, all against ReducedWord
      products with no kernel code
"""

import functools
import itertools
import random
from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fgw import _kernels
from fgw._kernels import decode_word, encode_word
from fgw.oracle import sphere_image
from fgw.words import (
    FreeGroupCtx,
    ReducedWord,
    ball_stream,
    inverse,
    mul,
    normalize,
    sphere_stream,
)


def _word(ctx, key):
    return ReducedWord(ctx, decode_word(ctx.alphabet, key))


def _keys(ctx, words):
    return [encode_word(ctx.alphabet, w.letters) for w in words]


def _image(tk, n, kx):
    # x's image under S_n by the recurrence: S_n, extended letter by letter
    image = _kernels.sphere_keys(tk, n)
    for a in decode_word(tk, kx):
        image = _kernels.extend_image(tk, image, a)
    return image


def _sample_keys(ctx, rng, count, max_len):
    out = []
    for _ in range(count):
        w = normalize(ctx, [rng.randrange(ctx.alphabet) for _ in range(rng.randrange(max_len + 1))])
        out.append(encode_word(ctx.alphabet, w.letters))
    return out


def test_encode_decode_round_trip():
    ctx = FreeGroupCtx(3)
    rng = random.Random(2)
    for key in _sample_keys(ctx, rng, 200, 12):
        assert encode_word(ctx.alphabet, decode_word(ctx.alphabet, key)) == key
    assert encode_word(ctx.alphabet, ()) == 1
    assert decode_word(ctx.alphabet, 1) == ()


def test_key_ops_match_word_layer():
    ctx = FreeGroupCtx(2)
    tk = ctx.alphabet
    rng = random.Random(3)
    keys = _sample_keys(ctx, rng, 80, 10)
    for ka in keys:
        wa = _word(ctx, ka)
        assert _kernels.len_key(tk, ka) == len(wa)
        assert _word(ctx, _kernels.inv_key(tk, ka)) == inverse(wa)


def test_sphere_keys_match_stream():
    for k in (2, 3, 4):
        ctx = FreeGroupCtx(k)
        for n in range(0, 7):
            want = _keys(ctx, sphere_stream(ctx, n))
            assert _kernels.sphere_keys(ctx.alphabet, n) == want
            # every letter string, keep the reduced ones, in lex order
            brute = [
                encode_word(ctx.alphabet, letters)
                for letters in itertools.product(range(ctx.alphabet), repeat=n)
                if all(a != b ^ 1 for a, b in zip(letters, letters[1:]))
            ]
            assert want == brute


def test_sphere_keys_are_lazy():
    # S_200 of F_2 has 4 * 3^199 words; the first is a^200
    assert next(_kernels.iter_sphere_keys(4, 200)) == 4**200


def test_prod_len_hist_matches_brute_force():
    ctx = FreeGroupCtx(2)
    tk = ctx.alphabet
    rng = random.Random(9)
    A = _sample_keys(ctx, rng, 18, 6)
    B = _sample_keys(ctx, rng, 14, 6)
    counts = Counter(len(mul(_word(ctx, a), _word(ctx, b))) for a in A for b in B)
    hist = _kernels.prod_len_hist(tk, A, B)
    assert sum(hist) == len(A) * len(B)
    for l, c in enumerate(hist):
        assert counts.get(l, 0) == c
    assert _kernels.prod_len_hist(tk, [], B) == []
    assert _kernels.prod_len_hist(tk, A, []) == []


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from((2, 3, 4)),
    st.integers(0, 5),
    st.lists(st.integers(0, 7), max_size=6),
)
# w = c^-1 in S_1 takes x' = c to the identity, which the letter a (key
# 0) extends to a (key 4): a letter never cancels the identity
@example(2, 1, [2, 0])
@example(4, 5, [7, 5, 3, 1, 6, 4])
def test_extend_image_matches_oracle_sphere_image(k, n, letters):
    ctx = FreeGroupCtx(k)
    tk = ctx.alphabet
    kx = encode_word(tk, normalize(ctx, [c % tk for c in letters]).letters)
    assert _image(tk, n, kx) == sphere_image(tk, _kernels.sphere_keys(tk, n), kx)


def test_convolve_sphere_set_matches_brute_force():
    ctx = FreeGroupCtx(2)
    tk = ctx.alphabet
    rng = random.Random(1)
    xs = _sample_keys(ctx, rng, 12, 4)
    for n in (0, 1, 3):
        want = Counter()
        for w in sphere_stream(ctx, n):
            for kx in xs:
                want[encode_word(tk, mul(w, _word(ctx, kx)).letters)] += 1
        got = _kernels.count_images([_image(tk, n, kx) for kx in xs])
        assert got == dict(want)
        assert sum(got.values()) == len(xs) * len(list(sphere_stream(ctx, n)))



@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from((2, 3)),
    st.integers(0, 4),
    st.lists(st.lists(st.integers(0, 5), max_size=5), max_size=8),
)
@example(2, 0, [[0, 2], [], [1]])
@example(3, 2, [])
@example(3, 3, [[], [4, 5], [2, 0, 1]])
def test_count_images_inserts_keys_in_pair_loop_order(k, n, letter_lists):
    # the weak estimator sums a float f's squares in the dict's order, so
    # counting the images must insert keys as the w-major pair loop does;
    # [4, 5] reduces to the identity word, which the lists may hold twice
    ctx = FreeGroupCtx(k)
    tk = ctx.alphabet
    xs = [encode_word(tk, normalize(ctx, [c % tk for c in ls]).letters) for ls in letter_lists]
    want = {}
    for w in sphere_stream(ctx, n):
        for kx in xs:
            z = encode_word(tk, mul(w, _word(ctx, kx)).letters)
            want[z] = want.get(z, 0) + 1
    wkeys = _kernels.sphere_keys(tk, n)
    for images in (
        [_image(tk, n, kx) for kx in xs],
        [sphere_image(tk, wkeys, kx) for kx in xs],
    ):
        got = _kernels.count_images(images)
        assert list(got.items()) == list(want.items())


@functools.lru_cache(maxsize=None)
def _ball_words(k, radius):
    return tuple(ball_stream(FreeGroupCtx(k), radius))


def _fold_key(tk, letters):
    # the kernels' key of a letter tuple, folded here so the brute force
    # below runs no kernel code
    key = 1
    for c in letters:
        key = key * tk + c
    return key


@st.composite
def _profile_cases(draw):
    k = draw(st.sampled_from((2, 3, 4)))
    ctx = FreeGroupCtx(k)
    # B_{3+n} holds 3,201 words at k = 4 and n = 1
    n = draw(st.integers(0, 3 if k == 2 else 1))
    words = draw(st.lists(st.sampled_from(_ball_words(k, 3)), min_size=1, max_size=6, unique=True))
    return ctx, n, words


@settings(max_examples=40, deadline=None)
@given(_profile_cases())
@example((FreeGroupCtx(2), 3, [ReducedWord(FreeGroupCtx(2), ())]))
# E = {BA, ABA}, so E^-1 = {ab, aba}: the closure e, a, ab, aba is one path
@example((FreeGroupCtx(3), 1, [ReducedWord(FreeGroupCtx(3), w) for w in ((3, 1), (1, 3, 1))]))
# E = {DCD}: a single word of F_4, one path of depth 3
@example((FreeGroupCtx(4), 1, [ReducedWord(FreeGroupCtx(4), (7, 5, 7))]))
def test_distance_profiles_match_brute_force(case):
    ctx, n, E = case
    tk, q = ctx.alphabet, ctx.q
    inv = [inverse(x) for x in E]
    got = _kernels.distance_profiles(tk, [_fold_key(tk, u.letters) for u in inv])
    depths = {_fold_key(tk, u.letters[:i]): i for u in inv for i in range(len(u) + 1)}
    assert set(got) == set(depths)
    outside = Counter()
    for z in _ball_words(ctx.k, 3 + n):
        want = [0] * (3 + n + 4)
        for x in E:
            want[len(mul(z, inverse(x)))] += 1
        while want[-1] == 0:
            want.pop()
        # z^-1's longest prefix in the closure is z's nearest node y
        y = inverse(z).letters
        t = 0
        while _fold_key(tk, y) not in depths:
            y, t = y[:-1], t + 1
        lanes, b = got[_fold_key(tk, y)]
        assert [0] * t + lanes == want, (z, y)
        if t:
            outside[_fold_key(tk, y), t] += 1
    for key, (_, b) in got.items():
        for t in range(1, 3 + n - depths[key] + 1):
            assert outside[key, t] == b * q ** (t - 1), (key, t)


def test_distance_profiles_of_no_keys():
    assert _kernels.distance_profiles(4, []) == {}
