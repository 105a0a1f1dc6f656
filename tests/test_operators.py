"""Estimators, family sweeps and column sups, against the fgw.oracle ground truth.

Core claims:
    - oracle: pairing matches the brute-force double sum on spheres, balls
      and random word sets, and is symmetric in (E, F) because radial
      convolution is self-adjoint
    - chi_pairing_profile packs every sphere pairing of explicit sets into
      one pass
    - oracle: left_convolve agrees with the pointwise convolution sum and
      conserves mass
    - oracle: best_F_ratio equals the exhaustive prefix search and
      dominates subsets, and refuses p = inf
    - _best_prefix, which scores run ends only, equals the search over
      every prefix in its own arithmetic, value and j bit for bit, on
      integer and float runs of up to a million terms each
    - the sphere-union fast path reproduces the per-set oracle estimates
      on every union of spheres in B_3, for a fixed random f
    - radial families agree, in both estimators, lemma1 and r22, with the
      same candidates built as explicit word sets
    - the integer sweep reproduces per-set Fraction sums float for float
      on spheres, balls and sphere unions, for exact and float f, under
      any budget, first maximum winning ties
    - the branch and bound over sphere unions finds the full sweep's best
      value, label and j, for exact and float f, under any budget; it
      searches only the radii a mask <= budget can hold, and at thm3's
      default scale scores about a tenth of the masks
    - radial families convolve once per sphere, never once per candidate,
      in both estimators, lemma1 and r22
    - radial families stop at the highest sphere a candidate within the
      budget holds: radius 1500 builds the columns of that radius and
      writes its reports, in both estimators, lemma1 and r22
    - one sweep folds every function of a call as one sweep per function
      does, bit for bit, and an empty index range (k_max or n_max = -1)
      still yields one empty row per candidate, radial or explicit
    - estimates grow with the candidate budget under a fixed seed
    - the ball-subsets family enumerates every subset and stays within budget
    - the explicit families' integer estimates equal the exact reference
      of left_convolve exactly, for k in {2, 3}, on random-subsets,
      greedy and ball-subsets, and float f keeps its estimates to the
      last place
    - the restricted estimator on explicit sets equals a word-level
      oracle (left_convolve, the Counter of its values, runs and
      _best_prefix) bit for bit in (estimate, E, j), for exact and float
      f, k in {2, 3}, on random-subsets, greedy and ball-subsets; it
      reads the distance profiles of E^-1 and builds no sphere image,
      nor does the weak estimator of an exact f, while that of a float f
      does
    - the weak estimator of a float f builds each word's sphere image
      once per call, from its parent's: the memo stores at most
      PAIR_BUDGET keys, prefix images included, beside S_n as the
      identity's image (key 1), which takes no room, and, once full,
      changes no estimate
    - the weak estimators' root keeps the float expression wherever it
      does not overflow, is within 1 ulp of an integer isqrt reference
      where it does, and a root past float range is a ValueError
    - r22 and lemma1 read explicit sets off the distance profiles of
      E^-1: r22's rows equal the word-by-word reference in (E, n) order,
      lemma1's equal chi_pairing_profile's, each family is swept once,
      and neither builds a sphere-image memo or calls
      chi_pairing_profile
    - explicit sets store sorted integer keys, which is the (length, lex)
      order of their words, and refuse words of another group; the
      explicit families build no ReducedWord
    - an ElementSet is explicit only: radial families are masks and build
      no ElementSet
    - oracle: truncated columns contain exactly the words passing the
      length test
    - column_l1_sup returns the brute-force sup with an attaining witness,
      for P and for Q on and off the half grid
    - the column cutoff is the last length the oracle's pointwise rule
      accepts, and the accepted lengths form an initial segment
    - q_alpha_sweep equals per-alpha column scans
    - on the half grid, n <= 16 and k in {2, 3}, the Q bound fails exactly
      where alpha < 0 and the whole sphere's mass exceeds it
    - the closed-form column mass equals the prefix sum of the enumerated
      length histogram at every cutoff
    - column sups run far past any enumerable ball, P_k reaching q^[k/2]
    - the full-cancellation witness breaks the Q bound at alpha = n >= 4
    - budgets abort oversized enumerations
    - an explicit family's pairs, summed over its candidates, are refused
      past FAMILY_PAIR_BUDGET and accepted at it: exactly for ball-subsets,
      and as budget draws of the whole ball for random-subsets, in both
      estimators, lemma1 and r22
"""

import dataclasses
import itertools
import math
import operator
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fgw.operators as ops
import fgw.radial as radial
from fgw import _kernels
from fgw.errors import BudgetExceededError
from fgw.lorentz import rearrange
from fgw.operators import (
    RADIAL_KINDS,
    ElementSet,
    SetFamily,
    candidate_sets,
    chi_pairing_profile,
    column_l1_sup,
    explicit_set,
    q_alpha_sweep,
    restricted_weak_estimate,
    weak_estimate_21_to_2,
)
from fgw.oracle import (
    FunctionOnGroup,
    best_F_ratio,
    column_accepts,
    column_row,
    left_convolve,
    pairing,
    radial_candidates,
    truncated_column,
)
from fgw.radial import RadialFunction, chi, convolve_radial
from fgw.reportio import json_dumps
from fgw.theorems import sample_radial, thm3_equivalence_report, verify_lemma1, verify_r22
from fgw.words import (
    FreeGroupCtx,
    ReducedWord,
    ball_stream,
    identity,
    inverse,
    mul,
    normalize,
    sphere_size,
    sphere_stream,
    word_from_str,
)

CTX = FreeGroupCtx(2)


def _rand_words(rng, count, max_len=3):
    out = set()
    while len(out) < count:
        out.add(normalize(CTX, [rng.randrange(4) for _ in range(rng.randrange(max_len + 1))]))
    return sorted(out, key=lambda w: w.sort_key())


def _rand_radial(rng, deg=3):
    coeffs = [Fraction(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(deg + 1)]
    coeffs[rng.randrange(deg + 1)] += 1
    return RadialFunction(CTX, tuple(coeffs))


def _brute_pairing(f, E_words, F_words):
    # <f * chi_E, chi_F> = sum_{x in F} sum_{y in E} f(|x y^{-1}|)
    total = Fraction(0)
    for x in F_words:
        for y in E_words:
            total += f.coefficient(len(mul(x, inverse(y))))
    return total


def _as_setlist(E):
    return list(E.iter_words())


# -- Pairings ----------------------------------------------------------------


def test_pairing_matches_brute_force_all_dispatches():
    rng = random.Random(31)
    f = _rand_radial(rng)
    sets = [
        explicit_set(CTX, sphere_stream(CTX, 2), "S2"),
        explicit_set(CTX, ball_stream(CTX, 2), "B2"),
        explicit_set(CTX, _rand_words(rng, 9)),
        explicit_set(CTX, _rand_words(rng, 14)),
    ]
    for E in sets:
        for F in sets:
            want = _brute_pairing(f, _as_setlist(E), _as_setlist(F))
            assert pairing(f, E, F) == want, (E.label, F.label)


def test_pairing_symmetric_in_sets():
    rng = random.Random(7)
    f = _rand_radial(rng)
    E = explicit_set(CTX, _rand_words(rng, 8))
    F = explicit_set(CTX, sphere_stream(CTX, 3), "S3")
    assert pairing(f, E, F) == pairing(f, F, E)


def test_pairing_requires_exact_coefficients():
    E = explicit_set(CTX, sphere_stream(CTX, 1), "S1")
    with pytest.raises(ValueError):
        pairing(RadialFunction(CTX, (0.5, 1.0)), E, E)


def test_chi_pairing_profile_matches_pairing():
    rng = random.Random(3)
    sets = [explicit_set(CTX, sphere_stream(CTX, 2)), explicit_set(CTX, _rand_words(rng, 10))]
    for E in sets:
        for F in sets:
            prof = chi_pairing_profile(E, F)
            assert sum(prof) == Fraction(E.size * F.size)
            for l in range(len(prof) + 2):
                want = _brute_pairing(chi(CTX, l), _as_setlist(E), _as_setlist(F))
                got = prof[l] if l < len(prof) else Fraction(0)
                assert got == want


# -- Convolution on the group ------------------------------------------------


def test_left_convolve_matches_pointwise_sum():
    rng = random.Random(19)
    f = _rand_radial(rng, deg=2)
    g = FunctionOnGroup(
        CTX, {w: Fraction(rng.randint(1, 5), rng.randint(1, 2)) for w in _rand_words(rng, 7)}
    )
    h = left_convolve(f, g)
    # oracle: (f*g)(z) = sum_y f(|z y^{-1}|) g(y), summed over supp(g)
    for z in list(h.entries) + _rand_words(rng, 5, max_len=5):
        want = sum(
            (f.coefficient(len(mul(z, inverse(y)))) * v for y, v in g.entries.items()),
            Fraction(0),
        )
        assert h.value(z) == want
    # mass conservation
    total_f = sum(c * sphere_size(CTX, n) for n, c in f.nonzero_items())
    assert sum(h.entries.values()) == total_f * sum(g.entries.values())


def test_left_convolve_linear_in_g():
    rng = random.Random(23)
    f = _rand_radial(rng, deg=2)
    words = _rand_words(rng, 6)
    g1 = FunctionOnGroup(CTX, {w: Fraction(1, 2) for w in words[:4]})
    g2 = FunctionOnGroup(CTX, {w: Fraction(2) for w in words[2:]})
    both = FunctionOnGroup(
        CTX, {w: g1.value(w) + g2.value(w) for w in set(g1.entries) | set(g2.entries)}
    )
    h = left_convolve(f, both)
    h1, h2 = left_convolve(f, g1), left_convolve(f, g2)
    for z in h.entries:
        assert h.value(z) == h1.value(z) + h2.value(z)


def test_function_on_group_basics():
    w = word_from_str(CTX, "ab")
    g = FunctionOnGroup(CTX, {w: Fraction(3), identity(CTX): Fraction(0)})
    assert g.support_size == 1
    assert g.l1_mass() == 3
    assert g.l2_norm_squared() == 9


# -- Element sets and families -----------------------------------------------


@settings(max_examples=200, deadline=None)
@given(k=st.sampled_from([2, 3]), data=st.data())
def test_sorted_keys_are_length_lex_order(k, data):
    ctx = FreeGroupCtx(k)
    letters = st.lists(st.integers(0, ctx.alphabet - 1), max_size=6)
    words = [normalize(ctx, seq) for seq in data.draw(st.lists(letters, max_size=30))]
    tk = ctx.alphabet
    want = [_kernels.encode_word(tk, w.letters) for w in sorted(words, key=ReducedWord.sort_key)]
    assert sorted(_kernels.encode_word(tk, w.letters) for w in words) == want
    E = explicit_set(ctx, words)
    assert list(E.word_keys) == sorted(set(want))
    assert list(E.iter_words()) == sorted(set(words), key=ReducedWord.sort_key)


def test_explicit_set_rejects_foreign_group_words():
    ctx3 = FreeGroupCtx(3)
    foreign = [word_from_str(ctx3, "c"), word_from_str(ctx3, "C")]
    with pytest.raises(ValueError):
        explicit_set(CTX, foreign)
    with pytest.raises(ValueError):
        explicit_set(CTX, [word_from_str(CTX, "a"), word_from_str(ctx3, "a")])


def test_explicit_families_build_no_words(monkeypatch):
    f = RadialFunction(CTX, (Fraction(1), Fraction(1, 2)))

    def word_built(self):
        raise AssertionError("a ReducedWord was built on an explicit-set path")

    monkeypatch.setattr(ReducedWord, "__post_init__", word_built)
    families = [
        SetFamily("ball-subsets", radius=1),
        SetFamily("random-subsets", radius=2, budget=4, seed=1),
        SetFamily("greedy", radius=1, budget=2),
    ]
    for fam in families:
        restricted_weak_estimate(f, fam)
        weak_estimate_21_to_2(f, fam)
    verify_lemma1(CTX, families[1], 3)
    verify_r22(CTX, families[1], 3)


def test_element_set_labels_and_dedupe():
    w = word_from_str(CTX, "a")
    E = explicit_set(CTX, [w, w])
    assert E.size == 1
    assert E.label == "set(1 words)"


def test_element_set_has_one_representation():
    # unions of spheres live only as sweep masks
    assert [fld.name for fld in dataclasses.fields(ElementSet)] == ["ctx", "word_keys", "label"]
    for kind in RADIAL_KINDS:
        with pytest.raises(ValueError, match="radial"):
            list(candidate_sets(CTX, SetFamily(kind, radius=2)))


def test_candidate_sets_per_kind():
    rand1 = list(candidate_sets(CTX, SetFamily("random-subsets", radius=2, budget=20, seed=9)))
    rand2 = list(candidate_sets(CTX, SetFamily("random-subsets", radius=2, budget=20, seed=9)))
    assert len(rand1) == 20
    assert [list(E.iter_words()) for E in rand1] == [list(E.iter_words()) for E in rand2]
    ball2 = set(ball_stream(CTX, 2))
    assert all(set(E.iter_words()) <= ball2 for E in rand1)
    with pytest.raises(ValueError):
        list(candidate_sets(CTX, SetFamily("greedy", radius=2)))
    with pytest.raises(ValueError):
        SetFamily("triangles", radius=2)


def test_ball_subsets_family_is_exhaustive():
    subsets = list(candidate_sets(CTX, SetFamily("ball-subsets", radius=1)))
    assert len(subsets) == 32
    ball1 = list(ball_stream(CTX, 1))
    seen = {frozenset(E.iter_words()) for E in subsets}
    expected = set()
    for mask in range(32):
        expected.add(frozenset(w for i, w in enumerate(ball1) if mask >> i & 1))
    assert seen == expected
    assert frozenset() in seen

    # Enumerating 2^|B_2| subsets would blow the budget; the need is
    # stated as a power of two, and a budget of exactly 2^|B_1| suffices.
    with pytest.raises(BudgetExceededError, match="needs 2\\^17, cap is 1000$"):
        list(candidate_sets(CTX, SetFamily("ball-subsets", radius=2)))
    with pytest.raises(BudgetExceededError, match="needs 2\\^5, cap is 31$"):
        list(candidate_sets(CTX, SetFamily("ball-subsets", radius=1, budget=31)))
    assert len(list(candidate_sets(CTX, SetFamily("ball-subsets", radius=1, budget=32)))) == 32


def test_ball_subsets_estimator_skips_empty_set():
    est = restricted_weak_estimate(chi(CTX, 1), SetFamily("ball-subsets", radius=1))
    direct = []
    for E in candidate_sets(CTX, SetFamily("ball-subsets", radius=1)):
        if E.size == 0:
            continue
        g = left_convolve(chi(CTX, 1), FunctionOnGroup(CTX, {w: Fraction(1) for w in E.iter_words()}))
        value, _ = best_F_ratio(g, 2.0)
        direct.append(value / math.sqrt(E.size))
    assert math.isclose(est["estimate"], max(direct), rel_tol=1e-12)


# -- Extremal search ---------------------------------------------------------


def test_best_F_ratio_exhaustive_prefixes():
    rng = random.Random(41)
    for _ in range(60):
        vals = [Fraction(rng.randint(1, 30), rng.randint(1, 6)) for _ in range(rng.randint(1, 12))]
        g = {i: v for i, v in enumerate(vals)}
        for p in (1.5, 2.0, 3.0):
            got, got_j = best_F_ratio(g, p)
            e = 1.0 - 1.0 / p
            srt = sorted(vals, reverse=True)
            pref = Fraction(0)
            best = 0.0
            for j, v in enumerate(srt, start=1):
                pref += v
                best = max(best, float(pref) / j ** e)
            assert math.isclose(got, best, rel_tol=1e-12)
            # the reported prefix attains the reported value
            attained = float(sum(srt[:got_j])) / got_j ** e
            assert math.isclose(got, attained, rel_tol=1e-12)


def test_best_F_ratio_dominates_arbitrary_subsets():
    rng = random.Random(43)
    vals = [Fraction(rng.randint(1, 20)) for _ in range(10)]
    g = {i: v for i, v in enumerate(vals)}
    best, _ = best_F_ratio(g, 2.0)
    for _ in range(300):
        pick = [v for v in vals if rng.random() < 0.5] or [max(vals)]
        cand = float(sum(pick)) / math.sqrt(len(pick))
        assert cand <= best * (1 + 1e-12)


def test_best_F_ratio_accepts_radial_and_rearrangement():
    f = chi(CTX, 1) + 2 * chi(CTX, 0)
    v1, j1 = best_F_ratio(f, 2.0)
    v2, j2 = best_F_ratio(rearrange({0: 2, 1: 1, 2: 1, 3: 1, 4: 1}), 2.0)
    assert (v1, j1) == (v2, j2)
    with pytest.raises(ValueError):
        best_F_ratio(f, 1.0)


def test_best_F_ratio_refuses_an_infinite_index():
    # at p = inf the top run's prefixes all tie, and the first of them is no run end
    with pytest.raises(ValueError, match="finite"):
        best_F_ratio(chi(CTX, 1), math.inf)


def _every_prefix(runs_, e, D):
    """The first best j over every prefix, in _best_prefix's arithmetic.

    Prefix j = c + i inside a run (v, m) after c terms of sum P scores
    (P + v i) / D / float(j) ** e; the loops run in C (map), so runs of
    a million terms stay cheap, and the first maximum wins, as with a
    strict > in j order.
    """
    repeat = itertools.repeat
    best, best_j = 0.0, 0
    prefix = c = 0
    for v, m in runs_:
        sums = map(operator.add, repeat(prefix), map(operator.mul, repeat(v), range(1, m + 1)))
        roots = map(pow, map(float, range(c + 1, c + m + 1)), repeat(e))
        cands = list(map(operator.truediv, map(operator.truediv, sums, repeat(D)), roots))
        top = max(cands)
        if top > best:
            best, best_j = top, c + 1 + cands.index(top)
        prefix += v * m
        c += m
    return best, best_j


_PREFIX_E = st.sampled_from([1 / 2, 1 / 3, 2 / 3])
_PREFIX_D = st.sampled_from([1, 7, 60])
_MULTS = st.lists(st.integers(1, 10**6), min_size=1, max_size=4)


@st.composite
def _int_runs(draw):
    mults = draw(_MULTS)
    ints = st.integers(1, 10**9)
    values = draw(st.lists(ints, min_size=len(mults), max_size=len(mults), unique=True))
    return list(zip(sorted(values, reverse=True), mults))


@st.composite
def _float_runs(draw):
    mults = draw(_MULTS)
    floats = st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False)
    values = draw(st.lists(floats, min_size=len(mults), max_size=len(mults), unique=True))
    return list(zip(sorted(values, reverse=True), mults))


@settings(max_examples=40, deadline=None)
@given(runs_=st.one_of(_int_runs(), _float_runs()), e=_PREFIX_E, D=_PREFIX_D)
# an exact tie of two run ends, j = 1 and j = 4 at 2.0: the first wins
@example(runs_=[(6, 1), (2, 3)], e=1 / 2, D=3)
def test_best_prefix_equals_every_prefix_bit_for_bit(runs_, e, D):
    # run ends only: a run's first prefix never beats the larger of the
    # previous run's end and its own, and neither does any inner prefix
    assert ops._best_prefix(runs_, e, D) == _every_prefix(runs_, e, D)


# -- Estimators --------------------------------------------------------------


def _reference_union_rows(f, fam):
    # the sweep without integer scaling: over the candidates' radii,
    # Fraction sums of the columns f * chi_r in ascending r, then best_F_ratio
    cols = [convolve_radial(f, chi(CTX, r)).coeffs for r in range(fam.radius + 1)]
    top = max(len(c) for c in cols)
    restricted = []
    weak = []
    for radii, label in radial_candidates(fam):
        coeffs = [
            sum((cols[r][i] for r in radii if i < len(cols[r])), Fraction(0))
            for i in range(top)
        ]
        h = RadialFunction(CTX, tuple(coeffs))
        size = sum(sphere_size(CTX, r) for r in radii)
        value, j = best_F_ratio(h, 2.0)
        restricted.append((value / math.sqrt(size), label, j))
        sq = sum((c * c * sphere_size(CTX, n) for n, c in h.nonzero_items()), Fraction(0))
        weak.append((math.sqrt(float(sq) / size), label))
    return restricted, weak


def _reference_union_reports(f, fam):
    restricted, weak = _reference_union_rows(f, fam)
    tail = {"family": fam.kind, "radius": fam.radius, "seed": fam.seed, "budget": fam.budget}
    # max keeps the first of equal maxima, as the estimators do
    value, label, j = max(restricted, key=lambda row: row[0])
    want_r = {"estimate": value, "E": label, "j": j, **tail}
    value, label = max(weak, key=lambda row: row[0])
    want_w = {"estimate": value, "E": label, **tail}
    return want_r, want_w


@st.composite
def _union_cases(draw):
    coeffs = draw(
        st.one_of(
            st.lists(
                st.fractions(min_value=0, max_value=20, max_denominator=10**6),
                min_size=1,
                max_size=4,
            ),
            st.lists(
                st.floats(min_value=0, max_value=1e3, allow_nan=False),
                min_size=1,
                max_size=4,
            ),
        )
    )
    kind = draw(st.sampled_from(["spheres", "balls", "sphere-unions"]))
    radius = draw(st.integers(0, 4))
    return RadialFunction(CTX, tuple(coeffs)), _radial_family(draw, kind, radius)


def _radial_family(draw, kind, radius):
    # budgets on both sides of the candidate count
    count = 2 ** (radius + 1) - 1 if kind == "sphere-unions" else radius + 1
    budget = draw(st.one_of(st.integers(1, count), st.integers(count + 1, count + 40)))
    return SetFamily(kind, radius, budget)


@settings(max_examples=80, deadline=None)
@given(_union_cases())
# coprime denominators push the scaled prefix sums past 2^53, where
# float(s) / D would round twice
@example(
    (
        RadialFunction(CTX, (Fraction(15, 953948), Fraction(9, 691237), Fraction(18, 638525))),
        SetFamily("sphere-unions", 3, 16),
    )
)
def test_sphere_union_sweep_matches_fraction_reference(case):
    f, fam = case
    want_r, want_w = _reference_union_reports(f, fam)
    got_r = restricted_weak_estimate(f, fam)
    got_w = weak_estimate_21_to_2(f, fam)
    # the rendered reports, and the floats behind them exactly
    assert json_dumps(got_r) == json_dumps(want_r)
    assert json_dumps(got_w) == json_dumps(want_w)
    assert got_r == want_r
    assert got_w == want_w


def _counted_spheres(monkeypatch):
    # the list of r over the runs of the product loop against chi_r: one
    # per sweep column
    spheres = []
    real = radial._product_sums

    def counting(q, fs, gs, length):
        spheres.extend(m for m, _ in gs)
        return real(q, fs, gs, length)

    monkeypatch.setattr(radial, "_product_sums", counting)
    return spheres


@pytest.mark.parametrize("kind", ["spheres", "balls", "sphere-unions"])
def test_radial_families_convolve_once_per_sphere(monkeypatch, kind):
    spheres = _counted_spheres(monkeypatch)
    fam = SetFamily(kind, radius=4)
    f = RadialFunction(CTX, (Fraction(1), Fraction(1, 2)))
    restricted_weak_estimate(f, fam)
    weak_estimate_21_to_2(f, fam)
    verify_lemma1(CTX, fam, 3)
    verify_r22(CTX, fam, 2)
    # one column per sphere S_0 .. S_4: two estimators, chi_0..chi_3, chi_0..chi_2
    assert spheres == list(range(5)) * (2 + 4 + 3)


def _at_radius(report, radius):
    # a report with its family radius replaced
    if isinstance(report, dict):
        return {**report, "radius": radius}
    return dataclasses.replace(report, params={**report.params, "radius": radius})


@pytest.mark.parametrize("budget", [3, 4, 10])
@pytest.mark.parametrize("kind", RADIAL_KINDS)
def test_radial_families_stop_at_the_budgets_radius(monkeypatch, kind, budget):
    # no candidate within the budget holds a sphere past _sweep_radius, so
    # radius 1500 builds that radius's columns and writes its reports
    far = SetFamily(kind, 1500, budget)
    top = ops._sweep_radius(far)
    assert top == (budget.bit_length() if kind == "sphere-unions" else budget) - 1
    near = SetFamily(kind, top, budget)
    spheres = _counted_spheres(monkeypatch)
    f = RadialFunction(CTX, (Fraction(1), Fraction(1, 2)))
    calls = [
        lambda fam: restricted_weak_estimate(f, fam),
        lambda fam: weak_estimate_21_to_2(f, fam),
        lambda fam: verify_lemma1(CTX, fam, 3),
        lambda fam: verify_r22(CTX, fam, 2),
    ]
    for call in calls:
        spheres.clear()
        got = call(far)
        built = list(spheres)
        spheres.clear()
        want = call(near)
        assert max(built) == top
        assert built == spheres
        assert got == _at_radius(want, 1500)


_SWEEP_COEFF = st.one_of(
    st.fractions(min_value=0, max_value=20, max_denominator=10**6),
    st.floats(min_value=0, max_value=20, allow_nan=False),
)


def _bits(coeffs):
    # floats by their bits, everything else by type and value
    return [c.hex() if type(c) is float else (type(c), c) for c in coeffs]


@st.composite
def _multi_sweep_cases(draw):
    ctx = FreeGroupCtx(draw(st.sampled_from([2, 3])))
    exact = st.fractions(min_value=-20, max_value=20, max_denominator=1000)
    floats = st.floats(min_value=-20, max_value=20, allow_nan=False)
    coeffs = st.one_of(
        st.lists(exact, min_size=1, max_size=5),
        st.lists(floats, min_size=1, max_size=5),
        st.lists(st.one_of(exact, floats), min_size=1, max_size=5),
    )
    fs = [RadialFunction(ctx, tuple(c)) for c in draw(st.lists(coeffs, max_size=4))]
    fam = _radial_family(draw, draw(st.sampled_from(RADIAL_KINDS)), draw(st.integers(0, 4)))
    return ctx, fs, fam


@settings(max_examples=80, deadline=None)
@given(_multi_sweep_cases())
@example((CTX, [], SetFamily("sphere-unions", 3, 10)))
# 0.1 chi_2: U0,2,4's floats depend on the order its columns are folded in
@example(
    (CTX, [RadialFunction(CTX, (0.0, 0.0, 0.1)), chi(CTX, 1)], SetFamily("sphere-unions", 4, 31))
)
def test_one_sweep_folds_every_function(case):
    # one sweep of fs against one sweep per g, and against each mask's
    # columns folded in ascending radius, value for value
    ctx, fs, fam = case
    radius = ops._sweep_radius(fam)
    cols = [ops._sphere_columns(g, radius) for g in fs]
    rows = list(ops._sphere_union_sweep(ctx, fs, fam))
    singles = [list(ops._sphere_union_sweep(ctx, [g], fam)) for g in fs]
    assert [mask for mask, _, _ in rows] == list(ops._radial_candidates(fam)[0])
    for i, (mask, coeffs, size) in enumerate(rows):
        radii = ops._mask_radii(mask)
        assert size == sum(sphere_size(ctx, r) for r in radii)
        assert len(coeffs) == len(fs)
        for g_coeffs, g_cols, single in zip(coeffs, cols, singles):
            assert single[i][0] == mask and single[i][2] == size
            assert _bits(g_coeffs) == _bits(single[i][1][0])
            want = [0] * len(g_cols[0])
            for r in radii:
                want = [a + b for a, b in zip(want, g_cols[r])]
            assert _bits(g_coeffs) == _bits(want)


@pytest.mark.parametrize(
    "fam",
    [
        SetFamily("spheres", 4),
        SetFamily("balls", 3, budget=2),
        SetFamily("sphere-unions", 3, budget=10),
        SetFamily("ball-subsets", 1, budget=32),
        SetFamily("random-subsets", 2, budget=4, seed=5),
    ],
    ids=lambda fam: fam.kind,
)
def test_empty_index_range_yields_one_empty_row_per_candidate(fam):
    # k_max = n_max = -1 sweeps no function, and every candidate still has
    # its row, radial and explicit families alike
    if fam.kind in RADIAL_KINDS:
        count = len(ops._radial_candidates(fam)[0])
    else:
        count = len(list(candidate_sets(CTX, fam)))
    for rows in (ops.self_pairings, ops.prefix_sups):
        want = [(label, size, []) for label, size, _ in rows(CTX, fam, 0)]
        assert len(want) == count
        assert list(rows(CTX, fam, -1)) == want


@settings(max_examples=80, deadline=None)
@given(
    k=st.sampled_from([2, 3]),
    coeffs=st.lists(_SWEEP_COEFF, min_size=1, max_size=7),
    radius=st.integers(min_value=0, max_value=8),
    exact=st.booleans(),
)
def test_sweep_columns_equal_rescaled_products(k, coeffs, radius, exact):
    # exact f: the columns are D (f * chi_r) as integers; float or mixed
    # f: float() of convolve_radial's coefficients, bit for bit
    ctx = FreeGroupCtx(k)
    if exact:
        coeffs = [Fraction(c) for c in coeffs]
    f = RadialFunction(ctx, tuple(coeffs))
    cols = ops._sphere_columns(f, radius)
    assert len(cols) == radius + 1
    top = f.degree + radius + 1
    D = math.lcm(*(c.denominator for c in f.coeffs)) if f.is_exact() else 1
    for r, col in enumerate(cols):
        h = convolve_radial(f, chi(ctx, r)).coeffs
        if f.is_exact():
            want = [int(c * D) for c in h]
            assert all(type(v) is int for v in col)
        else:
            want = [float(c) for c in h]
            assert all(type(v) is float for v in col)
        want += [0] * (top - len(want))
        assert len(col) == top
        assert [repr(v) for v in col] == [repr(type(v)(w)) for v, w in zip(col, want)]


@st.composite
def _agreement_cases(draw):
    coeff = st.fractions(min_value=0, max_value=20, max_denominator=100)
    coeffs = draw(st.lists(coeff, min_size=1, max_size=3))
    kind = draw(st.sampled_from(RADIAL_KINDS))
    fam = _radial_family(draw, kind, draw(st.integers(0, 2)))
    return RadialFunction(CTX, tuple(coeffs)), fam, draw(st.integers(0, 3))


def test_sphere_union_fast_path_matches_generic():
    # every union of spheres in B_3, for a random exact f of degree 3,
    # against the per-set convolutions of the oracle
    f = _rand_radial(random.Random(47), deg=3)
    fam = SetFamily("sphere-unions", radius=3, budget=16)
    restricted = []
    weak = []
    for radii, label in radial_candidates(fam):
        words = [w for r in radii for w in sphere_stream(CTX, r)]
        h = left_convolve(f, FunctionOnGroup(CTX, dict.fromkeys(words, Fraction(1))))
        value, j = best_F_ratio(h, 2.0)
        restricted.append((value / math.sqrt(len(words)), label, j))
        weak.append((math.sqrt(float(h.l2_norm_squared()) / len(words)), label))
    got = restricted_weak_estimate(f, fam)
    assert (got["estimate"], got["E"], got["j"]) == max(restricted, key=lambda row: row[0])
    got = weak_estimate_21_to_2(f, fam)
    assert (got["estimate"], got["E"]) == max(weak, key=lambda row: row[0])


@settings(max_examples=30, deadline=None)
@given(_agreement_cases())
def test_radial_families_agree_with_explicit_sets(case):
    # the mask sweep against the same candidates enumerated as word sets
    f, fam, top = case
    sets = [
        explicit_set(CTX, [w for r in radii for w in sphere_stream(CTX, r)], label)
        for radii, label in radial_candidates(fam)
    ]
    indicators = [FunctionOnGroup(CTX, dict.fromkeys(E.iter_words(), Fraction(1))) for E in sets]
    restricted = []
    weak = []
    for E, indicator in zip(sets, indicators):
        h = left_convolve(f, indicator)
        value, j = best_F_ratio(h, 2.0)
        restricted.append((value / math.sqrt(E.size), E.label, j))
        weak.append((math.sqrt(float(h.l2_norm_squared()) / E.size), E.label))
    # max keeps the first of equal maxima, as the estimators do
    got = restricted_weak_estimate(f, fam)
    assert (got["estimate"], got["E"], got["j"]) == max(restricted, key=lambda row: row[0])
    got = weak_estimate_21_to_2(f, fam)
    assert (got["estimate"], got["E"]) == max(weak, key=lambda row: row[0])
    lemma1 = [(c["id"], c["lhs"]) for c in verify_lemma1(CTX, fam, top).checks]
    assert lemma1 == [
        (f"lemma1:k={k}:E={E.label}", pairing(chi(CTX, k), E, E))
        for E in sets
        for k in range(top + 1)
    ]
    r22 = [(c["id"], c["lhs"]) for c in verify_r22(CTX, fam, top).checks]
    assert r22 == [
        (f"r22:n={n}:E={E.label}", best_F_ratio(left_convolve(chi(CTX, n), indicator), 2.0)[0])
        for E, indicator in zip(sets, indicators)
        for n in range(top + 1)
    ]


def test_sphere_union_ties_keep_first_union():
    # chi_0 * chi_E = chi_E: the weak estimate is exactly 1 on every union
    # and the restricted one peaks on several unions, U2 first
    f = chi(CTX, 0)
    fam = SetFamily("sphere-unions", radius=3, budget=16)
    restricted, weak = _reference_union_rows(f, fam)
    top = max(row[0] for row in restricted)
    assert [row[1] for row in restricted if row[0] == top][:2] == ["U2", "U0,2"]
    assert all(row[0] == 1.0 for row in weak)
    assert restricted_weak_estimate(f, fam)["E"] == "U2"
    assert weak_estimate_21_to_2(f, fam)["E"] == "U0"


@st.composite
def _search_cases(draw):
    coeff = st.one_of(
        st.fractions(min_value=0, max_value=20, max_denominator=50),
        st.sampled_from([Fraction(0), Fraction(1)]),
    )
    if draw(st.booleans()):
        coeff = st.one_of(st.floats(min_value=0, max_value=50, allow_nan=False), st.just(1.0))
    coeffs = draw(st.lists(coeff, min_size=1, max_size=6))
    fam = _radial_family(draw, "sphere-unions", draw(st.integers(0, 8)))
    return RadialFunction(CTX, tuple(coeffs)), fam


@settings(max_examples=120, deadline=None)
@given(_search_cases())
@example((chi(CTX, 0), SetFamily("sphere-unions", 6, 100)))
@example((RadialFunction(CTX, (1.0, 0.0, 0.25)), SetFamily("sphere-unions", 8, 300)))
# 0.1 chi_2: U0,2,4's floats depend on the order its columns are folded in
@example((RadialFunction(CTX, (0.0, 0.0, 0.1)), SetFamily("sphere-unions", 4, 31)))
def test_sphere_union_search_equals_the_full_sweep(case):
    # the branch and bound against every mask 1 .. budget: value, label and
    # j, for exact and float f, budgets below and above 2^(R+1) - 1
    f, fam = case
    got_r = restricted_weak_estimate(f, fam)
    got_w = weak_estimate_21_to_2(f, fam)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ops, "_sphere_union_search", ops._sweep_best)
        want_r = restricted_weak_estimate(f, fam)
        want_w = weak_estimate_21_to_2(f, fam)
    assert json_dumps(got_r) == json_dumps(want_r)
    assert json_dumps(got_w) == json_dumps(want_w)
    assert got_r == want_r
    assert got_w == want_w


def test_sphere_union_search_past_any_ball():
    # masks <= 1000 hold no sphere past S_9, so radius 1500 searches the
    # same masks as radius 9, builds 10 columns and scores no big sphere
    f = RadialFunction(CTX, (Fraction(1), Fraction(2, 3), Fraction(0), Fraction(1, 5)))
    far = SetFamily("sphere-unions", 1500, budget=1000)
    near = SetFamily("sphere-unions", 9, budget=1000)
    for estimator in (restricted_weak_estimate, weak_estimate_21_to_2):
        got, want = estimator(f, far), estimator(f, near)
        assert got["radius"] == 1500
        assert {**got, "radius": 9} == want


def test_sphere_union_search_scores_few_masks(monkeypatch):
    # thm3's default run, 100 samples at radius 8: a full sweep scores
    # 511 masks per sample, the search about a tenth of that
    counts = []
    real = ops._sphere_union_search

    def counting(f, fam, score):
        calls = []

        def counted(*args):
            calls.append(1)
            return score(*args)

        out = real(f, fam, counted)
        counts.append(len(calls))
        return out

    monkeypatch.setattr(ops, "_sphere_union_search", counting)
    thm3_equivalence_report(CTX)
    assert len(counts) == 100
    assert sum(counts) / len(counts) <= 100
    counts.clear()
    rng = random.Random(0)
    fam = SetFamily("sphere-unions", 8)
    for _ in range(100):
        weak_estimate_21_to_2(sample_radial(CTX, rng, 6), fam)
    assert sum(counts) / len(counts) <= 100


def test_estimate_report_shape():
    f = chi(CTX, 2)
    fam = SetFamily("spheres", radius=4, budget=10, seed=5)
    rep = restricted_weak_estimate(f, fam)
    assert set(rep) == {"estimate", "E", "j", "family", "radius", "seed", "budget"}
    assert rep["family"] == "spheres"
    assert rep["seed"] == 5
    rep2 = weak_estimate_21_to_2(f, fam)
    assert set(rep2) == {"estimate", "E", "family", "radius", "seed", "budget"}


def test_estimate_monotone_in_budget():
    f = chi(CTX, 1) + chi(CTX, 2)
    small = restricted_weak_estimate(f, SetFamily("random-subsets", radius=3, budget=40, seed=2))
    large = restricted_weak_estimate(f, SetFamily("random-subsets", radius=3, budget=120, seed=2))
    assert large["estimate"] >= small["estimate"]


def test_estimators_reject_signed_functions():
    f = RadialFunction(CTX, (Fraction(1), Fraction(-1)))
    with pytest.raises(ValueError):
        restricted_weak_estimate(f, SetFamily("spheres", radius=2))
    with pytest.raises(ValueError):
        weak_estimate_21_to_2(f, SetFamily("spheres", radius=2))


def test_greedy_family_improves_on_singletons():
    f = chi(CTX, 1)
    fam = SetFamily("greedy", radius=2, budget=6, seed=0)
    rep = restricted_weak_estimate(f, fam)
    assert rep["E"].startswith("greedy-")
    singles = [
        restricted_weak_estimate(f, SetFamily("spheres", radius=0))["estimate"],
    ]
    assert rep["estimate"] >= max(singles)


def _reference_explicit_estimate(f, fam, restricted):
    # per set: best_F_ratio of left_convolve on the indicator (runs and
    # _best_prefix of the Counter of its values), or its square sum; an
    # exact f's values are Fractions, so neither depends on the order in
    # which they are summed, and left_convolve sums a float f's terms in
    # ascending n, so best_F_ratio is the restricted estimate bit for bit
    ctx = f.ctx

    def objective(E):
        h = left_convolve(f, FunctionOnGroup(ctx, dict.fromkeys(E.iter_words(), Fraction(1))))
        if restricted:
            value, j = best_F_ratio(h, 2.0)
            return value / math.sqrt(E.size), E.label, j
        return math.sqrt(float(h.l2_norm_squared()) / E.size), E.label

    if fam.kind == "greedy":
        return ops._greedy_search(objective, ctx, fam)
    rows = [objective(E) for E in candidate_sets(ctx, fam) if E.size]
    # max keeps the first of equal maxima, as the estimators do
    return max(rows, key=lambda row: row[0])


@st.composite
def _explicit_cases(draw):
    # small and large denominators, mixed within one f
    coeff = st.one_of(
        st.builds(Fraction, st.integers(0, 9), st.sampled_from([1, 2, 3, 4, 5, 7, 9, 11, 16])),
        st.fractions(min_value=0, max_value=20, max_denominator=10**6),
    )
    k = draw(st.sampled_from([2, 3]))
    coeffs = draw(st.lists(coeff, min_size=1, max_size=4 if k == 2 else 3).filter(any))
    kind = draw(st.sampled_from(["random-subsets", "greedy", "ball-subsets"]))
    if kind == "random-subsets":
        fam = SetFamily(
            kind, draw(st.integers(1, 2)), draw(st.integers(1, 8)), draw(st.integers(0, 99))
        )
    elif kind == "greedy":
        fam = SetFamily(kind, draw(st.integers(1, 2)), draw(st.integers(1, 4)))
    else:
        # every subset of B_0 or B_1: 2^|B| candidates, mask 0 included
        radius = draw(st.integers(0, 1))
        fam = SetFamily(kind, radius, 2 ** (1 + 2 * k * radius))
    return RadialFunction(FreeGroupCtx(k), tuple(coeffs)), fam


@settings(max_examples=40, deadline=None)
@given(_explicit_cases())
@example((RadialFunction(CTX, (Fraction(1, 7), Fraction(2, 9), 0, Fraction(5, 16))),
          SetFamily("greedy", 2, 4)))
# coprime denominators push the scaled sums past 2^53, where float(s) / D
# would round twice
@example(
    (
        RadialFunction(CTX, (Fraction(15, 953948), Fraction(9, 691237), Fraction(18, 638525))),
        SetFamily("random-subsets", 2, 6, 5),
    )
)
def test_explicit_estimates_match_fraction_reference(case):
    f, fam = case
    got = restricted_weak_estimate(f, fam)
    assert (got["estimate"], got["E"], got["j"]) == _reference_explicit_estimate(f, fam, True)
    got = weak_estimate_21_to_2(f, fam)
    assert (got["estimate"], got["E"]) == _reference_explicit_estimate(f, fam, False)


@st.composite
def _restricted_oracle_cases(draw):
    k = draw(st.sampled_from([2, 3]))
    ctx = FreeGroupCtx(k)
    if draw(st.booleans()):
        coeff = st.fractions(min_value=0, max_value=20, max_denominator=1000)
    else:
        coeff = st.one_of(
            st.sampled_from([0.0, 0.1, 1 / 3, 0.7]),
            st.floats(min_value=0, max_value=20, allow_nan=False, allow_infinity=False),
        )
    coeffs = draw(st.lists(coeff, min_size=1, max_size=4 if k == 2 else 3).filter(any))
    kind = draw(st.sampled_from(["random-subsets", "greedy", "ball-subsets"]))
    if kind == "random-subsets":
        radius = draw(st.integers(0, 3 if k == 2 else 2))
        fam = SetFamily(kind, radius, draw(st.integers(1, 6)), draw(st.integers(0, 99)))
    elif kind == "greedy":
        fam = SetFamily(kind, draw(st.integers(0, 2)), draw(st.integers(1, 4)))
    else:
        # every subset of B_1: 2^|B_1| candidates, mask 0 included
        fam = SetFamily(kind, 1, 2 ** (2 * k + 1))
    return RadialFunction(ctx, tuple(coeffs)), fam


@settings(max_examples=60, deadline=None)
@given(_restricted_oracle_cases())
@example((RadialFunction(FreeGroupCtx(3), (1.0, 0.5, 0.3)), SetFamily("ball-subsets", 1, 128)))
@example((RadialFunction(CTX, (0, 0, 1, Fraction(1, 3))), SetFamily("random-subsets", 3, 6, 3)))
# the zero f: every set scores 0, and the first candidate wins
@example((RadialFunction(CTX, (0,)), SetFamily("greedy", 1, 2)))
@example((RadialFunction(FreeGroupCtx(3), (0.0,)), SetFamily("random-subsets", 1, 3, 1)))
# summed in descending n, these values would drift in the last place
@example((RadialFunction(CTX, (0.7, 0.49, 0.343)), SetFamily("random-subsets", 2, 6, 3)))
def test_explicit_restricted_estimate_matches_word_oracle(case):
    # the distance-profile path against the words themselves, float f included
    f, fam = case
    got = restricted_weak_estimate(f, fam)
    assert (got["estimate"], got["E"], got["j"]) == _reference_explicit_estimate(f, fam, True)


ONE_PATH_FAMILIES = [
    SetFamily("random-subsets", radius=3, budget=6, seed=3),
    SetFamily("greedy", radius=2, budget=3),
    SetFamily("ball-subsets", radius=1),
]


def _isqrt_reference(sq, D, size):
    # the root of the exact quotient, 1200 bits past the point (below the
    # smallest subnormal), rounded once; inf past float range
    root = Fraction(math.isqrt(sq * 4**1200 // (D * D * size)), 2**1200)
    try:
        return float(root)
    except OverflowError:
        return math.inf


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 10**700),
    st.integers(1, 10**40),
    st.one_of(st.integers(1, 10**7), st.integers(1, 10**800)),
)
@example(10**306 * 12, 1, 12)  # search --f 1e153 on one sphere: sq / D^2 overflows
@example(3**1400, 1, 3**1400)  # f = chi_0 on a sphere past float range: both overflow
def test_weak_root_of_quotient(sq, D, size):
    try:
        want = math.sqrt(sq / (D * D) / size)
    except OverflowError:
        ref = _isqrt_reference(sq, D, size)
        if math.isinf(ref):
            with pytest.raises(ValueError, match="out of float range"):
                ops._root_of_quotient(sq, D, size)
        else:
            assert abs(ops._root_of_quotient(sq, D, size) - ref) <= math.ulp(ref)
    else:
        # the float expression's bits wherever it fits
        assert ops._root_of_quotient(sq, D, size) == want


@pytest.mark.parametrize("fam", ONE_PATH_FAMILIES, ids=[f.kind for f in ONE_PATH_FAMILIES])
def test_explicit_restricted_builds_no_sphere_image(monkeypatch, fam):
    # restricted, and the weak estimator of an exact f, read the distance
    # profiles; the weak estimator of a float f alone builds sphere
    # images, since its float square sum follows their order
    f = RadialFunction(CTX, (0, 0, 1, Fraction(1, 3)))
    f_float = RadialFunction(CTX, (0.0, 0.0, 1.0, 1 / 3))
    want = restricted_weak_estimate(f, fam)
    want_weak = weak_estimate_21_to_2(f, fam)

    def refused(*args):
        raise AssertionError("sphere image built")

    monkeypatch.setattr(_kernels, "extend_image", refused)
    monkeypatch.setattr(_kernels, "count_images", refused)
    memos = _spy_on_image_memos(monkeypatch)
    assert restricted_weak_estimate(f, fam) == want
    assert weak_estimate_21_to_2(f, fam) == want_weak
    assert memos == []
    with pytest.raises(AssertionError, match="sphere image built"):
        weak_estimate_21_to_2(f_float, fam)
    assert len(memos) == 1


# repr of the estimates of f_n = b^n, n <= 3, in float arithmetic; the
# reports print 12 digits, so these catch drift in the last place
FLOAT_EXPLICIT_ESTIMATES = [
    (1 / 3, "greedy", "restricted", "1.8518518518518519"),
    (1 / 3, "greedy", "weak", "2.1068833560485727"),
    (1 / 3, "random-subsets", "restricted", "2.2474747474747474"),
    (1 / 3, "random-subsets", "weak", "2.5375715232414158"),
    (0.7, "greedy", "restricted", "4.738347844977191"),
    (0.7, "greedy", "weak", "5.699581563588686"),
    (0.7, "random-subsets", "restricted", "6.000878963365565"),
    (0.7, "random-subsets", "weak", "7.96253293279716"),
    (0.1, "greedy", "restricted", "1.191"),
    (0.1, "greedy", "weak", "1.2086314574757624"),
    (0.1, "random-subsets", "restricted", "1.2366818181818182"),
    (0.1, "random-subsets", "weak", "1.2566731693425222"),
]


@pytest.mark.parametrize("b, kind, estimator, want", FLOAT_EXPLICIT_ESTIMATES)
def test_float_explicit_estimates_pinned(b, kind, estimator, want):
    f = RadialFunction(CTX, tuple(b**n for n in range(4)))
    if kind == "greedy":
        fam = SetFamily("greedy", radius=2, budget=6)
    else:
        fam = SetFamily("random-subsets", radius=3, budget=20, seed=1)
    est = restricted_weak_estimate if estimator == "restricted" else weak_estimate_21_to_2
    assert repr(est(f, fam)["estimate"]) == want


def test_float_explicit_estimates_pinned_on_three_generators():
    # the command line parses every literal as a rational, so only the API
    # reaches a float f on F_3; the weak sum depends on the keys' insertion order
    f = RadialFunction(FreeGroupCtx(3), (1.0, 0.5, 0.3))
    fam = SetFamily("random-subsets", radius=2, budget=12, seed=2)
    assert repr(weak_estimate_21_to_2(f, fam)["estimate"]) == "4.499562268272459"
    assert repr(restricted_weak_estimate(f, fam)["estimate"]) == "3.5486556035992836"


def _prefix_sups_set_by_set(ctx, fam, n_max):
    # rows as a set-by-set loop makes them: each E, then each n, with
    # chi_n * chi_E counted word by word
    rows = []
    for E in candidate_sets(ctx, fam):
        sups = []
        for n in range(n_max + 1):
            counts = Counter(mul(w, x) for w in sphere_stream(ctx, n) for x in E.iter_words())
            sups.append(best_F_ratio(counts, 2)[0])
        rows.append((E.label, E.size, sups))
    return rows


@pytest.mark.parametrize(
    "fam",
    [SetFamily("ball-subsets", radius=1, budget=32), SetFamily("random-subsets", 2, 10, seed=4)],
    ids=["ball-subsets", "random-subsets"],
)
def test_prefix_sups_rows_in_set_then_sphere_order(fam):
    # the explicit rows come set by set, each E's spheres in order
    assert list(ops.prefix_sups(CTX, fam, 3)) == _prefix_sups_set_by_set(CTX, fam, 3)


# -- Truncated columns -------------------------------------------------------


def test_truncated_column_P_definition():
    x = word_from_str(CTX, "abA")
    col = truncated_column("P", {"k": 2}, x)
    want = {}
    for w in sphere_stream(CTX, 2):
        z = mul(w, x)
        if len(z) <= len(x):
            want[z] = Fraction(1)
    assert col.entries == want
    assert col.l1_mass() == len(want)


def test_truncated_column_Q_definition():
    x = word_from_str(CTX, "ab")
    q = CTX.q
    for alpha in (-0.5, 0.0, 0.5, 1.0, 0.3):
        col = truncated_column("Q", {"n": 3, "alpha": alpha}, x)
        want = {}
        for w in sphere_stream(CTX, 3):
            z = mul(w, x)
            if len(x) >= q ** alpha * len(z):
                want[z] = Fraction(1)
        assert col.entries == want, alpha
    with pytest.raises(ValueError):
        truncated_column("R", {}, x)


def test_full_cancellation_witness_breaks_q_bound():
    q = CTX.q
    for n in (4, 5):
        x = normalize(CTX, [0] * n)  # a^n
        col = truncated_column("Q", {"n": n, "alpha": float(n)}, x)
        # w = x^{-1} gives wx = identity, accepted at every alpha
        assert col.value(identity(CTX)) == 1
        assert col.l1_mass() >= 1
        # but the claimed bound q^{(3-n)/2} is below 1
        assert q ** (3 - n) < 1


def test_column_l1_sup_matches_brute_force():
    radius = 3
    cases = (
        ("P", {"k": 2}),
        ("P", {"k": 3}),
        ("Q", {"n": 2, "alpha": 0.5}),
        ("Q", {"n": 3, "alpha": -1.0}),
        ("Q", {"n": 2, "alpha": 0.3}),
        ("Q", {"n": 4, "alpha": 4.0}),
    )
    for kind, params in cases:
        rep = column_l1_sup(kind, params, radius, CTX)
        best = -1
        for x in ball_stream(CTX, radius):
            best = max(best, int(truncated_column(kind, params, x).l1_mass()))
        assert rep["sup"] == best
        witness = word_from_str(CTX, rep["witness"])
        assert int(truncated_column(kind, params, witness).l1_mass()) == best
        assert set(rep) == {"kind", "params", "radius", "sup", "witness", "bound", "ok"}


def test_q_alpha_sweep_matches_single_scans():
    alphas = [-1.0, -0.5, 0.0, 0.5, 1.0, 1.5]
    rows = q_alpha_sweep(CTX, 3, alphas, radius=3)
    assert len(rows) == len(alphas)
    for alpha, row in zip(alphas, rows):
        single = column_l1_sup("Q", {"n": 3, "alpha": alpha}, 3, CTX)
        assert row == single


@pytest.mark.parametrize("k", [2, 3])
def test_q_bound_fails_exactly_where_negative_alpha_meets_the_whole_sphere(k):
    # |S_n| = (q+1) q^(n-1) > q^(3/2 - alpha + n/2) iff
    # alpha > 5/2 - n/2 - log_q(q+1); at alpha < 0 some column accepts
    # the whole sphere, at alpha >= 0 the bound holds
    ctx = FreeGroupCtx(k)
    q = ctx.q
    failures = 0
    for n in range(17):
        alphas = [tw / 2 for tw in range(-n, n + 1)]
        for alpha, row in zip(alphas, q_alpha_sweep(ctx, n, alphas, radius=4 * n + 10)):
            fails = alpha < 0 and alpha > 2.5 - n / 2 - math.log(q + 1, q)
            assert row["ok"] is not fails, (n, alpha)
            failures += fails
    assert failures == 91


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from((3, 5, 7)),
    st.one_of(
        st.integers(-12, 12).map(lambda t: t / 2),
        st.floats(-6, 6, allow_nan=False).filter(lambda a: 2 * a != int(2 * a)),
    ),
    st.integers(0, 60),
    st.integers(0, 80),
)
@example(3, 1.0, 3, 80)  # q^t d^2 = m^2 exactly at d = 1
@example(5, -1.0, 2, 80)  # d = 10 = q^{-alpha} m exactly
@example(7, 0.5, 60, 10)  # capped by top
@example(3, 0.0, 0, 0)
def test_accepted_cutoff_is_the_last_accepted_length(q, alpha, lx, top):
    accepted = [d for d in range(top + 1) if column_accepts(q, alpha, d, lx)]
    # the accepted lengths form an initial segment, whose end is the cutoff
    assert accepted == list(range(len(accepted)))
    assert ops._accepted_cutoff(q, alpha, lx, top) == len(accepted) - 1


@st.composite
def _reduced_words(draw):
    ctx = FreeGroupCtx(draw(st.sampled_from((2, 3, 4))))
    letters = []
    for _ in range(draw(st.integers(0, 5))):
        banned = letters[-1] ^ 1 if letters else None
        letters.append(
            draw(st.sampled_from([a for a in range(ctx.alphabet) if a != banned]))
        )
    return ReducedWord(ctx, tuple(letters))


@settings(max_examples=60, deadline=None)
@given(_reduced_words(), st.integers(0, 5))
def test_column_mass_matches_enumerated_prefix_sums(x, n):
    # every cutoff d, not only _accepted_cutoff's, against the enumerated row
    row = column_row(n, x)
    for d in range(-1, n + len(x) + 1):
        assert ops._column_mass(x.ctx, n, len(x), d) == sum(row[: d + 1]), d


def test_column_sup_has_no_radius_cap():
    # Radius 40 is far past any enumerable ball.  For |x| = m, a word w in
    # S_k with |wx| <= m cancels j >= k/2 letters: (q-1) q^(k-j-1) words
    # for each j < min(k, m), and 1 (j = k <= m) or q^(k-m) (j = m < k)
    # more: q^(k-J) in all, J = k/2 as in _column_mass, once m >= k/2 and
    # 0 before.  The cutoff k + m takes the whole sphere.
    q = CTX.q
    rep = column_l1_sup("P", {"k": 4}, 40, CTX)
    assert (rep["sup"], rep["witness"], rep["ok"]) == (q**2, "aa", True)
    for m in range(41):
        assert ops._column_mass(CTX, 4, m, 4 + m) == sphere_size(CTX, 4)
        assert ops._column_mass(CTX, 4, m, m) == (q**2 if m >= 2 else 0)


# -- Budgets -----------------------------------------------------------------


def test_pair_budget_enforced(monkeypatch):
    monkeypatch.setattr(ops, "PAIR_BUDGET", 10)
    rng = random.Random(3)
    E = explicit_set(CTX, _rand_words(rng, 4))
    with pytest.raises(BudgetExceededError):
        pairing(chi(CTX, 1), E, E)
    with pytest.raises(BudgetExceededError, match="convolution enumeration needs 12, cap is 10$"):
        restricted_weak_estimate(chi(CTX, 2), SetFamily("greedy", radius=1, budget=1))
    # r22 checks |S_n| |E| before each chi_n * chi_E: sub1 = {e} at n = 2
    with pytest.raises(BudgetExceededError, match="convolution enumeration needs 12, cap is 10$"):
        verify_r22(CTX, SetFamily("ball-subsets", radius=1, budget=64), 2)


SUM_F = RadialFunction(CTX, (Fraction(1), Fraction(1, 2), Fraction(1, 4)))
# B_1 has 5 words; ball-subsets sums C(5, s) work(s) over s, so a work of
# c s sums to c 5 2^4 and of s^2 to 5 * 6 * 2^3; random-subsets counts its
# budget draws as the whole ball.  The estimators pair a word with S_0 .. S_2
# (17 words), r22 at n_max = 3 with S_0 .. S_3 (53), lemma1 a set with itself.
FAMILY_SUM_CASES = [
    ("restricted", "ball-subsets", 17 * 5 * 2**4),
    ("weak", "ball-subsets", 17 * 5 * 2**4),
    ("r22", "ball-subsets", 53 * 5 * 2**4),
    ("lemma1", "ball-subsets", 5 * 6 * 2**3),
    ("restricted", "random-subsets", 6 * 17 * 5),
    ("r22", "random-subsets", 6 * 53 * 5),
    ("lemma1", "random-subsets", 6 * 5 * 5),
]


@pytest.mark.parametrize(
    "call, kind, total", FAMILY_SUM_CASES, ids=[f"{c}-{k}" for c, k, _ in FAMILY_SUM_CASES]
)
def test_family_pair_budget_caps_the_summed_work(monkeypatch, call, kind, total):
    fam = SetFamily(kind, radius=1, budget=32 if kind == "ball-subsets" else 6, seed=2)
    run = {
        "restricted": lambda: restricted_weak_estimate(SUM_F, fam),
        "weak": lambda: weak_estimate_21_to_2(SUM_F, fam),
        "r22": lambda: verify_r22(CTX, fam, 3),
        "lemma1": lambda: verify_lemma1(CTX, fam, 3),
    }[call]
    monkeypatch.setattr(ops, "FAMILY_PAIR_BUDGET", total)
    run()
    monkeypatch.setattr(ops, "FAMILY_PAIR_BUDGET", total - 1)
    want = f"family pair enumeration needs {total}, cap is {total - 1}$"
    with pytest.raises(BudgetExceededError, match=want):
        run()


def _spy_on_image_memos(monkeypatch):
    """Record every image memo made, and the (n, x) images each was asked for."""
    memos = []

    class Spy(ops._SphereImages):
        def __init__(self, tk):
            super().__init__(tk)
            self.asked = set()
            memos.append(self)

        def counts(self, n, keys):
            self.asked.update((n, kx) for kx in keys)
            return super().counts(n, keys)

    monkeypatch.setattr(ops, "_SphereImages", Spy)
    return memos


# a float f: the weak estimator builds sphere images for a float f only
MEMO_F = RadialFunction(CTX, (1.0, 0.5, 0.25))
MEMO_FAMILIES = [
    SetFamily("random-subsets", radius=3, budget=12, seed=3),
    SetFamily("greedy", radius=2, budget=4),
]


@pytest.mark.parametrize("fam", MEMO_FAMILIES, ids=[f"estimators-{f.kind}" for f in MEMO_FAMILIES])
def test_image_memo_holds_at_most_the_pair_budget(monkeypatch, fam):
    # PAIR_BUDGET set between the largest set's work and the family's
    # total: every set passes its budget check, the weak estimator's memo
    # fills up and rebuilds the images it cannot store, and no estimate
    # moves.  (No ball-subsets case: its family holds the whole ball, so
    # the largest set's work is the total.)
    def run():
        return [est(MEMO_F, fam) for est in (restricted_weak_estimate, weak_estimate_21_to_2)]

    sphere_work = sum(sphere_size(CTX, n) for n in range(3))
    if fam.kind == "greedy":
        largest = fam.budget
    else:
        largest = max(E.size for E in candidate_sets(CTX, fam))
    want = run()
    cap = sphere_work * largest
    monkeypatch.setattr(ops, "PAIR_BUDGET", cap)
    memos = _spy_on_image_memos(monkeypatch)
    assert run() == want
    tk = CTX.alphabet
    for memo in memos:
        # key 1, the identity, holds S_n in every memo that was asked
        # for n, and takes none of the room
        for n, per_n in memo.images.items():
            assert per_n[1] == _kernels.sphere_keys(tk, n)
        stored = sum(
            len(image) for per_n in memo.images.values() for kx, image in per_n.items() if kx != 1
        )
        assert stored <= cap
        assert memo.room == cap - stored
    # some image was asked for and not stored, so the cap was reached
    assert any(kx not in memo.images[n] for memo in memos for n, kx in memo.asked)
    # the identity's image alone leaves the room whole
    memo = ops._SphereImages(tk)
    memo.counts(3, [1])
    assert memo.images[3] == {1: _kernels.sphere_keys(tk, 3)}
    assert memo.room == cap
    # a word's image is extended from its prefixes', which are stored on
    # the way and take their keys from the same room
    memo = ops._SphereImages(tk)
    x = _kernels.encode_word(tk, (0, 2, 0))
    memo.counts(2, [x])
    assert memo.images[2][1] == _kernels.sphere_keys(tk, 2)
    assert sorted(memo.images[2]) == [1, x // 16, x // 4, x]
    assert memo.room == cap - 3 * sphere_size(CTX, 2)


R22_ONE_PASS_CASES = [
    SetFamily("ball-subsets", radius=1),
    SetFamily("random-subsets", radius=3, budget=10, seed=4),
]


@pytest.mark.parametrize("fam", R22_ONE_PASS_CASES, ids=[f.kind for f in R22_ONE_PASS_CASES])
def test_explicit_r22_sweeps_the_family_once(monkeypatch, fam):
    # r22 reads the distance profiles: one replay of the family, no image
    # memo, and the rows of the word-by-word reference
    n_max = 3
    want = _prefix_sups_set_by_set(CTX, fam, n_max)
    calls = []
    real = ops.candidate_sets

    def counted(ctx, family):
        calls.append(family)
        return real(ctx, family)

    monkeypatch.setattr(ops, "candidate_sets", counted)
    memos = _spy_on_image_memos(monkeypatch)
    assert list(ops.prefix_sups(CTX, fam, n_max)) == want
    assert len(calls) == 1
    assert memos == []
    report = verify_r22(CTX, fam, n_max)
    assert len(calls) == 2
    assert memos == []
    assert len(report.checks) == len(want) * (n_max + 1)


@pytest.mark.parametrize("fam", R22_ONE_PASS_CASES, ids=[f.kind for f in R22_ONE_PASS_CASES])
def test_explicit_lemma1_reads_the_distance_profiles(monkeypatch, fam):
    # the rows of the pair histogram, which the sweep itself does not call
    k_max = 8
    want = []
    for E in candidate_sets(CTX, fam):
        profile = chi_pairing_profile(E, E)[: k_max + 1]
        want.append((E.label, E.size, profile + [0] * (k_max + 1 - len(profile))))

    def refused(E, F):
        raise AssertionError("chi_pairing_profile called")

    monkeypatch.setattr(ops, "chi_pairing_profile", refused)
    memos = _spy_on_image_memos(monkeypatch)
    assert list(ops.self_pairings(CTX, fam, k_max)) == want
    assert memos == []
