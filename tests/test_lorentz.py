"""Lorentz norms from decreasing rearrangements.

Core claims:
    - rearrange sorts values decreasingly and merges them into strict runs
    - lorentz_norm matches the elementwise definition expanded term by term
    - indicator norms are exactly |E|^{1/p}
    - the weak norm, lorentz_norm at s = inf, is the sup of a_i i^{1/p},
      attained at run ends: the max of the run-end terms v (c+m)^{1/p}
      bit for bit, with no Rearrangement built per prefix
    - norms decrease in the second index s
    - blockwise power differences telescope without cancellation error
    - rearrange_radial equals rearrangement of the expanded radial function
    - rearrange_spheres on sphere_product's values equals rearrange_radial
      of the product, on float and mixed f
    - radial_weighted_sum follows the p = 2 and 1 < p < 2 formulas
    - the prefix pass gives lorentz_norm of every prefix of the runs, float
      for float, before and past float range
    - counts past float range take a log-scaled path that agrees with the
      float path where both apply, and stays finite for a second index s up
      to the float maximum; a norm itself past float range is a ValueError
    - a run no other run merges into keeps its multiplicity object, the
      cached sphere size
"""

import math
import random
from decimal import Context, Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgw.lorentz import (
    LorentzIndex,
    Rearrangement,
    _log_scaled_norm,
    lorentz_norm,
    lorentz_prefix_norms,
    radial_weighted_sum,
    rearrange,
    rearrange_radial,
    rearrange_spheres,
)
from fgw.radial import RadialFunction, chi, convolve_radial, sphere_product
from fgw.words import FreeGroupCtx, sphere_size


def _expand(r):
    out = []
    for v, m in r.pairs:
        out.extend([v] * m)
    return out


def _norm_by_definition(values, p, s):
    # ||f||_{p,s}^s = sum_i a_i^s (i^{s/p} - (i-1)^{s/p}) on the sorted values
    a = sorted(values, reverse=True)
    total = 0.0
    for i, v in enumerate(a, start=1):
        total += float(v) ** s * (i ** (s / p) - (i - 1) ** (s / p))
    return total ** (1.0 / s)


def _random_rearrangement(rng, max_runs=5, max_mult=6):
    runs = []
    v = rng.uniform(5.0, 9.0)
    for _ in range(rng.randint(1, max_runs)):
        runs.append((v, rng.randint(1, max_mult)))
        v *= rng.uniform(0.3, 0.9)
    return Rearrangement(tuple(runs))


def test_rearrange_sorts_and_merges():
    r = rearrange({"a": 2, "b": -3, "c": 2, "d": 1})
    assert r.pairs == ((3, 1), (2, 2), (1, 1))
    # zeros are dropped
    assert rearrange([0, 5, 0]).pairs == ((5, 1),)
    assert rearrange([]).pairs == ()


def test_rearrangement_validates_strict_decrease():
    with pytest.raises(ValueError):
        Rearrangement(((2, 1), (2, 3)))
    with pytest.raises(ValueError):
        Rearrangement(((1, 1), (2, 1)))
    with pytest.raises(ValueError):
        Rearrangement(((1, 0),))


def test_lorentz_norm_matches_definition():
    rng = random.Random(13)
    for _ in range(200):
        r = _random_rearrangement(rng)
        vals = _expand(r)
        for p, s in ((2.0, 1.0), (2.0, 2.0), (1.5, 1.0), (3.0, 2.0), (2.0, 1.3)):
            want = _norm_by_definition(vals, p, s)
            got = lorentz_norm(r, LorentzIndex(p, s))
            assert math.isclose(got, want, rel_tol=1e-11), (r.pairs, p, s)


def test_indicator_norm_exact():
    # a constant-1 rearrangement of mass M has every (p,s)-norm equal M^{1/p}
    for M in (1, 4, 100, 3 ** 9):
        r = Rearrangement(((1, M),))
        for p, s in ((2.0, 1.0), (2.0, 2.0), (1.25, 1.0), (4.0, 3.0)):
            assert math.isclose(lorentz_norm(r, LorentzIndex(p, s)), M ** (1.0 / p), rel_tol=1e-12)
        weak = lorentz_norm(r, LorentzIndex(2.0, math.inf))
        assert math.isclose(weak, math.sqrt(M), rel_tol=1e-12)


def test_weak_norm_is_prefix_sup():
    rng = random.Random(21)
    for _ in range(100):
        r = _random_rearrangement(rng)
        vals = _expand(r)
        for p in (1.5, 2.0, 3.0):
            want = max(v * (i + 1) ** (1.0 / p) for i, v in enumerate(vals))
            assert math.isclose(lorentz_norm(r, LorentzIndex(p, math.inf)), want, rel_tol=1e-12)


def _run_end_terms(r, p):
    cum = 0
    terms = []
    for v, m in r.pairs:
        cum += m
        terms.append(float(v) * float(cum) ** (1 / p))
    return terms


def test_weak_norm_is_the_max_of_run_end_terms():
    rng = random.Random(34)
    for _ in range(200):
        r = _random_rearrangement(rng, max_runs=8, max_mult=10**6)
        for p in (1.25, 1.5, 2.0, 3.0):
            weak = lorentz_norm(r, LorentzIndex(p, math.inf))
            assert weak.hex() == max(_run_end_terms(r, p)).hex()
    with pytest.raises(ValueError, match="first index p must exceed 1"):
        lorentz_norm(r, LorentzIndex(1.0, math.inf))


def test_weak_prefix_norms_build_no_rearrangement(monkeypatch):
    rng = random.Random(35)
    cases = []
    for _ in range(50):
        r = _random_rearrangement(rng, max_runs=8)
        lengths = list(range(len(r.pairs) + 1))
        idx = LorentzIndex(2.0, math.inf)
        want = [lorentz_norm(Rearrangement(r.pairs[:n]), idx) for n in lengths]
        cases.append((r, lengths, want))
    built = []
    post_init = Rearrangement.__post_init__

    def spy(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Rearrangement, "__post_init__", spy)
    for r, lengths, want in cases:
        got = lorentz_prefix_norms(r, LorentzIndex(2.0, math.inf), lengths)
        assert [x.hex() for x in got] == [x.hex() for x in want]
    assert built == []


def test_norm_decreases_in_s():
    rng = random.Random(5)
    for _ in range(50):
        r = _random_rearrangement(rng)
        p = 2.0
        seq = [lorentz_norm(r, LorentzIndex(p, s)) for s in (1.0, 1.3, 2.0, math.inf)]
        for hi, lo in zip(seq, seq[1:]):
            assert hi >= lo * (1 - 1e-12)


def test_blockwise_powers_telescope():
    # one huge run: blockwise sum must equal the closed form m^{s/p} exactly
    m = 3 ** 40
    r = Rearrangement(((2.0, m),))
    p, s = 2.0, 1.0
    assert math.isclose(lorentz_norm(r, LorentzIndex(p, s)), 2.0 * m ** 0.5, rel_tol=1e-12)
    two = Rearrangement(((2.0, m), (1.0, m)))
    want = _norm_by_definition_two_runs(m)
    assert math.isclose(lorentz_norm(two, LorentzIndex(2.0, 1.0)), want, rel_tol=1e-12)


def _norm_by_definition_two_runs(m):
    # sum_{i<=m} 2 d_i + sum_{m<i<=2m} d_i with d_i = sqrt(i)-sqrt(i-1)
    # telescopes to sqrt(m) + sqrt(2m)
    return math.sqrt(m) + math.sqrt(2 * m)


@pytest.mark.parametrize("s", [1.0, 1.25, 1.5, 2.0])
def test_prefix_norms_equal_lorentz_norm_of_each_prefix(s):
    # thm5's denominators: f_n = sum_{k<=2n} q^{-k/2} chi_k is a prefix of
    # f_60, and its norm from the prefix pass is lorentz_norm's, bit for
    # bit, the single run of f_0 included
    ctx = FreeGroupCtx(2)
    coeffs = tuple(3.0 ** (-0.5 * k) for k in range(121))
    lengths = [2 * n + 1 for n in range(61)]
    idx = LorentzIndex(2.0, s)
    got = lorentz_prefix_norms(rearrange_radial(RadialFunction(ctx, coeffs)), idx, lengths)
    want = [
        lorentz_norm(rearrange_radial(RadialFunction(ctx, coeffs[:n])), idx) for n in lengths
    ]
    assert [x.hex() for x in got] == [x.hex() for x in want]


def test_prefix_norms_past_float_counts():
    # |B_k| leaves float range near k = 646: later prefixes take the
    # log-scaled path, as lorentz_norm does on them
    ctx = FreeGroupCtx(2)
    r = rearrange_radial(RadialFunction(ctx, tuple(3.0 ** (-0.5 * k) for k in range(801))))
    lengths = [0, 1, 600, 645, 646, 647, 700, 801]
    for s in (1.0, 2.0, math.inf):
        got = lorentz_prefix_norms(r, LorentzIndex(2.0, s), lengths)
        want = [lorentz_norm(Rearrangement(r.pairs[:n]), LorentzIndex(2.0, s)) for n in lengths]
        assert got == want
        assert all(math.isfinite(x) for x in got)


def test_log_scaled_norm_agrees_in_float_range():
    # the path taken past float range, checked where floats also reach
    rng = random.Random(8)
    for _ in range(100):
        r = _random_rearrangement(rng, max_mult=10**6)
        for p, s in ((2.0, 1.0), (2.0, 2.0), (1.5, 3.0), (3.0, 1.25)):
            idx = LorentzIndex(p, s)
            assert math.isclose(_log_scaled_norm(r.pairs, idx), lorentz_norm(r, idx), rel_tol=1e-12)


@pytest.mark.parametrize("s", [1e307, 1e308, 1.7976931348623157e308])
def test_norm_near_the_float_maximum_index_is_finite(s):
    # s * log v and (s/p) * log c overflow to opposite infinities, which
    # once made the log-scaled sum nan; the norm tends to the weak norm
    f = RadialFunction(FreeGroupCtx(2), tuple(3.0 ** (-0.5 * k) for k in range(9)))
    r = rearrange_radial(f)
    got = lorentz_norm(r, LorentzIndex(2.0, s))
    assert math.isfinite(got)
    assert math.isclose(got, lorentz_norm(r, LorentzIndex(2.0, math.inf)), rel_tol=1e-9)
    assert abs(got - 1.41416) < 1e-5


def test_unmerged_runs_keep_the_cached_sphere_sizes():
    # sizes past the small-int cache, so identity shows no int was rebuilt
    ctx = FreeGroupCtx(2)
    r = rearrange_spheres(ctx, [0.0] * 60 + [3.0, 2.0, 1.0, 2.0])
    assert [m for _, m in r.pairs] == [
        sphere_size(ctx, 60),
        sphere_size(ctx, 61) + sphere_size(ctx, 63),
        sphere_size(ctx, 62),
    ]
    assert r.pairs[0][1] is sphere_size(ctx, 60)
    assert r.pairs[2][1] is sphere_size(ctx, 62)


def test_norms_of_counts_past_float_range():
    # |S_700| is past float range, its square root is not
    size = sphere_size(FreeGroupCtx(2), 700)
    with pytest.raises(OverflowError):
        float(size)
    root = float(Decimal(size).sqrt(Context(prec=40)))
    r = Rearrangement(((Fraction(1), size),))
    for s in (1.0, 2.0, 3.0):
        assert math.isclose(lorentz_norm(r, LorentzIndex(2.0, s)), root, rel_tol=1e-13)
    assert math.isclose(lorentz_norm(r, LorentzIndex(2.0, math.inf)), root, rel_tol=1e-13)
    two = Rearrangement(((Fraction(3), size), (Fraction(1, 7), size)))
    # telescoping at s = 1: 3 |S|^{1/2} + (1/7) ((2|S|)^{1/2} - |S|^{1/2})
    want = 3 * root + (math.sqrt(2) * root - root) / 7
    assert math.isclose(lorentz_norm(two, LorentzIndex(2.0, 1.0)), want, rel_tol=1e-12)
    # and at s = 2: (9 |S| + (1/49) |S|)^{1/2}
    want = math.sqrt(9 + 1 / 49) * root
    assert math.isclose(lorentz_norm(two, LorentzIndex(2.0, 2.0)), want, rel_tol=1e-12)
    # the norm itself past float range is an error, not inf
    with pytest.raises(ValueError, match="out of float range"):
        lorentz_norm(Rearrangement(((1, size * size),)), LorentzIndex(2.0, 2.0))
    with pytest.raises(ValueError, match="^the weak Lorentz norm e.* is out of float range$"):
        lorentz_norm(Rearrangement(((1, size * size),)), LorentzIndex(2.0, math.inf))
    # past float range, the weak norm is the exp of the largest run-end logarithm
    for p in (1.5, 2.0, 3.0):
        want = math.exp(max(math.log(3) + math.log(size) / p, -math.log(7) + math.log(2 * size) / p))
        assert lorentz_norm(two, LorentzIndex(p, math.inf)).hex() == want.hex()


def test_rearrange_radial_matches_expansion():
    ctx = FreeGroupCtx(2)
    f = RadialFunction(ctx, (Fraction(0), Fraction(5), Fraction(2), Fraction(7)))
    r = rearrange_radial(f)
    want = []
    for n, c in f.nonzero_items():
        want.extend([c] * sphere_size(ctx, n))
    assert _expand(r) == sorted(want, reverse=True)
    # negative coefficients enter through their absolute value
    g = RadialFunction(ctx, (Fraction(-3), Fraction(1)))
    assert rearrange_radial(g).pairs == ((3, 1), (1, 4))


_EXACT = st.fractions(min_value=-20, max_value=20, max_denominator=10**6)
_FLOAT = st.floats(min_value=-20, max_value=20, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(
    k=st.sampled_from([2, 3]),
    # a leading float keeps f inexact, so sphere_product gives D = 1
    coeffs=st.sampled_from([_FLOAT, st.one_of(_EXACT, _FLOAT)]).flatmap(
        lambda coeff: st.tuples(_FLOAT, st.lists(coeff, max_size=6)).map(
            lambda t: [t[0], *t[1]]
        )
    ),
    n=st.integers(0, 12),
)
def test_rearrange_spheres_of_float_product(k, coeffs, n):
    # thm5's numerator: the runs of f * chi_n read from sphere_product
    ctx = FreeGroupCtx(k)
    f = RadialFunction(ctx, tuple(coeffs))
    D, h = sphere_product(f, n)
    assert D == 1
    got = rearrange_spheres(ctx, h)
    want = rearrange_radial(convolve_radial(f, chi(ctx, n)))
    assert got == want
    assert [repr(v) for v, _ in got.pairs] == [repr(v) for v, _ in want.pairs]


def test_radial_weighted_sum_formulas():
    ctx = FreeGroupCtx(2)
    q = 3
    f = chi(ctx, 1) + 2 * chi(ctx, 3)
    want2 = 1 * q ** 0.5 + 2 * q ** 1.5
    assert math.isclose(radial_weighted_sum(f, 2.0), want2, rel_tol=1e-12)
    p = 1.5
    pp = p / (p - 1)
    want = (1 ** pp * q ** (1 * pp / p) + 2 ** pp * q ** (3 * pp / p)) ** (1 / pp)
    assert math.isclose(radial_weighted_sum(f, p), want, rel_tol=1e-12)
    with pytest.raises(ValueError):
        radial_weighted_sum(f, 1.0)
    with pytest.raises(ValueError):
        radial_weighted_sum(f, 2.5)


def test_lorentz_index_validation():
    assert LorentzIndex(2.0, math.inf).s == math.inf
    with pytest.raises(ValueError):
        LorentzIndex(1.0, 1.0)
    with pytest.raises(ValueError):
        LorentzIndex(2.0, 0.5)
    # -inf is infinite but below 1, and nan compares with nothing
    for s in (-math.inf, math.nan):
        with pytest.raises(ValueError, match="second index s must be >= 1 or infinity"):
            LorentzIndex(2.0, s)


def test_rearrange_accepts_function_entry_maps():
    class Bag:
        entries = {"x": Fraction(3), "y": Fraction(-4), "z": Fraction(3)}

    assert rearrange(Bag()).pairs == ((4, 1), (3, 2))
