"""Verification reports and the certified inequality batteries.

Core claims:
    - check rows carry the pass/fail status, margin, and rendered inequality
    - expected-outcome rows are informational and never fail a report
    - report status is fail > informational > pass; csv rows match the header
    - a check row is recorded once, as the JSON object it is written as:
      json_objects() returns the summary, then the rows of report.checks
      themselves, each with "kind": "check" first
    - the summary's counts, status and tightest row equal a brute-force
      recount; on a tie for the smallest margin the first row wins
    - a check with a non-finite side is refused when it is recorded
    - a vanishing left side reports the right side as its margin
    - the weak-type upper/lower certificate passes on sample functions
    - lemma1, r22, thm3, thm4, thm5, column, and majorization verifiers pass
    - on spheres, balls, sphere unions, ball subsets and random subsets,
      lemma1 and r22 rows equal their per-set Fraction oracles, under any
      budget and nonnegative index maximum, the empty set included
    - lemma1 decides each row on the integer pairings, with the verdict
      of the exact Fraction comparison, and its rows keep Fraction lhs
    - theorems states inequalities only: it imports no private name of
      operators or radial and leaves the family fork to operators
    - the thm4 chain matches a hand-computed case exactly
    - each thm4 chain row's status is its float comparison at relative
      tolerance 1e-9, recomputed over the thm1 suite, p = 1.25, 1.5, 1.75
    - the alpha = n column row documents the expected failure for n >= 4
    - every pk and qn verdict is the column's exact ok
    - thm5 refuses degenerate fit windows
    - lemma1, r22, pk and qn refuse a negative index maximum, and the
      conjecture scan an empty s grid
    - thm5's memoized runs equal fresh rearrangements of f_n * chi_n, float
      for float, and a report's bytes do not depend on which windows and
      groups were fitted before it
    - float thm4 and thm5 chains keep their values to the last place
    - thm4's conclusion row is radial_weighted_sum(f, p) bit for bit over
      the thm1 suite, p = 1.25, 1.5, 1.75
    - thm3's sphere-pair value and thm4's p'-sums, read as integers over
      D, equal their values through Fraction products exactly, on exact,
      float and mixed f
"""

import ast
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fgw.operators
import fgw.theorems
from fgw.cli import THM5_PAIRS
from fgw.lorentz import radial_power_sum, radial_weighted_sum, rearrange_radial, rearrange_spheres
from fgw.operators import RADIAL_KINDS, SetFamily, candidate_sets, column_l1_sup
from fgw.oracle import FunctionOnGroup, best_F_ratio, left_convolve, pairing, radial_candidates
from fgw.radial import RadialFunction, chi, convolve_radial, sphere_product
from fgw.reportio import CSV_HEADER, json_dumps
from fgw.theorems import (
    VerificationReport,
    _sphere_pair_best,
    _thm5_runs,
    build_thm1_suite,
    conjecture_scan,
    sample_radial,
    thm3_equivalence_report,
    thm4_lower_chain,
    thm5_exponent_fit,
    verify_display_majorization,
    verify_lemma1,
    verify_p_columns,
    verify_q_columns,
    verify_r22,
    verify_thm1,
)
from fgw.words import FreeGroupCtx, ball_size, sphere_size

CTX = FreeGroupCtx(2)


# -- Report mechanics ---------------------------------------------------------


def test_check_le_status_and_margin():
    rep = VerificationReport("t", {"k": 2})
    assert rep.check_le("a", Fraction(1), Fraction(2))
    assert not rep.check_le("b", Fraction(3), Fraction(2))
    assert rep.status == "fail"
    assert not rep.ok
    rows = {c["id"]: c for c in rep.checks}
    assert rows["a"]["margin"] == 2.0
    assert rows["a"]["status"] == "pass"
    assert rows["b"]["status"] == "fail"
    assert rows["b"]["inequality"] == "3 <= 2"
    assert rep.counts() == {"pass": 1, "fail": 1, "informational": 0}
    assert [c["id"] for c in rep.failures()] == ["b"]


def test_zero_lhs_margin_is_rhs():
    rep = VerificationReport("t", {})
    rep.check_le("z", Fraction(0), Fraction(7))
    assert rep.checks[0]["margin"] == 7.0


def test_check_with_a_non_finite_side_is_refused_when_recorded():
    rep = VerificationReport("t", {"k": 2})
    for lhs, rhs in ((math.inf, 1), (1, math.inf), (math.nan, 1.0), (0.5, -math.inf)):
        with pytest.raises(ValueError, match="non-finite float in report"):
            rep.check_le("x", lhs, rhs)
        with pytest.raises(ValueError, match="non-finite float in report"):
            rep.check_ge("x", rhs, lhs)
    assert rep.checks == []


def test_expected_rows_are_informational():
    rep = VerificationReport("t", {})
    rep.check_le("doc", Fraction(3), Fraction(2), expected=False)
    row = rep.checks[0]
    assert row["status"] == "informational"
    assert row["holds"] is False
    assert row["expected_to_hold"] is False
    assert rep.status == "pass"
    rep.info("note-row", note="free text", value=1)
    assert rep.status == "pass"
    assert rep.counts()["informational"] == 2


def test_check_ge_flips_inequality():
    rep = VerificationReport("t", {})
    assert rep.check_ge("g", Fraction(5), Fraction(2))
    assert rep.checks[0]["inequality"] == "2 <= 5"


def test_informational_report_status():
    rep = VerificationReport("t", {}, informational=True)
    rep.check_le("a", 1, 2)
    assert rep.status == "informational"
    assert rep.ok
    rep.check_le("b", 3, 2)
    assert rep.status == "fail"


def test_tightest_and_summary():
    rep = VerificationReport("t", {"k": 2})
    rep.check_le("loose", Fraction(1), Fraction(10))
    rep.check_le("tight", Fraction(9), Fraction(10))
    rep.info("ignored", value=0)
    assert rep.tightest()["id"] == "tight"
    s = rep.summary()
    assert s["kind"] == "summary"
    assert s["tightest"]["id"] == "tight"
    objs = rep.json_objects()
    assert objs[0]["kind"] == "summary"
    assert all(o["kind"] == "check" for o in objs[1:])
    assert len(objs) == 4


def _mixed_report(informational=False):
    rep = VerificationReport("t", {"k": 2}, informational=informational)
    rep.check_le("a", Fraction(1), Fraction(2))
    rep.info("i", note="n", value=1.5, margin=0.01)
    rep.check_le("tie-1", Fraction(4), Fraction(5))
    rep.check_le("doc", Fraction(9), Fraction(1), expected=False)
    rep.check_ge("tie-2", 5.0, 4.0, note="same margin as tie-1")
    rep.check_le("c", 2.5, 7.5)
    return rep


def test_json_objects_are_the_recorded_rows():
    reports = [
        _mixed_report(),
        thm4_lower_chain(chi(CTX, 1), 1.5),
        verify_lemma1(CTX, SetFamily("balls", 2), 3),
    ]
    for rep in reports:
        objs = rep.json_objects()
        assert objs[0] == rep.summary()
        assert len(objs) == len(rep.checks) + 1
        assert all(obj is row for obj, row in zip(objs[1:], rep.checks))
        for row in objs[1:]:
            assert next(iter(row.items())) == ("kind", "check")


def _brute_summary(rep):
    statuses = [c["status"] for c in rep.checks]
    counts = {s: statuses.count(s) for s in ("pass", "fail", "informational")}
    if counts["fail"]:
        status = "fail"
    else:
        status = "informational" if rep.informational else "pass"
    tight = None
    for c in rep.checks:
        if c["status"] != "informational" and "margin" in c:
            if tight is None or c["margin"] < tight["margin"]:
                tight = c
    return counts, status, tight


@pytest.mark.parametrize("informational", [False, True])
@pytest.mark.parametrize("fail", [False, True])
def test_summary_equals_a_brute_force_recount(informational, fail):
    rep = _mixed_report(informational)
    if fail:
        # a failing row's margin is below 1, so these two tie for the smallest
        rep.check_le("broken-1", 3, 2)
        rep.check_le("broken-2", 6, 4)
    counts, status, tight = _brute_summary(rep)
    summary = rep.summary()
    assert summary["counts"] == counts == rep.counts()
    assert summary["status"] == status == rep.status
    # tie-1 and tie-2 share the smallest margin 5/4, or broken-1 and
    # broken-2 share 2/3; the first recorded wins
    first, second = (rep.checks[-2], rep.checks[-1]) if fail else (rep.checks[2], rep.checks[4])
    assert first["margin"] == second["margin"]
    assert tight is first
    assert summary["tightest"] == {k: tight[k] for k in ("id", "inequality", "margin")}
    assert rep.tightest() is tight


def test_summary_of_informational_rows_only():
    rep = VerificationReport("t", {})
    rep.info("only", value=1)
    assert rep.summary()["counts"] == {"pass": 0, "fail": 0, "informational": 1}
    assert rep.summary()["status"] == "pass"
    assert "tightest" not in rep.summary()


def test_csv_rows_align_with_header():
    rep = VerificationReport("t", {"k": 2, "n": 3})
    rep.check_le("row", Fraction(1), Fraction(4))
    row = rep.csv_rows()[0]
    assert len(row) == len(CSV_HEADER)
    assert row[0] == "row"
    assert row[1] == "k=2 n=3"
    assert row[5] == "pass"


# -- Theorem batteries ----------------------------------------------------


def test_verify_thm1_certificate():
    fam = SetFamily("sphere-unions", radius=4, budget=31)
    rep = verify_thm1(chi(CTX, 2), fam)
    assert rep.ok
    ids = [c["id"] for c in rep.checks]
    assert any("upper" in i for i in ids)
    assert any("lower" in i for i in ids)


def test_thm1_suite_composition():
    suite = build_thm1_suite(CTX)
    assert len(suite) == 50
    labels = [label for label, _ in suite]
    assert labels[:7] == [f"chi_{n}" for n in range(7)]
    assert sum(1 for l in labels if l.startswith("geometric")) == 3
    assert sum(1 for l in labels if l.startswith("random")) == 40
    # geometric entries are float-coefficient, random entries exact
    assert not suite[7][1].is_exact()
    assert suite[10][1].is_exact()


def test_verify_lemma1_small():
    rep = verify_lemma1(CTX, SetFamily("random-subsets", radius=3, budget=50, seed=4), 6)
    assert rep.ok
    assert rep.counts()["pass"] == 50 * 7
    assert rep.tightest()["margin"] >= 1.0


@pytest.mark.parametrize(
    "fam",
    [SetFamily("sphere-unions", 6), SetFamily("ball-subsets", 1, budget=32)],
    ids=lambda fam: fam.kind,
)
def test_lemma1_integer_verdict_equals_the_fraction_comparison(fam):
    # the pairings are integers, compared as such; each row still shows its
    # lhs as a Fraction and takes the status the exact Fraction test gives
    assert all(
        type(x) is int for _, _, pairs in fgw.operators.self_pairings(CTX, fam, 8) for x in pairs
    )
    rep = verify_lemma1(CTX, fam, 8)
    assert len(rep.checks) == 9 * (127 if fam.kind == "sphere-unions" else 32)
    for c in rep.checks:
        assert type(c["lhs"]) is Fraction and type(c["rhs"]) is int
        assert c["status"] == ("pass" if c["lhs"] <= c["rhs"] else "fail")
    assert rep.ok


def test_verify_r22_small():
    rep = verify_r22(CTX, SetFamily("sphere-unions", radius=4, budget=31), 5)
    assert rep.ok


@st.composite
def _verifier_cases(draw):
    kind = draw(
        st.sampled_from(["spheres", "balls", "sphere-unions", "ball-subsets", "random-subsets"])
    )
    if kind == "ball-subsets":
        # every subset of the ball, the empty sub0 included, fits the budget
        radius = draw(st.integers(0, 1))
        count = 2 ** ball_size(CTX, radius)
        return SetFamily(kind, radius, draw(st.integers(count, count + 40))), draw(st.integers(-1, 6))
    if kind == "random-subsets":
        fam = SetFamily(kind, draw(st.integers(0, 2)), draw(st.integers(1, 8)), draw(st.integers(0, 99)))
        return fam, draw(st.integers(-1, 6))
    radius = draw(st.integers(0, 5))
    # budgets on both sides of the candidate count
    count = 2 ** (radius + 1) - 1 if kind == "sphere-unions" else radius + 1
    budget = draw(st.one_of(st.integers(1, count), st.integers(count + 1, count + 40)))
    return SetFamily(kind, radius, budget), draw(st.integers(-1, 6))


def _oracle_rows(fam, top):
    """Per candidate E: label, |E|, <chi_k * chi_E, chi_E> and the sup over F, k <= top.

    Radial candidates stay in the radial algebra, with chi_E a
    RadialFunction and <h, chi_E> = sum over r in E of h_r |S_r|;
    explicit ones are paired and convolved by enumeration.
    """
    rows = []
    if fam.kind in RADIAL_KINDS:
        for radii, label in radial_candidates(fam):
            indicator = RadialFunction(CTX, tuple(int(r in radii) for r in range(radii[-1] + 1)))
            hs = [convolve_radial(chi(CTX, n), indicator) for n in range(top + 1)]
            pairings = [
                sum((h.coefficient(r) * sphere_size(CTX, r) for r in radii), Fraction(0))
                for h in hs
            ]
            sups = [best_F_ratio(h, 2.0)[0] for h in hs]
            rows.append((label, sum(sphere_size(CTX, r) for r in radii), pairings, sups))
        return rows
    for E in candidate_sets(CTX, fam):
        indicator = FunctionOnGroup(CTX, dict.fromkeys(E.iter_words(), Fraction(1)))
        pairings = [pairing(chi(CTX, k), E, E) for k in range(top + 1)]
        sups = [
            best_F_ratio(left_convolve(chi(CTX, n), indicator), 2.0)[0] for n in range(top + 1)
        ]
        rows.append((E.label, E.size, pairings, sups))
    return rows


@settings(max_examples=40, deadline=None)
@given(_verifier_cases())
def test_radial_lemma1_and_r22_match_fraction_oracles(case):
    fam, top = case
    if top < 0:
        # an empty index range would pass with no checks at all
        with pytest.raises(ValueError, match="^k_max must be nonnegative$"):
            verify_lemma1(CTX, fam, top)
        with pytest.raises(ValueError, match="^n_max must be nonnegative$"):
            verify_r22(CTX, fam, top)
        return
    q = CTX.q
    rows = _oracle_rows(fam, top)
    lemma1 = verify_lemma1(CTX, fam, top)
    assert [(c["id"], c["lhs"], c["rhs"]) for c in lemma1.checks] == [
        (f"lemma1:k={k}:E={label}", lhs, 2 * q ** (k // 2) * size)
        for label, size, pairings, _ in rows
        for k, lhs in enumerate(pairings)
    ]
    # an exact lhs renders as a quoted rational
    assert all(type(c["lhs"]) is Fraction for c in lemma1.checks)
    r22 = verify_r22(CTX, fam, top)
    assert [(c["id"], c["lhs"], c["rhs"]) for c in r22.checks] == [
        (f"r22:n={n}:E={label}", sup, 2.0 * float(q) ** (1.5 + 0.5 * n) * math.sqrt(size))
        for label, size, _, sups in rows
        for n, sup in enumerate(sups)
    ]


def test_thm3_equivalence_bands():
    rep = thm3_equivalence_report(CTX, samples=12, seed=3, fam=SetFamily("sphere-unions", radius=5))
    assert rep.ok
    lo, hi = rep.params["ratio_band"]
    assert 0 < lo <= hi < 25 * lo
    llo, lhi = rep.params["lower_ratio_band"]
    assert llo >= 0.5


def test_thm3_rejects_zero_samples():
    with pytest.raises(ValueError, match="samples"):
        thm3_equivalence_report(CTX, samples=0)


def test_thm4_lower_chain_hand_case():
    # f = chi_1, p = 1.5, p' = 3: chi_1*chi_1 = 4 chi_0 + chi_2 at k=2,
    # so the n=1 row reads (4^3 + 12)/3 >= (2/3)^3 * 9
    rep = thm4_lower_chain(chi(CTX, 1), 1.5)
    assert rep.ok
    row = {c["id"]: c for c in rep.checks}["thm4:n=1"]
    assert math.isclose(row["rhs"], 76.0 / 3.0)
    assert math.isclose(row["lhs"], (2.0 / 3.0) ** 3 * 9.0)
    assert rep.params["p_prime"] == 3.0


@pytest.mark.parametrize("p", [1.25, 1.5, 1.75])
def test_thm4_chain_rows_hold_at_relative_tolerance(p):
    # a chain row (lhs >= slack * target, written as slack * target <= lhs)
    # holds when slack * target <= lhs * (1 + 1e-9), in floats
    slack = (2.0 / 3.0) ** (p / (p - 1.0))
    for label, f in build_thm1_suite(CTX):
        rep = thm4_lower_chain(f, p)
        assert rep.params["rel_tol"] == 1e-9
        target = radial_power_sum(f, p)
        rows = [c for c in rep.checks if c["id"].startswith("thm4:n=")]
        assert len(rows) == 4, label
        for row in rows:
            assert row["lhs"] == slack * target
            holds = slack * target <= row["rhs"] * (1 + 1e-9)
            assert row["status"] == ("pass" if holds else "fail"), (label, row["id"])


@pytest.mark.parametrize("p", [1.25, 1.5, 1.75])
def test_thm4_conclusion_is_the_weighted_sum_bit_for_bit(p):
    for label, f in build_thm1_suite(CTX):
        row = {c["id"]: c for c in thm4_lower_chain(f, p).checks}["thm4:conclusion"]
        assert row["weighted_sum"].hex() == radial_weighted_sum(f, p).hex(), label


def test_thm4_validates_inputs():
    with pytest.raises(ValueError):
        thm4_lower_chain(chi(CTX, 1), 2.0)
    with pytest.raises(ValueError):
        thm4_lower_chain(RadialFunction(CTX, (Fraction(-1),)), 1.5)


def test_thm5_exponent_fit_passes():
    rep = thm5_exponent_fit(CTX, 1.0, math.inf)
    assert rep.ok
    assert abs(rep.params["fitted_slope"] - rep.params["expected_slope"]) <= 0.15
    rep2 = thm5_exponent_fit(CTX, 1.5, 3.0)
    assert rep2.ok


def test_float_chains_pinned():
    # reports print 12 digits; these repr values (from the Fraction-loop
    # product) catch drift in the last place of the float products
    rep = thm5_exponent_fit(CTX, 2.0, 2.0)
    assert repr(rep.params["fitted_slope"]) == "0.8552195736494775"
    row = {c["id"]: c for c in rep.checks}["thm5:n=40"]
    assert repr(row["ratio"]) == "69180776299.79839"
    q = float(CTX.q)
    f = RadialFunction(CTX, tuple(q ** (-0.5 * n) for n in range(7)))
    first = thm4_lower_chain(f, 1.5).checks[0]
    assert (repr(first["lhs"]), repr(first["rhs"])) == ("18.52345496248752", "306.0020988963831")


_NONNEG_EXACT = st.fractions(min_value=0, max_value=20, max_denominator=10**6)
_NONNEG_FLOAT = st.floats(min_value=0, max_value=20, allow_nan=False)
# exact, float or mixed coefficients
_CHAIN_COEFF = st.sampled_from(
    [_NONNEG_EXACT, _NONNEG_FLOAT, st.one_of(_NONNEG_EXACT, _NONNEG_FLOAT)]
)
_CHAIN_F = st.builds(
    lambda k, cs: RadialFunction(FreeGroupCtx(k), tuple(cs)),
    st.sampled_from([2, 3]),
    _CHAIN_COEFF.flatmap(lambda coeff: st.lists(coeff, min_size=1, max_size=7)),
).filter(lambda f: not f.is_zero())


@settings(max_examples=100, deadline=None)
@given(f=_CHAIN_F)
def test_thm3_pair_value_equals_fraction_path(f):
    ctx = f.ctx
    want = 0.0
    for n in range(f.degree + 3):
        h = convolve_radial(f, chi(ctx, n))
        for m in (n, n + 1):
            val = float(h.coefficient(m) * sphere_size(ctx, m))
            val /= math.sqrt(sphere_size(ctx, n) * sphere_size(ctx, m))
            want = max(want, val)
    got = _sphere_pair_best(f)
    assert repr(got) == repr(want)


@settings(max_examples=100, deadline=None)
@given(f=_CHAIN_F, p=st.floats(min_value=1.05, max_value=1.95))
def test_thm4_chain_equals_fraction_path(f, p):
    ctx = f.ctx
    q = float(ctx.q)
    pp = p / (p - 1.0)
    rows = [c for c in thm4_lower_chain(f, p).checks if c["id"].startswith("thm4:n=")]
    assert len(rows) == 4
    for n, row in zip(range(f.degree, f.degree + 4), rows):
        h = convolve_radial(f, chi(ctx, n))
        norm_pp = math.fsum(
            float(c) ** pp * float(sphere_size(ctx, l)) for l, c in h.nonzero_items()
        )
        # check_ge stores the chain's side as rhs
        assert repr(row["rhs"]) == repr(norm_pp / q**n)


def test_thm5_rejects_degenerate_window():
    with pytest.raises(ValueError):
        thm5_exponent_fit(CTX, 1.0, 2.0, n_range=range(4, 10))
    with pytest.raises(ValueError):
        thm5_exponent_fit(CTX, 3.0, 2.0)


def _hex_runs(r):
    return [(v.hex(), m) for v, m in r.pairs]


@pytest.mark.parametrize("k, ns", [(2, range(4, 41)), (3, range(10, 61))])
def test_thm5_runs_equal_fresh_rearrangements(k, ns):
    ctx = FreeGroupCtx(k)
    q = float(ctx.q)
    coeffs = tuple(q ** (-0.5 * j) for j in range(2 * max(ns) + 1))
    _thm5_runs.cache_clear()
    longest, products = _thm5_runs(ctx, tuple(ns))
    assert _hex_runs(longest) == _hex_runs(rearrange_radial(RadialFunction(ctx, coeffs)))
    assert len(products) == len(ns)
    for n, got in zip(ns, products):
        _, h = sphere_product(RadialFunction(ctx, coeffs[: 2 * n + 1]), n)
        assert _hex_runs(got) == _hex_runs(rearrange_spheres(ctx, h)), n


def _thm5_bytes(k, s, t, ns):
    return json_dumps(thm5_exponent_fit(FreeGroupCtx(k), s, t, n_range=ns).json_objects())


def test_thm5_reports_do_not_depend_on_earlier_windows():
    # a memo keyed without the window or without the group would hand
    # one call the runs of another: interleave both kinds of change
    default = range(4, 41)
    calls = [(2, s, t, default) for s, t in THM5_PAIRS]
    calls += [(2, s, t, default) for s, t in reversed(THM5_PAIRS)]
    calls += [
        (2, 2.0, 2.0, default),
        (3, 2.0, 2.0, default),
        (2, 1.5, 3.0, default),
        (2, 1.5, 3.0, range(10, 61)),
        (2, 1.0, math.inf, default),
        (3, 1.5, 3.0, range(10, 61)),
        (2, 1.0, 2.0, range(10, 61)),
        (2, 1.0, 2.0, default),
    ]
    got = [_thm5_bytes(*call) for call in calls]
    want = []
    for call in calls:
        _thm5_runs.cache_clear()
        want.append(_thm5_bytes(*call))
    assert got == want
    assert _thm5_runs.cache_info().currsize == 1


def test_verify_p_columns_equality_at_even_k():
    rep = verify_p_columns(CTX, 4, radius=5)
    assert rep.ok
    rows = {c["id"]: c for c in rep.checks}
    for k in (0, 2, 4):
        row = rows[f"pk:k={k}:equality"]
        assert row["margin"] == 1.0


@pytest.mark.parametrize("k", [2, 3])
def test_column_verdicts_are_the_exact_ok(k):
    # every pk and qn verdict is _column_sup's exact ok at radius 8, the
    # tight qn:n=6:alpha=-0.5 (243 <= 243.0 on F_2) a pass
    ctx = FreeGroupCtx(k)
    reps = {}
    for kk in range(7):
        reps[f"pk:k={kk}"] = column_l1_sup("P", {"k": kk}, 8, ctx)
    for n in range(7):
        alphas = [tw / 2.0 for tw in range(-n, n + 1)]
        for a in alphas:
            reps[f"qn:n={n}:alpha={fgw.reportio.render_number(a)}"] = column_l1_sup(
                "Q", {"n": n, "alpha": a}, 8, ctx
            )
        if n >= 1:
            reps[f"qn:n={n}:alpha={n}:full-cancellation"] = column_l1_sup(
                "Q", {"n": n, "alpha": float(n)}, 8, ctx
            )
    rows = verify_p_columns(ctx, 6, 8).checks + verify_q_columns(ctx, 6, 8).checks
    checked = [row for row in rows if row["id"] in reps]
    assert len(checked) == len(reps)
    for row in checked:
        ok = reps[row["id"]]["ok"]
        if row["status"] == "informational":
            assert row["holds"] is ok
        else:
            assert row["status"] == ("pass" if ok else "fail"), row["id"]
    if k == 2:
        (tight,) = [row for row in rows if row["id"] == "qn:n=6:alpha=-0.5"]
        assert (tight["lhs"], tight["rhs"], tight["status"]) == (243, 243.0, "pass")


def test_verify_q_columns_documents_alpha_n():
    rep = verify_q_columns(CTX, 5, radius=5)
    doc = [c for c in rep.checks if "full-cancellation" in c["id"]]
    assert doc
    for row in doc:
        assert row["status"] == "informational"
        n = int(row["id"].split("n=")[1].split(":")[0])
        assert row["expected_to_hold"] is (n < 4)
        if n >= 4:
            assert row["holds"] is False


def test_verify_q_columns_finds_negative_alpha_counterexample():
    # The column mass bound q^(3/2 - alpha + n/2) fails for some alpha < 0:
    # at alpha = -1 every length-5 product off x = aaa keeps |wx| <= 8 <= q*|x|,
    # so the whole sphere S_5 (324 words) is accepted while the bound is 243.
    # The verifier must report this honestly instead of masking it.
    rep = verify_q_columns(CTX, 5, radius=5)
    assert rep.ok is False
    failing = [c for c in rep.checks if c["status"] == "fail"]
    assert [c["id"] for c in failing] == ["qn:n=5:alpha=-1"]
    row = failing[0]
    assert row["lhs"] == 324
    assert row["rhs"] == 243.0
    assert "aaa" in row["note"]
    # Nonnegative alpha rows all hold on this grid.
    for c in rep.checks:
        if c["status"] != "informational" and "alpha=-" not in c["id"]:
            assert c["status"] == "pass"


def test_column_sup_negative_alpha_counterexample_small_n():
    # Smallest violation: n = 4, alpha = -1/2.  For x = a^6 every w in S_4
    # gives |wx| = 10 - 2c <= 10 <= q^(1/2)*6, so all 108 sphere words are
    # accepted while the claimed bound is q^4 = 81.  Needs radius >= 6.
    from fgw.operators import column_l1_sup

    report = column_l1_sup("Q", {"n": 4, "alpha": -0.5}, 6, CTX)
    assert report["sup"] == 108
    assert report["bound"] == 81.0
    assert report["ok"] is False
    assert report["witness"] == "aaaaaa"

    below = column_l1_sup("Q", {"n": 4, "alpha": -0.5}, 5, CTX)
    assert below["sup"] <= 81
    assert below["ok"] is True


def test_conjecture_scan_is_informational():
    rep = conjecture_scan(CTX, s_grid=(1.0, 2.0), fam=SetFamily("sphere-unions", radius=4))
    assert rep.status == "informational"
    assert rep.counts()["fail"] == 0
    sample = [c for c in rep.checks if "functional" in c][0]
    assert {"estimate_sq", "functional", "functional_negative_sign"} <= set(sample)
    with pytest.raises(ValueError, match="^the grid holds no s$"):
        conjecture_scan(CTX, s_grid=[])


def test_negative_index_maxima_are_refused():
    # a negative maximum would pass with no checks at all
    fam = SetFamily("random-subsets", 2, budget=3)
    with pytest.raises(ValueError, match="^k_max must be nonnegative$"):
        verify_lemma1(CTX, fam, -1)
    with pytest.raises(ValueError, match="^n_max must be nonnegative$"):
        verify_r22(CTX, fam, -1)
    with pytest.raises(ValueError, match="^k_max must be nonnegative$"):
        verify_p_columns(CTX, -1, 2)
    with pytest.raises(ValueError, match="^n_max must be nonnegative$"):
        verify_q_columns(CTX, -1, 2)


def test_verify_display_majorization_passes():
    rep = verify_display_majorization(CTX)
    assert rep.ok
    assert rep.params["triples_checked"] > 0


def test_sample_radial_is_nonzero_nonnegative():
    import random as _random

    rng = _random.Random(0)
    for _ in range(50):
        f = sample_radial(CTX, rng, 6)
        assert not f.is_zero()
        assert f.is_nonnegative()
        assert f.degree <= 6
    with pytest.raises(ValueError, match="max_degree"):
        sample_radial(CTX, rng, -1)


def test_theorems_only_states_inequalities():
    # the family fork (radial sweep or explicit enumeration) and the
    # integer scaling live in operators and radial, behind public names
    source = Path(fgw.theorems.__file__).read_text(encoding="utf-8")
    tree = ast.parse(source)
    private = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in ("operators", "radial")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
    assert "RADIAL_KINDS" not in source
