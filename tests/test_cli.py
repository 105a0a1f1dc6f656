"""Command-line front end: formats, exit codes, determinism.

Core claims:
    - convolve emits the exact coefficient table and the oracle cross-check
    - norms evaluates Lorentz norms of radial literals
    - search reports the estimator record with the witness set label
    - verify emits CSV with the fixed header and JSON row objects, and
      builds only the format it writes
    - a violated inequality is printed to stderr and exits 1
    - verify all exits 1 at the documented qn violation, and qn runs past
      the radius the old column scan was capped at
    - usage errors, malformed literals, degenerate fits, --samples 0,
      --max-degree -1 and the removed --threads option exit 2
    - bad --samples, --max-degree, --p, --s, --t, --f and fit windows, and
      a negative --k-max or --n-max, exit 2 with a message naming the
      option, before any verifier runs
    - norms with a malformed --s or an index out of range exits 2 with a
      message naming the option
    - conjecture with an empty --s-grid or a value outside [1, 2] exits 2
      with a message naming --s-grid, before any estimate runs
    - verify all on an explicit family past r22's pair budget exits 2
      with r22's message before lemma1 runs
    - verify all leaves the chi, sphere_size and product-row caches holding
      only the indices it used, and thm5's memo holding its one fit window,
      so repeated runs do not grow them
    - a ball-subsets family past its budget exits 2 and states its need as
      a power of two, however large the ball
    - random-subsets and greedy searches, and lemma1 and r22 on
      random-subsets, exit 2 before the ball is enumerated when the first
      candidate is past the pair budget; an oversized ball still reports
      first
    - ball-subsets searches and r22 exit 2 before the ball is enumerated,
      naming the first subset past the pair budget; a subset count past
      the budget still reports first
    - a ball-subsets search and r22 whose every subset fits the pair
      budget, but whose 2^53 subsets together do not, exit 2 in under a
      second, before the ball is enumerated, naming the family's pairs
    - thm5 with an infinite target index reports it as "inf", and one
      near the float maximum (t = 1e307) exits 0
    - thm5 and norms run past float-range sphere counts (exit 0); a norm
      itself past float range exits 2, and so does a thm5 window whose f_n
      has coefficients below the normal floats, before any verifier runs
    - a weak search whose square sum is past float range, though its
      estimate is not (--f 1e153, 1e200), exits 0 with that estimate; a
      search estimate itself past float range (--f 1e400) exits 2
    - CSV params render numbers canonically, at most 12 significant digits
    - JSON strings escape '"', backslash, \n, \t, \r and other control
      characters, and pass non-ASCII through
    - --output writes the same bytes that would go to stdout, an
      unwritable --output exits 2 before any verifier runs, and a usage or
      budget error leaves an existing --output file as it was and creates
      no new one
"""

import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import time

import pytest

import fgw.words
from fgw.cli import main
from fgw.reportio import json_dumps
from fgw.words import FreeGroupCtx, sphere_size

RUNNER = "import sys; from fgw.cli import main; sys.exit(main())"
# the child imports the same fgw as the tests, installed or not
SRC = os.path.dirname(os.path.dirname(os.path.abspath(fgw.__file__)))


def run_cli(args):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", RUNNER, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


# -- convolve ---------------------------------------------------------------


def test_convolve_golden_table(capsys):
    code = main(["convolve", "--n", "2", "--m", "2", "--oracle"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out) == {"0": "12", "2": "2", "4": "1", "oracle_match": True}


def test_convolve_rejects_csv(capsys):
    code = main(["convolve", "--n", "1", "--m", "1", "--format", "csv"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")


# -- norms ------------------------------------------------------------------


def test_norms_l2_of_unit_ball_indicator(capsys):
    # chi_0 + chi_1 is the indicator of the 5-point unit ball, so the
    # (2,2) norm is sqrt(5).
    code = main(["norms", "--p", "2", "--s", "2", "--radial", "1,1"])
    out = capsys.readouterr().out
    assert code == 0
    (record,) = json.loads(out)
    assert record["kind"] == "norm"
    assert math.isclose(record["value"], math.sqrt(5), rel_tol=1e-9)


def test_norms_weak_index_spelled_inf(capsys):
    code = main(["norms", "--p", "2", "--s", "inf", "--radial", "0,1"])
    out = capsys.readouterr().out
    assert code == 0
    (record,) = json.loads(out)
    assert record["s"] == "inf"
    assert record["value"] > 0


def test_norms_malformed_literal_exits_2(capsys):
    code = main(["norms", "--p", "2", "--s", "1", "--radial", "1,x"])
    err = capsys.readouterr().err
    assert code == 2
    assert "malformed radial literal" in err


@pytest.mark.parametrize(
    "args, message",
    [
        (["--p", "2", "--s", "abc"], "error: --s: could not convert string to float: 'abc'\n"),
        (["--p", "1", "--s", "2"], "error: --p/--s: first index p must exceed 1\n"),
        (["--p", "2", "--s=-inf"], "error: --p/--s: second index s must be >= 1 or infinity\n"),
    ],
    ids=["s", "p", "s-negative-inf"],
)
def test_norms_index_errors_name_the_option(capsys, args, message):
    code = main(["norms", *args, "--radial", "1,1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == message


# -- search -----------------------------------------------------------------


def test_search_record_fields(capsys):
    code = main(
        [
            "search",
            "--f",
            "0,1",
            "--family",
            "sphere-unions",
            "--radius",
            "4",
            "--seed",
            "0",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    (record,) = json.loads(out)
    assert {"kind", "estimator", "f", "estimate", "E", "j", "family", "seed", "budget"} <= set(record)
    assert record["estimator"] == "restricted"
    assert record["family"] == "sphere-unions"
    assert record["E"].startswith("U")
    assert record["estimate"] > 0

    from fgw.operators import SetFamily, restricted_weak_estimate
    from fgw.radial import parse_radial_literal
    from fgw.words import FreeGroupCtx, sphere_size

    ctx = FreeGroupCtx(2)
    direct = restricted_weak_estimate(
        parse_radial_literal(ctx, "0,1"), SetFamily("sphere-unions", radius=4)
    )
    assert math.isclose(record["estimate"], direct["estimate"], rel_tol=1e-9)
    assert record["E"] == direct["E"]


def test_search_invalid_family_exits_2():
    proc = run_cli(["search", "--f", "0,1", "--family", "bogus"])
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr


def test_ball_subsets_over_budget_exits_2():
    # 2^|B_9| has about 11850 digits, past int-to-str's default limit
    proc = run_cli(["search", "--f", "0,1", "--family", "ball-subsets", "--radius", "9"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: budget exceeded: subset enumeration needs 2^39365, cap is 1000\n"
    )


@pytest.mark.parametrize(
    "args, need",
    [
        # |S_1| times the first seeded draw, 6463344 of the 9565937 words of B_14
        (["--f", "0,1", "--family", "random-subsets", "--radius", "14", "--budget", "1"],
         "convolution enumeration needs 25853376, cap is 20000000"),
        # |S_16| times one word
        (["--f", "0," * 16 + "1", "--family", "greedy", "--radius", "2"],
         "convolution enumeration needs 57395628, cap is 20000000"),
        # the ball's own cap still comes first
        (["--f", "0,1", "--family", "random-subsets", "--radius", "15"],
         "ball enumeration needs 28697813, cap is 10000000"),
    ],
    ids=["random-subsets", "greedy", "ball-cap-first"],
)
def test_explicit_search_budget_fires_before_the_ball_is_built(capsys, monkeypatch, args, need):
    import fgw.operators

    def no_ball(*args, **kwargs):
        raise AssertionError("the ball was enumerated before the budget check")

    monkeypatch.setattr(fgw.operators, "_ball_keys", no_ball)
    code = main(["search", *args])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: budget exceeded: {need}\n"


@pytest.mark.parametrize(
    "target, radius, need",
    [
        # the first seeded draw, 6463344 of the 9565937 words of B_14, paired with itself
        ("lemma1", "14", "pair enumeration needs 41774815662336, cap is 20000000"),
        # |S_1| times the same draw
        ("r22", "14", "convolution enumeration needs 25853376, cap is 20000000"),
        # B_9 fits SPHERE_CAP, but its first draw of 25248 words is past the
        # pair budget: 25248^2 pairs, and |S_6| x 25248 at the default n_max
        ("lemma1", "9", "pair enumeration needs 637461504, cap is 20000000"),
        ("r22", "9", "convolution enumeration needs 24541056, cap is 20000000"),
        # the ball's own cap still comes first
        ("r22", "15", "ball enumeration needs 28697813, cap is 10000000"),
    ],
    ids=["lemma1-14", "r22-14", "lemma1-9", "r22-9", "ball-cap-first"],
)
def test_explicit_verify_budget_fires_before_the_ball_is_built(
    capsys, monkeypatch, target, radius, need
):
    import fgw.operators

    def no_ball(*args, **kwargs):
        raise AssertionError("the ball was enumerated before the budget check")

    monkeypatch.setattr(fgw.operators, "_ball_keys", no_ball)
    args = ["--family", "random-subsets", "--radius", radius, "--budget", "1"]
    code = main(["verify", target, *args])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: budget exceeded: {need}\n"


@pytest.mark.parametrize(
    "args, need",
    [
        # B_9 has 39365 words; each first draw passes, the second does not:
        # 3707 then 12896 words, 12896^2 pairs
        (["verify", "lemma1", "--seed", "2"], "pair enumeration needs 166306816"),
        # 805 then 22644 words, |S_5| x 22644 at the default n_max
        (["verify", "r22", "--seed", "31"], "convolution enumeration needs 22009968"),
        # 16741 then 38743 words, |S_6| x 38743 for f = chi_6
        (
            ["search", "--f", "0,0,0,0,0,0,1", "--seed", "5"],
            "convolution enumeration needs 37658196",
        ),
        (
            ["search", "--f", "0,0,0,0,0,0,1", "--estimator", "weak", "--seed", "5"],
            "convolution enumeration needs 37658196",
        ),
    ],
    ids=["lemma1", "r22", "restricted", "weak"],
)
def test_later_draw_budget_fires_before_the_ball_is_built(capsys, monkeypatch, args, need):
    import fgw.operators

    def no_ball(*args, **kwargs):
        raise AssertionError("the ball was enumerated before the budget check")

    monkeypatch.setattr(fgw.operators, "_ball_keys", no_ball)
    family = ["--family", "random-subsets", "--radius", "9", "--budget", "2"]
    code = main([*args, *family])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: budget exceeded: {need}, cap is 20000000\n"


# B_3 has 53 words and the budget admits all 2^53 subsets; the first past
# the pair budget is the 29-word set at mask 2^29 - 1: |S_12| x 29 pairs
B3_ALL = ["--radius", "3", "--budget", str(2**53)]
B3_NEED = "convolution enumeration needs 20549052, cap is 20000000"
# every subset of B_9 is past the pair budget too, but the subset count comes first
B9_NEED = "subset enumeration needs 2^39365, cap is 1000"


@pytest.mark.parametrize(
    "args, need",
    [
        (["search", "--f", "0," * 12 + "1", *B3_ALL], B3_NEED),
        (["search", "--f", "0," * 12 + "1", "--estimator", "weak", *B3_ALL], B3_NEED),
        (["verify", "r22", "--n-max", "12", *B3_ALL], B3_NEED),
        (["search", "--f", "0,0,0,0,0,0,1", "--radius", "9"], B9_NEED),
        (["verify", "r22", "--radius", "9"], B9_NEED),
    ],
    ids=["restricted", "weak", "r22", "subset-count-first", "r22-subset-count-first"],
)
def test_ball_subsets_budget_fires_before_the_ball_is_built(capsys, monkeypatch, args, need):
    import fgw.operators

    def no_ball(*args, **kwargs):
        raise AssertionError("the ball was enumerated before the budget check")

    monkeypatch.setattr(fgw.operators, "_ball_keys", no_ball)
    code = main([*args, "--family", "ball-subsets"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: budget exceeded: {need}\n"


# f = chi_1 pairs each word of a subset with |S_1| = 4 words, and r22 at
# the default n_max = 8 with sum_{n<=8} |S_n| = 13121; the 2^53 subsets of
# B_3 hold 53 * 2^52 words in all
@pytest.mark.parametrize(
    "args, need",
    [
        (["search", "--f", "0,1"], 4 * 53 * 2**52),
        (["verify", "r22"], 13121 * 53 * 2**52),
    ],
    ids=["search", "r22"],
)
def test_ball_subsets_family_past_its_summed_pair_budget_exits_2(capsys, monkeypatch, args, need):
    import fgw.operators

    def no_ball(*args, **kwargs):
        raise AssertionError("the ball was enumerated before the budget check")

    monkeypatch.setattr(fgw.operators, "_ball_keys", no_ball)
    start = time.perf_counter()
    code = main([*args, "--family", "ball-subsets", *B3_ALL])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        f"error: budget exceeded: family pair enumeration needs {need}, "
        f"cap is {fgw.words.FAMILY_PAIR_BUDGET}\n"
    )
    assert elapsed < 1.0


def test_verify_threads_option_is_gone():
    proc = run_cli(["verify", "lemma1", "--threads", "2"])
    assert proc.returncode == 2
    assert "unrecognized arguments: --threads 2" in proc.stderr
    assert proc.stdout == ""


# -- verify: formats and exit codes ------------------------------------------


def test_verify_csv_header_and_rows(capsys):
    code = main(
        [
            "verify",
            "lemma1",
            "--k-max",
            "3",
            "--family",
            "sphere-unions",
            "--radius",
            "3",
            "--format",
            "csv",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "id,params,lhs,rhs,margin,status"
    assert len(lines) > 1
    assert all(line.split(",")[-1] == "pass" for line in lines[1:])


@pytest.mark.parametrize("fmt, unbuilt", [("csv", "json_objects"), ("json", "csv_rows")])
def test_verify_builds_only_the_format_it_writes(capsys, monkeypatch, fmt, unbuilt):
    import fgw.theorems

    args = ["verify", "lemma1", "--k-max", "3", "--radius", "3", "--format", fmt]
    assert main(args) == 0
    expected = capsys.readouterr().out

    def not_written(self):
        raise RuntimeError(f"{unbuilt} built for --format {fmt}")

    monkeypatch.setattr(fgw.theorems.VerificationReport, unbuilt, not_written)
    assert main(args) == 0
    assert capsys.readouterr().out == expected


def test_verify_violation_exits_1_with_witness(capsys):
    # The column-mass bound fails honestly at n = 5, alpha = -1 inside the
    # ball of radius 5; the CLI must surface it and exit 1.
    code = main(["verify", "qn", "--n-max", "5", "--radius", "5"])
    captured = capsys.readouterr()
    assert code == 1
    assert "violated: qn:n=5:alpha=-1: 324 <= 243" in captured.err
    rows = json.loads(captured.out)
    failing = [r for r in rows if "id" in r and r["status"] == "fail"]
    assert [r["id"] for r in failing] == ["qn:n=5:alpha=-1"]
    (summary,) = [r for r in rows if r.get("kind") == "summary"]
    assert summary["status"] == "fail"


def _failing_ids(out):
    return [r["id"] for r in json.loads(out) if "id" in r and r["status"] == "fail"]


QN_DEFAULT_FAILURES = [
    "qn:n=4:alpha=-0.5",
    "qn:n=5:alpha=-1",
    "qn:n=5:alpha=-0.5",
    "qn:n=6:alpha=-1.5",
    "qn:n=6:alpha=-1",
]


def test_verify_all_exits_1_at_the_qn_violation(capsys):
    code = main(["verify", "all"])
    captured = capsys.readouterr()
    assert code == 1
    assert "violated: qn:n=4:alpha=-0.5: 108 <= 81" in captured.err
    assert _failing_ids(captured.out) == QN_DEFAULT_FAILURES


def test_verify_qn_has_no_radius_cap(capsys):
    # Radius 20 would take 7e9 products to scan; the closed-form columns
    # also find the sixth failing point, which needs radius >= 9.
    code = main(["verify", "qn", "--n-max", "6", "--radius", "20"])
    captured = capsys.readouterr()
    assert code == 1
    assert "violated: qn:n=4:alpha=-0.5: 108 <= 81" in captured.err
    assert _failing_ids(captured.out) == QN_DEFAULT_FAILURES + ["qn:n=6:alpha=-0.5"]


def test_verify_qn_clean_grid_exits_0(capsys):
    code = main(["verify", "qn", "--n-max", "4", "--radius", "5"])
    captured = capsys.readouterr()
    assert code == 0
    rows = json.loads(captured.out)
    info = [r for r in rows if "id" in r and r["status"] == "informational"]
    assert any("full-cancellation" in r["id"] for r in info)


def test_verify_pk_equality_rows(capsys):
    code = main(["verify", "pk", "--k-max", "4", "--radius", "4"])
    out = capsys.readouterr().out
    assert code == 0
    rows = [r for r in json.loads(out) if "id" in r]
    for k in (0, 2, 4):
        (row,) = [r for r in rows if r["id"] == f"pk:k={k}:equality"]
        assert row["margin"] == 1.0
        assert row["status"] == "pass"


def test_verify_thm5_degenerate_window_exits_2(capsys):
    code = main(
        ["verify", "thm5", "--s", "2", "--t", "2", "--n-min", "4", "--fit-n-max", "9"]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "degenerate fit" in err


def test_verify_thm5_infinite_target_index(capsys):
    code = main(["verify", "thm5", "--s", "2", "--t", "inf"])
    out = capsys.readouterr().out
    assert code == 0
    (summary,) = [r for r in json.loads(out) if r.get("kind") == "summary"]
    assert summary["params"]["t"] == "inf"
    assert summary["status"] == "pass"


def test_verify_thm5_target_index_near_float_maximum(capsys):
    # t * log(count) overflowed and made the numerator's norm nan
    code = main(["verify", "thm5", "--s", "1", "--t", "1e307"])
    out = capsys.readouterr().out
    assert code == 0
    (summary,) = [r for r in json.loads(out) if r.get("kind") == "summary"]
    assert summary["status"] == "pass"


@pytest.mark.parametrize(
    "s, t, n_min, n_max",
    [
        # (|B_{3n}|)^{t/2} leaves float range: _pow_diff raised OverflowError
        ("1.5", "3", "153", "160"),
        # |B_{3n}| itself leaves float range: int too large to convert to float
        ("2", "2", "393", "400"),
    ],
)
def test_verify_thm5_past_float_counts(capsys, s, t, n_min, n_max):
    # sphere counts past float range take the log-scaled path; the fitted
    # slope stays inside the check's tolerance
    code = main(["verify", "thm5", "--s", s, "--t", t, "--n-min", n_min, "--fit-n-max", n_max])
    out = capsys.readouterr().out
    assert code == 0
    (summary,) = [r for r in json.loads(out) if r.get("kind") == "summary"]
    assert summary["status"] == "pass"
    ratios = [r["ratio"] for r in json.loads(out) if r.get("id", "").startswith("thm5:n=")]
    assert len(ratios) == int(n_max) - int(n_min) + 1
    assert ratios == sorted(ratios)


def test_norms_past_float_counts(capsys):
    # ||chi_700||_(2,2) = |S_700|^{1/2}, about 1.13e167, though |S_700|
    # is no float
    code = main(["norms", "--p", "2", "--s", "2", "--radial", "0," * 700 + "1"])
    out = capsys.readouterr().out
    assert code == 0
    (record,) = json.loads(out)
    want = math.exp(0.5 * math.log(sphere_size(FreeGroupCtx(2), 700)))
    assert math.isclose(record["value"], want, rel_tol=1e-11)  # 12 rendered digits
    # a norm itself past float range is a usage error, exit 2
    code = main(["norms", "--p", "2", "--s", "2", "--radial", "0," * 1400 + "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "out of float range" in captured.err


RANDOM_SUBSETS = ["--family", "random-subsets", "--radius", "3", "--budget", "12"]


@pytest.mark.parametrize(
    "f, family",
    [("1e153", []), ("1e200", []), ("1e153", RANDOM_SUBSETS), ("1e200", RANDOM_SUBSETS)],
)
def test_weak_search_past_float_squares(capsys, f, family):
    # sq / D^2 overflowed before the root was taken; f = c chi_0 gives
    # f * chi_E = c chi_E, whose estimate is c on every E
    code = main(["search", "--estimator", "weak", "--f", f, *family])
    out = capsys.readouterr().out
    assert code == 0
    (record,) = json.loads(out)
    assert record["estimate"] == float(f)


@pytest.mark.parametrize("estimator", ["weak", "restricted"])
@pytest.mark.parametrize("family", [[], RANDOM_SUBSETS])
def test_search_estimate_past_float_range_exits_2(capsys, estimator, family):
    code = main(["search", "--estimator", estimator, "--f", "1e400", *family])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "float" in captured.err


def test_verify_zero_samples_is_a_usage_error(capsys, monkeypatch):
    import fgw.cli

    def no_work(*args, **kwargs):
        raise AssertionError("a verifier ran before the usage check")

    # `all` runs lemma1 first, so the check must fire before any verifier
    monkeypatch.setattr(fgw.cli, "verify_lemma1", no_work)
    for target in ("thm3", "all"):
        for option, value in (("--samples", "0"), ("--max-degree", "-1")):
            code = main(["verify", target, option, value])
            err = capsys.readouterr().err
            assert code == 2
            assert err.startswith("error:")
            assert option in err


VERIFIERS = (
    "verify_lemma1",
    "verify_thm1",
    "verify_r22",
    "thm3_equivalence_report",
    "thm4_lower_chain",
    "thm5_exponent_fit",
    "verify_p_columns",
    "verify_q_columns",
    "verify_display_majorization",
)


@pytest.mark.parametrize(
    "targets, args, option",
    [
        (("thm4", "all"), ["--p", "2"], "--p"),
        (("thm5", "all"), ["--s", "3", "--t", "2"], "--s"),
        (("thm5", "all"), ["--s", "1", "--t", "x"], "--t"),
        (("thm5", "all"), ["--s", "1"], "--t"),
        (("thm5", "all"), ["--n-min", "38"], "--n-min"),
        (("thm1", "thm4", "all"), ["--f", "1,x"], "--f"),
        (("thm1", "thm4", "all"), ["--f", "-1"], "--f"),
        # q^-645 is below the normal floats on F_2, q^-644 is not
        (("thm5", "all"), ["--n-min", "638", "--fit-n-max", "645"], "--fit-n-max"),
        (("lemma1", "pk", "all"), ["--k-max", "-1", "--radius", "2"], "--k-max"),
        (("r22", "qn", "all"), ["--n-max", "-1", "--radius", "2"], "--n-max"),
        (("r22", "all"), ["--n-max", "-1", "--family", "random-subsets", "--radius", "2"], "--n-max"),
    ],
)
def test_verify_usage_errors_fire_before_any_verifier(capsys, monkeypatch, targets, args, option):
    import fgw.cli

    def no_work(*args, **kwargs):
        raise AssertionError("a verifier ran before the usage check")

    # `all` runs lemma1, thm1, r22 and thm3 before thm4 and thm5
    for name in VERIFIERS:
        monkeypatch.setattr(fgw.cli, name, no_work)
    for target in targets:
        code = main(["verify", target, *args])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert option in captured.err


def test_verify_all_caches_hold_only_used_indices():
    from fgw import radial, theorems, words

    caches = (radial.chi, words._sphere_size, radial._product_row)
    for cache in caches:
        cache.cache_clear()
    ctx = FreeGroupCtx(2)
    for seed in ("0", "1"):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["verify", "all", "--seed", seed]) == 1
        # chi_n is built only as a basis function or sweep input: n <= 8 from
        # lemma1's and r22's default k_max and n_max.  The largest product
        # indices come from thm5: f of degree 2n times chi_n for n <= 40
        # (--fit-n-max), so rows lo <= 40 and spheres up to 3 * 40
        assert [c.cache_info().currsize for c in caches] == [9, 121, 82]
    # thm5's memo holds the one fit window its five (s, t) pairs share
    assert theorems._thm5_runs.cache_info().currsize == 1
    hits = theorems._thm5_runs.cache_info().hits
    theorems._thm5_runs(ctx, tuple(range(4, 41)))
    assert theorems._thm5_runs.cache_info().hits == hits + 1
    misses = [c.cache_info().misses for c in caches]
    for n in range(9):
        radial.chi(ctx, n)
    for n in range(41):
        radial._product_row(ctx.q, n, False)
        radial._product_row(ctx.q, n, True)
    for n in range(121):
        words._sphere_size(ctx.k, n)
    # every index above was already cached: the caches hold exactly these
    assert [c.cache_info().misses for c in caches] == misses


def _significant_digits(token: str) -> int:
    mantissa = token.lstrip("+-").split("e")[0].split("E")[0]
    return len(mantissa.replace(".", "").lstrip("0"))


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "thm5", "--s", "2", "--t", "2"],
        ["verify", "thm3", "--samples", "4", "--radius", "3"],
        ["conjecture", "--s-grid", "1,1.5,2", "--radius", "3"],
    ],
)
def test_csv_params_are_canonical(capsys, args):
    code = main(args + ["--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["id", "params", "lhs", "rhs", "margin", "status"]
    numbers = [
        tok
        for row in rows[1:]
        for tok in re.findall(r"[-+]?\d*\.?\d+(?:[eE][-+]?\d+)?", row[1])
    ]
    assert numbers
    assert max(_significant_digits(tok) for tok in numbers) <= 12


def test_json_string_escapes():
    text = 'q"b\\s\nn\tt\rr\x01 \u00e9\u221e'
    assert json_dumps(text) == '"q\\"b\\\\s\\nn\\tt\\rr\\u0001 \u00e9\u221e"'
    assert json_dumps({text: [text]}) == (
        '{\n  "q\\"b\\\\s\\nn\\tt\\rr\\u0001 \u00e9\u221e": [\n'
        '    "q\\"b\\\\s\\nn\\tt\\rr\\u0001 \u00e9\u221e"\n  ]\n}'
    )
    assert json.loads(json_dumps(text)) == text


# -- conjecture ---------------------------------------------------------------


def test_conjecture_always_informational(capsys):
    code = main(
        [
            "conjecture",
            "--s-grid",
            "1,2",
            "--family",
            "sphere-unions",
            "--radius",
            "3",
            "--format",
            "csv",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "id,params,lhs,rhs,margin,status"
    assert all(line.rsplit(",", 1)[-1] == "informational" for line in lines[1:])


def test_conjecture_s_grid_fires_before_any_estimate(capsys, monkeypatch):
    import fgw.theorems

    def no_work(*args, **kwargs):
        raise AssertionError("an estimate ran before the --s-grid check")

    monkeypatch.setattr(fgw.theorems, "restricted_weak_estimate", no_work)
    args = ["--family", "random-subsets", "--radius", "4", "--budget", "200000"]
    for grid in ("3", "1,3"):
        code = main(["conjecture", "--s-grid", grid, *args])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: --s-grid:")
        assert "s must lie in [1, 2]" in captured.err
    code = main(["conjecture", "--s-grid", ",", *args])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --s-grid: the grid holds no s\n"
    code = main(["conjecture", "--s-grid", "abc", *args])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error: --s-grid: malformed s grid 'abc': could not convert string to float: 'abc'\n"
    )


def test_r22_budget_fires_before_lemma1(capsys, monkeypatch):
    import fgw.cli

    def no_work(*args, **kwargs):
        raise AssertionError("lemma1 ran before r22's budget check")

    monkeypatch.setattr(fgw.cli, "verify_lemma1", no_work)
    # lemma1's |E|^2 <= |B_7|^2 fits; r22's first draw needs |B_8| |E| pairs
    code = main(["verify", "all", "--family", "random-subsets", "--radius", "7", "--budget", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error: budget exceeded: convolution enumeration needs 27608688, cap is 20000000\n"
    )


# -- output file ---------------------------------------------------------------


def test_output_flag_matches_stdout(tmp_path, capsys):
    args = ["convolve", "--n", "3", "--m", "2"]
    code = main(args)
    captured = capsys.readouterr()
    assert code == 0

    path = tmp_path / "conv.json"
    code = main(args + ["--output", str(path)])
    silent = capsys.readouterr()
    assert code == 0
    assert silent.out == ""
    assert path.read_text(encoding="utf-8") == captured.out


def test_unwritable_output_is_a_usage_error(tmp_path, capsys, monkeypatch):
    import fgw.cli

    def verifier_ran(*args, **kwargs):
        raise AssertionError("the verifier ran before --output was checked")

    monkeypatch.setattr(fgw.cli, "verify_p_columns", verifier_ran)
    code = main(["verify", "pk", "--output", str(tmp_path / "missing" / "x.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write --output:")


def test_failed_run_keeps_existing_output(tmp_path, capsys):
    path = tmp_path / "prev.json"
    sentinel = b"previous report\n\x00\xff"
    path.write_bytes(sentinel)
    usage = ["verify", "all", "--p", "2"]
    budget = ["verify", "r22", "--family", "random-subsets", "--radius", "14", "--budget", "1"]
    for args in (usage, budget):
        code = main(args + ["--output", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert path.read_bytes() == sentinel


def test_failed_run_leaves_no_new_output(tmp_path, capsys):
    # the run creates --output to check that it is writable; when it exits
    # 2 without a report, the file it created goes away again
    path = tmp_path / "new.json"
    usage = ["verify", "all", "--p", "2"]
    budget = ["verify", "r22", "--family", "random-subsets", "--radius", "14", "--budget", "1"]
    for args in (usage, budget):
        code = main(args + ["--output", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert not path.exists()
    assert main(["verify", "pk", "--output", str(path)]) == 0
    assert path.read_text(encoding="utf-8").startswith("[")
