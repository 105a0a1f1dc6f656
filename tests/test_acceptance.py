"""Acceptance: the frozen golden files reproduce exactly at their recorded scale.

Core claims:
    - thm3 over its recorded samples reproduces both ratio bands of
      golden/thm3_band.json, float for float
    - restricted_weak_estimate(chi_n) / q^{n/2} for n = 1..8 reproduces
      golden/r22_chi_ratios.json, float for float
    - the Q-column claim fails at exactly six grid points with n <= 6,
      the same six at radius 9 and radius 60, with pinned masses and
      witnesses
    - every invocation in golden/report_digests.json prints stdout with
      the recorded sha256 and exits with the recorded code
    - `python -m fgw.cli verify all`, as JSON and as CSV, prints its
      recorded bytes under PYTHONHASHSEED=0 and =1: no report byte depends
      on the interpreter's string hashing

Each check reads its parameters from the golden file, so the file is
the single record of the scale it was frozen at.  The Q-column table
is pinned here because the column masses come in closed form at any
radius.  A report digest changes only in a change that says why.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fgw
from fgw.cli import main
from fgw.operators import SetFamily, restricted_weak_estimate
from fgw.radial import chi
from fgw.theorems import thm3_equivalence_report, verify_q_columns
from fgw.words import FreeGroupCtx

GOLDEN = Path(__file__).parent / "golden"


def _golden(name):
    return json.loads((GOLDEN / name).read_text(encoding="utf-8"))


def _family(golden):
    return SetFamily(
        golden["family"], golden["radius"], budget=golden["budget"], seed=golden["seed"]
    )


def test_thm3_ratio_bands_match_golden():
    golden = _golden("thm3_band.json")
    rep = thm3_equivalence_report(
        FreeGroupCtx(golden["k"]),
        samples=golden["samples"],
        seed=golden["seed"],
        max_degree=golden["max_degree"],
        fam=_family(golden),
    )
    assert rep.ok
    assert rep.params["ratio_band"] == golden["ratio_band"]
    assert rep.params["lower_ratio_band"] == golden["lower_ratio_band"]


def test_r22_chi_ratios_match_golden():
    golden = _golden("r22_chi_ratios.json")
    assert golden["normalizer"] == "q^(n/2)"
    ctx = FreeGroupCtx(golden["k"])
    fam = _family(golden)
    assert list(golden["ratios"]) == [str(n) for n in range(1, 9)]
    for key, want in golden["ratios"].items():
        n = int(key)
        est = restricted_weak_estimate(chi(ctx, n), fam)["estimate"]
        assert est / ctx.q ** (n / 2) == want, n


# id -> (column mass, witness): every failing point of q^(3/2 - alpha + n/2)
# on the half grid |alpha| <= n/2, n <= 6.  The last lies outside the
# radius-8 ball, so `fgw verify qn` at its default radius reports five.
Q_COLUMN_FAILURES = {
    "qn:n=4:alpha=-0.5": (108, "aaaaaa"),
    "qn:n=5:alpha=-1": (324, "aaa"),
    "qn:n=5:alpha=-0.5": (324, "aaaaaaa"),
    "qn:n=6:alpha=-1.5": (972, "aa"),
    "qn:n=6:alpha=-1": (972, "aaa"),
    "qn:n=6:alpha=-0.5": (972, "aaaaaaaaa"),
}


@pytest.mark.parametrize("radius", [9, 60])
def test_q_column_failure_table(radius):
    rep = verify_q_columns(FreeGroupCtx(2), 6, radius)
    got = {c["id"]: (c["lhs"], c["note"]) for c in rep.failures()}
    assert got == {
        check_id: (mass, f"witness x={witness!r}")
        for check_id, (mass, witness) in Q_COLUMN_FAILURES.items()
    }


REPORT_DIGESTS = _golden("report_digests.json")


@pytest.mark.parametrize(
    "golden", REPORT_DIGESTS, ids=[" ".join(g["args"]) for g in REPORT_DIGESTS]
)
def test_report_bytes_match_digest(capsys, golden):
    code = main(golden["args"])
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode("utf-8")).hexdigest(), code) == (
        golden["sha256"],
        golden["exit"],
    )


@pytest.mark.parametrize("hash_seed", ["0", "1"])
@pytest.mark.parametrize("args", [["verify", "all"], ["verify", "all", "--format", "csv"]])
def test_report_bytes_do_not_depend_on_the_hash_seed(args, hash_seed):
    (golden,) = [g for g in REPORT_DIGESTS if g["args"] == args]
    # the child imports the same fgw as the tests, installed or not
    src = str(Path(fgw.__file__).parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "fgw.cli", *args],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed),
    )
    assert (hashlib.sha256(proc.stdout).hexdigest(), proc.returncode) == (
        golden["sha256"],
        golden["exit"],
    )
