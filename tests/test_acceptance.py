"""Acceptance: the frozen golden files reproduce exactly at their recorded scale.

Core claims:
    - thm3 over its recorded samples reproduces both ratio bands of
      golden/thm3_band.json, float for float
    - restricted_weak_estimate(chi_n) / q^{n/2} for n = 1..8 reproduces
      golden/r22_chi_ratios.json, float for float

Each check reads its parameters from the golden file, so the file is
the single record of the scale it was frozen at.
"""

import json
from pathlib import Path

from fgw.operators import SetFamily, restricted_weak_estimate
from fgw.radial import chi
from fgw.theorems import thm3_equivalence_report
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
