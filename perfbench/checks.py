"""Checks of every rendered report against the independent oracle.

Each check reads the report as a user would, from its JSON and CSV text,
and compares it with what ``oracle`` computes from the operation's
inputs.  ``self_test`` feeds each check a corrupted copy of a real
output and reports any check that lets the corruption through.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import math
import random
from fractions import Fraction

import oracle

K = 2
Q = 2 * K - 1
REL = 1e-9

#: The Q-column claim fails at exactly these (n, alpha) grid points.
Q_VIOLATIONS = {(4, -0.5), (5, -1.0), (5, -0.5), (6, -1.5), (6, -1.0)}

CONJ_S_GRID = (1.0, 1.25, 1.5, 1.75, 2.0)


def _num(x):
    if isinstance(x, bool):
        raise TypeError("boolean where a number belongs")
    return Fraction(x) if isinstance(x, str) else x


def _close(a, b, rel=REL) -> bool:
    return math.isclose(float(_num(a)), float(_num(b)), rel_tol=rel, abs_tol=1e-12)


def _fmt(x) -> str:
    return "%.12g" % float(x)


class Checker:
    """Collects problems for one operation."""

    def __init__(self, name: str):
        self.name = name
        self.problems: list = []

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(f"{self.name}: {what}")

    def close(self, got, want, what: str, rel=REL) -> None:
        try:
            ok = _close(got, want, rel)
        except (TypeError, ValueError):
            ok = False
        self.expect(ok, f"{what} is {got!r}, expected {want!r}")


def _reports(objs):
    """[(summary, rows)] of a rendered list of verification reports."""
    out = []
    for obj in objs:
        if obj.get("kind") == "summary":
            out.append((obj, []))
        elif obj.get("kind") == "check" and out:
            out[-1][1].append(obj)
        else:
            raise ValueError(f"unexpected report object {obj.get('kind')!r}")
    return out


def _rows_by_id(rows) -> dict:
    return {r["id"]: r for r in rows}


# --- report structure, common to every verification report ------------


def check_structure(ck: Checker, objs, csv_text: str) -> None:
    try:
        reports = _reports(objs)
    except ValueError as exc:
        ck.expect(False, str(exc))
        return
    all_rows = []
    for summary, rows in reports:
        counts = {"pass": 0, "fail": 0, "informational": 0}
        for r in rows:
            counts[r["status"]] = counts.get(r["status"], 0) + 1
        ck.expect(summary["counts"] == counts, f"summary counts {summary['counts']} vs rows {counts}")
        want = ("fail",) if counts["fail"] else ("pass", "informational")
        ck.expect(summary["status"] in want, f"summary status {summary['status']}")
        gated = []
        for r in rows:
            if "lhs" not in r or "rhs" not in r:
                continue
            lhs, rhs = _num(r["lhs"]), _num(r["rhs"])
            ck.close(r["margin"], rhs / lhs if lhs > 0 else rhs, f"margin of {r['id']}")
            if r["status"] == "informational":
                continue
            gated.append(r)
            exact = not isinstance(lhs, float) and not isinstance(rhs, float)
            if exact or not _close(lhs, rhs):
                ck.expect((r["status"] == "pass") == (lhs <= rhs), f"status of {r['id']}")
        if gated:
            low = min(float(r["margin"]) for r in gated)
            ck.close(summary.get("tightest", {}).get("margin"), low, "tightest margin")
        all_rows.extend(rows)
    table = list(csv.reader(io.StringIO(csv_text)))
    ck.expect(table[:1] == [["id", "params", "lhs", "rhs", "margin", "status"]], "CSV header")
    ck.expect(len(table) - 1 == len(all_rows), "CSV row count")
    for cells, r in zip(table[1:], all_rows):
        ck.expect(cells[0] == r["id"] and cells[5] == r["status"], f"CSV row of {r['id']}")
        for cell, key in zip(cells[2:5], ("lhs", "rhs", "margin")):
            if key in r:
                ck.close(cell, r[key], f"CSV {key} of {r['id']}")
            else:
                ck.expect(cell == "", f"CSV {key} of {r['id']} should be empty")


# --- radial-sweep ------------------------------------------------------


def _degree(f) -> int:
    return max((n for n, c in enumerate(f) if c), default=-1)


def check_thm1(ck, spec, objs, alg) -> None:
    f, radius = list(spec["f"]), spec["radius"]
    (summary, rows), = _reports(objs)
    ck.expect(summary["params"]["f"] == oracle.format_coeffs(f), "params f")
    values = {}
    for label, size, h in oracle.union_products(alg, f, radius):
        values[label] = float(oracle.l2_squared(alg, h)) / size
    best = max(values.values())
    upper = [r for r in rows if r["id"].startswith("thm1:upper:E=")]
    ck.expect(len(upper) == 1, "one upper row")
    for r in upper:
        label = r["id"][len("thm1:upper:E="):]
        ck.close(values.get(label, -1.0), best, f"estimate of the reported best set {label}")
        ck.close(r["lhs"], best, "squared estimate")
        ck.close(r["rhs"], 4 * oracle.a_functional(alg, f), "4 A(f)")
    d = _degree(f)
    by_id = _rows_by_id(rows)
    chain = []
    for m in range(2 * d, 2 * d + 5):
        h = alg.convolve(f, [0] * m + [1])
        chain.append(float(oracle.l2_squared(alg, h)) / alg.size(m))
        ck.close(by_id.get(f"thm1:chain:m={m}", {}).get("value"), chain[-1], f"chain m={m}")
    low = by_id.get("thm1:lower:sphere-chain", {})
    ck.close(low.get("lhs"), oracle.a_functional(alg, f) / 15, "A(f)/15")
    ck.close(low.get("rhs"), max(chain), "best chain value")


def _pair_best(alg, f) -> float:
    best = 0.0
    for n in range(_degree(f) + 3):
        h = alg.convolve(f, [0] * n + [1])
        for m in (n, n + 1):
            hm = h[m] if m < len(h) else 0
            best = max(best, float(hm * alg.size(m)) / math.sqrt(alg.size(n) * alg.size(m)))
    return best


def check_thm3(ck, spec, objs, alg) -> None:
    (summary, rows), = _reports(objs)
    by_id = _rows_by_id(rows)
    rng = random.Random(spec["seed"])
    ratios, lowers = [], []
    for i in range(spec["samples"]):
        f = oracle.sample_radial(rng, spec["max_degree"])
        est = oracle.restricted_unions(alg, f, spec["radius"])[0]
        weighted = math.fsum(float(c) * Q ** (0.5 * n) for n, c in enumerate(f) if c)
        split = max(
            math.fsum(float(c) * Q ** (0.5 * n) for n, c in enumerate(f) if c and n % 2 == par)
            for par in (0, 1)
        )
        ratios.append(est / weighted)
        lowers.append(_pair_best(alg, f) / split)
        up = by_id.get(f"thm3:upper:sample-{i}", {})
        ck.expect(up.get("note") == f"f={oracle.format_coeffs(f)}", f"sample-{i} function")
        ck.close(up.get("lhs"), est, f"sample-{i} restricted estimate")
        ck.close(up.get("rhs"), 2 * Q**1.5 * weighted, f"sample-{i} upper bound")
        info = by_id.get(f"thm3:ratios:sample-{i}", {})
        ck.close(info.get("ratio"), ratios[-1], f"sample-{i} ratio")
        ck.close(info.get("lower_ratio"), lowers[-1], f"sample-{i} lower ratio")
    params = summary["params"]
    for key, vals in (("ratio_band", ratios), ("lower_ratio_band", lowers)):
        band = params.get(key, [None, None])
        ck.close(band[0], min(vals), f"{key} low")
        ck.close(band[1], max(vals), f"{key} high")
    ck.close(by_id.get("thm3:lower-ratio-positive", {}).get("rhs"), min(lowers), "worst lower ratio")
    spread = by_id.get("thm3:band-spread", {})
    ck.close(spread.get("lhs"), max(ratios), "band top")
    ck.close(spread.get("rhs"), 25 * min(ratios), "band bottom times 25")


def _conjecture_functions():
    fns = [(f"chi_{n}", [0] * n + [1]) for n in range(7)]
    for beta in (0.4, 0.5, 0.6):
        fns.append((f"geometric-beta={beta}", [float(Q) ** (-beta * n) for n in range(7)]))
    for a, b in ((0, 4), (1, 5), (2, 6)):
        f = [0] * (b + 1)
        f[a] = f[b] = 1
        fns.append((f"sparse-{a}+{b}", f))
    return fns


def check_conjecture(ck, spec, objs, alg) -> None:
    (summary, rows), = _reports(objs)
    by_id = _rows_by_id(rows)
    fns = _conjecture_functions()
    ck.expect(len(rows) == len(fns) * len(CONJ_S_GRID), "row count")
    for label, f in fns:
        est_sq = oracle.restricted_unions(alg, f, spec["radius"])[0] ** 2
        for s in CONJ_S_GRID:
            r = by_id.get(f"conjecture:{label}:s={_fmt(s)}", {})
            pos = oracle.conjecture_functional(alg, f, s, 1)
            ck.close(r.get("estimate_sq"), est_sq, f"{label} s={s} squared estimate")
            ck.close(r.get("functional"), pos, f"{label} s={s} functional")
            ck.close(r.get("functional_negative_sign"), oracle.conjecture_functional(alg, f, s, -1),
                     f"{label} s={s} negative-sign functional")
            ck.close(r.get("margin"), pos / est_sq, f"{label} s={s} margin")


def check_lemma1_radial(ck, spec, objs, alg) -> None:
    (summary, rows), = _reports(objs)
    radius, k_max = spec["radius"], spec["k_max"]
    want = []
    for radii, label in oracle.union_masks(radius):
        size = sum(alg.size(r) for r in radii)
        for k in range(k_max + 1):
            # pairs (x, y) in S_a x S_b with |y x^-1| = k number c(k, a, b) |S_b|
            tally = sum(alg.c(k, a, b) * alg.size(b) for a in radii for b in radii)
            want.append((f"lemma1:k={k}:E={label}", tally, 2 * Q ** (k // 2) * size))
    _expect_exact_rows(ck, rows, want)


def _expect_exact_rows(ck, rows, want) -> None:
    ck.expect(len(rows) == len(want), f"{len(rows)} rows, expected {len(want)}")
    for r, (rid, lhs, rhs) in zip(rows, want):
        ck.expect(r["id"] == rid, f"row {r['id']} where {rid} belongs")
        ck.expect(_num(r["lhs"]) == lhs, f"{rid} pair tally {r['lhs']} vs {lhs}")
        ck.expect(_num(r["rhs"]) == rhs, f"{rid} bound {r['rhs']} vs {rhs}")


def check_r22_radial(ck, spec, objs, alg) -> None:
    (summary, rows), = _reports(objs)
    want = []
    for radii, label in oracle.union_masks(spec["radius"]):
        size = sum(alg.size(r) for r in radii)
        for n in range(spec["n_max"] + 1):
            h = [0] * (n + spec["radius"] + 1)
            for r in radii:
                for l, c in enumerate(alg.chi_prod(n, r)):
                    h[l] += c
            sup = oracle.best_prefix(alg.runs(h))[0]
            want.append((f"r22:n={n}:E={label}", sup, 2.0 * Q ** (1.5 + 0.5 * n) * math.sqrt(size)))
    _expect_float_rows(ck, rows, want)


def _expect_float_rows(ck, rows, want) -> None:
    ck.expect(len(rows) == len(want), f"{len(rows)} rows, expected {len(want)}")
    for r, (rid, lhs, rhs) in zip(rows, want):
        ck.expect(r["id"] == rid, f"row {r['id']} where {rid} belongs")
        ck.close(r.get("lhs"), lhs, f"{rid} sup over F")
        ck.close(r.get("rhs"), rhs, f"{rid} bound")


def check_thm4(ck, spec, objs, alg) -> None:
    reports = _reports(objs)
    p = spec["p"]
    pp = p / (p - 1.0)
    ck.expect(len(reports) == len(spec["suite"]), "one report per suite function")
    for (summary, rows), (label, f) in zip(reports, spec["suite"]):
        ck.expect(summary["params"].get("label") == label, f"label {label}")
        by_id = _rows_by_id(rows)
        target = math.fsum(float(c) ** pp * Q ** (l * pp / p) for l, c in enumerate(f) if c)
        d = _degree(f)
        for n in range(d, d + 4):
            h = alg.convolve(f, [0] * n + [1])
            norm = math.fsum(float(c) ** pp * alg.size(l) for l, c in enumerate(h) if c)
            r = by_id.get(f"thm4:n={n}", {})
            ck.close(r.get("lhs"), (2.0 / 3.0) ** pp * target, f"{label} n={n} weighted sum")
            ck.close(r.get("rhs"), norm / Q**n, f"{label} n={n} normalized norm")
        ck.close(by_id.get("thm4:conclusion", {}).get("weighted_sum"), target ** (1.0 / pp),
                 f"{label} weighted sum")


def check_thm5(ck, spec, objs, alg) -> None:
    (summary, rows), = _reports(objs)
    by_id = _rows_by_id(rows)
    s, t = spec["s"], spec["t"]
    xs, ys = [], []
    for n in range(4, 41):
        f = [Q ** (-0.5 * k) for k in range(2 * n + 1)]
        num = oracle.lorentz(alg.runs(alg.convolve([0] * n + [1], f)), 2.0, t)
        ratio = num / oracle.lorentz(alg.runs(f), 2.0, s)
        ck.close(by_id.get(f"thm5:n={n}", {}).get("ratio"), ratio, f"ratio n={n}", rel=1e-7)
        xs.append(math.log(n))
        ys.append(math.log(ratio * Q ** (-0.5 * n)))
    fitted = oracle.slope(xs, ys)
    expected = 1.0 - 1.0 / s + (0.0 if math.isinf(t) else 1.0 / t)
    ck.close(summary["params"].get("fitted_slope"), fitted, "fitted slope", rel=1e-6)
    row = by_id.get(f"thm5:slope:s={_fmt(s)},t={_fmt(t)}", {})
    ck.close(row.get("lhs"), abs(fitted - expected), "slope error", rel=1e-5)


# --- columns -----------------------------------------------------------


def check_p(ck, spec, objs, alg) -> None:
    k, radius = spec["k"], spec["radius"]
    (rep,) = objs
    sup, witness = oracle.column_sup(alg, k, radius, lambda l, m: l <= m)
    bound = Q ** (k // 2)
    ck.expect(rep.get("params") == {"k": k} and rep.get("radius") == radius, "parameters")
    ck.expect(rep.get("sup") == sup, f"sup {rep.get('sup')} vs {sup}")
    ck.expect(rep.get("witness") == witness, f"witness {rep.get('witness')!r} vs {witness!r}")
    ck.close(rep.get("bound"), bound, "bound")
    ck.expect(rep.get("ok") is (sup <= bound), "ok flag")
    if k % 2 == 0:
        ck.expect(sup == bound, f"equality witness at even k: sup {sup} vs {bound}")


def check_q(ck, spec, objs, alg) -> None:
    n, radius = spec["n"], spec["radius"]
    ck.expect(len(objs) == len(spec["alphas"]), "one entry per alpha")
    for rep, alpha in zip(objs, spec["alphas"]):
        twice = int(2 * alpha)
        sup, witness = oracle.column_sup(
            alg, n, radius, lambda l, m, twice=twice: oracle.q_accepts(Q, twice, l, m)
        )
        ok = sup * sup <= Fraction(Q) ** (3 + n - twice)
        what = f"alpha={alpha}"
        ck.expect(rep.get("params") == {"n": n, "alpha": alpha}, f"{what} parameters")
        ck.expect(rep.get("sup") == sup, f"{what} sup {rep.get('sup')} vs {sup}")
        ck.expect(rep.get("witness") == witness, f"{what} witness {rep.get('witness')!r}")
        ck.close(rep.get("bound"), Q ** (1.5 - alpha + 0.5 * n), f"{what} bound")
        ck.expect(rep.get("ok") is ok, f"{what} ok flag")
        ck.expect(ok is ((n, alpha) not in Q_VIOLATIONS), f"{what} documented violation status")
        if (n, alpha) == (4, -0.5):
            ck.expect((sup, witness) == (108, "aaaaaa"), "documented witness: mass 108 at a^6")


# --- explicit-sets -----------------------------------------------------


def _family_sets(spec):
    if spec["family"] == "ball-subsets":
        return oracle.ball_subsets(K, spec["radius"])
    return oracle.random_subsets(K, spec["radius"], spec["budget"], spec["seed"])


def check_search(ck, spec, objs, alg) -> None:
    (rep,) = objs
    f = list(spec["f"])
    restricted = spec["estimator"] == "restricted"

    def value(E):
        return oracle.restricted_value(K, f, E)[0] if restricted else oracle.weak_value(K, f, E)

    if spec["family"] == "greedy":
        best, label, E = oracle.greedy(K, spec["radius"], spec["budget"], value)
        sets = {label: E}
    else:
        sets = dict(_family_sets(spec))
        scored = [(value(E), lab) for lab, E in sets.items()]
        best = max(v for v, _ in scored)
    ck.close(rep.get("estimate"), best, "estimate")
    E = sets.get(rep.get("E"))
    ck.expect(E is not None, f"reported set {rep.get('E')!r} is not in the family")
    if E is None:
        return
    ck.close(value(E), best, f"estimate of the reported set {rep.get('E')}")
    if restricted:
        vals = oracle.set_values(K, f, E).values()
        ck.close(oracle.prefix_value(vals, rep.get("j", 0)) / math.sqrt(len(E)), best,
                 "value at the reported prefix j")
    for key in ("family", "radius", "seed", "budget"):
        ck.expect(rep.get(key) == spec[key], f"{key} echoed")


def check_r22_explicit(ck, spec, objs, alg) -> None:
    (summary, rows), = _reports(objs)
    want = []
    for label, E in _family_sets(spec):
        for n in range(spec["n_max"] + 1):
            vals = oracle.set_values(K, [0] * n + [1], E).values()
            sup = oracle.best_prefix_brute(vals)[0]
            want.append((f"r22:n={n}:E={label}", sup,
                         2.0 * Q ** (1.5 + 0.5 * n) * math.sqrt(len(E))))
    _expect_float_rows(ck, rows, want)


def check_lemma1_explicit(ck, spec, objs, alg) -> None:
    (summary, rows), = _reports(objs)
    want = []
    for label, E in _family_sets(spec):
        tally = oracle.distance_tally(E)
        for k in range(spec["k_max"] + 1):
            want.append((f"lemma1:k={k}:E={label}", tally[k] if k < len(tally) else 0,
                         2 * Q ** (k // 2) * len(E)))
    _expect_exact_rows(ck, rows, want)


SEMANTIC = {
    "thm1": check_thm1,
    "thm3": check_thm3,
    "conjecture": check_conjecture,
    "lemma1-radial": check_lemma1_radial,
    "r22-radial": check_r22_radial,
    "thm4": check_thm4,
    "thm5": check_thm5,
    "P": check_p,
    "Q": check_q,
    "search": check_search,
    "r22-explicit": check_r22_explicit,
    "lemma1-explicit": check_lemma1_explicit,
}

#: Kinds whose reports are VerificationReports with a CSV rendering.
VERIFICATION = {"thm1", "thm3", "conjecture", "lemma1-radial", "r22-radial", "thm4", "thm5",
                "r22-explicit", "lemma1-explicit"}


def check_one(op, objs, csv_text, alg) -> list:
    ck = Checker(op.name)
    try:
        if op.kind in VERIFICATION:
            check_structure(ck, objs, csv_text)
        SEMANTIC[op.kind](ck, op.spec, objs, alg)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        ck.expect(False, f"malformed report ({type(exc).__name__}: {exc})")
    return ck.problems


def repeats_differ(digests) -> bool:
    """True when an operation's rendered bytes changed between rounds."""
    return len(set(digests)) > 1


def check_outputs(ops, outputs) -> list:
    """Problems found in the outputs; an operation that failed has None."""
    problems = oracle.validate(K)
    alg = oracle.Algebra(K)
    for op, out in zip(ops, outputs):
        if out is not None:
            problems += check_one(op, json.loads(out[0]), out[1], alg)
    return problems


# --- self-test ---------------------------------------------------------

#: Per kind: (id prefix of the row to corrupt or None for the first object, key).
CORRUPT = {
    "thm1": ("thm1:upper", "lhs"),
    "thm3": ("thm3:upper", "lhs"),
    "conjecture": ("conjecture:", "functional"),
    "lemma1-radial": ("lemma1:", "lhs"),
    "r22-radial": ("r22:", "lhs"),
    "thm4": ("thm4:n=", "rhs"),
    "thm5": ("thm5:n=", "ratio"),
    "P": (None, "sup"),
    "Q": (None, "sup"),
    "search": (None, "estimate"),
    "r22-explicit": ("r22:", "lhs"),
    "lemma1-explicit": ("lemma1:", "lhs"),
}


def _perturb(v):
    if isinstance(v, str):
        return str(Fraction(v) + 1)
    if isinstance(v, int):
        return v + 1
    return v * 1.001 + 0.001


def _corrupt_value(kind, objs):
    prefix, key = CORRUPT[kind]
    for obj in objs:
        if prefix is None or str(obj.get("id", "")).startswith(prefix):
            obj[key] = _perturb(obj[key])
            return


def _corrupt_status(objs):
    flip = {"pass": "fail", "fail": "pass", "informational": "pass"}
    for obj in objs:
        if obj.get("kind") == "check":
            obj["status"] = flip[obj["status"]]
            return


def _corrupt_csv(csv_text):
    lines = csv_text.splitlines(keepends=True)
    cells = next(csv.reader([lines[1]]))
    cells[5] = "fail" if cells[5] != "fail" else "pass"
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return "".join([lines[0], buf.getvalue()] + lines[2:])


def self_test(ops, outputs) -> list:
    """Problems where a corrupted output passed its check."""
    alg = oracle.Algebra(K)
    problems = []
    if not repeats_differ(["a", "a", "b"]) or repeats_differ(["a", "a"]):
        problems.append("self-test: byte-identity check is wrong")
    seen = set()
    for op, out in zip(ops, outputs):
        if out is None or op.kind in seen:
            continue
        seen.add(op.kind)
        objs = json.loads(out[0])
        trials = [("value", copy.deepcopy(objs), out[1])]
        _corrupt_value(op.kind, trials[0][1])
        if op.kind in VERIFICATION:
            status = copy.deepcopy(objs)
            _corrupt_status(status)
            trials.append(("status", status, out[1]))
            trials.append(("csv", objs, _corrupt_csv(out[1])))
        for what, bad_objs, bad_csv in trials:
            if not check_one(op, bad_objs, bad_csv, alg):
                problems.append(f"self-test: {op.name} accepted a corrupted {what}")
    return problems
