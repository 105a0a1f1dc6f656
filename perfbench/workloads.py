"""Inputs and operations of the three workloads.

Every operation calls the public ``fgw`` API through module attributes
looked up at call time (so the tracer's wrappers see the calls) and
renders its reports through ``fgw.reportio`` the way the ``fgw`` command
does.  An operation returns the rendered JSON and CSV text; what the
checks need to know about its inputs travels in ``Op.spec``.

Sizes are fixed here and recorded in README.md.  The seed picks the 40
random members of the thm1 suite and the seeded set families; the other
inputs, the thm3 samples among them, are the same for every seed.
"""

from __future__ import annotations

import io
import itertools
import math
import random
from dataclasses import dataclass, field

import fgw
import fgw.operators
import fgw.radial
import fgw.reportio
import fgw.theorems
import fgw.words

K = 2

# radial-sweep
THM1_RADIUS = 5
THM3_OPS = 4
THM3_SAMPLES = 5
THM3_MAX_DEGREE = 6
THM3_RADIUS = 5
CONJ_RADIUS = 5
LEMMA1_RADIUS = 6
LEMMA1_K_MAX = 8
R22_RADIUS = 6
R22_N_MAX = 8
THM4_PS = (1.25, 1.5, 1.75)
THM5_PAIRS = ((1.0, math.inf), (2.0, 2.0), (2.0, math.inf), (1.0, 2.0), (1.5, 3.0))

# columns: (index, radius).  Radius 6 holds the witness a^6 of
# (n, alpha) = (4, -1/2); (5, -1/2) is witnessed only by a^7; both n = 6
# violations show from radius 4 on.
P_SCANS = tuple((k, 6) for k in range(7))
Q_SCANS = tuple((n, 6) for n in range(5)) + ((5, 7), (6, 5))

# explicit-sets
EXPLICIT_FS = ("0,1", "1,1/2,1/4", "0,0,1,1/3")
RANDOM_RADIUS = 3
RANDOM_BUDGET = 12
RANDOM_FAMILIES = 2
GREEDY_RADIUS = 2
GREEDY_BUDGET = 4
BALL_SUBSETS_RADIUS = 1
BALL_SUBSETS_BUDGET = 32
EXPLICIT_R22_N_MAX = 4
EXPLICIT_LEMMA1_K_MAX = 8


@dataclass
class Op:
    """One timed operation: ``run()`` returns the rendered (JSON, CSV) text."""

    name: str
    kind: str
    run: object
    spec: dict = field(default_factory=dict)


def _render_verification(reports):
    objects = []
    rows = []
    for rep in reports:
        objects.extend(rep.json_objects())
        rows.extend(rep.csv_rows())
    js = io.StringIO()
    fgw.reportio.write_json(js, objects)
    cs = io.StringIO()
    fgw.reportio.write_csv(cs, rows)
    return js.getvalue(), cs.getvalue()


def _render_search(estimator: str, f, report: dict):
    text = fgw.radial.format_radial_literal(f)
    obj = {"kind": "search", "estimator": estimator, "f": text, **report}
    js = io.StringIO()
    fgw.reportio.write_json(js, [obj])
    cs = io.StringIO()
    row = (f"search:{estimator}", f"f={text}", None, obj["estimate"], None, "informational")
    fgw.reportio.write_csv(cs, [row])
    return js.getvalue(), cs.getvalue()


def _render_dicts(objs):
    js = io.StringIO()
    fgw.reportio.write_json(js, objs)
    return js.getvalue(), ""


def _coeffs(f):
    return tuple(f.coeffs)


def balanced_seed(seed: int, slot: int, radius: int, budget: int) -> int:
    """Seed of a random-subsets family whose sets hold the expected total.

    The family draws each set's size uniformly from 1..|B_radius|, so its
    work varies with the seed.  Candidate seeds (seed*16 + slot)*1000 + j
    are tried in order; the first whose sizes sum to within 1% of
    budget * (|B_radius| + 1) / 2 is used, so every seed gives the same
    amount of work.  The draws replay the family's own sequence of
    ``randint`` and ``sample`` calls.
    """
    n = sum(1 if r == 0 else 2 * K * (2 * K - 1) ** (r - 1) for r in range(radius + 1))
    target = budget * (n + 1) / 2
    for j in itertools.count():
        candidate = (seed * 16 + slot) * 1000 + j
        rng = random.Random(candidate)
        total = 0
        for _ in range(budget):
            size = rng.randint(1, n)
            rng.sample(range(n), size)
            total += size
        if abs(total - target) <= 0.01 * target:
            return candidate


def _radial_sweep(seed: int):
    ops = []
    ctx = fgw.words.FreeGroupCtx(K)
    fam1 = fgw.operators.SetFamily("sphere-unions", THM1_RADIUS, seed=seed)
    suite = fgw.theorems.build_thm1_suite(ctx, seed=seed)
    for label, f in suite:

        def thm1(f=f, label=label):
            rep = fgw.theorems.verify_thm1(f, fam1)
            rep.params["label"] = label
            return _render_verification([rep])

        ops.append(Op(f"thm1:{label}", "thm1", thm1, {"f": _coeffs(f), "radius": THM1_RADIUS}))
    for s3 in range(THM3_OPS):
        fam3 = fgw.operators.SetFamily("sphere-unions", THM3_RADIUS, seed=s3)

        def thm3(s3=s3, fam3=fam3):
            rep = fgw.theorems.thm3_equivalence_report(
                ctx, samples=THM3_SAMPLES, seed=s3, max_degree=THM3_MAX_DEGREE, fam=fam3
            )
            return _render_verification([rep])

        spec = {"seed": s3, "samples": THM3_SAMPLES, "max_degree": THM3_MAX_DEGREE,
                "radius": THM3_RADIUS}
        ops.append(Op(f"thm3:seed={s3}", "thm3", thm3, spec))
    famc = fgw.operators.SetFamily("sphere-unions", CONJ_RADIUS)

    def conj():
        return _render_verification([fgw.theorems.conjecture_scan(ctx, fam=famc)])

    ops.append(Op("conjecture", "conjecture", conj, {"radius": CONJ_RADIUS}))
    faml = fgw.operators.SetFamily("sphere-unions", LEMMA1_RADIUS)

    def lemma1():
        return _render_verification([fgw.theorems.verify_lemma1(ctx, faml, LEMMA1_K_MAX)])

    ops.append(Op("lemma1:sphere-unions", "lemma1-radial", lemma1,
                  {"radius": LEMMA1_RADIUS, "k_max": LEMMA1_K_MAX}))
    famr = fgw.operators.SetFamily("sphere-unions", R22_RADIUS)

    def r22():
        return _render_verification([fgw.theorems.verify_r22(ctx, famr, R22_N_MAX)])

    ops.append(Op("r22:sphere-unions", "r22-radial", r22, {"radius": R22_RADIUS, "n_max": R22_N_MAX}))
    for p in THM4_PS:

        def thm4(p=p):
            reports = []
            for label, f in suite:
                rep = fgw.theorems.thm4_lower_chain(f, p)
                rep.params["label"] = label
                reports.append(rep)
            return _render_verification(reports)

        ops.append(Op(f"thm4:p={p}", "thm4", thm4,
                      {"p": p, "suite": [(label, _coeffs(f)) for label, f in suite]}))
    for s, t in THM5_PAIRS:

        def thm5(s=s, t=t):
            return _render_verification([fgw.theorems.thm5_exponent_fit(ctx, s, t)])

        ops.append(Op(f"thm5:s={s},t={t}", "thm5", thm5, {"s": s, "t": t}))
    return ops


def _columns(seed: int):
    ops = []
    ctx = fgw.words.FreeGroupCtx(K)
    for k, radius in P_SCANS:

        def pcol(k=k, radius=radius):
            return _render_dicts([fgw.operators.column_l1_sup("P", {"k": k}, radius, ctx)])

        ops.append(Op(f"P:k={k}", "P", pcol, {"k": k, "radius": radius}))
    for n, radius in Q_SCANS:
        alphas = [tw / 2.0 for tw in range(-n, n + 1)]

        def qcol(n=n, radius=radius, alphas=alphas):
            return _render_dicts(fgw.operators.q_alpha_sweep(ctx, n, alphas, radius))

        ops.append(Op(f"Q:n={n}", "Q", qcol, {"n": n, "alphas": alphas, "radius": radius}))
    return ops


def _explicit_sets(seed: int):
    op_mod = fgw.operators
    ops = []
    ctx = fgw.words.FreeGroupCtx(K)
    fs = [fgw.radial.parse_radial_literal(ctx, text) for text in EXPLICIT_FS]
    estimators = (
        ("restricted", "restricted_weak_estimate"),
        ("weak", "weak_estimate_21_to_2"),
    )
    families = []
    for j in range(RANDOM_FAMILIES):
        families.append(
            op_mod.SetFamily("random-subsets", RANDOM_RADIUS, budget=RANDOM_BUDGET,
                             seed=balanced_seed(seed, j, RANDOM_RADIUS, RANDOM_BUDGET))
        )
    families.append(op_mod.SetFamily("greedy", GREEDY_RADIUS, budget=GREEDY_BUDGET))
    for text, f in zip(EXPLICIT_FS, fs):
        for fam in families:
            for est, fn_name in estimators:

                def search(f=f, fam=fam, est=est, fn_name=fn_name):
                    report = getattr(fgw.operators, fn_name)(f, fam)
                    return _render_search(est, f, report)

                spec = {"f": _coeffs(f), "estimator": est, "family": fam.kind,
                        "radius": fam.radius, "budget": fam.budget, "seed": fam.seed}
                ops.append(Op(f"{est}:{fam.kind}:seed={fam.seed}:f={text}",
                              "search", search, spec))
    set_families = (
        op_mod.SetFamily("ball-subsets", BALL_SUBSETS_RADIUS, budget=BALL_SUBSETS_BUDGET),
        op_mod.SetFamily("random-subsets", RANDOM_RADIUS, budget=RANDOM_BUDGET - 2,
                         seed=balanced_seed(seed, RANDOM_FAMILIES, RANDOM_RADIUS,
                                            RANDOM_BUDGET - 2)),
    )
    for fam in set_families:
        famspec = {"family": fam.kind, "radius": fam.radius, "budget": fam.budget,
                   "seed": fam.seed}

        def r22(fam=fam):
            return _render_verification([fgw.theorems.verify_r22(ctx, fam, EXPLICIT_R22_N_MAX)])

        def lemma1(fam=fam):
            return _render_verification(
                [fgw.theorems.verify_lemma1(ctx, fam, EXPLICIT_LEMMA1_K_MAX)]
            )

        ops.append(Op(f"r22:{fam.kind}", "r22-explicit", r22,
                      dict(famspec, n_max=EXPLICIT_R22_N_MAX)))
        ops.append(Op(f"lemma1:{fam.kind}", "lemma1-explicit", lemma1,
                      dict(famspec, k_max=EXPLICIT_LEMMA1_K_MAX)))
    return ops


def build(workload: str, seed: int):
    """The workload's operations, in the order every round runs them."""
    builders = {
        "radial-sweep": _radial_sweep,
        "columns": _columns,
        "explicit-sets": _explicit_sets,
    }
    return builders[workload](seed)
