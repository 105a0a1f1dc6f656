"""Composite verifiers: pass/fail certificates for the main inequalities.

Each verifier runs one quantified inequality over its stated domain and
returns a VerificationReport whose check rows carry the two sides and
the margin rhs/lhs.  Upper bounds ("<=" checks) enumerate their domain
exhaustively within the declared caps; lower bounds use only certified
estimates, so a pass is a rigorous consequence of exact arithmetic.
Slack constants 1/15 and (2/3)^{p'} in the lower bounds absorb the gap
between the exact structure constants and their displayed majorant.

This module only states inequalities.  How a family is swept (radial
masks or explicit enumeration) and how values are scaled to integers
is decided in operators (self_pairings, prefix_sups, the estimators),
radial and lorentz.  Every product f * chi_n here is read as integers
over D = lcm(denominators of f) from radial.sphere_product, with no
Fraction built: thm1 takes ||f * chi_m||_2^2 from
sphere_product_norm_squared, which shares the sum of
RadialFunction.l2_norm_squared and equals
convolve_radial(f, chi_m).l2_norm_squared(); thm3 and thm4 divide by D
once per value, which rounds as float() of the Fraction would; thm5's
f is float, so D = 1 and h is rearranged as it is through
lorentz.rearrange_spheres, and its denominators ||f_n||_(2,s) come from
one prefix pass over the longest f's runs (lorentz_prefix_norms); these
runs do not depend on (s, t) and are built once per fit window.  The
pk and qn verdicts are the column reports' exact ok, and lemma1's its
integer comparison, and thm4's chain rows' float comparison at relative
tolerance THM4_REL_TOL, passed to check_le as holds; every other verdict
is a plain lhs <= rhs with a float side.  The argument checks (require_*)
are public, so the CLI can run them before any verifier.
Numbers in check ids, inequality texts and CSV parameter blocks are
written by reportio (render_number, render_param).  check_le and info
record each check row once, as the JSON object it is written as, with
"kind": "check" first; json_objects returns the summary and then those
very rows, and csv_rows reads its cells from them.
"""

from __future__ import annotations

import math
import random
import statistics
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .lorentz import (
    LorentzIndex,
    lorentz_norm,
    lorentz_prefix_norms,
    radial_power_sum,
    radial_weighted_sum,
    rearrange_radial,
    rearrange_spheres,
)
from .operators import (
    SetFamily,
    column_l1_sup,
    default_radius,
    prefix_sups,
    q_alpha_sweep,
    restricted_weak_estimate,
    self_pairings,
    weak_estimate_21_to_2,
)
from .radial import (
    RadialFunction,
    a_functional,
    chi,
    conjecture_functional,
    paper_display_coefficient,
    require_conjecture_index,
    require_nonnegative,
    sphere_product,
    sphere_product_norm_squared,
    structure_constant,
)
from .reportio import render_number, render_param
from .words import FreeGroupCtx, sphere_size


def _margin(lhs, rhs) -> float:
    """rhs/lhs; a vanishing left side reports the right side itself."""
    lhs = float(lhs)
    rhs = float(rhs)
    return rhs / lhs if lhs > 0 else rhs


@dataclass
class VerificationReport:
    """Per-instance check rows plus the run's parameter block."""

    theorem: str
    params: dict
    checks: list = field(default_factory=list)
    informational: bool = False

    def check_le(self, check_id, lhs, rhs, note=None, expected=None, holds=None):
        """Record the inequality lhs <= rhs; expected overrides pass/fail.

        holds, when given, is the verdict, decided by the caller; lhs
        and rhs are then only rendered.  A non-finite side raises
        ValueError here, as reportio.render_number refuses it.
        """
        ok = lhs <= rhs if holds is None else holds
        status = "pass" if ok else "fail"
        if expected is not None:
            status = "informational"
        row = {
            "kind": "check",
            "id": check_id,
            "inequality": f"{render_number(lhs)} <= {render_number(rhs)}",
            "lhs": lhs,
            "rhs": rhs,
            "margin": _margin(lhs, rhs),
            "status": status,
        }
        if note:
            row["note"] = note
        if expected is not None:
            row["holds"] = ok
            row["expected_to_hold"] = expected
        self.checks.append(row)
        return ok

    def check_ge(self, check_id, lhs, rhs, note=None, expected=None, holds=None):
        """Record the inequality lhs >= rhs (normalized to rhs <= lhs)."""
        return self.check_le(check_id, rhs, lhs, note=note, expected=expected, holds=holds)

    def info(self, check_id, note=None, **values):
        row = {"kind": "check", "id": check_id, "status": "informational"}
        if note:
            row["note"] = note
        row.update(values)
        self.checks.append(row)

    def _status(self, failed: bool) -> str:
        if failed:
            return "fail"
        return "informational" if self.informational else "pass"

    @property
    def status(self) -> str:
        return self._status(any(c["status"] == "fail" for c in self.checks))

    @property
    def ok(self) -> bool:
        return self.status != "fail"

    def counts(self) -> dict:
        out = {"pass": 0, "fail": 0, "informational": 0}
        for c in self.checks:
            out[c["status"]] += 1
        return out

    def tightest(self):
        """The non-informational check with the smallest margin."""
        rows = [c for c in self.checks if c["status"] != "informational" and "margin" in c]
        return min(rows, key=lambda c: c["margin"], default=None)

    def failures(self) -> list:
        return [c for c in self.checks if c["status"] == "fail"]

    def summary(self) -> dict:
        counts = self.counts()
        out = {
            "kind": "summary",
            "theorem": self.theorem,
            "status": self._status(counts["fail"] > 0),
            "params": self.params,
            "counts": counts,
        }
        tight = self.tightest()
        if tight is not None:
            out["tightest"] = {k: tight[k] for k in ("id", "inequality", "margin")}
        return out

    def json_objects(self) -> list:
        """The summary, then the check rows themselves: each is recorded as written."""
        return [self.summary(), *self.checks]

    def csv_rows(self) -> list:
        params_text = " ".join(f"{k}={render_param(v)}" for k, v in self.params.items())
        rows = []
        for c in self.checks:
            rows.append(
                (
                    c["id"],
                    params_text,
                    c.get("lhs"),
                    c.get("rhs"),
                    c.get("margin"),
                    c["status"],
                )
            )
        return rows


def verify_thm1(f: RadialFunction, fam: SetFamily) -> VerificationReport:
    """Two-sided weak-type (2,2) certificate against A(f).

    Upper: the squared set estimate never exceeds 4 A(f) (a necessary
    consequence of the theorem, checked on the family's best set, which
    dominates every tested set).  Lower: the sphere chain at radii
    m = 2 deg f .. 2 deg f + 4 reaches at least A(f)/15.
    """
    require_nonnegative(f)
    ctx = f.ctx
    report = VerificationReport("thm1", {"k": ctx.k, "f": str(f), **fam.report_fields()})
    if f.is_zero():
        report.info("thm1:zero", note="zero function; nothing to check")
        return report
    a_val = a_functional(f)
    est = weak_estimate_21_to_2(f, fam)
    report.check_le(
        f"thm1:upper:E={est['E']}",
        est["estimate"] ** 2,
        4 * a_val,
        note="squared estimate at the family's best set vs 4*A(f)",
    )
    ms = range(2 * f.degree, 2 * f.degree + 5)
    chain = [sphere_product_norm_squared(f, m) / sphere_size(ctx, m) for m in ms]
    for m, val in zip(ms, chain):
        report.info(f"thm1:chain:m={m}", value=float(val))
    report.check_ge(
        "thm1:lower:sphere-chain",
        max(chain),
        a_val / 15,
        note="max_m ||f*chi_m||_2^2/|S_m| vs A(f)/15",
    )
    return report


def verify_lemma1(ctx: FreeGroupCtx, fam: SetFamily, k_max: int) -> VerificationReport:
    """<chi_k * chi_E, chi_E> <= 2 q^{[k/2]} |E| over the family, k <= k_max."""
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    q = ctx.q
    report = VerificationReport("lemma1", {"k": ctx.k, "k_max": k_max, **fam.report_fields()})
    for label, size, pairs in self_pairings(ctx, fam, k_max):
        for k, lhs in enumerate(pairs):
            rhs = 2 * q ** (k // 2) * size
            # decided on the integers; the row shows lhs as the exact rational it is
            report.check_le(f"lemma1:k={k}:E={label}", Fraction(lhs), rhs, holds=lhs <= rhs)
    return report


def verify_r22(ctx: FreeGroupCtx, fam: SetFamily, n_max: int) -> VerificationReport:
    """<chi_n * chi_E, chi_F> <= 2 q^{3/2} q^{n/2} |E|^{1/2} |F|^{1/2}.

    The sup over F is solved exactly by the prefix ratio, so a pass
    covers every F, not just family members.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    q = ctx.q
    report = VerificationReport("r22", {"k": ctx.k, "n_max": n_max, **fam.report_fields()})
    coefs = [2.0 * float(q) ** (1.5 + 0.5 * n) for n in range(n_max + 1)]
    for label, size, sups in prefix_sups(ctx, fam, n_max):
        root = math.sqrt(size)
        for n, (sup_f, coef) in enumerate(zip(sups, coefs)):
            rhs = coef * root
            report.check_le(f"r22:n={n}:E={label}", sup_f, rhs, note="sup over F solved exactly")
    return report


def sample_radial(ctx: FreeGroupCtx, rng: random.Random, max_degree: int) -> RadialFunction:
    """Random nonnegative rational radial function of degree <= max_degree."""
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    while True:
        coeffs = [
            Fraction(rng.randint(1, 12), rng.randint(1, 6)) if rng.random() < 0.5 else Fraction(0)
            for _ in range(max_degree + 1)
        ]
        if any(coeffs):
            return RadialFunction(ctx, tuple(coeffs))


def _spheres_and_decays(ctx: FreeGroupCtx) -> list:
    """(label, f) for chi_0 .. chi_6 and the geometric decays q^{-beta n}, n <= 6."""
    fns = [(f"chi_{n}", chi(ctx, n)) for n in range(7)]
    q = float(ctx.q)
    for beta in (0.4, 0.5, 0.6):
        coeffs = tuple(q ** (-beta * n) for n in range(7))
        fns.append((f"geometric-beta={beta}", RadialFunction(ctx, coeffs)))
    return fns


def build_thm1_suite(ctx: FreeGroupCtx, seed: int = 0):
    """The 50-function suite: spheres, geometric decays, random supports."""
    suite = _spheres_and_decays(ctx)
    rng = random.Random(seed)
    for i in range(40):
        suite.append((f"random-{i}", sample_radial(ctx, rng, 6)))
    return suite


def thm3_equivalence_report(
    ctx: FreeGroupCtx,
    samples: int = 100,
    seed: int = 0,
    max_degree: int = 6,
    fam: SetFamily = None,
) -> VerificationReport:
    """Two-sided equivalence of the restricted estimate and sum f_n q^{n/2}.

    Upper: estimate <= 2 q^{3/2} * sum (from the sphere bound and
    subadditivity).  Lower: the best sphere pair (m = n or n + 1)
    reaches a constant times the larger parity-split sum.  The empirical
    ratio band over the samples is the report's headline numbers.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if fam is None:
        fam = SetFamily("sphere-unions", default_radius(ctx), seed=seed)
    q = ctx.q
    # the seed is the sample seed, written where the family's would be
    params = {"k": ctx.k, "samples": samples, "max_degree": max_degree, **fam.report_fields()}
    report = VerificationReport("thm3", {**params, "seed": seed})
    rng = random.Random(seed)
    fns = [(f"sample-{i}", sample_radial(ctx, rng, max_degree)) for i in range(samples)]
    upper_c = 2.0 * float(q) ** 1.5

    ratios = []
    lower_ratios = []
    for label, f in fns:
        weighted = radial_weighted_sum(f, 2.0)
        est = restricted_weak_estimate(f, fam)["estimate"]
        pair_best = _sphere_pair_best(f)
        even = math.fsum(
            float(c) * float(q) ** (0.5 * n) for n, c in f.nonzero_items() if n % 2 == 0
        )
        odd = math.fsum(
            float(c) * float(q) ** (0.5 * n) for n, c in f.nonzero_items() if n % 2 == 1
        )
        ratio = est / weighted
        ratios.append(ratio)
        lower = pair_best / max(even, odd)
        lower_ratios.append(lower)
        report.check_le(
            f"thm3:upper:{label}",
            est,
            upper_c * weighted,
            note=f"f={f}",
        )
        report.info(
            f"thm3:ratios:{label}",
            ratio=ratio,
            lower_ratio=lower,
        )
    report.params["ratio_band"] = [min(ratios), max(ratios)]
    report.params["lower_ratio_band"] = [min(lower_ratios), max(lower_ratios)]
    report.check_ge(
        "thm3:lower-ratio-positive",
        min(lower_ratios),
        0.5,
        note="sphere-pair value vs parity-split sum, worst sample",
    )
    report.check_le(
        "thm3:band-spread",
        max(ratios),
        25.0 * min(ratios),
        note="two-sided band c2/c1 <= 25",
    )
    return report


def _sphere_pair_best(f: RadialFunction) -> float:
    """max of <f * chi_n, chi_m> / sqrt(|S_n| |S_m|) over n <= deg f + 2, m in (n, n + 1).

    <f * chi_n, chi_m> = (f * chi_n)_m |S_m|, one sphere_product per n.
    """
    ctx = f.ctx
    d = f.degree
    best = 0.0
    for n in range(d + 3):
        # length d + n + 2 reaches m = n + 1 also when deg f = 0
        D, h = sphere_product(f, n, d + n + 2)
        for m in (n, n + 1):
            val = h[m] * sphere_size(ctx, m) / D
            val /= math.sqrt(sphere_size(ctx, n) * sphere_size(ctx, m))
            best = max(best, val)
    return best


def require_thm4_index(p: float) -> None:
    """thm4's chain is stated for 1 < p < 2."""
    if not 1 < p < 2:
        raise ValueError("p must lie in (1, 2)")


#: Relative tolerance of thm4's chain rows, the only verdicts compared at one.
THM4_REL_TOL = 1e-9


def thm4_lower_chain(f: RadialFunction, p: float) -> VerificationReport:
    """q^{-n} ||f * chi_n||_{p'}^{p'} >= (2/3)^{p'} sum_{l<=n} q^{lp'/p} f_l^{p'}.

    Checked for n = deg f .. deg f + 3 with exact convolution; at
    n >= deg f the right side equals the p-weighted sum, so the chain
    certifies the estimator >= (2/3) * radial_weighted_sum(f, p).
    """
    require_thm4_index(p)
    require_nonnegative(f)
    ctx = f.ctx
    q = float(ctx.q)
    pp = p / (p - 1.0)
    report = VerificationReport(
        "thm4", {"k": ctx.k, "f": str(f), "p": p, "p_prime": pp, "rel_tol": THM4_REL_TOL}
    )
    if f.is_zero():
        report.info("thm4:zero", note="zero function; nothing to check")
        return report
    d = f.degree
    slack = (2.0 / 3.0) ** pp
    target = radial_power_sum(f, p)
    sizes = [float(sphere_size(ctx, l)) for l in range(2 * d + 4)]
    for n in range(d, d + 4):
        D, h = sphere_product(f, n)
        norm_pp = math.fsum([(c / D) ** pp * m for c, m in zip(h, sizes) if c])
        lhs = norm_pp / q**n
        report.check_ge(
            f"thm4:n={n}",
            lhs,
            slack * target,
            holds=slack * target <= lhs * (1.0 + THM4_REL_TOL),
            note="q^{-n}||f*chi_n||_{p'}^{p'} vs (2/3)^{p'} sum q^{lp'/p} f_l^{p'}",
        )
    report.info(
        "thm4:conclusion",
        note="chain certifies estimator >= (2/3) * radial_weighted_sum(f, p)",
        weighted_sum=target ** (1.0 / pp),
    )
    return report


def require_thm5_indices(s: float, t: float) -> None:
    """thm5's exponent is stated for 1 <= s <= 2 <= t."""
    if not (1 <= s <= 2 and 2 <= t):
        raise ValueError("need 1 <= s <= 2 <= t")


def require_fit_window(ctx: FreeGroupCtx, n_range) -> list:
    """The fitted n as a list; a log-log fit needs at least 8 of them.

    f_n's coefficients q^{-k/2}, k <= 2n, are floats, so the largest n
    must keep q^{-n} a normal float: past it f_n loses its tail.
    """
    ns = [int(n) for n in n_range]
    if len(ns) < 8:
        raise ValueError("degenerate fit: needs at least 8 points")
    top = max(ns)
    smallest = float(ctx.q) ** -top
    if smallest < sys.float_info.min:
        raise ValueError(
            f"n = {top} puts f_n's coefficient q^-n = {smallest:.3g} below the normal floats"
        )
    return ns


@lru_cache(maxsize=1)
def _thm5_runs(ctx: FreeGroupCtx, ns: tuple) -> tuple:
    """The (s, t)-free part of thm5 on one fit window ns.

    Returns the rearrangement of the longest f = sum_{k<=2 max(ns)}
    q^{-k/2} chi_k and, for each n in ns, that of f_n * chi_n.  f_n's
    runs are the first 2n + 1 runs of the longest f, so its prefixes
    give every denominator.  Memoized for one window: the (s, t) pairs
    of a CLI run, and perfbench's rounds, share it; the values are
    immutable.
    """
    q = float(ctx.q)
    coeffs = tuple(q ** (-0.5 * k) for k in range(2 * max(ns) + 1))
    products = tuple(
        # f is float, so D = 1
        rearrange_spheres(ctx, sphere_product(RadialFunction(ctx, coeffs[: 2 * n + 1]), n)[1])
        for n in ns
    )
    return rearrange_radial(RadialFunction(ctx, coeffs)), products


def thm5_exponent_fit(
    ctx: FreeGroupCtx, s: float, t: float, n_range=range(4, 41)
) -> VerificationReport:
    """Growth exponent of ||chi_n * f||_{(2,t)} / ||f||_{(2,s)}.

    f = sum_{k<=2n} q^{-k/2} chi_k is the extremal family; the fitted
    log-log slope of the q^{n/2}-normalized ratio must land within 0.15
    of 1 - 1/s + 1/t.  Entirely on the radial fast path.  The runs of f
    and of f * chi_n do not depend on (s, t); they are built once per
    fit window (_thm5_runs) and only the norms are taken per call.
    """
    require_thm5_indices(s, t)
    ns = require_fit_window(ctx, n_range)
    q = float(ctx.q)
    expected = 1.0 - 1.0 / s + (0.0 if math.isinf(t) else 1.0 / t)
    report = VerificationReport(
        "thm5",
        {
            "k": ctx.k,
            "s": s,
            "t": t if math.isfinite(t) else "inf",
            "n_min": min(ns),
            "n_max": max(ns),
            "expected_slope": expected,
        },
    )
    longest, products = _thm5_runs(ctx, tuple(ns))
    num_idx = LorentzIndex(2.0, t)
    dens = lorentz_prefix_norms(longest, LorentzIndex(2.0, s), [2 * n + 1 for n in ns])
    xs = []
    ys = []
    for n, num, den in zip(ns, products, dens):
        ratio = lorentz_norm(num, num_idx) / den
        xs.append(math.log(n))
        ys.append(math.log(ratio * q ** (-0.5 * n)))
        report.info(f"thm5:n={n}", ratio=ratio)
    slope = statistics.linear_regression(xs, ys).slope
    report.params["fitted_slope"] = slope
    report.check_le(
        f"thm5:slope:s={render_number(s)},t={render_param(report.params['t'])}",
        abs(slope - expected),
        0.15,
        note=f"fitted {slope:.6f} vs expected {expected:.6f}",
    )
    return report


def verify_p_columns(ctx: FreeGroupCtx, k_max: int, radius: int) -> VerificationReport:
    """sup_x ||P_k delta_x||_1 <= q^{[k/2]} over the ball, with equality
    witnesses at even k."""
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    q = ctx.q
    report = VerificationReport("pk", {"k": ctx.k, "k_max": k_max, "radius": radius})
    for k in range(k_max + 1):
        rep = column_l1_sup("P", {"k": k}, radius, ctx)
        bound = q ** (k // 2)
        report.check_le(
            f"pk:k={k}",
            rep["sup"],
            bound,
            holds=rep["ok"],
            note=f"witness x={rep['witness']!r}",
        )
        if k % 2 == 0:
            report.check_ge(
                f"pk:k={k}:equality",
                rep["sup"],
                bound,
                note=f"equality witness x={rep['witness']!r}",
            )
    return report


def verify_q_columns(ctx: FreeGroupCtx, n_max: int, radius: int) -> VerificationReport:
    """Column bound q^{3/2 - alpha + n/2} on the half grid |alpha| <= n/2.

    The alpha = n column is reported as well: full cancellation gives a
    mass >= 1 witness beating the claimed bound once n >= 4, so that row
    is informational and expected to fail, documenting the regime where
    the claim stops holding.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    report = VerificationReport("qn", {"k": ctx.k, "n_max": n_max, "radius": radius})
    for n in range(n_max + 1):
        alphas = [tw / 2.0 for tw in range(-n, n + 1)]
        extra = [float(n)] if n >= 1 else []
        sweep = q_alpha_sweep(ctx, n, alphas + extra, radius)
        for rep in sweep[: len(alphas)]:
            alpha = rep["params"]["alpha"]
            report.check_le(
                f"qn:n={n}:alpha={render_number(alpha)}",
                rep["sup"],
                rep["bound"],
                holds=rep["ok"],
                note=f"witness x={rep['witness']!r}",
            )
        for rep in sweep[len(alphas) :]:
            report.check_le(
                f"qn:n={n}:alpha={n}:full-cancellation",
                rep["sup"],
                rep["bound"],
                holds=rep["ok"],
                expected=(n < 4),
                note=f"witness x={rep['witness']!r}; mass >= 1 at alpha = n",
            )
    return report


def require_conjecture_grid(s_grid) -> None:
    """The scan needs at least one s, each in [1, 2]."""
    if not s_grid:
        raise ValueError("the grid holds no s")
    for s in s_grid:
        require_conjecture_index(s)


def conjecture_scan(ctx: FreeGroupCtx, s_grid=None, fam: SetFamily = None) -> VerificationReport:
    """Exploratory table: conjecture functional vs squared set estimate.

    Under the indicator-exact norm convention the restricted (2,s)
    estimate on indicator pairs does not depend on s, so the functional
    carries all the s-dependence.  Both exponent sign conventions are
    tabulated side by side; nothing here passes or fails.
    """
    if s_grid is None:
        s_grid = [1.0, 1.25, 1.5, 1.75, 2.0]
    require_conjecture_grid(s_grid)
    if fam is None:
        fam = SetFamily("sphere-unions", default_radius(ctx))
    fns = _spheres_and_decays(ctx)
    fns.append(("sparse-0+4", chi(ctx, 0) + chi(ctx, 4)))
    fns.append(("sparse-1+5", chi(ctx, 1) + chi(ctx, 5)))
    fns.append(("sparse-2+6", chi(ctx, 2) + chi(ctx, 6)))
    report = VerificationReport(
        "conjecture",
        {
            "k": ctx.k,
            "s_grid": list(s_grid),
            "family": fam.kind,
            "radius": fam.radius,
            "budget": fam.budget,
            "seed": fam.seed,
        },
        informational=True,
    )

    for label, f in fns:
        est_sq = restricted_weak_estimate(f, fam)["estimate"] ** 2
        for s in s_grid:
            pos = conjecture_functional(f, s, exponent_sign=1)
            report.info(
                f"conjecture:{label}:s={render_number(s)}",
                estimate_sq=est_sq,
                functional=pos,
                functional_negative_sign=conjecture_functional(f, s, exponent_sign=-1),
                margin=_margin(est_sq, pos),
            )
    return report


def verify_display_majorization(ctx: FreeGroupCtx) -> VerificationReport:
    """exact <= display <= 2 * exact on every admissible triple with n, m <= 12."""
    nm_max = 12
    report = VerificationReport("display", {"k": ctx.k, "nm_max": nm_max})
    worst = None
    triples = 0
    for n in range(nm_max + 1):
        for m in range(nm_max + 1):
            for l in range(abs(n - m), n + m + 1, 2):
                c = structure_constant(ctx, n, m, l)
                d = paper_display_coefficient(ctx, n, m, l)
                triples += 1
                if not c <= d <= 2 * c:
                    report.check_le(f"display:lower:({n},{m},{l})", c, d)
                    report.check_le(f"display:upper:({n},{m},{l})", d, 2 * c)
                ratio = d / c
                if worst is None or ratio > worst[0]:
                    worst = (ratio, n, m, l)
    report.params["triples_checked"] = triples
    report.check_le(
        "display:worst-ratio",
        worst[0],
        2,
        note=f"largest display/exact ratio at (n,m,l)=({worst[1]},{worst[2]},{worst[3]})",
    )
    return report
