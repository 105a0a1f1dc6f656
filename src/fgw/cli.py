"""Command-line front end.

Subcommands: convolve, norms, search, verify, conjecture.  Exit codes:
0 all checks passed, 1 a verified inequality was violated (the witness
instance is printed), 2 usage or budget error.  Reports are
byte-identical for identical (argv, seed).
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys

from .errors import BudgetExceededError
from .lorentz import LorentzIndex, lorentz_norm, rearrange_radial
from .operators import (
    FAMILY_KINDS,
    SetFamily,
    default_radius,
    require_prefix_sups_budget,
    require_self_pairings_budget,
    restricted_weak_estimate,
    weak_estimate_21_to_2,
)
from .oracle import oracle_convolve
from .radial import (
    chi,
    convolve_radial,
    format_radial_literal,
    parse_radial_literal,
)
from .reportio import json_dumps, write_csv, write_json
from .theorems import (
    build_thm1_suite,
    conjecture_scan,
    require_conjecture_grid,
    require_fit_window,
    require_nonnegative,
    require_thm4_index,
    require_thm5_indices,
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
from .words import FreeGroupCtx

VERIFY_TARGETS = (
    "lemma1",
    "thm1",
    "r22",
    "thm3",
    "thm4",
    "thm5",
    "pk",
    "qn",
    "display",
    "all",
)

THM5_PAIRS = ((1.0, math.inf), (2.0, 2.0), (2.0, math.inf), (1.0, 2.0), (1.5, 3.0))


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k", type=int, default=2, help="number of generators (>= 2)")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--output", default=None, help="write reports here instead of stdout")


def _add_family(parser: argparse.ArgumentParser, radius_default=None) -> None:
    parser.add_argument("--family", choices=FAMILY_KINDS, default="sphere-unions")
    parser.add_argument("--radius", type=int, default=radius_default)
    parser.add_argument("--budget", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fgw",
        description="exact radial convolution toolkit on free groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convolve", help="chi_n * chi_m with exact structure constants")
    _add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--oracle", action="store_true", help="cross-check against brute enumeration")

    p = sub.add_parser("norms", help="Lorentz norm of a radial literal")
    _add_common(p)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--s", type=str, required=True, help="second index; 'inf' for the weak norm")
    p.add_argument("--radial", required=True, help='coefficients, e.g. "1,1/3,0,2"')

    p = sub.add_parser("search", help="set-search lower bound for an operator norm")
    _add_common(p)
    _add_family(p)
    p.add_argument("--f", required=True, help="radial literal of the convolver")
    p.add_argument(
        "--estimator",
        choices=("restricted", "weak"),
        default="restricted",
        help="restricted: L^{2,1} -> L^{2,inf}; weak: L^{2,1} -> l^2",
    )

    p = sub.add_parser("verify", help="run a verifier suite")
    _add_common(p)
    _add_family(p)
    p.add_argument("target", choices=VERIFY_TARGETS)
    p.add_argument("--f", default=None, help="radial literal (thm1/thm4 single function)")
    p.add_argument("--k-max", type=int, default=None, help="max sphere index (lemma1/pk)")
    p.add_argument("--n-max", type=int, default=None, help="max sphere index (r22/qn)")
    p.add_argument("--samples", type=int, default=100, help="sample count (thm3)")
    p.add_argument("--max-degree", type=int, default=6, help="sampled degree cap (thm3)")
    p.add_argument("--p", type=float, default=None, help="Lebesgue index (thm4)")
    p.add_argument("--s", type=float, default=None, help="source index (thm5)")
    p.add_argument("--t", type=str, default=None, help="target index, 'inf' allowed (thm5)")
    p.add_argument("--n-min", type=int, default=4, help="smallest fitted n (thm5)")
    p.add_argument("--fit-n-max", type=int, default=40, help="largest fitted n (thm5)")

    p = sub.add_parser("conjecture", help="exploratory functional-vs-estimator scan")
    _add_common(p)
    _add_family(p)
    p.add_argument("--s-grid", default="1,1.25,1.5,1.75,2", help="comma-separated s values")

    return parser


def _family(args, ctx: FreeGroupCtx) -> SetFamily:
    radius = args.radius if args.radius is not None else default_radius(ctx)
    return SetFamily(args.family, radius, budget=args.budget, seed=args.seed)


def _emit(args, objects, csv_rows) -> None:
    out = args.out
    if args.format == "csv":
        write_csv(out, csv_rows)
    elif isinstance(objects, dict):
        out.write(json_dumps(objects))
        out.write("\n")
    else:
        write_json(out, objects)


def _finish(args, reports) -> int:
    if args.format == "csv":
        _emit(args, None, [row for rep in reports for row in rep.csv_rows()])
    else:
        _emit(args, [obj for rep in reports for obj in rep.json_objects()], None)
    failures = [c for rep in reports for c in rep.failures()]
    if failures:
        worst = failures[0]
        print(
            f"violated: {worst['id']}: {worst['inequality']}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_convolve(args) -> int:
    ctx = FreeGroupCtx(args.k)
    if args.format == "csv":
        raise ValueError("convolve emits JSON only")
    if args.n < 0 or args.m < 0:
        raise ValueError("sphere indices must be nonnegative")
    product = convolve_radial(chi(ctx, args.n), chi(ctx, args.m))
    obj = {str(l): str(c) for l, c in product.nonzero_items()}
    if args.oracle:
        obj["oracle_match"] = oracle_convolve(ctx, args.n, args.m).coeffs == product.coeffs
    _emit(args, obj, None)
    return 0


def cmd_norms(args) -> int:
    ctx = FreeGroupCtx(args.k)
    if args.format == "csv":
        raise ValueError("norms emits JSON only")
    s = _option_check("--s", float, args.s)
    idx = _option_check("--p/--s", LorentzIndex, args.p, s)
    f = parse_radial_literal(ctx, args.radial)
    value = lorentz_norm(rearrange_radial(f), idx)
    obj = {
        "kind": "norm",
        "k": ctx.k,
        "p": args.p,
        "s": s if math.isfinite(s) else "inf",
        "f": format_radial_literal(f),
        "value": value,
    }
    _emit(args, [obj], None)
    return 0


def cmd_search(args) -> int:
    ctx = FreeGroupCtx(args.k)
    fam = _family(args, ctx)
    f = parse_radial_literal(ctx, args.f)
    if args.estimator == "restricted":
        report = restricted_weak_estimate(f, fam)
    else:
        report = weak_estimate_21_to_2(f, fam)
    report = {"kind": "search", "estimator": args.estimator, "f": format_radial_literal(f), **report}
    if args.format == "csv":
        _emit(
            args,
            None,
            [(f"search:{args.estimator}", f"f={report['f']}", None, report["estimate"], None, "informational")],
        )
    else:
        _emit(args, [report], None)
    return 0


def _option_check(option: str, check, *values):
    """check(*values), a ValueError naming the option that fed it."""
    try:
        return check(*values)
    except ValueError as exc:
        raise ValueError(f"{option}: {exc}") from None


def _verify_reports(args, ctx: FreeGroupCtx, target: str) -> list:
    # every usage error fires here, before the first verifier runs
    if target in ("thm3", "all") and args.samples < 1:
        raise ValueError("--samples must be at least 1")
    if target in ("thm3", "all") and args.max_degree < 0:
        raise ValueError("--max-degree must be nonnegative")
    if target in ("lemma1", "pk", "all") and args.k_max is not None and args.k_max < 0:
        raise ValueError("--k-max must be nonnegative")
    if target in ("r22", "qn", "all") and args.n_max is not None and args.n_max < 0:
        raise ValueError("--n-max must be nonnegative")
    if target in ("thm4", "all") and args.p is not None:
        _option_check("--p", require_thm4_index, args.p)
    if target in ("thm5", "all"):
        if (args.s is None) != (args.t is None):
            raise ValueError("thm5 needs both --s and --t")
        if args.s is not None:
            t = _option_check("--t", float, args.t)
            _option_check("--s/--t", require_thm5_indices, args.s, t)
            thm5_pairs = [(args.s, t)]
        else:
            thm5_pairs = THM5_PAIRS
        n_range = range(args.n_min, args.fit_n_max + 1)
        _option_check("--n-min/--fit-n-max", require_fit_window, ctx, n_range)
    if target in ("thm1", "thm4", "all"):
        if args.f is not None:
            f = _option_check("--f", parse_radial_literal, ctx, args.f)
            _option_check("--f", require_nonnegative, f)
            suite = [("f", f)]
        else:
            suite = build_thm1_suite(ctx, seed=args.seed)
    fam = _family(args, ctx)
    # and an explicit family's pair budgets, before its ball is built
    if target in ("lemma1", "all"):
        require_self_pairings_budget(ctx, fam)
    if target in ("r22", "all"):
        r22_n_max = args.n_max if args.n_max is not None else 8
        require_prefix_sups_budget(ctx, fam, r22_n_max)
    reports = []
    if target in ("lemma1", "all"):
        k_max = args.k_max if args.k_max is not None else 8
        reports.append(verify_lemma1(ctx, fam, k_max))
    if target in ("thm1", "all"):
        for label, f in suite:
            rep = verify_thm1(f, fam)
            rep.params["label"] = label
            reports.append(rep)
    if target in ("r22", "all"):
        reports.append(verify_r22(ctx, fam, r22_n_max))
    if target in ("thm3", "all"):
        reports.append(
            thm3_equivalence_report(
                ctx,
                samples=args.samples,
                seed=args.seed,
                max_degree=args.max_degree,
                fam=fam,
            )
        )
    if target in ("thm4", "all"):
        ps = [args.p] if args.p is not None else [1.25, 1.5, 1.75]
        for p in ps:
            for label, f in suite:
                rep = thm4_lower_chain(f, p)
                rep.params["label"] = label
                reports.append(rep)
    if target in ("thm5", "all"):
        for s, t in thm5_pairs:
            reports.append(thm5_exponent_fit(ctx, s, t, n_range))
    if target in ("pk", "all"):
        k_max = args.k_max if args.k_max is not None else 6
        reports.append(verify_p_columns(ctx, k_max, fam.radius))
    if target in ("qn", "all"):
        n_max = args.n_max if args.n_max is not None else 6
        reports.append(verify_q_columns(ctx, n_max, fam.radius))
    if target in ("display", "all"):
        reports.append(verify_display_majorization(ctx))
    return reports


def cmd_verify(args) -> int:
    ctx = FreeGroupCtx(args.k)
    reports = _verify_reports(args, ctx, args.target)
    return _finish(args, reports)


def cmd_conjecture(args) -> int:
    ctx = FreeGroupCtx(args.k)
    fam = _family(args, ctx)
    try:
        s_grid = [float(tok) for tok in args.s_grid.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"--s-grid: malformed s grid {args.s_grid!r}: {exc}") from None
    _option_check("--s-grid", require_conjecture_grid, s_grid)
    report = conjecture_scan(ctx, s_grid=s_grid, fam=fam)
    return _finish(args, [report])


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "convolve": cmd_convolve,
        "norms": cmd_norms,
        "search": cmd_search,
        "verify": cmd_verify,
        "conjecture": cmd_conjecture,
    }
    # check --output before any work, so an unwritable path is a usage
    # error; appending nothing leaves its contents as they are, and they
    # are replaced only once a report has been written
    created = bool(args.output) and not os.path.exists(args.output)
    if args.output:
        try:
            open(args.output, "a", encoding="utf-8").close()
        except OSError as exc:
            print(f"error: cannot write --output: {exc}", file=sys.stderr)
            return 2
    args.out = io.StringIO() if args.output else sys.stdout
    try:
        code = handlers[args.command](args)
    except BaseException as exc:
        # a file this run created but wrote no report to is taken away
        if created:
            os.remove(args.output)
        if not isinstance(exc, (BudgetExceededError, ValueError)):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.output:
        with open(args.output, "w", encoding="utf-8") as out:
            out.write(args.out.getvalue())
    return code


if __name__ == "__main__":
    sys.exit(main())
