"""Per-layer tracing by wrapping fgw's public functions from outside.

``Tracer.install`` replaces each target function, in every ``fgw``
module that holds a reference to it, with a wrapper that records a span
(a stack frame with its start time and the time its child spans took)
and work counts computed from the call's arguments or result.  A span's
self time is its duration minus its children's.  Generator functions
get a span around each ``next``.  A target that no longer exists is
skipped, so its metrics read 0.  ``uninstall`` puts the originals back.

Metric names use ``kernels`` for the ``fgw._kernels`` dispatch layer.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

def _sphere_size(two_k: int, n: int) -> int:
    return 1 if n == 0 else two_k * (two_k - 1) ** (n - 1)


def _ball_size(k: int, radius: int) -> int:
    return sum(_sphere_size(2 * k, n) for n in range(radius + 1))


def _arg(a, kw, i, name):
    return a[i] if len(a) > i else kw[name]


def _conv_terms(a, kw, res):
    f, g = _arg(a, kw, 0, "f"), _arg(a, kw, 1, "g")
    gs = [m for m, c in enumerate(g.coeffs) if c]
    return {"radial.convolve_radial.terms": sum(
        min(n, m) + 1 for n, c in enumerate(f.coeffs) if c for m in gs
    )}


def _rearrange_runs(a, kw, res):
    return {"lorentz.rearrange.runs": len(res.pairs)}


def _column_words(kind):
    def count(a, kw, res):
        if kind == "sweep":  # q_alpha_sweep(ctx, n, alphas, radius)
            ctx, radius = _arg(a, kw, 0, "ctx"), _arg(a, kw, 3, "radius")
        else:  # column_l1_sup(kind, params, radius, ctx)
            ctx, radius = _arg(a, kw, 3, "ctx"), _arg(a, kw, 2, "radius")
        return {"operators.columns.words": _ball_size(ctx.k, radius)}

    return count


def _kernel_pairs(name):
    def count(a, kw, res):
        two_k, n, xkeys = a[0], a[1], a[2]
        return {f"kernels.{name}.pairs": _sphere_size(two_k, n) * len(xkeys)}

    return count


def _prod_pairs(a, kw, res):
    return {"kernels.prod_len_hist.pairs": len(a[1]) * len(a[2])}


def _sphere_keys(a, kw, res):
    return {"kernels.sphere_keys.keys": len(res)}


def _theorem_checks(a, kw, res):
    return {"theorems.checks": len(getattr(res, "checks", ()))}


#: (module, function, group, wrapper kind, extra).  Kinds: "span" (extra
#: maps args, kwargs and result to count increments), "generator" (a
#: span around each next; extra names the per-item count), "estimate",
#: "render", "items" (counts the items mapped) and "calls".  Every call
#: also counts as ``<group>.calls``.
TARGETS = [
    ("fgw.radial", "convolve_radial", "radial.convolve_radial", "span", _conv_terms),
    ("fgw.radial", "a_functional", "radial.functionals", "span", None),
    ("fgw.radial", "a_functional_parts", "radial.functionals", "span", None),
    ("fgw.radial", "conjecture_functional", "radial.functionals", "span", None),
    ("fgw.operators", "restricted_weak_estimate", "operators.estimate", "estimate", None),
    ("fgw.operators", "weak_estimate_21_to_2", "operators.estimate", "estimate", None),
    ("fgw.operators", "best_F_ratio", "operators.best_F_ratio", "span", None),
    ("fgw.operators", "pairing", "operators.pairing", "span", None),
    ("fgw.operators", "chi_pairing_profile", "operators.pairing", "span", None),
    ("fgw.operators", "candidate_sets", "operators.candidate_sets", "generator", None),
    ("fgw.operators", "explicit_set", "operators.explicit_set", "calls", None),
    ("fgw.operators", "column_l1_sup", "operators.columns", "span", _column_words("sup")),
    ("fgw.operators", "q_alpha_sweep", "operators.columns", "span", _column_words("sweep")),
    ("fgw.lorentz", "rearrange", "lorentz.rearrange", "span", _rearrange_runs),
    ("fgw.lorentz", "rearrange_radial", "lorentz.rearrange", "span", _rearrange_runs),
    ("fgw.lorentz", "lorentz_norm", "lorentz.norms", "span", None),
    ("fgw.lorentz", "weak_norm", "lorentz.norms", "span", None),
    ("fgw.lorentz", "radial_weighted_sum", "lorentz.norms", "span", None),
    ("fgw._kernels", "sphere_len_hists", "kernels.sphere_len_hists", "span",
     _kernel_pairs("sphere_len_hists")),
    ("fgw._kernels", "convolve_sphere_set", "kernels.convolve_sphere_set", "span",
     _kernel_pairs("convolve_sphere_set")),
    ("fgw._kernels", "convolve_sphere_set_value_counts", "kernels.convolve_sphere_set_value_counts",
     "span", _kernel_pairs("convolve_sphere_set_value_counts")),
    ("fgw._kernels", "prod_len_hist", "kernels.prod_len_hist", "span", _prod_pairs),
    ("fgw._kernels", "sphere_keys", "kernels.sphere_keys", "span", _sphere_keys),
    ("fgw.words", "sphere_stream", "words.stream", "generator", "words.stream.words"),
    ("fgw.words", "ball_stream", "words.stream", "generator", None),
    ("fgw.reportio", "write_json", "reportio.render", "render", None),
    ("fgw.reportio", "write_csv", "reportio.render", "render", None),
    ("fgw.parallel", "parallel_map", "parallel.parallel_map", "items", None),
]
TARGETS += [
    ("fgw.theorems", name, "theorems", "span", _theorem_checks)
    for name in (
        "verify_thm1", "verify_lemma1", "verify_r22", "thm3_equivalence_report",
        "thm4_lower_chain", "thm5_exponent_fit", "verify_p_columns", "verify_q_columns",
        "conjecture_scan", "verify_display_majorization", "build_thm1_suite", "sample_radial",
    )
]

#: Per-layer metrics, in the order they are reported.
COUNT_METRICS = (
    "radial.convolve_radial.calls", "radial.convolve_radial.terms",
    "operators.estimate.calls", "operators.estimate.candidates",
    "operators.best_F_ratio.calls",
    "lorentz.rearrange.calls", "lorentz.rearrange.runs",
    "operators.columns.calls", "operators.columns.words",
    "kernels.sphere_len_hists.pairs", "kernels.convolve_sphere_set.pairs",
    "kernels.convolve_sphere_set_value_counts.pairs", "kernels.prod_len_hist.pairs",
    "kernels.sphere_keys.keys",
    "words.stream.calls", "words.stream.words",
    "theorems.checks", "reportio.bytes", "parallel.parallel_map.items",
)
SELF_METRICS = (
    "radial.convolve_radial", "radial.functionals",
    "operators.estimate", "operators.best_F_ratio", "operators.pairing",
    "operators.candidate_sets", "operators.columns",
    "lorentz.rearrange", "lorentz.norms",
    "kernels.sphere_len_hists", "kernels.convolve_sphere_set",
    "kernels.convolve_sphere_set_value_counts", "kernels.prod_len_hist", "kernels.sphere_keys",
    "words.stream", "theorems", "reportio.render",
)


def _candidates(fam, k: int) -> int:
    """Candidate sets a non-adaptive family sweeps (empty sets skipped)."""
    if fam.kind == "ball-subsets":
        return (1 << _ball_size(k, fam.radius)) - 1
    if fam.kind == "sphere-unions":
        return len(range(1, min(2 ** (fam.radius + 1), fam.budget + 1)))
    if fam.kind in ("spheres", "balls"):
        return min(fam.radius + 1, fam.budget)
    if fam.kind == "random-subsets":
        return fam.budget
    return 0


class Tracer:
    def __init__(self):
        self.stack: list = []
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.first_round = None
        self.rounds = 0
        self._patched: list = []

    # spans
    def _enter(self):
        frame = [time.perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def _exit(self, group):
        end = time.perf_counter()
        start, children = self.stack.pop()
        dur = end - start
        if group is not None:
            self.self_s[group] += dur - children
        if self.stack:
            self.stack[-1][1] += dur

    def begin_root(self):
        self._enter()

    def end_root(self):
        self._exit(None)

    def end_round(self):
        self.rounds += 1
        if self.first_round is None:
            self.first_round = dict(self.counts)

    # wrappers
    def _span(self, fn, group, counter):
        tr = self

        def wrapper(*a, **kw):
            tr._enter()
            try:
                res = fn(*a, **kw)
            finally:
                tr._exit(group)
            tr.counts[group + ".calls"] += 1
            if counter is not None:
                for key, n in counter(a, kw, res).items():
                    tr.counts[key] += n
            return res

        return wrapper

    def _estimate(self, fn, group, _):
        tr = self
        span = self._span(fn, group, None)

        def wrapper(*a, **kw):
            f, fam = _arg(a, kw, 0, "f"), _arg(a, kw, 1, "fam")
            before = tr.counts["operators.explicit_set.calls"]
            res = span(*a, **kw)
            if fam.kind == "greedy":  # adaptive: count the sets it built
                n = tr.counts["operators.explicit_set.calls"] - before
            else:
                n = _candidates(fam, f.ctx.k)
            tr.counts["operators.estimate.candidates"] += n
            return res

        return wrapper

    def _generator(self, fn, group, per_item):
        tr = self

        def traced(gen):
            while True:
                tr._enter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tr._exit(group)
                if per_item:
                    tr.counts[per_item] += 1
                yield item

        def wrapper(*a, **kw):
            tr.counts[group + ".calls"] += 1
            return traced(fn(*a, **kw))

        return wrapper

    def _calls(self, fn, group, _):
        tr = self

        def wrapper(*a, **kw):
            tr.counts[group + ".calls"] += 1
            return fn(*a, **kw)

        return wrapper

    def _items(self, fn, group, _):
        tr = self

        def wrapper(func, items, *a, **kw):
            items = list(items)
            tr.counts[group + ".items"] += len(items)
            return fn(func, items, *a, **kw)

        return wrapper

    def _render(self, fn, group, _):
        tr = self
        span = self._span(fn, group, None)

        def wrapper(stream, *a, **kw):
            before = stream.tell()
            try:
                return span(stream, *a, **kw)
            finally:
                tr.counts["reportio.bytes"] += stream.tell() - before

        return wrapper

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "fgw" or n.startswith("fgw."))]
        done = set()
        for mod_name, name, group, kind, extra in TARGETS:
            mod = sys.modules.get(mod_name)
            fn = getattr(mod, name, None) if mod is not None else None
            if fn is None or id(fn) in done:
                continue
            done.add(id(fn))
            wrapper = getattr(self, "_" + kind)(fn, group, extra)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is fn:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, fn))

    def uninstall(self):
        for m, attr, fn in reversed(self._patched):
            setattr(m, attr, fn)
        self._patched.clear()

    def metrics(self, ref_s: float) -> dict:
        """Per-round counts and self times (in reference units)."""
        counts = self.first_round or {}
        out = {name: counts.get(name, 0) for name in COUNT_METRICS}
        rounds = max(self.rounds, 1)
        for group in SELF_METRICS:
            out[group + ".self_ref"] = self.self_s.get(group, 0.0) / rounds / ref_s
        return out
