"""Discrete Lorentz norms over counting measure.

Everything is driven by the decreasing rearrangement a_1 >= a_2 >= ...
of |f|, stored as (value, multiplicity) runs because multiplicities are
sphere sizes and grow exponentially.  runs() builds every such
rearrangement in the package; rearrange_spheres() is its radial form,
for a RadialFunction or for a float product read from
radial.sphere_product.  The norm convention is

    ||f||_{p,s} = ( sum_i a_i^s (i^{s/p} - (i-1)^{s/p}) )^{1/s}
    ||f||_{p,inf} = sup_i i^{1/p} a_i

whose telescoping weights make ||chi_E||_{p,s} = |E|^{1/p} exactly for
every s, so indicator-based estimates are literal identities rather
than equivalences up to a constant.  Blockwise sums never expand runs;
the power differences are evaluated without cancellation and combined
with compensated summation (relative tolerance 1e-9 across the suite).
Counts or terms past float range (|S_n| is no float from n = 646 on
F_2) take a log-scaled path, as math.log takes integers of any size;
every evaluation that stays in float range keeps the float path, and a
norm that is itself past float range is a ValueError.  Both norm
entries take a LorentzIndex.  lorentz_prefix_norms gives the norms of
every prefix of one rearrangement's runs from one pass over its terms,
and lorentz_norm is its whole-rearrangement case.  The weak norm is
lorentz_norm(r, LorentzIndex(p, math.inf)), whose terms are the run-end
values v (c+m)^{1/p}.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .radial import RadialFunction, require_nonnegative
from .words import FreeGroupCtx, sphere_size


@dataclass(frozen=True)
class LorentzIndex:
    """Index pair (p, s) with p in (1, inf) and s in [1, inf]."""

    p: float
    s: float

    def __post_init__(self):
        if not self.p > 1:
            raise ValueError("first index p must exceed 1")
        if not self.s >= 1:
            raise ValueError("second index s must be >= 1 or infinity")


@dataclass(frozen=True)
class Rearrangement:
    """Decreasing rearrangement as (value, multiplicity) runs."""

    pairs: tuple

    def __post_init__(self):
        prev = None
        for v, m in self.pairs:
            if v <= 0:
                raise ValueError("rearrangement values must be positive")
            if not (isinstance(m, int) and m >= 1):
                raise ValueError("multiplicities must be positive integers")
            if prev is not None and v >= prev:
                raise ValueError("values must be strictly decreasing")
            prev = v


def runs(pairs) -> list:
    """Decreasing (|value|, multiplicity) runs of (value, multiplicity) pairs.

    Pairs with equal moduli merge and zero values drop out, so the runs
    are strictly decreasing in value, as Rearrangement requires.
    """
    counts: dict = {}
    for v, m in pairs:
        if v:
            a = abs(v)
            # an unmerged run keeps m itself, often a cached sphere size
            counts[a] = counts[a] + m if a in counts else m
    return sorted(counts.items(), reverse=True)


def rearrange(g) -> Rearrangement:
    """Decreasing rearrangement of a finitely supported function.

    Accepts a sparse function object (anything with an .entries mapping
    word -> value), a plain mapping, or an iterable of values.
    """
    entries = getattr(g, "entries", g)
    values = entries.values() if hasattr(entries, "values") else entries
    return Rearrangement(tuple(runs(Counter(values).items())))


def rearrange_spheres(ctx: FreeGroupCtx, values) -> Rearrangement:
    """Rearrangement of the sphere-wise extension of sum_n values[n] chi_n.

    |values[n]| occurs with multiplicity sphere_size(n); computed
    straight from the values, no enumeration, so degrees far beyond any
    enumerable ball are fine.
    """
    return Rearrangement(tuple(runs((c, sphere_size(ctx, n)) for n, c in enumerate(values) if c)))


def rearrange_radial(f: RadialFunction) -> Rearrangement:
    """Rearrangement of the sphere-wise extension of f (see rearrange_spheres)."""
    return rearrange_spheres(f.ctx, f.coeffs)


def _pow_diff(c: int, m: int, e: float) -> float:
    """(c+m)^e - c^e without cancellation for large counts."""
    if c == 0:
        return float(m) ** e
    fc = float(c)
    return fc**e * math.expm1(e * math.log1p(float(m) / fc))


def _log(x) -> float:
    """log x for a positive int of any size, a float or a Fraction."""
    if isinstance(x, Fraction):
        return math.log(x.numerator) - math.log(x.denominator)
    return math.log(x)


def _log_pow_diff_root(c: int, m: int, p: float, s: float) -> float:
    """log((c+m)^{s/p} - c^{s/p}) / s for counts of any size; log(c+m) / p at s = inf.

    Divided by s term by term, so no product s * log c is formed and s
    may be as large as the float maximum; math.log takes big ints.
    """
    if c == 0 or math.isinf(s):
        return math.log(c + m) / p
    lr = math.log1p(m / c) if m <= c else math.log(c + m) - math.log(c)
    # log(expm1(y)) = y + log(1 - e^{-y}), which overflows for no y
    return math.log(c) / p + lr / p + math.log(-math.expm1(-(s / p) * lr)) / s


def _exp_in_range(log_value: float, what: str) -> float:
    try:
        return math.exp(log_value)
    except OverflowError:
        raise ValueError(f"{what} e^{log_value:.6g} is out of float range") from None


def _run_terms(pairs, idx: LorentzIndex) -> list:
    """The terms v^s ((c+m)^{s/p} - c^{s/p}) of the runs, c the count before each.

    At s = inf they are v (c+m)^{1/p}, and lorentz_prefix_norms takes
    their max instead of their sum; the list stops at the first term
    whose float evaluation overflows.
    """
    weak = math.isinf(idx.s)
    e = idx.s / idx.p
    cum = 0
    terms = []
    try:
        for v, m in pairs:
            if weak:
                terms.append(float(v) * float(cum + m) ** (1.0 / idx.p))
            else:
                terms.append(float(v) ** idx.s * _pow_diff(cum, m, e))
            cum += m
    except OverflowError:
        pass
    return terms


def _float_norm(pairs, terms, idx: LorentzIndex):
    """||.||_{p,s} on the runs in floats, from their _run_terms.

    None when the evaluation leaves float range.
    """
    try:
        if len(pairs) == 1:
            v, m = pairs[0]
            value = float(v) * float(m) ** (1.0 / idx.p)
        elif len(terms) < len(pairs):
            return None
        else:
            value = max(terms) if math.isinf(idx.s) else math.fsum(terms) ** (1.0 / idx.s)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def _log_scaled_norm(pairs, idx: LorentzIndex) -> float:
    """||.||_{p,s} on runs whose counts or terms leave float range.

    Each term's logarithm is taken divided by s, L = log v + log((c+m)^{s/p}
    - c^{s/p}) / s, and the norm is top + log(sum e^{s (L - top)}) / s with
    top the largest L, or top itself at s = inf; ValueError when the norm
    itself is out of float range.
    """
    logs = []
    cum = 0
    for v, m in pairs:
        logs.append(_log(v) + _log_pow_diff_root(cum, m, idx.p, idx.s))
        cum += m
    top = max(logs)
    if math.isinf(idx.s):
        return _exp_in_range(top, "the weak Lorentz norm")
    total = top + math.log(math.fsum(math.exp(idx.s * (t - top)) for t in logs)) / idx.s
    return _exp_in_range(total, "the Lorentz norm")


def lorentz_norm(r: Rearrangement, idx: LorentzIndex) -> float:
    """||f||_{p,s}: lorentz_prefix_norms of all of r's runs."""
    return lorentz_prefix_norms(r, idx, [len(r.pairs)])[0]


def lorentz_prefix_norms(r: Rearrangement, idx: LorentzIndex, lengths) -> list:
    """||.||_{p,s} of the runs r.pairs[:n] for each n in lengths, evaluated blockwise.

    Runs whose counts or terms overflow a float take a log-scaled path;
    everything in float range is evaluated in floats.  The run terms are
    computed once, for r; a prefix's terms are a prefix of them, and
    fsum is correctly rounded (and max exact at s = inf), so each
    prefix's norm is, float for float, the norm of that prefix alone.
    """
    terms = _run_terms(r.pairs, idx)
    out = []
    for n in lengths:
        pairs = r.pairs[:n]
        value = _float_norm(pairs, terms[:n], idx) if pairs else 0.0
        out.append(_log_scaled_norm(pairs, idx) if value is None else value)
    return out


def radial_power_sum(f: RadialFunction, p: float) -> float:
    """sum_n f_n^{p'} q^{np'/p}, p' = p / (p - 1), as math.fsum in increasing n.

    radial_weighted_sum takes its p'-th root for 1 < p < 2; thm4's chain
    bounds by it directly.  The caller checks p and f.
    """
    q = float(f.ctx.q)
    pp = p / (p - 1.0)
    return math.fsum(float(c) ** pp * q ** (n * pp / p) for n, c in enumerate(f.coeffs) if c)


def radial_weighted_sum(f: RadialFunction, p: float) -> float:
    """Weighted coefficient sum standing in for the L^{p,p'} norm.

    p = 2: sum_n f_n q^{n/2}.  1 < p < 2: (sum_n f_n^{p'} q^{np'/p})^{1/p'},
    the root of radial_power_sum.
    """
    if not 1 < p <= 2:
        raise ValueError("p must lie in (1, 2]")
    require_nonnegative(f)
    if p == 2:
        q = float(f.ctx.q)
        return math.fsum(float(c) * q ** (0.5 * n) for n, c in enumerate(f.coeffs) if c)
    pp = p / (p - 1.0)
    return radial_power_sum(f, p) ** (1.0 / pp)
