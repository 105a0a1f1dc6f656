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
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .radial import RadialFunction
from .words import FreeGroupCtx, sphere_size


@dataclass(frozen=True)
class LorentzIndex:
    """Index pair (p, s) with p in (1, inf) and s in [1, inf]."""

    p: float
    s: float

    def __post_init__(self):
        if not self.p > 1:
            raise ValueError("first index p must exceed 1")
        if not (self.s >= 1 or math.isinf(self.s)):
            raise ValueError("second index s must be >= 1 or infinity")

    @property
    def p_prime(self) -> float:
        return self.p / (self.p - 1.0)


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

    @property
    def total_mass(self) -> int:
        return sum(m for _, m in self.pairs)


def runs(pairs) -> list:
    """Decreasing (|value|, multiplicity) runs of (value, multiplicity) pairs.

    Pairs with equal moduli merge and zero values drop out, so the runs
    are strictly decreasing in value, as Rearrangement requires.
    """
    counts: dict = {}
    for v, m in pairs:
        if v:
            a = abs(v)
            counts[a] = counts.get(a, 0) + m
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


def _as_index(idx) -> LorentzIndex:
    if isinstance(idx, LorentzIndex):
        return idx
    p, s = idx
    return LorentzIndex(float(p), float(s))


def lorentz_norm(r: Rearrangement, idx) -> float:
    """||f||_{p,s} evaluated blockwise on the rearrangement runs."""
    idx = _as_index(idx)
    if math.isinf(idx.s):
        return weak_norm(r, idx.p)
    if not r.pairs:
        return 0.0
    if len(r.pairs) == 1:
        v, m = r.pairs[0]
        return float(v) * float(m) ** (1.0 / idx.p)
    e = idx.s / idx.p
    cum = 0
    terms = []
    for v, m in r.pairs:
        terms.append(float(v) ** idx.s * _pow_diff(cum, m, e))
        cum += m
    return math.fsum(terms) ** (1.0 / idx.s)


def weak_norm(r: Rearrangement, p: float) -> float:
    """||f||_{p,inf} = sup_i i^{1/p} a_i; the sup sits at run ends."""
    if not p > 1:
        raise ValueError("first index p must exceed 1")
    best = 0.0
    cum = 0
    for v, m in r.pairs:
        cum += m
        best = max(best, float(v) * float(cum) ** (1.0 / p))
    return best


def radial_weighted_sum(f: RadialFunction, p: float) -> float:
    """Weighted coefficient sum standing in for the L^{p,p'} norm.

    p = 2: sum_n f_n q^{n/2}.  1 < p < 2: (sum_n f_n^{p'} q^{np'/p})^{1/p'}.
    """
    if not 1 < p <= 2:
        raise ValueError("p must lie in (1, 2]")
    if not f.is_nonnegative():
        raise ValueError("requires nonnegative coefficients")
    q = float(f.ctx.q)
    if p == 2:
        return math.fsum(float(c) * q ** (0.5 * n) for n, c in enumerate(f.coeffs) if c)
    pp = p / (p - 1.0)
    total = math.fsum(float(c) ** pp * q ** (n * pp / p) for n, c in enumerate(f.coeffs) if c)
    return total ** (1.0 / pp)
