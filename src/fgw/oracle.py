"""Ground truth by enumeration, for testing the certifier paths.

No verifier calls this module; the command line reaches it only through
`fgw convolve --oracle`.  Each function computes by brute force what a
certifier obtains in closed form or by an integer sweep: products on
explicit supports, counted from each word's sphere image in one pass
(left_convolve), with every product w*x reduced on its own
(sphere_image) where the certifiers extend a parent's image by one
letter (_kernels.extend_image), pairings, truncated columns and their
length histograms (truncated_column, column_row), chi_n * chi_m
(oracle_convolve) and a radial family's candidates as lists of radii
(radial_candidates), with truncated_column testing each word by its
own column rule (column_accepts).  best_F_ratio runs the estimators'
own _best_prefix, so its floats are theirs bit for bit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import _kernels
from .errors import BudgetExceededError
from .lorentz import Rearrangement, rearrange, rearrange_radial
from .operators import ElementSet, _best_prefix, chi_pairing_profile
from .radial import RadialFunction
from .words import (
    PAIR_BUDGET,
    SPHERE_CAP,
    FreeGroupCtx,
    ReducedWord,
    mul,
    sphere_size,
    sphere_stream,
)


@dataclass
class FunctionOnGroup:
    """Finitely supported function, sparse map word -> exact rational."""

    ctx: FreeGroupCtx
    entries: dict

    def __post_init__(self):
        self.entries = {w: v for w, v in self.entries.items() if v}

    def value(self, w: ReducedWord):
        return self.entries.get(w, Fraction(0))

    @property
    def support_size(self) -> int:
        return len(self.entries)

    def l1_mass(self):
        return sum(abs(v) for v in self.entries.values())

    def l2_norm_squared(self):
        return sum(v * v for v in self.entries.values())


def sphere_image(two_k: int, wkeys, kx: int) -> list[int]:
    """Keys of z = w*x for w in the key list wkeys, in its order, each w*x reduced on its own."""
    xl = _kernels.decode_word(two_k, kx)
    m = len(xl)
    powers = [two_k**i for i in range(m + 1)]
    out = []
    for kw in wkeys:
        k = kw
        i = 0
        while k > 1 and i < m and k % two_k == xl[i] ^ 1:
            k //= two_k
            i += 1
        out.append(k * powers[m - i] + kx % powers[m - i])
    return out


def left_convolve(f: RadialFunction, g: FunctionOnGroup) -> FunctionOnGroup:
    """Exact f * g for radial f and finitely supported g."""
    if f.ctx != g.ctx:
        raise ValueError("mismatched group contexts")
    ctx = f.ctx
    tk = ctx.alphabet
    if f.is_zero() or not g.entries:
        return FunctionOnGroup(ctx, {})
    by_value: dict = {}
    for w, v in g.entries.items():
        by_value.setdefault(v, []).append(_kernels.encode_word(tk, w.letters))
    sphere_work = sum(sphere_size(ctx, n) for n, _ in f.nonzero_items())
    if sphere_work * g.support_size > PAIR_BUDGET:
        raise BudgetExceededError(
            "convolution enumeration", sphere_work * g.support_size, PAIR_BUDGET
        )
    acc: dict = {}
    for v, keys in by_value.items():
        for n, fn in f.nonzero_items():
            scale = fn * v
            wkeys = _kernels.sphere_keys(tk, n)
            images = [sphere_image(tk, wkeys, kx) for kx in keys]
            for zkey, count in _kernels.count_images(images).items():
                acc[zkey] = acc.get(zkey, Fraction(0)) + scale * count
    entries = {
        ReducedWord(ctx, _kernels.decode_word(tk, zkey)): val
        for zkey, val in acc.items()
        if val
    }
    return FunctionOnGroup(ctx, entries)


def pairing(f: RadialFunction, E: ElementSet, F: ElementSet) -> Fraction:
    """Exact <f * chi_E, chi_F> = sum_l f_l <chi_l * chi_E, chi_F>."""
    if f.ctx != E.ctx or f.ctx != F.ctx:
        raise ValueError("mismatched group contexts")
    if not f.is_exact():
        raise ValueError("pairing requires exact rational coefficients")
    profile = chi_pairing_profile(E, F)
    return sum((f.coefficient(d) * t for d, t in enumerate(profile) if t), Fraction(0))


def best_F_ratio(g, p: float):
    """max_F <g, chi_F> / |F|^{1/p'} and the optimal prefix length, for 1 < p < inf.

    The optimal F is a prefix of the decreasing rearrangement of g, and
    only run ends need scoring, as operators._best_prefix states and does
    (at p = inf every prefix of the top run would tie, the first not at an
    end).  Accepts a sparse function, a radial function or a rearrangement.
    """
    if not 1 < p < float("inf"):
        raise ValueError("first index p must exceed 1 and be finite")
    if isinstance(g, Rearrangement):
        r = g
    elif isinstance(g, RadialFunction):
        r = rearrange_radial(g)
    else:
        r = rearrange(g)
    # unscaled runs: s / 1.0 is float(s) for int, Fraction and float s
    return _best_prefix(r.pairs, 1.0 - 1.0 / p, 1.0)


def column_accepts(q: int, alpha: float, d: int, lx: int) -> bool:
    """The Q column test |x| >= q^alpha |wx| at |wx| = d, |x| = lx.

    For t = 2 alpha an integer both sides are squared, so the test is
    exact; otherwise it is float(lx) >= float(q)**alpha * d.
    """
    twice = 2.0 * alpha
    if twice != int(twice):
        return float(lx) >= float(q) ** alpha * d
    t = int(twice)
    return q**t * d * d <= lx * lx if t >= 0 else d * d <= q**-t * lx * lx


def truncated_column(kind: str, params: dict, x: ReducedWord) -> FunctionOnGroup:
    """Column of a length-truncated piece of convolution by a sphere.

    kind "P", params {"k": k}: sum of delta_{wx} over |w| = k with
    |wx| <= |x|.  kind "Q", params {"n": n, "alpha": a}: sum of
    delta_{wx} over |w| = n with |x| >= q^a |wx| (column_accepts).  Each
    word is tested on its own.  The map w -> wx is injective, so the
    column is 0/1-valued and its l1 mass is a count.
    """
    if kind not in ("P", "Q"):
        raise ValueError("kind must be 'P' or 'Q'")
    ctx, lx = x.ctx, len(x)
    n = int(params["k"] if kind == "P" else params["n"])
    alpha = None if kind == "P" else float(params["alpha"])
    if sphere_size(ctx, n) > SPHERE_CAP:
        raise BudgetExceededError("sphere enumeration", sphere_size(ctx, n), SPHERE_CAP)
    entries = {}
    for w in sphere_stream(ctx, n):
        z = mul(w, x)
        if (len(z) <= lx) if alpha is None else column_accepts(ctx.q, alpha, len(z), lx):
            entries[z] = Fraction(1)
    return FunctionOnGroup(ctx, entries)


def column_row(n: int, x: ReducedWord) -> list:
    """Histogram of |wx| over w in S_n, indexed by length up to n + |x|."""
    counts = Counter(len(mul(w, x)) for w in sphere_stream(x.ctx, n))
    return [counts[l] for l in range(n + len(x) + 1)]


def oracle_convolve(ctx: FreeGroupCtx, n: int, m: int) -> RadialFunction:
    """chi_n * chi_m by brute enumeration of all |S_n| x |S_m| products.

    Independent ground truth for convolve_radial: tallies |x*y| over all
    pairs, checks the tally on each sphere is divisible by the sphere
    size (radiality), and returns the quotients.
    """
    pairs = sphere_size(ctx, n) * sphere_size(ctx, m)
    if pairs > PAIR_BUDGET:
        raise BudgetExceededError("sphere pair enumeration", pairs, PAIR_BUDGET)
    tk = ctx.alphabet
    hist = _kernels.prod_len_hist(tk, _kernels.sphere_keys(tk, n), _kernels.sphere_keys(tk, m))
    coeffs = []
    for l, tally in enumerate(hist):
        size = sphere_size(ctx, l)
        if tally % size != 0:
            raise AssertionError(f"product tally not radial at length {l}")
        coeffs.append(Fraction(tally // size))
    return RadialFunction(ctx, tuple(coeffs))


def radial_candidates(fam) -> list:
    """(radii, label) of each candidate of a radial family, in sweep order."""
    count = min(fam.radius + 1, fam.budget)
    if fam.kind == "spheres":
        return [([n], f"S{n}") for n in range(count)]
    if fam.kind == "balls":
        return [(list(range(n + 1)), f"B{n}") for n in range(count)]
    unions = []
    for mask in range(1, min(2 ** (fam.radius + 1), fam.budget + 1)):
        radii = [r for r in range(fam.radius + 1) if mask >> r & 1]
        unions.append((radii, "U" + ",".join(str(r) for r in radii)))
    return unions
