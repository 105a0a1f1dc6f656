"""Convolution operators on truncated supports and set-search estimators.

The left convolution by a radial function f acts on finitely supported
functions; its weak-type operator norms are probed from below by
searching over families of finite sets E (and implicitly F).  Two
support representations coexist:

* explicit sets carry their words and go through the enumeration
  kernels (cost |E| x sphere sizes);
* radial sets (unions of spheres) stay inside the radial algebra, where
  products and pairings are exact closed forms, so radii far beyond any
  enumerable ball remain cheap.

Pairings between the two kinds reduce to the radial side because
convolution by a real radial function is self-adjoint.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import _kernels
from .errors import BudgetExceededError
from .lorentz import Rearrangement, rearrange, rearrange_radial
from .parallel import parallel_map
from .radial import RadialFunction, chi, convolve_radial, structure_constant
from .words import (
    PAIR_BUDGET,
    SPHERE_CAP,
    FreeGroupCtx,
    ReducedWord,
    ball_size,
    ball_stream,
    sphere_size,
    sphere_stream,
)

FAMILY_KINDS = (
    "spheres",
    "balls",
    "sphere-unions",
    "ball-subsets",
    "random-subsets",
    "greedy",
)


def default_radius(ctx: FreeGroupCtx) -> int:
    """Default ball radius: 8 on two generators, 5 beyond."""
    return 8 if ctx.k == 2 else 5


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


@dataclass(frozen=True)
class ElementSet:
    """Finite subset of the group: explicit words or a union of spheres."""

    ctx: FreeGroupCtx
    words: tuple = None
    radii: frozenset = None
    label: str = ""

    def __post_init__(self):
        if (self.words is None) == (self.radii is None):
            raise ValueError("exactly one of words/radii must be given")
        if self.words is not None:
            ordered = tuple(sorted(set(self.words), key=lambda w: w.sort_key()))
            object.__setattr__(self, "words", ordered)
            if not self.label:
                object.__setattr__(self, "label", f"set({len(ordered)} words)")
        else:
            radii = frozenset(int(r) for r in self.radii)
            if any(r < 0 for r in radii):
                raise ValueError("radii must be nonnegative")
            object.__setattr__(self, "radii", radii)
            if not self.label:
                object.__setattr__(
                    self, "label", "U" + ",".join(str(r) for r in sorted(radii))
                )

    @property
    def is_radial(self) -> bool:
        return self.radii is not None

    @property
    def size(self) -> int:
        if self.is_radial:
            return sum(sphere_size(self.ctx, r) for r in self.radii)
        return len(self.words)

    def indicator_radial(self) -> RadialFunction:
        if not self.is_radial:
            raise ValueError("not a radial set")
        top = max(self.radii, default=-1)
        coeffs = [1 if r in self.radii else 0 for r in range(top + 1)]
        return RadialFunction(self.ctx, tuple(coeffs))

    def length_histogram(self) -> dict:
        """Count of elements per word length."""
        if self.is_radial:
            return {r: sphere_size(self.ctx, r) for r in sorted(self.radii)}
        hist: dict = {}
        for w in self.words:
            hist[len(w)] = hist.get(len(w), 0) + 1
        return hist

    def keys(self) -> list:
        if self.is_radial:
            raise ValueError("radial sets are not enumerated; use the radial paths")
        tk = self.ctx.alphabet
        return [_kernels.encode_word(tk, w.letters) for w in self.words]

    def iter_words(self, cap: int = SPHERE_CAP):
        if not self.is_radial:
            return iter(self.words)
        if self.size > cap:
            raise BudgetExceededError("set enumeration", self.size, cap)

        def gen():
            for r in sorted(self.radii):
                yield from sphere_stream(self.ctx, r)

        return gen()


def sphere_set(ctx: FreeGroupCtx, n: int) -> ElementSet:
    return ElementSet(ctx, radii=frozenset({n}), label=f"S{n}")


def ball_set(ctx: FreeGroupCtx, radius: int) -> ElementSet:
    return ElementSet(ctx, radii=frozenset(range(radius + 1)), label=f"B{radius}")


def explicit_set(ctx: FreeGroupCtx, words, label: str = "") -> ElementSet:
    return ElementSet(ctx, words=tuple(words), label=label)


@dataclass(frozen=True)
class SetFamily:
    """Descriptor of a search family of candidate sets."""

    kind: str
    radius: int
    budget: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")
        if self.budget < 1:
            raise ValueError("budget must be positive")


def candidate_sets(ctx: FreeGroupCtx, fam: SetFamily):
    """Deterministic candidate stream for the non-adaptive families."""
    if fam.kind == "spheres":
        for n in range(min(fam.radius + 1, fam.budget)):
            yield sphere_set(ctx, n)
    elif fam.kind == "balls":
        for n in range(min(fam.radius + 1, fam.budget)):
            yield ball_set(ctx, n)
    elif fam.kind == "sphere-unions":
        count = 0
        for mask in range(1, 2 ** (fam.radius + 1)):
            if count >= fam.budget:
                return
            radii = frozenset(r for r in range(fam.radius + 1) if mask >> r & 1)
            yield ElementSet(ctx, radii=radii)
            count += 1
    elif fam.kind == "ball-subsets":
        count = 1 << ball_size(ctx, fam.radius)
        if count > fam.budget:
            raise BudgetExceededError("subset enumeration", count, fam.budget)
        ball = list(ball_stream(ctx, fam.radius))
        for mask in range(count):
            words = [w for i, w in enumerate(ball) if mask >> i & 1]
            yield explicit_set(ctx, words, label=f"sub{mask}")
    elif fam.kind == "random-subsets":
        if ball_size(ctx, fam.radius) > SPHERE_CAP:
            raise BudgetExceededError(
                "ball enumeration", ball_size(ctx, fam.radius), SPHERE_CAP
            )
        ball = list(ball_stream(ctx, fam.radius))
        rng = random.Random(fam.seed)
        for i in range(fam.budget):
            size = rng.randint(1, len(ball))
            words = rng.sample(ball, size)
            yield explicit_set(ctx, words, label=f"random-{i}")
    else:
        raise ValueError("greedy family is adaptive; use the estimator entry points")


def _convolve_value_counts(f: RadialFunction, ctx: FreeGroupCtx, keys) -> dict:
    """Sparse key -> value map of f * chi_X for an explicit key list X."""
    tk = ctx.alphabet
    work = sum(sphere_size(ctx, n) for n, _ in f.nonzero_items()) * len(keys)
    if work > PAIR_BUDGET:
        raise BudgetExceededError("convolution enumeration", work, PAIR_BUDGET)
    out: dict = {}
    for n, fn in f.nonzero_items():
        for zkey, count in _kernels.convolve_sphere_set(tk, n, keys).items():
            prev = out.get(zkey)
            out[zkey] = fn * count if prev is None else prev + fn * count
    return {k: v for k, v in out.items() if v}


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
            for zkey, count in _kernels.convolve_sphere_set(tk, n, keys).items():
                acc[zkey] = acc.get(zkey, Fraction(0)) + scale * count
    entries = {
        ReducedWord(ctx, _kernels.decode_word(tk, zkey)): val
        for zkey, val in acc.items()
        if val
    }
    return FunctionOnGroup(ctx, entries)


def embed(f: RadialFunction) -> FunctionOnGroup:
    """Sphere-wise extension of f: value f_n on every word of length n."""
    ctx = f.ctx
    if f.is_zero():
        return FunctionOnGroup(ctx, {})
    if ball_size(ctx, f.degree) > SPHERE_CAP:
        raise BudgetExceededError("ball enumeration", ball_size(ctx, f.degree), SPHERE_CAP)
    entries = {}
    for n, fn in f.nonzero_items():
        for w in sphere_stream(ctx, n):
            entries[w] = fn
    return FunctionOnGroup(ctx, entries)


def _radial_product(f: RadialFunction, E: ElementSet) -> RadialFunction:
    return convolve_radial(f, E.indicator_radial())


def _union_mask_products(f: RadialFunction, radius: int):
    """Per-sphere products f * chi_r over one common denominator D.

    Returns (columns, D): column r holds the coefficients of f * chi_r
    times D, as integers, padded to a common length.  A float f keeps
    float columns with D = 1.  A sphere-union indicator is a sum of
    chi_r, so the product for any union is the columnwise sum of these;
    precomputing them turns a 2^{radius+1} family sweep into integer
    additions.
    """
    ctx = f.ctx
    cols = [convolve_radial(f, chi(ctx, r)).coeffs for r in range(radius + 1)]
    top = max((len(c) for c in cols), default=0)
    if f.is_exact():
        D = math.lcm(*(c.denominator for col in cols for c in col))
        cols = [[c.numerator * (D // c.denominator) for c in col] for col in cols]
    else:
        D = 1
        cols = [[float(c) for c in col] for col in cols]
    return [col + [0] * (top - len(col)) for col in cols], D


def _sphere_union_sweep(f: RadialFunction, fam: SetFamily, score):
    """Best score(coeffs, mult, D, |E|) over the sphere-union family.

    coeffs[n] / D is the coefficient of chi_n in f * chi_E and mult[n]
    is |S_n|.  Masks run in increasing order and each union's
    coefficients are its parent's (the mask without its highest bit)
    plus one column, so radii are summed in ascending order.  score
    returns (value, extra...); the first maximum wins ties.
    """
    cols, D = _union_mask_products(f, fam.radius)
    top = len(cols[0])
    mult = [sphere_size(f.ctx, n) for n in range(max(top, fam.radius + 1))]
    # sums[mask] = (coeffs, |E|); mask 0 is the empty union, and masks
    # holding the top radius are never parents, so they are not kept
    sums = [([0] * top, 0)]
    best = None
    best_mask = 0
    for mask in range(1, min(2 ** (fam.radius + 1), fam.budget + 1)):
        r = mask.bit_length() - 1
        parent, parent_size = sums[mask ^ (1 << r)]
        coeffs = [a + b for a, b in zip(parent, cols[r])]
        size = parent_size + mult[r]
        if r < fam.radius:
            sums.append((coeffs, size))
        res = score(coeffs, mult, D, size)
        if best is None or res[0] > best[0]:
            best = res
            best_mask = mask
    label = "U" + ",".join(str(r) for r in range(fam.radius + 1) if best_mask >> r & 1)
    return (best[0], label, *best[1:])


def pairing(f: RadialFunction, E: ElementSet, F: ElementSet) -> Fraction:
    """Exact <f * chi_E, chi_F>.

    Radial sets are handled inside the radial algebra; a mixed pair
    reduces to the radial side through self-adjointness of radial
    convolution; two explicit sets are enumerated pairwise.
    """
    if f.ctx != E.ctx or f.ctx != F.ctx:
        raise ValueError("mismatched group contexts")
    if not f.is_exact():
        raise ValueError("pairing requires exact rational coefficients")
    ctx = f.ctx
    if E.is_radial:
        h = _radial_product(f, E)
        return sum(
            (h.coefficient(d) * count for d, count in F.length_histogram().items()),
            Fraction(0),
        )
    if F.is_radial:
        h = _radial_product(f, F)
        return sum(
            (h.coefficient(d) * count for d, count in E.length_histogram().items()),
            Fraction(0),
        )
    pairs = E.size * F.size
    if pairs > PAIR_BUDGET:
        raise BudgetExceededError("pair enumeration", pairs, PAIR_BUDGET)
    tk = ctx.alphabet
    ekeys_inv = [_kernels.inv_key(tk, key) for key in E.keys()]
    hist = _kernels.prod_len_hist(tk, F.keys(), ekeys_inv)
    return sum((f.coefficient(d) * t for d, t in enumerate(hist) if t), Fraction(0))


def chi_pairing_profile(E: ElementSet, F: ElementSet) -> list:
    """All pairings <chi_l * chi_E, chi_F>, indexed by l, in one pass.

    One length histogram serves every sphere index, so sweeping l costs
    no more than a single pairing; entries are exact.
    """
    if E.ctx != F.ctx:
        raise ValueError("mismatched group contexts")
    ctx = E.ctx
    if not E.is_radial and not F.is_radial:
        pairs = E.size * F.size
        if pairs > PAIR_BUDGET:
            raise BudgetExceededError("pair enumeration", pairs, PAIR_BUDGET)
        tk = ctx.alphabet
        ekeys_inv = [_kernels.inv_key(tk, key) for key in E.keys()]
        return [Fraction(t) for t in _kernels.prod_len_hist(tk, F.keys(), ekeys_inv)]
    # put the radial set in the convolution slot; self-adjointness of
    # radial convolution makes the two orientations equal
    R, X = (E, F) if E.is_radial else (F, E)
    ind = R.indicator_radial()
    hx = X.length_histogram()
    top = max(hx) + ind.degree
    out = []
    for l in range(top + 1):
        h = convolve_radial(chi(ctx, l), ind)
        out.append(sum((h.coefficient(d) * c for d, c in hx.items()), Fraction(0)))
    return out


def _single_sphere_histogram(f: RadialFunction, E: ElementSet):
    """For f = c*chi_n and explicit E: {|value|: #points} of f * chi_E.

    Every product value is c times a pair count, so the kernel's
    multiplicity histogram determines the value distribution without
    materializing the support; returns None when f is not one sphere.
    """
    items = f.nonzero_items()
    if len(items) != 1:
        return None
    n, c = items[0]
    keys = E.keys()
    work = sphere_size(f.ctx, n) * len(keys)
    if work > PAIR_BUDGET:
        raise BudgetExceededError("convolution enumeration", work, PAIR_BUDGET)
    a = abs(c)
    histo = _kernels.convolve_sphere_set_value_counts(f.ctx.alphabet, n, keys)
    return {a * m: t for m, t in histo.items()}


def _rearranged_product(f: RadialFunction, E: ElementSet) -> Rearrangement:
    if E.is_radial:
        return rearrange_radial(_radial_product(f, E))
    histo = _single_sphere_histogram(f, E)
    if histo is not None:
        pairs = tuple(sorted(histo.items(), key=lambda kv: kv[0], reverse=True))
        return Rearrangement(pairs)
    return rearrange(_convolve_value_counts(f, f.ctx, E.keys()))


def _l2_norm_squared_product(f: RadialFunction, E: ElementSet) -> Fraction:
    if E.is_radial:
        h = _radial_product(f, E)
        return sum(
            (c * c * sphere_size(f.ctx, n) for n, c in h.nonzero_items()), Fraction(0)
        )
    histo = _single_sphere_histogram(f, E)
    if histo is not None:
        return sum((v * v * t for v, t in histo.items()), Fraction(0))
    vals = _convolve_value_counts(f, f.ctx, E.keys()).values()
    return sum((v * v for v in vals), Fraction(0))


def _estimate_over_family(
    f: RadialFunction, fam: SetFamily, reduce_set, score_union, threads=None
):
    """Max of reduce_set(product, |E|, label) over the family.

    reduce_set receives either a RadialFunction (radial candidates) or a
    sparse value map (explicit candidates) for f * chi_E and returns a
    (value, label, extra...) tuple; the first maximum wins ties.  The
    sphere-union family is swept on scaled coefficients instead, scored
    by score_union (see _sphere_union_sweep).
    """
    ctx = f.ctx
    if fam.kind == "sphere-unions":
        return _sphere_union_sweep(f, fam, score_union)
    if fam.kind == "greedy":

        def objective(E: ElementSet):
            return reduce_set(_convolve_value_counts(f, ctx, E.keys()), E.size, E.label)

        return _greedy_search(objective, ctx, fam)

    def worker(E: ElementSet):
        if E.is_radial:
            return reduce_set(_radial_product(f, E), E.size, E.label)
        return reduce_set(_convolve_value_counts(f, ctx, E.keys()), E.size, E.label)

    candidates = [E for E in candidate_sets(ctx, fam) if E.size > 0]
    results = parallel_map(worker, candidates, threads=threads)
    best = None
    for res in results:
        if best is None or res[0] > best[0]:
            best = res
    if best is None:
        raise ValueError("empty candidate family")
    return best


def best_F_ratio(g, p: float):
    """max_F <g, chi_F> / |F|^{1/p'} and the optimal prefix length.

    The optimal F is a prefix of the decreasing rearrangement of g, and
    within a run of equal values the prefix objective is decreasing then
    increasing, so only run boundaries need checking.  Accepts a sparse
    function, a radial function, or a ready rearrangement.
    """
    if not p > 1:
        raise ValueError("first index p must exceed 1")
    if isinstance(g, Rearrangement):
        r = g
    elif isinstance(g, RadialFunction):
        r = rearrange_radial(g)
    else:
        r = rearrange(g)
    # unscaled runs: s / 1.0 is float(s) for int, Fraction and float s
    return _best_prefix(r.pairs, 1.0 - 1.0 / p, 1.0)


def _best_prefix(runs, e: float, D):
    """max_j (a_1 + ... + a_j) / j^e over the runs and the maximizing j.

    runs are decreasing (value * D, multiplicity) pairs.  Prefix sums
    stay in the values' own arithmetic and each candidate divides by D
    once: for integer sums over an integer D, int / int true division
    rounds correctly, so the candidate equals float(Fraction(prefix, D))
    / j^e.
    """
    best = 0.0
    best_j = 0
    prefix = 0
    cum = 0
    for v, m in runs:
        for j in (cum + 1, cum + m):
            cand = (prefix + v * (j - cum)) / D / float(j) ** e
            if cand > best:
                best = cand
                best_j = j
        prefix += v * m
        cum += m
    return best, best_j


def _family_report(fam: SetFamily, best: float, label: str, extra: dict) -> dict:
    report = {"estimate": best, "E": label}
    report.update(extra)
    report.update(
        {"family": fam.kind, "radius": fam.radius, "seed": fam.seed, "budget": fam.budget}
    )
    return report


def _greedy_search(objective, ctx: FreeGroupCtx, fam: SetFamily):
    """Grow one set a word at a time, keeping the best set seen."""
    if ball_size(ctx, fam.radius) > SPHERE_CAP:
        raise BudgetExceededError("ball enumeration", ball_size(ctx, fam.radius), SPHERE_CAP)
    pool = list(ball_stream(ctx, fam.radius))
    chosen: list = []
    best = None
    for _ in range(fam.budget):
        round_best = None
        round_word = None
        for w in pool:
            if w in chosen:
                continue
            cand = explicit_set(ctx, chosen + [w], label=f"greedy-{len(chosen) + 1}")
            res = objective(cand)
            if round_best is None or res[0] > round_best[0]:
                round_best = res
                round_word = w
        if round_best is None:
            break
        if best is not None and round_best[0] <= best[0]:
            break
        best = round_best
        chosen.append(round_word)
    if best is None:
        raise ValueError("empty candidate family")
    return best


def restricted_weak_estimate(
    f: RadialFunction, fam: SetFamily, threads=None
) -> dict:
    """Certified lower bound on the restricted weak (2,2) operator norm.

    For each candidate E the inner sup over F is solved exactly on the
    rearrangement of f * chi_E; the report records the best E and the
    optimal prefix size j.
    """
    if not f.is_nonnegative():
        raise ValueError("requires nonnegative coefficients")

    def reduce_set(product, size, label):
        r = rearrange_radial(product) if isinstance(product, RadialFunction) else rearrange(product)
        value, j = best_F_ratio(r, 2.0)
        return value / math.sqrt(size), label, j

    def score_union(coeffs, mult, D, size):
        # the decreasing rearrangement of f * chi_E, as scaled values
        counts: dict = {}
        for c, m in zip(coeffs, mult):
            if c:
                a = abs(c)
                counts[a] = counts.get(a, 0) + m
        value, j = _best_prefix(sorted(counts.items(), reverse=True), 0.5, D)
        return value / math.sqrt(size), j

    value, label, j = _estimate_over_family(
        f, fam, reduce_set, score_union, threads=threads
    )
    return _family_report(fam, value, label, {"j": j})


def weak_estimate_21_to_2(f: RadialFunction, fam: SetFamily, threads=None) -> dict:
    """Certified lower bound on ||lambda(f)|| from L^{2,1} to l^2.

    max over E of ||f * chi_E||_2 / |E|^{1/2}; by duality this also
    lower-bounds the weak-type (2,2) norm of lambda(f).
    """
    if not f.is_nonnegative():
        raise ValueError("requires nonnegative coefficients")
    ctx = f.ctx

    def reduce_set(product, size, label):
        if isinstance(product, RadialFunction):
            sq = sum(
                (c * c * sphere_size(ctx, n) for n, c in product.nonzero_items()),
                Fraction(0),
            )
        else:
            sq = sum((v * v for v in product.values()), Fraction(0))
        return math.sqrt(float(sq) / size), label

    def score_union(coeffs, mult, D, size):
        sq = sum(c * c * m for c, m in zip(coeffs, mult) if c)
        return (math.sqrt(sq / (D * D) / size),)

    value, label = _estimate_over_family(
        f, fam, reduce_set, score_union, threads=threads
    )
    return _family_report(fam, value, label, {})


def _q_power_le(q: int, twice_alpha: int, d: int, lx: int) -> bool:
    """Exact test of q^{twice_alpha/2} * d <= lx for integers d, lx >= 0."""
    if d == 0:
        return True
    if twice_alpha >= 0:
        return q**twice_alpha * d * d <= lx * lx
    return d * d <= q**-twice_alpha * lx * lx


def _alpha_condition(q: int, alpha: float, d: int, lx: int) -> bool:
    """|x| >= q^alpha |y| with |y| = d, |x| = lx; exact on the half grid."""
    twice = 2.0 * alpha
    if twice == int(twice):
        return _q_power_le(q, int(twice), d, lx)
    return float(lx) >= float(q) ** alpha * d


def truncated_column(kind: str, params: dict, x: ReducedWord) -> FunctionOnGroup:
    """Column of a length-truncated piece of convolution by a sphere.

    kind "P", params {"k": k}: sum of delta_{wx} over |w| = k with
    |wx| <= |x|.  kind "Q", params {"n": n, "alpha": a}: sum of
    delta_{wx} over |w| = n with |x| >= q^a |wx|.  The map w -> wx is
    injective, so the column is 0/1-valued and its l1 mass is a count.
    """
    ctx = x.ctx
    tk = ctx.alphabet
    if kind == "P":
        n = int(params["k"])

        def accept(d, lx):
            return d <= lx

    elif kind == "Q":
        n = int(params["n"])
        alpha = float(params["alpha"])
        q = ctx.q

        def accept(d, lx):
            return _alpha_condition(q, alpha, d, lx)

    else:
        raise ValueError("kind must be 'P' or 'Q'")
    if sphere_size(ctx, n) > SPHERE_CAP:
        raise BudgetExceededError("sphere enumeration", sphere_size(ctx, n), SPHERE_CAP)
    kx = _kernels.encode_word(tk, x.letters)
    lx = len(x)
    entries = {}
    for kw in _kernels.sphere_keys(tk, n):
        kz = _kernels.mul_key(tk, kw, kx)
        if accept(_kernels.len_key(tk, kz), lx):
            entries[ReducedWord(ctx, _kernels.decode_word(tk, kz))] = Fraction(1)
    return FunctionOnGroup(ctx, entries)


def _column_rows(ctx: FreeGroupCtx, n: int, radius: int) -> list:
    """Row m: histogram of |wx| over w in S_n, for any x with |x| = m <= radius.

    Counting pairs (w, x) in S_n x S_m by the length of wx gives
    c(n, m, l) |S_l|, and by symmetry each x in S_m takes an equal
    share, so the row is c(n, m, l) |S_l| / |S_m| (an exact division).
    """
    if n < 0:
        raise ValueError("sphere radius must be >= 0")
    rows = []
    for m in range(radius + 1):
        hist = [0] * (n + m + 1)
        for l in range(abs(n - m), n + m + 1, 2):
            hist[l] = (
                structure_constant(ctx, n, m, l) * sphere_size(ctx, l) // sphere_size(ctx, m)
            )
        rows.append(hist)
    return rows


def _column_sup(kind: str, params: dict, radius: int, ctx: FreeGroupCtx, rows) -> dict:
    """Column sup report from the rows of _column_rows.

    Every x of length m has the same column mass, so the first strict
    maximum over increasing m is attained first, in (length, lex) order,
    by a^m.
    """
    q = ctx.q
    if kind == "P":
        n = int(params["k"])
        bound_value = float(q ** (n // 2))

        def mass(hist, lx):
            return sum(hist[: lx + 1])

        def exact_ok(sup):
            return sup <= q ** (n // 2)

    else:
        n = int(params["n"])
        alpha = float(params["alpha"])

        def mass(hist, lx):
            return sum(
                t for d, t in enumerate(hist) if t and _alpha_condition(q, alpha, d, lx)
            )

        bound_value = float(q) ** (1.5 - alpha + 0.5 * n)
        twice = 2.0 * alpha
        if twice == int(twice):
            e = 3 + n - int(twice)  # bound is q^{e/2}

            def exact_ok(sup):
                if e >= 0:
                    return sup * sup <= q**e
                return sup * sup * q**-e <= 1

        else:

            def exact_ok(sup):
                return float(sup) <= bound_value

    sup, witness = -1, None
    for m, hist in enumerate(rows):
        s = mass(hist, m)
        if s > sup:
            sup, witness = s, ReducedWord(ctx, (0,) * m)
    return {
        "kind": kind,
        "params": {k: (float(v) if k == "alpha" else int(v)) for k, v in params.items()},
        "radius": radius,
        "sup": sup,
        "witness": str(witness),
        "bound": bound_value,
        "ok": exact_ok(sup),
    }


def column_l1_sup(kind: str, params: dict, radius: int, ctx: FreeGroupCtx) -> dict:
    """Max column l1 mass over x in the ball of the given radius.

    Reports the witness x and the comparison against the claimed bound:
    q^{[k/2]} for P columns, q^{3/2 - alpha + n/2} for Q columns.  The
    masses come in closed form from the structure constants, one row
    per length, so no ball is enumerated.
    """
    if kind not in ("P", "Q"):
        raise ValueError("kind must be 'P' or 'Q'")
    n = int(params["k"] if kind == "P" else params["n"])
    return _column_sup(kind, params, radius, ctx, _column_rows(ctx, n, radius))


def q_alpha_sweep(ctx: FreeGroupCtx, n: int, alphas, radius: int) -> list:
    """column_l1_sup for many alpha at fixed n, one set of rows.

    The length histograms of w -> wx over |w| = n determine every alpha
    cutoff, so the rows are built once and shared across the grid.
    """
    rows = _column_rows(ctx, n, radius)
    return [
        _column_sup("Q", {"n": n, "alpha": float(a)}, radius, ctx, rows) for a in alphas
    ]
