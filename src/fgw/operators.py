"""Set-search estimators, the family sweeps of lemma1 and r22, and column sups.

The left convolution by a radial function f is probed from below by
searching over families of finite sets E (and implicitly F), which
every report records by SetFamily.report_fields.  Each kind of family
has one representation:

* an ElementSet is an explicit set: the sorted integer keys of its words
  (see _kernels), which become ReducedWords only at the API boundary.
  Every candidate's work is checked before the ball is built
  (_check_candidates), so a family is then swept once, set by set.
  The restricted estimator, lemma1, r22 and the weak estimator of an
  exact f read only how many x in E lie at each distance from z, so
  they build no image: the distance profiles of E^-1 on its prefix
  closure C (_kernels.distance_profiles) give that count on C, and
  every z outside C reads its nearest node's profile shifted by the
  distance t, b(y) q^(t-1) such z per node y and t
  (_profile_value_counts, _explicit_prefix_sups, self_pairings).  The
  weak estimator of a float f counts f * chi_E from sphere images, since
  its float square sum follows the order in which the pair loop meets
  the z: each word's image under S_n is built once per call
  (_SphereImages), from its parent's image by one letter
  (_kernels.extend_image), which maps the list entry by entry and so
  keeps the order of w; the identity's image, S_n itself, is where
  every chain starts (_convolve_value_counts).  Values are integers over
  D = lcm(denominators of f); estimators divide once per candidate, in
  _best_prefix or the square sum, and pairings read one length
  histogram of products (chi_pairing_profile);
* a radial family (unions of spheres) is never an ElementSet: its
  candidates are masks over the spheres S_0 .. S_R, where R =
  _sweep_radius is the highest sphere a mask within the budget holds,
  and f * chi_E is a sum of the columns D (f * chi_r), so radii far
  beyond any enumerable ball remain cheap.  One integer sweep
  (_sphere_union_sweep) folds every function of a call from one table of
  parents, for the spheres and balls families and for lemma1 and r22
  (chi_0 .. chi_k at once), which report every candidate.  The
  estimators find the best sphere union by an exact branch and bound
  (_sphere_union_search), which decides S_R first, scores a few dozen
  masks instead of 2^(R+1) - 1, and returns the sweep's first maximum.
  The columns come straight from radial.sphere_product, the radial
  algebra's one product loop on f's integer form, as integers, never
  as Fractions.

A float f takes D = 1 on both paths and is summed in the order of the exact values.
Every decreasing rearrangement is built by lorentz.runs.  self_pairings
(lemma1) and prefix_sups (r22) hold the verifiers' mask-or-explicit
fork, so theorems only states inequalities.  The column sups of the
truncated sphere operators (column_l1_sup, q_alpha_sweep) come in closed
form, by one rule for both kinds: P_k is Q_k at alpha = 0, and the
column at |x| = m keeps the w in S_n with |wx| up to one exact cutoff
(_accepted_cutoff), which are |S_n|, q^(n-J) or no words (_column_mass).
Every function here is on a certifier path; the enumerated ground truth
they are tested against lives in fgw.oracle.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from operator import add, mul

from . import _kernels
from .errors import BudgetExceededError
from .lorentz import runs
from .radial import (
    RadialFunction,
    _denominator,
    _scaled_items,
    chi,
    require_nonnegative,
    sphere_product,
)
from .words import (
    FAMILY_PAIR_BUDGET,
    PAIR_BUDGET,
    SPHERE_CAP,
    FreeGroupCtx,
    ReducedWord,
    ball_size,
    sphere_size,
)

RADIAL_KINDS = ("spheres", "balls", "sphere-unions")
FAMILY_KINDS = RADIAL_KINDS + ("ball-subsets", "random-subsets", "greedy")


def default_radius(ctx: FreeGroupCtx) -> int:
    """Default ball radius: 8 on two generators, 5 beyond."""
    return 8 if ctx.k == 2 else 5


@dataclass(frozen=True)
class ElementSet:
    """Finite subset of the group, held as explicit word keys.

    The keys are the sorted, deduplicated integer keys of the words (see
    _kernels), which is their (length, lex) order.
    """

    ctx: FreeGroupCtx
    word_keys: tuple
    label: str = ""

    def __post_init__(self):
        ordered = tuple(sorted(set(self.word_keys)))
        object.__setattr__(self, "word_keys", ordered)
        if not self.label:
            object.__setattr__(self, "label", f"set({len(ordered)} words)")

    @property
    def size(self) -> int:
        return len(self.word_keys)

    def iter_words(self):
        ctx, tk = self.ctx, self.ctx.alphabet
        return (ReducedWord(ctx, _kernels.decode_word(tk, key)) for key in self.word_keys)


def explicit_set(ctx: FreeGroupCtx, words, label: str = "") -> ElementSet:
    """The set of the given words of F_k; each word is encoded once."""
    tk = ctx.alphabet
    keys = []
    for w in words:
        if w.ctx != ctx:
            raise ValueError(f"word {w!r} is not in the group with k={ctx.k}")
        keys.append(_kernels.encode_word(tk, w.letters))
    return ElementSet(ctx, word_keys=tuple(keys), label=label)


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

    def report_fields(self) -> dict:
        """The family as every report records it: kind, radius, seed and budget."""
        return dict(family=self.kind, radius=self.radius, seed=self.seed, budget=self.budget)


def _mask_radii(mask: int) -> list:
    return [r for r in range(mask.bit_length()) if mask >> r & 1]


def _union_label(mask: int) -> str:
    return "U" + ",".join(str(r) for r in _mask_radii(mask))


def _radial_candidates(fam: SetFamily):
    """Masks of a radial family in candidate order, and their label function.

    Bit r of a mask marks the sphere S_r: spheres are 1 << n, balls
    (2 << n) - 1, and sphere unions every nonempty mask, all capped by
    the budget.  Labels are made on demand, since a sweep needs only
    the winner's.
    """
    count = min(fam.radius + 1, fam.budget)
    if fam.kind == "spheres":
        return [1 << n for n in range(count)], lambda mask: f"S{mask.bit_length() - 1}"
    if fam.kind == "balls":
        return [(2 << n) - 1 for n in range(count)], lambda mask: f"B{mask.bit_length() - 1}"
    return range(1, min(2 << fam.radius, fam.budget + 1)), _union_label


def _sweep_radius(fam: SetFamily) -> int:
    """The highest sphere a radial candidate holds: the top bit of the last (largest) mask."""
    return _radial_candidates(fam)[0][-1].bit_length() - 1


def _capped_ball_size(ctx: FreeGroupCtx, radius: int) -> int:
    """|B_radius|, or BudgetExceededError when the ball exceeds SPHERE_CAP."""
    size = ball_size(ctx, radius)
    if size > SPHERE_CAP:
        raise BudgetExceededError("ball enumeration", size, SPHERE_CAP)
    return size


def _ball_keys(ctx: FreeGroupCtx, radius: int) -> list:
    """Keys of the ball B_radius in (length, lex) order, capped at SPHERE_CAP."""
    _capped_ball_size(ctx, radius)
    tk = ctx.alphabet
    return [key for n in range(radius + 1) for key in _kernels.iter_sphere_keys(tk, n)]


def _random_draws(fam: SetFamily, population, check=None):
    """random-subsets' seeded draws from population, in order.

    check(|E|), when given, runs before each draw is sampled.  A draw from
    range(|B|) consumes the generator as a draw from the ball does:
    sample reads only the population size and the draw size.
    """
    rng = random.Random(fam.seed)
    for _ in range(fam.budget):
        size = rng.randint(1, len(population))
        if check is not None:
            check(size)
        yield rng.sample(population, size)


def _subset_count_check(ctx: FreeGroupCtx, fam: SetFamily) -> int:
    """|B| for ball-subsets, refused when 2^|B| > budget, i.e. |B| >= budget.bit_length()."""
    size = ball_size(ctx, fam.radius)
    if size >= fam.budget.bit_length():
        raise BudgetExceededError("subset enumeration", f"2^{size}", fam.budget)
    return size


def _check_candidates(ctx: FreeGroupCtx, fam: SetFamily, check, work) -> None:
    """Check the candidates of candidate_sets, one by one and then summed, before the ball is built.

    check(|E|) raises BudgetExceededError and grows with |E|; work(|E|)
    is one candidate's pair count.  ball-subsets' subset count comes
    first, then SPHERE_CAP, then check(|B|); if that fails, the sizes
    replay in order and the first oversized candidate fails as it would:
    a subset of size s first appears at mask 2^s - 1, and random-subsets
    replays its draws.  Last, the family's summed work is refused past
    FAMILY_PAIR_BUDGET: exactly, sum_s C(|B|, s) work(s), for
    ball-subsets, and as budget * work(|B|) for random-subsets, whose
    draws hold at most the ball, so no draw is replayed for it.  greedy
    is adaptive and is checked by the estimators, and a radial family
    has nothing to check.
    """
    if fam.kind not in ("ball-subsets", "random-subsets"):
        return
    if fam.kind == "ball-subsets":
        _subset_count_check(ctx, fam)
    ball = _capped_ball_size(ctx, fam.radius)
    try:
        check(ball)
    except BudgetExceededError:
        if fam.kind == "ball-subsets":
            for size in range(1, ball + 1):
                check(size)
        else:
            for _ in _random_draws(fam, range(ball), check):
                pass
    if fam.kind == "ball-subsets":
        total = sum(math.comb(ball, size) * work(size) for size in range(1, ball + 1))
    else:
        total = fam.budget * work(ball)
    if total > FAMILY_PAIR_BUDGET:
        raise BudgetExceededError("family pair enumeration", total, FAMILY_PAIR_BUDGET)


def candidate_sets(ctx: FreeGroupCtx, fam: SetFamily):
    """Deterministic candidate stream for the explicit non-adaptive families.

    Radial families are masks, swept by _sphere_union_sweep; they build
    no ElementSet.
    """
    if fam.kind in RADIAL_KINDS:
        raise ValueError(f"{fam.kind} family is radial; use the sphere-union sweep")
    if fam.kind == "ball-subsets":
        size = _subset_count_check(ctx, fam)
        ball = _ball_keys(ctx, fam.radius)
        for mask in range(1 << size):
            keys = tuple(key for i, key in enumerate(ball) if mask >> i & 1)
            yield ElementSet(ctx, word_keys=keys, label=f"sub{mask}")
    elif fam.kind == "random-subsets":
        ball = _ball_keys(ctx, fam.radius)
        for i, draw in enumerate(_random_draws(fam, ball)):
            yield ElementSet(ctx, word_keys=tuple(draw), label=f"random-{i}")
    else:
        raise ValueError("greedy family is adaptive; use the estimator entry points")


def _check_pair_work(e_size: int, f_size: int) -> None:
    """Budget check for a pairing of explicit sets: |E| |F| pairs."""
    if e_size * f_size > PAIR_BUDGET:
        raise BudgetExceededError("pair enumeration", e_size * f_size, PAIR_BUDGET)


def _check_convolution_work(sphere_work: int, set_size: int) -> None:
    """Budget check for f * chi_X with |X| = set_size: sum_n |S_n| |X| pairs.

    sphere_work is sum_n |S_n| over f's support, summed once per call.
    """
    work = sphere_work * set_size
    if work > PAIR_BUDGET:
        raise BudgetExceededError("convolution enumeration", work, PAIR_BUDGET)


class _SphereImages:
    """Sphere images for one weak-estimator call: images[n] maps x to its image under S_n.

    Only the weak estimator of a float f reads images: its float square
    sum follows the keys' insertion order, which the pair loop fixes;
    every other explicit path, the weak estimator of an exact f
    included, reads distance profiles (_inverse_profiles).

    images[n] starts as {1: S_n}, the identity's image, which takes no
    room.  A missing image is extended from its parent's by
    _kernels.extend_image, starting from the nearest stored prefix of x,
    the identity at the latest.  Every image built on the way, x's and
    its prefixes', is stored while its keys fit the room of PAIR_BUDGET
    keys, the bound on one set's work; the rest is rebuilt.
    """

    def __init__(self, tk: int):
        self.tk, self.images, self.room = tk, {}, PAIR_BUDGET

    def counts(self, n: int, keys) -> Counter:
        """Counts of z = w*x over w in S_n, x in keys, in the pair loop's order."""
        memo = self.images.get(n)
        if memo is None:
            memo = self.images[n] = {1: _kernels.sphere_keys(self.tk, n)}
        # an image is never empty, so `or` builds exactly the missing ones
        return _kernels.count_images([memo.get(kx) or self._build(memo, kx) for kx in keys])

    def _build(self, memo: dict, kx: int) -> list:
        tk = self.tk
        path = []
        while kx not in memo:
            path.append(kx)
            kx //= tk
        image = memo[kx]
        for key in reversed(path):
            image = _kernels.extend_image(tk, image, key % tk)
            if len(image) <= self.room:
                memo[key] = image
                self.room -= len(image)
        return image


def _convolve_value_counts(scaled, keys, images: _SphereImages) -> dict:
    """Sparse key -> D * value map of f * chi_X for an explicit key list X.

    scaled holds the (n, D * f_n) pairs of _scaled_items(f); values are
    accumulated in n ascending, then in the pair loop's z order.  The
    caller checks the work.
    """
    out: dict = {}
    for n, fn in scaled:
        for zkey, count in images.counts(n, keys).items():
            prev = out.get(zkey)
            out[zkey] = fn * count if prev is None else prev + fn * count
    return out


def _sphere_columns(f: RadialFunction, radius: int) -> list:
    """The columns D (f * chi_r) for r = 0 .. radius, D = _denominator(f).

    Each column is radial.sphere_product(f, r), so an exact f gives
    integers directly; a float f gives float() of the coefficients of
    convolve_radial(f, chi_r).  Every column has length
    deg f + radius + 1, zero-padded.
    """
    top = f.degree + radius + 1
    cols = [sphere_product(f, r, top)[1] for r in range(radius + 1)]
    if not f.is_exact():
        cols = [[float(c) for c in col] for col in cols]
    return cols


def _sphere_union_sweep(ctx: FreeGroupCtx, fs, fam: SetFamily):
    """Yield (mask, [coeffs of g for g in fs], |E|) for each candidate of a radial family.

    coeffs[n] / D, with D = _denominator(g), is the coefficient of chi_n
    in g * chi_E: integers for an exact g, floats (D = 1) for a float g.
    A radial indicator is a sum of chi_r, so the columns D (g * chi_r)
    are built once per g by _sphere_columns, on integers with no Fraction
    in between, for r <= R = _sweep_radius(fam).  One table of parents
    serves every g: a candidate's coefficients are its parent's (the mask
    without its highest bit) plus one column, so radii are summed in
    ascending order.  g's lists have length deg g + R + 1; an empty fs
    yields every candidate with no coefficients.
    """
    radius = _sweep_radius(fam)
    cols = [_sphere_columns(g, radius) for g in fs]
    # sums[mask] = (coeffs per g, |E|); mask 0 is the empty set, and masks
    # holding the top radius are never parents, so they are not kept
    sums = {0: ([[0] * len(g_cols[0]) for g_cols in cols], 0)}
    sizes = [sphere_size(ctx, r) for r in range(radius + 1)]
    for mask in _radial_candidates(fam)[0]:
        r = mask.bit_length() - 1
        parents, parent_size = sums[mask ^ (1 << r)]
        coeffs = [list(map(add, p, g_cols[r])) for p, g_cols in zip(parents, cols)]
        size = parent_size + sizes[r]
        if r < radius:
            sums[mask] = (coeffs, size)
        yield mask, coeffs, size


def chi_pairing_profile(E: ElementSet, F: ElementSet) -> list:
    """All pairings <chi_l * chi_E, chi_F> for explicit E and F, indexed by l, as integers.

    One length histogram of the products serves every sphere index, so
    sweeping l costs no more than a single pairing; entries are exact.
    """
    if E.ctx != F.ctx:
        raise ValueError("mismatched group contexts")
    _check_pair_work(E.size, F.size)
    tk = E.ctx.alphabet
    ekeys_inv = [_kernels.inv_key(tk, key) for key in E.word_keys]
    return _kernels.prod_len_hist(tk, F.word_keys, ekeys_inv)


def require_self_pairings_budget(ctx: FreeGroupCtx, fam: SetFamily) -> None:
    """self_pairings' check of an explicit family's |E|^2 pairs; it builds no ball."""
    _check_candidates(ctx, fam, lambda size: _check_pair_work(size, size), lambda size: size**2)


def require_prefix_sups_budget(ctx: FreeGroupCtx, fam: SetFamily, n_max: int) -> None:
    """prefix_sups' check of an explicit family's |S_n| |E| pairs, n <= n_max; it builds no ball."""

    def check(size):
        for n in range(n_max + 1):
            _check_convolution_work(sphere_size(ctx, n), size)

    sphere_work = sum(sphere_size(ctx, n) for n in range(n_max + 1))
    _check_candidates(ctx, fam, check, lambda size: sphere_work * size)


def _inverse_profiles(ctx: FreeGroupCtx, E: ElementSet):
    """E^-1's keys, and _kernels.distance_profiles of them.

    |z x^-1| is |y^-1 u| for y = z^-1 and u = x^-1, so on the closure of
    E^-1, P_y[j] counts the x in E with |z x^-1| = j.
    """
    tk = ctx.alphabet
    inv = [_kernels.inv_key(tk, key) for key in E.word_keys]
    return inv, _kernels.distance_profiles(tk, inv)


def _explicit_prefix_sups(ctx: FreeGroupCtx, E: ElementSet, n_max: int) -> list:
    """prefix_sups' row of one explicit E, from the distance profiles of E^-1.

    (chi_n * chi_E)(z) is P_y[n] for y = z^-1 when y is in the closure C.
    Otherwise z^-1 has a nearest node y in C, at some distance t >= 1, so
    z's count is P_y[n - t], and b(y) q^(t-1) such z share y and t.  So
    sphere n's values are the P_y[n] once each and the P_y[n - t]
    b(y) q^(t-1) times, zeros dropped.
    """
    q = ctx.q
    # at[j][v]: the y with P_y[j] = v; off[j][v]: their b(y), summed
    at = [{} for _ in range(n_max + 1)]
    off = [{} for _ in range(n_max + 1)]
    for lanes, b in _inverse_profiles(ctx, E)[1].values():
        for j, v in enumerate(lanes[: n_max + 1]):
            if v:
                at[j][v] = at[j].get(v, 0) + 1
                if b:
                    off[j][v] = off[j].get(v, 0) + b
    sups = []
    cone: dict = {}  # v -> #{z outside C with (chi_n * chi_E)(z) = v}
    for n in range(n_max + 1):
        sups.append(_best_prefix(runs(chain(at[n].items(), cone.items())), 0.5, 1)[0])
        cone = {v: q * m for v, m in cone.items()}
        for v, m in off[n].items():
            cone[v] = cone.get(v, 0) + m
    return sups


def _profile_value_counts(ctx: FreeGroupCtx, scaled, E: ElementSet):
    """(D * value, multiplicity) pairs of f * chi_E for an explicit E, zeros included.

    (f * chi_E)(z) = sum_n D f_n #{x in E : |z x^-1| = n}, and the
    distance profiles of E^-1 (_inverse_profiles) give that count: P_y[n]
    for z = y^-1 with y in the closure C, once, and P_y[n - t] for the
    b(y) q^(t-1) z whose nearest node of C is y, at t = 1 .. deg f (the
    cone rule of _explicit_prefix_sups).  Each value adds D f_n times its
    count in ascending n, as _convolve_value_counts does, and a zero
    count adds nothing, so a float f gets the image path's values bit for
    bit.  scaled holds the (n, D f_n) pairs of _scaled_items(f).
    """
    q = ctx.q
    top = scaled[-1][0] if scaled else -1  # the zero f has no value to yield
    # terms[t]: the (n - t, D f_n) pairs that distance t reads
    terms = [[(n - t, fn) for n, fn in scaled if n >= t] for t in range(top + 1)]
    for lanes, b in _inverse_profiles(ctx, E)[1].values():
        width = len(lanes)
        mult = 1
        for t, pairs in enumerate(terms if b else terms[:1]):
            v = 0
            for j, fn in pairs:
                if j < width:
                    v += fn * lanes[j]
            yield v, mult
            mult = b * q**t


def self_pairings(ctx: FreeGroupCtx, fam: SetFamily, k_max: int):
    """Yield (label, |E|, [<chi_k * chi_E, chi_E> for k <= k_max]) per candidate E, as integers.

    A radial E sums (chi_k * chi_E)_r |S_r| over its spheres r, from one
    sweep of chi_0 .. chi_k_max, whose coefficients are integers (D = 1);
    an explicit E sums (chi_k * chi_E)(x) = P_{x^-1}[k] over x in E, from
    the distance profiles of E^-1 (_inverse_profiles), once
    require_self_pairings_budget has passed.
    """
    if fam.kind in RADIAL_KINDS:
        label = _radial_candidates(fam)[1]
        chis = [chi(ctx, k) for k in range(k_max + 1)]
        sizes = [sphere_size(ctx, r) for r in range(_sweep_radius(fam) + 1)]
        for mask, hs, size in _sphere_union_sweep(ctx, chis, fam):
            weights = [sizes[r] if mask >> r & 1 else 0 for r in range(mask.bit_length())]
            yield label(mask), size, [sum(map(mul, h, weights)) for h in hs]
        return
    require_self_pairings_budget(ctx, fam)
    for E in candidate_sets(ctx, fam):
        inv, profiles = _inverse_profiles(ctx, E)
        pairs = [0] * (k_max + 1)
        for key in inv:
            for j, v in enumerate(profiles[key][0][: k_max + 1]):
                pairs[j] += v
        yield E.label, E.size, pairs


def prefix_sups(ctx: FreeGroupCtx, fam: SetFamily, n_max: int):
    """Yield (label, |E|, [sup_F <chi_n * chi_E, chi_F> / |F|^{1/2} for n <= n_max]).

    Each sup is the best prefix of the runs of chi_n * chi_E, whose values
    are integers: radial sweep coefficients, or counts read off the
    distance profiles of E^-1 (_explicit_prefix_sups).  An explicit
    family passes require_prefix_sups_budget before its ball is built,
    and is then swept once, set by set.
    """
    if fam.kind in RADIAL_KINDS:
        label = _radial_candidates(fam)[1]
        chis = [chi(ctx, n) for n in range(n_max + 1)]
        mult = [sphere_size(ctx, l) for l in range(n_max + _sweep_radius(fam) + 1)]
        for mask, hs, size in _sphere_union_sweep(ctx, chis, fam):
            yield label(mask), size, [_best_prefix(runs(zip(h, mult)), 0.5, 1)[0] for h in hs]
        return
    require_prefix_sups_budget(ctx, fam, n_max)
    for E in candidate_sets(ctx, fam):
        yield E.label, E.size, _explicit_prefix_sups(ctx, E, n_max)


def _estimate_over_family(f: RadialFunction, fam: SetFamily, score_set, score_radial):
    """Max over the family as a (value, label, extra...) tuple.

    Radial candidates are scored by score_radial (see _sweep_best):
    sphere unions by _sphere_union_search, spheres and balls by the
    sweep.  Explicit candidates are scored by score_set(E), once E's
    budget check (sum_n |S_n| |E| pairs over f's support) has passed;
    what the scorer reads is its own: the restricted estimator, and the
    weak one for an exact f, read the distance profiles of E^-1
    (_profile_value_counts), the weak one for a float f sphere images
    (_convolve_value_counts), whose insertion order its float square sum
    follows.  The first maximum wins ties.
    """
    ctx = f.ctx
    if fam.kind in RADIAL_KINDS:
        search = _sphere_union_search if fam.kind == "sphere-unions" else _sweep_best
        best, best_mask = search(f, fam, score_radial)
        return (best[0], _radial_candidates(fam)[1](best_mask), *best[1:])

    sphere_work = sum(sphere_size(ctx, n) for n, _ in _scaled_items(f)[1])

    def objective(E: ElementSet):
        _check_convolution_work(sphere_work, E.size)
        return score_set(E)

    # work known before the ball is built is checked first: greedy's first
    # candidate is one word, and the other families' sizes replay
    if fam.kind == "greedy":
        _capped_ball_size(ctx, fam.radius)
        _check_convolution_work(sphere_work, 1)
        return _greedy_search(objective, ctx, fam)
    _check_candidates(
        ctx,
        fam,
        lambda size: _check_convolution_work(sphere_work, size),
        lambda size: sphere_work * size,
    )
    # no family is empty: ball-subsets passes its subset-count check only if 2^|B| <= budget,
    # so mask 1, one word, is a candidate; every random-subsets draw has size >= 1; greedy's
    # first round (budget >= 1) scores every word of a nonempty ball
    results = (objective(E) for E in candidate_sets(ctx, fam) if E.size > 0)
    return max(results, key=lambda res: res[0])


def _sweep_best(f: RadialFunction, fam: SetFamily, score):
    """The first best candidate of a radial family by the full sweep: (score, mask).

    score(coeffs, mult, D, |E|) returns a tuple whose first entry is the
    value, where mult[n] = |S_n| (see _sphere_union_sweep for coeffs and D).
    """
    D = _denominator(f)
    mult = [sphere_size(f.ctx, n) for n in range(f.degree + _sweep_radius(fam) + 1)]
    scored = (
        (score(coeffs, mult, D, size), mask)
        for mask, (coeffs,), size in _sphere_union_sweep(f.ctx, [f], fam)
    )
    return max(scored, key=lambda pair: pair[0][0])


# relative slack on the prune test, far above the rounding of a score
_PRUNE_SLACK = 1.0 + 1e-9


def _sphere_union_search(f: RadialFunction, fam: SetFamily, score):
    """_sweep_best of a sphere-unions family, by branch and bound: (score, mask).

    The result is the largest value over the masks 1 .. budget, the
    smallest such mask on ties, as the sweep's first maximum.  The
    search decides S_R first, down to S_0.  A node has decided the radii
    >= r, L of them in; it scores U = L + (the radii < r), with U's
    columns folded in ascending radius as the sweep folds that mask, so
    a float f gets the sweep's scores bit for bit.  For f >= 0,
    f * chi_E grows pointwise with E, so every E with L <= E <= U has
    value(E) <= value(U) sqrt(|U| / |L|) in both estimators; a node is
    pruned when that bound, with a relative slack of 1e-9, is below the
    best value, and every tie survives.  Only radii up to
    _sweep_radius(fam) are searched: no mask <= budget holds a higher
    sphere.
    """
    ctx = f.ctx
    radius = _sweep_radius(fam)
    cols = _sphere_columns(f, radius)
    top = len(cols[-1])
    D = _denominator(f)
    mult = [sphere_size(ctx, n) for n in range(top)]
    sizes = [sphere_size(ctx, r) for r in range(radius + 1)]
    # balls[r] and ball_sizes[r] are B_{r-1}'s, folded as the sweep folds them
    balls = [[0] * top]
    ball_sizes = [0]
    for r, col in enumerate(cols):
        balls.append(list(map(add, balls[-1], col)))
        ball_sizes.append(ball_sizes[-1] + sizes[r])
    best = None
    best_value = -math.inf
    best_mask = 0

    # a stack entry (r, L, |L|, value, |U|, scored): value and |U| are of
    # this node's U when scored, else of its parent's, which has the same L
    stack = [(radius + 1, 0, 0, 0.0, 0, False)]
    while stack:
        r, in_mask, in_size, value, u_size, scored = stack.pop()
        if in_size and value * math.sqrt(u_size / in_size) * _PRUNE_SLACK < best_value:
            continue
        if not scored:
            mask = in_mask | ((1 << r) - 1)
            if not mask:
                continue
            coeffs = balls[r]
            for i in range(r, radius + 1):
                if in_mask >> i & 1:
                    coeffs = list(map(add, coeffs, cols[i]))
            u_size = ball_sizes[r] + in_size
            res = score(coeffs, mult, D, u_size)
            value = res[0]
            if mask <= fam.budget and (
                value > best_value or (value == best_value and mask < best_mask)
            ):
                best, best_value, best_mask = res, value, mask
            if in_size and value * math.sqrt(u_size / in_size) * _PRUNE_SLACK < best_value:
                continue
        if not r:
            continue
        r -= 1
        # S_r out, then S_r in, which pops first and keeps U
        stack.append((r, in_mask, in_size, value, u_size, False))
        if in_mask | (1 << r) <= fam.budget:
            stack.append((r, in_mask | (1 << r), in_size + sizes[r], value, u_size, True))
    return best, best_mask


def _best_prefix(runs, e: float, D):
    """max_j (a_1 + ... + a_j) / j^e over the runs, 0 < e < 1, and the first maximizing j.

    runs are decreasing (value * D, multiplicity) pairs; only run ends are
    scored.  If c terms sum to P before a run of value v, the objective on
    that run is (A + v j) / j^e with A = P - v c >= 0, whose slope has the
    sign of v (1 - e) j - e A: it falls, then rises.  So each j inside
    [c, c + m] is strictly below an end (j = c ends the previous run), and
    the value and first maximizing j are exactly those of every prefix.
    Each prefix sum, kept in the values' arithmetic, is divided by D once:
    int / int true division rounds as float(Fraction(prefix, D)) does.
    """
    best, best_j = 0.0, 0
    prefix = j = 0
    for v, m in runs:
        prefix += v * m
        j += m
        cand = prefix / D / float(j) ** e
        if cand > best:
            best, best_j = cand, j
    return best, best_j


def _root_of_quotient(sq, D: int, size: int) -> float:
    """sqrt(sq / D^2 / size), the weak estimators' value, as a float.

    Where the float expression does not overflow, it gives the value:
    int / int true division rounds as float(Fraction) does.  An integer
    sq, or a size, past float range raises OverflowError in that
    expression although the root may be in range; then the root is taken
    on integers, isqrt of the exact quotient scaled by 4^s so that it
    holds 64 bits at least, within 1 ulp.  A root past float range is a
    ValueError.
    """
    try:
        return math.sqrt(sq / (D * D) / size)
    except OverflowError:
        pass
    try:
        num, den = sq.as_integer_ratio()
        den *= D * D * size
        s = max(0, 66 - (num.bit_length() - den.bit_length()) // 2)
        return math.ldexp(float(math.isqrt((num << 2 * s) // den)), -s)
    except OverflowError:
        raise ValueError("the weak estimate is out of float range") from None


def _greedy_search(objective, ctx: FreeGroupCtx, fam: SetFamily):
    """Grow one set a word at a time, keeping the best set seen."""
    pool = _ball_keys(ctx, fam.radius)
    chosen: list = []
    best = None
    for _ in range(fam.budget):
        round_best = None
        round_key = None
        for key in pool:
            if key in chosen:
                continue
            cand = ElementSet(
                ctx, word_keys=tuple(chosen) + (key,), label=f"greedy-{len(chosen) + 1}"
            )
            res = objective(cand)
            if round_best is None or res[0] > round_best[0]:
                round_best = res
                round_key = key
        if round_best is None:
            break
        if best is not None and round_best[0] <= best[0]:
            break
        best = round_best
        chosen.append(round_key)
    return best


def restricted_weak_estimate(f: RadialFunction, fam: SetFamily) -> dict:
    """Certified lower bound on the restricted weak (2,2) operator norm.

    For each candidate E the inner sup over F is solved exactly on the
    rearrangement of f * chi_E; the report records the best E and the
    optimal prefix size j.  A float overflow on the way, a prefix sum of
    f * chi_E over D or |E| past float range, is a ValueError.
    """
    require_nonnegative(f)
    D, scaled = _scaled_items(f)

    def score_set(E):
        value, j = _best_prefix(runs(_profile_value_counts(f.ctx, scaled, E)), 0.5, D)
        return value / math.sqrt(E.size), E.label, j

    def score_radial(coeffs, mult, D, size):
        value, j = _best_prefix(runs(zip(coeffs, mult)), 0.5, D)
        return value / math.sqrt(size), j

    try:
        value, label, j = _estimate_over_family(f, fam, score_set, score_radial)
    except OverflowError as exc:
        raise ValueError(f"float overflow in the restricted estimate: {exc}") from None
    return {"estimate": value, "E": label, "j": j, **fam.report_fields()}


def weak_estimate_21_to_2(f: RadialFunction, fam: SetFamily) -> dict:
    """Certified lower bound on ||lambda(f)|| from L^{2,1} to l^2.

    max over E of ||f * chi_E||_2 / |E|^{1/2}; by duality this also
    lower-bounds the weak-type (2,2) norm of lambda(f).  On explicit
    sets an exact f sums the integer squares of the distance-profile
    values (_profile_value_counts), the same integer in any order, and
    a float f sums the squares of its sphere images' values in the pair
    loop's order (_convolve_value_counts).  The root is
    _root_of_quotient's, so an estimate past float range is a
    ValueError.
    """
    require_nonnegative(f)
    D, scaled = _scaled_items(f)

    if f.is_exact():
        # integer squares: the sum is the same in any order
        def score_set(E):
            sq = sum([v * v * m for v, m in _profile_value_counts(f.ctx, scaled, E)])
            return _root_of_quotient(sq, D, E.size), E.label

    else:
        images = _SphereImages(f.ctx.alphabet)

        def score_set(E):
            values = _convolve_value_counts(scaled, E.word_keys, images)
            sq = sum([v * v for v in values.values()])
            return _root_of_quotient(sq, D, E.size), E.label

    def score_radial(coeffs, mult, D, size):
        sq = sum([c * c * m for c, m in zip(coeffs, mult) if c])
        return (_root_of_quotient(sq, D, size),)

    value, label = _estimate_over_family(f, fam, score_set, score_radial)
    return {"estimate": value, "E": label, **fam.report_fields()}


def _accepted_cutoff(q: int, alpha: float, m: int, top: int) -> int:
    """Largest d <= top with m >= q^alpha d, or -1 if there is none.

    q^alpha d grows with d, so the accepted d are an initial segment.  For
    t = 2 alpha an integer the cutoff is exact (q^t d^2 <= m^2); otherwise
    each d keeps the float test float(m) >= float(q)**alpha * d.
    """
    twice = 2.0 * alpha
    if twice == int(twice):
        t = int(twice)
        return min(top, math.isqrt(m * m // q**t) if t >= 0 else math.isqrt(q**-t * m * m))
    scale = float(q) ** alpha
    return next((d for d in range(top, -1, -1) if float(m) >= scale * d), -1)


def _column_mass(ctx: FreeGroupCtx, n: int, m: int, cut: int) -> int:
    """Number of w in S_n with |wx| <= cut <= n + m, for any x with |x| = m.

    A w cancelling j <= min(n, m) letters of x has |wx| = n + m - 2j, so
    these are the w cancelling J = (n + m - cut + 1) // 2 letters or more:
    all of S_n if J = 0, none if J > min(n, m), and else the q^(n-J) words
    ending in the inverses of x's first J letters.
    """
    J = (n + m - cut + 1) // 2
    if J > min(n, m):
        return 0
    return sphere_size(ctx, n) if J == 0 else ctx.q ** (n - J)


def _column_sup(kind: str, params: dict, radius: int, ctx: FreeGroupCtx) -> dict:
    """The report of column_l1_sup, for a kind already checked.

    P_k is Q_k at alpha = 0, so for both kinds the mass at |x| = m is
    _column_mass up to d = _accepted_cutoff: |S_n|, q^(n-J) or 0.  They
    differ only in the bound q^{e/2}: e = 2[k/2] for P, e = 3 + n - 2
    alpha for Q (ok is exact for e an integer).  Every x of length m has
    the same mass, so the first strict maximum over increasing m is
    attained first, in (length, lex) order, by a^m.
    """
    q = ctx.q
    if kind == "P":
        n, alpha = int(params["k"]), 0.0
        e = 2 * (n // 2)
        bound_value = float(q ** (n // 2))
    else:
        n, alpha = int(params["n"]), float(params["alpha"])
        twice = 2.0 * alpha
        e = 3 + n - int(twice) if twice == int(twice) else None
        bound_value = float(q) ** (1.5 - alpha + 0.5 * n)
    if n < 0:
        raise ValueError("sphere radius must be >= 0")
    sup, arg = -1, 0
    for m in range(radius + 1):
        s = _column_mass(ctx, n, m, _accepted_cutoff(q, alpha, m, n + m))
        if s > sup:
            sup, arg = s, m
    if e is None:
        ok = float(sup) <= bound_value
    else:  # sup <= q^{e/2}, squared
        ok = sup * sup * q ** max(-e, 0) <= q ** max(e, 0)
    return {
        "kind": kind,
        "params": {k: (float(v) if k == "alpha" else int(v)) for k, v in params.items()},
        "radius": radius,
        "sup": sup,
        "witness": str(ReducedWord(ctx, (0,) * arg)),
        "bound": bound_value,
        "ok": ok,
    }


def column_l1_sup(kind: str, params: dict, radius: int, ctx: FreeGroupCtx) -> dict:
    """Max column l1 mass over x in the ball of the given radius.

    Reports the witness x and the comparison against the claimed bound:
    q^{[k/2]} for P columns, q^{3/2 - alpha + n/2} for Q columns.  The
    masses come in closed form, one per length, so no ball is enumerated.
    """
    if kind not in ("P", "Q"):
        raise ValueError("kind must be 'P' or 'Q'")
    return _column_sup(kind, params, radius, ctx)


def q_alpha_sweep(ctx: FreeGroupCtx, n: int, alphas, radius: int) -> list:
    """column_l1_sup of Q_n for each alpha in turn: each mass is q^(n-J) in closed form."""
    return [_column_sup("Q", {"n": n, "alpha": float(a)}, radius, ctx) for a in alphas]
