"""Independent reference mathematics for the benchmark's checks.

Nothing here imports ``fgw``.  Words are tuples of letter codes in the
convention the reports print (code c is generator c >> 1, c ^ 1 is its
inverse, "a" = 0, "A" = 1, "b" = 2, ...), multiplied by cancelling at
the seam.  Structure constants come from the recursion
chi_1 * chi_n = chi_{n+1} + q chi_{n-1} (n >= 2), chi_1 * chi_1 =
chi_2 + (q+1) chi_0, not from a closed form.  ``validate`` cross-checks
these against brute-force word enumeration on small cases.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

# --- words -------------------------------------------------------------


def mul(a: tuple, b: tuple) -> tuple:
    c = 0
    limit = min(len(a), len(b))
    while c < limit and a[len(a) - 1 - c] == b[c] ^ 1:
        c += 1
    return a[: len(a) - c] + b[c:]


def inv(a: tuple) -> tuple:
    return tuple(c ^ 1 for c in reversed(a))


def sphere(k: int, n: int) -> list:
    """Reduced words of length n in lexicographic order of letter codes."""
    return [
        w
        for w in itertools.product(range(2 * k), repeat=n)
        if all(w[i] != w[i - 1] ^ 1 for i in range(1, n))
    ]


def ball(k: int, radius: int) -> list:
    return [w for n in range(radius + 1) for w in sphere(k, n)]


def word_str(w: tuple) -> str:
    return "".join(chr((ord("A") if c & 1 else ord("a")) + (c >> 1)) for c in w)


def sphere_size(k: int, n: int) -> int:
    return 1 if n == 0 else 2 * k * (2 * k - 1) ** (n - 1)


# --- the radial algebra ------------------------------------------------


class Algebra:
    """Structure constants of F_k's radial algebra, built by recursion."""

    def __init__(self, k: int):
        self.k = k
        self.q = 2 * k - 1
        self._rows: dict = {}

    def _times_chi1(self, v: list) -> list:
        q = self.q
        out = [0] * (len(v) + 1)
        for j, c in enumerate(v):
            if not c:
                continue
            out[j + 1] += c
            if j == 1:
                out[0] += (q + 1) * c
            elif j >= 2:
                out[j - 1] += q * c
        return out

    def chi_prod(self, n: int, m: int) -> list:
        """Coefficients over l of chi_n * chi_m."""
        rows = self._rows.setdefault(m, [])
        while len(rows) <= n:
            i = len(rows)
            if i == 0:
                v = [0] * m + [1]
            elif i == 1:
                v = self._times_chi1(rows[0])
            else:
                c = self.q + 1 if i == 2 else self.q
                a = self._times_chi1(rows[i - 1])
                b = rows[i - 2]
                v = [x - c * (b[j] if j < len(b) else 0) for j, x in enumerate(a)]
            while v and not v[-1]:
                v.pop()
            rows.append(v)
        return rows[n]

    def c(self, n: int, m: int, l: int) -> int:
        row = self.chi_prod(n, m)
        return row[l] if l < len(row) else 0

    def convolve(self, f, g) -> list:
        """Coefficients of f * g for coefficient sequences f and g."""
        out = [0] * max(len(f) + len(g) - 1, 0)
        for n, fn in enumerate(f):
            if not fn:
                continue
            for m, gm in enumerate(g):
                if not gm:
                    continue
                w = fn * gm
                for l, c in enumerate(self.chi_prod(n, m)):
                    if c:
                        out[l] += w * c
        return out

    def size(self, n: int) -> int:
        return sphere_size(self.k, n)

    def runs(self, h) -> list:
        """Decreasing rearrangement of the sphere-wise extension of h."""
        counts: dict = {}
        for n, c in enumerate(h):
            if c:
                counts[abs(c)] = counts.get(abs(c), 0) + self.size(n)
        return sorted(counts.items(), reverse=True)


def best_prefix(runs, p: float = 2.0):
    """max_j (sum of the j largest values) / j^{1/p'} over run ends."""
    e = 1.0 - 1.0 / p
    best, best_j, prefix, cum = 0.0, 0, Fraction(0), 0
    for v, m in runs:
        for j in (cum + 1, cum + m):
            val = float(prefix + v * (j - cum)) / j**e
            if val > best:
                best, best_j = val, j
        prefix += v * m
        cum += m
    return best, best_j


def best_prefix_brute(values, p: float = 2.0):
    """The same maximum, trying every prefix length j."""
    e = 1.0 - 1.0 / p
    best, best_j, prefix = 0.0, 0, Fraction(0)
    for j, v in enumerate(sorted((abs(v) for v in values if v), reverse=True), start=1):
        prefix += v
        val = float(prefix) / j**e
        if val > best:
            best, best_j = val, j
    return best, best_j


def prefix_value(values, j: int, p: float = 2.0) -> float:
    top = sorted((abs(v) for v in values if v), reverse=True)[:j]
    return float(sum(top, Fraction(0))) / j ** (1.0 - 1.0 / p) if j else 0.0


# --- radial estimators over unions of spheres -------------------------


def union_masks(radius: int):
    for mask in range(1, 2 ** (radius + 1)):
        radii = [r for r in range(radius + 1) if mask >> r & 1]
        yield radii, "U" + ",".join(str(r) for r in radii)


def union_products(alg: Algebra, f, radius: int):
    """(label, |E|, f * chi_E) for every union E of spheres up to radius."""
    cols = [alg.convolve(f, [0] * r + [1]) for r in range(radius + 1)]
    top = max(len(c) for c in cols)
    out = []
    for radii, label in union_masks(radius):
        h = [sum((cols[r][i] for r in radii if i < len(cols[r])), 0) for i in range(top)]
        out.append((label, sum(alg.size(r) for r in radii), h))
    return out


def l2_squared(alg: Algebra, h):
    return sum((c * c * alg.size(n) for n, c in enumerate(h) if c), 0)


def restricted_unions(alg: Algebra, f, radius: int):
    """max_E sup_F <f*chi_E, chi_F>/(|E||F|)^{1/2}: (value, label, j)."""
    best = None
    for label, size, h in union_products(alg, f, radius):
        val, j = best_prefix(alg.runs(h))
        val /= math.sqrt(size)
        if best is None or val > best[0]:
            best = (val, label, j)
    return best


def a_functional(alg: Algebra, f) -> float:
    q = alg.q
    return math.fsum(
        float(abs(fn) * abs(fm)) * q ** (0.5 * (n + m)) * (1 + min(n, m))
        for n, fn in enumerate(f)
        if fn
        for m, fm in enumerate(f)
        if fm
    )


def conjecture_functional(alg: Algebra, f, s: float, sign: int) -> float:
    inv_sp = 1.0 - 1.0 / s
    terms = []
    for n, fn in enumerate(f):
        for m, fm in enumerate(f):
            if fn and fm:
                low = min(n, m)
                mn = 0.0 if low == 0 else (1.0 if s == 1 else low**inv_sp)
                terms.append(float(fn) * float(fm) * alg.q ** (sign * 0.5 * (n + m)) * (1 + mn))
    return math.fsum(terms)


def sample_radial(rng: random.Random, max_degree: int) -> list:
    """Random nonnegative rational coefficients, as the thm3 suite draws them."""
    while True:
        coeffs = [
            Fraction(rng.randint(1, 12), rng.randint(1, 6)) if rng.random() < 0.5 else Fraction(0)
            for _ in range(max_degree + 1)
        ]
        if any(coeffs):
            while not coeffs[-1]:
                coeffs.pop()
            return coeffs


def format_coeffs(f) -> str:
    while f and not f[-1]:
        f = f[:-1]
    return ",".join("%.12g" % c if isinstance(c, float) else str(c) for c in f) or "0"


# --- Lorentz norms -----------------------------------------------------


def lorentz(runs, p: float, s: float) -> float:
    """||.||_{p,s} on decreasing runs, s = inf for the weak norm."""
    if math.isinf(s):
        best, cum = 0.0, 0
        for v, m in runs:
            cum += m
            best = max(best, float(v) * float(cum) ** (1.0 / p))
        return best
    e = s / p
    terms, cum = [], 0
    for v, m in runs:
        terms.append(float(v) ** s * (float(cum + m) ** e - float(cum) ** e))
        cum += m
    return math.fsum(terms) ** (1.0 / s)


def slope(xs, ys) -> float:
    mx = math.fsum(xs) / len(xs)
    my = math.fsum(ys) / len(ys)
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    return sxy / sxx


# --- explicit sets -----------------------------------------------------


def set_values(k: int, f, E) -> dict:
    """Values of f * chi_E word by word: z -> sum of f(|z x^-1|) over x in E."""
    out: dict = {}
    for n, fn in enumerate(f):
        if not fn:
            continue
        for w in sphere(k, n):
            for x in E:
                z = mul(w, x)
                out[z] = out.get(z, 0) + fn
    return {z: v for z, v in out.items() if v}


def distance_tally(E) -> list:
    """Tally of |y x^-1| over ordered pairs (x, y) in E x E.

    Entry k is <chi_k * chi_E, chi_E>: y = w x with |w| = k.
    """
    tally: dict = {}
    for x in E:
        xi = inv(x)
        for y in E:
            d = len(mul(y, xi))
            tally[d] = tally.get(d, 0) + 1
    return [tally.get(d, 0) for d in range(max(tally, default=-1) + 1)]


def sorted_set(words) -> list:
    return sorted(set(words), key=lambda w: (len(w), w))


def random_subsets(k: int, radius: int, budget: int, seed: int):
    """(label, E) for the seeded random-subsets family."""
    pool = ball(k, radius)
    rng = random.Random(seed)
    out = []
    for i in range(budget):
        size = rng.randint(1, len(pool))
        out.append((f"random-{i}", sorted_set(rng.sample(pool, size))))
    return out


def ball_subsets(k: int, radius: int):
    pool = ball(k, radius)
    return [
        (f"sub{mask}", [w for i, w in enumerate(pool) if mask >> i & 1])
        for mask in range(1 << len(pool))
    ]


def restricted_value(k: int, f, E):
    vals = set_values(k, f, E).values()
    best, j = best_prefix_brute(vals)
    return best / math.sqrt(len(E)), j


def weak_value(k: int, f, E):
    sq = sum((v * v for v in set_values(k, f, E).values()), Fraction(0))
    return math.sqrt(float(sq) / len(E))


def greedy(k: int, radius: int, budget: int, objective):
    """Grow one set a word at a time; (value, label, E) of the best set."""
    pool = ball(k, radius)
    chosen: list = []
    best = None
    for _ in range(budget):
        round_best = None
        for w in pool:
            if w in chosen:
                continue
            E = sorted_set(chosen + [w])
            val = objective(E)
            if round_best is None or val > round_best[0]:
                round_best = (val, f"greedy-{len(chosen) + 1}", E, w)
        if round_best is None or (best is not None and round_best[0] <= best[0]):
            break
        best = round_best
        chosen.append(round_best[3])
    return best[:3]


# --- columns -----------------------------------------------------------


def column_count(alg: Algebra, n: int, m: int, l: int) -> Fraction:
    """#{w in S_n : |w x| = l} for |x| = m, from the structure constants."""
    return Fraction(alg.c(n, m, l) * alg.size(l), alg.size(m))


def q_accepts(q: int, twice_alpha: int, l: int, m: int) -> bool:
    """|x| >= q^alpha |w x| for |x| = m, |w x| = l, alpha on the half grid."""
    return Fraction(l * l) * Fraction(q) ** twice_alpha <= m * m


def column_sup(alg: Algebra, n: int, radius: int, accept):
    """(sup, witness) of the column mass over the ball; witness a^m."""
    best = (-1, None)
    for m in range(radius + 1):
        mass = sum(column_count(alg, n, m, l) for l in range(n + m + 1) if accept(l, m))
        if mass > best[0]:
            best = (mass, "a" * m)
    return best


# --- cross-checks of this module on small cases ------------------------


def validate(k: int = 2) -> list:
    """Brute-force checks of the recursion-built algebra; returns problems."""
    alg = Algebra(k)
    problems = []
    spheres = [sphere(k, n) for n in range(4)]
    for n in range(4):
        for m in range(4):
            tally: dict = {}
            for x in spheres[n]:
                for y in spheres[m]:
                    d = len(mul(x, y))
                    tally[d] = tally.get(d, 0) + 1
            for l in range(n + m + 1):
                if Fraction(tally.get(l, 0), alg.size(l)) != alg.c(n, m, l):
                    problems.append(f"oracle: c({n},{m},{l}) disagrees with enumeration")
            for a in range(4):
                # pairs (x, y) in S_n x S_m with |y x^-1| = a, against c(a, n, m) |S_m|
                count = sum(1 for x in spheres[n] for y in spheres[m] if len(mul(y, inv(x))) == a)
                if count != alg.c(a, n, m) * alg.size(m):
                    problems.append(f"oracle: distance tally S_{n} x S_{m} at {a} disagrees")
            for x in spheres[m]:
                counts: dict = {}
                for w in spheres[n]:
                    d = len(mul(w, x))
                    counts[d] = counts.get(d, 0) + 1
                for l in range(n + m + 1):
                    if counts.get(l, 0) != column_count(alg, n, m, l):
                        problems.append(f"oracle: column count n={n} x={word_str(x)} l={l}")
    f = [Fraction(1), Fraction(1, 2), Fraction(2, 3)]
    for radii, label in union_masks(2):
        E = [w for r in radii for w in spheres[r]]
        vals = set_values(k, f, E)
        h = alg.convolve(f, [1 if r in radii else 0 for r in range(3)])
        if any(v != h[len(z)] for z, v in vals.items()):
            problems.append(f"oracle: f * chi_{label} disagrees with enumeration")
        if not math.isclose(best_prefix(alg.runs(h))[0], best_prefix_brute(vals.values())[0],
                            rel_tol=1e-12):
            problems.append(f"oracle: best prefix over runs disagrees on {label}")
    return problems
