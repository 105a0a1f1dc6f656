"""Exact radial convolution algebra on the free group.

A radial function f = sum_n f_n chi_n is constant on spheres and is
stored as its coefficient sequence.  Products live in the same algebra:
chi_n * chi_m = sum_l c(n, m, l) chi_l with nonnegative integer
structure constants c(n, m, l), where c counts, for any fixed word z of
length l, the factorizations z = x*y with |x| = n and |y| = m.  The
count depends only on (n, m, l), which is what makes radial functions a
commutative algebra under convolution.

Coefficients are exact rationals by default.  Float coefficients are
accepted (needed for families like f_n = q^{-n/2}); any arithmetic that
touches them degrades to floating point and is documented as such.

An exact f has one integer form: its common denominator D and the
pairs (n, D f_n) over its support (_scaled_items), computed once per
instance, as is its exactness.  Every product in the package runs one
loop, _product_sums, over such pairs, and only this module calls it:
convolve_radial feeds it Df f and Dg g and makes each coefficient one
Fraction over Df Dg, and sphere_product feeds it D f and chi_n and
keeps the integers.  sphere_product is what the rest of the package
reads: the sphere-union sweep's columns (operators) and the verifiers'
chains through f * chi_n (theorems, with sphere_product_norm_squared
for ||f * chi_n||_2^2).  A product with a float coefficient runs the
same loop on the coefficients as they are, term by term in the same
(n, m, l) order, so its floats do not move in the last place.  Each
pair (n, m) reads its structure constants as one row (_product_row),
and structure_constant reads one entry of that row.  Nothing
here enumerates words; the brute-force product oracle_convolve that
checks these constants lives in fgw.oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
import math

from .words import FreeGroupCtx, sphere_size


@lru_cache(maxsize=None)
def _product_row(q: int, lo: int, equal: bool) -> tuple:
    """c(n, m, l) for l = |n - m|, |n - m| + 2, .., n + m, lo = min(n, m).

    The constant depends on the count j = (n + m - l) / 2 of letters
    cancelled at the seam: 1 for j = 0, (q - 1) q^{j-1} for 0 < j < lo,
    and at j = lo either q^lo, or (q + 1) q^{lo-1} when n == m (l = 0).
    The row runs from j = lo down to j = 0, in ascending l.
    """
    if lo == 0:
        return (1,)
    row = [1] + [(q - 1) * q ** (j - 1) for j in range(1, lo)]
    row.append((q + 1) * q ** (lo - 1) if equal else q**lo)
    return tuple(reversed(row))


def structure_constant(ctx: FreeGroupCtx, n: int, m: int, l: int) -> int:
    """Exact coefficient of chi_l in chi_n * chi_m: one entry of _product_row."""
    if n < 0 or m < 0 or l < 0:
        raise ValueError("sphere indices must be nonnegative")
    if n < m:
        n, m = m, n
    if l < n - m or l > n + m or (n + m - l) % 2 != 0:
        return 0
    return _product_row(ctx.q, m, n == m)[(l - n + m) // 2]


def paper_display_coefficient(ctx: FreeGroupCtx, n: int, m: int, l: int) -> int:
    """Majorant coefficient q^{(n+m-l)/2}, plus q^{n-1} at l = 0 when n = m >= 1.

    Used only to certify the two-sided bound exact <= display <= 2*exact;
    the exact constants are authoritative everywhere else.
    """
    if n < 0 or m < 0 or l < 0:
        raise ValueError("sphere indices must be nonnegative")
    if l < abs(n - m) or l > n + m or (n + m - l) % 2 != 0:
        return 0
    q = ctx.q
    val = q ** ((n + m - l) // 2)
    if l == 0 and n == m >= 1:
        val += q ** (n - 1)
    return val


def _as_coeff(x):
    # exact type tests first: Fraction's metaclass is ABCMeta, so its isinstance is slow
    if type(x) is Fraction or type(x) is float or isinstance(x, (float, Fraction)):
        return x
    return Fraction(x)


@dataclass(frozen=True)
class RadialFunction:
    """Finitely supported radial function sum_n coeffs[n] * chi_n.

    Immutable: its exactness and sign are fixed in __post_init__ and its
    integer form (_scaled_items) is computed on first use and kept.  None
    is a field, so equality and hashing read ctx and coeffs only.
    """

    ctx: FreeGroupCtx
    coeffs: tuple

    def __post_init__(self):
        vals = [_as_coeff(x) for x in self.coeffs]
        while vals and not vals[-1]:
            vals.pop()
        object.__setattr__(self, "coeffs", tuple(vals))
        # every value is now a Fraction or a float; an exact Fraction's
        # sign is its numerator's, which skips Fraction's comparison
        exact = nonnegative = True
        for c in vals:
            if type(c) is Fraction:
                c = c.numerator
            elif isinstance(c, float):
                exact = False
            if not c >= 0:
                nonnegative = False
        object.__setattr__(self, "_exact", exact)
        object.__setattr__(self, "_nonnegative", nonnegative)
        object.__setattr__(self, "_scaled", None)

    @property
    def degree(self) -> int:
        """Last nonzero index; -1 for the zero function."""
        return len(self.coeffs) - 1

    def coefficient(self, n: int):
        if 0 <= n < len(self.coeffs):
            return self.coeffs[n]
        return Fraction(0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_nonnegative(self) -> bool:
        return self._nonnegative

    def is_exact(self) -> bool:
        return self._exact

    def nonzero_items(self):
        """(n, f_n) pairs over the support, in increasing n."""
        return [(n, c) for n, c in enumerate(self.coeffs) if c]

    def l2_norm_squared(self):
        """sum_n f_n^2 |S_n|, the squared l2 norm of the sphere-wise extension.

        An exact f sums on integers over D^2 (see _scaled_items) and
        returns one Fraction; a float f sums its terms in increasing n.
        """
        D, items = _scaled_items(self)
        return _l2_sum(self.ctx, D, items, self.is_exact())

    def __add__(self, other: "RadialFunction") -> "RadialFunction":
        if self.ctx != other.ctx:
            raise ValueError("mismatched group contexts")
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        vals = list(a)
        for i, c in enumerate(b):
            vals[i] = vals[i] + c
        return RadialFunction(self.ctx, tuple(vals))

    def __rmul__(self, scalar) -> "RadialFunction":
        s = _as_coeff(scalar)
        return RadialFunction(self.ctx, tuple(s * c for c in self.coeffs))

    def __str__(self) -> str:
        return format_radial_literal(self)


@lru_cache(maxsize=None)
def chi(ctx: FreeGroupCtx, n: int) -> RadialFunction:
    """Indicator of the sphere of radius n, the algebra's basis vector.

    Memoized: RadialFunction is immutable, so one instance per (ctx, n)
    is shared, integer form included.
    """
    if n < 0:
        raise ValueError("sphere index must be nonnegative")
    return RadialFunction(ctx, (0,) * n + (1,))


def parse_radial_literal(ctx: FreeGroupCtx, text: str) -> RadialFunction:
    """Parse a comma-separated rational literal such as "1,1/3,0,2"."""
    toks = [t.strip() for t in text.split(",")]
    try:
        vals = tuple(Fraction(t) for t in toks)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed radial literal {text!r}: {exc}") from None
    return RadialFunction(ctx, vals)


def format_radial_literal(f: RadialFunction) -> str:
    parts = []
    for c in f.coeffs:
        if isinstance(c, float):
            parts.append("%.12g" % c)
        else:
            parts.append(str(c))
    return ",".join(parts) if parts else "0"


def require_nonnegative(f: RadialFunction) -> None:
    """The refusal of every functional and estimator stated for nonnegative f."""
    if not f.is_nonnegative():
        raise ValueError("requires nonnegative coefficients")


def _denominator(f: RadialFunction) -> int:
    """Common denominator D of an exact f, so D f is integral; 1 for a float f."""
    return _scaled_items(f)[0]


def _scaled_items(f: RadialFunction):
    """D = _denominator(f) and the (n, D * f_n) pairs over the support of f.

    For an exact f the scaled coefficients are integers; a float f keeps
    its coefficients as they are (D = 1).  Computed once per instance;
    the pairs are a tuple, shared by every caller.
    """
    if f._scaled is None:
        if f.is_exact():
            D = math.lcm(*(c.denominator for c in f.coeffs))
            items = tuple((n, c.numerator * (D // c.denominator)) for n, c in f.nonzero_items())
        else:
            D, items = 1, tuple(f.nonzero_items())
        object.__setattr__(f, "_scaled", (D, items))
    return f._scaled


def _l2_sum(ctx: FreeGroupCtx, D: int, items, exact: bool):
    """sum c^2 |S_n| / D^2 over the (n, c) pairs of items, in their order.

    exact: items are integers over D and the sum is one Fraction;
    otherwise the terms are summed from 0.0 as they come.
    """
    terms = (c * c * sphere_size(ctx, n) for n, c in items)
    return Fraction(sum(terms), D * D) if exact else sum(terms, 0.0)


def _product_sums(q: int, fs, gs, length: int) -> list:
    """out[l] = sum over (n, f_n) in fs, (m, g_m) in gs of f_n g_m c(n, m, l).

    The one product loop of the algebra.  Each out[l] receives its terms
    in (n, m) order, starting from int 0, in the arithmetic of the
    inputs: integers stay integers, and floats round as a plain
    term-by-term loop would.  length must exceed every n + m.
    """
    out = [0] * length
    for n, fn in fs:
        for m, gm in gs:
            w = fn * gm
            row = _product_row(q, n if n < m else m, n == m)
            lo, hi = abs(n - m), n + m + 1
            out[lo:hi:2] = [o + w * c for o, c in zip(out[lo:hi:2], row)]
    return out


def convolve_radial(f: RadialFunction, g: RadialFunction) -> RadialFunction:
    """Product f * g via the structure constants.

    Exact f and g: _product_sums runs on Df f and Dg g (Df, Dg their
    common denominators) and each coefficient is one Fraction over
    Df Dg.  With any float coefficient it runs on the coefficients as
    they are, so the result rounds exactly as the plain loop does.
    """
    if f.ctx != g.ctx:
        raise ValueError("mismatched group contexts")
    if f.is_zero() or g.is_zero():
        return RadialFunction(f.ctx, ())
    exact = f.is_exact() and g.is_exact()
    if exact:
        Df, fs = _scaled_items(f)
        Dg, gs = _scaled_items(g)
    else:
        fs, gs = f.nonzero_items(), g.nonzero_items()
    out = _product_sums(f.ctx.q, fs, gs, f.degree + g.degree + 1)
    if exact:
        D = Df * Dg
        out = [Fraction(v, D) for v in out]
    return RadialFunction(f.ctx, tuple(out))


def sphere_product(f: RadialFunction, n: int, length: int = 0):
    """(D, h) with h[l] = D (f * chi_n)_l and D = _denominator(f).

    One run of _product_sums on f's integer form against chi_n, whose
    integer form is ((n, 1),), so an exact f gives integers and builds
    no Fraction.  A float f (D = 1) gives the loop's sums as they are,
    which convolve_radial(f, chi_n) would wrap as its coefficients:
    floats, int 0 where no term lands, and the Fraction sums of a
    mixed f.  h has length deg f + n + 1 unless length is given, which
    must then exceed deg f + n; the extra entries are 0.
    """
    if n < 0:
        raise ValueError("sphere index must be nonnegative")
    if length and length <= f.degree + n:
        raise ValueError("length must exceed deg f + n")
    D, fs = _scaled_items(f)
    return D, _product_sums(f.ctx.q, fs, ((n, 1),), length or f.degree + n + 1)


def sphere_product_norm_squared(f: RadialFunction, n: int):
    """||f * chi_n||_2^2 read from sphere_product.

    Equal, in value and type, to convolve_radial(f, chi_n).l2_norm_squared():
    the same sum (_l2_sum) over the same nonzero entries, exact when no
    entry is a float.
    """
    D, h = sphere_product(f, n)
    exact = not any(isinstance(c, float) for c in h)
    return _l2_sum(f.ctx, D, ((l, c) for l, c in enumerate(h) if c), exact)


def a_functional_parts(f: RadialFunction):
    """The quadratic functional A(f) split by parity of n + m.

    Returns (even, odd) with A(f) = even + odd*sqrt(q); both parts are
    exact rationals when the coefficients are, since q^{(n+m)/2} is an
    integer for even n + m and an integer times sqrt(q) otherwise.  An
    exact f sums |a_n| |a_m| q^e (1 + min(n, m)) on integers over its
    integer form (a_n = D f_n, see _scaled_items) and divides once by
    D^2; a float f runs the same loop on its floats (D = 1), in the same
    (n, m) order.
    """
    q = f.ctx.q
    D, items = _scaled_items(f)
    even = 0
    odd = 0
    for n, a in items:
        for m, b in items:
            w = abs(a) * abs(b) * (1 + min(n, m))
            e, r = divmod(n + m, 2)
            if r:
                odd = odd + w * q**e
            else:
                even = even + w * q**e
    if f.is_exact():
        return Fraction(even, D * D), Fraction(odd, D * D)
    return even, odd


def a_functional(f: RadialFunction):
    """A(f) = sum_{n,m} |f_n| |f_m| q^{(n+m)/2} (1 + min(n, m)).

    Exact rational when every contributing pair has even n + m;
    otherwise evaluated in floating point through sqrt(q).
    """
    even, odd = a_functional_parts(f)
    if not odd:
        return even
    return float(even) + float(odd) * math.sqrt(f.ctx.q)


def require_conjecture_index(s: float) -> None:
    """The conjecture functional is stated for 1 <= s <= 2."""
    if not 1 <= s <= 2:
        raise ValueError("s must lie in [1, 2]")


def conjecture_functional(f: RadialFunction, s: float, exponent_sign: int = 1) -> float:
    """sum_{n,m} f_n f_m q^{(n+m)/2} {1 + min(n^{1/s'}, m^{1/s'})}, s' = s/(s-1).

    At s = 1 the convention is 1/s' = 0 with 0^0 = 0, the limit of
    min(n, m)^{1/s'} as s decreases to 1: the min term is 1 on pairs
    with min(n, m) >= 1 and 0 when either index vanishes, which keeps
    the functional continuous in s and gives 1 at chi_0 for every s.
    exponent_sign = -1 evaluates the variant with q^{-(n+m)/2} so
    reports can show both.
    """
    require_conjecture_index(s)
    if exponent_sign not in (1, -1):
        raise ValueError("exponent_sign must be +1 or -1")
    require_nonnegative(f)
    inv_sp = 1.0 - 1.0 / s  # 1/s'
    q = float(f.ctx.q)
    terms = []
    for n, fn in enumerate(f.coeffs):
        if not fn:
            continue
        for m, fm in enumerate(f.coeffs):
            if not fm:
                continue
            low = min(n, m)
            mn = 0.0 if low == 0 else (1.0 if s == 1 else low**inv_sp)
            terms.append(float(fn) * float(fm) * q ** (exponent_sign * 0.5 * (n + m)) * (1.0 + mn))
    return math.fsum(terms)
