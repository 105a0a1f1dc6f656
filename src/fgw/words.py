"""Reduced words on the free group F_k and sphere/ball enumeration.

Elements of F_k are reduced words over 2k letters.  A letter is an integer
code c in [0, 2k): generator index c >> 1, and c ^ 1 is the inverse letter,
so inversion and cancellation tests are single XORs.  Words of length n form
the sphere S_n with |S_n| = 2k(2k-1)^(n-1); we write q = 2k-1 for the
branching number of the Cayley tree.

Enumeration is lexicographic on letter codes and stable across runs; it is
the order all golden files and deterministic searches rely on.  Spheres
are built in _kernels, each from the one below it, over integer keys,
and decoded here; ReducedWord is the form words take where they are
parsed, printed or passed through the public API.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from . import _kernels
from .errors import BudgetExceededError

#: Guard on single-sphere/ball enumeration (element count).
SPHERE_CAP = 10**7

#: Guard on all-pairs products (ordered pair count).
PAIR_BUDGET = 2 * 10**7

#: Guard on an explicit family's pairs, summed over its candidates.
FAMILY_PAIR_BUDGET = 10 * PAIR_BUDGET


@dataclass(frozen=True)
class FreeGroupCtx:
    """Shape of the group: k >= 2 generators, branching number q = 2k-1."""

    k: int

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"need k >= 2 generators, got k={self.k}")

    @property
    def q(self) -> int:
        return 2 * self.k - 1

    @property
    def alphabet(self) -> int:
        """Number of letters, 2k."""
        return 2 * self.k


def inverse_letter(code: int) -> int:
    return code ^ 1


def letter_to_char(code: int) -> str:
    gen, sign = divmod(code, 2)
    if gen >= 26:
        raise ValueError(f"letter {code} has no single-character name (k > 26)")
    return chr((ord("A") if sign else ord("a")) + gen)


def char_to_letter(ctx: FreeGroupCtx, ch: str) -> int:
    if "a" <= ch <= "z":
        code = 2 * (ord(ch) - ord("a"))
    elif "A" <= ch <= "Z":
        code = 2 * (ord(ch) - ord("A")) + 1
    else:
        raise ValueError(f"invalid word character {ch!r}")
    if code >= ctx.alphabet:
        raise ValueError(f"letter {ch!r} is out of range for k={ctx.k}")
    return code


@dataclass(frozen=True)
class ReducedWord:
    """A cancellation-free letter sequence; the empty word is the identity."""

    ctx: FreeGroupCtx
    letters: tuple[int, ...]

    def __post_init__(self):
        two_k = self.ctx.alphabet
        prev = -1
        for c in self.letters:
            if not 0 <= c < two_k:
                raise ValueError(f"invalid letter code {c} for k={self.ctx.k}")
            if prev == c ^ 1:
                raise ValueError(f"word {self.letters} is not reduced")
            prev = c

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "ReducedWord") -> "ReducedWord":
        return mul(self, other)

    def __invert__(self) -> "ReducedWord":
        return inverse(self)

    def __str__(self) -> str:
        return word_to_str(self)

    def __repr__(self) -> str:
        return f"ReducedWord(k={self.ctx.k}, {word_to_str(self) or 'e'!r})"

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        """Deterministic (length, lex) order; the certifiers sort integer keys (ElementSet)."""
        return (len(self.letters), self.letters)


def identity(ctx: FreeGroupCtx) -> ReducedWord:
    return ReducedWord(ctx, ())


def normalize(ctx: FreeGroupCtx, seq: Sequence[int]) -> ReducedWord:
    """Reduce an arbitrary letter sequence to its unique normal form."""
    two_k = ctx.alphabet
    stack: list[int] = []
    for c in seq:
        if not 0 <= c < two_k:
            raise ValueError(f"invalid letter code {c} for k={ctx.k}")
        if stack and stack[-1] == c ^ 1:
            stack.pop()
        else:
            stack.append(c)
    return ReducedWord(ctx, tuple(stack))


def mul(x: ReducedWord, y: ReducedWord) -> ReducedWord:
    if x.ctx != y.ctx:
        raise ValueError("words from different groups")
    a, b = x.letters, y.letters
    c = 0
    limit = min(len(a), len(b))
    while c < limit and a[len(a) - 1 - c] == b[c] ^ 1:
        c += 1
    return ReducedWord(x.ctx, a[: len(a) - c] + b[c:])


def inverse(x: ReducedWord) -> ReducedWord:
    return ReducedWord(x.ctx, tuple(c ^ 1 for c in reversed(x.letters)))


def sphere_size(ctx: FreeGroupCtx, n: int) -> int:
    """|S_n| = 2k(2k-1)^(n-1) for n >= 1, exactly; memoized on (k, n)."""
    return _sphere_size(ctx.k, n)


@lru_cache(maxsize=None)
def _sphere_size(k: int, n: int) -> int:
    if n < 0:
        raise ValueError("sphere radius must be >= 0")
    if n == 0:
        return 1
    return 2 * k * (2 * k - 1) ** (n - 1)


def ball_size(ctx: FreeGroupCtx, radius: int) -> int:
    return sum(sphere_size(ctx, n) for n in range(radius + 1))


def sphere_stream(ctx: FreeGroupCtx, n: int) -> Iterator[ReducedWord]:
    """All reduced words of length n, in lexicographic order on letter codes."""
    size = sphere_size(ctx, n)
    if size > SPHERE_CAP:
        raise BudgetExceededError(f"sphere S_{n} (k={ctx.k})", size, SPHERE_CAP)
    tk = ctx.alphabet
    for key in _kernels.iter_sphere_keys(tk, n):
        yield ReducedWord(ctx, _kernels.decode_word(tk, key))


def ball_stream(ctx: FreeGroupCtx, radius: int) -> Iterator[ReducedWord]:
    """Words of length <= radius in (length, lex) order."""
    size = ball_size(ctx, radius)
    if size > SPHERE_CAP:
        raise BudgetExceededError(f"ball B_{radius} (k={ctx.k})", size, SPHERE_CAP)
    for n in range(radius + 1):
        yield from sphere_stream(ctx, n)


def word_to_str(x: ReducedWord) -> str:
    """Serialize as mixed-case generators, capital = inverse; "" is e."""
    return "".join(letter_to_char(c) for c in x.letters)


def word_from_str(ctx: FreeGroupCtx, s: str) -> ReducedWord:
    """Parse (and reduce) a word like "abA" = a b a^-1."""
    return normalize(ctx, [char_to_letter(ctx, ch) for ch in s])
