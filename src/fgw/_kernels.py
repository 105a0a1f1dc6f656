"""Hot-loop kernels over integer-packed words.

A word is packed as a base-2k integer with a leading 1 sentinel: the key of
l_0 l_1 ... l_{n-1} is ((1*2k + l_0)*2k + l_1)... so the LAST letter is the
lowest digit.  A key of length n lies in [(2k)^n, 2 (2k)^n), so, as 2k >= 4,
numeric key order is the (length, lex) order of the words, and sorting keys
sorts words.  Keys are plain Python integers, so words of any length fit.

S_n is S_{n-1} with each word extended by every letter but the inverse of
its last, in ascending order.  A key's extensions fill [key*2k, key*2k + 2k)
and these intervals ascend with the key, so S_n comes out in key order.

Every function here serves a certifier path: the sphere rule, key
encoding and inversion, and the pair kernels of the explicit families,
prod_len_hist (pairings), and sphere_image, one word's image under S_n,
which count_images counts for every set (estimators and r22).  The
kernels return raw counts; lorentz.runs rearranges them.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Iterator


def encode_word(two_k: int, letters) -> int:
    key = 1
    for c in letters:
        key = key * two_k + c
    return key


def decode_word(two_k: int, key: int) -> tuple[int, ...]:
    out = []
    while key > 1:
        key, c = divmod(key, two_k)
        out.append(c)
    out.reverse()
    return tuple(out)


def len_key(two_k: int, key: int) -> int:
    n = 0
    while key > 1:
        key //= two_k
        n += 1
    return n


def inv_key(two_k: int, key: int) -> int:
    # peeling from the tail and re-appending reverses the word for free
    out = 1
    while key > 1:
        key, c = divmod(key, two_k)
        out = out * two_k + (c ^ 1)
    return out


def iter_sphere_keys(two_k: int, n: int) -> Iterator[int]:
    """Keys of all reduced words of length n, lazily, in lexicographic order."""
    if n == 0:
        yield 1
        return
    for key in iter_sphere_keys(two_k, n - 1):
        # the empty word (key 1) has no last letter to skip
        skip = (key % two_k) ^ 1 if key > 1 else -1
        base = key * two_k
        for c in range(two_k):
            if c != skip:
                yield base + c


def sphere_keys(two_k: int, n: int) -> list[int]:
    """Keys of all reduced words of length n, in lexicographic order."""
    return list(iter_sphere_keys(two_k, n))


def prod_len_hist(two_k: int, akeys, bkeys) -> list[int]:
    """Histogram of |a*b| over all ordered pairs (a, b) in A x B."""
    if not akeys or not bkeys:
        return []
    bwords = [decode_word(two_k, kb) for kb in bkeys]
    alens = [len_key(two_k, ka) for ka in akeys]
    hist = [0] * (max(alens) + max(len(b) for b in bwords) + 1)
    for ka, la in zip(akeys, alens):
        for b in bwords:
            k = ka
            i = 0
            nb = len(b)
            while k > 1 and i < nb and k % two_k == b[i] ^ 1:
                k //= two_k
                i += 1
            hist[la + nb - 2 * i] += 1
    return hist


def sphere_image(two_k: int, wkeys, kx: int) -> list[int]:
    """Keys of z = w*x for w in the key list wkeys, in its order: x's image under S_n."""
    xl = decode_word(two_k, kx)
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


def count_images(images) -> Counter:
    """Counts of z = w*x over the x's images (chi_n * chi_E), interleaved w-major,
    so keys are inserted in the pair loop's order `for w: for x:`."""
    return Counter(chain.from_iterable(zip(*images)))
