"""Hot-loop kernels over integer-packed words.

A word is packed as a base-2k integer with a leading 1 sentinel: the key of
l_0 l_1 ... l_{n-1} is ((1*2k + l_0)*2k + l_1)... so the LAST letter is the
lowest digit.  A key of length n lies in [(2k)^n, 2 (2k)^n), so, as 2k >= 4,
numeric key order is the (length, lex) order of the words, and sorting keys
sorts words.  Keys are plain Python integers, so words of any length fit.

S_n is S_{n-1} with each word extended by every letter but the inverse of
its last, in ascending order.  A key's extensions fill [key*2k, key*2k + 2k)
and these intervals ascend with the key, so S_n comes out in key order.

x's image under S_n, the keys of w*x for w in S_n in the order of w, is
built from the image of x's parent x' (x without its last letter a: key
kx // 2k, letter kx % 2k) by one letter: each y = w*x' becomes y*a, which
is y // 2k if y ends in a^-1 and is not the identity (key 1, whose low
digit is no letter), else y * 2k + a.  The identity's image is S_n
itself.  Each step maps the list entry by entry, so an image keeps the
order of w, as a pair loop `for w in S_n` makes it.

Where only the number of x in E at each distance is read, distance
profiles serve instead of sphere images.  Join u to u*a in the Cayley
tree, so d(y, u) = |y^-1 u| and the parent of a key is key // 2k.  For
keys u = x^-1 over x in E and z = y^-1, |z x^-1| = d(y, u), so the
profile P_y[j] = #{u : d(y, u) = j} of y is z's count of x in E at
distance j.  distance_profiles gives P_y and the outward degree
b(y) = 2k - deg_C(y) for every y of the prefix closure C of the u, a
subtree holding the identity, in one pass up and one down.  Every other
y has a nearest node y' of C, at some t >= 1, through which it reaches
every u, so P_y[j] = P_y'[j - t]; and the y with y' and t given fill a
cone of b(y') q^(t-1) words (q = 2k - 1), as the first step leaves C by
one of b(y') edges and each later step has q choices.

Every function here serves a certifier path: the sphere rule, key
encoding and inversion, and the kernels of the explicit families:
distance_profiles (the restricted estimator, lemma1, r22 and the weak
estimator of an exact f), prod_len_hist (pairings), and extend_image,
the one-letter step of the sphere images, which count_images counts for
the weak estimator of a float f only: its float square sum follows the
order in which the pair loop inserts the z, which no profile records.
The kernels return raw counts; lorentz.runs rearranges them.
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


def distance_profiles(two_k: int, keys) -> dict:
    """y -> (P_y, b(y)) for every node y of the prefix closure C of distinct keys.

    P_y[j] counts the keys u with |y^-1 u| = j, a list up to its last
    nonzero entry, and b(y) = 2k - deg_C(y) counts y's neighbours y*a
    outside C.  Each profile is packed in one int, lane j at bit j*B with
    B = (|keys| + 1).bit_length().  The subtree profiles D sum up in
    descending key order, D_parent += D_y << B, and the profiles follow
    in ascending key order, P_y = D_y + ((P_parent - (D_y << B)) << B):
    the keys of y's subtree, plus the others, one step further than from
    the parent.  No lane borrows, since the lanes subtracted count a
    subset of those they are taken from.
    """
    width = (len(keys) + 1).bit_length()
    # packed[y] holds D_y, then P_y
    packed = dict.fromkeys(keys, 1)
    for key in keys:
        # the prefixes up to the first one held; a held key adds its own later
        key //= two_k
        while key and key not in packed:
            packed[key] = 0
            key //= two_k
    order = sorted(packed)
    degree = dict.fromkeys(order, 0)
    for key in reversed(order[1:]):  # order[0] is the identity, the root
        parent = key // two_k
        packed[parent] += packed[key] << width
        degree[parent] += 1
        degree[key] += 1
    mask = (1 << width) - 1
    out = {}
    for key in order:  # a parent's P comes before its children's
        p = packed[key]
        if key > 1:
            p = packed[key] = p + ((packed[key // two_k] - (p << width)) << width)
        lanes = []
        while p:
            lanes.append(p & mask)
            p >>= width
        out[key] = (lanes, two_k - degree[key])
    return out


def extend_image(two_k: int, image: list, a: int) -> list[int]:
    """The image under S_n of x*a, from x's image, for a letter a that does not cancel x's last."""
    inv = a ^ 1
    return [y // two_k if y % two_k == inv and y > 1 else y * two_k + a for y in image]


def count_images(images) -> Counter:
    """Counts of z = w*x over the x's images (chi_n * chi_E), interleaved w-major,
    so keys are inserted in the pair loop's order `for w: for x:`."""
    return Counter(chain.from_iterable(zip(*images)))
