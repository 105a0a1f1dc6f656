"""The fixed reference computation that every operation time is divided by.

It uses only the standard library and never imports ``fgw``.  The mix of
work (exact rational sums, integer hashing into a dict, tuple building
and float powers) follows what the benchmarked code spends its time on,
so a slower or faster machine moves the reference and the operations
alike.  The garbage collector is paused while it runs, so its time does
not depend on how large the caller's heap is, and nothing it builds
outlives the call.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

#: Loop trips; sized so one call takes a few milliseconds on a 2-core VM.
TRIPS = 1200


def _work(trips: int) -> int:
    acc = Fraction(0)
    table: dict = {}
    fl = 0.0
    for i in range(trips):
        acc += Fraction(i % 11 + 1, i % 6 + 1)
        key = (i * 2654435761) % 997
        table[key] = table.get(key, 0) + i
        word = (i & 3, (i >> 2) & 3, (i >> 4) & 3)
        table[word] = len(word)
        fl += (i % 7 + 1.5) ** 0.5
    return acc.numerator % 7 + len(table) + int(fl) % 3


def reference_seconds(trips: int = TRIPS) -> float:
    """Wall time of one reference computation, collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work(trips)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
