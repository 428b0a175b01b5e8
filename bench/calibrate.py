"""A fixed reference computation that measures the host's current speed.

The machines this benchmark runs on are shared, and their speed drifts:
a fixed pass of the corpus workload measured 62 ms in one minute and
114 ms in the next, with no other process in the machine.  The drift
slows interpreted computation roughly alike, so the benchmark times this
reference computation next to the ops and scales every op time by
REFERENCE_S / (reference time at that moment).  A change to padic_mahler
does not change the reference computation, so the scaled times still
move one for one with the library's own cost.  (Interpreter start-up
drifts differently; run.py scales it by a bare interpreter start.)
"""

from __future__ import annotations

import time
from fractions import Fraction

# the reference computation's time on an undisturbed 2.1 GHz Xeon vCPU;
# scaled times are "milliseconds at that speed"
REFERENCE_S = 0.003
REPEATS = 3
_MODULUS = 2**521 - 1


def reference_work():
    """Big-integer, Fraction and dict work, as the library does."""
    x, acc = 3, 0
    for i in range(6000):
        x = (x * 1234567891011 + i) % _MODULUS
        acc += x & 0xFFFF
    q = Fraction(0)
    for i in range(1, 200):
        q += Fraction(i, i + 1)
    d = {}
    for i in range(6000):
        d[i % 97] = d.get(i % 97, 0) + i
    return acc, q, len(d)


def reference_seconds():
    """The fastest of a few timings of reference_work."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        reference_work()
        best = min(best, time.perf_counter() - start)
    return best
