"""Machine-speed calibration for the end-to-end times.

On a shared host the same call runs at full speed or up to 1.9x slower,
in stretches of seconds to minutes, and CPU time slows with wall time,
so neither minima nor medians of raw times repeat between runs.  The
benchmark therefore times a fixed kernel of its own right before and
right after every timed call, and divides the call's time by the mean
of the two.  The kernel uses only the standard library, in the mix of
operations exactgf spends its time on (growing-integer elimination,
Fraction arithmetic, nested list loops), so a slow spell slows it and
the call alike and the ratio stays put.  Multiplied by REFERENCE_S the
ratio reads as seconds at the reference speed.
"""
from __future__ import annotations

import time
from fractions import Fraction

#: Seconds the kernel takes at full speed on a 2-core Xeon at 2.1 GHz
#: under CPython 3.  A fixed constant, so reported times compare across
#: runs and commits; it only sets the scale.
REFERENCE_S = 0.006

_MATRIX = [[(i * 7 + j * 13) % 23 - 11 + (5 if i == j else 0) for j in range(14)]
           for i in range(14)]


def _det(rows):
    """Fraction-free (Bareiss) determinant of a square integer matrix."""
    a = [r[:] for r in rows]
    n, prev, sign = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def kernel():
    d = _det(_MATRIX)
    s = Fraction(0)
    for i in range(1, 400):
        s += Fraction(d % 97 + i, i * i + 1)
    p = [Fraction(i, 7) for i in range(40)]
    q = [0] * (2 * len(p) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(p):
            q[i + j] += x * y
    return s, q


def kernel_seconds():
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Clock:
    """Times calls against the kernel.  The kernel run after one call is
    also the one before the next, so each call costs one kernel run."""

    def __init__(self):
        self.last = kernel_seconds()
        self.before = self.started = None

    def start(self):
        self.before, self.started = self.last, time.perf_counter()

    def stop(self):
        """(wall seconds, reference seconds) since start()."""
        elapsed = time.perf_counter() - self.started
        self.last = kernel_seconds()
        return elapsed, elapsed * REFERENCE_S / ((self.before + self.last) / 2)
