"""Timings taken at one host speed, by pacing them against a fixed kernel.

The reference host is shared: its speed for pure-Python work drifts by
up to 1.7x over minutes, with the load other tenants put on its cores,
and every wall-clock timing drifts with it (neither CPU time nor
medians remove it; see README.md, Noise).  A run therefore times a fixed
kernel of the benchmark's own, between requests, about every quarter
second of timed work, and counts each stretch of timed work at the
speed the kernel showed on either side of it:

    stretch_s * REFERENCE_KERNEL_S / kernel_s

That is the stretch's time on the host running at the reference speed,
in seconds.  The kernel does the kind of work weylcalc does (exact
``Fraction`` matrix products, a root-set closure over integer tuples)
and never calls the library, so it is the same code on every commit and
a faster library still reads faster.  Wall-clock times are kept next to
the paced ones in every results file.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

#: Kernel seconds on the reference host (2-core Xeon, Python 3.11.7) at
#: its fastest; it fixes the unit of paced timings.
REFERENCE_KERNEL_S = 0.0090
#: Timed work between two kernel samples.
STRETCH_S = 0.25

#: Simple roots of D6 in doubled coordinates (60 roots); the word runs
#: through them and back.
_SIMPLE = tuple(tuple(2 if k == i else -2 if k == i + 1 else 0 for k in range(6))
                for i in range(5)) + ((0, 0, 0, 0, 2, 2),)
_WORD = _SIMPLE + _SIMPLE[::-1]


def _reflect(s, v):
    c = sum(a * b for a, b in zip(s, v)) * 2 // sum(a * a for a in s)
    return tuple(b - c * a for a, b in zip(s, v))


def kernel_s() -> float:
    """Seconds one run of the fixed kernel takes now."""
    t0 = perf_counter()
    seen, frontier = set(_SIMPLE), list(_SIMPLE)
    while frontier:
        nxt = []
        for r in frontier:
            for s in _SIMPLE:
                img = _reflect(s, r)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    n = len(_SIMPLE[0])
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for s in _WORD:
        norm = sum(a * a for a in s)
        refl = [[Fraction(int(i == j)) - Fraction(2 * s[i] * s[j], norm) for j in range(n)]
                for i in range(n)]
        m = [[sum(x * y for x, y in zip(row, col)) for col in zip(*refl)] for row in m]
    assert len(seen) == 60 and m[0][0].denominator == 1
    return perf_counter() - t0


class PacedClock:
    """Sums timed stretches as wall seconds and as paced seconds."""

    def __init__(self):
        self.wall_s = 0.0
        self.paced_s = 0.0
        kernel_s()  # warm-up: the first run in a fresh interpreter is slower
        self.kernels: list[float] = [kernel_s()]
        self._stretch = 0.0

    def add(self, seconds: float) -> None:
        """Count ``seconds`` of timed work; may run the kernel (untimed)."""
        self.wall_s += seconds
        self._stretch += seconds
        if self._stretch >= STRETCH_S:
            self.close()

    def close(self) -> None:
        """Pace the open stretch against a fresh kernel sample."""
        if self._stretch == 0.0:
            return
        before, after = self.kernels[-1], kernel_s()
        self.kernels.append(after)
        speed = (REFERENCE_KERNEL_S / before + REFERENCE_KERNEL_S / after) / 2
        self.paced_s += self._stretch * speed
        self._stretch = 0.0
