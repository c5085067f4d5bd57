"""The fixed reference kernel that every reported op time is divided by.

On a VM that shares its CPUs with other tenants the speed of the same
Python work can swing 2-3x within seconds, and the swings move
eigenchain's ops and this kernel alike.
Timing the kernel about every REF_INTERVAL seconds, between ops, and
dividing each op's time by the median kernel time measured just before
and just after it gives op times in "ref" units that hold still while
wall-clock milliseconds do not.
One ref is one run of ``kernel``: a small dense Fraction product and an
integer elimination, the same kind of pure-Python exact arithmetic
eigenchain spends its time on.

Changing ``kernel`` or ``REF_NOMINAL_S`` rescales every time metric of the
benchmark: keep them as they are, so that runs of different commits stay
comparable.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

REF_INTERVAL = 0.05  # seconds between kernel timings
REF_REPEATS = 3  # kernel runs per timing
REF_NOMINAL_S = 0.001  # seconds a time in ref units is reported as, where it must be in seconds


def kernel():
    a = [[Fraction((i * 7 + j * 3) % 11 - 5, (i + j) % 4 + 1) for j in range(6)] for i in range(6)]
    b = [[Fraction((i * 5 + j) % 7 - 3) for j in range(6)] for i in range(6)]
    c = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
    m = [[(i * 31 + j * 17) % 23 - 11 for j in range(10)] for i in range(10)]
    for r in range(9):
        p = m[r][r] or 1
        for i in range(r + 1, 10):
            f = m[i][r]
            m[i] = [p * x - f * y for x, y in zip(m[i], m[r])]
    return c, m


def reference_seconds() -> list[float]:
    """Seconds each of REF_REPEATS kernel runs takes right now."""
    out = []
    for _ in range(REF_REPEATS):
        t0 = perf_counter()
        kernel()
        out.append(perf_counter() - t0)
    return out


class RefMeter:
    """Converts measured seconds of work to ref units.

    ``add(key, seconds)`` records a duration and times the kernel when
    REF_INTERVAL has passed since the last timing; ``flush`` times it now.
    Each duration is divided by the median of the kernel timings taken just
    before and just after it, and appended to ``refs[key]``.  Callers
    measure their durations outside ``add``, so the kernel's own time is
    never part of them.
    """

    def __init__(self):
        self.refs: defaultdict[object, list[float]] = defaultdict(list)
        self._pending: list[tuple[object, float]] = []
        self._ref = reference_seconds()
        self._ref_at = perf_counter()

    def add(self, key, seconds: float):
        self._pending.append((key, seconds))
        if perf_counter() - self._ref_at >= REF_INTERVAL:
            self.flush()

    def flush(self):
        ref = reference_seconds()
        around = statistics.median(self._ref + ref)
        for key, seconds in self._pending:
            self.refs[key].append(seconds / around)
        self._pending.clear()
        self._ref, self._ref_at = ref, perf_counter()
