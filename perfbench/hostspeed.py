"""A reference kernel that rescales the benchmark's times to a nominal host speed.

On a shared host the speed of the same code drifts by up to 40% within a
minute, and the drift shows in CPU time as much as in wall time, so it is
not only waiting for a core.  Longer runs do not average it out.  The
benchmark therefore times a fixed reference kernel, which calls nothing of
cogrelay, between ops about every `SAMPLE_EVERY_S`.  A time measured over
an interval is multiplied by `NOMINAL_S` over the kernel's local time: the
median of the `NEIGHBOURS` samples nearest before the interval, those inside
it and the `NEIGHBOURS` nearest after it.  A time so rescaled reads as
seconds on a host that runs the kernel in `NOMINAL_S`; a change to
cogrelay moves it, a change in host speed mostly does not.

The drift does not slow every kind of work alike, so the kernel does the
three kinds the workloads do: integer and dict bytecode, frozen-dataclass
copies with scalar float series (the closed forms, the quadrature callbacks
and the zeta search), and complex-normal draws with array reductions (the
block Monte Carlo).  On logs of `nodirect-sweep` and `mc-validate` the three
together tracked both workloads better than any one of them alone.
"""
from __future__ import annotations

import bisect
import dataclasses
import math
import statistics
import time

import numpy as np

# time between samples during a pass
SAMPLE_EVERY_S = 0.2
# the kernel's time at nominal speed: its median on a 2-core x86_64 VM
NOMINAL_S = 0.0055
# samples on each side of an interval that set its local speed
NEIGHBOURS = 3


@dataclasses.dataclass(frozen=True)
class _Point:
    M: int = 4
    zeta: float = 0.5


def _series(m: int, q: float) -> float:
    """A positive series and a log-gamma scale, as the closed forms evaluate them."""
    v = total = 1.0 / (m + 1)
    i = m + 2
    while v > 1e-12 * total:
        v *= q / i
        total += v
        i += 1
    return math.exp(-q + m * math.log1p(q) - math.lgamma(m + 1)) * total


def reference_kernel(rng: np.random.Generator) -> float:
    """Integer and dict bytecode (about 2 ms), frozen-dataclass copies with
    scalar float series (about 2 ms), complex-normal draws and array
    reductions (about 1 ms)."""
    s = 0
    for i in range(20000):
        s += (i * i) % 7
    counts = {}
    for i in range(2000):
        counts[i % 97] = counts.get(i % 97, 0) + 1
    point = _Point()
    for i in range(1, 120):
        point = dataclasses.replace(point, zeta=i / 120)
        s += sum(_series(k + point.M, 0.5 + 7 * point.zeta) for k in range(4))
    x = rng.standard_normal((4, 4096)) + 1j * rng.standard_normal((4, 4096))
    return s + float(((np.abs(x) ** 2).sum(axis=0) > 4.0).mean())


class Speedometer:
    """Reference samples of one run, in time order."""

    def __init__(self):
        self._rng = np.random.default_rng(0)
        self.at = []       # perf_counter at the start of each sample
        self.took = []     # seconds each sample took
        self.spent = 0.0   # seconds spent sampling
        for _ in range(NEIGHBOURS):     # warm the kernel up; these are not kept
            reference_kernel(self._rng)

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            t0 = time.perf_counter()
            reference_kernel(self._rng)
            t1 = time.perf_counter()
            self.at.append(t0)
            self.took.append(t1 - t0)
            self.spent += t1 - t0

    def tick(self) -> None:
        """Take a sample if the last one is older than SAMPLE_EVERY_S."""
        if not self.at or time.perf_counter() - self.at[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """NOMINAL_S over the local reference time of [start, end]."""
        lo = max(bisect.bisect_left(self.at, start) - NEIGHBOURS, 0)
        hi = bisect.bisect_right(self.at, end) + NEIGHBOURS
        return NOMINAL_S / statistics.median(self.took[lo:hi])
