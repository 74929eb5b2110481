"""Host-speed probe: the benchmark's timings in reference-host milliseconds.

On a shared host the speed of a vCPU steps between levels, from a fast
one to ones 1.4 to 2.5 times slower, and stays on each for a tenth of a
second to minutes as neighbours load the machine. Averaging within a run cannot
remove a level that outlasts the run, so every timing is taken between
two probes of a fixed unit of the benchmark's own work and reported as

    wall time x reference unit time / (mean time of the unit on either side)

that is, in milliseconds of a host on which the unit takes its
reference time. The unit is code of ``bench/`` only, so no change to
the program under test can move it; a change that makes the program
slower makes every timing larger by the same factor.

A change of level does not slow every kind of work alike: per-call
overhead (the interpreter, a NumPy call on a tiny array) slows more
than a NumPy loop over thousands of lanes. So the unit comes in two
kinds, each half an interpreter loop over a small dict and half NumPy
work, and each workload names the kind that matches where its time
goes:

- ``calls``: NumPy calls on a 16-element array, for workloads whose
  time is per-step and per-call overhead;
- ``lanes``: integer NumPy arithmetic over 4096 lanes, for lane-bound
  workloads.

Both were picked by timing the four workloads' requests beside five
candidate units on such a host for 75 s each and cutting the series
into 5-second chunks: with the matching kind, the chunk medians of
normalized request times spread by 0.5-2.3% (IQR over median) where the
raw ones spread by 4-32%, while ``calls`` over-corrects a lane-bound
workload by up to 14% and ``lanes`` under-corrects a call-bound one by
up to 18%.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_TINY = np.arange(16, dtype=np.int64)
_LANES = np.arange(4096, dtype=np.int64)


def _interp() -> None:
    table: dict[int, int] = {}
    acc = 0
    for i in range(6000):
        table[i & 63] = acc
        acc += (i * 7) % 13


def _calls() -> None:
    x = _TINY
    for _ in range(900):
        x = x + 1


def _lanes() -> None:
    x = _LANES
    for _ in range(20):
        x = np.where(x % 3 == 1, x * 3 + 1, x // 2)


#: Kind -> (the NumPy half of the unit, the unit's median time in ms on
#: the fastest level seen on the host the numbers in
#: ``bench/README.md`` come from).
KINDS = {
    "calls": (_calls, 1.1),
    "lanes": (_lanes, 1.1),
}


def unit(kind: str) -> float:
    """Run one unit of ``kind``; its wall time in seconds."""
    numpy_half = KINDS[kind][0]
    t0 = time.perf_counter()
    _interp()
    numpy_half()
    return time.perf_counter() - t0


def probe(kind: str, n: int = 9) -> list[float]:
    """``n`` unit times in seconds, after one unmeasured warm-up unit."""
    unit(kind)
    return [unit(kind) for _ in range(n)]


class Clock:
    """Times consecutive pieces of work in reference-host seconds.

    A probe (the median of ``n`` units of ``kind``) runs before the
    first piece and after every piece, and each piece's wall time is
    scaled by the mean of the probes on its two sides, so the speed is
    tracked piece by piece. ``lap`` returns the scaled and raw seconds
    since the last lap; ``units`` keeps every probe.
    """

    def __init__(self, kind: str, n: int = 3) -> None:
        self.kind = kind
        self.n = n
        self.ref_s = KINDS[kind][1] / 1e3
        unit(kind)
        self.units = [self._probe()]
        self._ref = self._raw = 0.0

    def _probe(self) -> float:
        return statistics.median(unit(self.kind) for _ in range(self.n))

    def time(self, fn):
        """``fn()``, timed as one piece."""
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
        after = self._probe()
        self._ref += wall * self.ref_s / ((self.units[-1] + after) / 2)
        self._raw += wall
        self.units.append(after)
        return out

    def lap(self) -> tuple[float, float]:
        lap = self._ref, self._raw
        self._ref = self._raw = 0.0
        return lap
