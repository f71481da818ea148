"""The host's speed, measured in the same run as the program.

On a shared host the speed of a core drifts: the same fixed work takes up
to 1.7x longer in one minute than in the next, and it moves the times of the
program with it.  ``Speed`` runs a fixed reference kernel between the timed
operations, for a fixed share of the time they took, so the kernel samples
the host over the same stretch of the run as the program.  A gated time is
divided by the kernel's mean time in that run and multiplied by
``REFERENCE_MS``: it reads as the time on a host where one kernel call takes
``REFERENCE_MS``, and a slow stretch of the host cancels out.

The kernel is fixed here and calls no kgdialog code, so a change to the
program moves the normalised times and leaves the kernel's alone.  It is
the mix the program spends its time in: tuple keys hashed into a dict of
lists and compared, and numpy reductions over an entity table.  It
allocates nothing (its index and buffers are built once, on import), and
it runs with the garbage collector off, so the state of the program's heap
does not change its time.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

import numpy as np

REFERENCE_MS = 2.5  # one kernel call on the reference host
SHARE = 0.25  # kernel time per second spent inside operations
MIN_CALLS = 8  # kernel calls a run makes at the least

_rng = random.Random(20131205)
_INDEX: dict[tuple[int, int], list[int]] = {}
for _ in range(3000):
    _INDEX.setdefault((_rng.randrange(4000), _rng.randrange(12)), []).append(_rng.randrange(4000))
_KEYS = list(_INDEX)
_rng.shuffle(_KEYS)
_TABLE = np.random.default_rng(20131205).standard_normal((2000, 32))
_DIFF = np.empty_like(_TABLE)
_DIST = np.empty(len(_TABLE))


def kernel() -> int:
    total = 0
    first = _KEYS[0]
    for key in _KEYS:
        objs = _INDEX[key]
        if key < first:
            total += objs[-1] - len(objs)
    for i in range(8):
        np.subtract(_TABLE, _TABLE[i], out=_DIFF)
        np.square(_DIFF, out=_DIFF)
        _DIFF.sum(axis=1, out=_DIST)
        total += int(_DIST.argmin())
    return total


class Speed:
    """Kernel calls owed and made.  ``owe`` books the time of timed work;
    ``pay`` runs the kernel until the debt is paid, outside any timed
    region, with the garbage collector off: a collection would time the
    program's heap, not the host."""

    def __init__(self) -> None:
        self.calls_ms: list[float] = []
        self._owed = 0.0

    def owe(self, seconds: float) -> None:
        self._owed += SHARE * seconds

    def pay(self, min_calls: int = 0) -> None:
        clock = time.perf_counter
        gc.disable()
        try:
            while self._owed > 0 or len(self.calls_ms) < min_calls:
                start = clock()
                kernel()
                took = clock() - start
                self._owed -= took
                self.calls_ms.append(took * 1e3)
        finally:
            gc.enable()

    def factor(self) -> float:
        """Reference time over this run's kernel time; times multiplied by it
        read as times on the reference host."""
        self.pay(MIN_CALLS)
        return REFERENCE_MS / statistics.fmean(self.calls_ms)
