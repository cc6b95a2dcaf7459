"""Speed of the machine while a round runs, from a fixed piece of pure-Python work.

On a shared machine the speed of the processor drifts by tens of percent
over seconds to minutes, because other tenants load the host; CPU time
drifts with it.  So a round times a reference chunk of work while it runs
and reports the timed section scaled to the chunk's nominal time:

    normalised = measured * NOMINAL_S / mean(chunk times)

The chunk times come from two runs of 40 chunks, right before and right
after the timed section, and from one chunk every INTERVAL_S during it (a
SIGALRM handler, so the speed is sampled across long sections too).  The
time spent in those chunks is taken out of the measured times.

The chunk runs only the benchmark's own code, so no change to `ciforge` can
move it: a program that gets slower still reads slower.  It runs with the
garbage collector off, so a large heap left by the program does not slow it.
"""

from __future__ import annotations

import gc
import signal
import time

# One chunk's time on a 2-core Xeon (Python 3.11) at quiet moments;
# normalised times are seconds at that speed.
NOMINAL_S = 0.0025
INTERVAL_S = 0.25

_SETS = [frozenset(range(k, k + 8)) for k in range(64)]


def _depth(n):
    return n if n < 2 else _depth(n - 1) + 1


def _chunk():
    """Dict updates, set operations and recursive calls: the kinds of work
    the workloads do."""
    table: dict = {}
    total = 0
    for k in range(4_500):
        table[k & 1023] = (k, total)
        total += len(table) ^ k
    memo: dict = {}
    for k in range(1_750):
        common = _SETS[k & 63] & _SETS[(k * 7) & 63]
        memo[k & 255] = (common, k)
        total += len(common)
    for _ in range(350):
        total += _depth(12)
    return total


def reference_s(chunks: int = 40) -> float:
    """Seconds per chunk, over `chunks` chunks run now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(chunks):
            _chunk()
        return (time.perf_counter() - start) / chunks
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Chunk times before, during and after a timed section.

    Use as a context manager around the section and read times with
    `clock()`, which leaves out the time spent in sampling chunks."""

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0
        self._previous = None

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def scale(self) -> float:
        """Factor from measured seconds to seconds at the nominal speed."""
        return NOMINAL_S / (sum(self.samples) / len(self.samples))

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(reference_s(1))
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self.samples.append(reference_s())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(reference_s())
