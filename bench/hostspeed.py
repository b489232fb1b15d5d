"""How fast this host runs pure Python right now, from a fixed reference kernel.

The benchmark shares a host whose speed drifts by tens of percent within
seconds and minutes, on identical code.  So while the workload runs, a
Sampler repeats `kernel()`, a fixed piece of finite-field arithmetic from
the benchmark's own `arith.py` (the same kind of pure-Python work as the
library's), right before and after each item and, on a wall-clock timer,
during it.  Each item's time, less the sampling, is then reported in
*reference seconds*: wall seconds times REF_REP_S over the kernel's
per-repetition time over the same stretch.  On a host that runs the kernel
in REF_REP_S the two are the same; a change to the library changes the
item's time and not the kernel's, so it shows in full.
"""

from __future__ import annotations

import signal
import time

from arith import Field, pmul, pmod, prime_field

# About the median per-repetition time of kernel() on the 2-vCPU Intel Xeon
# (2.1 GHz) virtual machine with Python 3.11.7 that defined the benchmark.
# Only a scale: it is the same constant on both sides of every comparison.
REF_REP_S = 0.003

# F_2[x]/(x^13+x^4+x^3+x+1) and F_7
_F = Field(2, [1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1])
_P = prime_field(7)
_F_POLY = [_P.scalar(c) for c in (3, 1, 4, 1, 5, 2, 6, 5, 3, 5, 1, 1)]
_G_POLY = [_P.scalar(c) for c in (2, 7, 1, 8, 2, 8, 1, 1)]


def kernel():
    """One repetition: a power in F_{2^13} and products mod a polynomial."""
    acc = _F.pow(_F.gen(), 1001)
    f = _F_POLY
    for _ in range(3):
        f = pmod(pmul(f, _F_POLY, _P), _G_POLY, _P) + _F_POLY[:4]
    return acc, f


def reference_seconds(seconds, rep_seconds):
    """Wall seconds on a host that took rep_seconds per kernel repetition,
    scaled to one that takes REF_REP_S."""
    return seconds * REF_REP_S / rep_seconds


class Sampler:
    """Counts kernel repetitions and the seconds they took.

    `sample()` runs some at once; between `start()` and `stop()` a SIGALRM
    handler runs one every `interval` seconds in the main thread, in
    between the bytecodes of whatever runs there.  `rep_seconds(mark)` is
    the mean time of the repetitions since `mark()`.
    """

    def __init__(self):
        self.reps = 0
        self.busy = 0.0
        self._inside = False

    def _repeat(self, *_):
        if self._inside:  # a late timer tick while a repetition runs
            return
        self._inside = True
        start = time.perf_counter()
        kernel()
        self.busy += time.perf_counter() - start
        self.reps += 1
        self._inside = False

    def sample(self, min_seconds, min_reps=2):
        reps, busy = self.reps + min_reps, self.busy + min_seconds
        while self.reps < reps or self.busy < busy:
            self._repeat()

    def mark(self):
        return self.reps, self.busy

    def rep_seconds(self, mark):
        reps, busy = mark
        return (self.busy - busy) / (self.reps - reps)

    def start(self, interval):
        signal.signal(signal.SIGALRM, self._repeat)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
