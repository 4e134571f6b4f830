"""Item timing corrected for the machine's speed at the time.

On a shared machine the processor's speed drifts: the same verification of
record 5.2-18, repeated for a minute, took 183 to 392 ms, in regimes of
steady speed that last 5 to 15 s, and its CPU time moved with its wall
time.  A 20 s run sees only a few regimes, so raw timings of identical
runs differ by 20-30%.

So the benchmark times a fixed reference computation (Fraction
elimination, pure Python, independent of the package under test) every
`period` seconds from a SIGALRM handler, whose time is taken out of the
item it interrupts, and once before and once after each item.  An item's
reference time is the mean of the samples taken while it ran, or, when it
ran for fewer than MIN_SAMPLES of them, of the MIN_SAMPLES samples taken
nearest to it (one sample is too noisy to scale by).  A sample runs with
the garbage collector paused.  Its normalized latency is

    measured seconds * REFERENCE_S / reference time

that is, the latency the item would have had with the reference
computation at its nominal REFERENCE_S.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

# Median time of `reference()` on the machine the baseline was taken on
# (2-core shared x86_64 machine, Python 3.11.7).  A fixed constant: it only
# sets the unit of the normalized times.
REFERENCE_S = 0.0035
MIN_SAMPLES = 6

_MATRIX = [[Fraction((i * 7 + j * 3) % 11 - 5, (i + 2 * j) % 5 + 1)
            for j in range(7)] for i in range(7)]


def reference() -> Fraction:
    """Fixed work in the package's own idiom: Fraction row reduction."""
    acc = Fraction(0)
    for _ in range(6):
        a = [row[:] for row in _MATRIX]
        for k in range(len(a) - 1):
            pivot = a[k][k] or Fraction(1)
            for i in range(k + 1, len(a)):
                f = a[i][k] / pivot
                for j in range(k, len(a)):
                    a[i][j] -= f * a[k][j]
        acc += a[-1][-1]
    return acc


class Speedometer:
    """Times items and samples the reference computation around them,
    every `period` seconds while used as a context manager."""

    def __init__(self, period=0.25):
        self.period = period
        self.samples: list = []     # (when taken, seconds it took)
        self.stolen = 0.0
        self._previous = None

    def __enter__(self):
        self.sample()       # the first call pays for warming up
        self.samples.clear()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def sample(self):
        # a sample never pays for collecting the garbage of the item it
        # interrupts
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        reference()
        end = time.perf_counter()
        if enabled:
            gc.enable()
        self.samples.append((end, end - start))
        self.stolen += end - start

    def _on_alarm(self, _signum, _frame):
        self.sample()

    def time(self, fn, *args):
        """Run `fn(*args)`: (result or None, exception or None, seconds
        taken less the samples taken meanwhile, start, end)."""
        self.sample()
        stolen = self.stolen
        start = time.perf_counter()
        result = error = None
        try:
            result = fn(*args)
        except Exception as exc:   # the caller counts the failure
            error = exc
        end = time.perf_counter()
        raw = end - start - (self.stolen - stolen)
        self.sample()
        return result, error, raw, start, end

    def normalize(self, raw: float, start: float, end: float) -> float:
        """`raw` seconds of an item run from `start` to `end`, scaled to
        the reference's nominal speed."""
        def gap(sample):
            return max(start - sample[0], sample[0] - end, 0.0)

        ranked = sorted(self.samples, key=gap)
        inside = sum(1 for s in ranked if gap(s) == 0.0)
        near = ranked[:max(inside, MIN_SAMPLES)]
        return raw * REFERENCE_S * len(near) / sum(t for _, t in near)
