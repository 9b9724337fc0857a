"""Machine-speed calibration for runs on a shared machine.

On a small VM shared with other tenants, the same code runs up to 40 %
slower for tens of seconds at a time, and every kind of code slows together:
pure Python, numpy and HiGHS. Over 10 s windows, a pure-Python kernel's time
correlated 0.96-0.98 with a CLI simulate call and a HiGHS solve. The ratio
of the two spread 4x less than either time alone.

So while an op runs, a SIGALRM timer runs a fixed pure-Python kernel every
INTERVAL_S of wall time. The kernel also runs once just before and once just
after the op. The handler's time is subtracted from the op, and the op's
time is scaled by NOMINAL_S / (mean kernel time). The result is the op's
time at the speed where the kernel takes NOMINAL_S, which is roughly an idle
machine of the 2-core Xeon type this was tuned on. A setup probe runs in
another process, so it is scaled by BURST kernel runs on each side of it.
The raw times go to the result file beside the scaled ones.
"""

from __future__ import annotations

import signal
import time

ITERATIONS = 20_000
NOMINAL_S = 0.0015  # kernel time on an idle 2-core Xeon VM, Python 3.11
INTERVAL_S = 0.2
BURST = 5  # kernel runs on each side of a setup probe, which takes under 1 s


def kernel() -> int:
    total = 0
    for i in range(ITERATIONS):
        total += i * i % 7
    return total


def kernel_seconds() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class SpeedSampler:
    """Kernel timings taken during timed ops; install it around a run."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0  # seconds spent sampling, to take out of op times

    def tick(self, *_signal_args) -> None:
        start = time.perf_counter()
        self.samples.append(kernel_seconds())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.tick)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def timed(self, fn):
        """(result, raw seconds, scaled seconds) of fn(); the kernel runs
        before and after it and every INTERVAL_S while it runs."""
        self.tick()
        first, spent = len(self.samples) - 1, self.spent
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            end = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            inside = self.spent - spent
            self.tick()
        raw = end - start - inside
        taken = self.samples[first:]
        return result, raw, raw * NOMINAL_S * len(taken) / sum(taken)

    def scale_around(self, fn):
        """(result, scale) for work in another process: the kernel runs
        BURST times just before and just after fn(), and scale turns fn's
        seconds into seconds at the nominal speed."""
        for _ in range(BURST):
            self.tick()
        result = fn()
        for _ in range(BURST):
            self.tick()
        return result, NOMINAL_S * 2 * BURST / sum(self.samples[-2 * BURST:])
