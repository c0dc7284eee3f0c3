"""What the benchmark measures with: a speed-corrected clock and peak RSS.

Peak RSS is read as ``VmHWM`` from ``/proc/self/status``, the peak of the
process's own address space.  ``getrusage``'s ``ru_maxrss`` would carry
the peak of the address space the process had before ``exec``, which is
its parent's.

Times are counted in seconds at a fixed reference speed.  The benchmark's
host is a shared 2-core VM whose speed drifts by up to 2x within seconds:
a fixed pure-Python loop took between 85 and 170 ms in one 40-second
window, with nothing else of ours running.  Raw wall times of one commit
then spread by about 25% between runs, more than any bound a regression
check could use.  :class:`SpeedClock` corrects for the drift.  While it
runs, a SIGALRM timer interrupts the process every ``PERIOD`` seconds to
time a fixed reference loop, and the wall time up to the next interruption
is scaled by ``NOMINAL`` over that loop time.  The loop's own time is left
out.  The clock reads close to the wall clock when the machine runs at its
usual speed, and a program that does less work reads less whatever the
machine's speed.  While the process waits for a child
(:meth:`SpeedClock.waiting`) the timer is stopped: a loop running beside
the child measures the contention between the two, not the machine.
"""

from __future__ import annotations

import contextlib
import signal
import time

PERIOD = 0.1
REF_ITERATIONS = 50_000
# median time of the reference loop on the machine the README describes
NOMINAL = 0.0045


def reference_loop_seconds() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_ITERATIONS):
        acc += i * i
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    """Peak resident set size of this process since its ``exec``, in MB."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("VmHWM not found in /proc/self/status")


class SpeedClock:
    """Callable clock in reference seconds; use it as a context manager."""

    def __init__(self):
        self.total = 0.0
        self.mark = 0.0
        self.factor = 1.0
        self.ticks = 0
        self.loops = 0
        self.loop_s = 0.0
        self._busy = False
        self._previous_handler = None

    def __enter__(self):
        self.factor = self._measure(1)
        self.mark = time.perf_counter()
        self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        return False

    def _measure(self, samples: int) -> float:
        """Speed factor: NOMINAL over the median of ``samples`` loops."""
        loops = sorted(reference_loop_seconds() for _ in range(samples))
        self.loop_s += sum(loops)
        self.loops += samples
        self.ticks += 1
        return NOMINAL / loops[len(loops) // 2]

    def _fold(self, factor: float):
        """Count the time since the last mark at ``factor``."""
        self.total += (time.perf_counter() - self.mark) * factor

    def _tick(self, signum=None, frame=None):
        if self._busy:
            return
        self._busy = True
        self._fold(self.factor)
        self.factor = self._measure(1)
        self.mark = time.perf_counter()
        self._busy = False

    @contextlib.contextmanager
    def waiting(self):
        """Count a block that waits for a child process.

        The timer stops, so the reference loop does not compete with the
        child, and the block is counted at the mean of two speeds, each the
        median of three loops: one taken just before it and one just after.
        Read the clock outside the block; a reading inside it is provisional.
        """
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._busy = True
        self._fold(self.factor)
        before = self._measure(3)
        self.factor = before
        self.mark = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            after = self._measure(3)
            self.total += (end - self.mark) * (before + after) / 2
            self.factor = after
            self.mark = time.perf_counter()
            self._busy = False
            signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def __call__(self) -> float:
        while True:
            ticks = self.ticks
            value = self.total + (time.perf_counter() - self.mark) * self.factor
            if ticks == self.ticks:
                return value
