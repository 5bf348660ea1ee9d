"""Host speed, sampled with a fixed memory-bound kernel while the benchmark runs.

The benchmark's host is a few cores of a shared machine.  As other tenants
load its cores and its shared cache, the speed of the same latcrit run moves
by up to 1.7x within minutes, and by 23-34% between sets of runs half an hour
apart, more than the benchmark's bounds allow.  The kernel below does not
call latcrit: it follows one cycle through a list of 2**21 integers (about
80 MB, most of the host's 105 MB shared cache), so each step misses the
private caches and competes for the shared cache and memory the way the
neighbours' load does, and latcrit's own few megabytes hardly change it.  On
that host its time tracked latcrit's over one-minute windows better than
arithmetic loops or smaller lists did.

Timed at a steady rate through a run, the kernel's median time says how fast
the host ran.  A timing multiplied by REFERENCE_S / (kernel median over the
timing's interval widened by WINDOW_S on each side) is in reference seconds:
the time the work would take when the kernel takes REFERENCE_S.  A change to
latcrit moves reference seconds; a slower host moves the timing and the
kernel alike.
"""

from __future__ import annotations

import bisect
import resource
import signal
import statistics
import time

PERIOD_S = 0.2
WINDOW_S = 5.0
STEPS = 8_000
SIZE = 1 << 21
# full-period linear congruential map on range(SIZE) (Hull-Dobell): one cycle
MULTIPLIER = 1_103_515_245
INCREMENT = 12_345
# the kernel's typical median on the 2-core host the benchmark's bounds were set on
REFERENCE_S = 0.004


class HostClock:
    """The kernel, and a SIGALRM sampler that times it every PERIOD_S seconds.

    The handler runs between the bytecodes of whatever is being timed, on the
    same core and under the same load.  ``spent`` is the total time the
    handler took, for the caller to take out of the timings it interrupted.
    ``list_mb`` is the resident memory of the kernel's list, for the caller
    to take out of the process's peak; build the clock first, while the
    process's memory only grows, so that the measured growth is the list.
    """

    def __init__(self):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self._next = [(MULTIPLIER * i + INCREMENT) % SIZE for i in range(SIZE)]
        self.list_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024.0
        self._at = 0
        self.at: list[float] = []       # when each sample ended
        self.samples: list[float] = []  # kernel seconds
        self.spent = 0.0
        self._previous = None

    def kernel_s(self) -> float:
        """Seconds for the next STEPS links of the cycle.

        Each walk goes on where the last one stopped, so that it reads links
        no recent walk has brought into the caches.
        """
        nxt = self._next
        i = self._at
        t0 = time.perf_counter()
        for _ in range(STEPS):
            i = nxt[i]
        dt = time.perf_counter() - t0
        self._at = i
        return dt

    def _tick(self, signum, frame) -> None:
        dt = self.kernel_s()
        self.at.append(time.perf_counter())
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, t0: float, t1: float) -> float:
        """Factor from seconds spent between t0 and t1 to reference seconds."""
        lo = bisect.bisect_left(self.at, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + WINDOW_S)
        return REFERENCE_S / statistics.median(self.samples[lo:hi] or self.samples)
