"""Speed-normalised clock.

The 2-vCPU machine this benchmark was built on shares its cores with other
tenants.  A core is either uncontended or runs about 1.7x slower, switching
every second or so, and the share of slow time drifts from minute to
minute: the raw wall time of the same seeded run moved 20-45% between
40-second windows.  Medians do not remove a drift that lasts longer than a
run, so every time figure here is taken at a fixed *reference speed*.

While a :class:`SpeedClock` runs, a real-time interval timer interrupts the
process every ``PERIOD_S`` and runs :func:`probe`, a fixed slice of pure
Python work that never touches ``repro``, and times it.  Any interval is
then scaled piece by piece: the stretch between two probes counts
``REFERENCE_PROBE_S / mean(their probe times)`` per second.  A program that
gets faster still reads faster; a core that gets slower no longer does.
Probe time is excluded from every figure, the tracer's spans included,
because :meth:`SpeedClock.now` stands still while a probe runs.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from typing import Dict, List

__all__ = ["REFERENCE_PROBE_S", "PERIOD_S", "probe", "SpeedClock"]

#: Probe time on an uncontended core of the reference machine (Xeon,
#: Sapphire Rapids class, Python 3.11); times are reported at that speed.
REFERENCE_PROBE_S = 0.0015
#: Seconds between probes.
PERIOD_S = 0.1
#: Steps of one probe; REFERENCE_PROBE_S is the time of exactly this many.
PROBE_ITERATIONS = 6000


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value: float) -> None:
        self.value = value

    def bump(self, amount: float) -> float:
        self.value = self.value * 0.5 + amount
        return self.value


_CELLS = [_Cell(float(i)) for i in range(64)]


def probe() -> float:
    """Seconds taken by a fixed mix of interpreter work.

    Calls, attribute access, dict traffic and float arithmetic.  It imports
    nothing, so it is safe to run from a signal handler in the middle of an
    import, and it holds the garbage collector off so its time does not
    depend on the size of the program's heap.
    """
    table: Dict[int, float] = {}
    cells = _CELLS
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for i in range(PROBE_ITERATIONS):
            key = (i * 7) % 101
            table[key] = table.get(key, 0.0) + cells[i & 63].bump(i * 0.25)
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class SpeedClock:
    """Probes the core on a timer; converts intervals to reference speed.

    Use as a context manager around the work to be timed; it takes one
    probe on entry and one on exit, and owns ``SIGALRM`` in between.
    """

    def __init__(self) -> None:
        self._probing_s = 0.0
        #: Probe-free timestamps of the probes, and their probe times.
        self._stamps: List[float] = []
        self._speeds: List[float] = []

    def now(self) -> float:
        """``perf_counter`` minus all time spent probing."""
        return time.perf_counter() - self._probing_s

    def sample(self, *_: object) -> None:
        begin = time.perf_counter()
        self._stamps.append(begin - self._probing_s)
        self._speeds.append(probe())
        self._probing_s += time.perf_counter() - begin

    def __enter__(self) -> "SpeedClock":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc_info: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def scaled(self, start: float, end: float) -> float:
        """Reference-speed seconds of the probe-free interval [start, end]."""
        stamps, speeds = self._stamps, self._speeds
        total = 0.0
        # Piece i runs from stamps[i - 1] to stamps[i]; piece 0 and the last
        # piece are open-ended and take the nearest probe's speed.
        first = bisect.bisect_right(stamps, start)
        last = bisect.bisect_left(stamps, end)
        for i in range(first, last + 1):
            lo = start if i == first else stamps[i - 1]
            hi = end if i == last else stamps[i]
            if i == 0:
                speed = speeds[0]
            elif i == len(stamps):
                speed = speeds[-1]
            else:
                speed = (speeds[i - 1] + speeds[i]) / 2.0
            total += (hi - lo) * REFERENCE_PROBE_S / speed
        return total
