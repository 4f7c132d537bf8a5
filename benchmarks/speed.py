"""Rescale wall times to a reference CPU speed.

The CPUs of a shared machine change speed: on the 2-vCPU Xeon (2.0 GHz)
where the baseline was taken, a fixed loop of exact arithmetic ran at 0.13 s
or at 0.26 s for seconds at a time, and plain wall-clock figures of one
deck moved by 20-50% between runs. So while a run is measured, a timer
interrupts it every PERIOD_S, and the benchmark also calls between
commands, to time a probe: a fixed piece of the arithmetic entwine does
(`Fraction` and modular integers). A measured
interval is then rescaled piece by piece: the probes inside it are taken
out, and each stretch between two probes counts at the speed those two
probes show, relative to the speed at which the probe takes NOMINAL_S.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

PERIOD_S = 0.1
PROBE_STEPS = 600
NOMINAL_S = 0.002   # about the probe's time on that Xeon at its fast speed


def probe() -> float:
    """Seconds the fixed piece of arithmetic takes now."""
    start = time.perf_counter()
    acc, x = Fraction(0), 0
    for i in range(1, PROBE_STEPS):
        acc += Fraction(i % 7, i % 5 + 1)
        x = (x * 31 + i) % 1000003
    return time.perf_counter() - start


class Speedometer:
    """Probes the CPU speed every PERIOD_S while entered (SIGALRM, main thread only)."""

    def __init__(self):
        self.starts: list[float] = []
        self.took: list[float] = []
        self._busy = False

    def tick(self, *_):
        """Time one probe now; also called between commands, so short ones have probes beside them."""
        if self._busy:   # a tick that arrives during a probe is dropped
            return
        self._busy = True
        start = time.perf_counter()
        took = probe()
        self.starts.append(start)
        self.took.append(took)
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.tick)
        self.tick()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.tick()
        return False

    def rescale(self, start: float, end: float) -> float:
        """Seconds [start, end] would have taken at reference speed, probes excluded."""
        starts, took = self.starts, self.took
        k = bisect.bisect_right(starts, start) - 1   # last probe that began before `start`
        total = 0.0
        t = start
        while t < end:
            following = k + 1 if k + 1 < len(starts) else None
            stop = min(end, starts[following]) if following is not None else end
            if stop > t:
                before = took[k] if k >= 0 else took[following]
                after = took[following] if following is not None else before
                total += (stop - t) * NOMINAL_S / ((before + after) / 2)
            if following is None:
                break
            t = max(stop, starts[following] + took[following])
            k = following
        return total
