"""Host-speed probe: op times are scaled to a reference speed.

Each CPU of the shared hosts this benchmark runs on switches, on its own,
between two speeds about 1.8x apart, in phases of half a second to tens of
seconds.  Raw wall times of the same op then differ by up to that much
between runs, more than any run length can average out.  So run.py keeps
the benchmark on one CPU, and the worker times a fixed probe loop on it
between ops and, from a CPU-time timer, every `EVERY_S` during them.  An
op's time, less the probes inside it, is multiplied by ``REFERENCE_S / the
mean probe time from the last probe before it to the first after it``: the
time the op would take on a host where the probe takes ``REFERENCE_S``.
The probe runs no program code, so a change to the program moves these
times as it moves raw ones.  Runs report the raw figures too, in their
stamp line.
"""

from __future__ import annotations

import gc
import signal
from time import perf_counter

REFERENCE_S = 0.001
# probe spacing: CPU time inside an op, least wall time between ops
EVERY_S = 0.05


def probe() -> float:
    """Seconds the probe loop takes now: dict, tuple, frozenset and sort
    work, the allocation-heavy interpreter work the program does.
    Garbage collection is off while it runs, so the size of the program's
    live heap does not enter into it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        counts: dict[tuple[int, int], int] = {}
        seen = set()
        for i in range(1000):
            key = (i & 63, i >> 6)
            counts[key] = counts.get(key, 0) + 1
            seen.add(frozenset((i & 15, i & 31)))
        sorted(counts.items(), key=lambda kv: kv[1])
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Meter:
    """Probe samples in time order, and the probe time spent inside the
    current op.  `in_op` turns the sampling during ops on."""

    def __init__(self, in_op: bool):
        self.samples: list[float] = []
        self.in_op = in_op
        self.spent = 0.0
        if in_op:
            signal.signal(signal.SIGPROF, lambda signum, frame: self.take())
        self.take()

    def take(self) -> None:
        t0 = perf_counter()
        self.samples.append(probe())
        self.last = perf_counter()
        self.spent += self.last - t0

    def start_op(self) -> int:
        """Call right before an op; returns the index of the last sample
        before it."""
        self.spent = 0.0
        if self.in_op:
            signal.setitimer(signal.ITIMER_PROF, EVERY_S, EVERY_S)
        return len(self.samples) - 1

    def end_op(self) -> float:
        """Call right after an op; returns the probe time spent inside it."""
        if self.in_op:
            signal.setitimer(signal.ITIMER_PROF, 0)
        return self.spent

    def between_ops(self) -> None:
        if perf_counter() - self.last >= EVERY_S:
            self.take()

    def scale(self, seconds: float, first: int, after: int) -> float:
        """`seconds` of an op at the reference speed; `first` is what
        start_op returned and `after` the sample count when the op ended.
        Needs a sample taken after the op."""
        window = self.samples[first:after + 1]
        return seconds * REFERENCE_S * len(window) / sum(window)
