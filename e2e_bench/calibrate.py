"""Host-speed probe: rescale wall times to a fixed reference host speed.

On a shared virtual machine the speed of the core a run lands on swings
by up to 2x, in phases from a fraction of a second to minutes, and a
run's wall time swings with it.  (The two cores' phases are unrelated, so
a monitor on the other core cannot see them.)  While a timed region runs,
:class:`Probe` therefore interrupts it every ``INTERVAL_S`` seconds of
wall time with ``SIGALRM`` and times a short fixed kernel — code of the
benchmark's own that never changes with the program — in the same
thread, on the same core, at that moment.  The kernel's speed relative to
its speed on the reference host, averaged over the samples, is the host's
speed over the region, and::

    normalised = (wall - time in the probe) * mean(REFERENCE_S / sample)

is the region's wall time on a host running at the reference speed.  A
slower program reads slower at any host speed; a slower host cancels out.
The kernel does what the program spends its time on — Python calls,
attribute access, dict and list indexing, integer and float arithmetic —
and allocates no container objects, so it never triggers the program's
garbage collector.  The program's outputs do not depend on it: the
benchmark's digest checks run with the probe installed.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

#: Wall-clock period between samples.
INTERVAL_S = 0.02

#: Kernel time, in seconds, on the reference host (the 2-core development
#: virtual machine in its fast phase).  A fixed constant: it only sets the
#: scale of the normalised figures.
REFERENCE_S = 0.0008

_LOOPS = 2500


class _Counter:
    __slots__ = ("total", "hits")

    def __init__(self) -> None:
        self.total = 0.0
        self.hits = 0

    def add(self, value: float) -> float:
        self.hits += 1
        self.total = self.total * 0.5 + value
        return self.total


class _Kernel:
    """The fixed reference work, with the state it reads and writes."""

    def __init__(self) -> None:
        self.table = {key: key * 0.001 for key in range(257)}
        self.slots = [0.0] * 257
        self.counter = _Counter()

    def run(self) -> float:
        state = 12345
        table, slots, counter = self.table, self.slots, self.counter
        acc = 0.0
        for _ in range(_LOOPS):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            key = state % 257
            value = table[key] + slots[key]
            slots[key] = value * 0.5
            acc += counter.add(value)
        return acc


@dataclass(frozen=True)
class Mark:
    """Clock readings at one instant: wall (monotonic) and process CPU."""

    wall: float
    cpu: float


class Probe:
    """Samples the host's speed via ``SIGALRM`` while it is started.

    Wall timestamps are ``time.monotonic()`` readings.  :meth:`net_clock`
    is a clock that stops while a sample runs, so intervals read on it
    exclude the probe's own time.
    """

    def __init__(self) -> None:
        #: (start, duration) of every sample, in order.
        self.samples: List[Tuple[float, float]] = []
        self._kernel = _Kernel()
        self._probe_s = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.monotonic()
        self._kernel.run()
        duration = time.monotonic() - start
        self.samples.append((start, duration))
        self._probe_s += duration

    def start(self) -> None:
        self._kernel.run()  # warm the kernel's code before the first sample
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @staticmethod
    def mark() -> Mark:
        return Mark(time.monotonic(), time.process_time())

    def net_clock(self) -> float:
        """``time.monotonic()`` minus the time spent in samples so far."""
        return time.monotonic() - self._probe_s

    def measure(self, begin: Mark, end: Mark) -> Dict[str, float]:
        """The interval between two marks, raw and at the reference speed.

        ``speed`` is the mean over the interval's samples of the host's
        speed (1.0 = reference); samples are evenly spaced in wall time, so
        this is the time-weighted mean.  ``s`` and ``cpu_s`` are the wall
        and process CPU time less the probe's own time, times ``speed``.
        """
        inside = [d for s, d in self.samples if begin.wall <= s <= end.wall]
        if not inside:
            # Shorter than one interval: sample once now.
            start = time.monotonic()
            self._kernel.run()
            inside = [time.monotonic() - start]
        speed = sum(REFERENCE_S / d for d in inside) / len(inside)
        probe = sum(inside)
        wall = end.wall - begin.wall
        return {"wall_s": wall, "s": max(wall - probe, 0.0) * speed,
                "cpu_s": max(end.cpu - begin.cpu - probe, 0.0) * speed,
                "speed": speed}
