"""The host's speed during a run, read from a fixed reference loop.

On the shared 2-CPU VM this benchmark was sized on, the same single-threaded
work ran up to 75 % slower from one run to another, and CPU time moved
with wall time: the host's speed changes, not the scheduling.  That drift
is wider than any bound a regression gate can use.  So a background thread
times a fixed pure-Python loop in thread CPU time (time spent waiting for a
CPU or for the GIL does not count) every quarter second of the run.
``slowdown_between(start, end)`` is the median sample taken within a
second of that interval over ``NOMINAL_S``; ``metrics.end_to_end`` divides
each set-up time and job latency, and the window's stories/s, by the
slowdown sampled while it ran.  That states them at the speed of the host
the bounds were set on.  The loop is the benchmark's own code, so a change
to the program does not change it.
"""

from __future__ import annotations

import statistics
import threading
import time

#: CPU seconds of one ``reference()`` call that define nominal speed: about
#: what it took on the sizing VM at its fastest (runs there read 1.0-1.35x).
NOMINAL_S = 0.010
INTERVAL_S = 0.25
PAD_S = 1.0


def reference() -> float:
    """CPU seconds of a fixed integer loop (~10 ms)."""
    start = time.thread_time()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return time.thread_time() - start


class HostSpeed:
    """Samples ``reference()`` on a background thread until stopped."""

    def __init__(self) -> None:
        self.samples: "list[float]" = []
        #: ``time.perf_counter()`` at the end of each sample
        self.times: "list[float]" = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="host-speed", daemon=True)

    def __enter__(self) -> "HostSpeed":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self.samples.append(reference())
            self.times.append(time.perf_counter())

    def slowdown(self) -> float:
        """How much slower than nominal the host ran: above 1 when slower."""
        if not self.samples:
            return 1.0
        return statistics.median(self.samples) / NOMINAL_S

    def slowdown_between(self, start: float, end: float) -> float:
        """``slowdown()`` from the samples within ``PAD_S`` of [start, end]."""
        near = [
            sample for sample, at in zip(self.samples, self.times)
            if start - PAD_S <= at <= end + PAD_S
        ]
        if not near:
            return self.slowdown()
        return statistics.median(near) / NOMINAL_S
