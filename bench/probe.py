"""The reference probe that puts op latencies on one speed scale.

The benchmark host shares its cores with other load that comes in phases:
while it lasts, every pure-Python loop runs up to twice as slowly, and a
phase can cover a whole run.  The fastest of a few repeats cannot remove a
phase that long.  So the worker runs :func:`probe`, a fixed pure-Python
loop of the same kind of work as the package (tuple arithmetic, set and dict
lookups), right before and after every timed op and, from a timer signal,
every SAMPLE_EVERY_S while the op runs.  The op's latency, less the time of
the probes inside it, is then scaled by how much slower than
:data:`QUIET_NS` the probes around and inside it ran (see :func:`scaled`).

A scaled latency is the time the op takes on the benchmark host when nothing
else loads it.  The probe does not depend on the package, so no change to
the package can move it.
"""
from __future__ import annotations

import signal
import statistics
import time
from typing import Callable

ROUNDS = 4000
# The probe's fastest time on the host the benchmark was defined on (Intel
# Xeon, 2 vCPUs under a hypervisor, Python 3.11.7).
QUIET_NS = 950_000
SAMPLE_EVERY_S = 0.04


def probe() -> int:
    """Nanoseconds one run of the reference loop takes now."""
    t = time.perf_counter_ns()
    seen: set[tuple[int, int]] = set()
    hits: dict[tuple[int, int], int] = {}
    for i in range(ROUNDS):
        p = (i % 37, i % 11)
        seen.add(p)
        hits[p] = hits.get(p, 0) + 1
    return time.perf_counter_ns() - t


def speed(probes: list[int]) -> float:
    """The quiet speed over the speed the probes ran at."""
    return QUIET_NS / statistics.fmean(probes)


def scaled(ns: float, probes: list[int]) -> float:
    """``ns`` at the quiet speed, given the probes taken around and inside
    the interval it measures."""
    return ns * speed(probes)


class Sampler:
    """Runs :func:`probe` every SAMPLE_EVERY_S between :meth:`start` and
    :meth:`stop`, from a SIGALRM handler, so that long ops are scaled by the
    speed the host had while they ran and not only at their ends."""

    def __init__(self) -> None:
        self.samples: list[int] = []
        # Called with each sample's duration, so a tracer can keep it out of
        # the self time of the span it interrupted.
        self.on_sample: Callable[[int], None] | None = None
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        ns = probe()
        self.samples.append(ns)
        if self.on_sample is not None:
            self.on_sample(ns)

    def start(self) -> None:
        self.samples = []
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> list[int]:
        """Stop sampling and return the probes taken since :meth:`start`."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        return self.samples
