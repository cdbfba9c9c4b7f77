"""Host-speed probe: rescales measured times to a reference host speed.

The machine this benchmark was tuned on shares its CPUs with other
tenants, and its speed drifts by up to a factor of two over minutes, in
phases shorter than one run.  Every time the benchmark reports is therefore
rescaled by the speed of the host while that time was measured:

    reported = (measured - time spent probing) * REFERENCE_PROBE_S / probe_s

``probe_s`` is the mean duration of ``probe()``, a fixed pure-Python loop of
the kind coordarr spends its time in (dict updates, small-integer and
``Fraction`` arithmetic) that uses nothing from coordarr, so a change to
coordarr cannot move it.  During a pass a ``Sampler`` runs the probe from a
``SIGALRM`` handler every ``PERIOD_S`` seconds, so the speed is sampled all
through the pass rather than only before and after it; the handler's own
time is subtracted from the pass.  Set-up is too short to sample, so it is
rescaled by a burst of probes run right after it.

``REFERENCE_PROBE_S`` is the median probe time on the host of the baseline
in README.md, so reported times are close to that host's wall times.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

#: median duration of ``probe()`` on the baseline host (README.md)
REFERENCE_PROBE_S = 0.0030
#: seconds between two probes during a pass
PERIOD_S = 0.1
#: probes in the burst that rescales set-up
BURST = 15


def probe() -> Fraction:
    """A fixed amount of pure-Python work, about 3 ms on the baseline host."""
    table: dict[tuple[int, int], int] = {}
    total = Fraction(0)
    for i in range(1, 600):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i * i % 7
        total += Fraction(i % 13, i % 11 + 1)
    return total


def timed_probe() -> float:
    """Duration of one probe, with the collector held off so that a
    collection of the pass's own heap is not counted as host slowness."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        probe()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def burst(count: int = BURST) -> float:
    """Median probe time over ``count`` probes run back to back."""
    return statistics.median(timed_probe() for _ in range(count))


class Sampler:
    """Runs ``probe()`` every ``PERIOD_S`` seconds of wall time while active."""

    def __init__(self) -> None:
        self.durations: list[float] = []

    def _handler(self, signum, frame) -> None:
        self.durations.append(timed_probe())

    def __enter__(self) -> Sampler:
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)


def rescale(measured_s: float, probe_s: float, probing_s: float = 0.0) -> float:
    """``measured_s`` less ``probing_s``, at the reference host speed."""
    return (measured_s - probing_s) * REFERENCE_PROBE_S / probe_s
