"""How fast the host runs Python right now, to take host drift out of
reported times.

The benchmark shares its machine with other tenants. On a 2-vCPU VM the
same pure-Python work took from 1.0x to 1.6x its fastest time, in
stretches from seconds to minutes, on both vCPUs at once. That drift is
larger than the changes the benchmark must resolve, so a run times a fixed
integer loop, which no change to the program can touch, between
operations. The median loop time over a phase of the run, divided by
:data:`REFERENCE_S`, is that phase's host factor; every end-to-end time
the phase measured is divided by it (and every rate multiplied), which
reports it as if measured on a host that runs the loop in
:data:`REFERENCE_S`. Per-layer metrics are reported as measured, with the
timed phases' factor beside them as ``host.factor``.
"""

from __future__ import annotations

import statistics
import time

#: Loop time of the reference host (the 2.1 GHz Xeon VM the bounds in
#: BENCHMARK.json were set on, at its fastest).
REFERENCE_S = 0.0060
#: Seconds between samples.
EVERY_S = 0.4
_ITERATIONS = 100_000

#: Units whose values are durations (divided by the factor) and rates
#: (multiplied by it); every other unit is a count or a ratio.
DURATION_UNITS = frozenset({"s", "ms", "us", "ms/Mcycle"})
RATE_UNITS = frozenset({"pairs/s"})


def _loop() -> int:
    total = 0
    for i in range(_ITERATIONS):
        total += i * i
    return total


class HostSpeed:
    """Samples the loop's duration during a run, by phase of the run.

    Each time is scaled by the host speed over the phase that measured
    it: ``timed`` (the timed phases, sampled every :data:`EVERY_S`
    seconds), ``tail`` (the untimed epilogue and restarts, sampled before
    every operation: its metrics rest on a few seconds) and ``setup``.
    """

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {}
        #: Seconds spent in the loop, to be left out of timed phases.
        self.spent = 0.0
        self._due = 0.0

    def sample(self, phase: str) -> None:
        started = time.perf_counter()
        _loop()
        ended = time.perf_counter()
        self.samples.setdefault(phase, []).append(ended - started)
        self.spent += ended - started
        self._due = ended + EVERY_S

    def maybe_sample(self, phase: str) -> None:
        """Sample when due, and always on a phase's first call, so even a
        short phase has a factor."""
        if phase not in self.samples or time.perf_counter() >= self._due:
            self.sample(phase)

    def factor(self, phase: str) -> float:
        return statistics.median(self.samples[phase]) / REFERENCE_S


def at_reference_speed(
    metrics: dict[str, float], units: dict[str, str], factors: dict[str, float]
) -> dict[str, float]:
    """``metrics`` as if measured on the reference host; ``factors``
    holds the host factor of each duration or rate."""
    scaled = {}
    for name, value in metrics.items():
        if units[name] in DURATION_UNITS:
            value = value / factors[name]
        elif units[name] in RATE_UNITS:
            value = value * factors[name]
        scaled[name] = value
    return scaled
