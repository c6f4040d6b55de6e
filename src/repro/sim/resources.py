"""Simulation resources: CPU cores, FIFO devices, semaphores.

All resources are cooperative: processes ``yield from`` their methods.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.sim.engine import Simulator, Waiter

# Work is executed in bounded quanta so that long jobs do not monopolise a
# core for unbounded simulated time (coarse-grained processor sharing).
DEFAULT_QUANTUM_CYCLES = 1_000_000


class CorePool:
    """``num_cores`` CPU cores shared by every thread on the machine.

    Oversubscription penalty: while other work is queued for a core, each
    executed quantum pays ``switch_penalty_cycles`` extra — the cache/TLB
    and scheduling cost that makes 4 SGX threads on a 4-core machine
    *slower* than 3 (Table 3).
    """

    def __init__(
        self,
        sim: Simulator,
        num_cores: int,
        freq_hz: float,
        switch_penalty_cycles: int = 35_000,
        quantum_cycles: int = DEFAULT_QUANTUM_CYCLES,
    ):
        self.sim = sim
        self.num_cores = num_cores
        self.freq_hz = freq_hz
        self.switch_penalty_cycles = switch_penalty_cycles
        self.quantum_cycles = quantum_cycles
        self._idle_cores = num_cores
        self._queue: Deque[Waiter] = deque()
        self.busy_core_seconds = 0.0
        self._started = sim.now

    # -- internal core acquire/release ----------------------------------

    def _acquire(self):
        if self._idle_cores > 0:
            self._idle_cores -= 1
            return
        waiter = self.sim.waiter()
        self._queue.append(waiter)
        yield waiter

    def _release(self) -> None:
        if self._queue:
            self._queue.popleft().wake()
        else:
            self._idle_cores += 1

    # -- public API ------------------------------------------------------

    def execute(self, cycles: float):
        """Run ``cycles`` of work, in quanta, competing for cores."""
        remaining = float(cycles)
        while remaining > 0:
            yield from self._acquire()
            quantum = min(remaining, self.quantum_cycles)
            contended = bool(self._queue)
            effective = quantum + (self.switch_penalty_cycles if contended else 0)
            duration = effective / self.freq_hz
            self.busy_core_seconds += duration
            yield duration
            remaining -= quantum
            self._release()

    def utilisation(self, elapsed: float) -> float:
        """Average busy fraction over ``elapsed`` seconds (1.0 = one core)."""
        if elapsed <= 0:
            return 0.0
        return self.busy_core_seconds / elapsed

    def reset_accounting(self) -> None:
        self.busy_core_seconds = 0.0


class FifoDevice:
    """A single-server FIFO device: disk, NIC link, backend worker.

    ``use(service_time)`` queues the caller and holds the device for the
    given time. For links, service time = bytes * 8 / bandwidth; the
    propagation latency is added after release (pipelined)."""

    def __init__(self, sim: Simulator, name: str = "dev"):
        self.sim = sim
        self.name = name
        self._busy = False
        self._queue: Deque[Waiter] = deque()
        self.jobs_served = 0
        self.busy_seconds = 0.0

    def use(self, service_time: float, post_latency: float = 0.0):
        if self._busy:
            waiter = self.sim.waiter()
            self._queue.append(waiter)
            yield waiter
        self._busy = True
        self.busy_seconds += service_time
        yield service_time
        self.jobs_served += 1
        if self._queue:
            self._queue.popleft().wake()
        else:
            self._busy = False
        if post_latency > 0:
            yield post_latency


class Semaphore:
    """Counting semaphore (worker threads, SGX threads, lthread tasks)."""

    def __init__(self, sim: Simulator, capacity: int, name: str = "sem"):
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._available = capacity
        self._queue: Deque[Waiter] = deque()
        self.wait_events = 0

    def acquire(self):
        if self._available > 0:
            self._available -= 1
            return
        self.wait_events += 1
        waiter = self.sim.waiter()
        self._queue.append(waiter)
        yield waiter

    def release(self) -> None:
        if self._queue:
            self._queue.popleft().wake()
        else:
            self._available += 1

    @property
    def in_use(self) -> int:
        return self.capacity - self._available


class Link:
    """A network link: shared bandwidth (FIFO) plus propagation latency."""

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: float,
        latency_s: float,
        efficiency: float = 1.0,
        name: str = "link",
    ):
        self.device = FifoDevice(sim, name)
        self.bandwidth_bps = bandwidth_bps * efficiency
        self.latency_s = latency_s

    def transfer(self, num_bytes: int):
        service = num_bytes * 8 / self.bandwidth_bps
        yield from self.device.use(service, post_latency=self.latency_s)
