"""The process-wide fault-injection switch.

Instrumented sites call :func:`check` on every visit. With no injector
active (the default, and the only state production code ever sees) the
call is a single ``None`` test returning an empty tuple — no counters,
no allocation, no behaviour change — so fault injection adds zero
overhead to benchmarks unless a chaos harness explicitly activates a
plan via :func:`inject`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.errors import SimulationError
from repro.faults.plan import FaultEvent, FaultInjector, FaultPlan

_ACTIVE: FaultInjector | None = None


def active() -> FaultInjector | None:
    """The currently-active injector, or None."""
    return _ACTIVE


def check(site: str) -> tuple[FaultEvent, ...]:
    """Visit ``site``: the events due now, or ``()`` when inactive."""
    injector = _ACTIVE
    if injector is None:
        return ()
    return injector.fire(site)


def crash_point(site: str) -> None:
    """A step boundary of a write-ahead procedure: raise the injected
    crash for any ``crash``/``abort`` event due at ``site``."""
    for event in check(site):
        if event.kind in ("crash", "abort"):
            raise _ACTIVE.crash(event)


def record_save(key: str, blob: bytes) -> None:
    """Let the injector snapshot a saved blob (for stale-read faults)."""
    injector = _ACTIVE
    if injector is not None:
        injector.record_save(key, blob)


@contextmanager
def inject(plan: FaultPlan | FaultInjector) -> Iterator[FaultInjector]:
    """Activate a fault plan for the duration of the ``with`` block.

    Plans are per-run: activating while another injector is active is a
    harness bug and raises :class:`~repro.errors.SimulationError`.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise SimulationError("fault injection is already active")
    injector = plan if isinstance(plan, FaultInjector) else FaultInjector(plan)
    _ACTIVE = injector
    try:
        yield injector
    finally:
        _ACTIVE = None
