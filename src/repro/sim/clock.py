"""One simulated time source for the whole front end.

Historically the front end (:mod:`repro.servers.connection`) kept a
private ``SimClock`` while the performance simulator ran its own
:class:`~repro.sim.engine.Simulator` clock — two drifting notions of
"now", so scheduler steps, connection deadlines and fault plans could
disagree about the order of events. This module is the single home for
simulated time:

- :class:`SimClock` — the manual monotonic clock the event loop and the
  fuzzing harness drive explicitly (moved here from
  ``servers/connection.py``; re-exported there for compatibility);
- :class:`SimulatorClock` — the same interface *backed by* a
  :class:`~repro.sim.engine.Simulator`: ``now()`` reads the event
  heap's clock, ``advance()`` runs the simulation forward, so deadline
  enforcement and discrete-event progress can never diverge.

Every consumer takes "a clock" (``now()`` / ``advance(dt)``); which
concrete source backs it is a deployment decision.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine is light)
    from repro.sim.engine import Simulator


class SimClock:
    """Manual monotonic clock: deterministic deadlines for fuzzing/tests."""

    def __init__(self) -> None:
        self._now = 0.0

    def now(self) -> float:
        return self._now

    def advance(self, dt: float) -> None:
        if dt < 0:
            raise ValueError("clock cannot go backwards")
        self._now += dt


class SimulatorClock(SimClock):
    """A :class:`SimClock` view over a discrete-event :class:`Simulator`.

    ``now()`` is the simulator's clock; ``advance(dt)`` *runs the
    simulation* up to ``now + dt`` so sleeping processes, deadline
    ticks and fault plans all observe one totally-ordered timeline.
    """

    def __init__(self, sim: "Simulator") -> None:
        super().__init__()
        self.sim = sim

    def now(self) -> float:
        return self.sim.now

    def advance(self, dt: float) -> None:
        if dt < 0:
            raise ValueError("clock cannot go backwards")
        self.sim.run_until(self.sim.now + dt)
