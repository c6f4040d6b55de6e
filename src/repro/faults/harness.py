"""The skeleton every chaos harness shares.

:class:`ScenarioHarness` runs one seeded scenario: it dispatches each
action tuple ``(name, *args)`` to the harness's ``do_<name>`` method,
runs the per-action oracle ``_check_step`` after every step, injects
the scenario's fault plan around the whole script, and folds the event
trace into the SHA-256 digest that must be identical across runs of one
seed. A harness supplies its world, its actions, ``_check_step``,
``_final_check`` and its verdict fields (``stale_probes``,
``_head_counter()``, ``network``).
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import dataclass

from repro.crypto.hashing import sha256_hex
from repro.errors import SimulationError
from repro.faults import hooks as _faults
from repro.faults.plan import FaultPlan


@dataclass
class ChaosScenario:
    """One seeded scenario: a family, its script, and its knobs."""

    family: str
    seed: int
    f: int = 1
    actions: tuple = ()
    plan: FaultPlan | None = None

    @property
    def name(self) -> str:
        return f"{self.family}/seed-{self.seed}"


@dataclass
class ScenarioVerdict:
    """The oracle's judgement of one scenario run."""

    family: str
    seed: int
    ok: bool
    violations: list[str]
    pairs_ok: int
    pairs_blocked: int
    stale_probes: int
    recovered_in: int | None
    head_counter: int
    trace_digest: str
    network: dict[str, int]

    def as_dict(self) -> dict:
        return {
            "scenario": f"{self.family}/seed-{self.seed}",
            "family": self.family,
            "seed": self.seed,
            "ok": self.ok,
            "violations": list(self.violations),
            "pairs_ok": self.pairs_ok,
            "pairs_blocked": self.pairs_blocked,
            "stale_probes": self.stale_probes,
            "recovered_in": self.recovered_in,
            "head_counter": self.head_counter,
            "trace_digest": self.trace_digest,
            "network": dict(self.network),
        }


class ScenarioHarness:
    """Runs one scenario and judges it after every step."""

    def __init__(self, scenario: ChaosScenario):
        self.scenario = scenario
        self.trace: list[tuple] = []
        self.violations: list[str] = []
        self.pairs_ok = 0
        self.pairs_blocked = 0
        self.recovered_in: int | None = None

    def _note(self, *event) -> None:
        self.trace.append(tuple(event))

    def _violate(self, message: str) -> None:
        self.violations.append(message)
        self._note("VIOLATION", message)

    def _apply(self, action: tuple) -> None:
        kind, *args = action
        handler = getattr(self, f"do_{kind}", None)
        if handler is None:
            raise SimulationError(f"unknown chaos action {kind!r}")
        handler(*args)
        self._check_step(kind)

    def run(self) -> ScenarioVerdict:
        plan = self.scenario.plan
        with nullcontext() if plan is None else _faults.inject(plan) as injector:
            for action in self.scenario.actions:
                self._apply(action)
            # Which planned faults fired is part of the trace.
            for fired in injector.fired if injector is not None else ():
                self._note("plan_fired", fired.event.describe())
        self._final_check()
        return ScenarioVerdict(
            family=self.scenario.family,
            seed=self.scenario.seed,
            ok=not self.violations,
            violations=list(self.violations),
            pairs_ok=self.pairs_ok,
            pairs_blocked=self.pairs_blocked,
            stale_probes=self.stale_probes,
            recovered_in=self.recovered_in,
            head_counter=self._head_counter(),
            trace_digest=sha256_hex(
                json.dumps(self.trace, sort_keys=True, default=str).encode()
            ),
            network=self.network.stats.as_dict(),
        )
