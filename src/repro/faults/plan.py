"""Deterministic, seedable fault plans for the audit pipeline.

A :class:`FaultPlan` is a schedule of :class:`FaultEvent`\\ s, each bound
to a named *hook point* (``site``) and a 1-based visit number (``at``):
the fault fires the ``at``-th time execution reaches that site while a
:class:`FaultInjector` is active. Sites are threaded through the stack:

========================  ====================================================
site                      instrumented code
========================  ====================================================
``storage.save``          :meth:`repro.audit.persistence.LogStorage.save`
``storage.load``          :meth:`repro.audit.persistence.LogStorage.load`
``sealed.load``           :meth:`repro.audit.sealed_storage.SealedLogStorage.load`
``rote.op``               start of each ROTE increment/retrieve operation
``rote.round``            each quorum round (incl. retries) of a ROTE op
``enclave.ecall``         :meth:`repro.sgx.interface.EnclaveInterface.ecall`
``logger.pair``           request/response pairing in ``AuditLogger``
``libseal.pair``          the per-pair pipeline in :class:`repro.core.LibSeal`
``audit.seal``            the seal-epoch protocol in ``AuditLog.seal_epoch``
``conn.feed``             byte ingress in :class:`repro.servers.connection.ServerConnection`
========================  ====================================================

Everything is deterministic: the same plan against the same workload
fires the same faults with the same byte-level effects (corruption bytes
come from the plan's seeded RNG, never from global randomness), so every
chaos-suite failure is reproducible from its seed alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping


class InjectedCrash(BaseException):
    """A simulated process/enclave crash at a fault hook point.

    Deliberately *not* a :class:`~repro.errors.ReproError` (nor even an
    ``Exception``): a real crash cannot be caught by library error
    handling, so no ``except Exception`` path in the stack may swallow
    it. Chaos harnesses catch it explicitly and move to recovery.
    """

    def __init__(self, site: str, kind: str):
        super().__init__(f"injected crash at {site} ({kind})")
        self.site = site
        self.kind = kind


# Fault kinds, grouped by the behaviour the chaos invariant expects.
#: Simulated process/enclave death: recovery must succeed with zero loss
#: of acknowledged log entries.
CRASH_KINDS = frozenset(
    {
        "torn_write",  # partial .tmp written, then crash (before replace)
        "crash_before_replace",  # full .tmp durable, crash before rename
        "crash_after_replace",  # crash after rename, before returning
        "corrupt_then_crash",  # storage corrupts blob in flight, then crash
        "abort",  # enclave dies mid-ecall
        "crash_before_pair",  # logger crash before dispatching the pair
        "crash_after_pair",  # logger crash after dispatching the pair
        "crash_before_log",  # libseal crash before the SSM runs
        "crash_after_log",  # libseal crash after append, before sealing
        "crash_before_intent",  # seal protocol crash points
        "crash_after_intent",
        "crash_after_increment",
        "crash_after_save",
    }
)

#: Adversarial storage served at recovery: must be *detected*.
INTEGRITY_KINDS = frozenset({"stale_read", "corrupt_read", "seal_corrupt"})

#: Transient unavailability: operations must succeed via retry/backoff or
#: degrade explicitly — never be misreported as integrity violations.
AVAILABILITY_KINDS = frozenset(
    {"timeout", "delay", "partition", "node_crash", "node_recover", "io_error"}
)

#: Hostile-network byte mangling at the front door (site ``conn.feed``):
#: the front end must surface a typed error and tear down
#: only the affected connection — never crash, hang, or taint the log.
NETWORK_KINDS = frozenset(
    {"mutate_bytes", "truncate_bytes", "drop_bytes", "replay_bytes"}
)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: fire ``kind`` on visit ``at`` to ``site``."""

    site: str
    kind: str
    at: int = 1
    params: Mapping[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        extra = f" {dict(self.params)}" if self.params else ""
        return f"{self.site}#{self.at}:{self.kind}{extra}"


@dataclass(frozen=True)
class FiredFault:
    """The injector's record of a fault that actually fired."""

    event: FaultEvent
    visit: int
    #: What materialised at the site: "crash", "corrupted", "stale",
    #: "timeout", ... or "noop" when the fault had nothing to bite on
    #: (e.g. a stale read with no earlier snapshot to serve).
    effect: str = "fired"

    def describe(self) -> str:
        return f"{self.event.describe()} -> {self.effect}"


class FaultPlan:
    """An immutable schedule of fault events plus the seed that made it."""

    def __init__(
        self,
        events: Iterable[FaultEvent],
        seed: int = 0,
        scenario: str = "explicit",
    ):
        self.events: tuple[FaultEvent, ...] = tuple(events)
        self.seed = seed
        self.scenario = scenario

    def __repr__(self) -> str:
        inner = ", ".join(e.describe() for e in self.events)
        return f"<FaultPlan seed={self.seed} {self.scenario}: [{inner}]>"

    # ------------------------------------------------------------------
    # Seeded random plan generation (the chaos suite's source of plans)
    # ------------------------------------------------------------------

    #: Scenario mix for :meth:`random`. Weights chosen so every class is
    #: well represented across a couple hundred seeds.
    SCENARIOS = (
        ("availability", 5),  # transient ROTE faults only
        ("crash", 8),  # process/enclave dies mid-run
        ("integrity-stale", 4),  # rollback served at recovery
        ("integrity-corrupt", 4),  # tampered snapshot served at recovery
        ("seal-corrupt", 3),  # sealed blob tampered at rest
        ("quorum-down", 3),  # f+1 counter nodes crash -> degraded mode
    )

    @classmethod
    def random(
        cls,
        seed: int,
        max_pairs: int = 10,
        rote_f: int = 1,
        sealed: bool = False,
    ) -> "FaultPlan":
        """Generate a deterministic plan for a run of ``max_pairs`` pairs.

        Exactly one *terminal* fault (crash / adversarial read / quorum
        loss) per plan, plus up to two transient availability faults, so
        the expected recovery outcome is always well defined.
        """
        rng = random.Random(f"faultplan-{seed}")
        scenarios = [s for s, w in cls.SCENARIOS for _ in range(w)]
        scenario = rng.choice(scenarios)
        if scenario == "seal-corrupt" and not sealed:
            scenario = "integrity-corrupt"
        events: list[FaultEvent] = []
        n = 3 * rote_f + 1

        # Transient availability noise rides along with every scenario.
        for _ in range(rng.randint(0, 2)):
            kind = rng.choice(["timeout", "delay", "partition"])
            at = rng.randint(1, max(1, max_pairs))
            if kind == "timeout":
                params = {"node": rng.randrange(n), "rounds": rng.randint(1, 2)}
            elif kind == "delay":
                params = {"ms": round(rng.uniform(0.5, 8.0), 3)}
            else:
                nodes = rng.sample(range(n), k=min(rote_f, n))
                params = {"nodes": tuple(nodes), "rounds": rng.randint(1, 2)}
            events.append(FaultEvent("rote.op", kind, at=at, params=params))

        if scenario == "availability":
            # Also crash (and later recover) up to f nodes permanently.
            for node in rng.sample(range(n), k=rng.randint(0, rote_f)):
                events.append(
                    FaultEvent(
                        "rote.op",
                        "node_crash",
                        at=rng.randint(1, max(1, max_pairs // 2)),
                        params={"node": node},
                    )
                )
        elif scenario == "crash":
            crash_sites = [
                ("storage.save", ["torn_write", "crash_before_replace",
                                  "crash_after_replace", "corrupt_then_crash"]),
                ("logger.pair", ["crash_before_pair", "crash_after_pair"]),
                ("libseal.pair", ["crash_before_log", "crash_after_log"]),
                ("audit.seal", ["crash_before_intent", "crash_after_intent",
                                "crash_after_increment", "crash_after_save"]),
            ]
            if sealed:
                # Sealing routes every snapshot through an ecall, so the
                # mid-ecall abort site is only reachable in sealed runs.
                crash_sites.append(("enclave.ecall", ["abort"]))
            site, kinds = rng.choice(crash_sites)
            events.append(
                FaultEvent(site, rng.choice(kinds), at=rng.randint(2, max_pairs))
            )
        elif scenario == "integrity-stale":
            events.append(FaultEvent("storage.load", "stale_read", at=1,
                                     params={"back": rng.randint(1, 3)}))
        elif scenario == "integrity-corrupt":
            events.append(FaultEvent("storage.load", "corrupt_read", at=1))
        elif scenario == "seal-corrupt":
            events.append(FaultEvent("sealed.load", "seal_corrupt", at=1))
        elif scenario == "quorum-down":
            at = rng.randint(2, max(2, max_pairs - 2))
            for node in rng.sample(range(n), k=rote_f + 1):
                events.append(
                    FaultEvent("rote.op", "node_crash", at=at,
                               params={"node": node})
                )
        return cls(events, seed=seed, scenario=scenario)


class FaultInjector:
    """Executes a :class:`FaultPlan`: counts site visits, fires events.

    One injector = one activation (one simulated run). It also keeps the
    deterministic corruption RNG and a bounded history of saved snapshots
    so ``stale_read`` faults can serve a genuinely earlier blob.
    """

    HISTORY_LIMIT = 8

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.rng = random.Random(f"faultinjector-{plan.seed}")
        self.visits: dict[str, int] = {}
        self.fired: list[FiredFault] = []
        self._pending: dict[tuple[str, int], list[FaultEvent]] = {}
        for event in plan.events:
            self._pending.setdefault((event.site, event.at), []).append(event)
        self._history: dict[str, list[bytes]] = {}

    # ------------------------------------------------------------------
    # Hook-point API (called by instrumented sites)
    # ------------------------------------------------------------------

    def fire(self, site: str) -> tuple[FaultEvent, ...]:
        """Record a visit to ``site``; return the events due this visit."""
        visit = self.visits.get(site, 0) + 1
        self.visits[site] = visit
        due = self._pending.pop((site, visit), None)
        if not due:
            return ()
        for event in due:
            self.fired.append(FiredFault(event, visit))
        return tuple(due)

    def note_effect(self, event: FaultEvent, effect: str) -> None:
        """Refine the record of what actually materialised at the site."""
        for index in range(len(self.fired) - 1, -1, -1):
            if self.fired[index].event is event:
                self.fired[index] = FiredFault(
                    event, self.fired[index].visit, effect
                )
                return

    def crash(self, event: FaultEvent) -> "InjectedCrash":
        """Build the crash exception for ``event`` (caller raises it)."""
        self.note_effect(event, "crash")
        return InjectedCrash(event.site, event.kind)

    # ------------------------------------------------------------------
    # Deterministic corruption / stale-snapshot material
    # ------------------------------------------------------------------

    def corrupt(self, blob: bytes) -> bytes:
        """Flip a few deterministic bytes of ``blob``."""
        if not blob:
            return b"\x00"
        mutated = bytearray(blob)
        for _ in range(min(3, len(mutated))):
            index = self.rng.randrange(len(mutated))
            mutated[index] ^= self.rng.randint(1, 255)
        return bytes(mutated)

    def truncate(self, blob: bytes) -> bytes:
        """A deterministic strict prefix of ``blob`` (torn write)."""
        if len(blob) < 2:
            return b""
        return blob[: self.rng.randrange(1, len(blob))]

    def record_save(self, key: str, blob: bytes) -> None:
        history = self._history.setdefault(key, [])
        history.append(blob)
        del history[: -self.HISTORY_LIMIT]

    def stale_blob(self, key: str, back: int = 1) -> bytes | None:
        """An earlier snapshot for ``key``: ``back`` saves before the last."""
        history = self._history.get(key, [])
        if len(history) <= back:
            return None
        return history[-1 - back]

    # ------------------------------------------------------------------
    # Introspection for harnesses
    # ------------------------------------------------------------------

    @property
    def unfired(self) -> tuple[FaultEvent, ...]:
        """Scheduled events whose visit was never reached."""
        return tuple(e for events in self._pending.values() for e in events)

    def fired_kinds(self) -> set[str]:
        return {f.event.kind for f in self.fired if f.effect != "noop"}

    def describe(self) -> str:
        lines = [repr(self.plan)]
        lines += [f"  fired: {f.describe()}" for f in self.fired]
        lines += [f"  unfired: {e.describe()}" for e in self.unfired]
        return "\n".join(lines)
