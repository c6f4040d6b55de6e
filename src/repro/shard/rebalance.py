"""Crash-safe rebalancing: WAL-replayed membership change, fail-closed.

A membership change (split = shard joins, merge = shard leaves) moves
owned log ranges between enclaves while the plane keeps serving. Like
key rotation (:mod:`repro.audit.rotation`), it is a distributed,
multi-step state change that a crash must never leave half-applied —
so it runs on the same :class:`~repro.audit.wal.WriteAheadCoordinator`:
a signed write-ahead
:class:`~repro.audit.hashchain.MembershipIntent` persisted *before*
anything moves, idempotent steps, and a ``shard.step`` fault site
between every pair of steps (:data:`SHARD_CHECKPOINTS` of them) for the
chaos suite to crash at.

The step sequence:

1. durably record the signed membership intent (the WAL entry);
2. append the audited ``begin`` record to the control log and seal it —
   the change is now tamper-evident history;
3. provision the joining shard (split) through mutual RA-TLS admission;
4. transfer every moving range, **fail-closed**: the source must prove
   freshness first (live quorum counter read matching its signed head),
   and the target acks each transfer only after verifying the signed
   range manifest, the recomputed splice chain head, per-tuple range
   containment and the epoch's liveness. Any shortfall raises
   :class:`~repro.errors.FreshnessUnverifiableError` (or
   :class:`~repro.errors.IntegrityError`) and leaves the WAL in place —
   the change neither completes nor silently accepts;
5. cut over: apply the ring change, bump the generation, append the
   audited ``cutover`` record, push the new ownership view, unfreeze;
6. retire moved ranges from their old owners (split) or decommission
   the drained shard (merge), then clear the WAL.

While the WAL is outstanding, writes to moving ranges are *frozen*
(:class:`~repro.errors.RangeUnavailableError` from the plane) — the
window that makes "zero lost or duplicated pairs across a crash at any
checkpoint" a theorem instead of a race. :meth:`resume` replays the
surviving intent through the same guarded steps; the target's audited
``range_import`` marker turns re-sent transfers into acknowledged
duplicates, so replay converges on exactly one owner per range.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.audit.hashchain import MembershipIntent
from repro.errors import (
    AvailabilityError,
    FreshnessUnverifiableError,
    IntegrityError,
    SimulationError,
)
from repro.audit.wal import WriteAheadCoordinator
from repro.obs import hooks as _obs
from repro.shard.instance import RangeExportCommand, ShardInstance
from repro.shard.router import HashRange

#: The fault site the chaos suite injects crashes at.
FAULT_SITE = "shard.step"


@dataclass
class RebalanceReport:
    """What one membership change (or WAL replay) did."""

    change_id: str
    kind: str
    shard: str
    generation_from: int
    generation_to: int
    epoch: int
    resumed: bool = False
    #: ``(source, target, tuples)`` per verified transfer this pass.
    transfers: list[tuple[str, str, int]] = field(default_factory=list)
    #: Tuples trimmed from old owners after cutover (split only).
    retired_tuples: int = 0
    completed: bool = False

    def describe(self) -> str:
        bits = [
            f"{self.kind} {self.shard}",
            f"gen {self.generation_from}->{self.generation_to}",
            f"transfers={len(self.transfers)}",
        ]
        if self.resumed:
            bits.append("resumed")
        return " ".join(bits)


class Rebalancer(WriteAheadCoordinator):
    """Drives WAL-checkpointed membership changes for one plane."""

    INTENT = MembershipIntent
    FAULT_SITE = FAULT_SITE
    SPAN = "shard.rebalance"

    def __init__(self, plane) -> None:
        self.plane = plane
        self.failclosed_aborts = 0
        #: Ranges whose writes are blocked while a change is in flight.
        self.frozen: tuple[HashRange, ...] = ()

    @property
    def storage(self):
        return self.plane.control_storage

    @property
    def signing_key(self):
        return self.plane.signing_key

    @property
    def owner(self) -> str:
        return self.plane.plane_id

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def split(self, shard: str) -> RebalanceReport:
        """Admit ``shard`` and move its share of the ring onto it."""
        return self._begin("split", shard)

    def merge(self, shard: str) -> RebalanceReport:
        """Drain ``shard`` onto the survivors and decommission it."""
        return self._begin("merge", shard)

    def _begin(self, kind: str, shard: str) -> RebalanceReport:
        plane = self.plane
        if self.pending():
            raise SimulationError(
                "a membership change is already in flight; resume it first"
            )
        members = plane.router.members
        if kind == "split" and shard in members:
            raise SimulationError(f"shard {shard} is already a member")
        if kind == "merge":
            if shard not in members:
                raise SimulationError(f"shard {shard} is not a member")
            if len(members) == 1:
                raise SimulationError("cannot merge away the last shard")
        return self._start(
            plane_id=plane.plane_id,
            change_id=f"{kind}-{shard}-g{plane.router.generation + 1}",
            kind=kind,
            shard=shard,
            generation_from=plane.router.generation,
            generation_to=plane.router.generation + 1,
            epoch=plane.authority.current_epoch,
        )

    # ------------------------------------------------------------------
    # The idempotent step sequence (step 1 is the WAL write)
    # ------------------------------------------------------------------

    def _on_intent(self, intent: MembershipIntent) -> None:
        # Writes to the moving ranges freeze from the WAL write on.
        self.frozen = tuple(rng for rng, _, _ in self._ring_plan(intent))

    def _clear_wal(self) -> None:
        super()._clear_wal()
        self.frozen = ()

    def _ring_plan(self, intent: MembershipIntent) -> list:
        """The ``(range, source, target)`` moves still ahead of cutover."""
        router = self.plane.router
        if router.generation >= intent.generation_to:
            return []  # cutover already applied: nothing moves or freezes
        if intent.kind == "split":
            return router.plan_add(intent.shard)
        return router.plan_remove(intent.shard)

    def _report(self, intent: MembershipIntent, resumed: bool) -> RebalanceReport:
        return RebalanceReport(
            change_id=intent.change_id,
            kind=intent.kind,
            shard=intent.shard,
            generation_from=intent.generation_from,
            generation_to=intent.generation_to,
            epoch=intent.epoch,
            resumed=resumed,
        )

    def _observe(self, report: RebalanceReport, obs_span) -> None:
        _obs.active().metrics.counter(
            "shard_rebalances_total",
            "Membership-change passes",
            kind=report.kind,
            resumed=str(report.resumed).lower(),
        ).inc()
        if obs_span is not None:
            obs_span.set_attr("change_id", report.change_id)
            obs_span.set_attr("transfers", len(report.transfers))

    def _record_begin(self, intent, report) -> None:
        """Step 2: the change enters the audited membership history."""
        if self.plane.membership.record(intent, "begin"):
            self.plane.seal_control()

    def _provision(self, intent, report) -> None:
        """Step 3: a joining shard exists (mutually admitted) before any
        range can move onto it."""
        if intent.kind == "split":
            self.plane.provisioner.provision(intent.shard)

    # ------------------------------------------------------------------
    # Step 4: verified range transfers
    # ------------------------------------------------------------------

    def _transfer_all(self, intent: MembershipIntent, report) -> None:
        """Step 4: move every range, fail-closed. Any unprovable
        freshness or integrity shortfall aborts *here*, with the WAL
        still in place and the ranges still frozen."""
        grouped: dict[tuple[str, str], list[HashRange]] = {}
        for rng, source, target in self._ring_plan(intent):
            grouped.setdefault((source, target), []).append(rng)
        try:
            for (source_id, target_id), ranges in sorted(grouped.items()):
                tuples = self._transfer(
                    intent, source_id, target_id, tuple(ranges)
                )
                report.transfers.append((source_id, target_id, tuples))
        except (FreshnessUnverifiableError, IntegrityError):
            self.failclosed_aborts += 1
            raise

    def _prove_source_fresh(self, source: ShardInstance) -> None:
        """The source's chain tail must be *provably* fresh before one
        tuple moves: sealed under its counter, with a live quorum read
        agreeing with the signed head. Anything less fails closed."""
        libseal = source.libseal
        if libseal.degraded.active and not libseal.try_reseal():
            raise FreshnessUnverifiableError(
                f"source {source.shard_id} is audit-degraded "
                f"({libseal.degraded.reason}); range freshness unprovable"
            )
        if not libseal._try_seal():
            raise FreshnessUnverifiableError(
                f"source {source.shard_id} cannot seal its tail; "
                "range freshness unprovable"
            )
        head = libseal.audit_log.signed_head
        if head is None:
            raise FreshnessUnverifiableError(
                f"source {source.shard_id} has no signed head"
            )
        try:
            live = source.cluster.retrieve(source.config.log_id)
        except AvailabilityError as exc:
            raise FreshnessUnverifiableError(
                f"source {source.shard_id} counter quorum unavailable: {exc}"
            ) from exc
        if live != head.counter_value:
            raise FreshnessUnverifiableError(
                f"source {source.shard_id} signed head counter "
                f"{head.counter_value} does not match quorum value {live}"
            )

    def _transfer(
        self,
        intent: MembershipIntent,
        source_id: str,
        target_id: str,
        ranges: tuple[HashRange, ...],
    ) -> int:
        plane = self.plane
        source = plane.instances.get(source_id)
        target = plane.instances.get(target_id)
        if source is None or target is None:
            missing = source_id if source is None else target_id
            raise FreshnessUnverifiableError(
                f"shard {missing} is not provisioned; cannot move ranges"
            )
        self._prove_source_fresh(source)
        plane.network.send(
            plane.address,
            source.address,
            RangeExportCommand(
                change_id=intent.change_id,
                ranges=ranges,
                target_shard=target_id,
                target_address=target.address,
                reply_to=plane.address,
            ),
        )
        plane.network.settle()
        ack = plane.take_ack(intent.change_id, source_id, target_id)
        if ack is None:
            raise FreshnessUnverifiableError(
                f"no import ack from {target_id} for {intent.change_id}; "
                "transfer outcome unprovable"
            )
        if ack.status == "integrity":
            raise IntegrityError(
                f"transfer {source_id}->{target_id} rejected: {ack.reason}"
            )
        if ack.status == "freshness-unverifiable":
            raise FreshnessUnverifiableError(
                f"transfer {source_id}->{target_id}: {ack.reason}"
            )
        # "ok" (applied now) or "duplicate" (landed before the crash).
        return ack.tuples

    # ------------------------------------------------------------------
    # Steps 5-6: cutover and retirement
    # ------------------------------------------------------------------

    def _cutover(self, intent, report) -> None:
        """Step 5: ownership flips atomically in the ring."""
        plane = self.plane
        if plane.router.generation < intent.generation_to:
            if intent.kind == "split":
                plane.router.apply_add(intent.shard)
            else:
                plane.router.apply_remove(intent.shard)
        if plane.membership.record(intent, "cutover"):
            plane.seal_control()
        self.frozen = ()
        plane.push_ownership()

    def _retire(self, intent: MembershipIntent, report) -> None:
        """Step 6: old owners drop what moved away; a drained shard
        leaves the plane. Both are idempotent under replay."""
        plane = self.plane
        if intent.kind == "merge":
            plane.provisioner.decommission(intent.shard)
            return
        moved = tuple(plane.router.ranges_of(intent.shard))
        for shard_id, instance in plane.instances.items():
            if shard_id != intent.shard:
                report.retired_tuples += instance.retire_ranges(moved)

    STEPS = (_record_begin, _provision, _transfer_all, _cutover, _retire)


#: ``shard.step`` fault-site checks per change: one after the WAL write,
#: one after each of steps 2-6.
SHARD_CHECKPOINTS = 1 + len(Rebalancer.STEPS)
