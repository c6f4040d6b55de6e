"""Crash-safe rebalancing: WAL-replayed membership change, fail-closed.

A membership change (split = shard joins, merge = shard leaves) moves
owned log ranges between enclaves while the plane keeps serving. Like
key rotation (:mod:`repro.audit.rotation`), it is a distributed,
multi-step state change that a crash must never leave half-applied —
so it gets the same shape: a signed write-ahead
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
from repro.faults import hooks as _faults
from repro.obs import hooks as _obs
from repro.shard.instance import RangeExportCommand, ShardInstance
from repro.shard.router import HashRange

#: ``shard.step`` fault-site checks per change: one after the WAL write,
#: one after each of steps 2-6.
SHARD_CHECKPOINTS = 6

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


class Rebalancer:
    """Drives WAL-checkpointed membership changes for one plane."""

    def __init__(self, plane) -> None:
        self.plane = plane
        self.changes_started = 0
        self.changes_resumed = 0
        self.failclosed_aborts = 0
        #: Ranges whose writes are blocked while a change is in flight.
        self.frozen: tuple[HashRange, ...] = ()

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def split(self, shard: str) -> RebalanceReport:
        """Admit ``shard`` and move its share of the ring onto it."""
        return self._begin("split", shard)

    def merge(self, shard: str) -> RebalanceReport:
        """Drain ``shard`` onto the survivors and decommission it."""
        return self._begin("merge", shard)

    def pending(self) -> bool:
        """Whether a membership-change WAL entry is outstanding."""
        storage = self.plane.control_storage
        return storage.load_intent(MembershipIntent.SIDECAR) is not None

    def resume(self) -> RebalanceReport | None:
        """Replay a change whose WAL entry survived a crash.

        A forged, corrupt or foreign intent is discarded — the worst
        outcome is that the operator re-issues a genuine change.
        """
        plane = self.plane
        intent = MembershipIntent.load_sidecar(
            plane.control_storage,
            plane.signing_key.public_key(),
            plane.plane_id,
            on_invalid=self._discard_wal,
        )
        if intent is None:
            return None
        self.changes_resumed += 1
        return self._run(intent, resumed=True)

    # ------------------------------------------------------------------
    # The idempotent step sequence
    # ------------------------------------------------------------------

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
        intent = MembershipIntent.sign(
            plane.signing_key,
            plane_id=plane.plane_id,
            change_id=f"{kind}-{shard}-g{plane.router.generation + 1}",
            kind=kind,
            shard=shard,
            generation_from=plane.router.generation,
            generation_to=plane.router.generation + 1,
            epoch=plane.authority.current_epoch,
        )
        # Step 1: the WAL entry, durable before anything changes. Writes
        # to the moving ranges freeze from this instant.
        self.frozen = self._moving_ranges(intent)
        plane.control_storage.save_intent(intent.encode(), MembershipIntent.SIDECAR)
        self.changes_started += 1
        _faults.crash_point(FAULT_SITE)
        return self._run(intent)

    def _discard_wal(self) -> None:
        self.plane.control_storage.clear_intent(MembershipIntent.SIDECAR)
        self.frozen = ()

    def _moving_ranges(self, intent: MembershipIntent) -> tuple[HashRange, ...]:
        router = self.plane.router
        if router.generation >= intent.generation_to:
            return ()  # cutover already applied; nothing left to freeze
        if intent.kind == "split":
            plan = router.plan_add(intent.shard)
        else:
            plan = router.plan_remove(intent.shard)
        return tuple(rng for rng, _, _ in plan)

    def _run(
        self, intent: MembershipIntent, resumed: bool = False
    ) -> RebalanceReport:
        plane = self.plane
        report = RebalanceReport(
            change_id=intent.change_id,
            kind=intent.kind,
            shard=intent.shard,
            generation_from=intent.generation_from,
            generation_to=intent.generation_to,
            epoch=intent.epoch,
            resumed=resumed,
        )
        with _obs.span("shard.rebalance") as obs_span:
            self.frozen = self._moving_ranges(intent)

            # Step 2: the change enters the audited membership history.
            if plane.membership.record(intent, "begin"):
                plane.seal_control()
            _faults.crash_point(FAULT_SITE)

            # Step 3: a joining shard exists (mutually admitted) before
            # any range can move onto it.
            if intent.kind == "split":
                plane.provisioner.provision(intent.shard)
            _faults.crash_point(FAULT_SITE)

            # Step 4: move every range, fail-closed. Any unprovable
            # freshness or integrity shortfall aborts *here*, with the
            # WAL still in place and the ranges still frozen.
            try:
                report.transfers = self._transfer_all(intent)
            except (FreshnessUnverifiableError, IntegrityError):
                self.failclosed_aborts += 1
                raise
            _faults.crash_point(FAULT_SITE)

            # Step 5: cutover — ownership flips atomically in the ring.
            if plane.router.generation < intent.generation_to:
                if intent.kind == "split":
                    plane.router.apply_add(intent.shard)
                else:
                    plane.router.apply_remove(intent.shard)
            if plane.membership.record(intent, "cutover"):
                plane.seal_control()
            self.frozen = ()
            plane.push_ownership()
            _faults.crash_point(FAULT_SITE)

            # Step 6: old owners drop what moved away; a drained shard
            # leaves the plane. Both are idempotent under replay.
            report.retired_tuples = self._retire(intent)
            _faults.crash_point(FAULT_SITE)

            plane.control_storage.clear_intent(MembershipIntent.SIDECAR)
            report.completed = True
            if _obs.ON:
                _obs.active().metrics.counter(
                    "shard_rebalances_total",
                    "Membership-change passes",
                    kind=intent.kind,
                    resumed=str(resumed).lower(),
                ).inc()
                if obs_span is not None:
                    obs_span.set_attr("change_id", intent.change_id)
                    obs_span.set_attr("transfers", len(report.transfers))
        return report

    # ------------------------------------------------------------------
    # Step 4: verified range transfers
    # ------------------------------------------------------------------

    def _transfer_all(
        self, intent: MembershipIntent
    ) -> list[tuple[str, str, int]]:
        plane = self.plane
        if plane.router.generation >= intent.generation_to:
            return []  # replaying past cutover: transfers already landed
        if intent.kind == "split":
            plan = plane.router.plan_add(intent.shard)
        else:
            plan = plane.router.plan_remove(intent.shard)
        grouped: dict[tuple[str, str], list[HashRange]] = {}
        for rng, source, target in plan:
            grouped.setdefault((source, target), []).append(rng)
        transfers = []
        for (source_id, target_id), ranges in sorted(grouped.items()):
            tuples = self._transfer(
                intent, source_id, target_id, tuple(ranges)
            )
            transfers.append((source_id, target_id, tuples))
        return transfers

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
    # Step 6: retirement
    # ------------------------------------------------------------------

    def _retire(self, intent: MembershipIntent) -> int:
        plane = self.plane
        if intent.kind == "merge":
            plane.provisioner.decommission(intent.shard)
            return 0
        moved = tuple(plane.router.ranges_of(intent.shard))
        retired = 0
        for shard_id, instance in plane.instances.items():
            if shard_id != intent.shard:
                retired += instance.retire_ranges(moved)
        return retired
