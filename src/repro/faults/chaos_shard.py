"""The shard-plane chaos harness: rebalance faults against a live plane.

Runs the three ``shard-*`` families from :mod:`repro.faults.chaos`
against a full :class:`~repro.shard.plane.ShardPlane` — consistent-hash
router, WAL-replayed rebalancer, per-shard ROTE groups, scatter/gather
checking — and judges every step with the plane's own oracles:

- **one owner per range**: the ring tiling is gapless and every payload
  tuple a shard holds routes into a range the ring currently grants it;
- **zero lost or duplicated pairs**: the payload population across
  shards equals exactly what the router accepted, crash or no crash;
- **fail-closed, never silent**: a pair aimed at a mid-rebalance range
  may *block* (:class:`~repro.errors.RangeUnavailableError`), a change
  whose source freshness is unprovable may *abort with its WAL held*
  (:class:`~repro.errors.FreshnessUnverifiableError`) — but neither may
  happen outside its legitimate window, and nothing is ever misplaced;
- **monotone heads**: no shard's certified head counter ever regresses.

The harness shares the :class:`~repro.faults.harness.ScenarioHarness`
skeleton and its :class:`~repro.faults.harness.ScenarioVerdict`, so the
soak CLI, the CI soak gates and the nightly sweep treat shard families
exactly like every other family.
"""

from __future__ import annotations

from repro.errors import (
    AuditBufferFullError,
    FreshnessUnverifiableError,
    IntegrityError,
    RangeUnavailableError,
)
from repro.faults.harness import ChaosScenario, ScenarioHarness
from repro.faults.plan import InjectedCrash
from repro.shard.plane import ShardPlane
from repro.workloads.messaging_traffic import MessagingWorkload

#: Channels in the chaos workload: enough that every shard of a 3-member
#: ring owns several (a merge that moves zero tuples proves nothing).
CHAOS_CHANNELS = 24

#: Replica build installed when a stranded shard's group is upgraded.
UPGRADED_BUILD = "rote-counter-2.0"


class ShardChaosHarness(ScenarioHarness):
    """Runs one ``shard-*`` scenario and judges it after every step."""

    def __init__(self, scenario: ChaosScenario):
        super().__init__(scenario)
        shards = (
            ("shard-0", "shard-1", "shard-2")
            if scenario.family == "shard-merge-stale"
            else ("shard-0", "shard-1")
        )
        self.plane = ShardPlane(shards=shards, seed=scenario.seed)
        self.network = self.plane.network
        self.workload = MessagingWorkload(
            self.plane,
            channels=CHAOS_CHANNELS,
            members=2,
            fetch_ratio=0.0,
            seed=scenario.seed,
        )
        self.pairs_ok = self.workload.requests_issued
        self.moved_tuples = 0
        self._last_heads: dict[str, int] = {}
        #: Ownership views from before the last split: the Byzantine
        #: family forges its stale claims from them.
        self._pre_change_views: dict = {}

    # ------------------------------------------------------------------
    # Oracle and verdict fields
    # ------------------------------------------------------------------

    def _check_step(self, kind: str) -> None:
        """No live shard's certified head counter may ever regress."""
        for shard_id, counter in self.plane.head_counters().items():
            last = self._last_heads.get(shard_id, 0)
            if counter < last:
                self._violate(
                    f"{shard_id} head counter regressed {last}->{counter}"
                )
            self._last_heads[shard_id] = counter
        for gone in set(self._last_heads) - set(self.plane.instances):
            del self._last_heads[gone]

    def _head_counter(self) -> int:
        return max(self.plane.head_counters().values(), default=0)

    @property
    def stale_probes(self) -> int:
        return self.plane.stale_owner_drops + self._duplicate_drops()

    def _duplicate_drops(self) -> int:
        return sum(
            instance.duplicate_transfer_drops
            for instance in self.plane.instances.values()
        )

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------

    def do_pairs(self, count: int) -> None:
        for _ in range(count):
            self._pair()

    def _pair(self) -> None:
        try:
            self.workload.post_once()
            self.pairs_ok += 1
        except RangeUnavailableError:
            # Legitimate only while a change's WAL holds ranges frozen.
            self.pairs_blocked += 1
            if not self.plane.rebalancer.frozen:
                self._violate("pair blocked with no range frozen")
        except AuditBufferFullError:
            # Legitimate only while some shard is audit-degraded.
            self.pairs_blocked += 1
            if not self.plane.degraded_shards():
                self._violate("pair blocked with no shard degraded")

    def do_split(self, shard: str) -> None:
        self._pre_change_views = {
            shard_id: instance.claimed_view()
            for shard_id, instance in self.plane.instances.items()
        }
        try:
            report = self.plane.rebalancer.split(shard)
            self.moved_tuples += sum(t for _, _, t in report.transfers)
            self._note("split", "completed", shard, report.change_id)
        except InjectedCrash:
            self._note("split", "crashed", shard)

    def do_merge_failclosed(self, shard: str) -> None:
        try:
            self.plane.rebalancer.merge(shard)
            self._violate(
                f"merge of stale {shard} completed instead of failing closed"
            )
        except FreshnessUnverifiableError as exc:
            self._note("merge", "failclosed", shard, str(exc)[:80])
            if not self.plane.rebalancer.pending():
                self._violate("fail-closed merge dropped its WAL entry")
            if shard not in self.plane.router.members:
                self._violate("fail-closed merge rolled the ring forward")

    def do_resume(self) -> None:
        report = self.plane.rebalancer.resume()
        if report is None:
            self._violate("resume found no WAL entry to replay")
            return
        self.moved_tuples += sum(t for _, _, t in report.transfers)
        self._note(
            "shard_resume", "replayed", report.change_id, report.completed
        )
        if not report.completed:
            self._violate(f"replay of {report.change_id} did not complete")

    def do_pin_shard(self, shard: str) -> None:
        cluster = self.plane.instances[shard].cluster
        for node in cluster.nodes:
            node.pin()
        self._note("pin_shard", shard, cluster.authority.current_epoch)

    def do_rotate_epoch(self, reason: str) -> None:
        authority = self.plane.authority
        authority.rotate(reason)
        clusters = [self.plane.control_cluster] + [
            instance.cluster for instance in self.plane.instances.values()
        ]
        for cluster in clusters:
            cluster.announce_epoch()
        retired = authority.retire_grace()
        self._note("rotate_epoch", authority.current_epoch, tuple(retired))

    def do_upgrade_shard(self, shard: str) -> None:
        cluster = self.plane.instances[shard].cluster
        for node in cluster.nodes:
            node.upgrade(UPGRADED_BUILD)
        self._note("upgrade_shard", shard)

    def do_stale_claim(self, shard: str) -> None:
        instance = self.plane.instances[shard]
        view = self._pre_change_views.get(shard)
        if view is None:
            self._violate(f"no pre-change view recorded for {shard}")
            return
        instance.stale_claim = view
        self._note("stale_claim", shard, view[0])

    def do_honest(self, shard: str) -> None:
        self.plane.instances[shard].stale_claim = None
        self._note("honest", shard)

    def do_replay_transfers(self, shard: str) -> None:
        instance = self.plane.instances[shard]
        if not instance.sent_transfers:
            self._violate(f"{shard} has no past transfers to replay")
            return
        for target_address, transfer in instance.sent_transfers:
            self.plane.network.send(
                instance.address, target_address, transfer
            )
        self.plane.network.settle()
        self._note("replay_transfers", shard, len(instance.sent_transfers))

    def do_scatter_check(self, expect: str) -> None:
        outcome = self.plane.check_invariants()
        self._note(
            "scatter_check", expect, outcome.ok,
            sorted(outcome.per_shard), outcome.dropped_stale,
        )
        if outcome.total_violations:
            self._violate(
                f"invariant violations in merged verdict: "
                f"{sorted(outcome.outcome.violations)}"
            )
        if expect == "ok":
            if not outcome.ok:
                self._violate(
                    f"scatter check not clean: unchecked={outcome.unchecked}"
                )
        elif expect == "dropped":
            if not outcome.dropped_stale:
                self._violate("stale ownership claim was not dropped")
            if outcome.ok:
                self._violate("stale claim left the merged verdict 'ok'")

    def do_check_coverage(self) -> None:
        problems = self.plane.placement_problems()
        self._note("check_coverage", len(problems))
        for problem in problems:
            self._violate(f"placement: {problem}")

    def do_check_pairs(self) -> None:
        problems = self.plane.pair_accounting()
        self._note("check_pairs", self.plane.tuples_routed, len(problems))
        for problem in problems:
            self._violate(f"pair accounting: {problem}")
        # Non-vacuousness: a rebalance that moved nothing proves nothing.
        # Count imports at the instances, not transfers in the replay
        # report — a crash after the transfer checkpoint replays with the
        # tuples already landed, which is exactly the idempotence we want.
        imported = self.moved_tuples + sum(
            instance.tuples_imported
            for instance in self.plane.instances.values()
        )
        if imported == 0:
            self._violate("rebalance moved zero tuples (vacuous scenario)")

    def do_check_failclosed(self) -> None:
        if self.plane.rebalancer.failclosed_aborts == 0:
            self._violate("no fail-closed abort was recorded")
        if not any(e[0] == "merge" and e[1] == "failclosed" for e in self.trace):
            self._violate("fail-closed merge never observed in trace")
        self._note("check_failclosed", self.plane.rebalancer.failclosed_aborts)

    def do_check_byzantine(self) -> None:
        duplicate_drops = self._duplicate_drops()
        self._note(
            "check_byzantine", self.plane.stale_owner_drops, duplicate_drops
        )
        if self.plane.stale_owner_drops == 0:
            self._violate("stale ownership claims were never dropped")
        if duplicate_drops == 0:
            self._violate("replayed transfers were never dropped")

    def do_verify_all(self) -> None:
        try:
            self.plane.verify_all()
            self._note("verify_all", "ok")
        except IntegrityError as exc:
            self._violate(f"log verification failed: {exc}")

    # ------------------------------------------------------------------
    # End of run
    # ------------------------------------------------------------------

    def _final_check(self) -> None:
        if self.plane.rebalancer.pending():
            self._violate("scenario ended with a membership WAL outstanding")
        degraded = self.plane.degraded_shards()
        if degraded:
            self._violate(f"scenario ended with degraded shards: {degraded}")
        if self.pairs_ok == 0:
            self._violate("scenario completed no successful pairs")
