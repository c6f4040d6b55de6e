"""The chaos soak: safety and liveness of the distributed ROTE audit path.

Unlike :mod:`tests.faults.test_chaos` (random fault *plans* against the
storage/recovery path), this suite drives the message-passing replica
group itself — partitions, restarts, Byzantine repliers and message
storms over the simulated network — and checks the harness's built-in
safety/liveness oracle plus trace-digest determinism.
"""

import json
from pathlib import Path

import pytest

from repro.errors import SimulationError
from repro.faults.chaos import (
    FAMILIES,
    FAMILY_DESCRIPTIONS,
    FAMILY_TABLE,
    ChaosHarness,
    build_scenario,
    family_table_markdown,
    run_scenario,
    run_soak,
)

pytestmark = pytest.mark.faults

#: Seed-0 trace digest of every family, recorded before the harness was
#: rebuilt as one skeleton plus one family table.
GOLDEN_DIGESTS = json.loads(
    (Path(__file__).parent / "data" / "chaos_trace_digests.json").read_text()
)["trace_digests"]


@pytest.fixture(scope="module")
def verdicts():
    """The full default soak, run once for every test that reads it."""
    return run_soak()


class TestFamilyTable:
    """The README's chaos-family table is generated, never hand-edited."""

    def test_readme_embeds_the_generated_table(self):
        readme = Path(__file__).resolve().parents[2] / "README.md"
        table = family_table_markdown().strip()
        assert table in readme.read_text(encoding="utf-8"), (
            "README.md's chaos-family table has drifted from "
            "FAMILY_DESCRIPTIONS: paste the output of "
            "repro.faults.chaos.family_table_markdown() back in"
        )

    def test_table_covers_every_family_exactly_once(self):
        table = family_table_markdown()
        for family in FAMILIES:
            assert table.count(f"`{family}`") == 1

    def test_every_family_has_a_description(self):
        assert tuple(FAMILY_DESCRIPTIONS) == FAMILIES
        assert all(desc.strip() for desc in FAMILY_DESCRIPTIONS.values())


class TestSoak:
    def test_full_soak_has_no_oracle_violations(self, verdicts):
        assert len(verdicts) >= 25  # acceptance floor
        bad = [v for v in verdicts if not v.ok]
        assert bad == [], [(v.family, v.seed, v.violations) for v in bad]
        # Every family must have produced real audited traffic.
        assert all(v.pairs_ok > 0 for v in verdicts)

    def test_soak_is_not_vacuous(self, verdicts):
        """The faults actually bite: partitions block, probes reject."""
        by_family = {}
        for v in verdicts:
            by_family.setdefault(v.family, []).append(v)
        assert any(v.pairs_blocked > 0 for v in by_family["partition-majority"])
        assert any(
            v.recovered_in is not None for v in by_family["partition-majority"]
        )
        assert any(v.stale_probes > 0 for v in by_family["byzantine"])
        assert any(v.network["lost"] > 0 for v in by_family["message-storm"])


class TestRotationFamilies:
    """The three rotation families exercise what they claim to.

    Each family's distinguishing event must appear in the harness trace
    for *every* seed — a rotation soak whose crash never fires, whose
    stranded replicas never strand, or whose replayed attestations are
    never rejected would pass the oracle vacuously.
    """

    SEEDS = range(5)

    def _run(self, family, seed):
        harness = ChaosHarness(build_scenario(family, seed))
        verdict = harness.run()
        assert verdict.ok, verdict.violations
        return harness

    @pytest.mark.parametrize("seed", SEEDS)
    def test_rotation_crash_fires_and_replays(self, seed):
        harness = self._run("rotation-crash", seed)
        heads = {event[:2] for event in harness.trace}
        # The injected crash interrupted the coordinator mid-WAL...
        assert ("rotate", "crashed") in heads
        # ...and the replay completed it exactly once.
        assert ("rotation_resume", "replayed") in heads
        assert harness.cluster.authority.rotations == 1

    @pytest.mark.parametrize("seed", SEEDS)
    def test_stale_replica_degrades_then_retires(self, seed):
        harness = self._run("rotation-stale-replica", seed)
        probes = [
            event[1] for event in harness.trace if event[0] == "probe_recover"
        ]
        # While the quorum is stranded: an availability fault, never a
        # rollback claim; after forced retirement: fail-closed refusal.
        assert probes == ["freshness-unverifiable", "retired-epoch"]
        assert all(
            replica.epoch == harness.cluster.authority.current_epoch
            for replica in harness.cluster.nodes
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_byzantine_replay_is_rejected(self, seed):
        harness = self._run("rotation-byzantine-replay", seed)
        assert harness.cluster.retired_rejections > 0
        assert any(event[0] == "check_replay" for event in harness.trace)


class TestAttestationFamilies:
    """The three attestation families exercise what they claim to.

    Each family's distinguishing event must appear in the harness trace
    for *every* seed: an intruder soak whose forged joins are never
    rejected, an outage soak that never refuses an admission, or a
    revocation soak that never evicts anyone would pass the oracle
    vacuously.
    """

    SEEDS = range(5)

    def _run(self, family, seed):
        harness = ChaosHarness(build_scenario(family, seed))
        verdict = harness.run()
        assert verdict.ok, verdict.violations
        return harness

    @pytest.mark.parametrize("seed", SEEDS)
    def test_forged_joins_rejected_at_every_gate(self, seed):
        harness = self._run("attest-forged-join", seed)
        heads = {event[0] for event in harness.trace}
        assert "intrude" in heads and "intrude_catchup" in heads
        assert "check_intruder" in heads
        # Rejections were recorded at the admission gates, the intruder
        # was admitted nowhere, and its catch-up probes were dropped.
        gates = [harness.cluster.admission] + [
            r.admission for r in harness.cluster.nodes
        ]
        assert sum(g.admission_rejections for g in gates) > 0
        assert not any(
            g.is_admitted(harness.intruder_address) for g in gates
        )
        assert sum(r.unadmitted_drops for r in harness.cluster.nodes) > 0
        # Multiple tamper kinds ran (shuffled per seed, at least two).
        kinds = {e[1] for e in harness.trace if e[0] == "intrude"}
        assert len(kinds) >= 2

    @pytest.mark.parametrize("seed", SEEDS)
    def test_outage_rejoin_degrades_but_never_admits(self, seed):
        harness = self._run("attest-outage-restart", seed)
        heads = {event[0] for event in harness.trace}
        assert "attest_outage" in heads and "attest_restore" in heads
        assert "check_outage" in heads
        # Some admission was refused as unverifiable during the outage...
        refused = harness.cluster.admission.admission_unavailable + sum(
            r.admission.admission_unavailable for r in harness.cluster.nodes
        )
        assert refused > 0
        # ...and after restoration the group healed: the victim rejoined
        # with full mutual admission and caught up.
        outage_checks = [e for e in harness.trace if e[0] == "check_outage"]
        victim = harness.cluster.nodes[outage_checks[0][1]]
        assert victim.admission.admitted_addresses() != ()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_revoked_platform_evicted_mid_traffic(self, seed):
        harness = self._run("attest-revoked-tcb", seed)
        checks = [e for e in harness.trace if e[0] == "check_revoked"]
        assert checks
        victim = harness.cluster.nodes[checks[0][1]]
        assert not harness.cluster.admission.is_admitted(victim.address)
        assert harness.cluster.admission.revocations > 0
        assert harness.cluster.replies_unadmitted > 0
        # Traffic kept flowing on the surviving quorum.
        assert harness.pairs_ok > 0


class TestShardFamilies:
    """The three shard families exercise what they claim to.

    Each family's distinguishing event must appear in the harness trace
    for *every* seed — a split soak whose crash never fires, a merge
    soak whose stranded source never fails closed, or a Byzantine soak
    whose stale claims are never dropped would pass the oracle
    vacuously.
    """

    SEEDS = range(5)

    def _run(self, family, seed):
        from repro.faults.chaos_shard import ShardChaosHarness

        harness = ShardChaosHarness(build_scenario(family, seed))
        verdict = harness.run()
        assert verdict.ok, verdict.violations
        return harness

    @pytest.mark.parametrize("seed", SEEDS)
    def test_split_crash_fires_and_replays(self, seed):
        harness = self._run("shard-split-crash", seed)
        heads = {event[:2] for event in harness.trace}
        # The injected crash interrupted the rebalance mid-WAL...
        assert ("split", "crashed") in heads
        # ...the replay completed it exactly once...
        assert ("shard_resume", "replayed") in heads
        changes = harness.plane.membership.changes()
        assert sum(1 for c in changes if "[cutover]" in c) == 1
        # ...and the change was non-vacuous: tuples really moved.
        assert sum(
            instance.tuples_imported
            for instance in harness.plane.instances.values()
        ) > 0
        assert harness.plane.router.members == (
            "shard-0", "shard-1", "shard-2",
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_merge_stale_fails_closed_then_recovers(self, seed):
        harness = self._run("shard-merge-stale", seed)
        heads = {event[:2] for event in harness.trace}
        # The stranded source made the merge abort fail-closed...
        assert ("merge", "failclosed") in heads
        assert harness.plane.rebalancer.failclosed_aborts >= 1
        # ...and after the upgrade the replay converged the ring.
        assert ("shard_resume", "replayed") in heads
        assert harness.plane.router.members == ("shard-0", "shard-2")
        assert "shard-1" not in harness.plane.instances

    @pytest.mark.parametrize("seed", SEEDS)
    def test_byzantine_old_owner_is_dropped_and_counted(self, seed):
        harness = self._run("shard-rebalance-byzantine", seed)
        # The stale ownership claim was dropped from the merged verdict
        # and the replayed transfers were refused as duplicates.
        assert harness.plane.stale_owner_drops > 0
        assert sum(
            instance.duplicate_transfer_drops
            for instance in harness.plane.instances.values()
        ) > 0
        expects = [e[1:3] for e in harness.trace if e[0] == "scatter_check"]
        assert ("dropped", False) in expects
        assert ("ok", True) in expects
        assert harness.plane.pair_accounting() == []


class TestDeterminism:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_same_seed_same_trace_digest(self, family):
        first = run_scenario(family, seed=0)
        again = run_scenario(family, seed=0)
        assert first.trace_digest == again.trace_digest
        assert first.as_dict() == again.as_dict()
        assert first.trace_digest == GOLDEN_DIGESTS[family]

    def test_different_seeds_diverge(self):
        digests = {run_scenario("kitchen-sink", seed=s).trace_digest for s in range(3)}
        assert len(digests) == 3

    def test_build_scenario_is_pure(self):
        a = build_scenario("kitchen-sink", seed=4)
        b = build_scenario("kitchen-sink", seed=4)
        assert a.actions == b.actions


class TestVerdictShape:
    def test_as_dict_is_json_shaped(self):
        verdict = run_scenario("partition-minority", seed=1)
        obj = verdict.as_dict()
        assert obj["family"] == "partition-minority"
        assert obj["ok"] is True
        assert obj["violations"] == []
        assert isinstance(obj["trace_digest"], str) and len(obj["trace_digest"]) == 64
        assert obj["network"]["sent"] > 0

    def test_unknown_family_rejected(self):
        with pytest.raises(SimulationError):
            build_scenario("meteor-strike", seed=0)

    @pytest.mark.parametrize("family", ["byzantine", "shard-split-crash"])
    def test_unknown_action_rejected(self, family):
        scenario = build_scenario(family, seed=0)
        scenario.actions = (("meteor_strike",),)
        harness = FAMILY_TABLE[family].harness(scenario)
        with pytest.raises(SimulationError, match="meteor_strike"):
            harness.run()
