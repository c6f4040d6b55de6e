"""Chaos soak for the distributed ROTE audit path (`python -m repro chaos`).

Seeded scenario scripts drive a real :class:`~repro.core.LibSeal` (with
its :class:`~repro.audit.log.AuditLog` and a message-passing
:class:`~repro.audit.rote.RoteCluster` on a
:class:`~repro.sim.network.SimNetwork`) through the failure modes a
production deployment faces — majority/minority partitions, replica
crashes and restarts (including mid-increment, via the fault plane),
Byzantine repliers with configurable lie shapes, and message storms —
while a safety/liveness oracle checks after every step that:

- **counter monotonicity**: the signed log head's counter value never
  moves backwards;
- **no stale head accepted**: a retained earlier log snapshot, replayed
  through ``AuditLog.load``, is rejected with ``RollbackError`` whenever
  the quorum is reachable;
- **error discipline**: ``RollbackError``/``IntegrityError`` appear only
  on genuine integrity evidence (never injected here, so never expected);
  availability faults surface as ``QuorumUnavailableError`` degradation
  or an explicit ``AuditBufferFullError`` block — and only while the
  quorum is actually unreachable (or a storm is raging);
- **bounded liveness**: after the last disruption heals, sealing
  recovers within :data:`LIVENESS_BOUND` reseal attempts and the final
  full verification passes with the live counter equal to the head.

Everything is deterministic: the scenario script, the network, the lie
models and the workload all derive from the scenario seed, and each run
emits an event trace whose SHA-256 digest must be identical across runs
of the same seed — the acceptance gate CI enforces.

Every family is one row of :data:`FAMILY_TABLE`: its description, its
script, its optional fault plan and the harness that runs it. The ROTE
families run under :class:`ChaosHarness`, the ``shard-*`` families under
:class:`~repro.faults.chaos_shard.ShardChaosHarness`; both share the
:class:`~repro.faults.harness.ScenarioHarness` skeleton.
"""

from __future__ import annotations

import random
from typing import Callable, NamedTuple

from repro.audit.log import AuditLog
from repro.audit.persistence import InMemoryStorage
from repro.audit.recovery import DETECTED_OUTCOMES, recover_log
from repro.audit.rotation import FAULT_SITE as ROTATION_SITE
from repro.audit.rotation import ROTATION_CHECKPOINTS, KeyRotationCoordinator
from repro.audit.rote import RoteCluster
from repro.audit.rote_replica import (
    LIE_SHAPES,
    CatchupReply,
    CatchupRequest,
    CounterAttestation,
    JoinRequest,
)
from repro.audit.sealed_storage import SealedLogStorage, make_log_enclave
from repro.core.libseal import LibSeal, LibSealConfig
from repro.errors import (
    AuditBufferFullError,
    IntegrityError,
    QuorumUnavailableError,
    RollbackError,
    SimulationError,
)
from repro.faults.chaos_shard import ShardChaosHarness
from repro.faults.harness import ChaosScenario, ScenarioHarness, ScenarioVerdict
from repro.faults.plan import FaultEvent, FaultPlan, InjectedCrash
from repro.sgx.ratls import (
    BINDING_ROTE_JOIN,
    AttestationEvidence,
    AttestationPlane,
    make_node_enclave,
    report_binding,
)
from repro.sgx.attestation import Quote
from repro.sgx.sealing import EpochState, SealedBlob, SigningAuthority
from repro.shard.rebalance import FAULT_SITE as SHARD_SITE
from repro.shard.rebalance import SHARD_CHECKPOINTS
from repro.sim.network import SimNetwork
from repro.ssm.messaging import MessagingSSM
from repro.workloads.messaging_traffic import MessagingWorkload

#: Attestation-plane knobs for the ``attest-*`` families: evidence stays
#: fresh for minutes (joins re-quote anyway), while cached verification
#: verdicts expire quickly enough for one scripted clock advance to push
#: an outage past the degraded-serving window.
CHAOS_ATTEST_FRESHNESS = 600.0
CHAOS_ATTEST_CACHE_TTL = 30.0

#: Counter value the forged-join intruder tries to smuggle in: high
#: enough that any adoption anywhere is unmistakable.
INTRUDER_POISON = 1 << 40

#: Evidence tampers the forged-join intruder cycles through.
INTRUDER_KINDS = ("rogue", "relabel", "epoch_relabel", "replay")

#: Reseal attempts allowed after every fault healed before the oracle
#: calls the run a liveness violation.
LIVENESS_BOUND = 4

#: Degraded-buffer bound used by chaos runs: small, so partition-majority
#: scenarios actually reach the explicit pair-blocking regime.
CHAOS_MAX_UNSEALED = 8

#: Snapshots retained per run as stale-head probe material.
SNAPSHOT_LIMIT = 4



# ----------------------------------------------------------------------
# Scenario scripts
# ----------------------------------------------------------------------
#
# Actions are plain tuples interpreted by the harness:
#   ("pairs", k)                      drive k request/response pairs
#   ("partition", nodes)              cut `nodes` away from client+rest
#   ("heal",)                         heal the partition
#   ("crash", i) / ("restart", i)     replica lifecycle
#   ("lie", i, shape) / ("honest", i) Byzantine toggling
#   ("storm_on", loss, dup, reorder) / ("storm_off",)
#   ("reseal",)                       drain + retry sealing (bounded)
#   ("probe_stale",)                  replay an old snapshot, expect reject
#   ("verify",)                       full log verification (healthy only)
#   ("rotate", reason)                run the key-rotation coordinator
#   ("rotation_resume",)              replay a crashed rotation's WAL
#   ("force_retire",)                 operator override: retire grace epochs
#   ("pin", i) / ("upgrade", i)       stranded-build lifecycle of replica i
#   ("probe_recover", outcome)        crash-recover a snapshot copy, expect
#                                     the named fail-closed outcome
#   ("check_epoch",)                  rotation convergence oracle
#   ("check_replay",)                 retired-epoch rejections happened
#   ("intrude", kind)                 un-attested intruder attempts a join
#   ("intrude_catchup",)              intruder probes catch-up both ways
#   ("attest_outage",) / ("attest_restore",)  attestation-service lifecycle
#   ("clock_advance", s)              advance the attestation plane clock
#   ("tcb_revoke", i)                 revoke replica i's platform TCB
#   ("check_intruder",)               intruder never admitted, tries counted
#   ("check_outage", i)               degraded rejoin was fail-closed
#   ("check_revoked", i)              revocation evicted + discounted i


def _rng(family: str, seed: int) -> random.Random:
    return random.Random(f"chaos-{family}-{seed}")


def _closing(rng: random.Random) -> list:
    """Common tail: recover, prove liveness and freshness."""
    return [
        ("reseal",),
        ("pairs", rng.randint(2, 4)),
        ("probe_stale",),
        ("verify",),
    ]


def _script_partition_minority(rng: random.Random, f: int, n: int) -> list:
    cut = tuple(sorted(rng.sample(range(n), k=f)))
    return [
        ("pairs", rng.randint(3, 5)),
        ("partition", cut),
        ("pairs", rng.randint(4, 6)),
        ("probe_stale",),
        ("heal",),
        *_closing(rng),
    ]


def _script_partition_majority(rng: random.Random, f: int, n: int) -> list:
    keep = rng.sample(range(n), k=f)
    cut = tuple(sorted(set(range(n)) - set(keep)))
    return [
        ("pairs", rng.randint(3, 5)),
        ("partition", cut),
        # Enough pairs to exhaust the degraded buffer and hit the
        # explicit AuditBufferFullError blocking regime.
        ("pairs", CHAOS_MAX_UNSEALED + rng.randint(3, 5)),
        ("probe_stale",),
        ("heal",),
        *_closing(rng),
    ]


def _script_restart_storm(rng: random.Random, f: int, n: int) -> list:
    actions: list = [("pairs", rng.randint(2, 4))]
    for victim in rng.sample(range(n), k=min(3, n)):
        actions += [
            ("crash", victim),
            ("pairs", rng.randint(2, 4)),
            ("restart", victim),
            ("pairs", rng.randint(1, 3)),
        ]
    actions += [("probe_stale",), *_closing(rng)]
    return actions


def _script_restart_mid_increment(rng: random.Random, f: int, n: int) -> list:
    # The crash/recover pair is scheduled on the rote.round fault site
    # (see _plan_restart_mid_increment), firing between quorum rounds of
    # one operation.
    return [
        ("pairs", rng.randint(6, 9)),
        ("probe_stale",),
        ("pairs", rng.randint(3, 5)),
        *_closing(rng),
    ]


def _script_byzantine(rng: random.Random, f: int, n: int) -> list:
    liars = rng.sample(range(n), k=f)
    shapes = [rng.choice(LIE_SHAPES) for _ in liars]
    actions: list = [("pairs", rng.randint(2, 4))]
    actions += [("lie", liar, shape) for liar, shape in zip(liars, shapes)]
    actions += [
        ("pairs", rng.randint(4, 6)),
        ("probe_stale",),
        # Change the lie mid-run: a different adversary, same replicas.
        *[("lie", liar, rng.choice(LIE_SHAPES)) for liar in liars],
        ("pairs", rng.randint(3, 5)),
        *[("honest", liar) for liar in liars],
        *_closing(rng),
    ]
    return actions


def _script_message_storm(rng: random.Random, f: int, n: int) -> list:
    return [
        ("pairs", rng.randint(2, 4)),
        ("storm_on", round(rng.uniform(0.15, 0.3), 2),
         round(rng.uniform(0.1, 0.25), 2), round(rng.uniform(0.2, 0.35), 2)),
        ("pairs", rng.randint(5, 8)),
        ("storm_off",),
        ("probe_stale",),
        *_closing(rng),
    ]


def _script_kitchen_sink(rng: random.Random, f: int, n: int) -> list:
    liar = rng.randrange(n)
    victim = rng.choice([i for i in range(n) if i != liar])
    cut = (rng.choice([i for i in range(n) if i not in (liar, victim)]),)
    return [
        ("pairs", rng.randint(2, 3)),
        ("lie", liar, rng.choice(LIE_SHAPES)),
        ("pairs", rng.randint(2, 3)),
        ("crash", victim),
        ("pairs", rng.randint(1, 2)),
        ("restart", victim),
        ("partition", cut),
        ("pairs", rng.randint(2, 4)),
        ("heal",),
        ("storm_on", 0.2, 0.15, 0.25),
        ("pairs", rng.randint(2, 4)),
        ("storm_off",),
        ("probe_stale",),
        ("honest", liar),
        *_closing(rng),
    ]


def _script_rotation_crash(rng: random.Random, f: int, n: int) -> list:
    # The crash is scheduled on the rotation.step fault site (see
    # _crash_plan): it fires between two steps of the coordinator's WAL
    # sequence, and the resume must replay to exactly one active epoch.
    return [
        ("pairs", rng.randint(3, 5)),
        ("rotate", "scheduled"),
        ("rotation_resume",),
        ("pairs", rng.randint(2, 4)),
        ("probe_stale",),
        ("check_epoch",),
        *_closing(rng),
    ]


def _script_rotation_stale_replica(rng: random.Random, f: int, n: int) -> list:
    # f+1 replicas stay on a pre-rotation enclave build: the quorum is
    # unreachable for the new epoch, so the client must degrade to
    # freshness-unverifiable — never rollback-detected, never silent
    # acceptance of old-epoch material. Upgrading the stragglers and
    # replaying the rotation WAL then converges the group.
    stuck = tuple(sorted(rng.sample(range(n), k=f + 1)))
    return [
        ("pairs", rng.randint(3, 5)),
        *[("pin", i) for i in stuck],
        ("rotate", "scheduled"),
        ("pairs", rng.randint(2, 3)),
        ("probe_recover", "freshness-unverifiable"),
        ("force_retire",),
        ("probe_recover", "retired-epoch"),
        *[("upgrade", i) for i in stuck],
        ("rotation_resume",),
        ("check_epoch",),
        *_closing(rng),
    ]


def _script_rotation_byzantine_replay(rng: random.Random, f: int, n: int) -> list:
    # Liars whose reply material is frozen pre-rotation (drop_writes
    # keeps their history on the old epoch) replay pre-rotation
    # attestations after the old group key retires: every such HMAC must
    # be rejected by the quorum logic (counted, never trusted).
    liars = rng.sample(range(n), k=f)
    shapes = [rng.choice(("stale_echo", "under_report")) for _ in liars]
    return [
        ("pairs", rng.randint(4, 6)),
        *[("lie", liar, shape) for liar, shape in zip(liars, shapes)],
        ("pairs", rng.randint(2, 3)),
        ("rotate", "suspected-compromise"),
        ("force_retire",),
        ("pairs", rng.randint(3, 5)),
        ("check_replay",),
        ("probe_stale",),
        *[("honest", liar) for liar in liars],
        *_closing(rng),
    ]


def _script_attest_forged_join(rng: random.Random, f: int, n: int) -> list:
    # An un-attested intruder (rogue platform, tampered quotes, replayed
    # or relabeled evidence) hammers the group's join path, then probes
    # catch-up directly — including a poisoned CatchupReply whose
    # attestation is MAC-valid (modelling a leaked group key): admission,
    # not the MAC, must be what keeps it out.
    kinds = list(INTRUDER_KINDS)
    rng.shuffle(kinds)
    actions: list = [("pairs", rng.randint(2, 4))]
    for kind in kinds[: rng.randint(2, len(kinds))]:
        actions += [("intrude", kind), ("pairs", rng.randint(1, 3))]
    actions += [
        ("intrude_catchup",),
        ("pairs", rng.randint(1, 2)),
        ("check_intruder",),
        ("probe_stale",),
        *_closing(rng),
    ]
    return actions


def _script_attest_outage_restart(rng: random.Random, f: int, n: int) -> list:
    # The attestation service dies, then a replica crashes and restarts
    # behind it, with the plane clock advanced past the verdict-cache
    # window: the rejoiner cannot re-attest anyone, so it must drop every
    # catch-up reply un-adopted (degraded availability, zero unverified
    # admission) while the remaining quorum keeps the service alive.
    # Once the service is restored, a second restart converges the group.
    victim = rng.randrange(n)
    return [
        ("pairs", rng.randint(2, 4)),
        ("attest_outage",),
        ("crash", victim),
        ("clock_advance", round(rng.uniform(40.0, 90.0), 1)),
        ("restart", victim),
        ("pairs", rng.randint(2, 4)),
        ("check_outage", victim),
        ("attest_restore",),
        ("crash", victim),
        ("restart", victim),
        ("pairs", rng.randint(1, 3)),
        ("probe_stale",),
        *_closing(rng),
    ]


def _script_attest_revoked_tcb(rng: random.Random, f: int, n: int) -> list:
    # A TCB advisory revokes one replica's platform mid-traffic. The next
    # operation's revalidation sweep must evict it everywhere (client and
    # peers), its still-arriving replies must be discounted rather than
    # trusted, and the group must keep serving on the remaining quorum.
    victim = rng.randrange(n)
    return [
        ("pairs", rng.randint(3, 5)),
        ("tcb_revoke", victim),
        ("pairs", rng.randint(3, 5)),
        ("check_revoked", victim),
        ("pairs", rng.randint(1, 3)),
        ("probe_stale",),
        *_closing(rng),
    ]


# The shard-plane families run against a full ShardPlane (see
# repro.faults.chaos_shard); their action vocabulary:
#
#   ("pairs", k)                      k audited pairs through the plane router
#   ("split", s) / ("merge", s)       a membership change (the split family's
#                                     plan crashes it at a random checkpoint)
#   ("merge_failclosed", s)           a merge expected to fail closed
#   ("resume",)                       replay the membership WAL
#   ("pin_shard", s)                  pin every ROTE replica of shard s
#   ("rotate_epoch", reason)          rotate keys and force-retire the grace
#                                     window (strands pinned replicas)
#   ("upgrade_shard", s)              upgrade shard s's stranded replicas
#   ("stale_claim", s) / ("honest", s)  Byzantine old-owner lifecycle
#   ("replay_transfers", s)           shard s re-sends its past transfers
#   ("scatter_check", expect)         networked check; "ok" or "dropped"
#   ("check_coverage",)               one-owner-per-range oracle
#   ("check_pairs",)                  zero-lost/zero-duplicated oracle
#   ("check_failclosed",)             the stale merge really failed closed
#   ("check_byzantine",)              stale claims and replays were counted
#   ("verify_all",)                   full chain verification, every shard


def _script_shard_split_crash(rng: random.Random, f: int, n: int) -> list:
    # A split crashes at a random rebalance checkpoint (the plan injects
    # it); traffic keeps flowing into the half-done change, then the WAL
    # replays and the plane must converge to one owner per range.
    return [
        ("pairs", rng.randint(25, 35)),
        ("split", "shard-2"),
        ("pairs", rng.randint(10, 18)),
        ("resume",),
        ("pairs", rng.randint(8, 12)),
        ("scatter_check", "ok"),
        ("check_coverage",),
        ("check_pairs",),
        ("verify_all",),
    ]


def _script_shard_merge_stale(rng: random.Random, f: int, n: int) -> list:
    # The merge victim's counter group is stranded on a retired epoch:
    # its range freshness is unprovable, so the merge must fail closed
    # (WAL held, ranges frozen, no rollback claim) until the replicas
    # are upgraded and the change replays.
    return [
        ("pairs", rng.randint(30, 40)),
        ("pin_shard", "shard-1"),
        ("rotate_epoch", "suspected-exposure"),
        ("merge_failclosed", "shard-1"),
        ("pairs", rng.randint(4, 8)),
        ("upgrade_shard", "shard-1"),
        ("resume",),
        ("pairs", rng.randint(8, 12)),
        ("scatter_check", "ok"),
        ("check_coverage",),
        ("check_pairs",),
        ("check_failclosed",),
        ("verify_all",),
    ]


def _script_shard_rebalance_byzantine(rng: random.Random, f: int, n: int) -> list:
    # After a completed split, the old owner keeps claiming its pre-split
    # ownership in scatter replies and replays its range transfer. The
    # gather layer must drop and count the stale claims, the import
    # marker must drop the replays, and honesty must restore a clean
    # merged verdict.
    return [
        ("pairs", rng.randint(30, 40)),
        ("split", "shard-2"),
        ("stale_claim", "shard-0"),
        ("replay_transfers", "shard-0"),
        ("scatter_check", "dropped"),
        ("pairs", rng.randint(8, 12)),
        ("honest", "shard-0"),
        ("scatter_check", "ok"),
        ("check_coverage",),
        ("check_pairs",),
        ("check_byzantine",),
        ("verify_all",),
    ]



# ----------------------------------------------------------------------
# Fault plans (drawn from the scenario RNG after the script)
# ----------------------------------------------------------------------


def _plan_restart_mid_increment(
    family: str, rng: random.Random, f: int, n: int
) -> FaultPlan:
    victim = rng.randrange(n)
    # Visits are counted per quorum round, so both events land inside
    # the first batch of pairs: the crash fires between rounds of a
    # live operation, the restart a couple of rounds later.
    at = rng.randint(2, 5)
    return FaultPlan(
        [
            FaultEvent("rote.round", "node_crash", at=at,
                       params={"node": victim}),
            FaultEvent("rote.round", "node_recover",
                       at=at + rng.randint(1, 2), params={"node": victim}),
        ],
        seed=rng.randint(0, 2**31),
        scenario=family,
    )


def _crash_plan(site: str, checkpoints: int) -> Callable[..., FaultPlan]:
    """A plan that crashes a write-ahead procedure at ``site`` on one
    random checkpoint of its ``checkpoints``."""

    def plan(family: str, rng: random.Random, f: int, n: int) -> FaultPlan:
        return FaultPlan(
            [FaultEvent(site, "crash", at=rng.randint(1, checkpoints))],
            seed=rng.randint(0, 2**31),
            scenario=family,
        )

    return plan


# ----------------------------------------------------------------------
# The ROTE harness + oracle
# ----------------------------------------------------------------------


class ChaosHarness(ScenarioHarness):
    """Runs one ROTE-path scenario and judges it after every step."""

    PARTITION_NAME = "wan-split"

    def __init__(self, scenario: ChaosScenario):
        super().__init__(scenario)
        family = FAMILY_TABLE[scenario.family]
        self.network = SimNetwork(
            seed=scenario.seed, latency_steps=1, jitter_steps=1
        )
        # Attestation families run the cluster in attested mode: every
        # member is admitted by verified quote-backed evidence, through
        # a plane whose service/clock the scenario script can break.
        if family.attested:
            authority = SigningAuthority("rote-authority-chaos")
            self.plane = AttestationPlane(
                authority,
                freshness_window=CHAOS_ATTEST_FRESHNESS,
                cache_ttl=CHAOS_ATTEST_CACHE_TTL,
            )
        else:
            authority = None
            self.plane = None
        self.cluster = RoteCluster(
            f=scenario.f,
            network=self.network,
            authority=authority,
            cluster_id="chaos",
            seed=scenario.seed,
            attestation=self.plane,
        )
        self.config = LibSealConfig(
            flush_each_pair=True,
            rote_f=scenario.f,
            log_id=f"chaos-{scenario.family}-{scenario.seed}",
            max_unsealed_pairs=CHAOS_MAX_UNSEALED,
        )
        # Rotation families exercise the sealed-at-rest log path (the
        # re-seal pass must migrate the encrypted snapshot, and a
        # retired-epoch blob must fail closed at recovery); the other
        # families keep the plain in-memory snapshot they always had.
        self.storage_inner = InMemoryStorage()
        if family.sealed:
            self.log_enclave = make_log_enclave(self.cluster.authority)
            storage = SealedLogStorage(self.storage_inner, self.log_enclave)
        else:
            self.log_enclave = None
            storage = self.storage_inner
        self.libseal = LibSeal(
            MessagingSSM(),
            config=self.config,
            rote=self.cluster,
            storage=storage,
        )
        self.coordinator = KeyRotationCoordinator(self.libseal)
        # Posts only (fetch_ratio=0): a pair blocked by the audit buffer
        # still went through the service, and fetch-driven invariants
        # would then flag that divergence as a service violation — real,
        # but not the failure class this soak injects.
        self.workload = MessagingWorkload(
            self.libseal, channels=1, members=2, fetch_ratio=0.0,
            seed=scenario.seed,
        )
        self.crashed: set[int] = set()
        self.partitioned: set[int] = set()
        self.storm = False
        #: Attestation-service availability, as the script last set it.
        self.attest_down = False
        #: Replicas that restarted during an attestation outage: their
        #: mutual admission with the client is broken until they rejoin
        #: with the service back, so they cannot serve quorum traffic.
        self.unattested: set[int] = set()
        #: Replicas whose platform TCB the script revoked: evicted from
        #: the group, so unavailable for quorum purposes.
        self.revoked: set[int] = set()
        self.intruder_address = "chaos/intruder"
        self._intruder_registered = False
        self.stale_probes = 0
        self._head_max = 0
        self._snapshots: list[tuple[int, bytes]] = []

    # -- oracle helpers --------------------------------------------------

    def _epoch_stranded(self, i: int) -> bool:
        """A replica pinned on a pre-rotation build is silent for every
        current-epoch request — an availability fault, by design."""
        replica = self.cluster.nodes[i]
        return (
            replica.pinned is not None
            and replica.pinned < self.cluster.authority.current_epoch
        )

    def _availability_expected(self) -> bool:
        """Can the client currently be denied a quorum legitimately?"""
        reachable_live = sum(
            1
            for i in range(self.cluster.n)
            if i not in self.crashed
            and i not in self.partitioned
            and i not in self.unattested
            and i not in self.revoked
            and not self._epoch_stranded(i)
        )
        return reachable_live < self.cluster.quorum or self.storm

    def _head_counter(self) -> int:
        head = self.libseal.audit_log.signed_head
        return head.counter_value if head is not None else 0

    def _check_step(self, where: str) -> None:
        """Counter monotonicity: the signed head never moves backwards."""
        counter = self._head_counter()
        if counter < self._head_max:
            self._violate(
                f"head counter went backwards at {where}: "
                f"{counter} < {self._head_max}"
            )
        self._head_max = max(self._head_max, counter)

    def _record_snapshot(self) -> None:
        counter = self._head_counter()
        if counter and (
            not self._snapshots or self._snapshots[-1][0] != counter
        ):
            self._snapshots.append((counter, self.libseal.audit_log.serialize()))
            if len(self._snapshots) > SNAPSHOT_LIMIT:
                # Keep the oldest (most stale = strongest probe) + tail.
                del self._snapshots[1:2]

    # -- actions ---------------------------------------------------------

    def do_pairs(self, count: int) -> None:
        for _ in range(count):
            self._pair()

    def _pair(self) -> None:
        try:
            self.workload.post_once()
        except AuditBufferFullError:
            self.pairs_blocked += 1
            self._note("pair", "blocked", self._head_counter())
            if not self._availability_expected():
                self._violate("pair blocked while quorum was reachable")
            return
        except (RollbackError, IntegrityError) as exc:
            self._violate(
                f"integrity error without tampering: {type(exc).__name__}"
            )
            return
        self.pairs_ok += 1
        self._note(
            "pair",
            "degraded" if self.libseal.degraded.active else "ok",
            self._head_counter(),
        )
        if not self.libseal.degraded.active:
            self._record_snapshot()
        elif not self._availability_expected():
            # Sealing may only fail while faults can actually deny the
            # quorum; degradation in a healthy network is an audit bug.
            self._violate("entered degraded mode while quorum was reachable")

    def do_partition(self, cut: tuple[int, ...]) -> None:
        addresses = [self.cluster.nodes[i].address for i in cut]
        rest = [
            a
            for a in (
                self.cluster.client_address,
                *(r.address for r in self.cluster.nodes),
            )
            if a not in addresses
        ]
        self.network.partition(self.PARTITION_NAME, [addresses, rest])
        self.partitioned = set(cut)
        self._note("partition", tuple(cut))

    def do_heal(self) -> None:
        self.network.heal(self.PARTITION_NAME)
        self.partitioned = set()
        self.network.settle()
        self._note("heal")

    def do_crash(self, i: int) -> None:
        self.cluster.crash(i)
        self.crashed.add(i)
        self._note("crash", i)

    def do_restart(self, i: int) -> None:
        self.cluster.recover(i)
        self.crashed.discard(i)
        if self.plane is not None:
            # Rejoining behind a dead attestation service leaves the
            # replica unable to re-attest anyone — degraded, by design.
            if self.attest_down:
                self.unattested.add(i)
            else:
                self.unattested.discard(i)
        self._note("restart", i)

    def do_lie(self, i: int, shape: str) -> None:
        self.cluster.equivocate(i, shape=shape, seed=self.scenario.seed)
        self._note("lie", i, shape)

    def do_honest(self, i: int) -> None:
        self.cluster.set_lie(i, None)
        self._note("honest", i)

    def do_storm_on(self, loss: float, duplication: float, reorder: float) -> None:
        self.network.loss = loss
        self.network.duplication = duplication
        self.network.reorder = reorder
        self.storm = True
        self._note("storm_on", loss, duplication, reorder)

    def do_storm_off(self) -> None:
        self.network.loss = 0.0
        self.network.duplication = 0.0
        self.network.reorder = 0.0
        self.storm = False
        self.network.settle()
        self._note("storm_off")

    def do_reseal(self) -> None:
        """Bounded-liveness recovery: the oracle's liveness clock."""
        if not self.libseal.degraded.active:
            self.recovered_in = 0
            self._note("reseal", "not-degraded")
            return
        for attempt in range(1, LIVENESS_BOUND + 1):
            self.network.settle()
            if self.libseal.try_reseal():
                self.recovered_in = attempt
                self._note("reseal", "recovered", attempt)
                return
        if self._availability_expected():
            self._note("reseal", "still-faulted")
            return
        self._violate(
            f"liveness: still degraded {LIVENESS_BOUND} reseal attempts "
            "after all faults healed"
        )

    def do_probe_stale(self) -> None:
        """Replay an earlier snapshot: AuditLog must refuse the old head."""
        stale = next(
            (
                (counter, blob)
                for counter, blob in self._snapshots
                if counter < self._head_max
            ),
            None,
        )
        if stale is None:
            self._note("probe_stale", "no-material")
            return
        counter, blob = stale
        self.stale_probes += 1
        try:
            AuditLog.load(
                blob,
                self.libseal.signing_key,
                self.libseal.signing_key.public_key(),
                self.cluster,
            )
        except RollbackError:
            self._note("probe_stale", "rejected", counter)
            return
        except QuorumUnavailableError:
            if self._availability_expected():
                self._note("probe_stale", "inconclusive", counter)
                return
            self._violate("stale probe hit QuorumUnavailableError while healthy")
            return
        self._violate(
            f"stale log head (counter {counter}, live {self._head_max}) "
            "was accepted by AuditLog verification"
        )

    def do_verify(self) -> None:
        if self._availability_expected() or self.libseal.degraded.active:
            self._note("verify", "skipped")
            return
        try:
            self.libseal.verify_log()
        except RollbackError:
            self._violate("verify raised RollbackError without tampering")
            return
        except QuorumUnavailableError:
            self._violate("verify found no quorum while network was healthy")
            return
        live = self.cluster.retrieve(self.config.log_id)
        head = self._head_counter()
        if live != head:
            self._violate(
                f"live quorum counter {live} != signed head counter {head} "
                "after full recovery"
            )
            return
        self._note("verify", "ok", head)

    # -- rotation actions + oracle probes --------------------------------

    def do_rotate(self, reason: str) -> None:
        """Run the coordinator; an injected crash leaves the WAL behind."""
        try:
            report = self.coordinator.rotate(reason)
        except InjectedCrash:
            self._note(
                "rotate", "crashed", self.cluster.authority.current_epoch
            )
            return
        self._note(
            "rotate", "done", report.to_epoch,
            len(report.acks), tuple(report.retired),
        )

    def do_rotation_resume(self) -> None:
        """Replay a crashed rotation from its WAL entry (idempotent)."""
        report = self.coordinator.resume()
        if report is None:
            self._note("rotation_resume", "no-wal")
            return
        self._note(
            "rotation_resume", "replayed", report.to_epoch,
            len(report.acks), tuple(report.retired),
        )

    def do_force_retire(self) -> None:
        retired = self.coordinator.finish(force=True)
        self._note("force_retire", tuple(retired))

    def do_pin(self, i: int) -> None:
        self.cluster.nodes[i].pin()
        self._note("pin", i, self.cluster.nodes[i].epoch)

    def do_upgrade(self, i: int) -> None:
        """Upgrade a stranded replica's enclave build; audit the event."""
        replica = self.cluster.nodes[i]
        replica.upgrade("rote-counter-2.0")
        self.libseal.audit_log.append_event(
            "enclave_upgrade", f"replica {i} -> {replica.code_version}"
        )
        self._note("upgrade", i, replica.epoch)

    def do_probe_recover(self, expected: str) -> None:
        """Run crash recovery against a copy of the stored snapshot.

        While the quorum is stuck on a retired-epoch fault the outcome
        must be a fail-closed degradation (``expected``), never a
        rollback/tamper detection — rotation is not an attack.
        """
        clone = InMemoryStorage()
        clone._blob = self.storage_inner._blob
        clone._sidecars = dict(self.storage_inner._sidecars)
        storage = (
            SealedLogStorage(clone, self.log_enclave)
            if self.log_enclave is not None
            else clone
        )
        report = recover_log(
            storage,
            self.libseal.signing_key,
            self.libseal.signing_key.public_key(),
            self.cluster,
            log_id=self.config.log_id,
        )
        self._note("probe_recover", report.outcome.value)
        if report.outcome in DETECTED_OUTCOMES:
            self._violate(
                f"recovery misclassified an epoch fault as "
                f"{report.outcome.value} (expected {expected})"
            )
        elif report.outcome.value != expected:
            self._violate(
                f"recovery outcome {report.outcome.value}, expected {expected}"
            )

    def do_check_epoch(self) -> None:
        """Convergence oracle: one active epoch, no WAL, no stranded blobs."""
        authority = self.cluster.authority
        active = [
            epoch
            for epoch, entry in sorted(authority.epochs.items())
            if entry.state is EpochState.ACTIVE
        ]
        if active != [authority.current_epoch]:
            self._violate(
                f"epoch registry not converged: active={active}, "
                f"current={authority.current_epoch}"
            )
        if self.coordinator.pending():
            self._violate("rotation WAL entry outstanding after convergence")
        stranded = []
        for replica in self.cluster.nodes:
            if replica.sealed_state is None:
                continue
            blob = SealedBlob.decode(replica.sealed_state)
            if not authority.usable(blob.epoch):
                stranded.append((replica.node_id, blob.epoch))
        if stranded:
            self._violate(f"unsealable replica blobs after rotation: {stranded}")
        if self.log_enclave is not None and self.storage_inner._blob is not None:
            blob = SealedBlob.decode(self.storage_inner._blob)
            if not authority.usable(blob.epoch):
                self._violate(
                    f"sealed log snapshot stranded on epoch {blob.epoch}"
                )
        self._note("check_epoch", authority.current_epoch, len(authority.epochs))

    def do_check_replay(self) -> None:
        """Non-vacuousness: pre-rotation replays were actually refused."""
        if self.cluster.retired_rejections == 0:
            self._violate(
                "no retired-epoch attestation was rejected: the replay "
                "family exercised nothing"
            )
        self._note("check_replay", self.cluster.retired_rejections)

    # -- attestation actions + oracle probes ------------------------------

    def _intruder_sink(self, message, src: str) -> None:
        self._note("intruder_received", type(message).__name__)

    def _ensure_intruder(self) -> None:
        if not self._intruder_registered:
            self.network.register(self.intruder_address, self._intruder_sink)
            self._intruder_registered = True

    def _intruder_evidence(self, kind: str) -> bytes:
        """Forged/relabeled join evidence of the given tamper kind.

        Every kind except ``rogue`` starts from material that would pass
        policy untampered (registered platform, authority-signed
        enclave), so the tamper itself is provably what gets caught."""
        plane = self.plane
        epoch = self.cluster.authority.current_epoch
        now = plane.clock.now()
        if kind == "replay":
            # A legitimate replica's evidence, byte-identical, replayed
            # from the intruder's address: the address binding must kill it.
            victim = self.cluster.nodes[0]
            return plane.evidence_for(
                victim.address,
                victim.enclave,
                BINDING_ROTE_JOIN,
                victim.address.encode(),
            ).encode()
        enclave = make_node_enclave(
            "rote-counter-1.0", self.cluster.authority.name
        )
        binding = report_binding(
            BINDING_ROTE_JOIN, self.intruder_address.encode(), epoch, now
        )
        if kind == "rogue":
            # A platform the attestation service never provisioned: the
            # quote verifies locally but appraisal must reject it.
            quote = plane.rogue_platform("chaos-intruder").quote(enclave, binding)
            return AttestationEvidence(quote, epoch, now).encode()
        quote = plane.platform(self.intruder_address).quote(enclave, binding)
        if kind == "relabel":
            # Flip one measurement byte after signing: the attestation
            # key's signature no longer covers the quote body.
            tampered = bytes([quote.measurement[0] ^ 0x01]) + quote.measurement[1:]
            quote = Quote(
                tampered,
                quote.signer_measurement,
                quote.report_data,
                quote.platform_id,
                quote.signature,
            )
            return AttestationEvidence(quote, epoch, now).encode()
        if kind == "epoch_relabel":
            # Honest quote, dishonest wrapper: claim a different key
            # epoch than the one the report data binds.
            return AttestationEvidence(quote, epoch + 1, now).encode()
        raise SimulationError(f"unknown intruder kind {kind!r}")

    def do_intrude(self, kind: str) -> None:
        """The intruder asks everyone (replicas + client) to admit it."""
        self._ensure_intruder()
        evidence = self._intruder_evidence(kind)
        targets = [r.address for r in self.cluster.nodes]
        targets.append(self.cluster.client_address)
        for dst in targets:
            self.network.send(
                self.intruder_address, dst, JoinRequest(1, self.intruder_address, evidence)
            )
        self.network.settle()
        self._note("intrude", kind)

    def do_intrude_catchup(self) -> None:
        """The intruder probes catch-up both ways: asks replicas for
        their state, and offers a poisoned reply whose attestation is
        MAC-valid under the group key (a leaked-key scenario) — only the
        admission gate stands between it and adoption."""
        self._ensure_intruder()
        poisoned = CounterAttestation.sign(
            self.cluster.group_key,
            self.config.log_id,
            INTRUDER_POISON,
            epoch=self.cluster.epoch,
        )
        for replica in self.cluster.nodes:
            self.network.send(
                self.intruder_address, replica.address, CatchupRequest(op_id=999)
            )
            self.network.send(
                self.intruder_address,
                replica.address,
                CatchupReply(op_id=999, node_id=99, attestations=(poisoned,)),
            )
        self.network.settle()
        self._note("intrude_catchup")

    def do_attest_outage(self) -> None:
        self.plane.service.outage()
        self.attest_down = True
        self._note("attest_outage")

    def do_attest_restore(self) -> None:
        self.plane.service.restore()
        self.attest_down = False
        self._note("attest_restore")

    def do_clock_advance(self, seconds: float) -> None:
        self.plane.clock.advance(seconds)
        self._note("clock_advance", seconds)

    def do_tcb_revoke(self, i: int) -> None:
        address = self.cluster.nodes[i].address
        self.plane.service.set_tcb_status(
            self.plane.platform(address).platform_id, "revoked"
        )
        self.revoked.add(i)
        self._note("tcb_revoke", i)

    def do_check_intruder(self) -> None:
        """Non-vacuousness: every intrusion was counted, none landed."""
        gates = [self.cluster.admission] + [
            r.admission for r in self.cluster.nodes
        ]
        rejections = sum(g.admission_rejections for g in gates if g is not None)
        if rejections == 0:
            self._violate(
                "no admission rejection was recorded: the intruder "
                "exercised nothing"
            )
        admitted_anywhere = [
            g.name
            for g in gates
            if g is not None and g.is_admitted(self.intruder_address)
        ]
        if admitted_anywhere:
            self._violate(f"intruder admitted at {admitted_anywhere}")
        drops = sum(r.unadmitted_drops for r in self.cluster.nodes)
        if drops == 0:
            self._violate("intruder catch-up probes were not dropped/counted")
        poisoned = [
            (r.node_id, value)
            for r in self.cluster.nodes
            for value in r.counters.values()
            if value >= INTRUDER_POISON
        ]
        if poisoned:
            self._violate(f"poisoned catch-up value adopted: {poisoned}")
        served = sum(
            1 for event in self.trace if event[0] == "intruder_received"
        )
        if served:
            self._violate(
                f"replicas answered the un-admitted intruder {served} times"
            )
        self._note("check_intruder", rejections, drops)

    def do_check_outage(self, i: int) -> None:
        """Non-vacuousness: the rejoin under outage was fail-closed."""
        replica = self.cluster.nodes[i]
        if replica.admission is None:
            self._violate("outage check on an un-attested replica")
            return
        if replica.admission.admitted_addresses():
            self._violate(
                "replica re-admitted peers during the attestation outage: "
                f"{replica.admission.admitted_addresses()}"
            )
        if replica.unadmitted_drops == 0:
            self._violate(
                "replica adopted (or never received) catch-up replies it "
                "could not attest — expected counted drops"
            )
        refused = self.cluster.admission.admission_unavailable + sum(
            r.admission.admission_unavailable
            for r in self.cluster.nodes
            if r.admission is not None
        )
        if refused == 0:
            self._violate(
                "no admission was refused as unverifiable during the outage"
            )
        self._note(
            "check_outage", i, replica.unadmitted_drops, refused
        )

    def do_check_revoked(self, i: int) -> None:
        """Non-vacuousness: revocation evicted and discounted replica i."""
        address = self.cluster.nodes[i].address
        if self.cluster.admission.is_admitted(address):
            self._violate(f"revoked replica {i} still admitted at the client")
        if self.cluster.admission.revocations == 0:
            self._violate("client revalidation evicted nothing after the TCB change")
        peer_evictions = sum(
            r.admission.revocations
            for r in self.cluster.nodes
            if r.admission is not None
        )
        if peer_evictions == 0:
            self._violate("no peer evicted the revoked replica")
        if self.cluster.replies_unadmitted == 0:
            self._violate(
                "the revoked replica's replies were never discounted — "
                "the family exercised nothing"
            )
        self._note(
            "check_revoked", i,
            self.cluster.admission.revocations,
            self.cluster.replies_unadmitted,
        )

    # -- the run ---------------------------------------------------------

    def _final_check(self) -> None:
        if self._availability_expected():
            self._violate("scenario script ended with active faults")
        if self.libseal.degraded.active:
            self._violate("scenario ended degraded: liveness not restored")
        if self.pairs_ok == 0:
            self._violate("scenario completed no successful pairs")


# ----------------------------------------------------------------------
# The family table
# ----------------------------------------------------------------------


class Family(NamedTuple):
    """One chaos family: its whole definition, in one row."""

    description: str
    #: ``script(rng, f, n)``: the action tuples the harness runs.
    script: Callable[[random.Random, int, int], list]
    #: ``plan(family, rng, f, n)``: the fault plan, drawn after the script.
    plan: Callable[..., FaultPlan] | None = None
    harness: type[ScenarioHarness] = ChaosHarness
    #: ROTE world: every member admitted by verified quote evidence.
    attested: bool = False
    #: ROTE world: the log snapshot sealed at rest, so rotation must
    #: migrate it and recovery must refuse a retired-epoch blob.
    sealed: bool = False


#: Every chaos family. This table is the single source of truth:
#: ``FAMILIES``, ``FAMILY_DESCRIPTIONS`` and the harness each scenario
#: runs under derive from it, ``python -m repro chaos --list-families``
#: prints it, and the README's family table is generated from it (and
#: checked for drift in CI).
FAMILY_TABLE = {
    "partition-minority": Family(
        "Partition f replicas away; the quorum keeps serving throughout.",
        _script_partition_minority,
    ),
    "partition-majority": Family(
        "Partition a majority away; pairs block explicitly, then heal.",
        _script_partition_majority,
    ),
    "restart-storm": Family(
        "Crash/restart waves across replicas; sealed state resumes exactly.",
        _script_restart_storm,
    ),
    "restart-mid-increment": Family(
        "Kill a replica between quorum rounds of a live counter increment.",
        _script_restart_mid_increment,
        plan=_plan_restart_mid_increment,
    ),
    "byzantine": Family(
        "Equivocating replicas lie about counters; quorum certification holds.",
        _script_byzantine,
    ),
    "message-storm": Family(
        "Loss, duplication and reorder on every link; retries stay exact.",
        _script_message_storm,
    ),
    "kitchen-sink": Family(
        "Partitions, restarts, lies and storms stacked in one scenario.",
        _script_kitchen_sink,
    ),
    "rotation-crash": Family(
        "Crash the key-rotation WAL at a random checkpoint; replay converges.",
        _script_rotation_crash,
        plan=_crash_plan(ROTATION_SITE, ROTATION_CHECKPOINTS),
        sealed=True,
    ),
    "rotation-stale-replica": Family(
        "Strand f+1 replicas on a pre-rotation build; degrade, then retire.",
        _script_rotation_stale_replica,
        sealed=True,
    ),
    "rotation-byzantine-replay": Family(
        "Replay retired-epoch counter claims; every one is rejected.",
        _script_rotation_byzantine_replay,
        sealed=True,
    ),
    "attest-forged-join": Family(
        "Forged/replayed join evidence probes every admission gate.",
        _script_attest_forged_join,
        attested=True,
    ),
    "attest-outage-restart": Family(
        "Attestation outage during a rejoin; catch-up stays fail-closed.",
        _script_attest_outage_restart,
        attested=True,
    ),
    "attest-revoked-tcb": Family(
        "TCB revocation mid-run evicts and discounts the revoked replica.",
        _script_attest_revoked_tcb,
        attested=True,
    ),
    "shard-split-crash": Family(
        "Crash a shard split at every rebalance checkpoint; WAL replay "
        "converges to one owner per range.",
        _script_shard_split_crash,
        plan=_crash_plan(SHARD_SITE, SHARD_CHECKPOINTS),
        harness=ShardChaosHarness,
    ),
    "shard-merge-stale": Family(
        "Merge a shard stranded on a retired epoch; the change fails "
        "closed, degrades, and never rolls back claims.",
        _script_shard_merge_stale,
        harness=ShardChaosHarness,
    ),
    "shard-rebalance-byzantine": Family(
        "An old owner keeps answering for a migrated range and replays "
        "its transfer; both are dropped and counted.",
        _script_shard_rebalance_byzantine,
        harness=ShardChaosHarness,
    ),
}

FAMILIES = tuple(FAMILY_TABLE)

FAMILY_DESCRIPTIONS = {
    name: family.description for name, family in FAMILY_TABLE.items()
}


def family_table_markdown() -> str:
    """The README's chaos-family table, generated so it cannot drift."""
    lines = ["| Family | What it proves |", "| --- | --- |"]
    for family, description in FAMILY_DESCRIPTIONS.items():
        lines.append(f"| `{family}` | {description} |")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Soak entry points
# ----------------------------------------------------------------------


def build_scenario(family: str, seed: int, f: int = 1) -> ChaosScenario:
    if family not in FAMILY_TABLE:
        raise SimulationError(f"unknown chaos family {family!r}; one of {FAMILIES}")
    row = FAMILY_TABLE[family]
    rng = _rng(family, seed)
    n = 3 * f + 1
    actions = tuple(row.script(rng, f, n))
    plan = row.plan(family, rng, f, n) if row.plan is not None else None
    return ChaosScenario(family=family, seed=seed, f=f, actions=actions, plan=plan)


def run_scenario(family: str, seed: int, f: int = 1) -> ScenarioVerdict:
    """Build and run one seeded scenario under its family's harness."""
    scenario = build_scenario(family, seed, f=f)
    return FAMILY_TABLE[family].harness(scenario).run()


def run_soak(
    families: tuple[str, ...] = FAMILIES,
    seeds_per_family: int = 5,
    seed_base: int = 0,
    f: int = 1,
) -> list[ScenarioVerdict]:
    """The full soak: every family × ``seeds_per_family`` seeds."""
    verdicts = []
    for family in families:
        for offset in range(seeds_per_family):
            verdicts.append(run_scenario(family, seed_base + offset, f=f))
    return verdicts
