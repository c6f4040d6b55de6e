"""The sharded audit plane: one coordinator, N enclave-backed shards.

:class:`ShardPlane` is a drop-in for a single :class:`~repro.core.LibSeal`
instance from the workload's point of view (``log_pair`` in, invariant
verdicts out) but fans the audit log out over consistent-hash-routed
shard enclaves:

- **routing**: every request/response pair is keyed (for the messaging
  SSM, by channel), hashed onto the ring and logged by exactly the
  owning shard. Writes to a range that is mid-rebalance raise
  :class:`~repro.errors.RangeUnavailableError` — blocked, never
  misplaced;
- **membership**: the plane's control audit log (its own hash chain,
  signed head and ROTE group) carries the audited membership history via
  :class:`~repro.shard.membership.MembershipLog`, and the
  :class:`~repro.shard.rebalance.Rebalancer` drives WAL-replayed,
  fail-closed changes over it;
- **checking**: invariants evaluate by scatter/gather — a
  generation-stamped :class:`~repro.shard.instance.CheckCommand` to
  every shard, replies merged into one verdict. A reply claiming a
  stale generation or ranges the ring no longer grants (a Byzantine old
  owner still answering for a migrated range) is dropped and counted,
  never merged.

The plane's oracle helpers (:meth:`placement_problems`,
:meth:`pair_accounting`) make "exactly one owner per range, zero lost or
duplicated pairs" directly checkable by the chaos suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.audit.admission import AdmissionController
from repro.audit.log import AuditLog
from repro.audit.persistence import InMemoryStorage
from repro.audit.rote import RoteCluster
from repro.core.checker import CheckOutcome
from repro.crypto.drbg import HmacDrbg
from repro.crypto.ecdsa import EcdsaPrivateKey, EcdsaPublicKey
from repro.crypto.hashing import sha256_hex
from repro.errors import (
    AttestationError,
    AttestationUnavailableError,
    RangeUnavailableError,
    SimulationError,
)
from repro.http import HttpRequest, HttpResponse
from repro.obs import hooks as _obs
from repro.sgx.ratls import (
    BINDING_ROTE_JOIN,
    AttestationPlane,
    make_node_enclave,
)
from repro.sgx.sealing import SigningAuthority
from repro.shard.instance import (
    CheckCommand,
    CheckReply,
    RangeImportAck,
    ShardInstance,
    ShardJoin,
    ShardJoinAck,
)
from repro.shard.membership import MembershipLog
from repro.shard.provisioner import Provisioner
from repro.shard.rebalance import Rebalancer
from repro.shard.router import DEFAULT_VNODES, ShardRouter
from repro.sim.network import SimNetwork
from repro.ssm.messaging import MessagingSSM

#: Code identity the plane coordinator enclave attests to.
PLANE_CODE_IDENTITY = "libseal-plane-1.0"

#: Column index of the routing key in each messaging SSM table.
MESSAGING_ROUTE_COLUMNS = {
    "posts": 1,
    "deliveries": 1,
    "fetches": 1,
    "members": 1,
}


def messaging_route_key(request: HttpRequest) -> str:
    """The channel name from a messaging path (``/channels/<ch>/...``)."""
    segments = request.path.split("?", 1)[0].split("/")
    if len(segments) >= 3 and segments[1] == "channels":
        return segments[2]
    return request.path


@dataclass
class ShardCheckOutcome:
    """A merged scatter/gather verdict plus its coverage record."""

    outcome: CheckOutcome
    per_shard: dict[str, CheckReply]
    #: Shards whose reply was dropped for claiming stale ownership.
    dropped_stale: list[str]
    #: Shards that contributed no accepted reply (dropped or silent) —
    #: their ranges are *unchecked* this pass, which is never "ok".
    unchecked: list[str]
    generation: int

    @property
    def ok(self) -> bool:
        return self.outcome.ok and not self.unchecked

    @property
    def total_violations(self) -> int:
        return self.outcome.total_violations


class ShardPlane:
    """An elastic, enclave-sharded LibSeal audit plane."""

    def __init__(
        self,
        ssm_factory=MessagingSSM,
        *,
        plane_id: str = "plane",
        shards: tuple[str, ...] = ("shard-0", "shard-1"),
        network: SimNetwork | None = None,
        authority: SigningAuthority | None = None,
        attestation: AttestationPlane | None = None,
        f: int = 1,
        seed: int = 7,
        vnodes: int = DEFAULT_VNODES,
        max_unsealed_pairs: int = 64,
        route_columns: dict[str, int] | None = None,
        route_key=messaging_route_key,
    ):
        if not shards:
            raise SimulationError("a plane needs at least one shard")
        self.plane_id = plane_id
        self.ssm_factory = ssm_factory
        self.f = f
        self.seed = seed
        self.max_unsealed_pairs = max_unsealed_pairs
        self.route_columns = route_columns or dict(MESSAGING_ROUTE_COLUMNS)
        self.route_key = route_key
        self.network = network or SimNetwork(seed=seed)
        self.authority = authority or SigningAuthority(f"{plane_id}-authority")
        self.attestation = attestation or AttestationPlane(self.authority)
        self.address = f"{plane_id}/coordinator"
        self.enclave = make_node_enclave(PLANE_CODE_IDENTITY, self.authority.name)
        self.signing_key = EcdsaPrivateKey.generate(
            HmacDrbg(seed=f"plane-{plane_id}".encode())
        )
        self.admission = AdmissionController(
            self.attestation.verifier(self.address), name=self.address
        )
        self.router = ShardRouter(plane_id, vnodes=vnodes)
        #: Verification keys of admitted shards (filled at provisioning,
        #: emptied at decommission) — what import targets check
        #: range-manifest signatures against.
        self.directory: dict[str, EcdsaPublicKey] = {}
        self.instances: dict[str, ShardInstance] = {}
        # The control log: the plane's own tamper-evident history
        # (membership records), anchored by its own ROTE group.
        self.control_cluster = RoteCluster(
            f=f,
            network=self.network,
            authority=self.authority,
            cluster_id=f"{plane_id}/control-rote",
            seed=seed,
        )
        self.control_storage = InMemoryStorage()
        self.control_log = AuditLog(
            "",
            self.signing_key,
            self.control_cluster,
            log_id=f"{plane_id}/control",
            storage=self.control_storage,
        )
        self.membership = MembershipLog(self.control_log)
        self._op_seq = 0
        self._acks: list[RangeImportAck] = []
        self._check_replies: dict[int, list[tuple[CheckReply, str]]] = {}
        self.join_rejections = 0
        self.stale_owner_drops = 0
        self.pairs_routed = 0
        self.tuples_routed = 0
        #: Plane-wide logical clock: every shard's pairs are stamped
        #: from one monotone sequence, so time-ordering invariants keep
        #: holding after a channel's history migrates between shards.
        self.clock = 0
        self.pairs_blocked_moving = 0
        self.network.register(self.address, self._on_message)
        self.provisioner = Provisioner(self)
        self.rebalancer = Rebalancer(self)
        for shard_id in shards:
            self.provisioner.provision(shard_id)
        self.router.bootstrap(list(shards))
        self.push_ownership()
        self.control_log.append_event(
            "shard_bootstrap", f"members {','.join(sorted(shards))}"
        )
        self.seal_control()

    # ------------------------------------------------------------------
    # Coordinator plumbing
    # ------------------------------------------------------------------

    def next_op(self) -> int:
        self._op_seq += 1
        return self._op_seq

    def seal_control(self) -> None:
        self.control_log.seal_epoch()

    def push_ownership(self) -> None:
        """Hand every live shard its post-cutover ownership view."""
        for shard_id, instance in self.instances.items():
            instance.adopt_ownership(
                tuple(self.router.ranges_of(shard_id)), self.router.generation
            )

    def _plane_evidence(self) -> bytes:
        return self.attestation.evidence_for(
            self.address, self.enclave, BINDING_ROTE_JOIN, self.address.encode()
        ).encode()

    def _on_message(self, message, src: str) -> None:
        if isinstance(message, ShardJoin):
            try:
                self.admission.admit(message.address, message.evidence)
            except (AttestationError, AttestationUnavailableError):
                self.join_rejections += 1
                return  # fail closed: no ack, no admission
            self.network.send(
                self.address,
                message.address,
                ShardJoinAck(
                    op_id=message.op_id,
                    address=self.address,
                    evidence=self._plane_evidence(),
                ),
            )
        elif isinstance(message, RangeImportAck):
            self._acks.append(message)
        elif isinstance(message, CheckReply):
            self._check_replies.setdefault(message.op_id, []).append(
                (message, src)
            )

    def take_ack(
        self, change_id: str, source_id: str, target_id: str
    ) -> RangeImportAck | None:
        """Pop the matching import ack (latest wins), if one arrived."""
        found = None
        for ack in self._acks:
            if (
                ack.change_id == change_id
                and ack.source_shard == source_id
                and ack.target_shard == target_id
            ):
                found = ack
        if found is not None:
            self._acks.remove(found)
        return found

    # ------------------------------------------------------------------
    # The LibSeal-compatible logging surface
    # ------------------------------------------------------------------

    def log_pair(
        self, request: HttpRequest, response: HttpResponse, handle: int = 0
    ) -> str | None:
        """Route one pair to the shard owning its key (fail-closed)."""
        key = self.route_key(request)
        point = self.router.point(key)
        for rng in self.rebalancer.frozen:
            if rng.contains(point):
                self.pairs_blocked_moving += 1
                raise RangeUnavailableError(
                    f"range {rng.describe()} is mid-rebalance; "
                    f"pair for key {key!r} blocked, not misplaced"
                )
        shard_id = self.router.owner_of_point(point)
        instance = self.instances[shard_id]
        before = instance.payload_count()
        instance.libseal.logical_time = self.clock
        try:
            result = instance.libseal.log_pair(request, response, handle)
        finally:
            self.tuples_routed += instance.payload_count() - before
            self.clock = max(self.clock, instance.libseal.logical_time)
        self.pairs_routed += 1
        if _obs.ON:
            _obs.active().metrics.counter(
                "shard_pairs_routed_total",
                "Pairs routed to shards",
                shard=shard_id,
            ).inc()
        return result

    # ------------------------------------------------------------------
    # Scatter/gather invariant checking
    # ------------------------------------------------------------------

    def check_invariants(self, force_full: bool = False) -> ShardCheckOutcome:
        """One networked check pass over every shard, merged."""
        op_id = self.next_op()
        expected = {
            shard_id: instance
            for shard_id, instance in self.instances.items()
            if not instance.decommissioned
        }
        for instance in expected.values():
            self.network.send(
                self.address,
                instance.address,
                CheckCommand(
                    op_id=op_id,
                    generation=self.router.generation,
                    force_full=force_full,
                    reply_to=self.address,
                ),
            )
        self.network.settle()
        merged: dict[str, list[tuple]] = {}
        stats: list = []
        elapsed = 0.0
        per_shard: dict[str, CheckReply] = {}
        dropped: list[str] = []
        for reply, src in self._check_replies.pop(op_id, []):
            instance = expected.get(reply.shard_id)
            if instance is None or src != instance.address:
                self.stale_owner_drops += 1
                continue
            granted = tuple(self.router.ranges_of(reply.shard_id))
            if (
                reply.generation != self.router.generation
                or tuple(reply.claimed_ranges) != granted
            ):
                # A stale claim of ownership: drop, count, never merge.
                self.stale_owner_drops += 1
                dropped.append(reply.shard_id)
                continue
            per_shard[reply.shard_id] = reply
            for name, rows in reply.violations.items():
                merged.setdefault(name, []).extend(rows)
            stats.extend(reply.invariant_stats)
            elapsed += reply.elapsed_seconds
        unchecked = sorted(set(expected) - set(per_shard))
        return ShardCheckOutcome(
            outcome=CheckOutcome(merged, elapsed, tuple(stats)),
            per_shard=per_shard,
            dropped_stale=dropped,
            unchecked=unchecked,
            generation=self.router.generation,
        )

    def scatter_query(self, sql: str, params: tuple = ()) -> list[tuple]:
        """Run one read-only statement on every shard; merged rows."""
        rows: list[tuple] = []
        for instance in self.instances.values():
            if not instance.decommissioned:
                rows.extend(instance.libseal.audit_log.db.execute(sql, params))
        return rows

    # ------------------------------------------------------------------
    # Plane-wide audit health
    # ------------------------------------------------------------------

    def degraded_shards(self) -> list[str]:
        return sorted(
            shard_id
            for shard_id, instance in self.instances.items()
            if instance.libseal.degraded.active
        )

    def verify_all(self) -> None:
        """Full verification of every shard log and the control log."""
        for instance in self.instances.values():
            instance.libseal.verify_log()
        self.control_log.verify(self.signing_key.public_key())

    def head_counters(self) -> dict[str, int]:
        counters = {}
        for shard_id, instance in self.instances.items():
            head = instance.libseal.audit_log.signed_head
            counters[shard_id] = head.counter_value if head else 0
        return counters

    # ------------------------------------------------------------------
    # Chaos oracles
    # ------------------------------------------------------------------

    def placement_problems(self) -> list[str]:
        """Every violation of "exactly one owner per range".

        Checks the ring tiling itself, then that every payload tuple a
        shard holds routes into a range the ring currently grants it.
        """
        problems = list(self.router.coverage_gaps())
        for shard_id, instance in self.instances.items():
            granted = self.router.ranges_of(shard_id)
            for table, values in instance.libseal.audit_log._payloads:
                point = instance.route_point(table, values)
                if point is None:
                    continue
                if not any(rng.contains(point) for rng in granted):
                    problems.append(
                        f"{shard_id} holds a {table} tuple at "
                        f"{point:#x} outside its granted ranges"
                    )
        return problems

    def pair_accounting(self) -> list[str]:
        """Every violation of "zero lost or duplicated audit tuples".

        The total payload population across shards must equal what the
        router accepted, and no tuple may exist twice (a replayed
        transfer that landed) or nowhere (a migrated range whose move
        was lost).
        """
        problems = []
        digests: dict[str, list[str]] = {}
        total = 0
        for shard_id, instance in self.instances.items():
            for table, values in instance.libseal.audit_log._payloads:
                if instance.route_point(table, values) is None:
                    continue
                total += 1
                digest = sha256_hex(repr((table, tuple(values))).encode())
                digests.setdefault(digest, []).append(shard_id)
        for digest, holders in digests.items():
            if len(holders) > 1:
                problems.append(
                    f"tuple {digest[:12]} duplicated across {sorted(holders)}"
                )
        if total != self.tuples_routed:
            problems.append(
                f"{total} tuples held vs {self.tuples_routed} routed "
                f"({'lost' if total < self.tuples_routed else 'duplicated'})"
            )
        return problems
