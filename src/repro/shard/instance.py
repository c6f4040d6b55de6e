"""One enclave-backed shard of the audit plane, plus its wire protocol.

A :class:`ShardInstance` is a full LibSeal stack — its own SSM database,
hash chain, signed head, sealed snapshot and *its own ROTE counter
group* — listening on one `sim/network.py` address. Everything a shard
does for the plane happens by message passing:

- it joins the plane with quote-backed RA-TLS evidence bound to its
  address (:class:`ShardJoin` / :class:`ShardJoinAck`, mutual);
- it exports log ranges on command (:class:`RangeExportCommand` →
  :class:`RangeTransfer`), shipping the moved tuples together with a
  *splice chain* — a fresh hash chain over exactly the moved
  subsequence — and a :class:`RangeManifest` signing the splice head,
  tuple count, ROTE counter value and key epoch;
- it imports transfers fail-closed: the manifest signature, the
  recomputed splice head, the range containment of every tuple and the
  epoch's liveness are all verified *before* a single tuple is
  appended, an audited ``range_import`` marker makes replays
  idempotent, and any shortfall is acked as ``freshness-unverifiable``
  or ``integrity`` — never silently accepted;
- it answers scatter/gather check commands with its local incremental
  checker's verdict, stamped with the ownership generation it believes
  in (a stale claim is the gather layer's problem to drop and count).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.audit.admission import AdmissionController
from repro.audit.hashchain import (
    HashChain,
    SignedRecord,
    hash_field,
    text_field,
    uint_field,
)
from repro.audit.persistence import InMemoryStorage
from repro.audit.rote import RoteCluster
from repro.core.checker import InvariantRunStats
from repro.core.libseal import LibSeal, LibSealConfig
from repro.crypto.drbg import HmacDrbg
from repro.crypto.ecdsa import EcdsaPrivateKey, EcdsaPublicKey, EcdsaSignature
from repro.crypto.hashing import sha256
from repro.errors import (
    AttestationError,
    AttestationUnavailableError,
    IntegrityError,
)
from repro.obs import hooks as _obs
from repro.sgx.ratls import (
    BINDING_ROTE_JOIN,
    AttestationPlane,
    make_node_enclave,
)
from repro.sgx.sealing import SigningAuthority
from repro.shard.router import HashRange
from repro.sim.network import SimNetwork
from repro.ssm.base import ServiceSpecificModule

#: Audited marker event a target appends once a transfer is applied —
#: the idempotency guard that makes crash-replayed (and Byzantine
#: re-sent) transfers drop instead of duplicating audit pairs.
IMPORT_EVENT = "range_import"

#: Code identity every shard enclave must attest to.
SHARD_CODE_IDENTITY = "libseal-shard-1.0"


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShardJoin:
    """A shard presents join evidence to the plane coordinator."""

    op_id: int
    address: str
    evidence: bytes


@dataclass(frozen=True)
class ShardJoinAck:
    """The coordinator's counter-evidence (mutual attestation)."""

    op_id: int
    address: str
    evidence: bytes


@dataclass(frozen=True)
class RangeExportCommand:
    """Coordinator → source shard: export these ranges to ``target``."""

    change_id: str
    ranges: tuple[HashRange, ...]
    target_shard: str
    target_address: str
    reply_to: str


@dataclass(frozen=True)
class RangeTransfer:
    """Source → target: the moved tuples plus their splice proof."""

    change_id: str
    source_shard: str
    ranges: tuple[HashRange, ...]
    payloads: tuple[tuple[str, tuple], ...]
    manifest: "RangeManifest"
    reply_to: str


@dataclass(frozen=True)
class RangeImportAck:
    """Target → coordinator: verified import outcome (never silent)."""

    change_id: str
    source_shard: str
    target_shard: str
    #: ``ok`` | ``duplicate`` | ``freshness-unverifiable`` | ``integrity``
    status: str
    reason: str = ""
    tuples: int = 0


@dataclass(frozen=True)
class CheckCommand:
    """Coordinator → every shard: run your incremental checker now."""

    op_id: int
    generation: int
    force_full: bool
    reply_to: str


@dataclass(frozen=True)
class CheckReply:
    """One shard's merged-verdict contribution, generation-stamped."""

    op_id: int
    shard_id: str
    generation: int
    claimed_ranges: tuple[HashRange, ...]
    violations: dict[str, list[tuple]]
    invariant_stats: tuple[InvariantRunStats, ...]
    elapsed_seconds: float


@dataclass(frozen=True)
class DecommissionCommand:
    """Coordinator → shard: leave the plane (terminal)."""

    change_id: str


@dataclass(frozen=True)
class RangeManifest(SignedRecord):
    """The signed splice proof accompanying one range transfer.

    Binds the moved subsequence (splice head + tuple count) to the
    source's identity, its quorum-certified counter value and the key
    epoch it operates under. The target re-derives the splice head from
    the received tuples; the coordinator cross-checks ``counter_value``
    against a live quorum retrieve on the source's ROTE group.
    """

    DOMAIN = b"RANGE-MANIFEST"
    NAME = "range manifest"

    change_id: str = text_field()
    source_shard: str = text_field()
    target_shard: str = text_field()
    ranges_digest: bytes = hash_field()
    splice_head: bytes = hash_field()
    tuple_count: int = uint_field(8)
    counter_value: int = uint_field(8)
    epoch: int = uint_field(4)
    signature: EcdsaSignature

    @staticmethod
    def digest_ranges(ranges: tuple[HashRange, ...]) -> bytes:
        doc = b"".join(
            # 9 bytes: hi is inclusive of RING_SIZE (= 2**64) itself.
            rng.lo.to_bytes(9, "big") + rng.hi.to_bytes(9, "big")
            for rng in sorted(ranges, key=lambda r: r.lo)
        )
        return sha256(b"SHARD-RANGES\x00" + doc)


def splice_head_of(payloads) -> bytes:
    """Head of a fresh hash chain over exactly ``payloads`` in order."""
    chain = HashChain()
    for table, values in payloads:
        chain.append(table, list(values))
    return chain.head


# ----------------------------------------------------------------------
# The shard
# ----------------------------------------------------------------------


class ShardInstance:
    """One enclave-backed LibSeal shard on the plane's message network."""

    def __init__(
        self,
        plane_id: str,
        shard_id: str,
        network: SimNetwork,
        authority: SigningAuthority,
        attestation: AttestationPlane,
        ssm_factory: Callable[[], ServiceSpecificModule],
        route_columns: dict[str, int],
        hash_key: Callable[[str], int],
        directory: dict[str, EcdsaPublicKey],
        f: int = 1,
        seed: int = 0,
        max_unsealed_pairs: int = 64,
    ):
        self.plane_id = plane_id
        self.shard_id = shard_id
        self.address = f"{plane_id}/{shard_id}"
        self.network = network
        self.authority = authority
        self.attestation = attestation
        self.route_columns = {t.lower(): c for t, c in route_columns.items()}
        self.hash_key = hash_key
        self.directory = directory
        self.enclave = make_node_enclave(SHARD_CODE_IDENTITY, authority.name)
        self.signing_key = EcdsaPrivateKey.generate(
            HmacDrbg(seed=f"shard-{plane_id}-{shard_id}".encode())
        )
        #: This shard's own ROTE counter group (per-shard freshness).
        self.cluster = RoteCluster(
            f=f,
            network=network,
            authority=authority,
            cluster_id=f"{self.address}/rote",
            seed=seed,
        )
        self.config = LibSealConfig(
            flush_each_pair=True,
            rote_f=f,
            log_id=self.address,
            max_unsealed_pairs=max_unsealed_pairs,
        )
        self.storage = InMemoryStorage()
        self.libseal = LibSeal(
            ssm_factory(),
            config=self.config,
            signing_key=self.signing_key,
            rote=self.cluster,
            storage=self.storage,
        )
        #: Ownership view, as last pushed by the coordinator at cutover.
        self.owned_ranges: tuple[HashRange, ...] = ()
        self.generation = 0
        #: Byzantine toggle: a stale claimer keeps answering with this
        #: frozen (generation, ranges) view instead of adopting pushes.
        self.stale_claim: tuple[int, tuple[HashRange, ...]] | None = None
        self.decommissioned = False
        self.plane_admitted = False
        self.imports_applied = 0
        self.tuples_imported = 0
        #: Re-sent transfers refused by the import marker (Byzantine
        #: replays and crash-replay retries alike — both must not land).
        self.duplicate_transfer_drops = 0
        #: Transfers this shard sent, retained so the Byzantine family
        #: can model an old owner replaying its exports after cutover.
        self.sent_transfers: list[tuple[str, RangeTransfer]] = []
        #: Fail-closed gate on the coordinator's identity (mutual RA-TLS).
        self.admission = AdmissionController(
            attestation.verifier(self.address), name=self.address
        )
        self.network.register(self.address, self._on_message)

    # ------------------------------------------------------------------
    # Identity / admission
    # ------------------------------------------------------------------

    def join_evidence(self) -> bytes:
        """Fresh quote-backed evidence binding this shard's address."""
        return self.attestation.evidence_for(
            self.address, self.enclave, BINDING_ROTE_JOIN, self.address.encode()
        ).encode()

    def claimed_view(self) -> tuple[int, tuple[HashRange, ...]]:
        if self.stale_claim is not None:
            return self.stale_claim
        return (self.generation, self.owned_ranges)

    def adopt_ownership(
        self, ranges: tuple[HashRange, ...], generation: int
    ) -> None:
        """Cutover push from the coordinator (ignored by a stale claimer,
        which is exactly what makes it detectable downstream)."""
        if self.stale_claim is not None:
            return
        self.owned_ranges = tuple(ranges)
        self.generation = generation

    # ------------------------------------------------------------------
    # Routing keys
    # ------------------------------------------------------------------

    def route_point(self, table: str, values) -> int | None:
        """Ring position of one payload tuple (None = shard-local)."""
        column = self.route_columns.get(table.lower())
        if column is None or column >= len(values):
            return None
        return self.hash_key(str(values[column]))

    def _in_ranges(self, point: int | None, ranges) -> bool:
        return point is not None and any(r.contains(point) for r in ranges)

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------

    def _on_message(self, message, src: str) -> None:
        if self.decommissioned:
            return
        if isinstance(message, RangeExportCommand):
            self._on_export(message)
        elif isinstance(message, RangeTransfer):
            self._on_transfer(message)
        elif isinstance(message, CheckCommand):
            self._on_check(message)
        elif isinstance(message, DecommissionCommand):
            self.decommission()
        elif isinstance(message, ShardJoinAck):
            self._on_join_ack(message, src)

    def _on_join_ack(self, ack: ShardJoinAck, src: str) -> None:
        # Mutual attestation: the shard verifies the *plane's* evidence
        # before trusting any coordinator command.
        try:
            self.admission.admit(src, ack.evidence)
        except (AttestationError, AttestationUnavailableError):
            self.plane_admitted = False
            return
        self.plane_admitted = True

    # -- export ---------------------------------------------------------

    def export_payloads(
        self, ranges: tuple[HashRange, ...]
    ) -> tuple[tuple[str, tuple], ...]:
        """The log's tuples inside ``ranges``, in append order.

        Lifecycle events (``libseal_events``) are shard-local history
        and never migrate.
        """
        return tuple(
            (table, values)
            for table, values in self.libseal.audit_log.payloads()
            if self._in_ranges(self.route_point(table, values), ranges)
        )

    def _on_export(self, command: RangeExportCommand) -> None:
        payloads = self.export_payloads(command.ranges)
        head = self.libseal.audit_log.signed_head
        manifest = RangeManifest.sign(
            self.signing_key,
            change_id=command.change_id,
            source_shard=self.shard_id,
            target_shard=command.target_shard,
            ranges_digest=RangeManifest.digest_ranges(command.ranges),
            splice_head=splice_head_of(payloads),
            tuple_count=len(payloads),
            counter_value=head.counter_value if head is not None else 0,
            epoch=self.authority.current_epoch,
        )
        transfer = RangeTransfer(
            change_id=command.change_id,
            source_shard=self.shard_id,
            ranges=command.ranges,
            payloads=payloads,
            manifest=manifest,
            reply_to=command.reply_to,
        )
        self.sent_transfers.append((command.target_address, transfer))
        self.network.send(self.address, command.target_address, transfer)

    # -- import ---------------------------------------------------------

    def _import_marker(self, transfer: RangeTransfer) -> str:
        return f"{transfer.change_id} {transfer.source_shard}->{self.shard_id}"

    def _ack(self, transfer: RangeTransfer, status: str,
             reason: str = "", tuples: int = 0) -> None:
        if _obs.ON:
            _obs.active().metrics.counter(
                "shard_transfer_acks_total",
                "Range-transfer import outcomes",
                status=status,
            ).inc()
        self.network.send(
            self.address,
            transfer.reply_to,
            RangeImportAck(
                change_id=transfer.change_id,
                source_shard=transfer.source_shard,
                target_shard=self.shard_id,
                status=status,
                reason=reason,
                tuples=tuples,
            ),
        )

    def _on_transfer(self, transfer: RangeTransfer) -> None:
        marker = self._import_marker(transfer)
        if self.libseal.audit_log.has_event(IMPORT_EVENT, marker):
            # Already applied. A crash-replay retry only needs the seal
            # finished; anything else re-sending an applied transfer is
            # dropped and counted, never re-imported.
            if self.libseal.degraded.active:
                sealed = self.libseal.try_reseal()
                self._ack(transfer, "ok" if sealed else "freshness-unverifiable",
                          reason="" if sealed else "import unsealed")
                return
            self.duplicate_transfer_drops += 1
            self._ack(transfer, "duplicate", reason="import marker present")
            return

        # Verify *everything* before appending anything: a transfer that
        # fails any proof leaves this log byte-identical to before.
        manifest = transfer.manifest
        source_key = self.directory.get(transfer.source_shard)
        if source_key is None:
            self._ack(transfer, "integrity", reason="unknown source shard")
            return
        try:
            manifest.verify(source_key)
        except IntegrityError as exc:
            self._ack(transfer, "integrity", reason=str(exc))
            return
        if (
            manifest.change_id != transfer.change_id
            or manifest.source_shard != transfer.source_shard
            or manifest.target_shard != self.shard_id
            or manifest.ranges_digest
            != RangeManifest.digest_ranges(transfer.ranges)
        ):
            self._ack(transfer, "integrity", reason="manifest binding mismatch")
            return
        if (
            splice_head_of(transfer.payloads) != manifest.splice_head
            or len(transfer.payloads) != manifest.tuple_count
        ):
            self._ack(transfer, "integrity", reason="splice head mismatch")
            return
        for table, values in transfer.payloads:
            if not self._in_ranges(
                self.route_point(table, values), transfer.ranges
            ):
                self._ack(
                    transfer, "integrity",
                    reason=f"tuple outside transferred range ({table})",
                )
                return
        if not self.authority.usable(manifest.epoch):
            self._ack(
                transfer, "freshness-unverifiable",
                reason=f"manifest epoch {manifest.epoch} not provable",
            )
            return

        for table, values in transfer.payloads:
            self.libseal.audit_log.append(table, list(values))
        self.libseal.audit_log.append_event(IMPORT_EVENT, marker)
        self.imports_applied += 1
        self.tuples_imported += len(transfer.payloads)
        sealed = self.libseal._try_seal()
        self._ack(
            transfer,
            "ok" if sealed else "freshness-unverifiable",
            reason="" if sealed else "import unsealed",
            tuples=len(transfer.payloads),
        )

    # -- scatter/gather checking ----------------------------------------

    def _on_check(self, command: CheckCommand) -> None:
        outcome = self.libseal.check_invariants(force_full=command.force_full)
        generation, ranges = self.claimed_view()
        self.network.send(
            self.address,
            command.reply_to,
            CheckReply(
                op_id=command.op_id,
                shard_id=self.shard_id,
                generation=generation,
                claimed_ranges=ranges,
                violations=outcome.violations,
                invariant_stats=outcome.invariant_stats,
                elapsed_seconds=outcome.elapsed_seconds,
            ),
        )

    # -- lifecycle ------------------------------------------------------

    def retire_ranges(self, ranges: tuple[HashRange, ...]) -> int:
        """Drop migrated tuples after cutover (idempotent; seals)."""
        return self.libseal.audit_log.remove_where(
            lambda table, values: self._in_ranges(
                self.route_point(table, values), ranges
            )
        )

    def decommission(self) -> None:
        if self.decommissioned:
            return
        self.decommissioned = True
        self.network.deregister(self.address)

    def payload_count(self) -> int:
        """Service tuples held (lifecycle events excluded)."""
        return sum(
            1
            for table, values in self.libseal.audit_log.payloads()
            if self.route_point(table, values) is not None
        )
