"""ROTE counter replicas: sealed state machines on the simulated network.

Each :class:`RoteReplica` is one counter node of the §5.1 group, modelled
the way ReplicaTEE says cloud SGX replication actually behaves: the node
is an enclave that keeps its per-log counters in memory, seals them to
untrusted disk on every accepted update (MRSIGNER policy, so a restarted
enclave of the same authority can unseal them), and on restart rejoins by
unsealing + broadcasting a catch-up read to its peers. A crash wipes the
in-memory state and kills the enclave; only the sealed blob survives.

Counter values travel as :class:`CounterAttestation`\\ s — the value plus
an HMAC under the replica group's shared key (provisioned via the signing
authority, standing in for the attestation-established group secret of
ROTE). The client signs each proposal; replicas verify before storing and
echo the stored attestation back. A Byzantine replica can therefore
*replay* any attestation it has ever seen (under-report, stale echo,
split-brain) but cannot *forge* a higher value — which is why a lying
minority can never manufacture rollback evidence.

Byzantine behaviour is pluggable through :class:`LieModel`: seeded,
deterministic lie shapes replacing the single hardcoded equivocation of
the old in-process ``RoteNode``.

When constructed with an :class:`~repro.sgx.ratls.AttestationPlane`, the
replica additionally runs *attested admission* (ROTE §IV): it presents
quote-backed evidence binding its network address on :meth:`join`,
verifies its peers' evidence through a fail-closed
:class:`~repro.audit.admission.AdmissionController`, and silently drops
counter and catch-up traffic from any address that has not been
admitted. A restart wipes the admission state with the rest of memory,
so a rejoining replica must re-attest its peers before it will adopt
their catch-up material — during an attestation-service outage that
means degraded availability (it rejoins empty-handed), never adoption
of unverified state.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.audit.admission import AdmissionController
from repro.crypto.hashing import constant_time_equal, hmac_sha256, sha256
from repro.errors import (
    AttestationError,
    AttestationUnavailableError,
    RetiredEpochError,
    SealingError,
    SimulationError,
)
from repro.obs import hooks as _obs
from repro.sgx.enclave import Enclave, EnclaveConfig
from repro.sgx.ratls import BINDING_ROTE_JOIN
from repro.sgx.sealing import EpochState, KeyPolicy, SealedBlob, SigningAuthority

if TYPE_CHECKING:
    from repro.sgx.ratls import AttestationPlane
    from repro.sim.network import SimNetwork

#: Attestations kept per log for lie models to replay (first + recent).
HISTORY_LIMIT = 8

COUNTER_STATE_AD = b"rote-counter-state"


# ----------------------------------------------------------------------
# Attested counter values
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CounterAttestation:
    """A counter value bound to its log under the replica-group key.

    The MAC covers the key *epoch* the attestation was issued under, and
    the epoch travels in clear next to it so a verifier can select the
    matching group key — or reject fail-closed once that epoch retires.
    """

    log_id: str
    value: int
    mac: bytes
    epoch: int = 1

    @staticmethod
    def _payload(log_id: str, value: int, epoch: int) -> bytes:
        return (
            b"rote-counter\x00"
            + log_id.encode()
            + b"\x00"
            + value.to_bytes(8, "big")
            + epoch.to_bytes(4, "big")
        )

    @classmethod
    def sign(
        cls, group_key: bytes, log_id: str, value: int, epoch: int = 1
    ) -> "CounterAttestation":
        return cls(
            log_id,
            value,
            hmac_sha256(group_key, cls._payload(log_id, value, epoch)),
            epoch,
        )

    def verify(
        self, group_key: bytes | Callable[[int], bytes | None]
    ) -> bool:
        """MAC check under a raw key, or a keyring ``epoch -> key | None``.

        With a keyring, an epoch the ring refuses to resolve (retired or
        unknown) fails verification outright — the fail-closed path every
        quorum participant shares.
        """
        if self.value < 0 or self.value >= 1 << 63:
            return False
        key = group_key(self.epoch) if callable(group_key) else group_key
        if key is None:
            return False
        expected = hmac_sha256(key, self._payload(self.log_id, self.value, self.epoch))
        return constant_time_equal(self.mac, expected)

    # JSON shape used inside sealed replica state.
    def to_json(self) -> dict:
        return {
            "log_id": self.log_id,
            "value": self.value,
            "mac": self.mac.hex(),
            "epoch": self.epoch,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CounterAttestation":
        return cls(
            str(obj["log_id"]),
            int(obj["value"]),
            bytes.fromhex(obj["mac"]),
            int(obj.get("epoch", 1)),
        )


# ----------------------------------------------------------------------
# Wire messages
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class IncrementRequest:
    op_id: int
    log_id: str
    attestation: CounterAttestation


@dataclass(frozen=True)
class RetrieveRequest:
    op_id: int
    log_id: str
    #: The requester's current key epoch: a replica that cannot derive
    #: keys for it stays silent rather than answering with material the
    #: requester would have to reject anyway.
    epoch: int = 1


@dataclass(frozen=True)
class CounterReply:
    op_id: int
    node_id: int
    log_id: str
    value: int
    attestation: CounterAttestation | None
    op: str  # "increment" | "retrieve"


@dataclass(frozen=True)
class EpochNotice:
    """Rotation announcement: adopt ``epoch`` and ack with your own."""

    op_id: int
    epoch: int


@dataclass(frozen=True)
class CatchupRequest:
    op_id: int


@dataclass(frozen=True)
class CatchupReply:
    op_id: int
    node_id: int
    attestations: tuple[CounterAttestation, ...]


@dataclass(frozen=True)
class JoinRequest:
    """Attested admission: ``address`` presents quote-backed evidence.

    The evidence's report data binds the sender's network address (via
    :data:`~repro.sgx.ratls.BINDING_ROTE_JOIN`), so a request relayed or
    replayed from any other address fails verification. Receivers always
    verify against the *network source*, never the claimed field."""

    op_id: int
    address: str
    evidence: bytes


@dataclass(frozen=True)
class JoinReply:
    """The mutual half of admission: the receiver's own evidence back."""

    op_id: int
    address: str
    evidence: bytes


# ----------------------------------------------------------------------
# Byzantine lie models
# ----------------------------------------------------------------------

LIE_SHAPES = ("under_report", "stale_echo", "split_brain", "forge")


class LieModel:
    """Seeded, deterministic Byzantine reply shaping.

    Shapes:

    - ``under_report``: replay a random *older* attestation for the log
      (MAC-valid but stale) — the classic rollback-assist lie;
    - ``stale_echo``: always echo the first attestation ever seen (or
      claim the log was never written);
    - ``split_brain``: answer honestly to one set of requesters and
      stale to the rest, keyed deterministically per requester;
    - ``forge``: fabricate a higher value with a garbage MAC — exercises
      the client's verification path (a forged value must never count).

    ``drop_writes`` additionally makes the node discard increments
    instead of storing them, so it contributes nothing to durability.
    """

    def __init__(self, shape: str, seed: int = 0, drop_writes: bool = True):
        if shape not in LIE_SHAPES:
            raise SimulationError(f"unknown lie shape {shape!r}; one of {LIE_SHAPES}")
        self.shape = shape
        self.seed = seed
        self.drop_writes = drop_writes
        self._rng = random.Random(f"rote-lie-{shape}-{seed}")

    def __repr__(self) -> str:  # stable for event traces
        return f"LieModel({self.shape}, seed={self.seed}, drop_writes={self.drop_writes})"

    def shape_reply(
        self,
        log_id: str,
        current: CounterAttestation | None,
        history: list[CounterAttestation],
        requester: str,
    ) -> CounterAttestation | None:
        """Return the (possibly dishonest) attestation to echo."""
        if self.shape == "under_report":
            stale = history[:-1]
            return self._rng.choice(stale) if stale else None
        if self.shape == "stale_echo":
            return history[0] if history else None
        if self.shape == "split_brain":
            persona = sha256(f"{self.seed}|{requester}".encode())[0] & 1
            if persona == 0:
                return current
            return history[0] if history else None
        # forge: a higher value under an invalid MAC.
        value = (current.value if current else 0) + self._rng.randint(1, 5)
        return CounterAttestation(
            log_id, value, self._rng.randbytes(32),
            current.epoch if current else 1,
        )


# ----------------------------------------------------------------------
# The replica
# ----------------------------------------------------------------------


def make_counter_enclave(
    authority: SigningAuthority, code_version: str = "rote-counter-1.0"
) -> Enclave:
    """Build the small enclave sealing/unsealing replica counter state."""
    enclave = Enclave(
        EnclaveConfig(code_identity=code_version, signer_name=authority.name)
    )

    def ecall_seal_counters(plaintext: bytes, epoch: int | None = None) -> bytes:
        blob = authority.seal(
            enclave, plaintext, policy=KeyPolicy.MRSIGNER,
            associated_data=COUNTER_STATE_AD, epoch=epoch,
        )
        return blob.encode()

    def ecall_unseal_counters(encoded: bytes) -> bytes:
        blob = SealedBlob.decode(encoded)
        return authority.unseal(enclave, blob, associated_data=COUNTER_STATE_AD)

    enclave.interface.register_ecall("seal_counters", ecall_seal_counters)
    enclave.interface.register_ecall("unseal_counters", ecall_unseal_counters)
    enclave.interface.seal_interface()
    return enclave


class RoteReplica:
    """One counter node: enclave + sealed per-log counters + lifecycle.

    The replica is purely message-driven: it reacts to
    :class:`IncrementRequest` / :class:`RetrieveRequest` /
    :class:`CatchupRequest` deliveries from the network and never shares
    memory with the client. ``counters`` / ``equivocating`` exist for
    backward compatibility with the old in-process ``RoteNode`` surface.
    """

    def __init__(
        self,
        node_id: int,
        network: "SimNetwork",
        authority: SigningAuthority,
        cluster_id: str = "rote",
        code_version: str = "rote-counter-1.0",
        plane: "AttestationPlane | None" = None,
    ):
        self.node_id = node_id
        self.network = network
        self.authority = authority
        self.cluster_id = cluster_id
        self.code_version = code_version
        self.address = f"{cluster_id}/replica-{node_id}"
        self.peers: tuple[str, ...] = ()
        #: Non-replica addresses (the cluster client) that should also
        #: receive this replica's join announcements.
        self.watchers: tuple[str, ...] = ()
        #: Attestation plane for attested deployments; None preserves the
        #: legacy un-attested behaviour exactly.
        self.plane = plane
        self.admission = self._make_admission()
        self.joins_sent = 0
        #: Messages silently dropped because the sender was not admitted.
        self.unadmitted_drops = 0
        #: Catch-up attestations refused for carrying a retired/unknown
        #: key epoch (pre-rotation replays smuggled via catch-up).
        self.retired_rejections = 0
        self.enclave = make_counter_enclave(authority, code_version)
        self.crashed = False
        self.lie: LieModel | None = None
        #: The key epoch this replica currently operates in.
        self.epoch = authority.current_epoch
        #: When set, the highest epoch this replica's (old) enclave binary
        #: can derive keys for — the model of a node still running a
        #: pre-rotation build. It refuses newer epochs until upgraded.
        self.pinned: int | None = None
        self.epoch_migrations = 0
        #: Transient unreachability: the node drops this many further
        #: request messages before answering again (injected timeouts).
        self.unreachable_rounds = 0
        self._state: dict[str, CounterAttestation] = {}
        self._history: dict[str, list[CounterAttestation]] = {}
        #: Sealed counter state as it sits on untrusted disk; survives
        #: crashes, unlike everything above.
        self.sealed_state: bytes | None = None
        self.restarts = 0
        self.writes_accepted = 0
        self.catchups_served = 0
        self.catchup_merges = 0
        network.register(self.address, self._on_message)

    # -- compatibility surface ------------------------------------------

    @property
    def counters(self) -> dict[str, int]:
        """Per-log counter values as plain ints (old ``RoteNode`` shape)."""
        return {log_id: att.value for log_id, att in self._state.items()}

    @property
    def equivocating(self) -> bool:
        return self.lie is not None

    @property
    def group_key(self) -> bytes:
        """The group key for this replica's current epoch."""
        return self.authority.derive_group_key(self.cluster_id.encode(), self.epoch)

    # -- attested admission ----------------------------------------------

    @property
    def attested(self) -> bool:
        return self.plane is not None

    def _make_admission(self) -> AdmissionController | None:
        if self.plane is None:
            return None
        return AdmissionController(
            self.plane.verifier(self.address), name=self.address
        )

    def _join_evidence(self) -> bytes:
        """Fresh evidence quoting this replica's enclave over its address."""
        return self.plane.evidence_for(
            self.address, self.enclave, BINDING_ROTE_JOIN, self.address.encode()
        ).encode()

    def join(self) -> None:
        """Present attestation evidence to every peer and watcher.

        Each receiver that verifies the evidence admits this replica and
        answers with a :class:`JoinReply` carrying its own evidence, so
        one join round establishes mutual admission."""
        if self.plane is None:
            return
        self.joins_sent += 1
        evidence = self._join_evidence()
        for dst in self.peers + self.watchers:
            self.network.send(
                self.address, dst, JoinRequest(self.joins_sent, self.address, evidence)
            )

    def _handle_join(self, message: JoinRequest, src: str) -> None:
        if self.admission is None:
            return  # un-attested deployment: join traffic is meaningless
        try:
            self.admission.admit(src, message.evidence)
        except (AttestationError, AttestationUnavailableError):
            return  # never admitted; the controller counted the reason
        self.network.send(
            self.address,
            src,
            JoinReply(message.op_id, self.address, self._join_evidence()),
        )

    def _handle_join_reply(self, message: JoinReply, src: str) -> None:
        if self.admission is None:
            return
        try:
            self.admission.admit(src, message.evidence)
        except (AttestationError, AttestationUnavailableError):
            return

    # -- epoch lifecycle -------------------------------------------------

    def _key_for(self, epoch: int) -> bytes | None:
        """Group key for ``epoch`` if this replica may use it, else None.

        A pinned (un-upgraded) replica cannot derive keys past its pin;
        retired/unknown epochs yield nothing for anyone. This is the
        replica-side fail-closed gate.
        """
        if self.pinned is not None and epoch > self.pinned:
            return None
        if not self.authority.usable(epoch):
            return None
        return self.authority.derive_group_key(self.cluster_id.encode(), epoch)

    def maybe_adopt(self, epoch: int) -> bool:
        """Adopt a newer ACTIVE epoch: re-MAC state, re-seal the blob.

        Old attestations stay in ``_history`` untouched — exactly the
        pre-rotation material a Byzantine replica would later replay.
        Returns True when the replica now operates in ``epoch``.
        """
        if epoch <= self.epoch:
            return epoch == self.epoch
        if self.pinned is not None and epoch > self.pinned:
            return False
        if self.authority.epoch_state(epoch) is not EpochState.ACTIVE:
            return False
        key = self.authority.derive_group_key(self.cluster_id.encode(), epoch)
        self.epoch = epoch
        for log_id, att in list(self._state.items()):
            self._state[log_id] = CounterAttestation.sign(
                key, log_id, att.value, epoch
            )
        self.epoch_migrations += 1
        if self._state or self.sealed_state is not None:
            self._persist()  # migrate the sealed blob to the new epoch
        self._note("rote_replica_epoch_migrations_total")
        return True

    def pin(self) -> None:
        """Freeze this replica on its current enclave build: it keeps
        serving its epoch but cannot follow any future rotation."""
        self.pinned = self.epoch

    def upgrade(self, code_version: str) -> None:
        """Install a new enclave build (same signer): unpin and rejoin.

        The MRSIGNER-sealed counter blob survives the measurement change;
        in-memory state is carried over (an upgrade is not a crash) and
        re-sealed under the current epoch.
        """
        self.code_version = code_version
        self.enclave.destroy()
        self.enclave = make_counter_enclave(self.authority, code_version)
        self.pinned = None
        if not self.maybe_adopt(self.authority.current_epoch) and (
            self._state or self.sealed_state is not None
        ):
            self._persist()
        self._note("rote_replica_upgrades_total")

    # -- lifecycle -------------------------------------------------------

    def crash(self) -> None:
        """Power loss: memory and enclave gone, sealed blob stays."""
        if self.crashed:
            return
        self.crashed = True
        self._state = {}
        self._history = {}
        #: Admission and its verifier cache live in enclave memory: a
        #: restarted replica must re-attest everyone from scratch.
        self.admission = None
        self.enclave.destroy()
        self._note("rote_replica_crashes_total")

    def restart(self) -> None:
        """Rebuild the enclave, unseal state, rejoin with a catch-up read.

        A sealed blob from an epoch that retired while the replica was
        down no longer unseals (fail closed) — the replica then rejoins
        empty and relies on the peer catch-up, exactly like a node whose
        disk was lost. A blob still inside the grace window unseals, and
        its attestations are re-MACed into the current epoch on accept.
        """
        if not self.crashed:
            return
        self.enclave = make_counter_enclave(self.authority, self.code_version)
        self.admission = self._make_admission()
        self.crashed = False
        self.restarts += 1
        self.epoch = min(
            self.authority.current_epoch,
            self.pinned if self.pinned is not None else self.authority.current_epoch,
        )
        if self.sealed_state is not None:
            try:
                raw = self.enclave.interface.ecall(
                    "unseal_counters", self.sealed_state
                )
            except RetiredEpochError:
                self.sealed_state = None
                self._note("rote_replica_retired_blobs_total")
            except SealingError:
                # Tampered at rest: never adopt, rejoin via peers only.
                self.sealed_state = None
            else:
                for obj in json.loads(raw.decode()):
                    att = CounterAttestation.from_json(obj)
                    if att.verify(self._key_for):
                        self._accept(att, persist=False)
        # Re-attest before catching up: joins are sent first, so every
        # peer processes (and answers) the JoinRequest before it sees the
        # CatchupRequest, and the JoinReply lands here before the
        # CatchupReply — mutual admission is re-established exactly in
        # time for the catch-up merge to accept it. If attestation is
        # unverifiable (service outage), the catch-up replies are dropped
        # un-adopted and this replica rejoins degraded but honest.
        self.join()
        for peer in self.peers:
            self.network.send(self.address, peer, CatchupRequest(op_id=self.restarts))
        self._note("rote_replica_restarts_total")

    # -- message handling ------------------------------------------------

    def _on_message(self, message, src: str) -> None:
        if self.crashed:
            return
        if isinstance(message, JoinRequest):
            self._handle_join(message, src)
            return
        if isinstance(message, JoinReply):
            self._handle_join_reply(message, src)
            return
        if self.admission is not None:
            # A TCB change since the last message evicts revoked peers
            # before anything from them is processed (cheap when idle).
            self.admission.revalidate()
            if isinstance(
                message,
                (IncrementRequest, RetrieveRequest, CatchupRequest, CatchupReply),
            ) and not self.admission.is_admitted(src):
                # Counter and catch-up traffic only flows between
                # attested group members. EpochNotice stays ungated: it
                # carries no counter material and its adoption path
                # re-checks the authority's epoch state anyway.
                self.unadmitted_drops += 1
                self._note("rote_replica_unadmitted_drops_total")
                return
        if isinstance(message, (IncrementRequest, RetrieveRequest)):
            if self.unreachable_rounds > 0:
                self.unreachable_rounds -= 1
                return
        if isinstance(message, IncrementRequest):
            self._handle_increment(message, src)
        elif isinstance(message, RetrieveRequest):
            self._handle_retrieve(message, src)
        elif isinstance(message, EpochNotice):
            self._handle_epoch_notice(message, src)
        elif isinstance(message, CatchupRequest):
            self._handle_catchup(message, src)
        elif isinstance(message, CatchupReply):
            self._merge_catchup(message)

    def _epoch_gate(self, epoch: int) -> bool:
        """Adopt a newer epoch if possible; True when this replica can
        serve requests scoped to ``epoch``.

        An honest replica that *cannot* derive the request's epoch keys
        (pinned on a retired build, or the epoch is gone) must stay
        silent: answering would either leak retired-epoch material or
        acknowledge a value it cannot authenticate. Silence turns the
        stuck replica into an availability fault — the quorum degrades
        to FRESHNESS_UNVERIFIABLE instead of accepting anything stale.
        A Byzantine node ignores the gate entirely.
        """
        if self.lie is not None:
            return True
        self.maybe_adopt(epoch)
        return self._key_for(epoch) is not None

    def _handle_increment(self, message: IncrementRequest, src: str) -> None:
        att = message.attestation
        if not self._epoch_gate(att.epoch):
            self._note("rote_replica_epoch_silences_total")
            return
        if att.verify(self._key_for) and not (self.lie and self.lie.drop_writes):
            current = self._state.get(att.log_id)
            if current is None or att.value > current.value:
                self._accept(att)
        self._reply(message.op_id, att.log_id, src, op="increment")

    def _handle_retrieve(self, message: RetrieveRequest, src: str) -> None:
        if not self._epoch_gate(message.epoch):
            self._note("rote_replica_epoch_silences_total")
            return
        self._reply(message.op_id, message.log_id, src, op="retrieve")

    def _handle_epoch_notice(self, message: EpochNotice, src: str) -> None:
        """Adopt if possible, then ack with the epoch actually served.

        Unlike the data path this always answers (when live): the ack
        carries no counter material, and the rotation coordinator needs
        to see exactly which replicas are stranded to bound the grace
        window.
        """
        self.maybe_adopt(message.epoch)
        self.network.send(
            self.address,
            src,
            CounterReply(
                op_id=message.op_id,
                node_id=self.node_id,
                log_id="",
                value=self.epoch,
                attestation=None,
                op="epoch",
            ),
        )

    def _handle_catchup(self, message: CatchupRequest, src: str) -> None:
        if self.lie is not None:
            return  # a Byzantine node does not help rejoiners
        self.catchups_served += 1
        self.network.send(
            self.address,
            src,
            CatchupReply(
                op_id=message.op_id,
                node_id=self.node_id,
                attestations=tuple(
                    self._state[log_id] for log_id in sorted(self._state)
                ),
            ),
        )

    def _merge_catchup(self, message: CatchupReply) -> None:
        for att in message.attestations:
            if not self.authority.usable(att.epoch):
                # A retired/unknown epoch in a catch-up reply is a
                # pre-rotation replay, not merely unverifiable material:
                # count it so the rotation metric covers the catch-up
                # path, then refuse it (fail closed).
                self.retired_rejections += 1
                if _obs.ON:
                    _obs.active().metrics.counter(
                        "retired_epoch_rejections_total",
                        "Material rejected for carrying a retired/unknown epoch",
                        where="catchup",
                    ).inc()
                continue
            if not att.verify(self._key_for):
                continue
            current = self._state.get(att.log_id)
            if current is None or att.value > current.value:
                self._accept(att)
                self.catchup_merges += 1

    def _reply(self, op_id: int, log_id: str, dst: str, op: str) -> None:
        att = self._state.get(log_id)
        if self.lie is not None:
            att = self.lie.shape_reply(
                log_id, att, self._history.get(log_id, []), requester=dst
            )
        self.network.send(
            self.address,
            dst,
            CounterReply(
                op_id=op_id,
                node_id=self.node_id,
                log_id=log_id,
                value=att.value if att else 0,
                attestation=att,
                op=op,
            ),
        )

    # -- state -----------------------------------------------------------

    def _accept(self, att: CounterAttestation, persist: bool = True) -> None:
        if att.epoch != self.epoch:
            # Grace-window material (e.g. unsealed after a restart or a
            # peer catch-up): store it re-MACed into this replica's own
            # epoch so the stored state survives the old epoch's
            # retirement. The original stays in history.
            key = self._key_for(self.epoch)
            if key is not None:
                att = CounterAttestation.sign(key, att.log_id, att.value, self.epoch)
        self._state[att.log_id] = att
        history = self._history.setdefault(att.log_id, [])
        history.append(att)
        if len(history) > HISTORY_LIMIT:
            # Keep the oldest (stale-echo fodder) plus the recent tail.
            del history[1 : len(history) - (HISTORY_LIMIT - 1)]
        self.writes_accepted += 1
        if persist:
            self._persist()

    def _persist(self) -> None:
        payload = json.dumps(
            [self._state[log_id].to_json() for log_id in sorted(self._state)]
        ).encode()
        try:
            self.sealed_state = self.enclave.interface.ecall(
                "seal_counters", payload, self.epoch
            )
        except RetiredEpochError:
            # A stranded build whose epoch retired mid-flight: keep the
            # last good blob rather than sealing under dead keys.
            self._note("rote_replica_persist_refused_total")

    def _note(self, name: str) -> None:
        if _obs.ON:
            _obs.active().metrics.counter(
                name, "ROTE replica lifecycle events", node=str(self.node_id)
            ).inc()
