"""The ROTE distributed monotonic counter protocol (§5.1).

SGX's hardware counters are too slow and wear out, so LibSEAL adopts
ROTE's scheme: for each log update, the enclave contacts ``n = 3f + 1``
counter nodes to increment and retrieve a monotonic counter, tolerating
``f`` malicious/crashed nodes. The nodes are
:class:`~repro.audit.rote_replica.RoteReplica` state machines reached
only through a :class:`~repro.sim.network.SimNetwork` — messages can be
delayed, lost, duplicated, reordered or partitioned away, replicas
crash (losing memory, keeping their sealed state) and restart, and this
client never touches replica memory.

Protocol as implemented here:

- **increment**: the client proposes ``committed + 1`` where
  ``committed`` is its cached last-committed value for the log — or,
  on a cold start, the maximum MAC-valid value of a quorum *read*
  (never a peek into replica state). The proposal is signed under the
  replica-group key and broadcast; a correct node advances its stored
  attestation to the maximum and echoes it. The operation succeeds when
  ``2f + 1`` distinct replicas reply at all: with at most ``f`` liars,
  that still leaves ``f + 1`` honest nodes holding the value, enough
  for every future read quorum to intersect one.
- **retrieve**: query all nodes; with ``2f + 1`` replies, the counter
  is the maximum over MAC-*valid* attestations (plus the client's own
  cache). Liars can replay stale values but cannot forge higher ones,
  so the maximum is exact — a stale/rolled-back log claiming an older
  value is detected, and no lie can fabricate rollback evidence.

**Availability vs. integrity.** A round that falls short of the quorum
is retried with bounded exponential backoff (constants from
:mod:`repro.sim.costs`, metered into ``total_latency_ms``): crashed or
partitioned nodes are an *availability* fault and eventually surface as
a retryable :class:`~repro.errors.QuorumUnavailableError`.
:class:`~repro.errors.RollbackError` is reserved for genuine integrity
evidence — a signed log head provably behind the quorum counter (raised
by ``AuditLog.verify``, never here).

Fault injection (crash, lies, per-node RPC timeouts, partitions, delays)
is built in — statically via :meth:`RoteCluster.crash` and friends, and
dynamically through the ``rote.op`` fault-plan hook — so the tolerance
bound is testable: ``f`` faults are survived (via retries where needed),
``f + 1`` are not.
"""

from __future__ import annotations

from typing import Callable

from repro.audit.admission import AdmissionController
from repro.audit.rote_replica import (
    CounterAttestation,
    CounterReply,
    EpochNotice,
    IncrementRequest,
    JoinReply,
    JoinRequest,
    LieModel,
    RetrieveRequest,
    RoteReplica,
)
from repro.errors import (
    AttestationError,
    AttestationUnavailableError,
    QuorumUnavailableError,
    SimulationError,
)
from repro.sgx.ratls import BINDING_ROTE_JOIN, AttestationPlane, make_node_enclave
from repro.faults import hooks as _faults
from repro.obs import hooks as _obs
from repro.sgx.sealing import SigningAuthority
from repro.sim.costs import (
    ROTE_BACKOFF_BASE_S,
    ROTE_BACKOFF_MAX_S,
    ROTE_MAX_RETRIES,
)
from repro.sim.network import SimNetwork

ROTE_ROUNDTRIP_MS = 0.18  # intra-cluster RPC round trip (10 Gbps LAN)

#: Old name re-exported for compatibility: counter nodes are replicas now.
RoteNode = RoteReplica


class RoteCluster:
    """The client side of the replica group plus its membership handle.

    Owns the ``n = 3f + 1`` replicas (constructing them on ``network``),
    but talks to them exclusively by message passing. ``nodes`` remains
    the membership list under its historical name.
    """

    def __init__(
        self,
        f: int = 1,
        max_retries: int = ROTE_MAX_RETRIES,
        network: SimNetwork | None = None,
        authority: SigningAuthority | None = None,
        cluster_id: str = "rote",
        seed: int = 0,
        attestation: AttestationPlane | None = None,
    ):
        if f < 0:
            raise SimulationError("f must be non-negative")
        self.f = f
        self.n = 3 * f + 1
        self.quorum = 2 * f + 1
        self.max_retries = max_retries
        self.network = network if network is not None else SimNetwork(seed=seed)
        self.authority = (
            authority
            if authority is not None
            else SigningAuthority(f"rote-authority-{cluster_id}")
        )
        self.cluster_id = cluster_id
        self.client_address = f"{cluster_id}/client"
        self.attestation = attestation
        self.nodes = [
            RoteReplica(
                node_id=i,
                network=self.network,
                authority=self.authority,
                cluster_id=cluster_id,
                plane=attestation,
            )
            for i in range(self.n)
        ]
        for replica in self.nodes:
            replica.peers = tuple(
                peer.address for peer in self.nodes if peer is not replica
            )
        self.network.register(self.client_address, self._on_message)
        #: Attested mode: the client is a group member too — it runs its
        #: own enclave, presents join evidence to every replica, and
        #: keeps its own fail-closed admission map of the replicas.
        self.admission: AdmissionController | None = None
        self.client_enclave = None
        #: Quorum replies discarded because the replier was not (or no
        #: longer) an admitted attested identity.
        self.replies_unadmitted = 0
        self._op_seq = 0
        self._inbox: dict[int, dict[int, CounterReply]] = {}
        #: Last value this client committed per log — the increment
        #: proposal base in the common case (a cold client derives it
        #: from a quorum read instead).
        self._committed: dict[str, int] = {}
        self.increments = 0
        self.retrieves = 0
        self.retry_rounds = 0
        self.rpc_timeouts = 0
        self.backoff_ms_total = 0.0
        self.total_latency_ms = 0.0
        #: Attestations discarded because their key epoch was retired —
        #: each one is a pre-rotation replay the quorum logic refused.
        self.retired_rejections = 0
        if attestation is not None:
            self.client_enclave = make_node_enclave(
                "rote-client-1.0", self.authority.name
            )
            self.admission = AdmissionController(
                attestation.verifier(self.client_address), name=self.client_address
            )
            for replica in self.nodes:
                replica.watchers = (self.client_address,)
            self._join_group()

    @property
    def replicas(self) -> list[RoteReplica]:
        return self.nodes

    @property
    def epoch(self) -> int:
        """The client's key epoch (always the authority's current one)."""
        return self.authority.current_epoch

    @property
    def group_key(self) -> bytes:
        """Group key for the current epoch (historical attribute name)."""
        return self.authority.derive_group_key(self.cluster_id.encode(), self.epoch)

    def _keyring(self, epoch: int) -> bytes | None:
        """Verifier keyring: keys for usable epochs, None once retired."""
        if not self.authority.usable(epoch):
            return None
        return self.authority.derive_group_key(self.cluster_id.encode(), epoch)

    # ------------------------------------------------------------------
    # Attested admission (client side)
    # ------------------------------------------------------------------

    def _client_evidence(self) -> bytes:
        """Evidence quoting the client enclave over the client address."""
        return self.attestation.evidence_for(
            self.client_address,
            self.client_enclave,
            BINDING_ROTE_JOIN,
            self.client_address.encode(),
        ).encode()

    def _join_group(self) -> None:
        """Initial admission round: everyone presents evidence to everyone.

        The client broadcasts its :class:`JoinRequest`; each replica that
        verifies it admits the client and answers with its own evidence,
        which admits the replica here. Replicas join each other the same
        way. One network settle later the group is mutually attested —
        minus any member whose evidence failed verification, which stays
        un-admitted and is counted by the relevant controller."""
        self._op_seq += 1
        evidence = self._client_evidence()
        for replica in self.nodes:
            self.network.send(
                self.client_address,
                replica.address,
                JoinRequest(self._op_seq, self.client_address, evidence),
            )
        for replica in self.nodes:
            replica.join()
        self.network.settle()

    def _admit_peer(self, src: str, evidence: bytes) -> bool:
        try:
            self.admission.admit(src, evidence)
        except (AttestationError, AttestationUnavailableError):
            return False  # fail closed; the controller counted the reason
        return True

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------

    def crash(self, node_id: int) -> None:
        self.nodes[node_id].crash()

    def recover(self, node_id: int) -> None:
        """Restart a crashed replica: unseal, rejoin, catch up.

        The catch-up exchange is allowed to land before the next quorum
        operation by draining the network.
        """
        self.nodes[node_id].restart()
        self.network.settle()

    def equivocate(self, node_id: int, shape: str = "stale_echo", seed: int | None = None) -> None:
        """Turn a replica Byzantine with a seeded lie model."""
        self.set_lie(
            node_id,
            LieModel(shape, seed=seed if seed is not None else node_id),
        )

    def set_lie(self, node_id: int, lie: LieModel | None) -> None:
        self.nodes[node_id].lie = lie

    def delay(self, node_id: int, rounds: int = 1) -> None:
        """Make a node miss the next ``rounds`` quorum rounds (RPC timeout)."""
        self.nodes[node_id].unreachable_rounds += rounds

    def _apply_plan_faults(self) -> None:
        """Apply any fault-plan events due at this operation."""
        for event in _faults.check("rote.op"):
            self._apply_event(event)
        if self.admission is not None:
            # Revocation must bite mid-traffic: any TCB change since the
            # last operation evicts the affected replicas before their
            # replies can count toward this operation's quorum.
            self.admission.revalidate()

    def _apply_event(self, event) -> None:
        kind, params = event.kind, event.params
        if kind == "node_crash":
            self.crash(params["node"])
        elif kind == "node_recover":
            self.recover(params["node"])
        elif kind == "equivocate":
            self.equivocate(
                params["node"],
                shape=params.get("shape", "stale_echo"),
                seed=params.get("seed"),
            )
        elif kind == "timeout":
            self.delay(params["node"], int(params.get("rounds", 1)))
        elif kind == "partition":
            for node_id in params.get("nodes", ()):
                self.delay(node_id, int(params.get("rounds", 1)))
        elif kind == "delay":
            self.total_latency_ms += float(params.get("ms", 1.0))
        elif kind == "attest_outage" and self.attestation is not None:
            self.attestation.service.outage(params.get("rounds"))
        elif kind == "attest_restore" and self.attestation is not None:
            self.attestation.service.restore()
        elif kind == "tcb_status" and self.attestation is not None:
            label = self.nodes[params["node"]].address
            self.attestation.service.set_tcb_status(
                self.attestation.platform(label).platform_id,
                params.get("status", "revoked"),
            )
        elif kind == "clock_advance" and self.attestation is not None:
            self.attestation.clock.advance(float(params.get("s", 0.0)))

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------

    def _on_message(self, message, src: str) -> None:
        if isinstance(message, JoinRequest):
            # A replica (re)joining — typically after a restart — wants
            # mutual admission back: verify it, then hand it our own
            # evidence so it can re-admit this client and serve it again.
            if self.admission is not None and self._admit_peer(src, message.evidence):
                self.network.send(
                    self.client_address,
                    src,
                    JoinReply(message.op_id, self.client_address, self._client_evidence()),
                )
            return
        if isinstance(message, JoinReply):
            if self.admission is not None:
                self._admit_peer(src, message.evidence)
            return
        if not isinstance(message, CounterReply):
            return
        if self.admission is not None and not self.admission.is_admitted(src):
            # Quorum arithmetic only ever counts attested group members.
            self.replies_unadmitted += 1
            if _obs.ON:
                _obs.active().metrics.counter(
                    "rote_replies_unadmitted_total",
                    "Quorum replies discarded from un-admitted senders",
                ).inc()
            return
        pending = self._inbox.get(message.op_id)
        if pending is None:
            return  # a late reply for a round that already timed out
        pending.setdefault(message.node_id, message)  # duplicates ignored

    def _round(self, build: Callable[[int], object]) -> dict[int, CounterReply]:
        """One broadcast round: send to all replicas, collect replies.

        Steps the network up to its worst-case round-trip deadline;
        replicas that have not answered by then are timeouts for this
        round (their late replies, if any, are discarded by ``op_id``).

        Fault-plan events scheduled at ``rote.round`` fire *between*
        rounds of one operation — a ``node_crash`` here is a replica
        dying mid-increment, after earlier rounds already reached it.
        """
        for event in _faults.check("rote.round"):
            self._apply_event(event)
        self.total_latency_ms += ROTE_ROUNDTRIP_MS
        self._op_seq += 1
        op_id = self._op_seq
        self._inbox[op_id] = {}
        message = build(op_id)
        for replica in self.nodes:
            self.network.send(self.client_address, replica.address, message)
        for _ in range(self.network.round_trip_steps()):
            self.network.step()
            if len(self._inbox[op_id]) >= self.n:
                break
        replies = self._inbox.pop(op_id)
        self.rpc_timeouts += self.n - len(replies)
        return replies

    def _max_valid(self, replies: dict[int, CounterReply]) -> int:
        """Maximum counter value across MAC-valid attestations.

        Validity is epoch-aware: an attestation under a retired group
        key contributes nothing (a Byzantine node replaying pre-rotation
        material is refused here), while grace-window epochs still
        verify. Reply *counting* for quorum purposes is unaffected — a
        rejected attestation is an integrity non-event, not silence.
        """
        best = 0
        for reply in replies.values():
            att = reply.attestation
            if att is None:
                continue
            if self._keyring(att.epoch) is None:
                self.retired_rejections += 1
                if _obs.ON:
                    _obs.active().metrics.counter(
                        "retired_epoch_rejections_total",
                        "Material rejected for carrying a retired/unknown epoch",
                        where="rote-client",
                    ).inc()
                continue
            if att.verify(self._keyring) and att.value > best:
                best = att.value
        return best

    def _backoff(self, attempt: int) -> None:
        """Meter one bounded-exponential backoff sleep before a retry."""
        backoff_s = min(ROTE_BACKOFF_BASE_S * (2 ** attempt), ROTE_BACKOFF_MAX_S)
        self.backoff_ms_total += backoff_s * 1000.0
        self.total_latency_ms += backoff_s * 1000.0
        self.retry_rounds += 1

    def _obs_record(self, op: str, outcome: str, before, obs_span) -> None:
        """Emit per-operation deltas of the metered protocol counters."""
        if not _obs.ON:
            return
        latency = self.total_latency_ms - before[0]
        retries = self.retry_rounds - before[1]
        timeouts = self.rpc_timeouts - before[2]
        metrics = _obs.active().metrics
        metrics.counter(
            "rote_ops_total", "ROTE quorum operations", op=op, outcome=outcome
        ).inc()
        if retries:
            metrics.counter(
                "rote_retry_rounds_total", "Quorum rounds retried with backoff"
            ).inc(retries)
        if timeouts:
            metrics.counter(
                "rote_rpc_timeouts_total", "Node RPCs lost to unreachability"
            ).inc(timeouts)
        metrics.histogram(
            "rote_op_latency_ms", "Modelled latency of one quorum operation (ms)"
        ).observe(latency)
        if obs_span is not None:
            obs_span.set_attr("latency_ms", round(latency, 3))
            if retries:
                obs_span.set_attr("retries", retries)

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------

    def increment(self, log_id: str) -> int:
        """Advance the counter for ``log_id``; returns the new value.

        Lossy rounds are retried with backoff over the surviving nodes.
        Raises :class:`QuorumUnavailableError` once retries are exhausted
        — the enclave must then refuse new pairs or degrade explicitly,
        because freshness can no longer be certified.
        """
        self.increments += 1
        before = (self.total_latency_ms, self.retry_rounds, self.rpc_timeouts)
        with _obs.span("rote.increment") as obs_span:
            self._apply_plan_faults()
            committed = self._committed.get(log_id)
            proposed = committed + 1 if committed is not None else None
            replied = 0
            for attempt in range(self.max_retries + 1):
                if attempt:
                    self._backoff(attempt - 1)
                if proposed is None:
                    # Cold start: derive the proposal from a quorum read.
                    replies = self._round(
                        lambda op: RetrieveRequest(op, log_id, self.epoch)
                    )
                    replied = len(replies)
                    if replied < self.quorum:
                        continue
                    proposed = max(
                        self._max_valid(replies), self._committed.get(log_id, 0)
                    ) + 1
                attestation = CounterAttestation.sign(
                    self.group_key, log_id, proposed, epoch=self.epoch
                )
                replies = self._round(
                    lambda op: IncrementRequest(op, log_id, attestation)
                )
                replied = len(replies)
                higher = self._max_valid(replies)
                if higher > proposed:
                    # Someone holds a value we never committed (e.g. a
                    # catch-up from a burned proposal): adopt and re-derive.
                    self._committed[log_id] = higher
                    proposed = None
                    continue
                if replied >= self.quorum:
                    # 2f+1 repliers minus at most f liars leaves f+1
                    # honest storers — every future read quorum meets one.
                    self._committed[log_id] = proposed
                    self._obs_record("increment", "ok", before, obs_span)
                    return proposed
            self._obs_record("increment", "unavailable", before, obs_span)
            raise QuorumUnavailableError(
                f"ROTE increment failed after {self.max_retries} retries: "
                f"{replied}/{self.n} replies, quorum {self.quorum}"
            )

    def retrieve(self, log_id: str) -> int:
        """Read the freshest counter value with quorum certainty."""
        self.retrieves += 1
        before = (self.total_latency_ms, self.retry_rounds, self.rpc_timeouts)
        with _obs.span("rote.retrieve") as obs_span:
            self._apply_plan_faults()
            replied = 0
            for attempt in range(self.max_retries + 1):
                if attempt:
                    self._backoff(attempt - 1)
                replies = self._round(
                    lambda op: RetrieveRequest(op, log_id, self.epoch)
                )
                replied = len(replies)
                if replied >= self.quorum:
                    value = max(
                        self._max_valid(replies), self._committed.get(log_id, 0)
                    )
                    self._committed[log_id] = value
                    self._obs_record("retrieve", "ok", before, obs_span)
                    return value
            self._obs_record("retrieve", "unavailable", before, obs_span)
            raise QuorumUnavailableError(
                f"ROTE retrieve failed after {self.max_retries} retries: "
                f"{replied}/{self.n} replies, quorum {self.quorum}"
            )

    def announce_epoch(self) -> dict[int, int]:
        """Broadcast the current epoch; map each replier to its epoch.

        Part of the rotation protocol: replicas that can derive the new
        epoch adopt it (re-MACing their live state) and ack with the
        epoch they now sit on, so the rotation coordinator can decide
        whether the old epoch is safe to retire. Crashed or partitioned
        replicas simply do not appear in the result — the coordinator
        keeps the old epoch in its grace window for them.
        """
        self._apply_plan_faults()
        replies = self._round(lambda op: EpochNotice(op, self.epoch))
        return {node_id: reply.value for node_id, reply in replies.items()}
