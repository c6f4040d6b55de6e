"""RA-TLS evidence and the robust attestation-verification pipeline.

Knauth et al. ("Integrating Intel SGX Remote Attestation with TLS",
PAPERS.md) embed attestation evidence in the X.509 certificate path and
verify it inline during the handshake: the quote's report data binds the
certificate public key, the certificate key signs the ECDHE key exchange,
so a verified quote transitively authenticates the session keys. This
module provides that evidence format plus the relying-party side LibSEAL
needs everywhere (TLS handshakes, ROTE replica-group admission):

- :class:`AttestationEvidence` — a quote wrapped with the key epoch and
  issue time it claims, wire-codable for certificates and join messages.
  All wrapper fields are covered by the quote's report-data binding
  (:func:`report_binding`), so relabeling any of them breaks the quote.
- :class:`AttestationPolicy` — what the relying party accepts: allowed
  MRENCLAVEs, required MRSIGNER, evidence freshness window.
- :class:`AttestationVerifier` — the robust pipeline: local structural +
  binding + policy checks, TCB ladder (up-to-date → accept, out-of-date
  → accept with a warning metric, revoked → fail closed), bounded
  evidence caching, bounded retry with exponential backoff against a
  fault-injectable :class:`~repro.sgx.attestation.AttestationService`,
  and graceful outage degradation: a service outage inside the cache
  window keeps serving cached verdicts, outside it new verifications
  raise :class:`~repro.errors.AttestationUnavailableError` — peers are
  *never* admitted unverified.
- :class:`AttestationPlane` — deployment wiring: one attestation service
  + logical clock + per-node quoting enclaves + verifier factory, shared
  by a replica group and its clients.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Callable

from repro.crypto.drbg import HmacDrbg
from repro.crypto.ecdsa import EcdsaPrivateKey
from repro.crypto.hashing import sha256
from repro.errors import (
    AttestationError,
    AttestationUnavailableError,
    MeasurementPolicyError,
    QuoteInvalidError,
    StaleEvidenceError,
    TLSError,
)
from repro.obs import hooks as _obs
from repro.sgx.attestation import (
    TCB_OUT_OF_DATE,
    AttestationService,
    Quote,
    QuotingEnclave,
)
from repro.sgx.enclave import Enclave, EnclaveConfig
from repro.sgx.sealing import SigningAuthority
from repro.tls import handshake as hs
from repro.tls.codec import Reader, encode_parts

# Domain-separation contexts for the report-data binding. TLS evidence
# binds the certificate public key; replica-join evidence binds the
# replica's network address, so evidence can never be replayed across
# trust boundaries or between nodes.
BINDING_TLS = b"ra-tls"
BINDING_ROTE_JOIN = b"rote-join"

# Evidence claiming to come from the future beyond this slack is treated
# as stale (a relabeled timestamp), even inside the freshness window.
FUTURE_SLACK = 1.0

_EPOCH_LEN = 4
_MS_LEN = 8


def _ms(timestamp: float) -> int:
    return int(round(timestamp * 1000))


def report_binding(
    context: bytes, payload: bytes, key_epoch: int, issued_at: float
) -> bytes:
    """The 64-byte report data an evidence quote must carry.

    Hashes the domain-separation context, the bound payload (certificate
    key or replica address) and the evidence wrapper fields. Because the
    quote signature covers report data, tampering with *any* evidence
    field — epoch relabel, timestamp rewind, payload swap — breaks the
    binding even though the wrapper itself is unsigned.
    """
    digest = sha256(
        context
        + b"\x00"
        + payload
        + key_epoch.to_bytes(_EPOCH_LEN, "big")
        + _ms(issued_at).to_bytes(_MS_LEN, "big")
    )
    return digest.ljust(64, b"\x00")


@dataclass(frozen=True)
class AttestationEvidence:
    """A quote plus the key epoch and issue time it attests to."""

    quote: Quote
    key_epoch: int
    issued_at: float

    def encode(self) -> bytes:
        return encode_parts(
            self.quote.encode(),
            self.key_epoch.to_bytes(_EPOCH_LEN, "big"),
            _ms(self.issued_at).to_bytes(_MS_LEN, "big"),
        )

    @classmethod
    def decode(cls, data: bytes) -> "AttestationEvidence":
        try:
            reader = Reader(data)
            quote = Quote.decode(reader.read_bytes())
            epoch_raw = reader.read_bytes()
            issued_raw = reader.read_bytes()
            reader.expect_end()
        except TLSError as exc:
            raise QuoteInvalidError(f"malformed attestation evidence: {exc}") from exc
        if len(epoch_raw) != _EPOCH_LEN or len(issued_raw) != _MS_LEN:
            raise QuoteInvalidError("malformed attestation evidence fields")
        return cls(
            quote=quote,
            key_epoch=int.from_bytes(epoch_raw, "big"),
            issued_at=int.from_bytes(issued_raw, "big") / 1000.0,
        )


@dataclass(frozen=True)
class AttestationPolicy:
    """What a relying party accepts from attestation evidence.

    ``allowed_measurements`` pins exact MRENCLAVEs (None = any build);
    ``expected_signer`` pins the MRSIGNER (None = any authority);
    ``freshness_window`` bounds evidence age in clock units (None = no
    freshness requirement, the deterministic default for tests that never
    advance a clock)."""

    allowed_measurements: tuple[bytes, ...] | None = None
    expected_signer: bytes | None = None
    freshness_window: float | None = None

    def describe(self) -> dict:
        """JSON-friendly summary (the `/attest` endpoint publishes this)."""
        return {
            "allowed_measurements": (
                None
                if self.allowed_measurements is None
                else [m.hex() for m in self.allowed_measurements]
            ),
            "expected_signer": (
                None if self.expected_signer is None else self.expected_signer.hex()
            ),
            "freshness_window": self.freshness_window,
        }


@dataclass(frozen=True)
class VerifiedIdentity:
    """The outcome of a successful evidence verification."""

    measurement: bytes
    signer_measurement: bytes
    platform_id: bytes
    key_epoch: int
    tcb: str
    verified_at: float
    generation: int
    from_cache: bool = False


class LogicalClock:
    """A deterministic clock the attestation plane shares.

    Never advances unless the harness advances it, so freshness windows
    and cache TTLs are pure functions of explicitly scripted time."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, delta: float) -> float:
        if delta < 0:
            raise ValueError("clock cannot move backwards")
        self._now += delta
        return self._now


@dataclass
class _CacheEntry:
    identity: VerifiedIdentity
    verified_at: float
    generation: int


class AttestationVerifier:
    """Relying-party verification pipeline over an attestation service.

    Per-call order (cheap, local, deterministic checks first):

    1. structural decode (if raw bytes were supplied);
    2. report-data binding against the caller's (context, payload);
    3. freshness window against the shared clock;
    4. MRENCLAVE / MRSIGNER policy and the key-epoch gate;
    5. service appraisal — skipped on a fresh, same-revocation-generation
       cache hit; retried with exponential backoff during an outage, and
       if retries exhaust, a still-fresh cached verdict stands in
       (degraded operation); otherwise
       :class:`AttestationUnavailableError` propagates and the peer is
       not admitted.

    The cache is bounded LRU; entries remember the service's revocation
    generation at verification time, so any TCB change forces live
    re-appraisal (revocation must bite even with a warm cache).
    """

    def __init__(
        self,
        service: AttestationService,
        policy: AttestationPolicy | None = None,
        *,
        clock: LogicalClock | None = None,
        epoch_usable: Callable[[int], bool] | None = None,
        cache_ttl: float | None = None,
        cache_max: int = 64,
        max_retries: int = 2,
        backoff_base: float = 0.05,
        name: str = "verifier",
    ):
        self.service = service
        self.policy = policy if policy is not None else AttestationPolicy()
        self.clock = clock if clock is not None else LogicalClock()
        self.epoch_usable = epoch_usable
        self.cache_ttl = cache_ttl
        self.cache_max = max(1, int(cache_max))
        self.max_retries = max(0, int(max_retries))
        self.backoff_base = backoff_base
        self.name = name
        self._cache: OrderedDict[bytes, _CacheEntry] = OrderedDict()
        # Counters (mirrored as obs metrics when the plane is on).
        self.verifications = 0
        self.cache_hits = 0
        self.degraded_hits = 0
        self.rejections = 0
        self.unavailable = 0
        self.retries = 0
        self.backoff_total = 0.0
        self.tcb_warnings = 0

    # -- metrics ---------------------------------------------------------

    def _count(self, metric: str, help_text: str) -> None:
        if _obs.ON:
            _obs.active().metrics.counter(metric, help_text, verifier=self.name).inc()

    # -- cache -----------------------------------------------------------

    def _cache_fresh(self, entry: _CacheEntry) -> bool:
        if self.cache_ttl is None:
            return True
        return (self.clock.now() - entry.verified_at) <= self.cache_ttl

    def _cache_store(self, digest: bytes, identity: VerifiedIdentity) -> None:
        self._cache[digest] = _CacheEntry(
            identity=identity,
            verified_at=identity.verified_at,
            generation=identity.generation,
        )
        self._cache.move_to_end(digest)
        while len(self._cache) > self.cache_max:
            self._cache.popitem(last=False)

    # -- the pipeline ----------------------------------------------------

    def verify_evidence(
        self,
        evidence: AttestationEvidence | bytes,
        context: bytes,
        payload: bytes,
        *,
        force_fresh: bool = False,
    ) -> VerifiedIdentity:
        """Run the full pipeline; returns the verified identity.

        Raises the typed :class:`~repro.errors.AttestationError` taxonomy
        on any verification failure and
        :class:`~repro.errors.AttestationUnavailableError` when the
        service is down and no fresh cached verdict exists."""
        try:
            return self._verify(evidence, context, payload, force_fresh)
        except AttestationError:
            self.rejections += 1
            self._count(
                "attestation_rejections_total",
                "Evidence rejected by the verification pipeline",
            )
            raise
        except AttestationUnavailableError:
            self.unavailable += 1
            self._count(
                "attestation_unavailable_total",
                "Verifications abandoned because the service was unreachable",
            )
            raise

    def _verify(
        self,
        evidence: AttestationEvidence | bytes,
        context: bytes,
        payload: bytes,
        force_fresh: bool,
    ) -> VerifiedIdentity:
        if isinstance(evidence, (bytes, bytearray)):
            encoded = bytes(evidence)
            evidence = AttestationEvidence.decode(encoded)
        else:
            encoded = evidence.encode()
        self.verifications += 1
        quote = evidence.quote

        # 2. Binding: the quote must attest exactly this (context,
        # payload, epoch, issue time) tuple.
        expected = report_binding(
            context, payload, evidence.key_epoch, evidence.issued_at
        )
        if quote.report_data != expected:
            raise QuoteInvalidError(
                "evidence binding mismatch: quote does not attest this "
                "payload/epoch/timestamp"
            )

        # 3. Freshness.
        now = self.clock.now()
        window = self.policy.freshness_window
        if window is not None:
            age = now - evidence.issued_at
            if age > window:
                raise StaleEvidenceError(
                    f"evidence is {age:.3f}s old, window is {window:.3f}s"
                )
            if age < -FUTURE_SLACK:
                raise StaleEvidenceError("evidence claims to come from the future")

        # 4. Identity policy.
        allowed = self.policy.allowed_measurements
        if allowed is not None and quote.measurement not in allowed:
            raise MeasurementPolicyError(
                "enclave measurement is not in the allowed set"
            )
        signer = self.policy.expected_signer
        if signer is not None and quote.signer_measurement != signer:
            raise MeasurementPolicyError(
                "enclave signer does not match the required authority"
            )
        if self.epoch_usable is not None and not self.epoch_usable(
            evidence.key_epoch
        ):
            raise MeasurementPolicyError(
                f"evidence key epoch {evidence.key_epoch} is retired or unknown"
            )

        # 5. Service appraisal, cache-aware.
        digest = sha256(encoded)
        entry = self._cache.get(digest)
        generation = self.service.revocation_generation
        if (
            not force_fresh
            and entry is not None
            and entry.generation == generation
            and self._cache_fresh(entry)
        ):
            self._cache.move_to_end(digest)
            self.cache_hits += 1
            self._count(
                "attestation_cache_hits_total",
                "Verifications served from the bounded evidence cache",
            )
            return replace(entry.identity, from_cache=True)

        try:
            tcb = self._appraise_with_retry(quote)
        except AttestationUnavailableError:
            # Graceful degradation: inside the cache window a previously
            # verified identity keeps serving; outside it, fail
            # unavailable (never admit unverified). A force_fresh caller
            # (revocation revalidation) demanded a live appraisal, so no
            # cached verdict may stand in for it.
            if not force_fresh and entry is not None and self._cache_fresh(entry):
                self.degraded_hits += 1
                self._count(
                    "attestation_degraded_hits_total",
                    "Cached verdicts served during an attestation-service outage",
                )
                return replace(entry.identity, from_cache=True)
            raise

        if tcb == TCB_OUT_OF_DATE:
            self.tcb_warnings += 1
            self._count(
                "attestation_tcb_warnings_total",
                "Evidence accepted from platforms with an out-of-date TCB",
            )
        identity = VerifiedIdentity(
            measurement=quote.measurement,
            signer_measurement=quote.signer_measurement,
            platform_id=quote.platform_id,
            key_epoch=evidence.key_epoch,
            tcb=tcb,
            verified_at=now,
            generation=self.service.revocation_generation,
        )
        self._cache_store(digest, identity)
        return identity

    def _appraise_with_retry(self, quote: Quote) -> str:
        """Bounded retry with exponential backoff against the service."""
        attempt = 0
        while True:
            try:
                return self.service.appraise(quote)
            except AttestationUnavailableError:
                if attempt >= self.max_retries:
                    raise
                self.retries += 1
                self.backoff_total += self.backoff_base * (2**attempt)
                self._count(
                    "attestation_retries_total",
                    "Appraisal retries against an unavailable service",
                )
                attempt += 1

    # -- trust-boundary entry points ------------------------------------

    def verify_tls_certificate(self, certificate) -> VerifiedIdentity:
        """RA-TLS hook: verify the evidence in a peer certificate.

        Called (duck-typed) by the TLS handshake after CA verification.
        The binding payload is the certificate public key, which in turn
        signs the ECDHE key exchange — a verified quote therefore
        authenticates the session keys end to end."""
        if not certificate.evidence:
            raise QuoteInvalidError(
                "peer certificate carries no attestation evidence"
            )
        return self.verify_evidence(
            certificate.evidence, BINDING_TLS, hs.ratls_key_binding(certificate)
        )

    def verify_join_evidence(
        self, evidence_bytes: bytes, address: str, *, force_fresh: bool = False
    ) -> VerifiedIdentity:
        """Replica-group hook: verify join evidence bound to ``address``."""
        return self.verify_evidence(
            evidence_bytes,
            BINDING_ROTE_JOIN,
            address.encode(),
            force_fresh=force_fresh,
        )


def make_attested_identity(
    ca,
    subject: str,
    enclave: Enclave,
    quoting_enclave: QuotingEnclave,
    *,
    key_epoch: int = 1,
    issued_at: float = 0.0,
    seed: bytes | None = None,
):
    """Generate a key pair and an evidence-bearing certificate.

    The RA-TLS counterpart of :func:`repro.tls.cert.make_server_identity`:
    the enclave is quoted over the fresh public key (plus epoch and issue
    time) and the CA embeds the evidence under its signature."""
    drbg = HmacDrbg(
        seed=seed if seed is not None else sha256(b"ra-id" + subject.encode())
    )
    key = EcdsaPrivateKey.generate(drbg)
    public = key.public_key()
    binding = report_binding(BINDING_TLS, public.encode(), key_epoch, issued_at)
    quote = quoting_enclave.quote(enclave, binding)
    evidence = AttestationEvidence(quote, key_epoch, issued_at)
    certificate = ca.issue(subject, public, evidence=evidence.encode())
    return key, certificate


class AttestationPlane:
    """Deployment-level attestation wiring for a replica group.

    One attestation service, one shared logical clock, one quoting
    enclave per platform label (every node runs on its own simulated
    CPU), and a verifier factory handing each participant its own
    bounded cache while sharing service, policy and clock."""

    def __init__(
        self,
        authority: SigningAuthority,
        *,
        freshness_window: float | None = None,
        cache_ttl: float | None = None,
        max_retries: int = 2,
    ):
        self.authority = authority
        self.service = AttestationService()
        self.clock = LogicalClock()
        self.freshness_window = freshness_window
        self.cache_ttl = cache_ttl
        self.max_retries = max_retries
        self._quoting: dict[str, QuotingEnclave] = {}

    def platform(self, label: str) -> QuotingEnclave:
        """The (registered) quoting enclave for platform ``label``."""
        qe = self._quoting.get(label)
        if qe is None:
            qe = QuotingEnclave(platform_seed=b"plane:" + label.encode())
            self.service.register_platform(qe)
            self._quoting[label] = qe
        return qe

    def rogue_platform(self, label: str) -> QuotingEnclave:
        """A quoting enclave the service has *never* provisioned.

        Chaos harness helper: quotes from it are forged evidence (no
        registered attestation key), exercising the unknown-platform
        rejection path."""
        return QuotingEnclave(platform_seed=b"rogue:" + label.encode())

    def evidence_for(
        self,
        label: str,
        enclave: Enclave,
        context: bytes,
        payload: bytes,
        *,
        key_epoch: int | None = None,
    ) -> AttestationEvidence:
        """Quote ``enclave`` on platform ``label``, binding the payload."""
        epoch = key_epoch if key_epoch is not None else self.authority.current_epoch
        issued = self.clock.now()
        binding = report_binding(context, payload, epoch, issued)
        quote = self.platform(label).quote(enclave, binding)
        return AttestationEvidence(quote, epoch, issued)

    def policy(
        self, allowed_measurements: tuple[bytes, ...] | None = None
    ) -> AttestationPolicy:
        """The group policy: this authority's MRSIGNER, plane freshness."""
        signer = sha256(b"MRSIGNER\x00" + self.authority.name.encode())
        return AttestationPolicy(
            allowed_measurements=allowed_measurements,
            expected_signer=signer,
            freshness_window=self.freshness_window,
        )

    def verifier(
        self,
        name: str,
        *,
        allowed_measurements: tuple[bytes, ...] | None = None,
    ) -> AttestationVerifier:
        return AttestationVerifier(
            self.service,
            self.policy(allowed_measurements),
            clock=self.clock,
            epoch_usable=self.authority.usable,
            cache_ttl=self.cache_ttl,
            max_retries=self.max_retries,
            name=name,
        )


def make_node_enclave(code_identity: str, signer_name: str) -> Enclave:
    """A minimal enclave standing in for one node's attested runtime."""
    return Enclave(
        EnclaveConfig(code_identity=code_identity, signer_name=signer_name)
    )
