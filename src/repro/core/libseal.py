""":class:`LibSeal` — the deployable secure audit library (§3).

One ``LibSeal`` instance audits one service: give it the service's SSM and
(optionally) an :class:`~repro.enclave_tls.EnclaveTlsRuntime` to attach to,
and it will observe every request/response pair flowing through the TLS
endpoint, maintain the tamper-evident relational log, answer in-band
invariant checks, and trim the log on schedule.

It can also be driven directly (``log_pair``) for deployments where the
TLS taps are wired differently (e.g. the performance simulator).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.audit.group_sealing import GroupSealPolicy, GroupSealer
from repro.audit.log import AuditLog
from repro.audit.persistence import InMemoryStorage, LogStorage
from repro.audit.recovery import RecoveryOutcome, RecoveryReport, recover_log
from repro.audit.rote import RoteCluster
from repro.core.checker import CheckOutcome, InvariantChecker, RateLimiter
from repro.core.logger import AuditLogger
from repro.crypto.drbg import HmacDrbg
from repro.crypto.ecdsa import EcdsaPrivateKey, EcdsaPublicKey
from repro.enclave_tls.runtime import EnclaveTlsRuntime
from repro.errors import (
    AuditBufferFullError,
    AvailabilityError,
    QuorumUnavailableError,
    StorageError,
)
from repro.faults import hooks as _faults
from repro.http import HttpRequest, HttpResponse
from repro.obs import hooks as _obs
from repro.sim.costs import LOGGING_BASE_CYCLES, LOGGING_SEALDB_INSERT_CYCLES
from repro.ssm.base import ServiceSpecificModule


@dataclass
class LibSealConfig:
    """Deployment knobs (defaults follow the paper's evaluation set-up)."""

    #: Seal + flush after every request/response pair (LibSEAL-disk mode).
    flush_each_pair: bool = True
    #: Run invariant checks every N pairs (None = only on client request).
    check_interval: int | None = None
    #: Trim the log every N pairs (None = never automatically).
    trim_interval: int | None = None
    #: Token-bucket size for client-triggered checks (§6.3 DoS limit).
    check_rate_capacity: int = 3
    #: Tokens refilled per logged pair.
    check_rate_refill: float = 0.2
    #: ROTE fault tolerance (n = 3f + 1 nodes).
    rote_f: int = 1
    log_id: str = "libseal-log"
    #: Degraded-mode bound: pairs logged-but-unsealed while storage or the
    #: ROTE quorum is down. Beyond it, new pairs are *blocked* (an
    #: explicit :class:`~repro.errors.AuditBufferFullError`) rather than
    #: audit records being silently dropped.
    max_unsealed_pairs: int = 64
    #: Evaluate delta-decomposable invariants incrementally past the last
    #: check's watermark (False = always full re-scan, the paper's
    #: baseline behaviour).
    incremental_checks: bool = True
    #: Group sealing (Eleos-style transition batching): seal once per
    #: window of up to this many accepted pairs instead of per pair.
    #: 1 = the paper's per-pair behaviour. In grouped mode a pair's
    #: acknowledgement rides on the seal that covers its window.
    group_seal_pairs: int = 1
    #: Close an open group-seal window early once its staged pairs'
    #: modelled append cycles reach this budget (0 = records bound only).
    group_seal_cycle_budget: float = 0.0


@dataclass
class DegradedState:
    """Explicit audit-degradation marker (never silent).

    Active while sealing cannot complete: pairs keep flowing into the
    in-enclave log (the next successful seal covers them all, since the
    signed head anchors the whole chain), but freshness/durability of the
    tail cannot be certified until the dependency heals.
    """

    active: bool = False
    #: "freshness-unverifiable" (ROTE quorum down) or
    #: "storage-unavailable" (snapshot writes failing).
    reason: str | None = None
    #: ``pairs_logged`` value when degradation began.
    since_pair: int | None = None
    #: Pairs appended since the last successful seal.
    unsealed_pairs: int = 0
    last_error: Exception | None = field(default=None, repr=False)


class LibSeal:
    """The secure audit library for one service instance."""

    def __init__(
        self,
        ssm: ServiceSpecificModule,
        config: LibSealConfig | None = None,
        signing_key: EcdsaPrivateKey | None = None,
        rote: RoteCluster | None = None,
        storage: LogStorage | None = None,
    ):
        self.ssm = ssm
        self.config = config or LibSealConfig()
        self.signing_key = (
            signing_key
            if signing_key is not None
            else EcdsaPrivateKey.generate(HmacDrbg(seed=b"libseal-" + ssm.name.encode()))
        )
        self.rote = rote if rote is not None else RoteCluster(f=self.config.rote_f)
        self.storage = storage if storage is not None else InMemoryStorage()
        self.audit_log = AuditLog(
            ssm.schema_sql,
            self.signing_key,
            self.rote,
            log_id=self.config.log_id,
            storage=self.storage,
        )
        self.checker = InvariantChecker(
            ssm, self.audit_log, incremental=self.config.incremental_checks
        )
        self.rate_limiter = RateLimiter(
            self.config.check_rate_capacity, self.config.check_rate_refill
        )
        self.group_sealer = GroupSealer(
            GroupSealPolicy(
                max_pairs=self.config.group_seal_pairs,
                max_cycles=self.config.group_seal_cycle_budget,
            )
        )
        self.logger = AuditLogger(self._handle_pair)
        self.logical_time = 0
        self.pairs_logged = 0
        self.degraded = DegradedState()
        self.recovery_report: RecoveryReport | None = None
        self.last_outcome: CheckOutcome | None = None
        self._attached_runtime: EnclaveTlsRuntime | None = None
        # Maps a connection handle to the rate-limiting key. By default
        # the handle itself; with client authentication (§6.3), attach()
        # upgrades this to the authenticated client identity so an
        # attacker cannot reset their budget by reconnecting.
        self.client_key_resolver = lambda handle: handle

    # ------------------------------------------------------------------
    # Attachment to the enclave TLS runtime
    # ------------------------------------------------------------------

    def attach(self, runtime: EnclaveTlsRuntime) -> None:
        """Install the audit taps on a LibSEAL TLS enclave (§5.1)."""
        runtime.set_audit_hooks(
            on_read=self.logger.on_read, on_write=self.logger.on_write
        )
        self._attached_runtime = runtime

        def resolve(handle: int):
            # Runs inside the enclave (within the ssl_read/write ecall):
            # key client-triggered checks by the authenticated client
            # certificate subject when TLS client auth is in use (§6.3).
            entry = runtime._inside["connections"].get(handle)
            conn = entry["conn"] if entry else None
            if conn is not None and conn.peer_certificate is not None:
                return ("client", conn.peer_certificate.subject)
            return handle

        self.client_key_resolver = resolve

    # ------------------------------------------------------------------
    # The per-pair pipeline
    # ------------------------------------------------------------------

    def _handle_pair(
        self, request: HttpRequest, response: HttpResponse, handle: int
    ) -> str | None:
        with _obs.span("audit.pair", cycles=LOGGING_BASE_CYCLES) as obs_span:
            header = self._handle_pair_inner(request, response, handle)
            if _obs.ON:
                _obs.active().metrics.counter(
                    "libseal_pairs_total", "Request/response pairs audited"
                ).inc()
                if obs_span is not None and header is not None:
                    obs_span.set_attr("check_header", header)
            return header

    def _handle_pair_inner(
        self, request: HttpRequest, response: HttpResponse, handle: int
    ) -> str | None:
        events = _faults.check("libseal.pair")
        _faults.crash_on(events, "crash_before_log")
        if (
            self.degraded.active
            and self.degraded.unsealed_pairs >= self.config.max_unsealed_pairs
        ):
            # Buffer bound reached: one more seal attempt, then block the
            # pair explicitly — never drop audit records on the floor.
            if not self._try_seal():
                raise AuditBufferFullError(
                    f"{self.degraded.unsealed_pairs} unsealed pairs "
                    f"(bound {self.config.max_unsealed_pairs}) while audit "
                    f"is degraded: {self.degraded.reason}"
                ) from self.degraded.last_error
        self.logical_time += 1
        self.pairs_logged += 1

        # Stage tuples while the SSM runs and append only once it has
        # returned: an SSM that raises mid-pair (hostile payload, parser
        # bug) must leave the audit log without a half-logged pair —
        # every log state is a consistent prefix of whole pairs.
        staged: list[tuple[str, object]] = []

        def emit(table: str, values) -> None:
            staged.append((table, values))

        self.ssm.log(request, response, emit, self.logical_time)
        emitted = len(staged)
        for table, values in staged:
            self.audit_log.append(table, values)
        _faults.crash_on(events, "crash_after_log")
        if emitted and self.config.flush_each_pair:
            pair_cycles = (
                LOGGING_BASE_CYCLES + emitted * LOGGING_SEALDB_INSERT_CYCLES
            )
            window_closed = self.group_sealer.stage(pair_cycles)
            # While degraded, grouping is suspended: every pair retries the
            # seal so healing is detected immediately and the unsealed-pair
            # bound counts exactly (legacy per-pair semantics).
            if window_closed or self.degraded.active:
                self._try_seal()

        self.rate_limiter.on_request()
        header_value: str | None = None
        if request.wants_invariant_check:
            if self.rate_limiter.allow(self.client_key_resolver(handle)):
                outcome = self.check_invariants()
                header_value = outcome.header_value()
            else:
                self.checker.stats.rate_limited += 1
                header_value = "RATE-LIMITED"

        interval = self.config.check_interval
        if interval is not None and self.pairs_logged % interval == 0:
            self.check_invariants()
        trim_interval = self.config.trim_interval
        if trim_interval is not None and self.pairs_logged % trim_interval == 0:
            self.trim()
        return header_value

    # ------------------------------------------------------------------
    # Sealing with graceful degradation
    # ------------------------------------------------------------------

    def _try_seal(self) -> bool:
        """Seal now; on availability faults enter/extend degraded mode.

        Returns True when the epoch sealed (covering every appended tuple,
        including the staged group-seal window and any previously buffered
        ones) and False when the audit path is degraded. Never raises for
        availability faults; integrity errors still propagate.
        """
        # The staged window rides on this seal attempt: drain it first so
        # a failed seal converts exactly those pairs into *unsealed* pairs
        # (counted against the degraded-mode bound) instead of leaving
        # them invisibly deferred.
        covered = self.group_sealer.drain(forced=self.degraded.active)
        try:
            self.audit_log.seal_epoch()
        except QuorumUnavailableError as exc:
            self._enter_degraded("freshness-unverifiable", exc)
            self.degraded.unsealed_pairs += covered
            return False
        except StorageError as exc:
            self._enter_degraded("storage-unavailable", exc)
            self.degraded.unsealed_pairs += covered
            return False
        if self.degraded.active:
            self.degraded = DegradedState()  # healed: the seal covered all
            if _obs.ON:
                _obs.active().metrics.gauge(
                    "libseal_degraded", "1 while audit sealing is degraded"
                ).set(0)
        return True

    def _enter_degraded(self, reason: str, error: Exception) -> None:
        if not self.degraded.active:
            self.degraded.active = True
            self.degraded.since_pair = self.pairs_logged
            if _obs.ON:
                _obs.active().metrics.counter(
                    "libseal_degraded_transitions_total",
                    "Entries into degraded audit mode",
                    reason=reason,
                ).inc()
                _obs.active().metrics.gauge(
                    "libseal_degraded", "1 while audit sealing is degraded"
                ).set(1)
        self.degraded.reason = reason
        self.degraded.last_error = error

    def try_reseal(self) -> bool:
        """Retry a deferred seal (e.g. after the ROTE quorum healed).

        Returns True when the log is fully sealed and degraded mode (if
        any) has been left.
        """
        if not self.degraded.active:
            return True
        return self._try_seal()

    def flush_pending(self) -> bool:
        """Close the open group-seal window now (if any pairs are staged).

        The flush point for everything that must not ride an open window:
        rotation epochs, graceful shutdown, the event loop's audit-flush
        ocall completions. Returns True when nothing remained deferred
        afterwards (window empty, or the seal succeeded)."""
        if self.group_sealer.pending_pairs == 0:
            return not self.degraded.active or self.try_reseal()
        return self._try_seal()

    # ------------------------------------------------------------------
    # Crash recovery (start-up path)
    # ------------------------------------------------------------------

    @classmethod
    def recover(
        cls,
        ssm: ServiceSpecificModule,
        storage: LogStorage,
        config: LibSealConfig | None = None,
        signing_key: EcdsaPrivateKey | None = None,
        rote: RoteCluster | None = None,
    ) -> tuple["LibSeal | None", RecoveryReport]:
        """Restart after a crash: verify, classify and adopt the snapshot.

        Runs the :mod:`repro.audit.recovery` protocol against ``storage``.
        Returns ``(libseal, report)``:

        - on a recovered outcome (clean resume, torn tail, in-flight
          discard, no snapshot) ``libseal`` is ready to serve;
        - on ``FRESHNESS_UNVERIFIABLE`` it serves in explicit degraded
          mode (buffering up to ``config.max_unsealed_pairs``);
        - on a *detection* (tampering, rollback) or unavailable storage,
          ``libseal`` is None — resuming would launder the violation.
        """
        instance = cls(ssm, config=config, signing_key=signing_key,
                       rote=rote, storage=storage)
        report = recover_log(
            storage,
            instance.signing_key,
            instance.signing_key.public_key(),
            instance.rote,
            log_id=instance.config.log_id,
        )
        instance.recovery_report = report
        if report.detected or report.outcome in (
            RecoveryOutcome.STORAGE_UNAVAILABLE,
            # Fail closed on a retired key lineage: resuming fresh here
            # would silently abandon the sealed history.
            RecoveryOutcome.RETIRED_EPOCH,
        ):
            return None, report
        if report.log is not None:
            instance.audit_log = report.log
            instance.checker = InvariantChecker(
                ssm, report.log, incremental=instance.config.incremental_checks
            )
            # Logical time must move strictly forward past every recovered
            # tuple; the entry count is a safe upper bound on pair count.
            instance.logical_time = report.entries
            instance.pairs_logged = report.entries
        if report.outcome is RecoveryOutcome.FRESHNESS_UNVERIFIABLE or (
            report.error is not None
            and isinstance(report.error, AvailabilityError)
        ):
            reason = (
                "freshness-unverifiable"
                if isinstance(report.error, QuorumUnavailableError)
                else "storage-unavailable"
            )
            instance._enter_degraded(reason, report.error)
        return instance, report

    # ------------------------------------------------------------------
    # Direct-drive API (bypasses the TLS taps)
    # ------------------------------------------------------------------

    def log_pair(
        self, request: HttpRequest, response: HttpResponse, handle: int = 0
    ) -> str | None:
        """Log one already-parsed pair; returns a check-result header value
        if the request asked for a check."""
        return self._handle_pair(request, response, handle)

    # ------------------------------------------------------------------
    # Checking / trimming / verification
    # ------------------------------------------------------------------

    def check_invariants(self, force_full: bool = False) -> CheckOutcome:
        """Run all invariants now (enclave-internal, §5.2).

        Decomposable invariants evaluate only rows past the previous
        check's watermark unless ``force_full`` (or the config's
        ``incremental_checks=False``) demands a full re-scan.
        """
        self.last_outcome = self.checker.run_checks(force_full=force_full)
        return self.last_outcome

    def trim(self) -> int:
        """Trim the log now; returns tuples removed (§5.1)."""
        removed = self.checker.run_trimming()
        # Trimming seals a fresh epoch internally, which covered every
        # staged pair; the open window is spent, not still deferred.
        self.group_sealer.drain(forced=True)
        return removed

    def verify_log(self, public_key: EcdsaPublicKey | None = None) -> None:
        """Full log verification (chain, signature, freshness)."""
        key = public_key if public_key is not None else self.signing_key.public_key()
        self.audit_log.verify(key)

    def audit_status(self) -> dict:
        """Operator-facing audit-health snapshot.

        The degraded-mode handoff in one structure: whether sealing is
        degraded (and why), how much audit state is exposed (unsealed
        pairs vs the block bound), and where the certified log head
        stands. The chaos oracle asserts its invariants against exactly
        this view, so what operators see is what the checker checks.
        """
        head = self.audit_log.signed_head
        return {
            "degraded": self.degraded.active,
            "reason": self.degraded.reason,
            "unsealed_pairs": self.degraded.unsealed_pairs,
            "max_unsealed_pairs": self.config.max_unsealed_pairs,
            # The deferral is explicit: pairs staged in the open group-seal
            # window, awaiting the seal that acknowledges them.
            "pending_group_pairs": self.group_sealer.pending_pairs,
            "group_seal_window": self.config.group_seal_pairs,
            "pairs_logged": self.pairs_logged,
            "entries": len(self.audit_log.chain),
            "head_counter": head.counter_value if head is not None else None,
            "key_epoch": self.rote.authority.current_epoch,
            "key_rotations": self.rote.authority.rotations,
        }

    @property
    def log_size_bytes(self) -> int:
        return self.audit_log.size_bytes()
