"""Epochal key rotation: the crash-safe lifecycle coordinator.

The sealing, group and HMAC keys all descend from one
:class:`~repro.sgx.sealing.SigningAuthority` epoch. Rotating that epoch
invalidates every derived key at once — the remedy for suspected key
exposure, scheduled hygiene, and enclave upgrades alike — but rotation
is a *distributed, multi-step* state change: the authority's registry,
the audit log (which records the rotation as a chained tuple), the
sealed snapshot on untrusted storage, and every ROTE replica's sealed
counter blob must all cross to the new epoch. A crash in the middle
must never leave the deployment split across two epochs, and a slow or
partitioned replica must never be silently stranded on keys that stop
verifying.

:class:`KeyRotationCoordinator` gets both properties from a write-ahead
:class:`~repro.audit.hashchain.RotationIntent` (mirroring the seal
protocol's :class:`~repro.audit.hashchain.SealIntent`) plus idempotent
steps:

1. durably record a signed rotation intent (the WAL entry);
2. advance the authority's epoch registry (old epoch → grace window);
3. append an audited ``key_rotation`` event to the log itself, so the
   rotation is part of the tamper-evident history an auditor replays;
4. re-seal the log snapshot under the new epoch (the background
   re-seal pass for sealed log segments);
5. announce the epoch to the replica group — replicas that can derive
   the new keys adopt them and re-seal their counter state;
6. retire the old epoch once *every* replica has adopted the new one
   (otherwise it stays in the grace window — rotation never strands a
   healthy replica), then clear the WAL entry.

After a crash, :meth:`resume` replays the surviving intent through the
same steps; each is guarded (``current_epoch`` check, ``has_event``,
re-seal, re-announce) so replay converges on exactly one active epoch
no matter where the crash hit. The WAL write, the ``rotation.step``
crash point after it and after every step, and the replay are the
shared :class:`~repro.audit.wal.WriteAheadCoordinator`; this module
declares only the steps and the policy around them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.audit.hashchain import RotationIntent
from repro.audit.wal import WriteAheadCoordinator
from repro.obs import hooks as _obs

#: The fault site the chaos suite injects crashes at.
FAULT_SITE = "rotation.step"


@dataclass
class RotationReport:
    """What one rotation (or WAL replay) did, for operators and tests."""

    from_epoch: int
    to_epoch: int
    reason: str
    resumed: bool = False
    log_resealed: bool = False
    #: Epoch each replica acknowledged after the announcement round.
    acks: dict[int, int] = field(default_factory=dict)
    #: Epochs retired by this pass (empty while the grace window holds).
    retired: list[int] = field(default_factory=list)
    #: The WAL entry was cleared: nothing is left to replay.
    completed: bool = False

    @property
    def converged(self) -> bool:
        """Every acked replica reached the new epoch."""
        return bool(self.acks) and all(
            epoch >= self.to_epoch for epoch in self.acks.values()
        )

    def describe(self) -> str:
        bits = [
            f"epoch {self.from_epoch}->{self.to_epoch}",
            f"acks={len(self.acks)}",
        ]
        if self.resumed:
            bits.append("resumed")
        if self.retired:
            bits.append(f"retired={self.retired}")
        return " ".join(bits)


class KeyRotationCoordinator(WriteAheadCoordinator):
    """Drives epochal key rotation for one LibSeal instance."""

    INTENT = RotationIntent
    FAULT_SITE = FAULT_SITE
    SPAN = "audit.rotation"

    def __init__(self, libseal) -> None:
        self.libseal = libseal

    # The coordinator reads its collaborators through the LibSeal
    # instance on every access: crash recovery replaces the audit log,
    # and the coordinator must follow it.

    @property
    def authority(self):
        return self.libseal.rote.authority

    @property
    def cluster(self):
        return self.libseal.rote

    @property
    def storage(self):
        return self.libseal.storage

    @property
    def audit_log(self):
        return self.libseal.audit_log

    @property
    def signing_key(self):
        return self.libseal.signing_key

    @property
    def owner(self) -> str:
        return self.libseal.config.log_id

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def rotate(self, reason: str = "scheduled") -> RotationReport:
        """Rotate to a fresh epoch, end to end (WAL write first)."""
        from_epoch = self.authority.current_epoch
        return self._start(self.owner, from_epoch, from_epoch + 1, reason)

    def finish(self, force: bool = False) -> list[int]:
        """Retire grace-window epochs once the group no longer needs them.

        Without ``force``, retirement happens only when every replica
        acknowledges the current epoch — the bounded-grace guarantee
        that rotation never strands a healthy replica. ``force=True``
        is the operator override (e.g. confirmed key compromise):
        stragglers then fail closed on their next restart.
        """
        if not force:
            acks = self.cluster.announce_epoch()
            current = self.authority.current_epoch
            if len(acks) < self.cluster.n or any(
                epoch < current for epoch in acks.values()
            ):
                return []
        return self.authority.retire_grace()

    # ------------------------------------------------------------------
    # The idempotent step sequence (step 1 is the WAL write)
    # ------------------------------------------------------------------

    def _report(self, intent: RotationIntent, resumed: bool) -> RotationReport:
        return RotationReport(
            from_epoch=intent.from_epoch,
            to_epoch=intent.to_epoch,
            reason=intent.reason,
            resumed=resumed,
        )

    def _advance_registry(self, intent, report) -> None:
        """Step 2: advance the key registry (guard: already advanced)."""
        if self.authority.current_epoch < intent.to_epoch:
            self.authority.rotate(intent.reason)

    def _record_rotation(self, intent, report) -> None:
        """Step 3: the rotation becomes part of the audited history."""
        detail = f"epoch {intent.from_epoch}->{intent.to_epoch}: {intent.reason}"
        if not self.audit_log.has_event("key_rotation", detail):
            self.audit_log.append_event("key_rotation", detail)

    def _reseal_log(self, intent, report) -> None:
        """Step 4: re-seal the log snapshot under the new epoch. An
        availability fault defers the re-seal (degraded mode), it does
        not abort the rotation — the WAL survives until done."""
        report.log_resealed = self.libseal._try_seal()

    def _announce(self, intent, report) -> None:
        """Step 5: replicas adopt the epoch and re-seal their state."""
        report.acks = self.cluster.announce_epoch()

    def _retire_old(self, intent, report) -> None:
        """Step 6: retire the old lineage only once the whole group is
        across; otherwise the grace window keeps it verifiable."""
        if len(report.acks) == self.cluster.n and report.converged:
            report.retired = self.finish(force=True)

    STEPS = (
        _advance_registry,
        _record_rotation,
        _reseal_log,
        _announce,
        _retire_old,
    )

    def _may_clear(self, report: RotationReport) -> bool:
        return report.log_resealed

    def _observe(self, report: RotationReport, obs_span) -> None:
        _obs.active().metrics.counter(
            "key_rotation_runs_total",
            "Rotation coordinator passes",
            resumed=str(report.resumed).lower(),
        ).inc()
        if obs_span is not None:
            obs_span.set_attr("to_epoch", report.to_epoch)
            obs_span.set_attr("acks", len(report.acks))


#: ``rotation.step`` fault-site checks per rotation: one after the WAL
#: write, one after each of steps 2-6.
ROTATION_CHECKPOINTS = 1 + len(KeyRotationCoordinator.STEPS)
