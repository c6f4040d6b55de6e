"""One write-ahead step runner for key rotation and shard rebalancing.

Both are distributed state changes that a crash must never leave
half-applied, and both follow one procedure, run here once: sign the
intent and save it to its storage sidecar (the WAL entry) before
anything changes; run the coordinator's tuple of idempotent ``STEPS``
with a crash point at its ``FAULT_SITE`` after the WAL write and after
every step (``1 + len(STEPS)`` checkpoints); clear the WAL entry once
the coordinator's policy allows. :meth:`WriteAheadCoordinator.resume`
replays a surviving intent through the same steps, each guarded so that
replay converges no matter where the crash hit.
"""

from __future__ import annotations

from repro.faults import hooks as _faults
from repro.obs import hooks as _obs


class WriteAheadCoordinator:
    """Runs a signed write-ahead intent through idempotent steps.

    A subclass declares ``INTENT`` (the signed record type whose
    ``SIDECAR`` holds the WAL entry), ``FAULT_SITE``, ``SPAN`` and
    ``STEPS`` (functions called as ``step(self, intent, report)``), and
    supplies ``storage``, ``signing_key``, ``owner`` (the intent's
    expected ``OWNER`` value), ``_report`` and ``_observe`` (called only
    while observability is on).
    """

    INTENT: type
    FAULT_SITE: str
    SPAN: str
    STEPS: tuple

    def pending(self) -> bool:
        """Whether a WAL entry is outstanding."""
        return self.storage.load_intent(self.INTENT.SIDECAR) is not None

    def resume(self):
        """Replay a change whose WAL entry survived a crash.

        Returns None when no (valid) change was in flight. A forged,
        corrupt or foreign intent is discarded — it buys the adversary
        nothing: the worst outcome is that the operator re-issues a
        genuine change.
        """
        intent = self.INTENT.load_sidecar(
            self.storage,
            self.signing_key.public_key(),
            self.owner,
            on_invalid=self._clear_wal,
        )
        if intent is None:
            return None
        return self._run(intent, resumed=True)

    def _start(self, *fields, **named):
        """Sign the intent, make it durable, then run every step."""
        intent = self.INTENT.sign(self.signing_key, *fields, **named)
        self._on_intent(intent)
        self.storage.save_intent(intent.encode(), self.INTENT.SIDECAR)
        _faults.crash_point(self.FAULT_SITE)
        return self._run(intent)

    def _run(self, intent, resumed: bool = False):
        report = self._report(intent, resumed)
        with _obs.span(self.SPAN) as obs_span:
            self._on_intent(intent)
            for step in self.STEPS:
                step(self, intent, report)
                _faults.crash_point(self.FAULT_SITE)
            if self._may_clear(report):
                self._clear_wal()
                report.completed = True
            if _obs.ON:
                self._observe(report, obs_span)
        return report

    def _clear_wal(self) -> None:
        self.storage.clear_intent(self.INTENT.SIDECAR)

    # Policy hooks; the defaults suit a procedure with no extra policy.

    def _on_intent(self, intent) -> None:
        """Runs before the WAL write and before every (re)run."""

    def _may_clear(self, report) -> bool:
        """Whether the WAL entry may be cleared after the last step."""
        return True
