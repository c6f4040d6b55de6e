"""Invariant checking (§5.2), incremental evaluation, and rate limiting (§6.3).

Invariants are the SSM's SQL queries, each phrased as the *negation* of
the property: a non-empty result set is a violation. Checks run inside
the enclave against the audit log; results return to clients in-band.

Checking cost is the dominant runtime overhead in the paper (Figure 6:
full invariant evaluation grows with the whole log). The checker
therefore classifies every invariant once, at construction, with
:func:`repro.core.decompose.classify_invariant`:

- **delta-decomposable** invariants keep, per invariant, the watermark
  of the last evaluation plus the violations accumulated so far, and on
  the next check evaluate only driver rows past the watermark (a
  rewritten AST with ``driver.time > ?``), appending new violations to
  the accumulated set;
- everything else — and every invariant whenever the delta preconditions
  fail — re-scans the full log exactly as before.

Delta evaluation preconditions (all enforced per check, per invariant):
the log's ``time`` stream is still monotone, no trim has run since the
watermark (trims bump a generation counter), the earliest time appended
since the watermark is strictly greater than the watermark time (no late
tuple slid under the boundary), and the invariant has a prior full or
delta evaluation to extend. A fresh checker — including one built by
:meth:`repro.core.libseal.LibSeal.recover` — always starts with a full
scan, so untrusted persisted state can never pre-seed checker results.
"""

from __future__ import annotations

import time as _time
from collections import deque
from dataclasses import dataclass, field

from repro.audit.log import AuditLog, Watermark
from repro.core.decompose import Decomposition, classify_invariant
from repro.obs import hooks as _obs
from repro.sim.costs import checking_cycles
from repro.sealdb import ast
from repro.sealdb.parser import parse_statement
from repro.ssm.base import ServiceSpecificModule

#: Bound on the remembered violation names; older entries are dropped
#: (and counted) rather than growing without bound on a noisy service.
VIOLATION_HISTORY_LIMIT = 256


@dataclass(frozen=True)
class InvariantRunStats:
    """Per-invariant accounting for one checking pass."""

    name: str
    mode: str  #: ``"full"`` | ``"delta"`` | ``"skip"``
    rows_scanned: int
    violations: int
    decomposable: bool
    reason: str
    #: Rows filtered through the executor's batch predicates (never more
    #: than ``rows_scanned`` after clamping in the cost model).
    rows_vectorized: int = 0


@dataclass(frozen=True)
class CheckOutcome:
    """Result of one invariant-checking pass."""

    violations: dict[str, list[tuple]]
    elapsed_seconds: float
    invariant_stats: tuple[InvariantRunStats, ...] = ()

    @property
    def ok(self) -> bool:
        return not any(self.violations.values())

    @property
    def total_violations(self) -> int:
        return sum(len(rows) for rows in self.violations.values())

    @property
    def rows_scanned(self) -> int:
        return sum(s.rows_scanned for s in self.invariant_stats)

    @property
    def rows_vectorized(self) -> int:
        return sum(s.rows_vectorized for s in self.invariant_stats)

    @property
    def modelled_cycles(self) -> float:
        """§6.8 checking cost of this pass under the vectorized model."""
        return sum(
            checking_cycles(s.rows_scanned, 1, s.rows_vectorized)
            for s in self.invariant_stats
        )

    def header_value(self) -> str:
        """The ``Libseal-Check-Result`` header payload (§5.2)."""
        if self.ok:
            return "OK"
        parts = [
            f"{name}={len(rows)}"
            for name, rows in sorted(self.violations.items())
            if rows
        ]
        return "VIOLATIONS " + ",".join(parts)


class RateLimiter:
    """Token bucket per client: caps client-triggered checks (§6.3)."""

    def __init__(self, capacity: int = 3, refill_per_request: float = 0.2):
        self.capacity = capacity
        self.refill_per_request = refill_per_request
        self._buckets: dict[object, float] = {}

    def allow(self, client_key: object) -> bool:
        """Spend one token for ``client_key`` if available."""
        tokens = self._buckets.get(client_key, float(self.capacity))
        if tokens < 1.0:
            self._buckets[client_key] = tokens
            return False
        self._buckets[client_key] = tokens - 1.0
        return True

    def on_request(self) -> None:
        """Refill all buckets a little as legitimate traffic flows."""
        for key, tokens in self._buckets.items():
            self._buckets[key] = min(self.capacity, tokens + self.refill_per_request)


@dataclass
class CheckerStats:
    checks_run: int = 0
    trims_run: int = 0
    tuples_trimmed: int = 0
    total_check_seconds: float = 0.0
    total_trim_seconds: float = 0.0
    rate_limited: int = 0
    full_evaluations: int = 0
    delta_evaluations: int = 0
    skipped_evaluations: int = 0
    rows_scanned: int = 0
    rows_vectorized: int = 0
    violation_history: deque = field(
        default_factory=lambda: deque(maxlen=VIOLATION_HISTORY_LIMIT)
    )
    violation_history_dropped: int = 0

    def record_violation(self, name: str) -> None:
        if (
            self.violation_history.maxlen is not None
            and len(self.violation_history) == self.violation_history.maxlen
        ):
            self.violation_history_dropped += 1
        self.violation_history.append(name)


class _InvariantState:
    """Per-invariant incremental-evaluation state."""

    __slots__ = ("name", "sql", "statement", "plan", "watermark", "accumulated")

    def __init__(self, name: str, sql: str, statement: ast.Statement, plan: Decomposition):
        self.name = name
        self.sql = sql
        self.statement = statement
        self.plan = plan
        self.watermark: Watermark | None = None
        self.accumulated: list[tuple] | None = None


class InvariantChecker:
    """Runs the SSM's invariants and trimming queries over an audit log.

    ``incremental=False`` pins every invariant to the full re-scan path —
    the reference behaviour the parity tests and Figure 6 baselines
    compare against.
    """

    def __init__(
        self,
        ssm: ServiceSpecificModule,
        audit_log: AuditLog,
        incremental: bool = True,
    ):
        self.ssm = ssm
        self.audit_log = audit_log
        self.incremental = incremental
        self.stats = CheckerStats()
        self._states: list[_InvariantState] = []
        for name, sql in ssm.invariants.items():
            statement = parse_statement(sql)
            plan = classify_invariant(sql, audit_log.db)
            self._states.append(_InvariantState(name, sql, statement, plan))

    def run_checks(self, force_full: bool = False) -> CheckOutcome:
        """Execute every invariant; returns all violating rows.

        ``force_full=True`` bypasses delta evaluation for this pass only
        (accumulated state is refreshed from the full scan, so subsequent
        passes may go back to deltas).
        """
        started = _time.perf_counter()
        violations: dict[str, list[tuple]] = {}
        per_invariant: list[InvariantRunStats] = []
        with _obs.span("check.pass"):
            for state in self._states:
                inv_span = None
                if _obs.ON and _obs.active().config.trace_spans:
                    inv_span = _obs.active().tracer.begin(
                        "check.invariant", invariant=state.name
                    )
                try:
                    rows, mode, scanned, vectorized = self._run_one(state, force_full)
                finally:
                    if inv_span is not None:
                        _obs.active().tracer.end(inv_span)
                if _obs.ON:
                    cycles = checking_cycles(scanned, 1, vectorized)
                    if inv_span is not None:
                        inv_span.set_attr("mode", mode)
                        inv_span.set_attr("rows_scanned", scanned)
                        inv_span.set_attr("rows_vectorized", vectorized)
                        inv_span.add_cycles(cycles)
                    metrics = _obs.active().metrics
                    metrics.counter(
                        "check_invariant_evaluations_total",
                        "Invariant evaluations by mode",
                        mode=mode,
                    ).inc()
                    metrics.counter(
                        "check_rows_scanned_total",
                        "Rows scanned by invariant evaluation",
                    ).inc(scanned)
                    if vectorized:
                        metrics.counter(
                            "check_rows_vectorized_total",
                            "Invariant-evaluation rows on the batch path",
                        ).inc(min(vectorized, scanned))
                violations[state.name] = rows
                if rows:
                    self.stats.record_violation(state.name)
                per_invariant.append(
                    InvariantRunStats(
                        name=state.name,
                        mode=mode,
                        rows_scanned=scanned,
                        violations=len(rows),
                        decomposable=state.plan.decomposable,
                        reason=state.plan.reason,
                        rows_vectorized=min(vectorized, scanned),
                    )
                )
                if mode == "full":
                    self.stats.full_evaluations += 1
                elif mode == "delta":
                    self.stats.delta_evaluations += 1
                else:
                    self.stats.skipped_evaluations += 1
                self.stats.rows_scanned += scanned
                self.stats.rows_vectorized += min(vectorized, scanned)
            elapsed = _time.perf_counter() - started
            self.stats.checks_run += 1
            self.stats.total_check_seconds += elapsed
            if _obs.ON:
                _obs.active().metrics.histogram(
                    "check_pass_seconds", "Wall time of one checking pass"
                ).observe(elapsed)
        return CheckOutcome(violations, elapsed, tuple(per_invariant))

    def _run_one(
        self, state: _InvariantState, force_full: bool
    ) -> tuple[list[tuple], str, int, int]:
        log = self.audit_log
        watermark = state.watermark
        can_delta = (
            self.incremental
            and not force_full
            and state.plan.decomposable
            and state.plan.delta_select is not None
            and state.accumulated is not None
            and watermark is not None
            and watermark.generation == log.trim_generation
            and log.time_monotone
        )
        if can_delta:
            if log.next_row_id - 1 == watermark.row_id:
                # Nothing appended anywhere since the last evaluation.
                return list(state.accumulated), "skip", 0, 0
            boundary = log.min_time_since(watermark)
            if boundary is None or boundary <= watermark.time:
                # A tuple with unknown or at-or-under-watermark time was
                # appended: the past-guard argument no longer holds.
                can_delta = False
            else:
                new_rows = log.rows_since(state.plan.driver_table, watermark)
                if new_rows is None:
                    can_delta = False
                elif not new_rows:
                    # Appends happened, but none to this invariant's
                    # driver table: no new result rows are possible.
                    state.watermark = log.watermark()
                    return list(state.accumulated), "skip", 0, 0
        if not can_delta:
            result = log.db.execute_ast(state.statement)
            state.accumulated = list(result.rows)
            state.watermark = log.watermark()
            return list(result.rows), "full", result.rows_scanned, result.rows_vectorized
        result = log.db.execute_ast(state.plan.delta_select, (watermark.time,))
        # Extend the cached accumulation in place: the full path always
        # seeds a private list, and every caller-visible value is a copy,
        # so extending avoids rebuilding an O(total-violations) list per
        # incremental pass.
        state.accumulated.extend(result.rows)
        state.watermark = log.watermark()
        return list(state.accumulated), "delta", result.rows_scanned, result.rows_vectorized

    def run_trimming(self) -> int:
        """Execute the SSM's trimming queries; returns tuples removed."""
        started = _time.perf_counter()
        removed = self.audit_log.trim(self.ssm.trimming_queries)
        elapsed = _time.perf_counter() - started
        self.stats.trims_run += 1
        self.stats.tuples_trimmed += removed
        self.stats.total_trim_seconds += elapsed
        return removed
