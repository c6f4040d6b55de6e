""":class:`AuditLog`: the relational, tamper-evident, rollback-protected log.

Composition (§5.1):

- tuples live in a SealDB database (the in-enclave SQLite stand-in), so
  invariants and trimming are plain SQL;
- every appended tuple extends a hash chain; the head is signed together
  with a fresh ROTE counter value on each epoch seal;
- the serialized log lands on untrusted storage; on load, everything is
  re-verified — payloads against the chain, the chain head against the
  signature, and the claimed counter against the live ROTE quorum.

Trimming runs the service's trimming queries, then rebuilds the chain over
the surviving tuples and seals a fresh epoch (the paper stores hashes
separately so precisely this recomputation is cheap).

Appends also feed the *watermark* machinery used by incremental invariant
checking: every tuple gets a monotonically increasing row id, each table's
``time`` column is tracked for append-sortedness (and hinted to SealDB's
planner), and :meth:`AuditLog.watermark` captures "everything up to here
has been checked". :meth:`AuditLog.rows_since` replays the appends past a
watermark; a trim bumps ``trim_generation``, which invalidates every
outstanding watermark so the checker conservatively re-scans once.
Watermark bookkeeping survives ``serialize``/``load`` (and therefore
sealing epochs and crash recovery).
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.audit.hashchain import HashChain, SealIntent, SignedHead
from repro.audit.persistence import LogStorage
from repro.audit.rote import RoteCluster
from repro.crypto.ecdsa import EcdsaPrivateKey, EcdsaPublicKey, EcdsaSignature
from repro.errors import IntegrityError, RollbackError
from repro.faults import hooks as _faults
from repro.obs import hooks as _obs
from repro.sim.costs import LOGGING_SEALDB_INSERT_CYCLES, SEAL_EPOCH_CYCLES
from repro.sealdb import Database
from repro.sealdb.executor import Result
from repro.sealdb.table import SqlValue


def _encode_value(value: SqlValue) -> object:
    if isinstance(value, bytes):
        return {"__bytes__": value.hex()}
    return value


def _decode_value(value: object) -> SqlValue:
    if isinstance(value, dict) and "__bytes__" in value:
        return bytes.fromhex(value["__bytes__"])
    return value  # type: ignore[return-value]


TIME_COLUMN = "time"

#: Log-internal audit table: lifecycle events (key rotations, enclave
#: upgrades) recorded *in the log itself*, so they ride the same hash
#: chain, counter and signatures as service tuples — an auditor replaying
#: the log sees exactly when keys changed hands and code was upgraded.
EVENTS_TABLE = "libseal_events"
EVENTS_SCHEMA = f"CREATE TABLE {EVENTS_TABLE} (time INTEGER, kind TEXT, detail TEXT)"


@dataclass(frozen=True)
class Watermark:
    """A point in the append stream up to which checking has run.

    ``row_id`` is the id of the last covered append, ``time`` the highest
    logical time seen by then, and ``generation`` the trim generation the
    watermark was taken in — a later trim invalidates it, forcing the
    holder back through the conservative full-scan path.
    """

    row_id: int
    time: int
    generation: int


class AuditLog:
    """The enclave's audit log for one service instance."""

    def __init__(
        self,
        schema_sql: str,
        signing_key: EcdsaPrivateKey,
        rote: RoteCluster,
        log_id: str = "libseal-log",
        storage: LogStorage | None = None,
    ):
        self.schema_sql = schema_sql
        self._reset_db()
        self._signing_key = signing_key
        self.rote = rote
        self.log_id = log_id
        self.storage = storage
        self.chain = HashChain()
        self._payloads: list[tuple[str, tuple[SqlValue, ...]]] = []
        self.signed_head: SignedHead | None = None
        self.appends = 0
        self.epochs_sealed = 0
        # Watermark bookkeeping (incremental checking):
        self.next_row_id = 0
        self._payload_ids: list[int] = []
        self.trim_generation = 0
        self.latest_time = 0
        #: False once any append's logical time went backwards; delta
        #: checking then permanently falls back to full re-scans.
        self.time_monotone = True

    def _reset_db(self) -> None:
        """A fresh relational store: the service schema plus the
        ``libseal_events`` table. Each table's ``time`` column is hinted
        append-sorted to the SealDB planner (the audit log only appends
        in time order)."""
        self.db = Database()
        if self.schema_sql.strip():
            self.db.executescript(self.schema_sql)
        if EVENTS_TABLE not in {name.lower() for name in self.db.table_names()}:
            self.db.executescript(EVENTS_SCHEMA)
        self._time_columns: dict[str, int | None] = {}
        for name in self.db.table_names():
            table = self.db.lookup_table(name)
            index: int | None = None
            for i, column in enumerate(table.columns):
                if column.name.lower() == TIME_COLUMN:
                    index = i
                    break
            self._time_columns[name.lower()] = index
            if index is not None:
                table.mark_sorted(index)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def append(self, table: str, values: Sequence[SqlValue]) -> None:
        """Append one tuple: DB insert + hash-chain extension."""
        placeholders = ", ".join("?" * len(values))
        self.db.execute(
            f"INSERT INTO {table} VALUES ({placeholders})", tuple(values)
        )
        self.chain.append(table, list(values))
        self._payloads.append((table, tuple(values)))
        self._payload_ids.append(self.next_row_id)
        self.next_row_id += 1
        self.appends += 1
        if _obs.ON:
            _obs.active().metrics.counter(
                "audit_appends_total",
                "Tuples appended to the audit log",
                table=table.lower(),
            ).inc()
            _obs.add_cycles(LOGGING_SEALDB_INSERT_CYCLES)
        time_col = self._time_columns.get(table.lower())
        if time_col is not None:
            # Read the affinity-coerced value back from the table so the
            # watermark compares the same representation queries see.
            stored = self.db.lookup_table(table).rows[-1][time_col]
            if isinstance(stored, int) and not isinstance(stored, bool):
                if stored < self.latest_time:
                    self.time_monotone = False
                else:
                    self.latest_time = stored
            else:
                self.time_monotone = False

    def append_event(self, kind: str, detail: str, time: int | None = None) -> None:
        """Append an audited lifecycle event (rotation, upgrade) to the log.

        The event is an ordinary chained tuple: tampering with it breaks
        the hash chain, and the next epoch seal anchors it under the
        quorum counter like any service pair.
        """
        if time is None:
            time = self.latest_time
        self.append(EVENTS_TABLE, (time, kind, detail))

    def payloads(self) -> Iterator[tuple[str, tuple[SqlValue, ...]]]:
        """Every appended ``(table, values)`` tuple, in chain order."""
        return iter(self._payloads)

    def has_event(self, kind: str, detail: str) -> bool:
        """Whether an identical lifecycle event was already recorded.

        Used by the rotation coordinator's WAL replay to keep the
        audited-record step idempotent across crash/resume cycles.
        """
        return any(
            table.lower() == EVENTS_TABLE
            and len(values) == 3
            and values[1] == kind
            and values[2] == detail
            for table, values in self._payloads
        )

    # ------------------------------------------------------------------
    # Watermarks (incremental checking)
    # ------------------------------------------------------------------

    def watermark(self) -> Watermark:
        """Capture the current append-stream position."""
        return Watermark(self.next_row_id - 1, self.latest_time, self.trim_generation)

    def rows_since(
        self, table: str, watermark: Watermark
    ) -> list[tuple[int, tuple[SqlValue, ...]]] | None:
        """``(row_id, values)`` appended to ``table`` after ``watermark``.

        Returns None when the watermark is from an older trim generation
        (the appends it refers to may no longer exist): the caller must
        fall back to a full scan and take a fresh watermark.
        """
        if watermark.generation != self.trim_generation:
            return None
        start = bisect_right(self._payload_ids, watermark.row_id)
        lowered = table.lower()
        return [
            (row_id, values)
            for row_id, (name, values) in zip(
                self._payload_ids[start:], self._payloads[start:]
            )
            if name.lower() == lowered
        ]

    def min_time_since(self, watermark: Watermark) -> int | None:
        """Smallest logical time among appends after ``watermark`` (any
        table), or None when nothing was appended / times are unusable.
        Lets the checker verify no late tuple slid at-or-under its
        watermark time before trusting a delta evaluation."""
        if watermark.generation != self.trim_generation:
            return None
        start = bisect_right(self._payload_ids, watermark.row_id)
        minimum: int | None = None
        for name, values in self._payloads[start:]:
            time_col = self._time_columns.get(name.lower())
            if time_col is None or time_col >= len(values):
                continue
            value = values[time_col]
            if not isinstance(value, int) or isinstance(value, bool):
                return None
            if minimum is None or value < minimum:
                minimum = value
        return minimum

    def seal_epoch(self) -> SignedHead:
        """Sign the chain head against a fresh counter; flush if configured.

        Called after each request/response pair in the paper's synchronous
        configuration (LibSEAL-disk), or at coarser intervals.

        Crash-tolerant protocol order:

        1. durably write a signed :class:`SealIntent` for the new chain
           state (write-ahead, so a crash after step 2 is distinguishable
           from a rollback at recovery);
        2. increment the ROTE counter (retries/backoff inside);
        3. sign the head against the fresh counter value;
        4. atomically replace the snapshot on storage;
        5. clear the intent.

        A failure in step 2 (``QuorumUnavailableError``) or 4
        (``StorageError``) leaves the in-memory log intact; the caller may
        retry the seal later — the next successful seal covers every
        appended tuple.
        """
        events = _faults.check("audit.seal")
        with _obs.span("audit.seal", cycles=SEAL_EPOCH_CYCLES):
            _faults.crash_on(events, "crash_before_intent")
            if self.storage is not None:
                intent = SealIntent.sign(
                    self._signing_key, self.log_id, self.chain.head, len(self.chain)
                )
                self.storage.save_intent(intent.encode())
            _faults.crash_on(events, "crash_after_intent")
            counter_value = self.rote.increment(self.log_id)
            _faults.crash_on(events, "crash_after_increment")
            self.signed_head = SignedHead.sign(
                self._signing_key, self.chain.head, counter_value, len(self.chain)
            )
            self.epochs_sealed += 1
            if self.storage is not None:
                self.storage.save(self.serialize())
                _faults.crash_on(events, "crash_after_save")
                self.storage.clear_intent()
            if _obs.ON:
                _obs.active().metrics.counter(
                    "audit_seals_total", "Epoch seals completed"
                ).inc()
            return self.signed_head

    # ------------------------------------------------------------------
    # Reading / checking
    # ------------------------------------------------------------------

    def query(self, sql: str, params: tuple[SqlValue, ...] = ()) -> Result:
        """Run an invariant query (SELECT) against the log."""
        return self.db.execute(sql, params)

    def row_count(self, table: str) -> int:
        return self.db.row_count(table)

    def size_bytes(self) -> int:
        """Approximate log size for the §6.5 accounting."""
        return self.db.approximate_size_bytes()

    # ------------------------------------------------------------------
    # Trimming (§5.1)
    # ------------------------------------------------------------------

    def trim(self, trimming_queries: Sequence[str]) -> int:
        """Run trimming queries, rebuild the chain, seal a fresh epoch.

        Returns the number of tuples removed.
        """
        for sql in trimming_queries:
            self.db.execute(sql)
        surviving = self._surviving_indices()
        removed = len(self._payloads) - len(surviving)
        self._payloads = [self._payloads[i] for i in surviving]
        self._payload_ids = [self._payload_ids[i] for i in surviving]
        self.chain.rebuild((t, list(v)) for t, v in self._payloads)
        # Outstanding watermarks may point into the removed region;
        # bumping the generation forces their holders to full-scan once.
        self.trim_generation += 1
        self.seal_epoch()
        if _obs.ON:
            metrics = _obs.active().metrics
            metrics.counter("audit_trims_total", "Trim passes completed").inc()
            metrics.counter(
                "audit_trimmed_rows_total", "Tuples removed by trimming"
            ).inc(removed)
        return removed

    def remove_where(self, predicate) -> int:
        """Remove every payload tuple matched by ``predicate(table, values)``.

        The shard-rebalance primitive: after an ownership cutover the old
        owner retires the migrated range by dropping exactly those tuples,
        rebuilding the chain over the survivors and sealing a fresh epoch
        (the same shape as :meth:`trim`, but predicate- rather than
        SQL-driven, because range membership is a hash of the routing key
        the relational layer cannot express). Idempotent: a replayed call
        matches nothing and seals nothing. Returns the tuples removed.
        """
        survivors = [
            (index, table, values)
            for index, (table, values) in enumerate(self._payloads)
            if not predicate(table, values)
        ]
        removed = len(self._payloads) - len(survivors)
        if removed == 0:
            return 0
        # Rebuild the relational store from the surviving tuples; row ids
        # keep their original (strictly increasing) values so outstanding
        # deltas cannot alias, and the generation bump invalidates every
        # watermark exactly as a trim would.
        self._reset_db()
        for _, table, values in survivors:
            placeholders = ", ".join("?" * len(values))
            self.db.execute(
                f"INSERT INTO {table} VALUES ({placeholders})", tuple(values)
            )
        self._payload_ids = [self._payload_ids[i] for i, _, _ in survivors]
        self._payloads = [(table, values) for _, table, values in survivors]
        self.chain.rebuild((t, list(v)) for t, v in self._payloads)
        self.trim_generation += 1
        self.seal_epoch()
        return removed

    def _surviving_indices(self) -> list[int]:
        """Match the DB contents after DELETEs back to payload positions."""
        remaining: dict[str, dict[tuple, int]] = {}
        for table_name in self.db.table_names():
            counts: dict[tuple, int] = {}
            for row in self.db.lookup_table(table_name).rows:
                key = tuple(row)
                counts[key] = counts.get(key, 0) + 1
            remaining[table_name.lower()] = counts
        survivors = []
        for position, (table, values) in enumerate(self._payloads):
            counts = remaining.get(table.lower(), {})
            count = counts.get(values, 0)
            if count > 0:
                counts[values] = count - 1
                survivors.append(position)
        return survivors

    # ------------------------------------------------------------------
    # Serialization and verification
    # ------------------------------------------------------------------

    def serialize(self) -> bytes:
        """Serialize log state for untrusted storage."""
        head = self.signed_head
        doc = {
            "log_id": self.log_id,
            "schema": self.schema_sql,
            "payloads": [
                [table, [_encode_value(v) for v in values]]
                for table, values in self._payloads
            ],
            "watermark_state": {
                "next_row_id": self.next_row_id,
                "payload_ids": list(self._payload_ids),
                "trim_generation": self.trim_generation,
                "latest_time": self.latest_time,
                "time_monotone": self.time_monotone,
            },
            "head": None
            if head is None
            else {
                "head_hash": head.head_hash.hex(),
                "counter": head.counter_value,
                "count": head.entry_count,
                "signature": head.signature.encode().hex(),
            },
        }
        return json.dumps(doc).encode()

    @classmethod
    def load(
        cls,
        blob: bytes,
        signing_key: EcdsaPrivateKey,
        public_key: EcdsaPublicKey,
        rote: RoteCluster,
        storage: LogStorage | None = None,
        check_freshness: bool = True,
    ) -> "AuditLog":
        """Load and fully verify a serialized log from untrusted storage.

        Raises :class:`IntegrityError` on tampering and
        :class:`RollbackError` if the log is stale w.r.t. the ROTE quorum.
        ``check_freshness=False`` skips the quorum cross-check (structure
        and signature are still verified); the crash-recovery protocol
        uses this to run its own gap-tolerant freshness classification.
        """
        try:
            doc = json.loads(blob.decode())
        except (ValueError, UnicodeDecodeError) as exc:
            raise IntegrityError(f"audit log snapshot unparsable: {exc}") from exc
        try:
            log = cls(
                schema_sql=doc.get("schema", ""),
                signing_key=signing_key,
                rote=rote,
                log_id=doc["log_id"],
                storage=storage,
            )
            for table, values in doc["payloads"]:
                log.append(table, [_decode_value(v) for v in values])
            log.appends = 0  # loading is not appending
            log._restore_watermark_state(doc.get("watermark_state"))
            head_doc = doc.get("head")
            if head_doc is None:
                raise IntegrityError("audit log snapshot lacks a signed head")
            log.signed_head = SignedHead(
                head_hash=bytes.fromhex(head_doc["head_hash"]),
                counter_value=head_doc["counter"],
                entry_count=head_doc["count"],
                signature=EcdsaSignature.decode(bytes.fromhex(head_doc["signature"])),
            )
        except IntegrityError:
            raise
        except Exception as exc:  # malformed fields, bad SQL, wrong shapes
            raise IntegrityError(f"audit log snapshot malformed: {exc}") from exc
        log.verify_structure(public_key)
        if check_freshness:
            log.verify_freshness()
        return log

    def _restore_watermark_state(self, state: object) -> None:
        """Adopt serialized watermark bookkeeping (replacing the fresh
        ids assigned while replaying appends), after sanity-checking it.

        The snapshot lives on *untrusted* storage, so the ids are only
        trusted as far as they cannot skip checking: they must be
        strictly increasing and below ``next_row_id``. (A tampered id
        stream cannot launder an unchecked tuple anyway — checker state
        is enclave-internal, so a restarted checker always begins with a
        full scan — but validating here keeps the invariant simple.)
        """
        if state is None:
            # Pre-watermark snapshot: the replayed appends already
            # assigned ids 0..n-1 in generation 0; recompute time state.
            return
        if not isinstance(state, dict):
            raise IntegrityError("watermark state malformed")
        ids = state["payload_ids"]
        next_row_id = state["next_row_id"]
        if len(ids) != len(self._payloads):
            raise IntegrityError("watermark ids do not match payloads")
        previous = -1
        for row_id in ids:
            if not isinstance(row_id, int) or row_id <= previous:
                raise IntegrityError("watermark ids not strictly increasing")
            previous = row_id
        if not isinstance(next_row_id, int) or next_row_id <= previous:
            raise IntegrityError("watermark next_row_id behind payload ids")
        self._payload_ids = list(ids)
        self.next_row_id = next_row_id
        self.trim_generation = int(state["trim_generation"])
        self.latest_time = int(state["latest_time"])
        self.time_monotone = bool(state["time_monotone"]) and self.time_monotone

    def verify_structure(self, public_key: EcdsaPublicKey) -> None:
        """Verify chain and head signature (no quorum interaction)."""
        self.chain.verify_payloads((t, list(v)) for t, v in self._payloads)
        head = self.signed_head
        if head is None:
            raise IntegrityError("audit log has no signed head")
        head.verify(public_key)
        if head.head_hash != self.chain.head:
            raise IntegrityError("signed head does not match the hash chain")
        if head.entry_count != len(self.chain):
            raise IntegrityError("signed entry count does not match the log")

    def verify_freshness(self) -> int:
        """Cross-check the signed counter against the live ROTE quorum.

        Returns the live quorum counter value. Raises
        :class:`RollbackError` when the signed head is provably behind it,
        :class:`~repro.errors.QuorumUnavailableError` when no quorum
        answers (an availability fault, not evidence of rollback).
        """
        head = self.signed_head
        if head is None:
            raise IntegrityError("audit log has no signed head")
        live_counter = self.rote.retrieve(self.log_id)
        if head.counter_value < live_counter:
            raise RollbackError(
                f"stale audit log: counter {head.counter_value} < quorum "
                f"value {live_counter}"
            )
        return live_counter

    def verify(self, public_key: EcdsaPublicKey) -> None:
        """Full verification: chain, signature, freshness (§5.1)."""
        self.verify_structure(public_key)
        self.verify_freshness()
