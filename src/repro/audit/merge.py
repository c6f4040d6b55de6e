"""Multi-instance log merging (§3.2).

When a service scales out, one client's requests may be served by
different LibSEAL instances; each instance then holds a *partial* log.
The paper sketches the extension: each instance manages a local log and
the partial logs are combined before invariant checking (like distributed
tracing systems collect remote logs).

:func:`merge_logs` implements that combiner:

1. every partial log is *fully verified first* (hash chain, head
   signature, ROTE freshness) — a tampered partial poisons nothing;
2. tuples are merged by (logical time, instance id) into a fresh
   database with the shared schema, preserving each instance's order;
3. invariants run over the merged relations exactly as over a local log.

Logical timestamps from different instances are reconciled by offsetting:
instance *i*'s local times are mapped into a shared timeline that keeps
every instance's internal order (the paper's invariants only rely on
relative order per repo/doc/account, which a single client's requests —
all flowing through the same load balancer — already have).
"""

from __future__ import annotations

from typing import Sequence

from repro.audit.log import AuditLog
from repro.crypto.ecdsa import EcdsaPublicKey
from repro.errors import IntegrityError
from repro.sealdb import Database
from repro.ssm.base import ServiceSpecificModule


class MergedLog:
    """A read-only combination of several instances' audit logs."""

    def __init__(self, db: Database, sources: int, tuples: int):
        self.db = db
        self.source_count = sources
        self.tuple_count = tuples

    def query(self, sql: str, params=()):
        return self.db.execute(sql, params)


def merge_logs(
    partials: Sequence[AuditLog],
    public_keys: Sequence[EcdsaPublicKey],
    ssm: ServiceSpecificModule,
) -> MergedLog:
    """Verify and merge partial logs for combined invariant checking.

    Raises :class:`IntegrityError` if any partial fails verification or
    the schemas disagree.
    """
    if len(partials) != len(public_keys):
        raise IntegrityError("need one verification key per partial log")
    if not partials:
        raise IntegrityError("no partial logs to merge")

    for log, key in zip(partials, public_keys):
        log.verify(key)  # chain + signature + freshness, per §5.1

    merged_db = Database()
    merged_db.executescript(ssm.schema_sql)
    table_names = {name.lower() for name in merged_db.table_names()}

    # Offset each instance's logical clock into a disjoint range so the
    # merged timeline preserves every instance's internal order.
    offset = 0
    total = 0
    for log in partials:
        max_time = 0
        for table, values in log.payloads():
            if table.lower() not in table_names:
                raise IntegrityError(
                    f"partial log has unknown relation {table!r}"
                )
            values = list(values)
            # Column 0 is the logical timestamp in every LibSEAL schema.
            local_time = values[0]
            if not isinstance(local_time, int):
                raise IntegrityError("first log column must be the timestamp")
            max_time = max(max_time, local_time)
            values[0] = local_time + offset
            placeholders = ", ".join("?" * len(values))
            merged_db.execute(
                f"INSERT INTO {table} VALUES ({placeholders})", tuple(values)
            )
            total += 1
        offset += max_time
    return MergedLog(merged_db, sources=len(partials), tuples=total)


def check_merged_invariants(
    merged: MergedLog, ssm: ServiceSpecificModule
) -> dict[str, list[tuple]]:
    """Run the SSM's invariants over a merged log; returns violations."""
    return {
        name: merged.query(sql).rows for name, sql in ssm.invariants.items()
    }
