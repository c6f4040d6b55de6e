"""The SealDB public API: the :class:`Database` catalog and entry points.

Usage mirrors an embedded database driver::

    db = Database()
    db.execute("CREATE TABLE updates(time INTEGER, repo TEXT, branch TEXT)")
    db.execute("INSERT INTO updates VALUES (?, ?, ?)", (1, "r", "main"))
    result = db.execute("SELECT branch FROM updates WHERE time > ?", (0,))
    result.rows  # [("main",)]
"""

from __future__ import annotations

from repro.obs import hooks as _obs
from repro.sealdb import ast
from repro.sealdb.errors import SQLExecutionError
from repro.sealdb.executor import Executor, Result
from repro.sealdb.parser import parse_script, parse_statement
from repro.sealdb.table import Column, SqlValue, Table


class Database:
    """An in-memory relational database with a SQL interface.

    Thread-unsafe by design: LibSEAL serialises log access inside the
    enclave, and the simulation layer does the same.

    ``use_planner=False`` disables every planner access path (index
    probes, sorted-range pruning, hash joins, predicate pushdown) and
    runs the original scan-everything executor — the reference behaviour
    the parity tests compare against. ``vectorized=False`` keeps the
    planner but filters row-at-a-time instead of through columnar batch
    predicates — the scalar reference the vectorization parity tests
    compare against. Vectorization only ever applies on top of the
    planner, so ``use_planner=False`` implies the scalar path too.
    """

    def __init__(self, use_planner: bool = True, vectorized: bool = True) -> None:
        self._tables: dict[str, Table] = {}
        self._views: dict[str, ast.Select] = {}
        self.use_planner = use_planner
        self.vectorized = vectorized
        self._executor = Executor(self)
        self._statement_cache: dict[str, ast.Statement] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def execute(self, sql: str, params: tuple[SqlValue, ...] | list[SqlValue] = ()) -> Result:
        """Parse (with caching) and execute a single statement."""
        statement = self._statement_cache.get(sql)
        if statement is None:
            statement = parse_statement(sql)
            if len(self._statement_cache) > 512:
                self._statement_cache.clear()
            self._statement_cache[sql] = statement
        result = self._executor.execute(statement, tuple(params))
        if _obs.ON:
            self._obs_record(statement, result)
        return result

    def execute_ast(
        self, statement: ast.Statement, params: tuple[SqlValue, ...] | list[SqlValue] = ()
    ) -> Result:
        """Execute an already-parsed statement (the incremental checker
        holds rewritten invariant ASTs that never existed as SQL text)."""
        result = self._executor.execute(statement, tuple(params))
        if _obs.ON:
            self._obs_record(statement, result)
        return result

    def _obs_record(self, statement: ast.Statement, result: Result) -> None:
        metrics = _obs.active().metrics
        metrics.counter(
            "sealdb_statements_total",
            "SealDB statements executed",
            kind=type(statement).__name__.lower(),
        ).inc()
        metrics.counter(
            "sealdb_rows_scanned_total", "Rows touched by the SealDB executor"
        ).inc(result.rows_scanned)
        if result.rows_vectorized:
            metrics.counter(
                "sealdb_rows_vectorized_total",
                "Rows filtered through columnar batch predicates",
            ).inc(result.rows_vectorized)

    @property
    def scan_stats(self):
        """Cumulative :class:`~repro.sealdb.executor.ScanStats`."""
        return self._executor.stats

    def executescript(self, sql: str) -> None:
        """Execute a ``;``-separated sequence of statements."""
        for statement in parse_script(sql):
            self._executor.execute(statement, ())

    def table_names(self) -> list[str]:
        return [table.name for table in self._tables.values()]

    def row_count(self, table_name: str) -> int:
        return len(self.lookup_table(table_name).rows)

    def approximate_size_bytes(self) -> int:
        """Rough footprint of all base tables (used by §6.5 accounting)."""
        return sum(t.approximate_size_bytes() for t in self._tables.values())

    def snapshot(self) -> dict[str, list[tuple[SqlValue, ...]]]:
        """Copy of all base-table contents, for persistence layers."""
        return {
            table.name: [tuple(row) for row in table.rows]
            for table in self._tables.values()
        }

    def clone_schema(self) -> "Database":
        """A new empty database with the same tables and views."""
        other = Database(use_planner=self.use_planner, vectorized=self.vectorized)
        for table in self._tables.values():
            other._tables[table.name.lower()] = Table(
                table.name, list(table.columns)
            )
        other._views = dict(self._views)
        return other

    # ------------------------------------------------------------------
    # Catalog operations (used by the executor)
    # ------------------------------------------------------------------

    def lookup_table(self, name: str) -> Table:
        table = self._tables.get(name.lower())
        if table is None:
            raise SQLExecutionError(f"no such table: {name}")
        return table

    def lookup_view(self, name: str) -> ast.Select | None:
        return self._views.get(name.lower())

    def has_object(self, name: str) -> bool:
        lowered = name.lower()
        return lowered in self._tables or lowered in self._views

    def create_table(self, stmt: ast.CreateTable) -> None:
        lowered = stmt.name.lower()
        if self.has_object(stmt.name):
            if stmt.if_not_exists:
                return
            raise SQLExecutionError(f"object already exists: {stmt.name}")
        columns = [
            Column(c.name, c.type_name, c.primary_key, c.unique)
            for c in stmt.columns
        ]
        self._tables[lowered] = Table(stmt.name, columns)

    def create_view(self, stmt: ast.CreateView) -> None:
        lowered = stmt.name.lower()
        if self.has_object(stmt.name):
            if stmt.if_not_exists:
                return
            raise SQLExecutionError(f"object already exists: {stmt.name}")
        self._views[lowered] = stmt.select

    def drop_object(self, stmt: ast.DropObject) -> None:
        lowered = stmt.name.lower()
        if stmt.kind == "TABLE":
            if lowered in self._tables:
                del self._tables[lowered]
                return
        else:
            if lowered in self._views:
                del self._views[lowered]
                return
        if not stmt.if_exists:
            raise SQLExecutionError(f"no such {stmt.kind.lower()}: {stmt.name}")
