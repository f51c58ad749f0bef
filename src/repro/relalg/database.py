"""The database facade: statement execution over an in-memory catalog.

:class:`Database` is the entry point of the relational substrate.  It keeps the
table catalog, parses and executes SQL statements (optionally with positional
``?`` parameters) and accumulates execution statistics.  The interface mirrors
the small subset of the Python DB-API that COSY needs (``execute``,
``executemany``, result sets), so the analyzer code reads like ordinary
database client code even though everything runs in process.

Statements run sequentially, on the calling thread.  The database is a
context manager (``with Database(...) as db:``): :meth:`close` rolls back an
open transaction and closes the write-ahead log.

Two statement-level caches, both keyed by SQL text, make repeated execution
cheap (the COSY pushdown strategy re-runs the same compiled property queries
for every analysis context):

* the **statement cache** skips re-parsing;
* the **plan cache** skips re-planning SELECTs — the cached
  :class:`~repro.relalg.planner.QueryPlan` carries compiled expression
  closures and is reused across parameter bindings.  Every plan records the
  tables it reads (bindings and scalar subqueries), and the database keeps a
  **per-table schema epoch**: DDL on one table only invalidates the plans
  that depend on that table, so hot plans survive schema churn elsewhere.

INSERT gets the same compile-once treatment on the DML side: ``executemany``
binds a cached :func:`~repro.relalg.compile.compile_insert_binder` closure per
parameter row and appends the whole batch through
:meth:`~repro.relalg.storage.Table.insert_many` (deferred index maintenance,
atomic per batch) instead of round-tripping one row at a time through the
parser and the per-row insert path.

``engine="interpreted"`` runs SELECTs on the seed AST-walking engine
(:mod:`repro.relalg.interp`) instead; the benchmarks use it as the baseline
the compiled engine is measured against, and the differential tests use it as
the reference.  Every SELECT is still planned, through the same plan cache,
before it branches on the engine: the planner raises every plan-time error
before any row on every engine, and the interpreter walks only statements
it accepted (:meth:`plan_cache_info` counts an interpreted database's plans
too).

**Transactions and durability.**  ``BEGIN`` / ``COMMIT`` / ``ROLLBACK``
statements (or the :meth:`begin`/:meth:`commit`/:meth:`rollback` shortcuts)
group DML into an atomic unit: while a transaction is open the session reads
its own writes through the unchanged executor paths (every mutation drops
the columnar chunk cache, so vectorized scans see staged rows too), every
mutation pushes an undo record (:class:`~repro.relalg.storage.Transaction`),
and rollback restores rows, indexes, tombstones and statistics
byte-for-byte.  DDL inside a transaction and nested ``BEGIN`` are refused
with a typed :class:`ExecutionError`.  ``Database(wal_path=...)`` adds crash
durability through the write-ahead log (:mod:`repro.relalg.wal`): row-image
records per DML statement, fsync at every commit point, recovery-on-open
that replays committed transactions and discards uncommitted tails, and a
checkpoint/truncate path (automatic past ``wal_autocheckpoint`` bytes, or
explicit via :meth:`checkpoint`) that bounds the log.  Without ``wal_path``
every transactional path is pure in-memory and the autocommit behaviour is
byte-identical to the WAL-less engine.
"""

from __future__ import annotations

import warnings
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.records import Record
from repro.relalg.compile import (
    ExecContext,
    SlotLayout,
    compile_insert_binder,
    compile_row_expr,
)
from repro.relalg.errors import (
    ExecutionError,
    RecoveryError,
    SchemaError,
    TransactionWarning,
)
from repro.relalg.interp import InterpretedSelectExecutor
from repro.relalg.planner import (
    QueryPlan,
    plan_select,
    subquery_planner,
)
from repro.relalg.rowset import QueryStats, ResultSet
from repro.relalg.schema import Column, ColumnType, TableSchema
from repro.relalg.semantics import check_delete
from repro.relalg.sqlast import (
    BeginStatement,
    CommitStatement,
    CreateIndexStatement,
    CreateTableStatement,
    DeleteStatement,
    DropTableStatement,
    InsertStatement,
    RollbackStatement,
    SelectStatement,
    Statement,
)
from repro.relalg.sqlparser import parse_sql
from repro.relalg.storage import Table, Transaction
from repro.relalg.wal import (
    WriteAheadLog,
    decode_row,
    encode_row,
    require_one_row_list,
    restore_state,
    row_key,
    snapshot_state,
)

__all__ = ["Database", "ExecutionSummary"]

#: A dependency snapshot: ((table, epoch), ...) — valid while every epoch holds.
_DepSnapshot = Tuple[Tuple[str, int], ...]


class ExecutionSummary(Record):
    """Cumulative statistics of every statement a database has executed.

    ``select_stats`` is the field-by-field sum of the read work of every
    statement: each SELECT's ``result.stats`` and each DELETE's scan of its
    table plus its subqueries, accumulated through the one merge rule
    (:meth:`QueryStats.merge`), plus the SELECTs' ``rows_returned``, which
    ``merge`` leaves out for subqueries.  It is a member rather than a base
    class: ``merge`` also runs at every subquery reference, and a second
    receiver type de-specializes its attribute accesses, which doubled their
    cost.
    """

    __slots__ = ("statements", "selects", "inserts", "rows_inserted", "select_stats")

    def __init__(
        self,
        statements: int = 0,
        selects: int = 0,
        inserts: int = 0,
        rows_inserted: int = 0,
        select_stats: Optional[QueryStats] = None,
    ) -> None:
        self.statements = statements
        self.selects = selects
        self.inserts = inserts
        self.rows_inserted = rows_inserted
        self.select_stats = QueryStats() if select_stats is None else select_stats

    @property
    def rows_returned(self) -> int:
        return self.select_stats.rows_returned

    @property
    def rows_scanned(self) -> int:
        return self.select_stats.rows_scanned

    @property
    def index_lookups(self) -> int:
        return self.select_stats.index_lookups

    def record_select(self, stats: QueryStats) -> None:
        self.statements += 1
        self.selects += 1
        self.select_stats.merge(stats)
        self.select_stats.rows_returned += stats.rows_returned

    def record_delete(self, stats: QueryStats) -> None:
        self.statements += 1
        self.select_stats.merge(stats)

    def record_insert(self, rows: int) -> None:
        self.statements += 1
        self.inserts += 1
        self.rows_inserted += rows

    def record_other(self) -> None:
        self.statements += 1


class Database:
    """An in-memory relational database with a SQL interface."""

    def __init__(
        self,
        name: str = "cosy",
        engine: str = "compiled",
        wal_path: Optional[str] = None,
        wal_autocheckpoint: Optional[int] = 4_000_000,
        wal_hook=None,
        vectorized: bool = True,
    ) -> None:
        if engine not in ("compiled", "interpreted"):
            raise ValueError(
                f"unknown engine {engine!r} (expected 'compiled' or 'interpreted')"
            )
        self.name = name
        self.engine = engine
        #: Whether eligible plans run their batch rungs: columnar chunks
        #: for a driving scan's batch predicate or batch hash-join probe,
        #: batch aggregation and top-k (plan-time eligibility; row-at-a-time
        #: results and stats are preserved byte for byte).  ``False`` pins
        #: the row engine — the differential reference the fuzzers sweep
        #: against.
        self.vectorized = vectorized
        self.tables: Dict[str, Table] = {}
        self.summary = ExecutionSummary()
        self._statement_cache: Dict[str, Statement] = {}
        #: SQL text → (dependency snapshot at plan time, plan).
        self._plan_cache: Dict[str, Tuple[_DepSnapshot, QueryPlan]] = {}
        #: id(DeleteStatement) → (deps, statement ref, compiled predicate).
        #: The statement reference keeps the object alive so ids stay unique.
        self._delete_predicate_cache: Dict[
            int, Tuple[_DepSnapshot, Statement, Any]
        ] = {}
        #: id(InsertStatement) → (deps, statement ref, compiled binder) —
        #: the DML counterpart of the plan cache (see ``compile_insert_binder``).
        self._insert_binder_cache: Dict[
            int, Tuple[_DepSnapshot, Statement, Any]
        ] = {}
        #: lowered table name → epoch, bumped by every DDL touching the table.
        self._table_epochs: Dict[str, int] = {}
        self._plan_hits = 0
        self._plan_misses = 0
        #: The open explicit transaction (None in autocommit).
        self._txn: Optional[Transaction] = None
        self._txn_counter = 0
        #: The write-ahead log (None without ``wal_path``); ``_wal_replaying``
        #: suppresses logging while recovery replays the log into the catalog.
        self._wal: Optional[WriteAheadLog] = None
        self._wal_replaying = False
        self._wal_gen = 0
        self._wal_autocheckpoint = wal_autocheckpoint
        if wal_path is not None:
            self._wal = WriteAheadLog(wal_path, hook=wal_hook)
            self._recover_wal()

    # ------------------------------------------------------------------ #
    # schema management (programmatic)
    # ------------------------------------------------------------------ #

    def create_table(self, schema: TableSchema) -> Table:
        """Create a table from a programmatic schema definition."""
        self._require_autocommit("CREATE TABLE")
        key = schema.name.lower()
        if key in self.tables:
            raise SchemaError(f"table {schema.name!r} already exists")
        table = Table(schema)
        self.tables[key] = table
        self._bump_table_epoch(key)
        self._wal_log(
            {
                "t": "create_table",
                "table": schema.name,
                "columns": [
                    [c.name, c.type.value, c.nullable, c.primary_key]
                    for c in schema.columns
                ],
            },
            "ddl",
            sync=True,
        )
        return table

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        """Remove a table (and its data and indexes)."""
        self._require_autocommit("DROP TABLE")
        key = name.lower()
        if key not in self.tables:
            if if_exists:
                return
            raise SchemaError(f"unknown table {name!r}")
        dropped = self.tables.pop(key)
        self._bump_table_epoch(key)
        self._wal_log(
            {"t": "drop_table", "table": dropped.name}, "ddl", sync=True
        )

    def table(self, name: str) -> Table:
        """Look up a table by name (case-insensitive)."""
        try:
            return self.tables[name.lower()]
        except KeyError:
            raise SchemaError(
                f"unknown table {name!r}; known tables: {sorted(self.tables)}"
            ) from None

    def table_names(self) -> List[str]:
        """Names of all tables in creation order."""
        return [table.name for table in self.tables.values()]

    # ------------------------------------------------------------------ #
    # statement execution
    # ------------------------------------------------------------------ #

    def execute(
        self, sql: str, params: Sequence[Any] = ()
    ) -> Union[ResultSet, int]:
        """Execute one SQL statement.

        Returns a :class:`ResultSet` for SELECT statements and the number of
        affected rows for every other statement.
        """
        statement = self._parse_cached(sql)
        if isinstance(statement, SelectStatement):
            return self._execute_select(statement, params, sql)
        return self.execute_statement(statement, params)

    def executemany(self, sql: str, param_rows: Iterable[Sequence[Any]]) -> int:
        """Execute one parametrised statement over many parameter rows.

        The statement kind is resolved once, outside the loop:

        * ``INSERT`` takes the bulk path — the statement is parsed and its
          value expressions compiled to a parameter binder exactly once
          (cached per statement and table epoch), every parameter row is
          bound, and the whole batch is appended through
          :meth:`~repro.relalg.storage.Table.insert_many` with deferred index
          maintenance.  The batch is atomic: a mid-batch error (bad value,
          duplicate primary key, missing parameter) inserts nothing.
        * ``SELECT`` takes the cached plan per parameter row (one plan miss
          per SQL text, hits afterwards) and executes it; the interpreted
          engine walks the statement instead.
        * Everything else loops over :meth:`execute_statement`.
        """
        statement = self._parse_cached(sql)
        if isinstance(statement, InsertStatement):
            return self._execute_insert_batch(statement, param_rows)
        if isinstance(statement, SelectStatement):
            affected = 0
            for params in param_rows:
                affected += len(self._execute_select(statement, params, sql))
            return affected
        affected = 0
        for params in param_rows:
            result = self.execute_statement(statement, params)
            affected += result if isinstance(result, int) else len(result)
        return affected

    def query(self, sql: str, params: Sequence[Any] = ()) -> ResultSet:
        """Execute a statement that must be a SELECT."""
        result = self.execute(sql, params)
        if not isinstance(result, ResultSet):
            raise ExecutionError("query() requires a SELECT statement")
        return result

    def is_select(self, sql: str) -> bool:
        """Whether ``sql`` parses to a SELECT (uses the statement cache)."""
        return isinstance(self._parse_cached(sql), SelectStatement)

    # ------------------------------------------------------------------ #
    # transactions
    # ------------------------------------------------------------------ #

    @property
    def in_transaction(self) -> bool:
        """Whether an explicit transaction is currently open."""
        return self._txn is not None

    def begin(self) -> None:
        """Shortcut for ``execute("BEGIN")``."""
        self.execute("BEGIN")

    def commit(self) -> None:
        """Shortcut for ``execute("COMMIT")``."""
        self.execute("COMMIT")

    def rollback(self) -> None:
        """Shortcut for ``execute("ROLLBACK")``."""
        self.execute("ROLLBACK")

    def _require_autocommit(self, operation: str) -> None:
        if self._txn is not None:
            raise ExecutionError(
                f"{operation} is not allowed inside a transaction; "
                f"COMMIT or ROLLBACK first"
            )

    def _begin_txn(self) -> Transaction:
        if self._txn is not None:
            raise ExecutionError(
                "BEGIN inside an open transaction "
                "(nested transactions are not supported)"
            )
        self._txn_counter += 1
        txn = Transaction(self._txn_counter)
        self._txn = txn
        # DDL is refused mid-transaction, so the table set cannot change
        # while these references are out.
        for table in self.tables.values():
            table.txn = txn
        return txn

    def _commit_txn(self) -> None:
        txn = self._txn
        self._txn = None
        for table in self.tables.values():
            table.txn = None
        txn.commit()

    def _rollback_txn(self) -> None:
        txn = self._txn
        self._txn = None
        for table in self.tables.values():
            table.txn = None
        txn.rollback()

    def _execute_begin(self) -> int:
        txn = self._begin_txn()
        self._wal_log({"t": "begin", "x": txn.txn_id}, "begin")
        self.summary.record_other()
        return 0

    def _execute_commit(self) -> int:
        if self._txn is None:
            raise ExecutionError("COMMIT outside a transaction")
        # Log-then-finalise: the fsync of the commit marker is the durability
        # point.  If it fails (or a fault-injection hook "crashes" there) the
        # transaction stays open and in-memory state untouched, so the caller
        # can still ROLLBACK — and recovery discards the unmarked tail.
        self._wal_log({"t": "commit", "x": self._txn.txn_id}, "commit", sync=True)
        self._commit_txn()
        self.summary.record_other()
        self._maybe_autocheckpoint()
        return 0

    def _execute_rollback(self) -> int:
        if self._txn is None:
            raise ExecutionError("ROLLBACK outside a transaction")
        txn_id = self._txn.txn_id
        self._rollback_txn()
        # The abort record is bookkeeping, not durability: recovery discards
        # an uncommitted tail with or without it, so no fsync is needed.
        self._wal_log({"t": "abort", "x": txn_id}, "abort")
        self.summary.record_other()
        return 0

    # ------------------------------------------------------------------ #
    # write-ahead log
    # ------------------------------------------------------------------ #

    def _wal_log(self, record: Dict[str, Any], label: str, sync: bool = False) -> None:
        """Append one record (and optionally fsync) unless WAL-less/replaying."""
        if self._wal is None or self._wal_replaying:
            return
        self._wal.append(record, label)
        if sync:
            self._wal.sync(label)

    def checkpoint(self) -> None:
        """Serialise the catalog to the sidecar and truncate the log.

        The snapshot is written atomically under the next generation number
        before the log is reset, so a crash anywhere in between recovers to
        exactly the current committed state: a renamed-but-untruncated log is
        one generation stale and gets discarded (its effects are inside the
        checkpoint), an unrenamed snapshot is ignored and the log replays.
        """
        if self._wal is None:
            raise ExecutionError(
                "checkpoint() requires a write-ahead log (Database(wal_path=...))"
            )
        self._require_autocommit("checkpoint()")
        generation = self._wal_gen + 1
        self._wal.write_checkpoint(snapshot_state(self, generation))
        self._wal.reset(generation)
        self._wal_gen = generation

    def _maybe_autocheckpoint(self) -> None:
        if (
            self._wal is None
            or self._wal_replaying
            or self._wal_autocheckpoint is None
            or self._txn is not None
            or self._wal.size < self._wal_autocheckpoint
        ):
            return
        self.checkpoint()

    def _recover_wal(self) -> None:
        """Replay the log into the (empty) catalog and open it for appending.

        Committed transactions replay through the real transaction machinery
        (deferred compaction lands at the same points as in the original
        run), autocommit records replay directly, uncommitted tails and torn
        trailing lines are truncated away, and a log one generation behind
        its checkpoint — a crash window of :meth:`checkpoint` — is discarded
        wholesale.
        """
        wal = self._wal
        self._wal_replaying = True
        try:
            checkpoint = wal.load_checkpoint()
            if checkpoint is not None:
                self._wal_gen = int(checkpoint["gen"])
                restore_state(self, checkpoint)
            entries = list(wal.scan())
            if not entries or entries[0][0].get("t") != "log":
                # Missing, empty or torn-at-the-header log: nothing to
                # replay beyond the checkpoint; start a fresh generation.
                wal.reset(self._wal_gen)
                return
            log_gen = int(entries[0][0].get("gen", 0))
            if log_gen < self._wal_gen:
                # Crash between checkpoint rename and log truncate: the
                # log's contents are already inside the checkpoint.
                wal.reset(self._wal_gen)
                return
            if log_gen > self._wal_gen:
                raise RecoveryError(
                    f"write-ahead log {wal.path!r} is at generation {log_gen} "
                    f"but the checkpoint covers generation {self._wal_gen}; "
                    f"the checkpoint file is missing or stale"
                )
            last_good = entries[0][1]
            open_txn: Optional[int] = None
            buffered: List[Dict[str, Any]] = []
            for record, end_offset in entries[1:]:
                kind = record.get("t")
                if kind == "begin":
                    if open_txn is not None:
                        break
                    open_txn = int(record["x"])
                    buffered = []
                elif kind in ("ins", "del"):
                    xid = int(record["x"])
                    if xid == 0:
                        if open_txn is not None:
                            break
                        self._replay_dml(record)
                        last_good = end_offset
                    elif xid == open_txn:
                        buffered.append(record)
                    else:
                        break
                elif kind == "commit":
                    if open_txn != int(record["x"]):
                        break
                    self._replay_txn(buffered)
                    open_txn, buffered = None, []
                    last_good = end_offset
                elif kind == "abort":
                    if open_txn != int(record["x"]):
                        break
                    open_txn, buffered = None, []
                    last_good = end_offset
                elif kind == "create_table":
                    if open_txn is not None:
                        break
                    self._replay_create_table(record)
                    last_good = end_offset
                elif kind == "create_index":
                    if open_txn is not None:
                        break
                    self.table(record["table"]).create_index(
                        record["name"], record["column"],
                        ordered=record.get("ordered", False),
                    )
                    self._bump_table_epoch(record["table"].lower())
                    last_good = end_offset
                elif kind == "drop_table":
                    if open_txn is not None:
                        break
                    self.drop_table(record["table"], if_exists=True)
                    last_good = end_offset
                else:
                    # Unknown record kind: treat like a torn tail rather
                    # than guessing at its semantics.
                    break
            wal.truncate(last_good)
            wal.open_for_append()
        finally:
            self._wal_replaying = False

    def _replay_create_table(self, record: Dict[str, Any]) -> None:
        require_one_row_list(
            record, record["table"], f"write-ahead log {self._wal.path!r}"
        )
        schema = TableSchema(
            name=record["table"],
            columns=[
                Column(
                    name=name,
                    type=ColumnType(type_name),
                    nullable=nullable,
                    primary_key=primary_key,
                )
                for name, type_name, nullable, primary_key in record["columns"]
            ],
        )
        self.create_table(schema)

    def _replay_dml(self, record: Dict[str, Any]) -> None:
        table = self.table(record["tb"])
        rows = [decode_row(row) for row in record["rows"]]
        if record["t"] == "ins":
            table.insert_many(rows)
            return
        # Replay a DELETE by its logged row images: by induction the
        # replayed table holds bit-identical rows to the original run, so
        # consuming the image multiset in scan order tombstones exactly the
        # positions the original delete did.
        budget: Dict[Any, int] = {}
        for row in rows:
            key = row_key(row)
            budget[key] = budget.get(key, 0) + 1

        def predicate(row: Tuple[Any, ...]) -> bool:
            key = row_key(row)
            remaining = budget.get(key, 0)
            if remaining:
                budget[key] = remaining - 1
                return True
            return False

        table.delete_where(predicate)

    def _replay_txn(self, records: List[Dict[str, Any]]) -> None:
        self._begin_txn()
        try:
            for record in records:
                self._replay_dml(record)
        except Exception:
            self._rollback_txn()
            raise
        self._commit_txn()

    def execute_statement(
        self, statement: Statement, params: Sequence[Any] = ()
    ) -> Union[ResultSet, int]:
        """Execute an already parsed statement.

        A SELECT is planned on every engine, as :meth:`execute` plans it, but
        bypasses the plan cache (there is no SQL text to key it by).
        """
        if isinstance(statement, SelectStatement):
            return self._execute_select(statement, params, sql=None)
        if isinstance(statement, BeginStatement):
            return self._execute_begin()
        if isinstance(statement, CommitStatement):
            return self._execute_commit()
        if isinstance(statement, RollbackStatement):
            return self._execute_rollback()
        if isinstance(statement, CreateTableStatement):
            return self._execute_create_table(statement)
        if isinstance(statement, CreateIndexStatement):
            self._require_autocommit("CREATE INDEX")
            self.table(statement.table).create_index(
                statement.name, statement.column, ordered=statement.ordered
            )
            self._bump_table_epoch(statement.table.lower())
            self._wal_log(
                {
                    "t": "create_index",
                    "name": statement.name,
                    "table": statement.table,
                    "column": statement.column,
                    "ordered": statement.ordered,
                },
                "ddl",
                sync=True,
            )
            self.summary.record_other()
            return 0
        if isinstance(statement, DropTableStatement):
            self.drop_table(statement.table, if_exists=statement.if_exists)
            self.summary.record_other()
            return 0
        if isinstance(statement, InsertStatement):
            return self._execute_insert(statement, params)
        if isinstance(statement, DeleteStatement):
            return self._execute_delete(statement, params)
        raise ExecutionError(f"unsupported statement {type(statement).__name__}")

    # ------------------------------------------------------------------ #
    # plan cache
    # ------------------------------------------------------------------ #

    def plan_cache_info(self) -> Dict[str, int]:
        """Hit/miss/size counters of the statement-level plan cache."""
        return {
            "hits": self._plan_hits,
            "misses": self._plan_misses,
            "size": len(self._plan_cache),
        }

    def _snapshot_deps(self, deps: Set[str]) -> _DepSnapshot:
        return tuple(
            sorted((name, self._table_epochs.get(name, 0)) for name in deps)
        )

    def _deps_valid(self, snapshot: _DepSnapshot) -> bool:
        epochs = self._table_epochs
        for name, epoch in snapshot:
            if epochs.get(name, 0) != epoch:
                return False
        return True

    def _plan_for(self, statement: SelectStatement, sql: Optional[str]) -> QueryPlan:
        if sql is not None:
            entry = self._plan_cache.get(sql)
            if entry is not None and self._deps_valid(entry[0]):
                self._plan_hits += 1
                return entry[1]
        self._plan_misses += 1
        plan = plan_select(statement, self.tables)
        if sql is not None:
            self._plan_cache[sql] = (self._snapshot_deps(plan.table_deps), plan)
        return plan

    def _bump_table_epoch(self, key: str) -> None:
        """Record DDL on one table: only dependent cached entries are evicted.

        DDL on table A leaves hot plans over table B untouched (the
        whole-cache-flush this replaces evicted everything); the entries
        that *do* depend on the DDL'd table are pruned eagerly here, so a
        long-lived database under schema churn does not accumulate dead
        plans, binders and their pinned statements.
        """
        self._table_epochs[key] = self._table_epochs.get(key, 0) + 1
        self._plan_cache = {
            sql: entry
            for sql, entry in self._plan_cache.items()
            if self._deps_valid(entry[0])
        }
        for cache in (self._delete_predicate_cache, self._insert_binder_cache):
            for cache_key in [
                k for k, entry in cache.items()
                if not self._deps_valid(entry[0])
            ]:
                del cache[cache_key]

    # ------------------------------------------------------------------ #
    # EXPLAIN
    # ------------------------------------------------------------------ #

    def explain(
        self, sql: str, analyze: bool = False, params: Sequence[Any] = ()
    ) -> str:
        """A human-readable execution plan of one SELECT statement.

        Reports the join order, the access path chosen per binding (with the
        probed columns), residual filter counts and the plan-time
        cardinality estimates — for the outer plan and,
        nested, for every scalar subquery.  A trailing ``analysis:`` section
        lists the plan-time semantic findings: conjuncts rewritten by
        constant folding (``folded: ...``), always-true conjuncts dropped,
        always-false/contradictory predicates that let the plan skip the
        scan entirely, and lint warnings (cross joins without a connecting
        predicate, non-sargable predicates on indexed columns, mixed-type
        equality comparisons); ``no findings`` when the analyzer has
        nothing to report.  Uses (and warms) the plan cache
        exactly like :meth:`execute`; subquery plans come from the cached
        plan's own plan-time snapshot, so the output describes the plans
        that actually execute, not a re-derivation under newer statistics.

        ``analyze:`` — with ``analyze=True`` the statement is **executed
        once** (with ``params`` bound) through the cached plan, on the path
        :meth:`execute` takes, and a trailing section reports the estimated
        vs. actual cumulative cardinality per join level plus the run's
        physical counters — the honest-estimates check: a level whose
        ``actual_rows`` diverges wildly from ``est_cardinality`` marks a
        mis-costed predicate.  The run performs
        the statement's real reads (counters land in the execution summary
        like any other execution) but discards the result rows.

        Raises a typed :class:`ExecutionError` (never a bare ``TypeError``)
        for non-string input and non-SELECT statements, and on the
        interpreted engine — whose AST walker does not run the planned
        access paths, so describing its plan would silently report an
        execution that never happens.
        """
        if not isinstance(sql, str):
            raise ExecutionError(
                f"explain() requires SQL text, got {type(sql).__name__}"
            )
        if self.engine != "compiled":
            raise ExecutionError(
                "explain() requires the compiled engine; the interpreted "
                "AST walker does not execute planned access paths"
            )
        statement = self._parse_cached(sql)
        if not isinstance(statement, SelectStatement):
            raise ExecutionError("explain() requires a SELECT statement")
        plan = self._plan_for(statement, sql)
        lines = self._explain_lines(plan, indent="")
        self._explain_subplans(plan, "", lines)
        if analyze:
            lines.extend(self._explain_analyze(plan, params))
        return "\n".join(lines)

    def _explain_analyze(
        self, plan: QueryPlan, params: Sequence[Any]
    ) -> List[str]:
        """Run ``plan`` once, counting the rows that survive each level;
        render the section.

        The plan runs exactly as :meth:`execute` runs it, on the path that
        serves the statement (vectorized chunks, index order, batch join),
        with an :attr:`~repro.relalg.compile.ExecContext.opens` list: the
        rows that survived level ``i`` are the opens of level ``i + 1``'s
        loop, and the last level's are the plan's joined rows — the actual
        counterpart of ``est_cardinality``.
        """
        opens = [0] * (len(plan.levels) + 1)
        stats = QueryStats()
        result = plan.execute(
            params, stats, vectorized=self.vectorized, opens=opens
        )
        self.summary.record_select(stats)
        lines = ["analyze:"]
        cumulative = 1.0
        for position, level in enumerate(plan.levels):
            cumulative *= max(level.estimate, 0.0)
            lines.append(
                f"  {position + 1}. {level.binding} ({level.table.name}): "
                f"est_cardinality={round(cumulative, 3)}, "
                f"actual_rows={opens[position + 1]}"
            )
        lines.append(
            f"  returned {len(result.rows)} row(s); "
            f"scanned {stats.rows_scanned}; "
            f"index lookups {stats.index_lookups}; "
            f"range probes {stats.range_probes}"
        )
        return lines

    def _explain_subplans(
        self, plan: QueryPlan, indent: str, lines: List[str]
    ) -> None:
        for position, subplan in enumerate(plan.subquery_plans, start=1):
            lines.append(f"{indent}  subquery {position}:")
            lines.extend(self._explain_lines(subplan, indent + "  "))
            self._explain_subplans(subplan, indent + "  ", lines)

    def _explain_lines(self, plan: QueryPlan, indent: str) -> List[str]:
        described = plan.describe()
        order = " -> ".join(level["binding"] for level in described)
        lines = [f"{indent}join order: {order}"]
        for position, level in enumerate(described, start=1):
            access = level["access"]
            if level["column"] is not None:
                access += f" on {level['column']}"
            lines.append(
                f"{indent}  {position}. {level['binding']} ({level['table']}): "
                f"{access}, filters={level['filters']}, "
                f"est_rows={level['estimated_rows']}, "
                f"est_cardinality={level['estimated_cardinality']}"
            )
        if not plan.follows_syntactic_order:
            lines.append(
                f"{indent}  (join order was re-ordered by estimated cardinality)"
            )
        if plan.vector_report:
            suffix = "" if self.vectorized else " (disabled: vectorized=False)"
            lines.append(f"{indent}vectorization{suffix}:")
            for rung in ("scan", "join-probe", "aggregate", "projection",
                         "top-k"):
                status = plan.vector_report.get(rung)
                if status is not None:
                    lines.append(f"{indent}  {rung}: {status}")
        lines.append(f"{indent}analysis:")
        if plan.analysis_report:
            for finding in plan.analysis_report:
                lines.append(f"{indent}  {finding}")
        else:
            lines.append(f"{indent}  no findings")
        return lines

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Close the write-ahead log, if any (idempotent).

        The context-manager protocol (``with Database(...) as db:``) calls
        it on exit; closing again does nothing.

        An open transaction is **rolled back** (with a
        :class:`TransactionWarning`), never silently committed: the in-memory
        state returns to the last commit point, and because the WAL tail past
        the last commit marker carries no durability, the on-disk log stays
        recoverable either way.
        """
        if self._txn is not None:
            warnings.warn(
                f"database {self.name!r} closed with an open transaction; "
                f"rolling back",
                TransactionWarning,
                stacklevel=2,
            )
            txn_id = self._txn.txn_id
            self._rollback_txn()
            self._wal_log({"t": "abort", "x": txn_id}, "abort")
        if self._wal is not None:
            wal, self._wal = self._wal, None
            wal.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------ #
    # statement handlers
    # ------------------------------------------------------------------ #

    def _execute_select(
        self,
        statement: SelectStatement,
        params: Sequence[Any],
        sql: Optional[str],
    ) -> ResultSet:
        # Planned on every engine, so a plan-time error raises before any
        # row, from one module, and the reference runs only accepted
        # statements.
        plan = self._plan_for(statement, sql)
        if self.engine == "interpreted":
            executor = InterpretedSelectExecutor(self.tables, params)
            result = executor.execute(statement)
        else:
            result = plan.execute(
                params, QueryStats(), vectorized=self.vectorized
            )
        self.summary.record_select(result.stats)
        return result

    def _execute_create_table(self, statement: CreateTableStatement) -> int:
        key = statement.table.lower()
        if key in self.tables:
            if statement.if_not_exists:
                self.summary.record_other()
                return 0
            raise SchemaError(f"table {statement.table!r} already exists")
        columns = [
            Column(
                name=c.name,
                type=ColumnType.from_sql(c.type_name),
                nullable=c.nullable,
                primary_key=c.primary_key,
            )
            for c in statement.columns
        ]
        self.create_table(TableSchema(name=statement.table, columns=columns))
        self.summary.record_other()
        return 0

    def _execute_insert(
        self, statement: InsertStatement, params: Sequence[Any]
    ) -> int:
        return self._execute_insert_batch(statement, [params])

    def _insert_binder_for(self, statement: InsertStatement):
        entry = self._insert_binder_cache.get(id(statement))
        if entry is not None and self._deps_valid(entry[0]):
            return entry[2]
        binder = compile_insert_binder(statement, self.table(statement.table))
        self._insert_binder_cache[id(statement)] = (
            self._snapshot_deps({statement.table.lower()}), statement, binder
        )
        return binder

    def _execute_insert_batch(
        self, statement: InsertStatement, param_rows: Iterable[Sequence[Any]]
    ) -> int:
        """Bind every parameter row and insert the whole batch atomically."""
        table = self.table(statement.table)
        binder = self._insert_binder_for(statement)
        rows: List[List[Any]] = []
        for params in param_rows:
            rows.extend(binder(params))
        if not rows:
            return 0
        inserted = table.insert_many(rows)
        if self._wal is not None and not self._wal_replaying:
            xid = self._txn.txn_id if self._txn is not None else 0
            self._wal_log(
                {
                    "t": "ins",
                    "x": xid,
                    "tb": table.name,
                    "rows": [encode_row(row) for row in rows],
                },
                "ins" if xid else "auto-ins",
                sync=xid == 0,
            )
            if self._txn is None:
                self._maybe_autocheckpoint()
        self.summary.record_insert(inserted)
        return inserted

    def _execute_delete(
        self, statement: DeleteStatement, params: Sequence[Any]
    ) -> int:
        table = self.table(statement.table)
        # Collect deleted row images while a WAL is attached: the images are
        # the log record (replay re-deletes exactly these rows).
        collect: Optional[List[Tuple[Any, ...]]] = (
            [] if self._wal is not None and not self._wal_replaying else None
        )
        # A DELETE reads every live row of its table — it decides each one
        # before tombstoning any — so it is charged a full scan plus its
        # subqueries' counters.
        stats = QueryStats()
        read = table.live_count
        if statement.where is None:
            deleted = table.delete_where(lambda row: True, collect=collect)
        else:
            # Compile the predicate once per statement over a single-binding
            # slot layout (the table's row tuples are the slot rows directly)
            # and cache it, so executemany re-executions only re-bind params.
            entry = self._delete_predicate_cache.get(id(statement))
            if entry is not None and self._deps_valid(entry[0]):
                predicate_fn = entry[2]
            else:
                # A WHERE clause that would deterministically raise on every
                # row (e.g. an ordered comparison between a VARCHAR column
                # and a number) is rejected before any row is touched, on
                # every engine.  A cached predicate passed this check under
                # the same table epochs, so only a miss re-runs it.
                analysis = check_delete(statement, self.tables)
                plan_subquery, subplans = subquery_planner(
                    self.tables, analysis
                )
                layout = SlotLayout([(table.name.lower(), table)])
                predicate_fn = compile_row_expr(
                    statement.where, layout, plan_subquery
                )
                deps = {table.name.lower()}
                for subplan in subplans.values():
                    deps |= subplan.table_deps
                self._delete_predicate_cache[id(statement)] = (
                    self._snapshot_deps(deps), statement, predicate_fn
                )
            ctx = ExecContext(list(params), stats)

            def predicate(row: Tuple[Any, ...]) -> bool:
                value = predicate_fn(row, ctx)
                return bool(value) and value is not None

            deleted = table.delete_where(predicate, collect=collect)
        stats.rows_scanned += read
        if collect:
            xid = self._txn.txn_id if self._txn is not None else 0
            self._wal_log(
                {
                    "t": "del",
                    "x": xid,
                    "tb": table.name,
                    "rows": [encode_row(row) for row in collect],
                },
                "del" if xid else "auto-del",
                sync=xid == 0,
            )
            if self._txn is None:
                self._maybe_autocheckpoint()
        self.summary.record_delete(stats)
        return deleted

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #

    def _parse_cached(self, sql: str) -> Statement:
        statement = self._statement_cache.get(sql)
        if statement is None:
            statement = parse_sql(sql)
            # Only cache read-only/immutable statement kinds; SELECTs are
            # mutable dataclasses but are never modified by the executor.
            self._statement_cache[sql] = statement
        return statement

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def row_counts(self) -> Dict[str, int]:
        """Live row count per table."""
        return {table.name: table.row_count for table in self.tables.values()}

    def total_rows(self) -> int:
        """Total number of live rows across all tables."""
        return sum(table.row_count for table in self.tables.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Database({self.name!r}, tables={len(self.tables)})"
