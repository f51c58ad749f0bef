"""A from-scratch in-memory relational database engine with simulated backends.

This package is the substrate replacing the relational databases used by the
paper's COSY prototype (Oracle 7, MS Access, MS SQL Server, Postgres):

* :mod:`repro.relalg.schema`, :mod:`repro.relalg.storage` — tables, column
  types, rows and hash indexes;
* :mod:`repro.relalg.sqlparser`, :mod:`repro.relalg.sqlast` — the SQL subset
  (DDL, INSERT, parametrised SELECT with joins, grouping, aggregates, ordering
  and scalar subqueries);
* :mod:`repro.relalg.planner`, :mod:`repro.relalg.compile` — the
  plan-then-execute layer: join ordering, index/hash-join access paths and
  expression compilation into slot-addressed closures;
* :mod:`repro.relalg.semantics` — the plan-time static analysis pass:
  catalog-driven type inference, typed :class:`SemanticError` diagnostics
  raised before any row is touched, constant folding, contradiction
  detection and the lint warnings EXPLAIN surfaces under ``analysis:``;
* :mod:`repro.relalg.database` — the database facade: plan-driven query
  execution with its statement-level plan cache;
  :mod:`repro.relalg.rowset` holds the result and counter types every engine
  shares, and :mod:`repro.relalg.interp` keeps the seed AST-walking engine as
  the differential-testing and benchmark baseline;
* :mod:`repro.relalg.backends` — virtual cost models of the four backends the
  paper compares (Section 5): each wire statement is measured once and
  charged on a serial virtual clock, one round trip after the other;
* :mod:`repro.relalg.client` — native (C-like) vs. bridged (JDBC-like) client
  API layers, which charge their marshalling for what the backend shipped;
* :mod:`repro.relalg.wal` — write-ahead durability: the append-only log, the
  checkpoint sidecar, crash recovery and the byte-identical state
  fingerprints the crash harness checks against.
"""

from repro.relalg.backends import (
    BACKEND_PROFILES,
    DEFAULT_BATCH_SIZE,
    BackendProfile,
    SimulatedBackend,
    VirtualClock,
    backend,
)
from repro.relalg.client import (
    BridgedClient,
    ClientCosts,
    DatabaseClient,
    NativeClient,
)
from repro.relalg.database import Database, ExecutionSummary
from repro.relalg.errors import (
    ExecutionError,
    IntegrityError,
    RecoveryError,
    RelalgError,
    SchemaError,
    SemanticError,
    SqlSyntaxError,
    TransactionWarning,
)
from repro.relalg.interp import InterpretedSelectExecutor
from repro.relalg.planner import (
    AccessPath,
    HashJoinBuild,
    IndexProbe,
    QueryPlan,
    TableScan,
    plan_select,
)
from repro.relalg.rowset import QueryStats, ResultSet
from repro.relalg.schema import Column, ColumnType, TableSchema
from repro.relalg.semantics import (
    Analysis,
    SqlType,
    analyze_select,
    check_delete,
)
from repro.relalg.sqlparser import SqlParser, parse_sql, tokenize_sql
from repro.relalg.compile import compile_batch_predicate
from repro.relalg.storage import (
    CHUNK_ROWS,
    HashIndex,
    PositionsView,
    Table,
    TableStatistics,
    Transaction,
)
from repro.relalg.wal import (
    WriteAheadLog,
    fingerprint_hash,
    restore_state,
    snapshot_state,
    state_fingerprint,
)

__all__ = [
    "AccessPath",
    "Analysis",
    "BACKEND_PROFILES",
    "BackendProfile",
    "BridgedClient",
    "CHUNK_ROWS",
    "ClientCosts",
    "Column",
    "ColumnType",
    "DEFAULT_BATCH_SIZE",
    "Database",
    "DatabaseClient",
    "ExecutionError",
    "ExecutionSummary",
    "HashIndex",
    "HashJoinBuild",
    "IndexProbe",
    "IntegrityError",
    "InterpretedSelectExecutor",
    "NativeClient",
    "PositionsView",
    "QueryPlan",
    "QueryStats",
    "RecoveryError",
    "RelalgError",
    "ResultSet",
    "SchemaError",
    "SemanticError",
    "SimulatedBackend",
    "SqlParser",
    "SqlSyntaxError",
    "SqlType",
    "Table",
    "TableScan",
    "TableSchema",
    "TableStatistics",
    "Transaction",
    "TransactionWarning",
    "VirtualClock",
    "WriteAheadLog",
    "analyze_select",
    "backend",
    "check_delete",
    "compile_batch_predicate",
    "fingerprint_hash",
    "parse_sql",
    "plan_select",
    "restore_state",
    "snapshot_state",
    "state_fingerprint",
    "tokenize_sql",
]
