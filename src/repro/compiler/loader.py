"""Transfer of the object repository into the relational database.

The paper's data flow is: Apprentice writes summary data to a file, the file
is transferred into the relational database, and COSY then analyses the data
with SQL queries.  This module implements the "transferred into the database"
step for the generated schema of :mod:`repro.compiler.schema_gen`: it walks a
:class:`~repro.datamodel.PerformanceDatabase`, assigns integer row ids to every
entity and issues parametrised ``INSERT`` statements through any executor that
offers ``execute(sql, params)`` — the plain in-process
:class:`~repro.relalg.database.Database`, a
:class:`~repro.relalg.backends.SimulatedBackend` or one of the client API
layers.  Using the backend/client objects means the bulk-insert experiments
(E1) charge exactly the per-row costs the paper describes.

**Batched loading.**  By default the loader does not execute one ``INSERT``
per entity: rows are buffered per target table and flushed in batches of
``batch_size`` through the executor's ``executemany`` (falling back to
row-at-a-time ``execute`` for executors without one).  Against a
:class:`~repro.relalg.backends.SimulatedBackend` the E1 virtual cost model
then charges **one network round trip and one per-statement insert overhead
per batch** plus the per-row server work — reproducing the paper's bulk-load
gap, where row-at-a-time submission pays the round trip per row.  Passing
``batch_size=None`` restores the row-at-a-time path (the E6 benchmark loads
both ways and checks the loaded tables are identical).  Within one table rows
are flushed in insertion order, so the loaded contents are independent of the
batch size.

**Atomic loading.**  ``atomic=True`` wraps the data load — not the schema
creation, which is DDL and refused inside a transaction — in
``BEGIN`` … ``COMMIT`` issued as plain SQL through the executor, so the
wrapping works through every executor layer (engine, simulated backend,
client stacks) and, with a WAL-backed database, the whole repository becomes
durable in one fsync.  A mid-load failure rolls the transaction back: the
database returns to its pre-load state instead of keeping a partial
repository.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Protocol, Sequence, Tuple

from repro.compiler.schema_gen import DUAL_TABLE, PRIMARY_KEY, SchemaMapping
from repro.datamodel import (
    Function,
    FunctionCall,
    PerformanceDatabase,
    Program,
    ProgVersion,
    Region,
)
from repro.records import Record

__all__ = [
    "SqlExecutor",
    "ObjectIds",
    "DatabaseLoader",
    "DEFAULT_LOAD_BATCH_SIZE",
    "load_repository",
]


class SqlExecutor(Protocol):
    """Anything that can execute a parametrised SQL statement.

    Executors may additionally offer ``executemany(sql, param_rows)``; the
    loader uses it to flush whole insert batches in one call.
    """

    def execute(self, sql: str, params: Sequence[Any] = ()) -> Any:  # pragma: no cover
        ...


#: Buffered rows flushed per ``executemany`` call unless configured otherwise.
DEFAULT_LOAD_BATCH_SIZE = 100


class ObjectIds(Record):
    """Mapping from entity objects (by uid) to their relational row ids."""

    __slots__ = ("by_class",)

    def __init__(self, by_class: Optional[Dict[str, Dict[int, int]]] = None) -> None:
        self.by_class = {} if by_class is None else by_class

    def assign(self, class_name: str, uid: int) -> int:
        ids = self.by_class.setdefault(class_name, {})
        if uid in ids:
            return ids[uid]
        row_id = len(ids) + 1
        ids[uid] = row_id
        return row_id

    def id_of(self, class_name: str, uid: int) -> int:
        try:
            return self.by_class[class_name][uid]
        except KeyError:
            raise KeyError(
                f"no row id assigned for {class_name} instance with uid {uid}"
            ) from None

    def id_for(self, entity: Any) -> int:
        """Row id of a data-model entity (dispatches on the entity class name)."""
        return self.id_of(type(entity).__name__, entity.uid)

    def count(self, class_name: str) -> int:
        return len(self.by_class.get(class_name, {}))

    def total(self) -> int:
        return sum(len(ids) for ids in self.by_class.values())


class DatabaseLoader:
    """Loads a performance-data repository into the generated schema.

    ``batch_size`` rows per table are buffered and flushed through the
    executor's ``executemany``; ``batch_size=None`` disables buffering and
    issues one ``execute`` per row (the pre-batching behaviour).
    """

    def __init__(
        self,
        mapping: SchemaMapping,
        executor: SqlExecutor,
        batch_size: Optional[int] = DEFAULT_LOAD_BATCH_SIZE,
    ) -> None:
        if batch_size is not None and batch_size < 1:
            raise ValueError(f"batch_size must be positive or None, got {batch_size}")
        self.mapping = mapping
        self.executor = executor
        self.batch_size = batch_size
        self.ids = ObjectIds()
        self.rows_inserted = 0
        #: (table, column tuple) → buffered parameter rows awaiting a flush.
        self._pending: Dict[Tuple[str, Tuple[str, ...]], List[List[Any]]] = {}
        #: (table, value keys) → the (table, column tuple) those values
        #: insert into: the keys the generated schema has, in value order.
        self._shapes: Dict[Tuple[str, Tuple[str, ...]], Tuple[str, Tuple[str, ...]]] = {}

    # ------------------------------------------------------------------ #
    # schema creation
    # ------------------------------------------------------------------ #

    def create_schema(self, with_indexes: bool = True) -> None:
        """Create all generated tables (and optionally the FK indexes)."""
        for statement in self.mapping.create_statements():
            self.executor.execute(statement)
        if with_indexes:
            for statement in self.mapping.index_statements():
                self.executor.execute(statement)
        self._insert(DUAL_TABLE, {"one": 1})
        self.flush()

    # ------------------------------------------------------------------ #
    # loading
    # ------------------------------------------------------------------ #

    def load(
        self, repository: PerformanceDatabase, atomic: bool = False
    ) -> ObjectIds:
        """Insert every entity of ``repository`` and return the id mapping.

        ``atomic=True`` wraps the whole load in ``BEGIN`` … ``COMMIT`` (rolled
        back on any failure); the statements go through the executor like any
        other SQL, so backends and client layers charge their usual costs.
        """
        if not atomic:
            for program in repository.programs:
                self._load_program(program)
            self.flush()
            return self.ids
        self.executor.execute("BEGIN")
        try:
            for program in repository.programs:
                self._load_program(program)
            self.flush()
        except BaseException:
            self._pending.clear()
            self.executor.execute("ROLLBACK")
            raise
        self.executor.execute("COMMIT")
        return self.ids

    def _load_program(self, program: Program) -> None:
        program_id = self.ids.assign("Program", program.uid)
        self._insert("Program", {PRIMARY_KEY: program_id, "Name": program.Name})
        for version in program.Versions:
            self._load_version(version, program_id)

    def _load_version(self, version: ProgVersion, program_id: int) -> None:
        version_id = self.ids.assign("ProgVersion", version.uid)
        code_text = "\n".join(
            f"--- {path}\n{text}" for path, text in sorted(version.Code.files.items())
        )
        self._insert(
            "ProgVersion",
            {
                PRIMARY_KEY: version_id,
                "Compilation": version.Compilation,
                "Code": code_text,
                "owner_Program_Versions_id": program_id,
            },
        )
        for run in version.Runs:
            run_id = self.ids.assign("TestRun", run.uid)
            self._insert(
                "TestRun",
                {
                    PRIMARY_KEY: run_id,
                    "Start": run.Start,
                    "NoPe": run.NoPe,
                    "Clockspeed": run.Clockspeed,
                    "owner_ProgVersion_Runs_id": version_id,
                },
            )
        for function in version.Functions:
            self._load_function(function, version_id)

    def _load_function(self, function: Function, version_id: int) -> None:
        function_id = self.ids.assign("Function", function.uid)
        self._insert(
            "Function",
            {
                PRIMARY_KEY: function_id,
                "Name": function.Name,
                "owner_ProgVersion_Functions_id": version_id,
            },
        )
        # Regions: parents must be inserted before their children so the
        # ParentRegion_id foreign key can be resolved.
        for region in sorted(function.Regions, key=lambda r: r.depth()):
            self._load_region(region, function_id)
        for call in function.Calls:
            self._load_call(call, function_id)

    def _load_region(self, region: Region, function_id: int) -> None:
        region_id = self.ids.assign("Region", region.uid)
        parent_id = (
            self.ids.id_of("Region", region.ParentRegion.uid)
            if region.ParentRegion is not None
            else None
        )
        self._insert(
            "Region",
            {
                PRIMARY_KEY: region_id,
                "ParentRegion_id": parent_id,
                "owner_Function_Regions_id": function_id,
            },
        )
        for total in region.TotTimes:
            total_id = self.ids.assign("TotalTiming", total.uid)
            self._insert(
                "TotalTiming",
                {
                    PRIMARY_KEY: total_id,
                    "Run_id": self.ids.id_of("TestRun", total.Run.uid),
                    "Excl": total.Excl,
                    "Incl": total.Incl,
                    "Ovhd": total.Ovhd,
                    "owner_Region_TotTimes_id": region_id,
                },
            )
        for typed in region.TypTimes:
            typed_id = self.ids.assign("TypedTiming", typed.uid)
            self._insert(
                "TypedTiming",
                {
                    PRIMARY_KEY: typed_id,
                    "Run_id": self.ids.id_of("TestRun", typed.Run.uid),
                    "Type": typed.Type.value,
                    "Time": typed.Time,
                    "owner_Region_TypTimes_id": region_id,
                },
            )

    def _load_call(self, call: FunctionCall, function_id: int) -> None:
        call_id = self.ids.assign("FunctionCall", call.uid)
        self._insert(
            "FunctionCall",
            {
                PRIMARY_KEY: call_id,
                "Caller_id": self.ids.id_of("Function", call.Caller.uid),
                "CallingReg_id": self.ids.id_of("Region", call.CallingReg.uid),
                "owner_Function_Calls_id": function_id,
            },
        )
        for timing in call.Sums:
            timing_id = self.ids.assign("CallTiming", timing.uid)
            self._insert(
                "CallTiming",
                {
                    PRIMARY_KEY: timing_id,
                    "Run_id": self.ids.id_of("TestRun", timing.Run.uid),
                    "MinCalls": timing.MinCalls,
                    "MaxCalls": timing.MaxCalls,
                    "MeanCalls": timing.MeanCalls,
                    "StdevCalls": timing.StdevCalls,
                    "MinTime": timing.MinTime,
                    "MaxTime": timing.MaxTime,
                    "MeanTime": timing.MeanTime,
                    "StdevTime": timing.StdevTime,
                    "MinCallsPe": timing.MinCallsPe,
                    "MaxCallsPe": timing.MaxCallsPe,
                    "MinTimePe": timing.MinTimePe,
                    "MaxTimePe": timing.MaxTimePe,
                    "owner_FunctionCall_Sums_id": call_id,
                },
            )

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #

    def _insert(self, table: str, values: Dict[str, Any]) -> None:
        """Insert one row, skipping columns the generated schema does not have.

        The columns are resolved once per table and shape of ``values`` (its
        keys in order); every later row of that shape reuses them.
        """
        shape = (table, tuple(values))
        key = self._shapes.get(shape)
        if key is None:
            known = {c.name for c in self.mapping.schemas[table].columns}
            key = (table, tuple(name for name in values if name in known))
            self._shapes[shape] = key
        columns = key[1]
        if len(columns) == len(values):
            params = list(values.values())
        else:
            params = [values[name] for name in columns]
        if self.batch_size is None:
            self.executor.execute(self._insert_sql(*key), params)
            self.rows_inserted += 1
            return
        pending = self._pending.get(key)
        if pending is None:
            pending = self._pending[key] = []
        pending.append(params)
        if len(pending) >= self.batch_size:
            self._flush_one(key)

    def flush(self) -> None:
        """Issue every buffered INSERT batch (load() flushes automatically)."""
        for key in list(self._pending):
            self._flush_one(key)

    def _flush_one(self, key: Tuple[str, Tuple[str, ...]]) -> None:
        pending = self._pending.pop(key, None)
        if not pending:
            return
        sql = self._insert_sql(*key)
        executemany = getattr(self.executor, "executemany", None)
        if executemany is not None:
            executemany(sql, pending)
            self.rows_inserted += len(pending)
        else:
            for params in pending:
                self.executor.execute(sql, params)
                self.rows_inserted += 1

    @staticmethod
    def _insert_sql(table: str, columns: Tuple[str, ...]) -> str:
        placeholders = ", ".join("?" for _ in columns)
        return f"INSERT INTO {table} ({', '.join(columns)}) VALUES ({placeholders})"


def load_repository(
    repository: PerformanceDatabase,
    mapping: SchemaMapping,
    executor: SqlExecutor,
    with_indexes: bool = True,
    batch_size: Optional[int] = DEFAULT_LOAD_BATCH_SIZE,
    atomic: bool = False,
) -> ObjectIds:
    """Create the schema and load ``repository`` through ``executor``.

    ``batch_size`` buffers inserts per table and flushes them through the
    executor's ``executemany``; ``None`` loads row at a time.  ``atomic=True``
    wraps the data load (after the schema DDL) in one transaction — all
    rows commit together or, on failure, none do.
    """
    loader = DatabaseLoader(mapping, executor, batch_size=batch_size)
    loader.create_schema(with_indexes=with_indexes)
    return loader.load(repository, atomic=atomic)
