"""Transfer of the object repository into the relational database.

The paper's data flow is: Apprentice writes summary data to a file, the file
is transferred into the relational database, and COSY then analyses the data
with SQL queries.  This module implements the "transferred into the database"
step for the generated schema of :mod:`repro.compiler.schema_gen`: it walks a
:class:`~repro.datamodel.PerformanceDatabase` down the collections of the
mapping's row shapes (``SchemaMapping.row_shape``, which alone decides rows,
columns and load order), assigns integer row ids to every entity and issues
parametrised ``INSERT`` statements through any executor that offers
``execute(sql, params)`` — the plain in-process
:class:`~repro.relalg.database.Database`, a
:class:`~repro.relalg.backends.SimulatedBackend` or one of the client API
layers.  Using the backend/client objects means the bulk-insert experiments
(E1) charge exactly the per-row costs the paper describes.

**Batched loading.**  By default the loader does not execute one ``INSERT``
per entity: rows are buffered per INSERT statement and flushed in batches of
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

from typing import Any, Dict, List, Optional, Protocol, Sequence

from repro.compiler.schema_gen import DUAL_TABLE, SchemaMapping
from repro.datamodel import DataModelError, PerformanceDatabase
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
        #: INSERT text → buffered parameter rows awaiting a flush.
        self._pending: Dict[str, List[List[Any]]] = {}

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
        self._insert(f"INSERT INTO {DUAL_TABLE} (one) VALUES (?)", [1])
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
            self._load("Program", repository.programs)
            self.flush()
            return self.ids
        self.executor.execute("BEGIN")
        try:
            self._load("Program", repository.programs)
            self.flush()
        except BaseException:
            self._pending.clear()
            self.executor.execute("ROLLBACK")
            raise
        self.executor.execute("COMMIT")
        return self.ids

    def _load(
        self,
        class_name: str,
        entities: Sequence[Any],
        column: Optional[str] = None,
        owner: Optional[int] = None,
    ) -> None:
        """Insert ``entities`` of ``class_name``, each row before its collections."""
        shape = self.mapping.row_shape(class_name, column)
        if shape.parents:  # parents first
            entities = sorted(entities, key=lambda entity: _depth(entity, shape.parents))
        ids, width, stored = self.ids, shape.width, shape.stored
        tail = () if column is None else (owner,)
        for entity in entities:
            try:
                values = shape.read(entity)
            except AttributeError as error:
                raise DataModelError(
                    f"data-model attribute {class_name}.{error.name}: {error}"
                ) from None
            row = [*values[:width], *tail]
            row_id = row[0] = ids.assign(class_name, row[0])
            for position, convert in stored:
                row[position] = convert(row[position], ids)
            self._insert(shape.sql, row)
            if shape.collections:
                for (element, key), members in zip(shape.collections, values[width:]):
                    self._load(element, members, key, row_id)

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #

    def _insert(self, sql: str, row: List[Any]) -> None:
        """Insert one row now, or buffer it under its INSERT text."""
        if self.batch_size is None:
            self.executor.execute(sql, row)
            self.rows_inserted += 1
            return
        pending = self._pending.get(sql)
        if pending is None:
            pending = self._pending[sql] = []
        pending.append(row)
        if len(pending) >= self.batch_size:
            self._flush_one(sql)

    def flush(self) -> None:
        """Issue every buffered INSERT batch (load() flushes automatically)."""
        for key in list(self._pending):
            self._flush_one(key)

    def _flush_one(self, sql: str) -> None:
        pending = self._pending.pop(sql, None)
        if not pending:
            return
        executemany = getattr(self.executor, "executemany", None)
        if executemany is not None:
            executemany(sql, pending)
            self.rows_inserted += len(pending)
        else:
            for params in pending:
                self.executor.execute(sql, params)
                self.rows_inserted += 1


def _depth(entity: Any, parents: Sequence[str]) -> int:
    """Length of the longest chain of references through ``parents``."""
    depth, level, seen = 0, {entity.uid: entity}, set()
    while True:
        level = {
            parent.uid: parent for member in level.values()
            for parent in (getattr(member, name) for name in parents)
            if parent is not None
        }
        if not level:
            return depth
        depth += 1
        seen.update(level)
        if depth > len(seen):  # longer than any chain without a cycle
            raise DataModelError(
                f"cycle through {'/'.join(parents)} at uid {entity.uid}"
            )


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
