"""Row storage and secondary indexes.

A :class:`Table` holds one row list, one live-row count, one columnar chunk
cache and one :class:`HashIndex` (:class:`OrderedHashIndex` for ``CREATE
INDEX ... ORDERED``) per indexed column.  A row's position is its offset in
the row list; index buckets hold positions.

Two implementation choices keep the hot probe path allocation-free and the
mutation path O(1):

* index buckets are insertion-ordered dicts ``position → None``, so
  :meth:`HashIndex.add` and :meth:`HashIndex.remove` are O(1) and
  :meth:`HashIndex.lookup` returns a *read-only view* over the bucket instead
  of copying a list per probe;
* deleted rows leave tombstones (``None`` entries) that scans skip; once
  tombstones dominate the row list, the table compacts — it rewrites its row
  list and rebuilds its indexes.

Cardinality statistics (:class:`TableStatistics`) are maintained on DML: the
live row count is an exact counter, per-index distinct-key estimates derive
from the live index buckets, and a monotonically increasing ``mutations``
counter lets callers reason about the staleness of a snapshot they took
earlier (the planner records its estimates at plan time; plans are
deliberately not invalidated by DML).

Transactions hook in at this layer as an **undo chain**
(:class:`Transaction`).  While a transaction is open (``Table.txn`` set by
:class:`~repro.relalg.database.Database` on ``BEGIN``), DML applies directly
— the transaction reads its own writes through the unchanged scan/probe
paths — but each mutation pushes an inverse record onto the undo chain, and
tombstone compaction is deferred to commit (compaction renumbers positions,
which would invalidate the undo records).  ``ROLLBACK`` walks the chain in
reverse and restores rows, index buckets (at their original
ascending-position slots), live counts, tombstones and the ``mutations``
counter byte-for-byte.
"""

from __future__ import annotations

import bisect
import datetime as _dt
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.records import Record
from repro.relalg.errors import ExecutionError, IntegrityError, SchemaError
from repro.relalg.schema import ColumnType, TableSchema

__all__ = [
    "CHUNK_ROWS",
    "ColumnHistogram",
    "HashIndex",
    "OrderedHashIndex",
    "PositionsView",
    "Table",
    "TableStatistics",
    "Transaction",
    "gather_columns",
    "probe_rows",
]

#: Rows per columnar chunk (see :meth:`Table.column_chunks`).  Large enough
#: to amortise the per-chunk dispatch of the vectorized scan path, small
#: enough that the per-column value lists of one chunk stay cache friendly.
CHUNK_ROWS = 2048

#: Compact a table when at least this many tombstones have accumulated …
_COMPACT_MIN_DEAD = 64
#: … and they make up at least this fraction of its row list.
_COMPACT_DEAD_FRACTION = 0.5


def gather_columns(
    rows: Sequence[Tuple[Any, ...]], slots: Iterable[int], width: int
) -> List[Optional[List[Any]]]:
    """Per-slot value lists of a row block, populated only for ``slots``.

    The inverse gather: batch expression nodes evaluate over columns, so
    consumers of already-materialised row tuples (batch aggregation over
    joined rows, batch hash-join key evaluation over chunk survivors) lift
    just the referenced slots into columns — one comprehension per slot,
    not one per row.
    """
    cols: List[Optional[List[Any]]] = [None] * width
    for j in slots:
        cols[j] = [row[j] for row in rows]
    return cols


class PositionsView:
    """A read-only, insertion-ordered view of one index bucket.

    The view aliases live index state — it must not be mutated and should be
    consumed before the index is modified (the executor materialises its
    results before any data modification can run).  It compares equal to any
    sequence with the same elements in the same order, so existing callers
    that compared the old list results keep working.
    """

    __slots__ = ("_positions",)

    def __init__(self, positions: Dict[int, None]) -> None:
        self._positions = positions

    def __iter__(self) -> Iterator[int]:
        return iter(self._positions)

    def __len__(self) -> int:
        return len(self._positions)

    def __contains__(self, position: object) -> bool:
        return position in self._positions

    def __getitem__(self, index: int) -> int:
        return list(self._positions)[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PositionsView):
            return list(self._positions) == list(other._positions)
        if isinstance(other, (list, tuple)):
            return list(self._positions) == list(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PositionsView({list(self._positions)!r})"


_EMPTY_VIEW = PositionsView({})


#: Canonical bucket key shared by every NaN index entry.  ``NaN != NaN``, so
#: raw NaN keys bucket by object identity: live mutation creates one bucket
#: per inserted object while a WAL replay or compaction rebuild may share one
#: decoded object across rows — two observably different index states for the
#: same logical table.  Funnelling every NaN through one module-level key
#: makes both paths converge.  Equality probes stay reference-faithful: a
#: user-supplied NaN can only reach a bucket via ``==`` after the identity
#: check fails, and ``NaN == NaN`` is false, so ``col = NaN`` still matches
#: nothing.
_NAN_KEY = float("nan")


def _bucket_key(value: Any) -> Any:
    if isinstance(value, float) and value != value:
        return _NAN_KEY
    return value


class HashIndex:
    """A hash index over one column of a table.

    Positions are offsets into the table's row list; ``column_index`` is the
    indexed column's offset in a row (the table sets it).
    """

    #: Whether the index also keeps a sorted run (:class:`OrderedHashIndex`).
    ordered = False

    def __init__(self, name: str, column: str, column_index: int = 0) -> None:
        self.name = name
        self.column = column
        self.column_index = column_index
        self._buckets: Dict[Any, Dict[int, None]] = {}

    def add(self, value: Any, position: int) -> None:
        """Register that the row at ``position`` has ``value`` in the column."""
        value = _bucket_key(value)
        bucket = self._buckets.get(value)
        if bucket is None:
            self._buckets[value] = {position: None}
        else:
            bucket[position] = None

    def remove(self, value: Any, position: int) -> None:
        """Remove one (value, position) entry; missing entries are ignored."""
        value = _bucket_key(value)
        bucket = self._buckets.get(value)
        if bucket is not None and position in bucket:
            del bucket[position]
            if not bucket:
                del self._buckets[value]

    def lookup(self, value: Any) -> PositionsView:
        """Row positions whose indexed column equals ``value`` (a read-only
        view; no copy is made)."""
        bucket = self._buckets.get(value)
        if bucket is None:
            return _EMPTY_VIEW
        return PositionsView(bucket)

    def has_key(self, value: Any) -> bool:
        """Whether some row position is indexed under ``value`` (the truth
        value of :meth:`lookup`, without building a view)."""
        return bool(self._buckets.get(value))

    def live_rows(
        self, value: Any, rows: List[Optional[Tuple[Any, ...]]]
    ) -> List[Tuple[Any, ...]]:
        """The live rows of ``rows`` (the table's row list) whose indexed
        column equals ``value``, in position order."""
        bucket = self._buckets.get(value)
        if bucket is None:
            return []
        return [
            stored for position in bucket
            if (stored := rows[position]) is not None
        ]

    def restore(self, value: Any, position: int) -> None:
        """Re-insert an entry at its original ascending-position bucket slot.

        Bucket iteration order is ascending-position everywhere else in the
        engine (adds append at ever-growing positions, compaction rebuilds in
        row order), and probe results inherit that order.  A rollback that
        resurrects a deleted row must therefore splice the old position back
        into the middle of its bucket, not append it at the end — otherwise
        a rolled-back transaction would leave observably reordered probe
        results behind.
        """
        value = _bucket_key(value)
        bucket = self._buckets.get(value)
        if bucket is None:
            self._buckets[value] = {position: None}
            return
        if next(reversed(bucket)) < position:
            bucket[position] = None
            return
        rebuilt: Dict[int, None] = {}
        spliced = False
        for existing in bucket:
            if not spliced and existing > position:
                rebuilt[position] = None
                spliced = True
            rebuilt[existing] = None
        bucket.clear()
        bucket.update(rebuilt)

    def clear(self) -> None:
        """Drop every entry (used when the table compacts)."""
        self._buckets.clear()

    def distinct_count(self) -> int:
        """Number of distinct indexed keys currently live."""
        return len(self._buckets)

    def __len__(self) -> int:
        return sum(len(positions) for positions in self._buckets.values())


def probe_rows(
    indexes: Sequence[HashIndex],
    keys: Sequence[Any],
    rows: List[Optional[Tuple[Any, ...]]],
) -> List[Tuple[Any, ...]]:
    """The live rows whose positions lie in the bucket of every key, in
    position order.

    ``keys[i]`` is looked up in ``indexes[i]`` and ``rows`` is the table's
    row list.  Several keys walk the smallest bucket and keep the positions
    present in all the others.  Buckets iterate in ascending position (see
    :meth:`HashIndex.restore`), so the result is ordered exactly like a
    filtered read of any one of the buckets.  The one intersection rule of
    every engine: the interpreter reaches it through :meth:`Table.probe`,
    the compiled engine's index probes with their per-plan index resolution.
    """
    if len(keys) == 1:
        return indexes[0].live_rows(keys[0], rows)
    if len(keys) == 2:
        smallest = indexes[0]._buckets.get(keys[0])
        if not smallest:
            return []
        other = indexes[1]._buckets.get(keys[1])
        if not other:
            return []
        if len(other) < len(smallest):
            smallest, other = other, smallest
        return [
            stored for position in smallest
            if position in other and (stored := rows[position]) is not None
        ]
    buckets: List[Dict[int, None]] = []
    for index, key in zip(indexes, keys):
        bucket = index._buckets.get(key)
        if not bucket:
            return []
        buckets.append(bucket)
    buckets.sort(key=len)
    smallest = buckets[0]
    others = buckets[1:]
    return [
        stored for position in smallest
        if all(position in bucket for bucket in others)
        and (stored := rows[position]) is not None
    ]


#: Sentinel greater than any position; ``(value, _AFTER_LAST)`` sorts after
#: every real ``(value, position)`` run entry.
_AFTER_LAST = float("inf")


class OrderedHashIndex(HashIndex):
    """A hash index that additionally maintains a sorted run of its entries.

    ``run`` is the table's live ``(value, position)`` pairs sorted by value,
    with ties broken by position (the tuple order); range predicates bisect
    it instead of scanning.  NULL and NaN values are kept out of the run —
    they would poison ``bisect``'s total-order assumption, and neither can
    ever satisfy a range predicate (``col > x`` is UNKNOWN for NULL and false
    for NaN) — and tracked in the ``nulls``/``nans`` position sets instead so
    ORDER BY pushdown can still place those rows.

    Equality probes, bucket iteration order and
    :func:`~repro.relalg.wal.state_fingerprint` are untouched: the inherited
    ``_buckets`` mapping is maintained exactly as in :class:`HashIndex`.
    """

    ordered = True

    def __init__(self, name: str, column: str, column_index: int = 0) -> None:
        super().__init__(name, column, column_index)
        self.run: List[Tuple[Any, int]] = []
        self.nulls: Dict[int, None] = {}
        self.nans: Dict[int, None] = {}

    def _run_add(self, value: Any, position: int) -> None:
        if value is None:
            self.nulls[position] = None
        elif isinstance(value, float) and value != value:
            self.nans[position] = None
        else:
            bisect.insort(self.run, (value, position))

    def add(self, value: Any, position: int) -> None:
        super().add(value, position)
        self._run_add(value, position)

    def remove(self, value: Any, position: int) -> None:
        super().remove(value, position)
        if value is None:
            self.nulls.pop(position, None)
        elif isinstance(value, float) and value != value:
            self.nans.pop(position, None)
        else:
            at = bisect.bisect_left(self.run, (value, position))
            if at < len(self.run) and self.run[at] == (value, position):
                del self.run[at]

    def restore(self, value: Any, position: int) -> None:
        # ``insort`` splices the resurrected entry straight back into its
        # value/position slot, so no bucket-style rebuild is needed.
        super().restore(value, position)
        self._run_add(value, position)

    def clear(self) -> None:
        super().clear()
        self.run.clear()
        self.nulls.clear()
        self.nans.clear()

    def range_slice(
        self, lo: Any, lo_incl: bool, hi: Any, hi_incl: bool
    ) -> List[Tuple[Any, int]]:
        """The run's ``(value, position)`` entries inside the interval.

        ``None`` bounds are unbounded on that side.  Callers must pre-check
        that non-``None`` bounds are comparable with the run's value class
        (see :meth:`Table.range_rows`) — ``bisect`` on an incomparable
        bound would raise a raw ``TypeError`` mid-probe.
        """
        run = self.run
        if lo is None:
            start = 0
        elif lo_incl:
            start = bisect.bisect_left(run, (lo,))
        else:
            start = bisect.bisect_right(run, (lo, _AFTER_LAST))
        if hi is None:
            end = len(run)
        elif hi_incl:
            end = bisect.bisect_right(run, (hi, _AFTER_LAST))
        else:
            end = bisect.bisect_left(run, (hi,))
        return run[start:end]


#: Buckets per equi-width histogram.  Small enough that building one is a
#: handful of bisections of the sorted run, large enough that a selective
#: range predicate lands in a fraction of one bucket.
_HISTOGRAM_BUCKETS = 16


class ColumnHistogram(Record):
    """An equi-width value histogram of one ordered-indexed numeric column.

    Built from the live sorted run (NULL/NaN values are excluded from
    ``total`` but still counted in ``table_rows``, so an interval selectivity
    correctly discounts rows that can never satisfy a range predicate).
    ``counts[i]`` covers ``[lo + i*width, lo + (i+1)*width)`` with the last
    bucket closed at ``hi``.
    """

    __slots__ = ("column", "lo", "hi", "width", "counts", "total", "table_rows")

    def __init__(
        self,
        column: str,
        lo: float,
        hi: float,
        width: float,
        counts: List[int],
        total: int,
        table_rows: int,
    ) -> None:
        self.column = column
        self.lo = lo
        self.hi = hi
        self.width = width
        self.counts = counts
        self.total = total
        self.table_rows = table_rows

    def _cdf(self, x: float) -> float:
        """Estimated number of run values strictly below ``x`` (linear
        interpolation inside the bucket ``x`` falls in)."""
        if x <= self.lo:
            return 0.0
        if x >= self.hi or self.width <= 0:
            return float(self.total)
        offset = (x - self.lo) / self.width
        index = min(int(offset), len(self.counts) - 1)
        cum = float(sum(self.counts[:index]))
        return cum + self.counts[index] * (offset - index)

    def estimate_rows(self, lo: Optional[float], hi: Optional[float]) -> float:
        """Estimated live rows with a value in ``[lo, hi]`` (``None`` =
        unbounded; bound inclusivity is below histogram resolution)."""
        if self.total == 0:
            return 0.0
        if self.width <= 0:
            # Degenerate single-value histogram: all values equal ``lo``.
            inside = (lo is None or lo <= self.lo) and (
                hi is None or hi >= self.hi
            )
            return float(self.total) if inside else 0.0
        upper = float(self.total) if hi is None else self._cdf(hi)
        lower = 0.0 if lo is None else self._cdf(lo)
        return max(0.0, upper - lower)

    def estimate_fraction(
        self, lo: Optional[float], hi: Optional[float]
    ) -> float:
        """``estimate_rows`` as a fraction of all live rows (NULL/NaN rows
        count in the denominator — they never match a range predicate)."""
        if self.table_rows <= 0:
            return 0.0
        return min(1.0, self.estimate_rows(lo, hi) / self.table_rows)


class TableStatistics(Record):
    """A point-in-time cardinality snapshot of one table.

    ``mutations`` is the table's DML counter at snapshot time; comparing it
    with the live counter tells how stale the snapshot has become (e.g. after
    a DELETE-heavy workload ran against a plan whose estimates were recorded
    earlier).  ``index_distinct`` maps each lowered indexed column to its
    distinct-key count, and ``histograms`` each lowered ordered-indexed
    numeric column to its equi-width value histogram.
    """

    __slots__ = ("table", "row_count", "index_distinct", "histograms", "mutations")

    def __init__(
        self,
        table: str,
        row_count: int,
        index_distinct: Optional[Dict[str, int]] = None,
        histograms: Optional[Dict[str, ColumnHistogram]] = None,
        mutations: int = 0,
    ) -> None:
        self.table = table
        self.row_count = row_count
        self.index_distinct = {} if index_distinct is None else index_distinct
        self.histograms = {} if histograms is None else histograms
        self.mutations = mutations

    def distinct_for(self, column: str) -> Optional[int]:
        return self.index_distinct.get(column.lower())

    def histogram_for(self, column: str) -> Optional[ColumnHistogram]:
        return self.histograms.get(column.lower())


class Transaction:
    """The undo state of one open transaction.

    The database opens a transaction on ``BEGIN`` by pointing every table's
    ``txn`` attribute at one of these; the tables then push inverse records
    here as DML applies.  Records are kept in application order and undone in
    reverse:

    * ``("ins", table, start, count)`` — ``count`` rows were appended to
      ``table`` starting at position ``start``.  Undo removes their index
      entries and truncates the rows (reverse order guarantees they sit at
      the tail when their record is reached).
    * ``("del", table, position, row)`` — ``row`` was tombstoned at
      ``position``.  Undo restores the row, its index entries (at their
      original bucket slots) and the live count.

    Tombstone compaction of the touched tables is deferred to
    :meth:`commit`.
    """

    __slots__ = ("txn_id", "undo", "_touched")

    def __init__(self, txn_id: int) -> None:
        self.txn_id = txn_id
        self.undo: List[Tuple[Any, ...]] = []
        #: id(table) → (table, its ``mutations`` counter before the first
        #: staged write).
        self._touched: Dict[int, Tuple["Table", int]] = {}

    # -- staging ----------------------------------------------------------------

    def _touch(self, table: "Table") -> None:
        if id(table) not in self._touched:
            self._touched[id(table)] = (table, table.mutations)

    def note_insert(self, table: "Table", start: int, count: int) -> None:
        self._touch(table)
        self.undo.append(("ins", table, start, count))

    def note_delete(
        self, table: "Table", position: int, row: Tuple[Any, ...]
    ) -> None:
        self._touch(table)
        self.undo.append(("del", table, position, row))

    # -- resolution -------------------------------------------------------------

    def commit(self) -> None:
        """Publish the staged state: run the deferred compaction."""
        for table, _mutations in self._touched.values():
            table.maybe_compact()
        self.undo.clear()
        self._touched.clear()

    def rollback(self) -> None:
        """Undo every staged mutation, restoring committed state exactly."""
        for record in reversed(self.undo):
            if record[0] == "ins":
                _, table, start, count = record
                rows = table.rows
                if len(rows) != start + count:
                    raise ExecutionError(
                        f"transaction undo corrupted: table {table.name!r} "
                        f"has {len(rows)} rows where the staged batch ends at "
                        f"{start + count}"
                    )
                for position in range(start, start + count):
                    row = rows[position]
                    # A row inserted and then deleted inside the same
                    # transaction was already resurrected by the delete's
                    # (later, hence earlier-undone) record.
                    for index in table.indexes.values():
                        index.remove(row[index.column_index], position)
                del rows[start:]
                table.live_count -= count
            else:
                _, table, position, row = record
                table.rows[position] = row
                table.live_count += 1
                for index in table.indexes.values():
                    index.restore(row[index.column_index], position)
            table._chunks = None
        self.undo.clear()
        for table, mutations in self._touched.values():
            table.mutations = mutations
        self._touched.clear()


class Table:
    """One table: a schema, its row list and its indexes."""

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        #: The row list: live rows and ``None`` tombstones, in insertion
        #: order.  Compaction replaces the list, so readers fetch it anew.
        self.rows: List[Optional[Tuple[Any, ...]]] = []
        #: Live (not deleted) rows in :attr:`rows`.
        self.live_count = 0
        #: lowered column name → its :class:`HashIndex`.
        self.indexes: Dict[str, HashIndex] = {}
        #: DML counter: rows inserted + rows deleted over the table lifetime.
        self.mutations = 0
        #: The open :class:`Transaction` staging DML against this table, or
        #: ``None`` (autocommit).  Set by the database on BEGIN/COMMIT/ROLLBACK.
        self.txn: Optional[Transaction] = None
        #: Lazily built columnar chunk cache (see :meth:`column_chunks`);
        #: ``None`` whenever the row list has mutated since the last build.
        self._chunks: Optional[
            List[Tuple[List[Tuple[Any, ...]], List[List[Any]]]]
        ] = None
        self._chunk_size = 0
        pk = schema.primary_key_columns()
        #: The index of a single-column primary key, which enforces its
        #: uniqueness (``None`` for composite or absent keys).
        self.primary_index: Optional[HashIndex] = None
        if len(pk) == 1:
            self.primary_index = self._register_index(
                f"{schema.name}_pk", pk[0].name
            )

    # -- properties -------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def row_count(self) -> int:
        """Number of live (not deleted) rows."""
        return self.live_count

    @property
    def dead_count(self) -> int:
        """Number of tombstones currently in the row list."""
        return len(self.rows) - self.live_count

    # -- modification -----------------------------------------------------------

    def insert(self, values: Sequence[Any]) -> int:
        """Validate and insert one positional row, as a batch of one;
        returns its position.

        Positions are only stable until the next compaction; they are an
        internal storage detail, not a durable row id.
        """
        self.insert_many((values,))
        return len(self.rows) - 1

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> int:
        """Validate and insert a batch of positional rows; returns the count.

        The batch path defers index maintenance until the whole batch is
        appended: every row is validated first (schema coercion plus primary
        key uniqueness against both the stored rows and the batch itself),
        then the row list grows in one ``extend`` and each index is updated
        in a single pass.  Because all validation happens before any
        mutation, a failing row leaves the rows, the indexes and the
        tombstone accounting exactly as they were: the batch is atomic.
        """
        validated = [self.schema.validate_row(values) for values in rows]
        if not validated:
            return 0
        primary = self.primary_index
        if primary is not None:
            key_index = primary.column_index
            has_key = primary.has_key
            seen = set()
            for row in validated:
                key = row[key_index]
                if key != key:
                    continue  # NaN equals no key, itself included
                if key in seen or has_key(key):
                    raise IntegrityError(
                        f"duplicate primary key {key!r} in table {self.name!r}"
                    )
                seen.add(key)
        start = len(self.rows)
        self.rows.extend(validated)
        self.live_count += len(validated)
        self._chunks = None
        if self.txn is not None:
            self.txn.note_insert(self, start, len(validated))
        for index in self.indexes.values():
            column_index = index.column_index
            add = index.add
            for position, row in enumerate(validated, start):
                add(row[column_index], position)
        self.mutations += len(validated)
        return len(validated)

    def delete_where(
        self,
        predicate,
        collect: Optional[List[Tuple[Any, ...]]] = None,
    ) -> int:
        """Delete all live rows for which ``predicate(row_tuple)`` is true.

        The predicate is decided for every live row (in position order)
        before any row is tombstoned, so a predicate that reads this table —
        ``x = (SELECT MIN(x) FROM t)`` — sees the table as it was when the
        statement started, and a predicate that raises deletes nothing.  The
        table then checks its tombstone ratio and compacts.  Inside a
        transaction compaction is deferred to commit (it would renumber the
        positions the undo chain records).  ``collect``, when given,
        receives the deleted row images in deletion order (position order) —
        the write-ahead log records them for deterministic replay.
        """
        rows = self.rows
        victims = [
            position
            for position, row in enumerate(rows)
            if row is not None and predicate(row)
        ]
        if victims:
            txn = self.txn
            for position in victims:
                row = rows[position]
                rows[position] = None
                for index in self.indexes.values():
                    index.remove(row[index.column_index], position)
                if txn is not None:
                    txn.note_delete(self, position, row)
                if collect is not None:
                    collect.append(row)
            self.live_count -= len(victims)
            self._chunks = None
            if txn is None:
                self.maybe_compact()
        self.mutations += len(victims)
        return len(victims)

    def compact(self) -> int:
        """Drop every tombstone and rebuild the indexes in place; returns the
        removed count.

        The index objects are cleared and refilled, not replaced, so plans
        that resolved them stay valid; the row list is replaced.
        """
        dead = self.dead_count
        if not dead:
            return 0
        self._chunks = None
        self.rows = rows = [row for row in self.rows if row is not None]
        for index in self.indexes.values():
            index.clear()
            column_index = index.column_index
            for position, row in enumerate(rows):
                index.add(row[column_index], position)
        return dead

    def maybe_compact(self) -> int:
        """:meth:`compact` once tombstones dominate the row list."""
        dead = self.dead_count
        if dead >= _COMPACT_MIN_DEAD and (
            dead >= len(self.rows) * _COMPACT_DEAD_FRACTION
        ):
            return self.compact()
        return 0

    # -- indexes ----------------------------------------------------------------

    def _register_index(
        self, name: str, column: str, ordered: bool = False
    ) -> HashIndex:
        column_name = self.schema.column(column).name
        index_cls = OrderedHashIndex if ordered else HashIndex
        index = index_cls(
            name, column_name, self.schema.column_index(column_name)
        )
        self.indexes[column_name.lower()] = index
        return index

    def create_index(
        self, name: str, column: str, ordered: bool = False
    ) -> HashIndex:
        """Create (and backfill) a hash index on ``column``.

        ``ordered=True`` creates an :class:`OrderedHashIndex`: equality
        probes behave identically, but the index additionally maintains a
        sorted run, enabling range probes and ORDER BY pushdown.
        """
        column_name = self.schema.column(column).name
        if column_name.lower() in self.indexes:
            raise SchemaError(
                f"table {self.name!r} already has an index on column "
                f"{column_name!r}"
            )
        index = self._register_index(name, column_name, ordered=ordered)
        column_index = index.column_index
        for position, row in enumerate(self.rows):
            if row is not None:
                index.add(row[column_index], position)
        return index

    def drop_index(self, column: str) -> None:
        """Remove the index on ``column`` (missing indexes are ignored).

        The auto-created primary-key index is structural — uniqueness
        enforcement reads it on every insert — so dropping it is refused
        rather than leaving a stale, unmaintained index behind.
        """
        key = column.lower()
        index = self.indexes.get(key)
        if index is None:
            return
        if index is self.primary_index:
            raise SchemaError(
                f"cannot drop the primary-key index of table {self.name!r}"
            )
        del self.indexes[key]

    def index_for(self, column: str) -> Optional[HashIndex]:
        """The index on ``column`` if one exists."""
        return self.indexes.get(column.lower())

    def ordered_index_for(self, column: str) -> Optional[OrderedHashIndex]:
        """The ordered index on ``column`` if one exists."""
        index = self.indexes.get(column.lower())
        if index is not None and index.ordered:
            return index
        return None

    def _bound_compatible(self, column: str, bound: Any) -> bool:
        """Whether ``bound`` shares the stored value class of ``column``.

        The run holds schema-coerced values of a single class per column, so
        an incomparable bound (e.g. a string placeholder bound against an
        INTEGER column) would raise a raw ``TypeError`` inside ``bisect``;
        callers fall back to the filtered scan instead, which reproduces the
        reference engine's typed per-row comparison error exactly.
        """
        column_type = self.schema.column(column).type
        if column_type in (
            ColumnType.INTEGER, ColumnType.FLOAT, ColumnType.BOOLEAN
        ):
            return isinstance(bound, (bool, int, float))
        if column_type is ColumnType.VARCHAR:
            return isinstance(bound, str)
        return isinstance(bound, _dt.datetime)

    # -- access -----------------------------------------------------------------

    def scan(self) -> Iterator[Tuple[Any, ...]]:
        """Iterate over all live rows in insertion order."""
        for row in self.rows:
            if row is not None:
                yield row

    def live(self) -> Iterable[Tuple[Any, ...]]:
        """The live rows in insertion order, to be read only: the row list
        itself while it holds no tombstones, so a scan reads it without a
        per-row generator step, else :meth:`scan`."""
        rows = self.rows
        if self.live_count == len(rows):
            return rows
        return self.scan()

    def column_chunks(
        self, chunk_size: int = CHUNK_ROWS,
    ) -> List[Tuple[List[Tuple[Any, ...]], List[List[Any]]]]:
        """Live rows as ``(row_block, column_lists)`` chunks, insertion order.

        Each chunk covers at most ``chunk_size`` live rows; ``row_block`` is
        the list of row tuples and ``column_lists[j][i] == row_block[i][j]``.
        Tombstones are squeezed out at build time, so chunks see exactly the
        rows :meth:`scan` would yield, in the same order.  The result is
        cached until the next mutation (every DML, compaction and rollback
        path drops it, so a transaction's scans read its own writes); a
        different ``chunk_size`` forces a rebuild.  Only a driving scan
        whose chunks feed a batch predicate or the batch hash-join probe
        builds it; other scans stream :attr:`rows`.
        """
        chunks = self._chunks
        if chunks is None or self._chunk_size != chunk_size:
            live = [row for row in self.rows if row is not None]
            chunks = []
            for start in range(0, len(live), chunk_size):
                block = live[start:start + chunk_size]
                chunks.append(
                    (block, [list(column) for column in zip(*block)])
                )
            self._chunks = chunks
            self._chunk_size = chunk_size
        return chunks

    def probe(
        self, keys: Sequence[Tuple[str, Any]]
    ) -> Optional[List[Tuple[Any, ...]]]:
        """Indexed equality probe on one or more columns.

        ``keys`` are ``(column, key)`` pairs; a row matches when every
        column equals its key.  Returns the matching live rows, or ``None``
        when some column has no index (the caller falls back to a filtered
        scan).  Several keys intersect their buckets (:func:`probe_rows`),
        so the rows come out in position order — exactly the rows, in the
        order, that filtering the first key's bucket by the other keys would
        keep.
        """
        # NB: a NULL key is a legitimate bucket lookup here (secondary
        # indexes store NULL entries; ``Table.lookup`` relies on it) — the
        # no-match-on-NULL semantics of ``=`` probes live in the executor.
        indexes: List[HashIndex] = []
        for column, _key in keys:
            index = self.indexes.get(column.lower())
            if index is None:
                return None
            indexes.append(index)
        return probe_rows(indexes, [key for _column, key in keys], self.rows)

    def range_rows(
        self,
        column: str,
        lo: Any,
        lo_incl: bool,
        hi: Any,
        hi_incl: bool,
    ) -> Optional[List[Tuple[Any, ...]]]:
        """Ordered-index range probe: bisect the sorted run.

        Returns the matching live rows in **position order** — the order a
        filtered scan would deliver them — so a range probe is observably
        indistinguishable from the scan it replaces (value order is an
        executor-level concern; see the ORDER BY pushdown).  ``None`` bounds
        are unbounded on that side.

        Returns ``None`` when no ordered index exists on ``column`` or a
        bound's type class is incompatible with the stored values (caller
        falls back to a filtered scan).  NULL/NaN bounds match nothing: the
        comparison is UNKNOWN (NULL) or false (NaN) for every row.
        """
        index = self.ordered_index_for(column)
        if index is None:
            return None
        for bound in (lo, hi):
            if bound is None:
                continue
            if isinstance(bound, float) and bound != bound:
                return []
            if not self._bound_compatible(index.column, bound):
                return None
        if lo is None and hi is None:
            return None
        entries = index.range_slice(lo, lo_incl, hi, hi_incl)
        rows = self.rows
        return [
            stored
            for position in sorted(position for _value, position in entries)
            if (stored := rows[position]) is not None
        ]

    def lookup(self, column: str, value: Any) -> Iterator[Tuple[Any, ...]]:
        """Rows whose ``column`` equals ``value`` (uses the index when present)."""
        matches = self.probe(((column, value),))
        if matches is not None:
            yield from matches
            return
        column_index = self.schema.column_index(column)
        for row in self.scan():
            if row[column_index] == value:
                yield row

    # -- statistics -------------------------------------------------------------

    def _build_histogram(
        self, index: OrderedHashIndex
    ) -> Optional[ColumnHistogram]:
        """An equi-width histogram from the index's live sorted run.

        Only numeric columns are summarised (equi-width bucket arithmetic
        needs subtractable values); each bucket count is one bisection of
        the run, so building one is O(buckets · log n).
        """
        run = index.run
        if not run or not isinstance(run[0][0], (int, float)):
            return None
        lo = float(run[0][0])
        hi = float(run[-1][0])
        total = len(run)
        width = (hi - lo) / _HISTOGRAM_BUCKETS
        if width <= 0:
            counts = [total]
        else:
            counts = []
            previous = 0
            for bucket in range(1, _HISTOGRAM_BUCKETS):
                at = bisect.bisect_left(run, (lo + width * bucket,))
                counts.append(at - previous)
                previous = at
            counts.append(total - previous)
        return ColumnHistogram(
            column=index.column,
            lo=lo,
            hi=hi,
            width=width,
            counts=counts,
            total=total,
            table_rows=self.row_count,
        )

    def statistics(self) -> TableStatistics:
        """A fresh cardinality snapshot (derived from live counters; ordered
        indexes additionally contribute equi-width histograms)."""
        histograms: Dict[str, ColumnHistogram] = {}
        for key, index in self.indexes.items():
            if index.ordered:
                histogram = self._build_histogram(index)
                if histogram is not None:
                    histograms[key] = histogram
        return TableStatistics(
            table=self.name,
            row_count=self.row_count,
            index_distinct={
                key: index.distinct_count()
                for key, index in self.indexes.items()
            },
            histograms=histograms,
            mutations=self.mutations,
        )

    def __len__(self) -> int:
        return self.row_count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Table({self.name!r}, rows={self.row_count})"
