"""Partitioned row storage and secondary indexes.

Every table is hash-partitioned by its primary key: a :class:`Table` owns
``n_partitions`` independent :class:`Partition` objects, each holding its own
row list and its own per-partition :class:`HashIndex` instances.  The default
``n_partitions=1`` preserves the historical single-partition behaviour
byte-for-byte (positions, scan order, index views); higher partition counts
give the executor independently scannable shards — the seam the partitioned
access paths in :mod:`repro.relalg.planner` (``PartitionScan``, partition-
pruned ``IndexProbe``, per-partition ``HashJoinBuild``) iterate over.

Partition assignment is deterministic (:func:`stable_hash`, independent of
``PYTHONHASHSEED``) and keyed by the primary key: a single-column primary key
partitions by its value — which is what makes *partition pruning* possible
(an indexed PK equality touches exactly one partition) — a composite primary
key partitions by the tuple of its values, and a table without a primary key
partitions by the whole row.

Two implementation choices keep the hot probe path allocation-free and the
mutation path O(1):

* index buckets are insertion-ordered dicts ``position → None``, so
  :meth:`HashIndex.add` and :meth:`HashIndex.remove` are O(1) and
  :meth:`HashIndex.lookup` returns a *read-only view* over the bucket instead
  of copying a list per probe (positions are partition-local);
* deleted rows leave tombstones (``None`` entries) that scans skip; once
  tombstones dominate a partition, that partition compacts *independently* —
  it rewrites its row list and rebuilds its indexes without touching its
  siblings, so a delete-heavy key range does not force a full-table rebuild.

Cardinality statistics (:class:`TableStatistics`) are maintained on DML: live
row counts per partition are exact counters, per-index distinct-key estimates
derive from the live index buckets, and a monotonically increasing
``mutations`` counter lets callers reason about the staleness of a snapshot
they took earlier (the planner records its estimates at plan time; plans are
deliberately not invalidated by DML).

Transactions hook in at this layer as **per-partition undo chains**
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
import zlib
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.records import Record
from repro.relalg.errors import ExecutionError, IntegrityError, SchemaError
from repro.relalg.schema import ColumnType, TableSchema

__all__ = [
    "CHUNK_ROWS",
    "ColumnHistogram",
    "HashIndex",
    "OrderedHashIndex",
    "Partition",
    "PositionsView",
    "Table",
    "TableIndex",
    "TableStatistics",
    "Transaction",
    "gather_columns",
    "probe_partition",
    "stable_hash",
]

#: Rows per columnar chunk (see :meth:`Partition.column_chunks`).  Large
#: enough to amortise the per-chunk dispatch of the vectorized scan path,
#: small enough that the per-column value lists of one chunk stay cache
#: friendly.
CHUNK_ROWS = 2048

#: Compact a partition when at least this many tombstones have accumulated …
_COMPACT_MIN_DEAD = 64
#: … and they make up at least this fraction of the partition's row list.
_COMPACT_DEAD_FRACTION = 0.5

_HASH_MASK = 0xFFFFFFFFFFFFFFFF


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


def stable_hash(value: Any) -> int:
    """A deterministic hash for partition assignment.

    Unlike the builtin ``hash``, the result does not depend on
    ``PYTHONHASHSEED`` for strings, timestamps or containers, so partition
    layouts are reproducible across processes (the differential fuzzer and
    the benchmark baselines rely on this).  Numeric cross-type equality is
    preserved the way ``=`` sees it: ``3``, ``3.0`` and ``True``/``1`` land
    in the same partition, so a pruned probe can never miss a matching row.
    """
    if value is None:
        return 11
    if isinstance(value, float) and value != value:
        # NaN: hash(nan) is id-based on CPython 3.10+, and NaN never equals
        # anything (so no probe can match it) — any fixed bucket will do.
        return 0x7FF8
    if isinstance(value, (bool, int, float)):
        # CPython's numeric hash is unsalted and equal across int/float/bool
        # for equal values — exactly the pruning contract.
        return hash(value)
    if isinstance(value, str):
        return zlib.crc32(value.encode("utf-8"))
    if isinstance(value, (tuple, list)):
        acc = 0x345678
        for item in value:
            acc = ((acc * 1000003) ^ stable_hash(item)) & _HASH_MASK
        return acc
    if isinstance(value, _dt.datetime):
        if value.tzinfo is not None:
            value = value.astimezone(_dt.timezone.utc)
        return zlib.crc32(value.isoformat().encode("utf-8"))
    return zlib.crc32(repr(value).encode("utf-8"))


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
    """A hash index over one column of one partition.

    Positions are partition-local row-list offsets; cross-partition access
    goes through the owning :class:`TableIndex`.
    """

    def __init__(self, name: str, column: str) -> None:
        self.name = name
        self.column = column
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
        """The live rows of ``rows`` (this index's partition row list) whose
        indexed column equals ``value``, in position order."""
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
        """Drop every entry (used when the owning partition compacts)."""
        self._buckets.clear()

    def distinct_count(self) -> int:
        """Number of distinct indexed keys currently live in this partition."""
        return len(self._buckets)

    def __len__(self) -> int:
        return sum(len(positions) for positions in self._buckets.values())


def probe_partition(
    parts_of: Sequence[List[HashIndex]],
    keys: Sequence[Tuple[str, Any]],
    pid: int,
    rows: List[Optional[Tuple[Any, ...]]],
) -> List[Tuple[Any, ...]]:
    """The live rows of partition ``pid`` whose positions lie in the bucket
    of every key, in position order.

    ``parts_of[i]`` are the per-partition indexes of ``keys[i]``'s column
    and ``rows`` is the partition's row list.  Several keys walk the
    smallest bucket and keep the positions present in all the others.
    Buckets iterate in ascending position (see :meth:`HashIndex.restore`),
    so the result is ordered exactly like a filtered read of any one of the
    buckets.  The one intersection rule of every engine: the interpreter
    reaches it through :meth:`Table.probe_chunks`, the compiled engine's
    index probes with their per-plan index resolution.
    """
    if len(keys) == 1:
        return parts_of[0][pid].live_rows(keys[0][1], rows)
    if len(keys) == 2:
        smallest = parts_of[0][pid]._buckets.get(keys[0][1])
        if not smallest:
            return []
        other = parts_of[1][pid]._buckets.get(keys[1][1])
        if not other:
            return []
        if len(other) < len(smallest):
            smallest, other = other, smallest
        return [
            stored for position in smallest
            if position in other and (stored := rows[position]) is not None
        ]
    buckets: List[Dict[int, None]] = []
    for parts, (_column, key) in zip(parts_of, keys):
        bucket = parts[pid]._buckets.get(key)
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


#: Sentinel greater than any partition-local position; ``(value, _AFTER_LAST)``
#: sorts after every real ``(value, position)`` run entry.
_AFTER_LAST = float("inf")


class OrderedHashIndex(HashIndex):
    """A hash index that additionally maintains a sorted run of its entries.

    ``run`` is the partition's live ``(value, position)`` pairs sorted by
    value, with ties broken by position (the tuple order); range predicates
    bisect it instead of scanning.  NULL and NaN values are kept out of the
    run — they would poison ``bisect``'s total-order assumption, and neither
    can ever satisfy a range predicate (``col > x`` is UNKNOWN for NULL and
    false for NaN) — and tracked in the ``nulls``/``nans`` position sets
    instead so ORDER BY pushdown can still place those rows.

    Equality probes, bucket iteration order and
    :func:`~repro.relalg.wal.state_fingerprint` are untouched: the inherited
    ``_buckets`` mapping is maintained exactly as in :class:`HashIndex`.
    """

    def __init__(self, name: str, column: str) -> None:
        super().__init__(name, column)
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
        (see :meth:`Table.range_chunks`) — ``bisect`` on an incomparable
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


class Partition:
    """One shard of a table: a row list plus per-partition hash indexes."""

    __slots__ = ("rows", "live_count", "indexes", "_chunks", "_chunk_size")

    def __init__(self) -> None:
        self.rows: List[Optional[Tuple[Any, ...]]] = []
        self.live_count = 0
        #: lowered column name → partition-local :class:`HashIndex`.
        self.indexes: Dict[str, HashIndex] = {}
        #: Lazily built columnar chunk cache (see :meth:`column_chunks`);
        #: ``None`` whenever the row list has mutated since the last build.
        self._chunks: Optional[
            List[Tuple[List[Tuple[Any, ...]], List[List[Any]]]]
        ] = None
        self._chunk_size = 0

    @property
    def dead_count(self) -> int:
        return len(self.rows) - self.live_count

    def scan(self) -> Iterator[Tuple[Any, ...]]:
        """Iterate over this partition's live rows in insertion order."""
        for row in self.rows:
            if row is not None:
                yield row

    def live(self) -> Iterable[Tuple[Any, ...]]:
        """This partition's live rows in insertion order, to be read only:
        the row list itself while it holds no tombstones, else
        :meth:`scan`."""
        rows = self.rows
        if self.live_count == len(rows):
            return rows
        return self.scan()

    def invalidate_chunks(self) -> None:
        """Discard the columnar chunk cache (call after any row mutation)."""
        self._chunks = None

    def column_chunks(
        self, chunk_size: int = CHUNK_ROWS,
    ) -> List[Tuple[List[Tuple[Any, ...]], List[List[Any]]]]:
        """Live rows as ``(row_block, column_lists)`` chunks, insertion order.

        Each chunk covers at most ``chunk_size`` live rows; ``row_block`` is
        the list of row tuples and ``column_lists[j][i] == row_block[i][j]``.
        Tombstones are squeezed out at build time, so chunks see exactly the
        rows :meth:`scan` would yield, in the same order.  The result is
        cached until the next mutation (every DML/compaction/rollback path
        calls :meth:`invalidate_chunks`); a different ``chunk_size`` forces a
        rebuild.  Only a driving scan whose chunks feed a batch predicate or
        the batch hash-join probe builds it; other scans stream :attr:`rows`.
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

    def compact(self, column_indexes: Dict[str, int]) -> int:
        """Drop tombstones and rebuild this partition's indexes in place.

        The :class:`HashIndex` objects are cleared and refilled (not
        replaced), so :class:`TableIndex` facades that alias them stay valid.
        """
        dead = self.dead_count
        if not dead:
            return 0
        self._chunks = None
        self.rows = [row for row in self.rows if row is not None]
        for index in self.indexes.values():
            index.clear()
        for position, row in enumerate(self.rows):
            for key, index in self.indexes.items():
                index.add(row[column_indexes[key]], position)
        return dead

    def maybe_compact(self, column_indexes: Dict[str, int]) -> int:
        dead = self.dead_count
        if dead >= _COMPACT_MIN_DEAD and (
            dead >= len(self.rows) * _COMPACT_DEAD_FRACTION
        ):
            return self.compact(column_indexes)
        return 0


class TableIndex:
    """A logical table index: one :class:`HashIndex` per partition.

    For single-partition tables :meth:`lookup` delegates straight to the
    partition's index (returning the same :class:`PositionsView` the
    historical flat index returned).  For partitioned tables positions are
    partition-local and therefore meaningless without their partition id, so
    cross-partition reads must go through :meth:`Table.probe_chunks` /
    :meth:`Table.lookup` — :meth:`lookup` refuses rather than return a shape
    that looks like the single-partition one but is not.
    """

    __slots__ = ("name", "column", "column_index", "parts", "ordered")

    def __init__(self, name: str, column: str, column_index: int,
                 parts: List[HashIndex], ordered: bool = False) -> None:
        self.name = name
        self.column = column
        self.column_index = column_index
        self.parts = parts
        #: Whether the per-partition parts are :class:`OrderedHashIndex`
        #: instances maintaining sorted runs (``CREATE INDEX ... ORDERED``).
        self.ordered = ordered

    def lookup(self, value: Any) -> PositionsView:
        if len(self.parts) == 1:
            return self.parts[0].lookup(value)
        raise SchemaError(
            f"index {self.name!r} spans {len(self.parts)} partitions and its "
            f"positions are partition-local; probe rows through "
            f"Table.probe_chunks()/Table.lookup() instead"
        )

    def distinct_count(self, disjoint: bool = False) -> int:
        """Distinct-key estimate from the live per-partition buckets.

        ``disjoint=True`` sums the per-partition counts — exact when the
        indexed column is the partition key (every key lives in exactly one
        shard).  Otherwise a key may appear in several shards, so the sum
        would *over*-count distinct keys and make probes look cheaper than
        they are (``rows / distinct`` shrinks); the per-partition maximum is
        a lower bound on the true distinct count, i.e. the conservative bias
        for probe-cost estimates.
        """
        counts = [part.distinct_count() for part in self.parts]
        if disjoint:
            return sum(counts)
        return max(counts, default=0)

    def __len__(self) -> int:
        return sum(len(part) for part in self.parts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "ordered, " if self.ordered else ""
        return (
            f"TableIndex({self.name!r}, column={self.column!r}, "
            f"{kind}partitions={len(self.parts)})"
        )


#: Buckets per equi-width histogram.  Small enough that building one is a
#: handful of bisections per partition run, large enough that a selective
#: range predicate lands in a fraction of one bucket.
_HISTOGRAM_BUCKETS = 16


class ColumnHistogram(Record):
    """An equi-width value histogram of one ordered-indexed numeric column.

    Built from the live sorted runs (NULL/NaN values are excluded from
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
    distinct-key estimate across all partitions, ``histograms`` each lowered
    ordered-indexed numeric column to its equi-width value histogram, and
    ``ordered_columns`` lists the lowered column names carrying an ordered
    index at snapshot time.
    """

    __slots__ = (
        "table", "n_partitions", "row_count", "partition_rows", "index_distinct",
        "histograms", "ordered_columns", "mutations",
    )

    def __init__(
        self,
        table: str,
        n_partitions: int,
        row_count: int,
        partition_rows: Optional[List[int]] = None,
        index_distinct: Optional[Dict[str, int]] = None,
        histograms: Optional[Dict[str, ColumnHistogram]] = None,
        ordered_columns: Optional[List[str]] = None,
        mutations: int = 0,
    ) -> None:
        self.table = table
        self.n_partitions = n_partitions
        self.row_count = row_count
        self.partition_rows = [] if partition_rows is None else partition_rows
        self.index_distinct = {} if index_distinct is None else index_distinct
        self.histograms = {} if histograms is None else histograms
        self.ordered_columns = [] if ordered_columns is None else ordered_columns
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
    reverse, grouped implicitly per partition (each record names its
    partition — the per-partition undo chain):

    * ``("ins", table, pid, start, count)`` — ``count`` rows were appended to
      partition ``pid`` starting at position ``start``.  Undo removes their
      index entries and truncates the rows (reverse order guarantees they sit
      at the tail when their record is reached).
    * ``("del", table, pid, position, row)`` — ``row`` was tombstoned at
      ``position``.  Undo restores the row, its index entries (at their
      original bucket slots) and the live count.

    Tombstone compaction of the touched partitions is deferred to
    :meth:`commit`.
    """

    __slots__ = ("txn_id", "undo", "_touched", "_mutations_before")

    def __init__(self, txn_id: int) -> None:
        self.txn_id = txn_id
        self.undo: List[Tuple[Any, ...]] = []
        #: id(table) → (table, set of touched partition ids).
        self._touched: Dict[int, Tuple["Table", set]] = {}
        self._mutations_before: Dict[int, int] = {}

    # -- staging ----------------------------------------------------------------

    def _touch(self, table: "Table", pid: int) -> None:
        entry = self._touched.get(id(table))
        if entry is None:
            self._touched[id(table)] = (table, {pid})
            self._mutations_before[id(table)] = table.mutations
        else:
            entry[1].add(pid)

    def note_insert(self, table: "Table", pid: int, start: int, count: int) -> None:
        self._touch(table, pid)
        self.undo.append(("ins", table, pid, start, count))

    def note_delete(
        self, table: "Table", pid: int, position: int, row: Tuple[Any, ...]
    ) -> None:
        self._touch(table, pid)
        self.undo.append(("del", table, pid, position, row))

    @property
    def staged(self) -> bool:
        """Whether the transaction has applied any uncommitted DML."""
        return bool(self.undo)

    # -- resolution -------------------------------------------------------------

    def commit(self) -> None:
        """Publish the staged state: run the deferred compaction."""
        for table, pids in self._touched.values():
            column_indexes = table._index_column_map()
            for pid in sorted(pids):
                table.partitions[pid].maybe_compact(column_indexes)
        self.undo.clear()
        self._touched.clear()
        self._mutations_before.clear()

    def rollback(self) -> None:
        """Undo every staged mutation, restoring committed state exactly."""
        for record in reversed(self.undo):
            if record[0] == "ins":
                _, table, pid, start, count = record
                partition = table.partitions[pid]
                if len(partition.rows) != start + count:
                    raise ExecutionError(
                        f"transaction undo corrupted: partition {pid} of table "
                        f"{table.name!r} has {len(partition.rows)} rows where "
                        f"the staged batch ends at {start + count}"
                    )
                for offset in range(count):
                    position = start + offset
                    row = partition.rows[position]
                    # A row inserted and then deleted inside the same
                    # transaction was already resurrected by the delete's
                    # (later, hence earlier-undone) record.
                    for index in table.indexes.values():
                        index.parts[pid].remove(row[index.column_index], position)
                del partition.rows[start:]
                partition.live_count -= count
                partition.invalidate_chunks()
            else:
                _, table, pid, position, row = record
                partition = table.partitions[pid]
                partition.rows[position] = row
                partition.live_count += 1
                partition.invalidate_chunks()
                for index in table.indexes.values():
                    index.parts[pid].restore(row[index.column_index], position)
        self.undo.clear()
        for key, (table, _pids) in self._touched.items():
            table.mutations = self._mutations_before[key]
        self._touched.clear()
        self._mutations_before.clear()


class Table:
    """One table: a schema, its hash-partitioned rows and its indexes."""

    def __init__(self, schema: TableSchema, n_partitions: int = 1) -> None:
        if n_partitions < 1:
            raise SchemaError(
                f"table {schema.name!r}: n_partitions must be >= 1, "
                f"got {n_partitions}"
            )
        self.schema = schema
        self.n_partitions = n_partitions
        self.partitions: List[Partition] = [Partition() for _ in range(n_partitions)]
        #: lowered column name → logical :class:`TableIndex`.
        self.indexes: Dict[str, TableIndex] = {}
        #: DML counter: rows inserted + rows deleted over the table lifetime.
        self.mutations = 0
        #: The open :class:`Transaction` staging DML against this table, or
        #: ``None`` (autocommit).  Set by the database on BEGIN/COMMIT/ROLLBACK.
        self.txn: Optional[Transaction] = None
        self._column_indexes: Dict[str, int] = {}
        pk = schema.primary_key_columns()
        #: Column positions making up the partition key (``None`` → whole row).
        self._partition_key_slots: Optional[List[int]] = (
            [schema.column_index(c.name) for c in pk] if pk else None
        )
        #: Lowered name of the single-column primary key: equality probes on
        #: it are partition-prunable.  ``None`` for composite/absent keys.
        self.partition_column: Optional[str] = (
            pk[0].name.lower() if len(pk) == 1 else None
        )
        self._primary_index: Optional[TableIndex] = None
        if len(pk) == 1:
            self._primary_index = self._register_index(
                f"{schema.name}_pk", pk[0].name
            )

    # -- properties -------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def row_count(self) -> int:
        """Number of live (not deleted) rows across all partitions."""
        return sum(partition.live_count for partition in self.partitions)

    @property
    def dead_count(self) -> int:
        """Number of tombstones currently in the partitions' row lists."""
        return sum(partition.dead_count for partition in self.partitions)

    @property
    def rows(self) -> List[Optional[Tuple[Any, ...]]]:
        """The raw row list (including tombstones).

        Single-partition tables expose their one partition's list directly —
        the historical storage layout, aliased, positions stable.  For
        partitioned tables this is a concatenated *copy* in partition order,
        intended for tests and debugging; executors use the per-partition
        access methods instead.
        """
        if self.n_partitions == 1:
            return self.partitions[0].rows
        combined: List[Optional[Tuple[Any, ...]]] = []
        for partition in self.partitions:
            combined.extend(partition.rows)
        return combined

    # -- partitioning -----------------------------------------------------------

    def partition_of_key(self, key: Any) -> int:
        """The partition an equality probe on the partition column must hit."""
        if self.n_partitions == 1:
            return 0
        return stable_hash(key) % self.n_partitions

    def _partition_of_row(self, row: Tuple[Any, ...]) -> int:
        if self.n_partitions == 1:
            return 0
        slots = self._partition_key_slots
        if slots is None:
            key: Any = row
        elif len(slots) == 1:
            key = row[slots[0]]
        else:
            key = tuple(row[s] for s in slots)
        return stable_hash(key) % self.n_partitions

    # -- modification -----------------------------------------------------------

    def insert(self, values: Sequence[Any]) -> int:
        """Validate and insert one positional row; returns its partition-local
        position.

        Positions are only stable until the next compaction of the owning
        partition; they are an internal storage detail, not a durable row id.
        """
        row = self.schema.validate_row(values)
        primary = self._primary_index
        pid = self._partition_of_row(row)
        if primary is not None:
            key = row[primary.column_index]
            if primary.parts[pid].has_key(key):
                raise IntegrityError(
                    f"duplicate primary key {key!r} in table {self.name!r}"
                )
        partition = self.partitions[pid]
        position = len(partition.rows)
        partition.rows.append(row)
        partition.live_count += 1
        partition.invalidate_chunks()
        if self.txn is not None:
            self.txn.note_insert(self, pid, position, 1)
        for index in self.indexes.values():
            index.parts[pid].add(row[index.column_index], position)
        self.mutations += 1
        return position

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> int:
        """Validate and insert a batch of positional rows; returns the count.

        The batch path defers index maintenance until the whole batch is
        appended: every row is validated first (schema coercion plus primary
        key uniqueness against both the stored rows and the batch itself),
        then each partition's row list grows in one ``extend`` and each
        per-partition index is updated in a single pass.  Because all
        validation — including the partition assignment of every row —
        happens before any mutation, a failing row leaves every partition,
        its indexes and its tombstone accounting exactly as they were: the
        batch is atomic even when its rows span partitions.
        """
        validated = [self.schema.validate_row(values) for values in rows]
        if not validated:
            return 0
        primary = self._primary_index
        assignments = [self._partition_of_row(row) for row in validated]
        if primary is not None:
            key_index = primary.column_index
            seen = set()
            for row, pid in zip(validated, assignments):
                key = row[key_index]
                if key in seen or primary.parts[pid].has_key(key):
                    raise IntegrityError(
                        f"duplicate primary key {key!r} in table {self.name!r}"
                    )
                seen.add(key)
        per_partition: Dict[int, List[Tuple[Any, ...]]] = {}
        for row, pid in zip(validated, assignments):
            per_partition.setdefault(pid, []).append(row)
        for pid, batch in per_partition.items():
            partition = self.partitions[pid]
            start = len(partition.rows)
            partition.rows.extend(batch)
            partition.live_count += len(batch)
            partition.invalidate_chunks()
            if self.txn is not None:
                self.txn.note_insert(self, pid, start, len(batch))
            for index in self.indexes.values():
                column_index = index.column_index
                add = index.parts[pid].add
                for offset, row in enumerate(batch):
                    add(row[column_index], start + offset)
        self.mutations += len(validated)
        return len(validated)

    def delete_where(
        self,
        predicate,
        collect: Optional[List[Tuple[Any, ...]]] = None,
    ) -> int:
        """Delete all live rows for which ``predicate(row_tuple)`` is true.

        The predicate is decided for every live row of every partition
        (partition-major, position order) before any row is tombstoned, so
        a predicate that reads this table — ``x = (SELECT MIN(x) FROM t)``
        — sees the table as it was when the statement started, and a
        predicate that raises deletes nothing.  Each partition then checks
        its own tombstone ratio and compacts independently.  Inside a
        transaction compaction is deferred to commit (it would renumber the
        positions the undo chain records).  ``collect``, when
        given, receives the deleted row images in deletion order
        (partition-major, position order) — the write-ahead log records
        them for deterministic replay.
        """
        victims = [
            [
                position
                for position, row in enumerate(partition.rows)
                if row is not None and predicate(row)
            ]
            for partition in self.partitions
        ]
        column_indexes = self._index_column_map()
        txn = self.txn
        deleted = 0
        for pid, (partition, positions) in enumerate(
            zip(self.partitions, victims)
        ):
            if not positions:
                continue
            rows = partition.rows
            for position in positions:
                row = rows[position]
                rows[position] = None
                for index in self.indexes.values():
                    index.parts[pid].remove(row[index.column_index], position)
                if txn is not None:
                    txn.note_delete(self, pid, position, row)
                if collect is not None:
                    collect.append(row)
            partition.live_count -= len(positions)
            partition.invalidate_chunks()
            if txn is None:
                partition.maybe_compact(column_indexes)
            deleted += len(positions)
        self.mutations += deleted
        return deleted

    def compact(self) -> int:
        """Drop tombstones in every partition; returns the removed count."""
        column_indexes = self._index_column_map()
        return sum(
            partition.compact(column_indexes) for partition in self.partitions
        )

    def _index_column_map(self) -> Dict[str, int]:
        return {key: index.column_index for key, index in self.indexes.items()}

    # -- indexes ----------------------------------------------------------------

    def _register_index(
        self, name: str, column: str, ordered: bool = False
    ) -> TableIndex:
        column_name = self.schema.column(column).name
        key = column_name.lower()
        column_index = self.schema.column_index(column_name)
        part_cls = OrderedHashIndex if ordered else HashIndex
        parts: List[HashIndex] = []
        for partition in self.partitions:
            part = part_cls(name=name, column=column_name)
            partition.indexes[key] = part
            parts.append(part)
        table_index = TableIndex(
            name, column_name, column_index, parts, ordered=ordered
        )
        self.indexes[key] = table_index
        return table_index

    def create_index(
        self, name: str, column: str, ordered: bool = False
    ) -> TableIndex:
        """Create (and backfill) a hash index on ``column``.

        ``ordered=True`` creates an :class:`OrderedHashIndex` per partition:
        equality probes behave identically, but each partition additionally
        maintains a sorted run, enabling range probes and ORDER BY pushdown.
        """
        column_name = self.schema.column(column).name
        if column_name.lower() in self.indexes:
            raise SchemaError(
                f"table {self.name!r} already has an index on column "
                f"{column_name!r}"
            )
        table_index = self._register_index(name, column_name, ordered=ordered)
        column_index = table_index.column_index
        for partition, part in zip(self.partitions, table_index.parts):
            for position, row in enumerate(partition.rows):
                if row is not None:
                    part.add(row[column_index], position)
        return table_index

    def drop_index(self, column: str) -> None:
        """Remove the index on ``column`` (missing indexes are ignored).

        The auto-created primary-key index is structural — uniqueness
        enforcement and partition pruning read it on every insert — so
        dropping it is refused rather than leaving a stale, unmaintained
        index behind.
        """
        key = column.lower()
        index = self.indexes.get(key)
        if index is None:
            return
        if index is self._primary_index:
            raise SchemaError(
                f"cannot drop the primary-key index of table {self.name!r}"
            )
        del self.indexes[key]
        for partition in self.partitions:
            partition.indexes.pop(key, None)

    def index_for(self, column: str) -> Optional[TableIndex]:
        """The logical index on ``column`` if one exists."""
        return self.indexes.get(column.lower())

    def ordered_index_for(self, column: str) -> Optional[TableIndex]:
        """The ordered index on ``column`` if one exists."""
        index = self.indexes.get(column.lower())
        if index is not None and index.ordered:
            return index
        return None

    def _bound_compatible(self, column: str, bound: Any) -> bool:
        """Whether ``bound`` shares the stored value class of ``column``.

        The runs hold schema-coerced values of a single class per column, so
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
        """Iterate over all live rows, partition-major, in insertion order."""
        if self.n_partitions == 1:
            return self.partitions[0].scan()
        return self._scan_partitioned()

    def _scan_partitioned(self) -> Iterator[Tuple[Any, ...]]:
        for partition in self.partitions:
            for row in partition.rows:
                if row is not None:
                    yield row

    def scan_chunks(
        self,
    ) -> Sequence[Tuple[Optional[int], Iterable[Tuple[Any, ...]]]]:
        """Per-partition scan: ``(partition_id, live rows)`` pairs.

        Each partition's live rows come from :meth:`Partition.live`: its row
        list itself while it holds no tombstones, so a scan reads them
        without a per-row generator step.  Like :meth:`probe_chunks` and
        :meth:`range_chunks`, a single-partition table reports its one
        chunk with ``partition_id`` ``None``: there is nothing to attribute
        per partition, so executors charge its work to the flat counters
        only.
        """
        if self.n_partitions == 1:
            return ((None, self.partitions[0].live()),)
        return [
            (pid, partition.live())
            for pid, partition in enumerate(self.partitions)
        ]

    def probe_chunks(
        self, keys: Sequence[Tuple[str, Any]]
    ) -> Optional[List[Tuple[Optional[int], List[Tuple[Any, ...]]]]]:
        """Indexed equality probe on one or more columns, pruned to one
        partition when possible.

        ``keys`` are ``(column, key)`` pairs; a row matches when every
        column equals its key.  Returns ``(partition_id, matching live
        rows)`` pairs (``None`` ids on a single-partition table, see
        :meth:`scan_chunks`), or ``None`` when some column has no index (the
        caller falls back to a filtered scan).  Several keys intersect their
        buckets per partition (:func:`probe_partition`), so the rows
        come out in position order — exactly the rows, in the order, that
        filtering the first key's bucket by the other keys would keep.  A
        key on the partition column touches exactly one partition; otherwise
        every partition's local indexes are probed.
        """
        parts_of: List[List[HashIndex]] = []
        for column, _key in keys:
            table_index = self.indexes.get(column.lower())
            if table_index is None:
                return None
            parts_of.append(table_index.parts)
        return self.probe_partitions(parts_of, keys)

    def probe_partitions(
        self,
        parts_of: Sequence[List[HashIndex]],
        keys: Sequence[Tuple[str, Any]],
    ) -> List[Tuple[Optional[int], List[Tuple[Any, ...]]]]:
        """:meth:`probe_chunks` with the indexes already resolved:
        ``parts_of[i]`` are the per-partition indexes of ``keys[i]``'s
        column.  Routes the probe to the partitions it must touch and
        intersects each one's buckets (:func:`probe_partition`)."""
        # NB: a NULL key is a legitimate bucket lookup here (secondary
        # indexes store NULL entries; ``Table.lookup`` relies on it) — the
        # no-match-on-NULL semantics of ``=`` probes live in the executor.
        if self.n_partitions == 1:
            matches = probe_partition(parts_of, keys, 0, self.partitions[0].rows)
            return [(None, matches)] if matches else []
        pids: Iterable[int] = range(self.n_partitions)
        for column, key in keys:
            if column.lower() == self.partition_column:
                pids = (self.partition_of_key(key),)
                break
        chunks: List[Tuple[Optional[int], List[Tuple[Any, ...]]]] = []
        for pid in pids:
            matches = probe_partition(
                parts_of, keys, pid, self.partitions[pid].rows
            )
            if matches:
                chunks.append((pid, matches))
        return chunks

    def range_chunks(
        self,
        column: str,
        lo: Any,
        lo_incl: bool,
        hi: Any,
        hi_incl: bool,
    ) -> Optional[List[Tuple[Optional[int], List[Tuple[Any, ...]]]]]:
        """Ordered-index range probe over every partition's sorted run.

        Returns ``(partition_id, matching live rows)`` pairs (``None`` ids
        on a single-partition table, see :meth:`scan_chunks`) with each
        partition's rows in **position order** — the order a filtered scan of
        that partition would deliver them — so a range probe is observably
        indistinguishable from the scan it replaces (value order is an
        executor-level concern; see the ORDER BY pushdown).  ``None`` bounds
        are unbounded on that side.

        Returns ``None`` when no ordered index exists on ``column`` or a
        bound's type class is incompatible with the stored values (caller
        falls back to a filtered scan).  NULL/NaN bounds match nothing: the
        comparison is UNKNOWN (NULL) or false (NaN) for every row.
        """
        table_index = self.ordered_index_for(column)
        if table_index is None:
            return None
        for bound in (lo, hi):
            if bound is None:
                continue
            if isinstance(bound, float) and bound != bound:
                return []
            if not self._bound_compatible(table_index.column, bound):
                return None
        if lo is None and hi is None:
            return None
        multi = self.n_partitions > 1
        chunks: List[Tuple[Optional[int], List[Tuple[Any, ...]]]] = []
        for pid, partition in enumerate(self.partitions):
            part = table_index.parts[pid]
            if not isinstance(part, OrderedHashIndex):
                return None
            entries = part.range_slice(lo, lo_incl, hi, hi_incl)
            if not entries:
                continue
            stored_rows = partition.rows
            matches = [
                stored
                for position in sorted(position for _value, position in entries)
                if (stored := stored_rows[position]) is not None
            ]
            if matches:
                chunks.append((pid if multi else None, matches))
        return chunks

    def lookup(self, column: str, value: Any) -> Iterator[Tuple[Any, ...]]:
        """Rows whose ``column`` equals ``value`` (uses the index when present)."""
        chunks = self.probe_chunks(((column, value),))
        if chunks is not None:
            for _pid, matches in chunks:
                yield from matches
            return
        column_index = self.schema.column_index(column)
        for row in self.scan():
            if row[column_index] == value:
                yield row

    # -- statistics -------------------------------------------------------------

    def _build_histogram(self, index: TableIndex) -> Optional[ColumnHistogram]:
        """An equi-width histogram from the index's live sorted runs.

        Only numeric columns are summarised (equi-width bucket arithmetic
        needs subtractable values); each bucket count is a handful of
        bisections per partition run, so building one is O(buckets · log n).
        """
        runs = [
            part.run
            for part in index.parts
            if isinstance(part, OrderedHashIndex) and part.run
        ]
        if not runs:
            return None
        sample = runs[0][0][0]
        if not isinstance(sample, (int, float)):
            return None
        lo = float(min(run[0][0] for run in runs))
        hi = float(max(run[-1][0] for run in runs))
        total = sum(len(run) for run in runs)
        width = (hi - lo) / _HISTOGRAM_BUCKETS
        if width <= 0:
            counts = [total]
        else:
            counts = [0] * _HISTOGRAM_BUCKETS
            for run in runs:
                previous = 0
                for bucket in range(1, _HISTOGRAM_BUCKETS):
                    boundary = lo + width * bucket
                    at = bisect.bisect_left(run, (boundary,))
                    counts[bucket - 1] += at - previous
                    previous = at
                counts[_HISTOGRAM_BUCKETS - 1] += len(run) - previous
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
        ordered_columns: List[str] = []
        for key, index in self.indexes.items():
            if index.ordered:
                ordered_columns.append(key)
                histogram = self._build_histogram(index)
                if histogram is not None:
                    histograms[key] = histogram
        return TableStatistics(
            table=self.name,
            n_partitions=self.n_partitions,
            row_count=self.row_count,
            partition_rows=[p.live_count for p in self.partitions],
            index_distinct={
                key: index.distinct_count(
                    disjoint=(
                        self.n_partitions == 1 or key == self.partition_column
                    )
                )
                for key, index in self.indexes.items()
            },
            histograms=histograms,
            ordered_columns=ordered_columns,
            mutations=self.mutations,
        )

    def __len__(self) -> int:
        return self.row_count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Table({self.name!r}, rows={self.row_count}, "
            f"partitions={self.n_partitions})"
        )
