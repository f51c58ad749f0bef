"""Result containers and counters shared by every execution engine.

:class:`QueryStats` and :class:`ResultSet` live in this dependency-free
module so the planner (:mod:`repro.relalg.planner`), the expression compiler
(:mod:`repro.relalg.compile`) and the reference engine
(:class:`~repro.relalg.interp.InterpretedSelectExecutor`) share them.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.records import Record
from repro.relalg.errors import ExecutionError

__all__ = ["QueryStats", "ResultSet", "matches_nothing"]


def matches_nothing(key: Any) -> bool:
    """Whether an equality probe with ``key`` matches no row at all.

    ``col = NULL`` is UNKNOWN and ``col = NaN`` is false for every row, yet
    a bucket lookup would hit the NULL entries secondary indexes store, or
    the very NaN object stored in an index.  Every engine's index and hash
    probes apply this one rule before looking a key up (the compiled index
    probe and batch hash join inline it on their hot paths).
    """
    return key is None or key != key


class QueryStats(Record):
    """Counters describing the work one query performed.

    The counters record *physical* work:

    ``rows_scanned``
        rows read from table storage — full scans count every live row, index
        and hash-join probes count only the matching rows they return (plus,
        for hash joins, the one-time scan that builds the hash table);
    ``index_lookups``
        probes into a secondary hash index;
    ``range_probes``
        bisections of an ordered index's sorted run (one per range probe);
    ``hash_probes``
        probes into a transient hash-join table built for one execution;
    ``rows_joined``
        fully joined rows that satisfied every predicate;
    ``rows_returned``
        rows of the final (projected, ordered, limited) result;
    ``subqueries``
        scalar subquery references evaluated (their counters are merged in).

    ``subqueries`` and the counters merged from subqueries describe the
    reference evaluation, which runs a subquery's plan at every reference —
    the work the backends' virtual cost model charges.  The compiled engine
    runs each subquery plan once per execution of its parent and, at every
    later reference, *replays* it: the memoized value is returned and the
    first run's counters are merged again without redoing the work.
    ``subquery_replays`` counts those replayed evaluations, including the
    nested subquery evaluations a replay re-charges, so ``subqueries -
    subquery_replays`` is the number of subquery plans actually executed.

    ``subquery_replays`` is excluded from equality so differential stat
    comparisons between engines stay meaningful.
    """

    __slots__ = (
        "rows_scanned", "index_lookups", "range_probes", "rows_joined",
        "rows_returned", "subqueries", "hash_probes", "subquery_replays",
    )
    _uncompared = _unshown = ("subquery_replays",)

    def __init__(
        self,
        rows_scanned: int = 0,
        index_lookups: int = 0,
        range_probes: int = 0,
        rows_joined: int = 0,
        rows_returned: int = 0,
        subqueries: int = 0,
        hash_probes: int = 0,
        subquery_replays: int = 0,
    ) -> None:
        self.rows_scanned = rows_scanned
        self.index_lookups = index_lookups
        self.range_probes = range_probes
        self.rows_joined = rows_joined
        self.rows_returned = rows_returned
        self.subqueries = subqueries
        self.hash_probes = hash_probes
        self.subquery_replays = subquery_replays

    def merge(self, other: "QueryStats") -> None:
        """Accumulate the counters of a nested (sub)query.

        The single merge rule: the database-level execution summary
        accumulates every statement's counters through it as well.
        """
        self.rows_scanned += other.rows_scanned
        self.index_lookups += other.index_lookups
        self.range_probes += other.range_probes
        self.rows_joined += other.rows_joined
        self.subqueries += other.subqueries
        self.subquery_replays += other.subquery_replays
        self.hash_probes += other.hash_probes


class ResultSet(Record):
    """The materialised result of a SELECT."""

    __slots__ = ("columns", "rows", "stats")

    def __init__(
        self,
        columns: List[str],
        rows: List[Tuple[Any, ...]],
        stats: Optional[QueryStats] = None,
    ) -> None:
        self.columns = columns
        self.rows = rows
        self.stats = QueryStats() if stats is None else stats

    def scalar(self) -> Any:
        """The single value of a 1×1 result; raises otherwise."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise ExecutionError(
                f"expected a scalar result, got {len(self.rows)} row(s) × "
                f"{len(self.columns)} column(s)"
            )
        return self.rows[0][0]

    def column(self, name: str) -> List[Any]:
        """All values of one result column."""
        try:
            index = [c.lower() for c in self.columns].index(name.lower())
        except ValueError:
            raise ExecutionError(
                f"result has no column {name!r} (columns: {self.columns})"
            ) from None
        return [row[index] for row in self.rows]

    def as_dicts(self) -> List[Dict[str, Any]]:
        """Rows as column→value dictionaries."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        return iter(self.rows)


class _SortKey:
    """Sort key wrapper handling NULLs (sorted last) and descending order."""

    __slots__ = ("value", "ascending")

    def __init__(self, value: Any, ascending: bool) -> None:
        self.value = value
        self.ascending = ascending

    def __lt__(self, other: "_SortKey") -> bool:
        a, b = self.value, other.value
        if a is None and b is None:
            return False
        if a is None:
            return not self.ascending
        if b is None:
            return self.ascending
        if self.ascending:
            return a < b
        return b < a

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _SortKey) and self.value == other.value


def _is_true(value: Any) -> bool:
    return bool(value) and value is not None


def _hashable(value: Any) -> Any:
    if isinstance(value, (list, dict, set)):
        return repr(value)
    return value
