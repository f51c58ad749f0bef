"""Plan-then-execute query planning for the relational engine.

The interpreted engine (:mod:`repro.relalg.interp`) re-derives everything per
statement execution — and much of it per *row*: which conjunct applies at
which join level, whether an index probe is possible, how a column name maps
into the row environment.  This module does all of that exactly once per
statement:

* :func:`plan_select` turns a parsed ``SELECT`` into a :class:`QueryPlan`:
  a join order (chosen greedily by bound-predicate availability, then by
  *estimated cardinality* within the probe tiers — the per-table / per-index
  statistics maintained by :class:`~repro.relalg.storage.Table` feed the
  estimates; the plain-scan tier keeps syntactic order to preserve the
  reference engine's physical-counter contract), one explicit
  :class:`AccessPath` per table binding,
  the residual filters of every level, and compiled projection / aggregation
  / ordering closures (see :mod:`repro.relalg.compile`).  This is the only
  module that plans or analyzes a SELECT, once per SELECT node: a scalar
  subquery is planned on its first reference through the statement's memo
  (:func:`subquery_planner`), with the analysis its parent's analysis kept
  for it, and the compiled closures, :attr:`QueryPlan.subquery_plans`
  (EXPLAIN) and :attr:`QueryPlan.table_deps` (the plan cache) all read that
  one plan;
* :class:`QueryPlan.execute` runs the plan against the live tables — the
  plan is parameter-free and is reused across executions and parameter
  bindings (the statement-level plan cache lives in
  :class:`repro.relalg.database.Database`, keyed by SQL text and invalidated
  per dependent table).

Access paths:

1. :class:`IndexProbe` — an equality conjunct ``col = expr`` where ``col`` is
   an indexed column of this binding and ``expr`` is computable from the
   levels already bound, plus every later such conjunct on a different
   indexed column: one probe intersects their index buckets.
2. :class:`HashJoinBuild` — an equality conjunct joining an *unindexed*
   column of this binding to an expression over already-bound levels: the
   table is scanned once per execution into a transient hash table and
   probed per outer row, replacing the interpreter's O(outer × inner)
   rescans.
3. :class:`RangeProbe` — sargable range conjuncts on an ordered-indexed
   column bisect its sorted run.
4. :class:`TableScan` — everything else; applicable conjuncts become
   filters.

Every access path produces its candidates the same way —
:meth:`AccessPath.open` returns the candidate rows plus the filters to
apply — so one enumeration loop serves every plan, and driving levels that
were already scanned elsewhere (vectorized chunks, index-order pushdown)
enter that loop one level down.

NULL and NaN join keys never match (both probe kinds), matching ``=``
semantics (:func:`~repro.relalg.rowset.matches_nothing`).

Join-order caveat for differential testing: the reference engine binds
tables in syntactic order, so its :class:`QueryStats` are only comparable
when this planner's statistics-driven order coincides with the syntactic
one — :attr:`QueryPlan.follows_syntactic_order` reports exactly that (the
same carve-out the hash-join access path already needs, since the reference
engine lacks it).
"""

from __future__ import annotations

from heapq import nsmallest
from itertools import chain
from operator import itemgetter
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple,
)

from repro.records import Record
from repro.relalg.errors import SemanticError
from repro.relalg.compile import (
    BatchPredicate,
    ExecContext,
    GroupFn,
    RowFn,
    SlotLayout,
    SubqueryPlanner,
    compile_batch_aggregate,
    compile_batch_expr,
    compile_batch_predicate,
    compile_group_expr,
    compile_row_expr,
)
from repro.relalg.rowset import (
    QueryStats,
    ResultSet,
    _SortKey,
    _hashable,
    _is_true,
    matches_nothing,
)
from repro.relalg.sqlast import (
    BinaryOperation,
    BinaryOperator,
    ColumnRef,
    InList,
    IsNull,
    ScalarSubquery,
    SelectStatement,
    SqlExpr,
    Star,
    clause_exprs,
    walk,
)
from repro.relalg.semantics import (
    Analysis,
    RangeInterval,
    analyze_select,
    output_columns,
    required_bindings,
    resolve_order_by,
    select_bindings,
)
from repro.relalg import storage
from repro.relalg.storage import (
    Table,
    TableStatistics,
    gather_columns,
    probe_rows,
)

__all__ = [
    "AccessPath",
    "HashJoinBuild",
    "IndexProbe",
    "QueryPlan",
    "RangeProbe",
    "TableScan",
    "plan_select",
    "subquery_planner",
]


# --------------------------------------------------------------------------- #
# access paths
# --------------------------------------------------------------------------- #


class AccessPath:
    """How one join level reads its table; concrete kinds below."""

    __slots__ = ()

    def open(
        self, level: "_Level", index: int, row: Optional[List[Any]],
        ctx: ExecContext,
    ):
        """Candidates of ``level`` for the outer levels currently bound in ``row``.

        Returns ``(candidates, filters)``: the candidate rows in storage
        order and the filters every candidate must pass.  ``index`` is the
        level's position (hash-join tables are cached per level).  ``row``
        is ``None`` in a single-level plan, which binds no outer level.
        """
        raise NotImplementedError


class TableScan(AccessPath):
    """Full scan of the table's live rows."""

    __slots__ = ()
    kind = "scan"

    def open(self, level, index, row, ctx):
        return level.table.live(), level.filters


class IndexProbe(AccessPath):
    """Equality probe into hash indexes, on one or more columns.

    ``keys`` holds one ``(column, compiled key)`` pair per indexed equality
    conjunct the probe consumes, in conjunct order (see
    :func:`_probe_keys`); several keys intersect their buckets
    (:func:`~repro.relalg.storage.probe_rows`).  Every key is evaluated once
    per probe and counts one index lookup; a NULL or NaN key matches
    nothing.

    The probed columns' :class:`~repro.relalg.storage.HashIndex` objects
    are resolved once per plan (``resolved`` pairs each column with its
    index, ``indexes`` lists them in key order) and revalidated by identity
    at every probe, since direct ``Table.drop_index`` / ``create_index``
    calls bypass the plan cache's schema epochs: a re-created index is
    resolved again and used, and if a probed index has disappeared the
    level scans and applies its conjuncts in their original order
    (:attr:`_Level.fallback_filters`).
    """

    __slots__ = ("keys", "columns", "resolved", "indexes")
    kind = "index-probe"

    def __init__(self, keys: List[Tuple[str, RowFn]], table: Table) -> None:
        self.keys = keys
        self.columns = [column for column, _key in keys]
        # The planner probes indexed columns only.
        self._bind([table.indexes[column] for column in self.columns])

    def _bind(self, indexes: List[Any]) -> None:
        self.resolved = tuple(zip(self.columns, indexes))
        self.indexes = indexes

    def open(self, level, index, row, ctx):
        table = level.table
        indexes = table.indexes
        if len(self.keys) == 1:
            # The hot one-key probe.
            column, key_fn = self.keys[0]
            table_index = indexes.get(column)
            if table_index is None:
                return table.live(), level.fallback_filters
            key = key_fn(row, ctx)
            ctx.stats.index_lookups += 1
            if key is None or key != key:
                return (), level.filters  # matches_nothing(key), inlined
            return table_index.live_rows(key, table.rows), level.filters
        for column, table_index in self.resolved:
            if indexes.get(column) is not table_index:
                current = [indexes.get(column) for column in self.columns]
                if None in current:
                    return table.live(), level.fallback_filters
                self._bind(current)
                break
        stats = ctx.stats
        keys = []
        nothing = False
        for _column, key_fn in self.keys:
            key = key_fn(row, ctx)
            stats.index_lookups += 1
            if key is None or key != key:
                nothing = True  # matches_nothing(key), inlined
            keys.append(key)
        if nothing:
            return (), level.filters
        # Table.rows is read here, at probe time: compaction replaces the
        # list.
        return probe_rows(self.indexes, keys, table.rows), level.filters


class HashJoinBuild(AccessPath):
    """Build a transient hash table over the table and probe it.

    The table is built lazily, on the level's first probe of an execution.
    """

    __slots__ = ("col_index", "key")
    kind = "hash-probe"

    def __init__(self, col_index: int, key: RowFn) -> None:
        self.col_index = col_index
        self.key = key

    def open(self, level, index, row, ctx):
        hash_tables = ctx.hash_tables
        hash_table = None if hash_tables is None else hash_tables.get(index)
        if hash_table is None:
            hash_table = _build_hash_table(
                level.table, self.col_index, ctx, index
            )
        key = self.key(row, ctx)
        ctx.stats.hash_probes += 1
        if matches_nothing(key):
            return (), level.filters
        return hash_table.get(key, ()), level.filters


class RangeProbe(AccessPath):
    """Bisect an ordered index's sorted run with a sargable range predicate.

    ``lo``/``hi`` are the compiled bound expressions (``None`` = unbounded on
    that side), ``lo_incl``/``hi_incl`` their inclusivity.  When the
    ordered index disappears behind the plan cache's back or a bound's
    runtime type class cannot be compared against the stored column, the
    level scans and applies its conjuncts in their original order
    (:attr:`_Level.fallback_filters`) — the filtered scan then reproduces
    the reference engine's per-row semantics, including which typed error
    it raises first.
    """

    __slots__ = ("column", "lo", "lo_incl", "hi", "hi_incl")
    kind = "range-probe"

    def __init__(
        self,
        column: str,
        lo: Optional[RowFn],
        lo_incl: bool,
        hi: Optional[RowFn],
        hi_incl: bool,
    ) -> None:
        self.column = column
        self.lo = lo
        self.lo_incl = lo_incl
        self.hi = hi
        self.hi_incl = hi_incl

    def open(self, level, index, row, ctx):
        table = level.table
        if table.ordered_index_for(self.column) is not None:
            lo = self.lo(row, ctx) if self.lo is not None else None
            hi = self.hi(row, ctx) if self.hi is not None else None
            if (self.lo is not None and lo is None) or (
                self.hi is not None and hi is None
            ):
                # A NULL bound makes the comparison UNKNOWN for every row:
                # the probe matches nothing.
                ctx.stats.range_probes += 1
                return (), level.filters
            ranged = table.range_rows(
                self.column, lo, self.lo_incl, hi, self.hi_incl
            )
            if ranged is not None:
                ctx.stats.range_probes += 1
                return ranged, level.filters
        # Stale plan (ordered index dropped), or a bound whose type class is
        # incomparable with the stored column: the filtered scan reproduces
        # the reference engine's per-row semantics, comparison errors
        # included.
        return table.live(), level.fallback_filters


_SCAN = TableScan()


class _Level:
    """One join level: a table binding, its access path and its filters."""

    __slots__ = (
        "binding", "table", "offset", "end", "access", "filters", "estimate",
        "filter_exprs", "key_ast", "fallback_filters",
    )

    def __init__(
        self,
        binding: str,
        table: Table,
        offset: int,
        end: int,
        access: AccessPath,
        filters: List[RowFn],
        estimate: float,
        filter_exprs: Optional[List[SqlExpr]] = None,
        key_ast: Optional[SqlExpr] = None,
        fallback_filters: Optional[List[RowFn]] = None,
    ) -> None:
        self.binding = binding
        self.table = table
        self.offset = offset
        self.end = end
        self.access = access
        self.filters = filters
        #: Estimated rows this level produces per outer row (plan-time).
        self.estimate = estimate
        #: Source ASTs of ``filters``, which the batch predicate compiles.
        self.filter_exprs = filter_exprs if filter_exprs is not None else []
        #: Source AST of the hash-join probe key expression.
        self.key_ast = key_ast
        #: Every conjunct of the level — the ones the access path consumed
        #: and ``filters`` — compiled, in their original conjunct order: what
        #: a probe whose index or bound turned unusable applies to a full
        #: scan instead, so the scan raises the reference engine's errors in
        #: the reference engine's order.
        self.fallback_filters = (
            fallback_filters if fallback_filters is not None else filters
        )

    @property
    def access_column(self) -> Optional[str]:
        """The column(s) the access path probes or builds on (``None`` for
        scans); a multi-key index probe lists its columns in key order."""
        access = self.access
        if type(access) is HashJoinBuild:
            return self.table.schema.columns[access.col_index].name.lower()
        if type(access) is IndexProbe:
            return ", ".join(access.columns)
        return getattr(access, "column", None)


# --------------------------------------------------------------------------- #
# the plan
# --------------------------------------------------------------------------- #


class QueryPlan(Record):
    """A fully compiled SELECT: reusable across executions and parameters.

    ``_loops`` is private: it holds the plan's enumeration chain
    (:func:`_level_loops`), built at its first execution.
    """

    __slots__ = (
        "statement", "layout", "levels", "columns", "projector",
        "identity_projection", "group_key_fns", "having_fn", "item_group_fns",
        "order_spec", "distinct", "limit", "offset", "table_deps", "subquery_plans",
        "follows_syntactic_order", "vector_eligible", "vector_filter",
        "slot_projector", "vector_aggregate", "vector_join_key", "vector_report",
        "contradiction", "analysis_report", "index_order", "_loops",
    )
    _fields = __slots__[:-1]

    def __init__(
        self,
        statement: SelectStatement,
        layout: SlotLayout,
        levels: List[_Level],
        columns: List[str],
        projector: Optional[Callable[[Tuple[Any, ...], ExecContext], Tuple[Any, ...]]],
        identity_projection: bool,
        group_key_fns: Optional[List[RowFn]],
        having_fn: Optional[GroupFn],
        item_group_fns: Optional[List[GroupFn]],
        order_spec: List[Tuple[str, Any, bool]],
        distinct: bool,
        limit: Optional[int],
        offset: Optional[int],
        table_deps: Set[str],
        subquery_plans: List["QueryPlan"],
        follows_syntactic_order: bool,
        vector_eligible: bool = False,
        vector_filter: Optional[BatchPredicate] = None,
        slot_projector: Optional[Callable[[Tuple[Any, ...]], Tuple[Any, ...]]] = None,
        vector_aggregate: Optional[Callable] = None,
        vector_join_key: Optional[Tuple[Any, ...]] = None,
        vector_report: Optional[Dict[str, str]] = None,
        contradiction: bool = False,
        analysis_report: Tuple[str, ...] = (),
        index_order: Optional[Tuple[str, bool]] = None,
    ) -> None:
        self.statement = statement
        self.layout = layout
        self.levels = levels
        self.columns = columns
        #: ``(row, ctx) -> output tuple`` for select lists with at least one
        #: expression item; ``None`` for aggregate queries, the identity
        #: projection and slot-only select lists (see :attr:`slot_projector`).
        self.projector = projector
        #: Shortcut: the projection is the identity over the full slot row.
        self.identity_projection = identity_projection
        #: Aggregate machinery (``None`` entries for non-aggregate queries).
        self.group_key_fns = group_key_fns
        self.having_fn = having_fn
        self.item_group_fns = item_group_fns
        #: ORDER BY: ('col', output_index, ascending) | ('expr', row_fn, ascending)
        self.order_spec = order_spec
        self.distinct = distinct
        self.limit = limit
        #: Rows to skip before the LIMIT window (``LIMIT n OFFSET m``).
        self.offset = offset
        #: Lowered names of every table this plan reads: its own bindings plus
        #: the ``table_deps`` of its subquery plans.  The per-table plan-cache
        #: invalidation in ``Database`` keys off these.
        self.table_deps = table_deps
        #: Plans of the scalar subqueries in the statement's own clauses, in
        #: clause order: the very objects its compiled expressions execute (one
        #: plan per SELECT node, from the planner's per-statement memo), so
        #: EXPLAIN reports what actually executes.  Nested subqueries hang off
        #: their own subquery plan.
        self.subquery_plans = subquery_plans
        #: Whether the chosen join order equals the statement's syntactic binding
        #: order (the order the reference engine always uses).  Differential
        #: tests compare physical counters only when this holds.
        self.follows_syntactic_order = follows_syntactic_order
        #: Whether the plan runs its batch rungs: the driving level is a
        #: :class:`TableScan` whose residual filters all batch-compiled (see
        #: :func:`~repro.relalg.compile.compile_batch_predicate`).  Decided at
        #: plan time; execution still needs ``vectorized=True`` to opt in.
        #: The driving scan reads columnar chunks only when a batch predicate
        #: (:attr:`vector_filter`) or the batch hash-join probe
        #: (:attr:`vector_join_key`) consumes them; a scan with neither
        #: streams the table's rows through the level loop.
        self.vector_eligible = vector_eligible
        #: The compiled batch predicate over the driving level's chunks
        #: (``None`` when the driving level has no filters, or is ineligible).
        self.vector_filter = vector_filter
        #: ``row -> output tuple`` over slot positions only (an ``itemgetter``
        #: under the hood), when the whole select list is slot-addressed: the
        #: plan's one projector for such a list, mapped over the joined rows
        #: in one C-level pass on every path.  ``None`` otherwise.
        self.slot_projector = slot_projector
        #: Batch grouped aggregation over the joined rows (see
        #: :func:`~repro.relalg.compile.compile_batch_aggregate`); ``None`` when
        #: ineligible.  The closure returns ``None`` (side-effect free) when a
        #: fold errors — execution then replays :meth:`_aggregate` row-at-a-time.
        self.vector_aggregate = vector_aggregate
        #: Batch hash-join probe key: the probe key of a two-level
        #: scan→hash-join plan, compiled over the driving binding's slot range.
        #: ``None`` when the plan shape or the key expression is ineligible.
        self.vector_join_key = vector_join_key
        #: Per-rung vectorization report for EXPLAIN: rung name → human-readable
        #: status ("vectorized…", "row-at-a-time (reason)", "n/a (reason)").
        self.vector_report = {} if vector_report is None else vector_report
        #: True when static analysis proved some conjunct false for every row
        #: (``WHERE 1 = 2``, ``x = 1 AND x = 2``): execution skips enumeration
        #: entirely — zero rows scanned, zero index lookups — and the normal
        #: aggregation/projection pipeline runs over the empty row set.
        self.contradiction = contradiction
        #: Findings of the plan-time semantic analysis (folds, dropped
        #: conjuncts, contradictions, lint warnings) for EXPLAIN's ``analysis:``
        #: section.
        self.analysis_report = analysis_report
        #: ORDER BY + LIMIT pushed onto index order: ``(column, ascending)``
        #: when the single sort key is an ordered-indexed column of a
        #: single-level scan plan — execution walks the index's sorted run
        #: and stops after ``limit + offset`` surviving rows,
        #: instead of scanning everything and sorting.  Mode-independent, so
        #: every engine mode reports identical counters.
        self.index_order = index_order
        self._loops = None

    # ------------------------------------------------------------------ #

    def execute(
        self,
        params: Sequence[Any] = (),
        stats: Optional[QueryStats] = None,
        vectorized: bool = False,
        opens: Optional[List[int]] = None,
    ) -> ResultSet:
        """Run the plan and return the materialised result.

        ``vectorized`` drives eligible plans (:attr:`vector_eligible`)
        batch-at-a-time: a driving scan with a batch predicate or a batch
        hash-join probe reads the driving table's columnar chunks of
        ``storage.CHUNK_ROWS`` rows (one predicate dispatch per chunk
        instead of one closure call per row), and the aggregation and top-k
        rungs run their batch forms, with results *and* statistics
        byte-identical to the row-at-a-time path.  Ineligible plans silently
        keep the row-at-a-time path, which remains the differential
        reference.

        ``opens`` (EXPLAIN ANALYZE only) is a list of ``len(levels) + 1``
        zeros that the execution fills (see :attr:`ExecContext.opens`).

        This is the statement wrapper: it builds the statement's
        :class:`ExecContext` and :class:`ResultSet` around :meth:`_run`.
        """
        stats = stats if stats is not None else QueryStats()
        rows = self._run(ExecContext(params, stats, opens), vectorized)
        return ResultSet(list(self.columns), rows, stats)

    def _run(
        self, ctx: ExecContext, vectorized: bool
    ) -> List[Tuple[Any, ...]]:
        """The one execution body of every plan run: enumerate, aggregate
        or project, order, deduplicate and cut, charging ``rows_returned``
        to ``ctx.stats``; returns the result rows.

        A statement runs it through :meth:`execute`; a scalar subquery runs
        it directly, on a child context of its statement's execution (see
        :mod:`repro.relalg.compile`), so a subquery run builds no result
        set.
        """
        use_vectorized = vectorized and self.vector_eligible
        result_rows: Optional[List[Tuple[Any, ...]]] = None
        rows: List[Tuple[Any, ...]] = []
        index_ordered = False
        # A proven contradiction skips enumeration outright: `rows` stays
        # empty and flows through the ordinary aggregation/projection
        # pipeline (ungrouped aggregates still emit their single row).
        if not self.contradiction:
            # A driving chunk stream replaces the first level's scan.
            # Index-order pushdown comes first so every engine mode takes
            # the same enumeration (and reports the same counters); it
            # returns None to fall back (index dropped, NaNs).
            driving = None
            if self.index_order is not None:
                driving = self._index_order_chunks(ctx)
                index_ordered = driving is not None
            if driving is None and use_vectorized and (
                self.vector_filter is not None
                or self.vector_join_key is not None
            ):
                driving = self._vector_chunks(ctx)
            # Batch hash-join probing rides any pre-filtered chunk stream;
            # ``vectorized=False`` keeps the row-at-a-time probe as the
            # differential reference.
            rows = self._enumerate(
                ctx, driving,
                batch_join=driving is not None and vectorized
                and self.vector_join_key is not None,
            )

        if self.item_group_fns is not None:
            if use_vectorized and self.vector_aggregate is not None:
                result_rows = self.vector_aggregate(rows, ctx)
            if result_rows is None:
                result_rows = self._aggregate(rows, ctx)
        elif self.identity_projection:
            result_rows = list(rows)
        elif self.slot_projector is not None:
            result_rows = list(map(self.slot_projector, rows))
        else:
            projector = self.projector
            result_rows = [projector(row, ctx) for row in rows]

        if self.order_spec and not index_ordered:
            # Top-k: ORDER BY + LIMIT without DISTINCT (dedup runs after
            # ordering, so truncating early would change the result) keeps a
            # bounded heap instead of sorting everything.  The heap must
            # retain the skipped OFFSET prefix as well as the LIMIT window.
            top_k = (
                self.limit + (self.offset or 0)
                if self.limit is not None and use_vectorized
                and not self.distinct
                else None
            )
            result_rows = self._order(rows, result_rows, ctx, top_k=top_k)

        if self.distinct:
            seen = set()
            unique: List[Tuple[Any, ...]] = []
            for row in result_rows:
                key = tuple(_hashable(v) for v in row)
                if key not in seen:
                    seen.add(key)
                    unique.append(row)
            result_rows = unique

        if self.limit is not None or self.offset:
            start = self.offset or 0
            stop = None if self.limit is None else start + self.limit
            result_rows = result_rows[start:stop]

        ctx.stats.rows_returned += len(result_rows)
        return result_rows

    def describe(self) -> List[Dict[str, Any]]:
        """Plan shape for EXPLAIN, tests and debugging.

        One entry per join level, in execution order: the access path, the
        residual filter count and the plan-time cardinality estimates
        (``estimated_rows`` per outer row, ``estimated_cardinality``
        cumulative).
        """
        described: List[Dict[str, Any]] = []
        cumulative = 1.0
        for level in self.levels:
            cumulative *= max(level.estimate, 0.0)
            described.append(
                {
                    "binding": level.binding,
                    "table": level.table.name,
                    "access": level.access.kind,
                    "column": level.access_column,
                    "filters": len(level.filters),
                    "estimated_rows": round(level.estimate, 3),
                    "estimated_cardinality": round(cumulative, 3),
                }
            )
        return described

    # ------------------------------------------------------------------ #

    def _enumerate(
        self, ctx: ExecContext, driving=None, batch_join: bool = False
    ) -> List[Tuple[Any, ...]]:
        """Nested-loop/hash join over the planned levels; returns slot rows.

        The one enumeration loop of the compiled engine: the plan's chain of
        level loops (see :func:`_level_loops`), built at its first
        execution.  Each level asks its access path for candidate rows (see
        :meth:`AccessPath.open`), binds every candidate into the slot row,
        applies the level's filters and descends; the candidates it read are
        charged to ``rows_scanned``.

        ``driving`` — ``(surviving rows, scanned count)`` pairs in storage
        order — replaces the first level's scan entirely: the vectorized
        chunk scan or the index-order walk already scanned and filtered the
        driving table, so this level only charges the reported scan work
        (exactly as a row-at-a-time scan would) and hands each surviving
        row to the second level's loop — or, with ``batch_join``, probes
        the inner hash join a whole chunk at a time (see
        :meth:`_batch_join`).
        """
        loops = self._loops
        if loops is None:
            loops = self._loops = _level_loops(self.levels)
        stats = ctx.stats
        # A single-level plan needs no slot row: its candidates are whole
        # rows, and its access keys read no column.
        row: Optional[List[Any]] = (
            [None] * self.layout.width if len(loops) > 1 else None
        )
        out: List[Tuple[Any, ...]] = []
        if driving is None:
            loops[0](row, ctx, out)
        else:
            offset, end = self.levels[0].offset, self.levels[0].end
            join_chunk = (
                self._batch_join(ctx, out.append) if batch_join else None
            )
            descend = loops[1] if len(loops) > 1 else None
            total = 0
            opens = ctx.opens
            for survivors, scanned in driving:
                if join_chunk is not None:
                    if opens is not None:
                        # The batch join never enters level 1's loop.
                        opens[1] += len(survivors)
                    join_chunk(survivors)
                elif descend is None:
                    out.extend(survivors)
                else:
                    for candidate in survivors:
                        row[offset:end] = candidate
                        descend(row, ctx, out)
                total += scanned
            stats.rows_scanned += total
        # Every fully joined slot row passed all its predicates en route.
        stats.rows_joined += len(out)
        if ctx.opens is not None:
            ctx.opens[-1] += len(out)
        return out

    def _index_order_chunks(self, ctx: ExecContext):
        """ORDER BY + LIMIT pushdown over the driving ordered index.

        Single-level plans whose lone sort key is an ordered-indexed column
        (:attr:`index_order`) enumerate in index order by walking the
        index's sorted run and stop after ``limit + offset`` surviving rows
        — replacing the full scan *and* the sort.  Equal sort keys come out
        in storage order, ascending and descending alike, exactly where the
        stable full sort of a scan places them; NULLs sort last ascending /
        first descending, in scan order.

        Returns a driving stream for :meth:`_enumerate` — one ``(survivors,
        1)`` pair per visited row, filters already applied — or ``None`` to
        fall back to the scan-then-sort path when the index was dropped
        behind the plan cache's back or holds NaN values (their full-sort
        placement depends on failed comparisons the walk cannot reproduce).
        """
        column, ascending = self.index_order
        level = self.levels[0]
        table = level.table
        index = table.ordered_index_for(column)
        if index is None or index.nans:
            return None
        nulls = sorted(index.nulls)
        if ascending:
            positions = chain(
                (position for _value, position in index.run), nulls
            )
        else:
            positions = chain(nulls, _descending_positions(index.run))
        rows = table.rows
        filters = level.filters
        needed = (self.limit or 0) + (self.offset or 0)

        def chunks():
            kept = 0
            for position in positions:
                stored = rows[position]
                if stored is None:
                    continue  # defensive: the index drops deleted rows eagerly
                for predicate in filters:
                    if not predicate(stored, ctx):
                        survivors: Tuple[Tuple[Any, ...], ...] = ()
                        break
                else:
                    survivors = (stored,)
                    kept += 1
                yield survivors, 1
                if survivors and kept >= needed:
                    return

        return chunks()

    def _vector_chunks(self, ctx: ExecContext):
        """Vectorized driving scan: yield ``(survivors, scanned)`` pairs.

        One pair per columnar chunk of the driving table, in storage order,
        consumed by the ``driving`` seam of :meth:`_enumerate`, so the work
        accounting is charged as a row-at-a-time scan charges it.  A chunk
        whose batch predicate raises is replayed through the level's row
        filters (see :func:`filter_rows`), which raise the row engine's
        error.  Only plans whose chunks feed a batch predicate or the batch
        hash-join probe scan this way; without a predicate (a batch join's
        driving scan) every chunk survives whole.
        """
        level = self.levels[0]
        predicate = self.vector_filter
        for block, cols in level.table.column_chunks(storage.CHUNK_ROWS):
            scanned = len(block)
            if predicate is None:
                survivors: List[Tuple[Any, ...]] = block
            else:
                try:
                    sel = predicate(cols, scanned, ctx)
                except Exception:  # lint: allow-broad-except
                    # The batch predicate is pure, so the row filters can
                    # replay the chunk and raise the row error.
                    survivors = filter_rows(
                        block, level.filters, ctx, level.offset,
                        level.end, self.layout.width,
                    )
                else:
                    survivors = (
                        block if sel is None else [block[i] for i in sel]
                    )
            yield survivors, scanned

    def _batch_join(self, ctx: ExecContext, append):
        """Batch hash-join probing of pre-filtered driving chunks.

        The two-level scan→hash-join shape (:attr:`vector_join_key` set):
        returns a closure over one chunk of surviving driving rows that
        evaluates the probe keys column-at-a-time, probes the shared hash
        table once per key and appends the joined rows (built by tuple
        concatenation) — replacing one key-closure call, one dict probe and
        one slice-splice per outer row.  Work accounting matches the row
        path exactly: one ``hash_probes`` per surviving outer row, every
        iterated candidate charged to ``rows_scanned``, the hash table built
        lazily on the first surviving row, and residual probe-level filters
        applied per joined row with the row path's own closures (in
        candidate order).
        """
        stats = ctx.stats
        level = self.levels[1]
        filters = level.filters
        d_offset, d_end = self.levels[0].offset, self.levels[0].end
        driving_first = d_offset == 0
        kkind, kfn = self.vector_join_key[0], self.vector_join_key[1]
        needed = self.vector_join_key[2] if kkind == "vec" else ()
        d_width = d_end - d_offset

        def join_chunk(survivors) -> None:
            if not survivors:
                return
            hash_tables = ctx.hash_tables
            hash_table = None if hash_tables is None else hash_tables.get(1)
            if hash_table is None:
                hash_table = _build_hash_table(
                    level.table, level.access.col_index, ctx, 1
                )
            n = len(survivors)
            if kkind == "const":
                keys: Any = [kfn(ctx)] * n
            else:
                cols = gather_columns(survivors, needed, d_width)
                keys = kfn(cols, n, ctx)
            stats.hash_probes += n
            get = hash_table.get
            probed = 0
            for srow, key in zip(survivors, keys):
                if key is None or key != key:
                    continue  # matches_nothing(key), inlined per row
                candidates = get(key, ())
                if not candidates:
                    continue
                probed += len(candidates)
                if filters:
                    for candidate in candidates:
                        joined = (
                            srow + candidate if driving_first
                            else candidate + srow
                        )
                        for predicate in filters:
                            if not predicate(joined, ctx):
                                break
                        else:
                            append(joined)
                elif driving_first:
                    for candidate in candidates:
                        append(srow + candidate)
                else:
                    for candidate in candidates:
                        append(candidate + srow)
            stats.rows_scanned += probed

        return join_chunk

    def _aggregate(
        self, rows: List[Tuple[Any, ...]], ctx: ExecContext
    ) -> List[Tuple[Any, ...]]:
        key_fns = self.group_key_fns
        having = self.having_fn
        item_fns = self.item_group_fns
        if not key_fns:
            # Ungrouped: every row forms the one group, folded directly.
            if having is not None and not _is_true(having(rows, ctx)):
                return []
            return [tuple(fn(rows, ctx) for fn in item_fns)]
        groups: Dict[Tuple[Any, ...], List[Tuple[Any, ...]]] = {}
        order: List[Tuple[Any, ...]] = []
        for row in rows:
            key = tuple(_hashable(fn(row, ctx)) for fn in key_fns)
            group = groups.get(key)
            if group is None:
                groups[key] = group = []
                order.append(key)
            group.append(row)
        result: List[Tuple[Any, ...]] = []
        for key in order:
            group = groups[key]
            if having is not None and not _is_true(having(group, ctx)):
                continue
            result.append(tuple(fn(group, ctx) for fn in item_fns))
        return result

    def _order(
        self,
        rows: List[Tuple[Any, ...]],
        result_rows: List[Tuple[Any, ...]],
        ctx: ExecContext,
        top_k: Optional[int] = None,
    ) -> List[Tuple[Any, ...]]:
        spec = self.order_spec

        def key_for(position: int) -> Tuple[_SortKey, ...]:
            keys = []
            for kind, payload, ascending in spec:
                if kind == "col":
                    value = result_rows[position][payload]
                else:
                    value = payload(rows[position], ctx)
                keys.append(_SortKey(value, ascending))
            return tuple(keys)

        if top_k is not None:
            # Bounded heap: ``nsmallest`` is stable (it decorates each
            # element with its input position) and evaluates ``key_for``
            # once per element in input order, so rows, NULL placement and
            # any key-side counter effects are byte-identical to
            # ``sorted(...)[:k]``.
            positions = nsmallest(top_k, range(len(result_rows)), key=key_for)
        else:
            positions = sorted(range(len(result_rows)), key=key_for)
        return [result_rows[p] for p in positions]


#: One join level's loop: ``loop(row, ctx, out)`` (see :func:`_level_loops`).
LevelLoop = Callable[
    [Optional[List[Any]], ExecContext, List[Tuple[Any, ...]]], None
]


def _level_loops(levels: Sequence[_Level]) -> Tuple[LevelLoop, ...]:
    """The enumeration chain of one plan: one loop per join level.

    ``loops[i](row, ctx, out)`` opens level ``i``'s access path for the
    outer levels bound in the slot row ``row``, binds each candidate that
    passes the level's filters into ``row`` and calls ``loops[i + 1]`` —
    or, at the last level, appends the joined row to ``out``.  The
    execution's state travels as arguments, so each loop holds only its
    level and the next loop: the chain is built once per plan, and no loop
    refers to itself, so an execution leaves nothing for the cyclic
    garbage collector.
    """
    loops: List[LevelLoop] = []
    descend: Optional[LevelLoop] = None
    for index in range(len(levels) - 1, -1, -1):
        descend = _level_loop(levels[index], index, descend, len(levels) == 1)
        loops.append(descend)
    loops.reverse()
    return tuple(loops)


def _level_loop(
    level: _Level, index: int, descend: Optional[LevelLoop], whole: bool
) -> LevelLoop:
    """Level ``index``'s loop; ``descend`` is the next level's (``None``
    at the last level).  ``whole`` marks a single-level plan, whose
    candidate IS its full slot row: filters read it directly and survivors
    append wholesale, skipping the slot-row splice and copy."""
    open_level = level.access.open
    offset, end = level.offset, level.end

    def loop(row, ctx, out):
        if ctx.opens is not None:
            ctx.opens[index] += 1
        candidates, filters = open_level(level, index, row, ctx)
        append = out.append
        scanned = 0
        if whole:
            if filters:
                for candidate in candidates:
                    scanned += 1
                    for predicate in filters:
                        if not predicate(candidate, ctx):
                            break
                    else:
                        append(candidate)
            else:
                before = len(out)
                out.extend(candidates)
                scanned = len(out) - before
        else:
            for candidate in candidates:
                scanned += 1
                row[offset:end] = candidate
                for predicate in filters:
                    if not predicate(row, ctx):
                        break
                else:
                    if descend is None:
                        append(tuple(row))
                    else:
                        descend(row, ctx, out)
        ctx.stats.rows_scanned += scanned

    return loop


def filter_rows(
    candidates: Sequence[Tuple[Any, ...]],
    filters: Sequence[RowFn],
    ctx: ExecContext,
    offset: int,
    end: int,
    width: int,
) -> List[Tuple[Any, ...]]:
    """The stored rows of one driving level that pass all its row filters.

    Row by row and conjunct by conjunct, in order — the row engine's
    evaluation order, so a filter that raises raises the row engine's error
    at its row.  Each candidate fills slots ``[offset, end)`` of a slot row
    ``width`` wide.  The vectorized scan replays a raising chunk through it.
    """
    survivors: List[Tuple[Any, ...]] = []
    keep = survivors.append
    row: List[Any] = [None] * width
    for candidate in candidates:
        row[offset:end] = candidate
        for predicate in filters:
            if not predicate(row, ctx):
                break
        else:
            keep(candidate)
    return survivors


def _build_hash_table(
    table: Table, col_index: int, ctx: ExecContext, index: int
) -> Dict[Any, List[Tuple[Any, ...]]]:
    """Build join level ``index``'s hash table from a scan of ``table`` and
    keep it in ``ctx.hash_tables`` for the rest of the execution (the
    execution's first build creates that dict).

    Storage-order build keeps every bucket's candidate list in the exact
    order a full scan would produce.
    """
    hash_table: Dict[Any, List[Tuple[Any, ...]]] = {}
    built = 0
    for stored in table.live():
        built += 1
        value = stored[col_index]
        if value is not None:
            hash_table.setdefault(value, []).append(stored)
    ctx.stats.rows_scanned += built
    if ctx.hash_tables is None:
        ctx.hash_tables = {}
    ctx.hash_tables[index] = hash_table
    return hash_table


def _descending_positions(run: List[Tuple[Any, int]]) -> Iterator[int]:
    """The positions of a sorted ``(value, position)`` run, values
    descending, each block of equal values in forward storage order (what a
    stable descending sort yields)."""
    j = len(run)
    while j:
        value = run[j - 1][0]
        i = j - 1
        while i and run[i - 1][0] == value:
            i -= 1
        for k in range(i, j):
            yield run[k][1]
        j = i


# --------------------------------------------------------------------------- #
# planning
# --------------------------------------------------------------------------- #


def plan_select(statement: SelectStatement, tables: Dict[str, Table]) -> QueryPlan:
    """Plan (and compile) one SELECT statement against a table catalog."""
    return _plan_select(statement, tables, None)


def subquery_planner(
    tables: Dict[str, Table], analysis: Optional[Analysis]
) -> Tuple[SubqueryPlanner, Dict[int, QueryPlan]]:
    """One statement's subquery-plan memo and the callback that fills it.

    The callback plans a scalar subquery's SELECT node on its first request,
    with the analysis ``analysis`` keeps for that node, and returns the same
    plan on every later request.  The memo maps ``id()`` of the SELECT node
    to its plan, so a node referenced from several compiled expressions (an
    index probe's key and its stale-index fallback), EXPLAIN and the plan
    cache's dependencies all see one plan.  A scalar subquery must return
    exactly one column: any other raises :class:`SemanticError` here, before
    any row, on every engine.
    """
    plans: Dict[int, QueryPlan] = {}
    handed = analysis.subqueries if analysis is not None else {}

    def plan_subquery(select: SelectStatement) -> QueryPlan:
        plan = plans.get(id(select))
        if plan is None:
            plan = _plan_select(select, tables, handed.get(id(select)))
            if len(plan.columns) != 1:
                raise SemanticError(
                    f"scalar subquery must return exactly one column, got "
                    f"{len(plan.columns)}"
                )
            plans[id(select)] = plan
        return plan

    return plan_subquery, plans


def _plan_select(
    statement: SelectStatement,
    tables: Dict[str, Table],
    analysis: Optional[Analysis],
) -> QueryPlan:
    bindings = select_bindings(statement, tables)
    layout = SlotLayout(bindings)
    # Static semantic analysis: typed rejection before any compilation, then
    # the folded/pruned conjunct rewrite feeds planning.  A subquery's
    # analysis was made with its parent's and arrives as ``analysis``.
    # Cached implicitly: the analysis lives and dies with the plan (same
    # plan cache, same per-table schema-epoch invalidation).
    if analysis is None:
        analysis = analyze_select(statement, tables)
    if analysis.errors:
        raise analysis.errors[0]
    # ``select_bindings`` succeeded, so the analysis built the same scope
    # and its conjunct list is set.
    conjuncts = analysis.conjuncts
    contradiction = analysis.contradiction
    analysis_report = analysis.report
    intervals = analysis.intervals
    plan_subquery = subquery_planner(tables, analysis)[0]
    required = {
        id(conjunct): required_bindings(conjunct, bindings)
        for conjunct in conjuncts
    }
    levels = _plan_levels(
        bindings, conjuncts, required, layout, plan_subquery, intervals
    )
    columns = output_columns(statement, bindings)

    # Vectorized drive mode: decided here, once, behind the access-path seam.
    # Eligible iff the driving level is a plain table scan and every one
    # of its residual filters batch-compiles (no subqueries, no references
    # outside the driving binding).  Everything else — and the inner join
    # levels always — keeps the row-at-a-time loops.  An eligible driving
    # scan reads columnar chunks only for a batch predicate or the batch
    # join probe below; without either it streams the table's rows.
    vector_eligible = False
    vector_filter = None
    report: Dict[str, str] = {}
    if not levels or type(levels[0].access) is not TableScan:
        kind = levels[0].access.kind if levels else "none"
        report["scan"] = f"row-at-a-time (driving access is {kind})"
    else:
        driving = levels[0]
        if not driving.filter_exprs:
            vector_eligible = True
        else:
            vector_filter = compile_batch_predicate(
                driving.filter_exprs, layout, driving.offset, driving.end
            )
            vector_eligible = vector_filter is not None
        if vector_filter is not None:
            report["scan"] = "vectorized (columnar chunks)"
        elif vector_eligible:
            report["scan"] = "row stream (no driving filter)"
        else:
            report["scan"] = (
                "row-at-a-time (driving filters do not batch-compile)"
            )

    # Batch hash-join probing: the two-level scan→hash-join shape with a
    # batch-compilable probe key.  Deeper plans keep the recursive row loop.
    vector_join_key = None
    if len(levels) < 2:
        report["join-probe"] = "n/a (no join levels)"
    elif type(levels[1].access) is not HashJoinBuild:
        report["join-probe"] = (
            f"row-at-a-time (inner access is {levels[1].access.kind})"
        )
    elif len(levels) > 2:
        report["join-probe"] = "row-at-a-time (more than two join levels)"
    elif not vector_eligible:
        report["join-probe"] = "row-at-a-time (driving scan is row-at-a-time)"
    else:
        vector_join_key = compile_batch_expr(
            levels[1].key_ast, layout, levels[0].offset, levels[0].end
        )
        if vector_join_key is not None:
            report["join-probe"] = "vectorized (batch probe)"
            report["scan"] = "vectorized (columnar chunks)"
        else:
            report["join-probe"] = (
                "row-at-a-time (probe key does not batch-compile)"
            )

    vector_aggregate = None
    if statement.is_aggregate_query:
        group_key_fns = [
            compile_row_expr(expr, layout, plan_subquery)
            for expr in statement.group_by
        ]
        having_fn = (
            compile_group_expr(statement.having, layout, plan_subquery)
            if statement.having is not None
            else None
        )
        item_group_fns = [
            compile_group_expr(item.expr, layout, plan_subquery)
            for item in statement.items
        ]
        projector = None
        identity = False
        slot_projector = None
        report["projection"] = "n/a (aggregate query)"
        if not vector_eligible:
            report["aggregate"] = (
                "row-at-a-time (driving scan is row-at-a-time)"
            )
        else:
            vector_aggregate = compile_batch_aggregate(
                statement, layout, item_group_fns, having_fn
            )
            report["aggregate"] = (
                "vectorized (per-group column folds)"
                if vector_aggregate is not None
                else "row-at-a-time (group keys or aggregate arguments do "
                     "not batch-compile)"
            )
    else:
        group_key_fns = None
        having_fn = None
        item_group_fns = None
        projector, slot_projector, identity, projection_slots = (
            _compile_projection(statement, layout, plan_subquery)
        )
        report["aggregate"] = "n/a (not an aggregate query)"
        if identity:
            report["projection"] = "identity (rows pass through on every path)"
        elif slot_projector is not None:
            report["projection"] = (
                "slot projection (one itemgetter on every path)"
            )
        else:
            report["projection"] = (
                "expression list (row-at-a-time on every path)"
            )

    order_spec = _compile_order(statement, columns, layout, plan_subquery)

    # ORDER BY + LIMIT pushdown eligibility: single-level non-aggregate
    # scan plan whose lone sort key is (an output projection of) an
    # ordered-indexed column of the driving table.  Output columns shadow
    # source columns in _compile_order, so the source column is recovered
    # through the compiled spec — never by re-resolving the name directly.
    index_order: Optional[Tuple[str, bool]] = None
    if (
        len(order_spec) == 1
        and statement.limit is not None
        and not statement.distinct
        and not statement.is_aggregate_query
        and len(levels) == 1
        and type(levels[0].access) is TableScan
    ):
        order_kind, payload, ascending = order_spec[0]
        slot: Optional[int] = None
        if order_kind == "col":
            # resolve_order_by guarantees an index inside the select list.
            if projection_slots is not None:
                slot = projection_slots[payload]
        elif isinstance(statement.order_by[0].expr, ColumnRef):
            try:
                slot = layout.resolve(statement.order_by[0].expr)
            except Exception:  # lint: allow-broad-except
                slot = None
        if slot is not None:
            driving = levels[0]
            if driving.offset <= slot < driving.end:
                sort_column = driving.table.schema.columns[
                    slot - driving.offset
                ].name.lower()
                if driving.table.ordered_index_for(sort_column) is not None:
                    index_order = (sort_column, ascending)

    if not order_spec:
        report["top-k"] = "n/a (no ORDER BY)"
    elif statement.limit is None:
        report["top-k"] = "full sort (no LIMIT)"
    elif statement.distinct:
        report["top-k"] = "full sort (DISTINCT dedups after ordering)"
    elif index_order is not None:
        report["top-k"] = (
            f"index-order walk (ordered index on {index_order[0]})"
        )
    elif not vector_eligible:
        report["top-k"] = "full sort (driving scan is row-at-a-time)"
    else:
        report["top-k"] = "vectorized (bounded heap)"

    # A direct subquery that no expression compiled (an ORDER BY matching an
    # aggregate output column) is still planned here, once, for EXPLAIN.
    subquery_plans = [
        plan_subquery(subselect) for subselect in _direct_subselects(statement)
    ]
    table_deps = {table.name.lower() for _binding, table in bindings}
    for subplan in subquery_plans:
        table_deps |= subplan.table_deps
    return QueryPlan(
        statement=statement,
        layout=layout,
        levels=levels,
        columns=columns,
        projector=projector,
        identity_projection=identity,
        group_key_fns=group_key_fns,
        having_fn=having_fn,
        item_group_fns=item_group_fns,
        order_spec=order_spec,
        distinct=statement.distinct,
        limit=statement.limit,
        offset=statement.offset,
        table_deps=table_deps,
        subquery_plans=subquery_plans,
        follows_syntactic_order=(
            [level.binding for level in levels]
            == [binding for binding, _table in bindings]
        ),
        vector_eligible=vector_eligible,
        vector_filter=vector_filter,
        slot_projector=slot_projector,
        vector_aggregate=vector_aggregate,
        vector_join_key=vector_join_key,
        vector_report=report,
        contradiction=contradiction,
        analysis_report=analysis_report,
        index_order=index_order,
    )


# -- table dependencies ------------------------------------------------------ #


def _direct_subselects(select: SelectStatement) -> List[SelectStatement]:
    """Scalar subqueries appearing directly in one SELECT's clauses, in
    clause order: the subqueries this plan's :attr:`QueryPlan.table_deps`
    (and hence per-table plan-cache invalidation) must cover."""
    return [
        node.select
        for expr in clause_exprs(select)
        for node in walk(expr)
        if isinstance(node, ScalarSubquery)
    ]


# -- cardinality estimation -------------------------------------------------- #

#: Assumed selectivity of an equality filter on a column with no index (and
#: of a hash-join probe, whose build side has no distinct-key statistics).
_EQ_SELECTIVITY = 0.1
#: Assumed selectivity of a range comparison.
_RANGE_SELECTIVITY = 1 / 3
#: Assumed selectivity of IS [NOT] NULL and other unmodelled predicates.
_OTHER_SELECTIVITY = 0.5


def _filter_selectivity(predicate: SqlExpr) -> float:
    if isinstance(predicate, BinaryOperation):
        op = predicate.op
        if op is BinaryOperator.EQ:
            return _EQ_SELECTIVITY
        if op in (
            BinaryOperator.LT,
            BinaryOperator.LE,
            BinaryOperator.GT,
            BinaryOperator.GE,
        ):
            return _RANGE_SELECTIVITY
        if op is BinaryOperator.NE:
            return 1.0 - _EQ_SELECTIVITY
    if isinstance(predicate, InList):
        return min(1.0, _EQ_SELECTIVITY * max(len(predicate.items), 1))
    if isinstance(predicate, IsNull):
        return _OTHER_SELECTIVITY
    return _OTHER_SELECTIVITY


def _probe_estimate(
    statistics: TableStatistics, column: str, indexed: bool
) -> float:
    """Expected matches of one equality probe, from maintained statistics."""
    rows = statistics.row_count
    if indexed:
        distinct = statistics.distinct_for(column)
        if distinct:
            return rows / distinct
        return 0.0 if rows == 0 else float(rows)
    return rows * _EQ_SELECTIVITY


def _interval_exprs(
    binding: str, intervals: Dict[Tuple[str, str], RangeInterval]
) -> Dict[int, Tuple[str, RangeInterval]]:
    """Map ``id(conjunct) → (column, interval)`` for one binding's plan-time
    literal range intervals (see :attr:`~repro.relalg.semantics.Analysis.\
intervals`)."""
    index: Dict[int, Tuple[str, RangeInterval]] = {}
    for (bound_to, column), interval in intervals.items():
        if bound_to != binding:
            continue
        for expr in (interval.lo_expr, interval.hi_expr):
            if expr is not None:
                index[id(expr)] = (column, interval)
    return index


def _interval_fraction(
    statistics: Optional[TableStatistics], column: str, interval: RangeInterval
) -> float:
    """Selectivity of one literal range interval, histogram-backed when the
    column maintains one (ordered indexes over numeric columns)."""
    histogram = statistics.histogram_for(column) if statistics else None
    if histogram is not None:
        try:
            return histogram.estimate_fraction(interval.lo, interval.hi)
        except TypeError:
            pass
    return _RANGE_SELECTIVITY


def _range_probe_estimate(
    statistics: TableStatistics, column: str, interval: Optional[RangeInterval]
) -> float:
    """Expected matches of one ordered-index range probe."""
    rows = statistics.row_count
    if interval is not None:
        histogram = statistics.histogram_for(column)
        if histogram is not None:
            try:
                return histogram.estimate_rows(interval.lo, interval.hi)
            except TypeError:
                pass
    return rows * _RANGE_SELECTIVITY


def _residual_selectivity(
    applicable: List[SqlExpr],
    used: Sequence[SqlExpr],
    interval_exprs: Dict[int, Tuple[str, RangeInterval]],
    statistics: TableStatistics,
) -> float:
    """Combined selectivity of a level's residual filters.

    ``used`` lists the conjuncts the access path is costed as consuming.
    Range conjuncts the semantic analysis folded into one plan-time
    interval are costed *once per interval* — via the column's equi-width
    histogram when one is maintained, the fixed range selectivity otherwise
    — instead of multiplying each bound's selectivity independently
    (``x > 3 AND x < 9`` is one interval, not two independent coin flips).
    """
    used_ids = {id(p) for p in used}
    selectivity = 1.0
    counted: Set[int] = set()
    for predicate in applicable:
        if id(predicate) in used_ids:
            continue
        hit = interval_exprs.get(id(predicate))
        if hit is not None:
            column, interval = hit
            if id(interval) in counted:
                continue
            counted.add(id(interval))
            selectivity *= _interval_fraction(statistics, column, interval)
            continue
        selectivity *= _filter_selectivity(predicate)
    return selectivity


# -- join ordering and access-path selection -------------------------------- #


def _probe_candidates(
    table: Table,
    binding: str,
    predicates: List[SqlExpr],
    already_bound: Set[str],
    bindings: List[Tuple[str, Table]],
    indexed: bool,
) -> Iterator[Tuple[str, SqlExpr, SqlExpr]]:
    """The equality conjuncts usable as a probe on ``table``, in order.

    ``indexed=True`` looks for index probes (the interpreted engine takes
    the same ones, through :func:`_probe_keys`); ``indexed=False`` looks for
    hash-join probes: an *unindexed* column equated with an expression over
    at least one already-bound binding (a constant equality stays a plain
    filter — hashing a whole table to probe it with one constant would only
    reshuffle work).

    Yields ``(column_name, key_expression, predicate)``, at most once per
    predicate.
    """
    for predicate in predicates:
        if not (
            isinstance(predicate, BinaryOperation)
            and predicate.op is BinaryOperator.EQ
        ):
            continue
        for this, other in (
            (predicate.left, predicate.right),
            (predicate.right, predicate.left),
        ):
            if not isinstance(this, ColumnRef):
                continue
            if binding not in required_bindings(this, bindings):
                continue
            has_index = table.index_for(this.name) is not None
            if indexed != has_index:
                continue
            other_required = required_bindings(other, bindings)
            if not other_required <= already_bound:
                continue
            if not indexed and not other_required:
                continue
            yield this.name, other, predicate
            break


def _probe_keys(
    table: Table,
    binding: str,
    predicates: List[SqlExpr],
    already_bound: Set[str],
    bindings: List[Tuple[str, Table]],
) -> List[Tuple[str, SqlExpr, SqlExpr]]:
    """Every ``(column_name, key_expression, predicate)`` one index probe
    consumes, in conjunct order.

    The first is the first of :func:`_probe_candidates`; after it come the
    later equality conjuncts on a *different* indexed column of ``binding``
    whose other side is already bound.  A second conjunct on an already-probed
    column stays a filter.  The interpreted engine calls this function at
    every join level too, so both engines probe (and count) alike.
    """
    keys: List[Tuple[str, SqlExpr, SqlExpr]] = []
    probed: Set[str] = set()
    for column, key_expr, predicate in _probe_candidates(
        table, binding, predicates, already_bound, bindings, indexed=True
    ):
        if column.lower() not in probed:
            probed.add(column.lower())
            keys.append((column, key_expr, predicate))
    return keys


_RANGE_OPERATORS = frozenset(
    (BinaryOperator.LT, BinaryOperator.LE, BinaryOperator.GT, BinaryOperator.GE)
)
#: ``literal op col`` normalised to ``col op literal``.
_FLIPPED_RANGE = {
    BinaryOperator.LT: BinaryOperator.GT,
    BinaryOperator.LE: BinaryOperator.GE,
    BinaryOperator.GT: BinaryOperator.LT,
    BinaryOperator.GE: BinaryOperator.LE,
}


def _range_candidate(
    table: Table,
    binding: str,
    predicates: List[SqlExpr],
    already_bound: Set[str],
    bindings: List[Tuple[str, Table]],
) -> Optional[Tuple[str, Optional[SqlExpr], bool, Optional[SqlExpr], bool,
                    List[SqlExpr]]]:
    """First sargable range-conjunct group usable as an ordered-index probe.

    For the first ordered-indexed column of ``table`` with at least one
    sargable range conjunct (``col < expr``, ``expr >= col``, … — the bound
    expression computable from already-bound levels and subquery-free, so
    subquery execution counts stay per-row like the reference engine),
    collects one lower and one upper bound; any further range conjuncts on
    the column stay residual filters.

    Returns ``(column, lo_expr, lo_inclusive, hi_expr, hi_inclusive,
    consumed conjuncts)`` or ``None``.
    """
    if not any(index.ordered for index in table.indexes.values()):
        return None
    found: Dict[str, List[Tuple[BinaryOperator, SqlExpr, SqlExpr]]] = {}
    order: List[str] = []
    for predicate in predicates:
        if not (
            isinstance(predicate, BinaryOperation)
            and predicate.op in _RANGE_OPERATORS
        ):
            continue
        for this, other, op in (
            (predicate.left, predicate.right, predicate.op),
            (predicate.right, predicate.left, _FLIPPED_RANGE[predicate.op]),
        ):
            if not isinstance(this, ColumnRef):
                continue
            if binding not in required_bindings(this, bindings):
                continue
            column = this.name.lower()
            if table.ordered_index_for(column) is None:
                continue
            if any(isinstance(node, ScalarSubquery) for node in walk(other)):
                continue
            if not required_bindings(other, bindings) <= already_bound:
                continue
            if column not in found:
                found[column] = []
                order.append(column)
            found[column].append((op, other, predicate))
            break
    for column in order:
        lo: Optional[SqlExpr] = None
        hi: Optional[SqlExpr] = None
        lo_incl = hi_incl = True
        used: List[SqlExpr] = []
        for op, other, predicate in found[column]:
            if op in (BinaryOperator.GT, BinaryOperator.GE) and lo is None:
                lo = other
                lo_incl = op is BinaryOperator.GE
                used.append(predicate)
            elif op in (BinaryOperator.LT, BinaryOperator.LE) and hi is None:
                hi = other
                hi_incl = op is BinaryOperator.LE
                used.append(predicate)
        if used:
            return column, lo, lo_incl, hi, hi_incl, used
    return None


#: Access tiers of a join level, in the order the join-order rule prefers
#: them: a level that can probe is bound before one that must scan.
_INDEX_PROBE, _RANGE_PROBE, _HASH_JOIN, _FILTERED_SCAN, _BARE_SCAN = range(5)


def _access_analysis(
    table: Table,
    binding: str,
    applicable: List[SqlExpr],
    bound: Set[str],
    bindings: List[Tuple[str, Table]],
    statistics: TableStatistics,
    interval_exprs: Dict[int, Tuple[str, RangeInterval]],
    intervals: Dict[Tuple[str, str], RangeInterval],
) -> Tuple[int, float, List[SqlExpr], Any]:
    """The access path ``binding`` takes if it is bound after ``bound``.

    Returns ``(tier, estimate, consumed, inputs)``: the best tier open to
    the binding, its estimated rows per outer row, the conjuncts the access
    path consumes and what builds it — the ``(column, key expression,
    conjunct)`` triples of :func:`_probe_keys` (index probe), the
    ``(column, lo, lo_incl, hi, hi_incl)`` bounds of :func:`_range_candidate`
    (range probe), ``(column, key expression)`` (hash join) or ``None``
    (scans).
    """
    probe_keys = _probe_keys(table, binding, applicable, bound, bindings)
    if probe_keys:
        # Costed as the first key's probe, the later keys as the residual
        # filters they were before the probe consumed them: the join order
        # and EXPLAIN's estimates stay what they were.
        column, _key_expr, used = probe_keys[0]
        estimate = _probe_estimate(
            statistics, column, indexed=True
        ) * _residual_selectivity(
            applicable, [used], interval_exprs, statistics
        )
        consumed = [used for _column, _key_expr, used in probe_keys]
        return _INDEX_PROBE, estimate, consumed, probe_keys
    found = _range_candidate(table, binding, applicable, bound, bindings)
    if found is not None:
        column, lo_expr, lo_incl, hi_expr, hi_incl, consumed = found
        estimate = _range_probe_estimate(
            statistics, column, intervals.get((binding, column))
        ) * _residual_selectivity(
            applicable, consumed, interval_exprs, statistics
        )
        return (
            _RANGE_PROBE, estimate, consumed,
            (column, lo_expr, lo_incl, hi_expr, hi_incl),
        )
    hash_key = next(
        _probe_candidates(
            table, binding, applicable, bound, bindings, indexed=False
        ),
        None,
    )
    if hash_key is not None:
        column, key_expr, used = hash_key
        estimate = _probe_estimate(
            statistics, column, indexed=False
        ) * _residual_selectivity(
            applicable, [used], interval_exprs, statistics
        )
        return _HASH_JOIN, estimate, [used], (column, key_expr)
    estimate = statistics.row_count * _residual_selectivity(
        applicable, (), interval_exprs, statistics
    )
    return (_FILTERED_SCAN if applicable else _BARE_SCAN), estimate, [], None


def _plan_levels(
    bindings: List[Tuple[str, Table]],
    conjuncts: List[SqlExpr],
    required: Dict[int, Set[str]],
    layout: SlotLayout,
    plan_subquery: SubqueryPlanner,
    intervals: Dict[Tuple[str, str], RangeInterval],
) -> List[_Level]:
    """The join levels of one SELECT, in execution order.

    Greedy: every round analyzes each remaining binding once
    (:func:`_access_analysis`) and binds the one with the smallest
    ``(tier, estimate, position)`` key, then builds its level from that
    same analysis.  Tier order is bound-predicate availability (probe kinds
    before plain filters).  Within the three probe tiers the statistics
    pick the cheapest candidate by estimated cardinality — any choice there
    keeps an indexed/hashed access path, so the estimate is the right
    discriminator — and equal estimates keep syntactic order.  The scan
    tiers count every estimate as 0 and so deliberately keep syntactic
    order: reordering scans by output estimate ignores the scan/build cost
    it forces on the level itself, and it would break the physical-counter
    contract with the reference engine (whose nested loops always follow
    syntactic order) on the A1 ablation workloads.
    """
    remaining = list(bindings)
    pending = list(conjuncts)
    bound: Set[str] = set()
    levels: List[_Level] = []
    statistics: Dict[str, TableStatistics] = {
        binding: table.statistics() for binding, table in bindings
    }
    interval_index: Dict[str, Dict[int, Tuple[str, RangeInterval]]] = {
        binding: _interval_exprs(binding, intervals)
        for binding, _table in bindings
    }

    while remaining:
        candidates = []
        for position, (binding, table) in enumerate(remaining):
            visible = bound | {binding}
            applicable = [p for p in pending if required[id(p)] <= visible]
            analysis = _access_analysis(
                table, binding, applicable, bound, bindings,
                statistics[binding], interval_index[binding], intervals,
            )
            tier, estimate = analysis[0], analysis[1]
            rank = (tier, estimate if tier <= _HASH_JOIN else 0.0, position)
            candidates.append((rank, applicable, analysis))
        rank, applicable, analysis = min(candidates, key=itemgetter(0))
        binding, table = remaining.pop(rank[2])
        bound.add(binding)
        # Partition by identity, not structural equality: duplicate conjuncts
        # (e.g. ``WHERE a = 1 AND a = 1``) are distinct nodes and each must be
        # filed exactly once.
        applied_ids = {id(p) for p in applicable}
        pending = [p for p in pending if id(p) not in applied_ids]

        tier, estimate, consumed, inputs = analysis
        access: AccessPath = _SCAN
        key_ast: Optional[SqlExpr] = None
        if tier == _INDEX_PROBE:
            access = IndexProbe(
                [
                    (column.lower(),
                     compile_row_expr(key_expr, layout, plan_subquery))
                    for column, key_expr, _used in inputs
                ],
                table=table,
            )
        elif tier == _RANGE_PROBE:
            column, lo_expr, lo_incl, hi_expr, hi_incl = inputs
            access = RangeProbe(
                column,
                (
                    compile_row_expr(lo_expr, layout, plan_subquery)
                    if lo_expr is not None else None
                ),
                lo_incl,
                (
                    compile_row_expr(hi_expr, layout, plan_subquery)
                    if hi_expr is not None else None
                ),
                hi_incl,
            )
        elif tier == _HASH_JOIN:
            column, key_ast = inputs
            access = HashJoinBuild(
                table.schema.column_index(column),
                compile_row_expr(key_ast, layout, plan_subquery),
            )

        conjunct_fns = [
            compile_row_expr(p, layout, plan_subquery) for p in applicable
        ]
        consumed_ids = {id(p) for p in consumed}
        residual = [
            position for position, p in enumerate(applicable)
            if id(p) not in consumed_ids
        ]
        offset, end = layout.range_of(binding)
        levels.append(
            _Level(
                binding=binding,
                table=table,
                offset=offset,
                end=end,
                access=access,
                filters=[conjunct_fns[position] for position in residual],
                estimate=estimate,
                filter_exprs=[applicable[position] for position in residual],
                key_ast=key_ast,
                fallback_filters=conjunct_fns,
            )
        )

    if pending:
        # Conjuncts referencing unknown bindings: compiling reports the error
        # with the interpreter's message.
        for predicate in pending:
            compile_row_expr(predicate, layout, plan_subquery)
    return levels


# -- projection / ordering --------------------------------------------------- #


def _compile_projection(
    statement: SelectStatement,
    layout: SlotLayout,
    plan_subquery: SubqueryPlanner,
) -> Tuple[Optional[Callable], Optional[Callable], bool, Optional[List[int]]]:
    """Compile the select list: ``(projector, slot_projector, identity,
    slots)``.

    A slot-addressed select list (``*`` expansions and plain column
    references) compiles into one ``row -> tuple`` slot projector, a
    C-level ``itemgetter``, and ``slots`` is its flat slot list; ``identity``
    marks the ``SELECT *`` over the full slot row, which needs neither.  Any
    other list compiles into a ``(row, ctx) -> tuple`` projector, and a
    one-item list returns its value without the generic parts loop.
    """
    parts: List[Tuple[str, Any]] = []
    for item in statement.items:
        if isinstance(item.expr, Star):
            slots: List[int] = []
            for binding, _table in layout.bindings:
                if item.expr.table is not None and (
                    item.expr.table.lower() != binding
                ):
                    continue
                offset, end = layout.range_of(binding)
                slots.extend(range(offset, end))
            parts.append(("slots", slots))
        elif isinstance(item.expr, ColumnRef):
            parts.append(("slots", [layout.resolve(item.expr)]))
        else:
            parts.append(
                ("fn", compile_row_expr(item.expr, layout, plan_subquery))
            )

    if (
        len(parts) == 1
        and parts[0][0] == "slots"
        and parts[0][1] == list(range(layout.width))
    ):
        return None, None, True, list(range(layout.width))

    if all(kind == "slots" for kind, _ in parts):
        slots = [slot for _, payload in parts for slot in payload]
        if len(slots) > 1:
            return None, itemgetter(*slots), False, slots
        slot = slots[0]
        return None, (lambda row: (row[slot],)), False, slots

    if len(parts) == 1:
        item = parts[0][1]
        return (lambda row, ctx: (item(row, ctx),)), None, False, None

    def project(row: Tuple[Any, ...], ctx: ExecContext) -> Tuple[Any, ...]:
        values: List[Any] = []
        for kind, payload in parts:
            if kind == "slots":
                values.extend(row[s] for s in payload)
            else:
                values.append(payload(row, ctx))
        return tuple(values)

    return project, None, False, None


def _compile_order(
    statement: SelectStatement,
    columns: List[str],
    layout: SlotLayout,
    plan_subquery: SubqueryPlanner,
) -> List[Tuple[str, Any, bool]]:
    """Compile ORDER BY items: output-column positions or source-row closures."""
    return [
        ("col", index, ascending) if index is not None
        else ("expr", compile_row_expr(expr, layout, plan_subquery), ascending)
        for index, expr, ascending in resolve_order_by(statement, columns)
    ]
