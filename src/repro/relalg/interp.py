"""The reference (interpreted) SELECT executor.

This is the engine the repository seeded with: it re-walks the SQL AST for
every row — :meth:`_eval` dispatches on node type per predicate per row over
dict environments, the required-bindings sets are recomputed at every join
level and joins are nested loops in syntactic order with at best an index
probe per level.

It runs only statements the planner accepted: ``Database`` plans every
SELECT through its plan cache before it branches on the engine, so every
plan-time error — in the statement, its ORDER BY and GROUP BY, and every
scalar subquery — raises from the planner, before any row, on every engine.
What shapes a statement is not its own either: the FROM scope, the ON/WHERE
conjunct list, the bindings a conjunct needs and the output column names
come from :mod:`repro.relalg.semantics`, and a level's index probe is the
planner's (``planner._probe_keys``: every indexed equality conjunct of the
level, their buckets intersected), so both engines probe and count alike by
construction.  Its own are the row walk: the per-row evaluation and its
runtime errors, the value lookup of a column in a row environment, the
nested loops, the grouping, the sort and the counters.

It is kept, unchanged in semantics, for two reasons:

* **differential testing** — the plan-driven engine
  (:mod:`repro.relalg.planner` / :mod:`repro.relalg.compile`) must produce
  identical results, and identical :class:`~repro.relalg.rowset.QueryStats`
  on the index-probe paths the A1 ablation measures;
* **benchmarking** — ``benchmarks/run_bench.py`` reports the compiled
  engine's speedup over this baseline (``Database(engine="interpreted")``
  routes SELECTs here).

One bug of the seed is fixed in both engines: pending predicates are
partitioned by node *identity* rather than structural equality, so duplicate
conjuncts (``WHERE a = 1 AND a = 1``) are each filed exactly once.  And the
probe rule changed once: a level's index probe takes every indexed equality
conjunct, evaluates each key once per probe and lets its errors raise — the
seed skipped a probe whose key raised, and so returned ``[]`` on an empty
table where the compiled engine raised.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.relalg.compile import (
    _SCALAR_FUNCTIONS,
    _apply_binop,
    _apply_fold,
    _apply_function,
    _negate,
)
from repro.relalg.errors import ExecutionError
from repro.relalg.planner import _probe_keys
from repro.relalg.semantics import (
    output_columns,
    required_bindings,
    resolve_order_by,
    select_bindings,
    select_conjuncts,
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
    FunctionExpr,
    InList,
    IsNull,
    Literal,
    Placeholder,
    ScalarSubquery,
    SelectStatement,
    SqlExpr,
    Star,
    UnaryOperation,
)
from repro.relalg.storage import Table

__all__ = ["InterpretedSelectExecutor"]

#: A row environment: table binding name → column name (lower case) → value.
RowEnv = Dict[str, Dict[str, Any]]


class _Missing:
    """Marker for 'column not found' distinct from NULL."""


_MISSING = _Missing()


class InterpretedSelectExecutor:
    """Executes SELECT statements by walking the AST per row (reference)."""

    def __init__(
        self,
        tables: Dict[str, Table],
        params: Sequence[Any] = (),
        stats: Optional[QueryStats] = None,
    ) -> None:
        self.tables = tables
        self.params = list(params)
        self.stats = stats or QueryStats()

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def execute(self, statement: SelectStatement) -> ResultSet:
        """Run a statement the planner accepted and return the materialised
        result."""
        bindings = select_bindings(statement, self.tables)
        columns = output_columns(statement, bindings)
        order = (
            resolve_order_by(statement, columns) if statement.order_by else []
        )
        rows = list(
            self._join_level(bindings, 0, {}, select_conjuncts(statement))
        )

        if statement.is_aggregate_query:
            result_rows = self._aggregate(statement, rows)
        else:
            result_rows = self._project(statement, bindings, rows)

        if order:
            result_rows = self._order(order, rows, result_rows)

        if statement.distinct:
            seen = set()
            unique: List[Tuple[Any, ...]] = []
            for row in result_rows:
                key = tuple(_hashable(v) for v in row)
                if key not in seen:
                    seen.add(key)
                    unique.append(row)
            result_rows = unique

        if statement.limit is not None or statement.offset:
            start = statement.offset or 0
            stop = None if statement.limit is None else start + statement.limit
            result_rows = result_rows[start:stop]

        self.stats.rows_returned += len(result_rows)
        return ResultSet(columns=columns, rows=result_rows, stats=self.stats)

    # ------------------------------------------------------------------ #
    # FROM / WHERE
    # ------------------------------------------------------------------ #

    def _join_level(
        self,
        bindings: List[Tuple[str, Table]],
        level: int,
        env: RowEnv,
        pending: List[SqlExpr],
    ) -> Iterator[RowEnv]:
        """The joined rows of ``bindings[level:]`` under the outer rows bound
        in ``env``; ``pending`` holds the conjuncts not applied yet."""
        if level == len(bindings):
            if all(_is_true(self._eval(p, env)) for p in pending):
                self.stats.rows_joined += 1
                yield env
            return
        binding, table = bindings[level]
        bound = {name for name, _ in bindings[: level + 1]}
        # Predicates that become fully evaluable once this table is bound;
        # partitioned by identity so duplicate conjuncts are each filed
        # exactly once.
        applicable = [
            p for p in pending if required_bindings(p, bindings) <= bound
        ]
        applicable_ids = {id(p) for p in applicable}
        later = [p for p in pending if id(p) not in applicable_ids]
        # Try an index probe driven by the equality predicates: the
        # planner's rule, so both engines probe (and count) alike.
        probe = _probe_keys(
            table, binding, applicable, bound - {binding}, bindings
        )
        if probe:
            # Every key is evaluated once per probe, in conjunct order, and
            # its errors raise; NULL and NaN keys never match, exactly as
            # the scan path's `=` filter decides (every engine shares this
            # rule).
            keys = []
            for column, key_expr, _used in probe:
                keys.append((column, self._eval(key_expr, env)))
                self.stats.index_lookups += 1
            candidates: Iterable[Tuple[Any, ...]] = ()
            if not any(matches_nothing(key) for _column, key in keys):
                candidates = table.probe(keys)
            used_ids = {id(used) for _column, _key_expr, used in probe}
            filters = [p for p in applicable if id(p) not in used_ids]
        else:
            candidates = table.scan()
            filters = applicable
        for row in candidates:
            self.stats.rows_scanned += 1
            row_env = dict(env)
            row_env[binding] = _row_mapping(table, row)
            if all(_is_true(self._eval(p, row_env)) for p in filters):
                yield from self._join_level(bindings, level + 1, row_env, later)

    # ------------------------------------------------------------------ #
    # projection and aggregation
    # ------------------------------------------------------------------ #

    def _project(
        self,
        statement: SelectStatement,
        bindings: List[Tuple[str, Table]],
        rows: List[RowEnv],
    ) -> List[Tuple[Any, ...]]:
        result: List[Tuple[Any, ...]] = []
        for env in rows:
            values: List[Any] = []
            for item in statement.items:
                if isinstance(item.expr, Star):
                    values.extend(self._star_values(item.expr, bindings, env))
                else:
                    values.append(self._eval(item.expr, env))
            result.append(tuple(values))
        return result

    def _aggregate(
        self, statement: SelectStatement, rows: List[RowEnv]
    ) -> List[Tuple[Any, ...]]:
        groups: Dict[Tuple[Any, ...], List[RowEnv]] = {}
        order: List[Tuple[Any, ...]] = []
        if statement.group_by:
            for env in rows:
                key = tuple(
                    _hashable(self._eval(expr, env)) for expr in statement.group_by
                )
                if key not in groups:
                    groups[key] = []
                    order.append(key)
                groups[key].append(env)
        else:
            groups[()] = rows
            order.append(())

        result: List[Tuple[Any, ...]] = []
        for key in order:
            group_rows = groups[key]
            if statement.having is not None:
                if not _is_true(self._eval_aggregate(statement.having, group_rows)):
                    continue
            values = tuple(
                self._eval_aggregate(item.expr, group_rows)
                for item in statement.items
            )
            result.append(values)
        return result

    def _order(
        self,
        order: List[Tuple[Optional[int], SqlExpr, bool]],
        rows: List[RowEnv],
        result_rows: List[Tuple[Any, ...]],
    ) -> List[Tuple[Any, ...]]:
        """Apply ORDER BY, resolved by :func:`resolve_order_by`: output
        columns by index, anything else evaluated on the source row."""

        def key_for(position: int) -> Tuple:
            return tuple(
                _SortKey(
                    self._eval(expr, rows[position]) if index is None
                    else result_rows[position][index],
                    ascending,
                )
                for index, expr, ascending in order
            )

        positions = sorted(range(len(result_rows)), key=key_for)
        return [result_rows[p] for p in positions]

    def _star_values(
        self, star: Star, bindings: List[Tuple[str, Table]], env: RowEnv
    ) -> List[Any]:
        values: List[Any] = []
        for binding, table in bindings:
            if star.table is not None and star.table.lower() != binding:
                continue
            mapping = env[binding]
            values.extend(mapping[c.lower()] for c in table.schema.column_names)
        return values

    # ------------------------------------------------------------------ #
    # expression evaluation
    # ------------------------------------------------------------------ #

    def _eval(self, expr: SqlExpr, env: RowEnv) -> Any:
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, Placeholder):
            if expr.index >= len(self.params):
                raise ExecutionError(
                    f"statement uses {expr.index + 1} parameter(s) but only "
                    f"{len(self.params)} were supplied"
                )
            return self.params[expr.index]
        if isinstance(expr, ColumnRef):
            value = self._resolve_column(expr, env)
            if value is _MISSING:
                raise ExecutionError(f"unknown column {expr}")
            return value
        if isinstance(expr, UnaryOperation):
            value = self._eval(expr.operand, env)
            if expr.op == "NOT":
                return None if value is None else (not _is_true(value))
            return _negate(value, expr)
        if isinstance(expr, BinaryOperation):
            return self._eval_binary(expr, env, source=expr)
        if isinstance(expr, IsNull):
            value = self._eval(expr.operand, env)
            return (value is not None) if expr.negated else (value is None)
        if isinstance(expr, InList):
            value = self._eval(expr.operand, env)
            members = [self._eval(item, env) for item in expr.items]
            found = value in members
            return (not found) if expr.negated else found
        if isinstance(expr, FunctionExpr):
            return self._eval_scalar_function(expr, env)
        if isinstance(expr, ScalarSubquery):
            return self._eval_subquery(expr, env)
        raise ExecutionError(f"unsupported expression {expr!r}")

    def _eval_binary(
        self,
        expr: BinaryOperation,
        env: RowEnv,
        source: Optional[SqlExpr] = None,
    ) -> Any:
        op = expr.op
        if op is BinaryOperator.AND:
            return _is_true(self._eval(expr.left, env)) and _is_true(
                self._eval(expr.right, env)
            )
        if op is BinaryOperator.OR:
            return _is_true(self._eval(expr.left, env)) or _is_true(
                self._eval(expr.right, env)
            )
        left = self._eval(expr.left, env)
        right = self._eval(expr.right, env)
        # Shared operator semantics (NULL propagation, typed errors) live in
        # compile._apply_binop so both engines raise byte-identical messages.
        return _apply_binop(op, left, right, source)

    def _eval_scalar_function(self, expr: FunctionExpr, env: RowEnv) -> Any:
        name = expr.name.upper()
        if name == "COALESCE":
            # Stops at the first non-NULL argument, like the compiled engine.
            for arg in expr.args:
                value = self._eval(arg, env)
                if value is not None:
                    return value
            return None
        if name in _SCALAR_FUNCTIONS and len(expr.args) == 1:
            return _apply_function(name, self._eval(expr.args[0], env), expr)
        raise ExecutionError(f"unknown function {expr.name!r}")

    def _eval_subquery(self, expr: ScalarSubquery, env: RowEnv) -> Any:
        executor = InterpretedSelectExecutor(
            self.tables, self.params, stats=QueryStats()
        )
        result = executor.execute(expr.select)
        self.stats.merge(result.stats)
        self.stats.subqueries += 1
        if len(result.rows) == 0:
            return None
        if len(result.rows) != 1:
            # The planner admits only one-column subqueries.
            raise ExecutionError(
                f"scalar subquery returned {len(result.rows)} row(s) × 1 "
                "column(s)"
            )
        return result.rows[0][0]

    def _eval_aggregate(self, expr: SqlExpr, group: List[RowEnv]) -> Any:
        """Evaluate an expression that may contain aggregate functions."""
        if isinstance(expr, FunctionExpr) and expr.is_aggregate:
            return self._aggregate_value(expr, group)
        if isinstance(expr, BinaryOperation):
            # AND/OR stop at the deciding operand, like every other walk.
            if expr.op is BinaryOperator.AND:
                return _is_true(self._eval_aggregate(expr.left, group)) and (
                    _is_true(self._eval_aggregate(expr.right, group))
                )
            if expr.op is BinaryOperator.OR:
                return _is_true(self._eval_aggregate(expr.left, group)) or (
                    _is_true(self._eval_aggregate(expr.right, group))
                )
            clone = BinaryOperation(
                op=expr.op,
                left=Literal(self._eval_aggregate(expr.left, group)),
                right=Literal(self._eval_aggregate(expr.right, group)),
            )
            return self._eval_binary(clone, {})
        if isinstance(expr, UnaryOperation):
            value = self._eval_aggregate(expr.operand, group)
            if expr.op == "NOT":
                return None if value is None else (not _is_true(value))
            return _negate(value, expr)
        if isinstance(expr, (Literal, Placeholder, ScalarSubquery)):
            return self._eval(expr, {})
        # Plain column references inside an aggregate query pick the value of
        # the first row of the group (they are expected to be grouping keys).
        if not group:
            return None
        return self._eval(expr, group[0])

    def _aggregate_value(self, expr: FunctionExpr, group: List[RowEnv]) -> Any:
        name = expr.name.upper()
        if name == "COUNT" and (not expr.args or isinstance(expr.args[0], Star)):
            return len(group)
        values = []
        for env in group:
            value = self._eval(expr.args[0], env)
            if value is not None:
                values.append(value)
        if expr.distinct:
            seen = set()
            unique = []
            for value in values:
                key = _hashable(value)
                if key not in seen:
                    seen.add(key)
                    unique.append(value)
            values = unique
        return _apply_fold(name, values, expr)

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #

    def _resolve_column(self, ref: ColumnRef, env: RowEnv) -> Any:
        name = ref.name.lower()
        if ref.table is not None:
            mapping = env.get(ref.table.lower())
            if mapping is None or name not in mapping:
                return _MISSING
            return mapping[name]
        matches = [m for m in env.values() if name in m]
        if not matches:
            return _MISSING
        if len(matches) > 1:
            raise ExecutionError(f"ambiguous column reference {ref.name!r}")
        return matches[0][name]


# --------------------------------------------------------------------------- #
# module helpers
# --------------------------------------------------------------------------- #


def _row_mapping(table: Table, row: Tuple[Any, ...]) -> Dict[str, Any]:
    return {
        column.name.lower(): value
        for column, value in zip(table.schema.columns, row)
    }
