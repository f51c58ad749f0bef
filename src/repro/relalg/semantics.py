"""Static semantic analysis: type inference, diagnostics and query lint.

The engine's front half mirrors the ASL property compiler: ``asl/semantic.py``
type-checks property specifications before any evaluation, and this module
gives the SQL layer the same contract.  :func:`analyze_select` runs once per
SELECT node at plan time: a scalar subquery is analyzed with its parent and
its analysis kept in the parent's (:attr:`Analysis.subqueries`) for the
planner to hand down.  The plan cache makes the result as durable as the
plan itself — both are invalidated by the same per-table schema epochs.  The
analysis produces:

* **type inference** — an INTEGER/FLOAT/BOOLEAN/VARCHAR/TIMESTAMP/NULL
  lattice (:class:`SqlType`) over column references, literals, arithmetic,
  comparisons, logical operators, ``IN`` lists, ``COALESCE``, aggregates and
  scalar subqueries, driven by the catalog's column types;
* **typed diagnostics** — :class:`~repro.relalg.errors.SemanticError`
  (a subclass of :class:`ExecutionError`) with statement-position context
  for statements that would *deterministically* fail on every non-NULL row
  they touch: type-incompatible ordered comparisons and arithmetic,
  ``VARCHAR``/``TIMESTAMP``-typed WHERE/HAVING clauses, aggregate misuse
  (aggregates in WHERE / GROUP BY, nested aggregates), and unknown or
  ambiguous column references;
* **lint and rewrite** — constant folding of literal-pure subexpressions
  (only when evaluation succeeds: ``1/0`` is left for the engine to raise),
  always-true conjunct elimination, always-false conjunct detection
  (including ``x = 1 AND x = 2`` contradictions) that lets the planner skip
  the scan entirely, and warnings for cross joins and non-sargable
  predicates on indexed columns.  Findings surface through the ``analysis:``
  section of ``Database.explain``.

The analysis is **conservative**.  Any expression it cannot type (parameter
placeholders, unknown functions, subqueries of unknown shape) is ``UNKNOWN``
and passes through untouched, so every statement accepted by the analyzer
keeps byte-identical rows and, for unfolded statements, byte-identical
``QueryStats``.  Equality comparisons never raise in this engine regardless
of operand types, so ``=``/``<>`` mismatches are only warned about, never
rejected.  Rejection is "modulo NULL": a statement like ``WHERE s > 5`` over
an all-NULL ``s`` column would have returned zero rows instead of raising,
but is still rejected because it fails on every row where the comparison is
actually evaluated.

The module also holds the statement scope every engine shares, so the
planner, the analyzer and the interpreted reference engine cannot disagree
on it: the FROM bindings and their typed errors (:func:`select_bindings`),
the ON/WHERE conjunct list (:func:`select_conjuncts`), the bindings a
conjunct needs (:func:`required_bindings`), the output column names
(:func:`output_columns`) and the ORDER BY resolution
(:func:`resolve_order_by`).  Column resolution is
:func:`repro.relalg.compile.resolve_column`, beside the slot layout it
serves.

Constant folding is applied by the *planner* only (the interpreted reference
engine evaluates the original AST); folding never changes result rows, but a
folded conjunct such as ``x = 1 + 1`` may classify as an index probe where
the unfolded form was a residual filter, improving the compiled engine's
QueryStats relative to the interpreter for such statements.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.records import Record
from repro.relalg.compile import _apply_binop, resolve_column
from repro.relalg.errors import ExecutionError, SchemaError, SemanticError
from repro.relalg.rowset import _is_true
from repro.relalg.schema import ColumnType
from repro.relalg.sqlast import (
    BinaryOperation,
    BinaryOperator,
    ColumnRef,
    DeleteStatement,
    FunctionExpr,
    InList,
    IsNull,
    Literal,
    Placeholder,
    ScalarSubquery,
    SelectStatement,
    SqlExpr,
    Star,
    TableRef,
    UnaryOperation,
    format_expr,
    walk,
)
from repro.relalg.storage import Table

__all__ = [
    "SqlType",
    "Analysis",
    "analyze_select",
    "check_delete",
    "output_columns",
    "required_bindings",
    "resolve_order_by",
    "select_bindings",
    "select_conjuncts",
]


class SqlType(enum.Enum):
    """Static type lattice of the analyzer.

    ``NULL`` is the type of the literal ``NULL`` (propagates through every
    operator without raising); ``UNKNOWN`` is the conservative top element
    for values only known at bind time (parameters, unknown functions).
    """

    INTEGER = "INTEGER"
    FLOAT = "FLOAT"
    BOOLEAN = "BOOLEAN"
    VARCHAR = "VARCHAR"
    TIMESTAMP = "TIMESTAMP"
    NULL = "NULL"
    UNKNOWN = "UNKNOWN"


#: Types whose runtime values are Python numbers (bool included: it is an
#: int at runtime, so ``b + 1`` and ``'a' * b`` behave like integers).
_NUMERIC = frozenset((SqlType.INTEGER, SqlType.FLOAT, SqlType.BOOLEAN))

_FROM_COLUMN_TYPE = {
    ColumnType.INTEGER: SqlType.INTEGER,
    ColumnType.FLOAT: SqlType.FLOAT,
    ColumnType.VARCHAR: SqlType.VARCHAR,
    ColumnType.BOOLEAN: SqlType.BOOLEAN,
    ColumnType.TIMESTAMP: SqlType.TIMESTAMP,
}

_COMPARABLE_OPS = (
    BinaryOperator.LT,
    BinaryOperator.LE,
    BinaryOperator.GT,
    BinaryOperator.GE,
)


def _type_class(sql_type: SqlType) -> Optional[str]:
    """Runtime comparison class, or ``None`` when statically unknown."""
    if sql_type in _NUMERIC:
        return "numeric"
    if sql_type is SqlType.VARCHAR:
        return "string"
    if sql_type is SqlType.TIMESTAMP:
        return "timestamp"
    return None


class RangeInterval(Record):
    """The tightest literal interval the range conjuncts on one
    ``(binding, column)`` pair imply.

    ``None`` bounds are unbounded on that side; ``lo_expr``/``hi_expr`` are
    the (folded) conjuncts that contributed each bound, kept for report
    wording and so a dominated conjunct can be removed from the processed
    list by identity.
    """

    __slots__ = ("lo", "lo_incl", "lo_expr", "hi", "hi_incl", "hi_expr")

    def __init__(
        self,
        lo: Any = None,
        lo_incl: bool = True,
        lo_expr: Optional[SqlExpr] = None,
        hi: Any = None,
        hi_incl: bool = True,
        hi_expr: Optional[SqlExpr] = None,
    ) -> None:
        self.lo = lo
        self.lo_incl = lo_incl
        self.lo_expr = lo_expr
        self.hi = hi
        self.hi_incl = hi_incl
        self.hi_expr = hi_expr

    @property
    def empty(self) -> bool:
        """True when no value can satisfy both bounds."""
        if self.lo_expr is None or self.hi_expr is None:
            return False
        try:
            if self.lo > self.hi:
                return True
            if self.lo == self.hi:
                return not (self.lo_incl and self.hi_incl)
        except TypeError:
            return False
        return False

    def contains(self, value: Any) -> bool:
        """Whether ``value`` could satisfy the interval (conservatively
        ``True`` on incomparable values)."""
        try:
            if self.lo_expr is not None and (
                value < self.lo or (value == self.lo and not self.lo_incl)
            ):
                return False
            if self.hi_expr is not None and (
                value > self.hi or (value == self.hi and not self.hi_incl)
            ):
                return False
        except TypeError:
            return True
        return True


class Analysis(Record):
    """The result of analyzing one SELECT statement.

    ``applicable`` is False when the statement's scope could not be built
    (unknown table, duplicate binding) — those raise through the existing
    :class:`SchemaError`/:class:`ExecutionError` paths before analysis
    matters, and every other field is then empty/None.

    ``report`` holds the human-readable findings for EXPLAIN's
    ``analysis:`` section (folds, dropped conjuncts, contradictions,
    warnings).  ``conjuncts`` is the planner's conjunct list after folding
    and always-true elimination, or ``None`` when the analysis was not
    applicable.  ``contradiction`` is True when some conjunct is provably
    false for every row — the planner skips the scan entirely (zero rows
    enumerated, zero stats).  ``intervals`` maps ``(binding, lowered
    column)`` to the tightest literal range interval the conjuncts imply; it
    feeds the planner's range selectivity so stacked conjuncts on one column
    estimate as a single interval instead of a product of independent
    selectivities.  ``item_types`` is the inferred type per select item
    (``None`` for ``*`` items).  ``subqueries`` holds the analysis of every
    scalar subquery of the statement's own clauses, keyed by ``id()`` of the
    subquery's SELECT node (nested subqueries live in their parent
    subquery's analysis).  The planner hands each one down when it plans
    that subquery, so no node is analyzed twice.
    """

    __slots__ = (
        "applicable", "errors", "warnings", "report", "conjuncts", "contradiction",
        "intervals", "item_types", "subqueries",
    )

    def __init__(
        self,
        applicable: bool = True,
        errors: Optional[List[SemanticError]] = None,
        warnings: Optional[List[str]] = None,
        report: Tuple[str, ...] = (),
        conjuncts: Optional[List[SqlExpr]] = None,
        contradiction: bool = False,
        intervals: Optional[Dict[Tuple[str, str], RangeInterval]] = None,
        item_types: Optional[List[Optional[SqlType]]] = None,
        subqueries: Optional[Dict[int, "Analysis"]] = None,
    ) -> None:
        self.applicable = applicable
        self.errors = [] if errors is None else errors
        self.warnings = [] if warnings is None else warnings
        self.report = report
        self.conjuncts = conjuncts
        self.contradiction = contradiction
        self.intervals = {} if intervals is None else intervals
        self.item_types = [] if item_types is None else item_types
        self.subqueries = {} if subqueries is None else subqueries


def analyze_select(
    statement: SelectStatement, tables: Dict[str, Table]
) -> Analysis:
    """Analyze one SELECT statement against the catalog.

    :attr:`Analysis.conjuncts` is the statement's ON/WHERE conjunct list
    (joins first, in syntactic order) folded and pruned, ready to feed the
    planner's ``_plan_levels``.
    """
    analyzer = _Analyzer(statement, tables)
    if not analyzer.applicable:
        return Analysis(applicable=False)
    analyzer.analyze()
    return analyzer.result


def check_delete(
    statement: DeleteStatement, tables: Dict[str, Table]
) -> Optional[Analysis]:
    """Type-check a DELETE's WHERE clause before any row is examined.

    Returns the WHERE clause's analysis (its :attr:`Analysis.subqueries`
    feed the planning of the clause's scalar subqueries), or ``None`` when
    there is no WHERE clause or no such table.
    """
    if statement.where is None:
        return None
    table = tables.get(statement.table.lower())
    if table is None:
        return None  # the executor's own unknown-table path raises SchemaError
    select = SelectStatement(
        from_tables=[TableRef(name=statement.table)], where=statement.where
    )
    analysis = analyze_select(select, tables)
    if analysis.errors:
        raise analysis.errors[0]
    return analysis


# --------------------------------------------------------------------------- #
# statement scope: the rules that shape a SELECT, shared by every engine
# --------------------------------------------------------------------------- #


def select_bindings(
    statement: SelectStatement, tables: Dict[str, Table]
) -> List[Tuple[str, Table]]:
    """The statement's ``(binding, table)`` scope: the FROM list, then the
    joined tables, in syntactic order.

    Raises the errors every engine reports before any other: a SELECT
    without a table and a binding named twice (:class:`ExecutionError`), an
    unknown table (:class:`SchemaError`).
    """
    refs: List[TableRef] = list(statement.from_tables) + [
        join.table for join in statement.joins
    ]
    if not refs:
        raise ExecutionError("SELECT requires at least one table")
    bindings: List[Tuple[str, Table]] = []
    seen = set()
    for ref in refs:
        table = tables.get(ref.name.lower())
        if table is None:
            raise SchemaError(f"unknown table {ref.name!r}")
        binding = ref.binding.lower()
        if binding in seen:
            raise ExecutionError(f"duplicate table binding {ref.binding!r}")
        seen.add(binding)
        bindings.append((binding, table))
    return bindings


def select_conjuncts(statement: SelectStatement) -> List[SqlExpr]:
    """The statement's ON and WHERE conjuncts: every join's ON clause in
    syntactic order, then the WHERE clause, each split at its top-level
    ``AND`` operators."""
    conjuncts: List[SqlExpr] = []
    for join in statement.joins:
        if join.on is not None:
            conjuncts.extend(_split_and(join.on))
    if statement.where is not None:
        conjuncts.extend(_split_and(statement.where))
    return conjuncts


def _split_and(expr: SqlExpr) -> List[SqlExpr]:
    if isinstance(expr, BinaryOperation) and expr.op is BinaryOperator.AND:
        return _split_and(expr.left) + _split_and(expr.right)
    return [expr]


def required_bindings(
    expr: SqlExpr, bindings: Sequence[Tuple[str, Table]]
) -> Set[str]:
    """The table bindings that must be bound before ``expr`` can be evaluated.

    Qualified column references require their binding; unqualified ones
    require every binding whose table declares a column of that name.  Scalar
    subqueries are self-contained and require nothing from the outer query.
    """
    refs: Set[str] = set()
    for node in walk(expr):
        if not isinstance(node, ColumnRef):
            continue
        if node.table is not None:
            refs.add(node.table.lower())
            continue
        name = node.name.lower()
        for binding, table in bindings:
            if any(c.name.lower() == name for c in table.schema.columns):
                refs.add(binding)
    return refs


def output_columns(
    statement: SelectStatement, bindings: Sequence[Tuple[str, Table]]
) -> List[str]:
    """The result's column names: a ``*`` item expands to its bindings'
    columns, any other item is named by its alias, else by its column or
    function name, else ``expr``."""
    columns: List[str] = []
    for item in statement.items:
        if isinstance(item.expr, Star):
            for binding, table in bindings:
                if item.expr.table is not None and (
                    item.expr.table.lower() != binding
                ):
                    continue
                columns.extend(table.schema.column_names)
        elif item.alias:
            columns.append(item.alias)
        elif isinstance(item.expr, ColumnRef):
            columns.append(item.expr.name)
        elif isinstance(item.expr, FunctionExpr):
            columns.append(item.expr.name.lower())
        else:
            columns.append("expr")
    return columns


def resolve_order_by(
    statement: SelectStatement, columns: Sequence[str]
) -> List[Tuple[Optional[int], SqlExpr, bool]]:
    """Resolve the ORDER BY items against the output columns.

    The one resolution rule, applied once per statement by every engine
    before a row is read.  An item sorts by an output column when it is a
    bare name of one (output names shadow source columns), a 1-based
    position, or — in an aggregate query — an expression structurally equal
    to a select-list item; otherwise it sorts by a source-row expression.
    An aggregate query has no source rows left to sort by, and a position
    must name a column, so anything else raises a typed
    :class:`ExecutionError`, on a filled and on an empty table alike.

    Returns ``(output index or None, expression, ascending)`` per item.
    """
    lowered = [column.lower() for column in columns]
    resolved: List[Tuple[Optional[int], SqlExpr, bool]] = []
    for item in statement.order_by:
        expr = item.expr
        index: Optional[int] = None
        if isinstance(expr, ColumnRef) and expr.table is None and (
            expr.name.lower() in lowered
        ):
            index = lowered.index(expr.name.lower())
        elif isinstance(expr, Literal) and isinstance(expr.value, int):
            if not 1 <= expr.value <= len(columns):
                raise ExecutionError(
                    f"ORDER BY position {expr.value} is not in the select "
                    f"list (1..{len(columns)})"
                )
            index = expr.value - 1
        elif statement.is_aggregate_query:
            # `ORDER BY COUNT(*)` names no output column, but the expression
            # may *be* one of the output expressions (position-insensitive
            # structural equality) — match those before rejecting.
            for position, out_item in enumerate(statement.items):
                if out_item.expr == expr:
                    index = position
                    break
            else:
                raise ExecutionError(
                    "ORDER BY of an aggregate query must reference output "
                    "columns"
                )
        resolved.append((index, expr, item.ascending))
    return resolved


# --------------------------------------------------------------------------- #
# constant folding
# --------------------------------------------------------------------------- #

_NOT_CONST = object()


def _const_value(expr: SqlExpr) -> Any:
    """Evaluate a literal-pure expression under the engine's exact semantics.

    Returns :data:`_NOT_CONST` when the expression references rows,
    parameters or subqueries, or when evaluation raises (``1/0`` stays in
    the tree so the engine reports it, exactly as before).
    """
    try:
        return _const_eval(expr)
    except Exception:  # lint: allow-broad-except
        # Deliberate: folding is best-effort; any raising constant (1/0,
        # 'a' < 1, ...) is left in the tree for the engine to report.
        return _NOT_CONST


def _const_eval(expr: SqlExpr) -> Any:
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, UnaryOperation):
        value = _const_eval(expr.operand)
        if value is _NOT_CONST:
            return _NOT_CONST
        if expr.op == "NOT":
            return None if value is None else not _is_true(value)
        return None if value is None else -value
    if isinstance(expr, BinaryOperation):
        left = _const_eval(expr.left)
        if left is _NOT_CONST:
            return _NOT_CONST
        if expr.op is BinaryOperator.AND:
            # mirrors the compiled closure: bool short-circuit over _is_true
            if not _is_true(left):
                return False
            right = _const_eval(expr.right)
            return _NOT_CONST if right is _NOT_CONST else _is_true(right)
        if expr.op is BinaryOperator.OR:
            if _is_true(left):
                return True
            right = _const_eval(expr.right)
            return _NOT_CONST if right is _NOT_CONST else _is_true(right)
        right = _const_eval(expr.right)
        if right is _NOT_CONST:
            return _NOT_CONST
        if expr.op is BinaryOperator.EQ:
            if left is None or right is None:
                return None
            return left == right
        return _apply_binop(expr.op, left, right)
    if isinstance(expr, IsNull):
        value = _const_eval(expr.operand)
        if value is _NOT_CONST:
            return _NOT_CONST
        return value is not None if expr.negated else value is None
    if isinstance(expr, InList):
        value = _const_eval(expr.operand)
        if value is _NOT_CONST:
            return _NOT_CONST
        members = [_const_eval(item) for item in expr.items]
        if any(member is _NOT_CONST for member in members):
            return _NOT_CONST
        found = value in members
        return (not found) if expr.negated else found
    return _NOT_CONST


def _fold_expr(expr: SqlExpr) -> SqlExpr:
    """Fold literal-pure subexpressions bottom-up; identity when nothing folds."""
    value = _const_value(expr)
    if value is not _NOT_CONST:
        return expr if isinstance(expr, Literal) else Literal(value)
    if isinstance(expr, BinaryOperation):
        left = _fold_expr(expr.left)
        right = _fold_expr(expr.right)
        if left is expr.left and right is expr.right:
            return expr
        return BinaryOperation(
            op=expr.op, left=left, right=right, position=expr.position,
            origin=expr.origin or expr,
        )
    if isinstance(expr, UnaryOperation):
        operand = _fold_expr(expr.operand)
        if operand is expr.operand:
            return expr
        return UnaryOperation(
            op=expr.op, operand=operand, position=expr.position,
            origin=expr.origin or expr,
        )
    if isinstance(expr, IsNull):
        operand = _fold_expr(expr.operand)
        if operand is expr.operand:
            return expr
        return IsNull(operand=operand, negated=expr.negated)
    if isinstance(expr, InList):
        operand = _fold_expr(expr.operand)
        items = tuple(_fold_expr(item) for item in expr.items)
        if operand is expr.operand and all(
            folded is item for folded, item in zip(items, expr.items)
        ):
            return expr
        return InList(operand=operand, items=items, negated=expr.negated)
    return expr


# --------------------------------------------------------------------------- #
# the analyzer
# --------------------------------------------------------------------------- #


class _Analyzer:
    def __init__(
        self, statement: SelectStatement, tables: Dict[str, Table]
    ) -> None:
        self.statement = statement
        self.tables = tables
        self.result = Analysis()
        self.applicable = True
        try:
            self.bindings = select_bindings(statement, tables)
        except (ExecutionError, SchemaError):
            # Every engine raises this error from its own call before the
            # analysis matters; a subquery's stays soft, so its parent's
            # first error is the one reported.
            self.bindings = []
            self.applicable = False

    # -- entry point ------------------------------------------------------------

    def analyze(self) -> None:
        statement = self.statement
        for item in statement.items:
            if isinstance(item.expr, Star):
                self.result.item_types.append(None)
                continue
            self.result.item_types.append(
                self._infer(item.expr, allow_aggregate=True, in_aggregate=False)
            )
        for join in statement.joins:
            if join.on is not None:
                self._check_condition(join.on, "JOIN ON clause")
        if statement.where is not None:
            self._check_condition(statement.where, "WHERE clause")
        for expr in statement.group_by:
            self._infer(expr, allow_aggregate=False, in_aggregate=False)
        if statement.having is not None:
            self._check_condition(
                statement.having, "HAVING clause", allow_aggregate=True
            )
        # ORDER BY resolves against output column names (aliases, positions)
        # before table scope, so its diagnostics are unreliable here: infer
        # for coverage, then discard anything it flagged.
        n_errors, n_warnings = len(self.result.errors), len(self.result.warnings)
        for order in statement.order_by:
            self._infer(order.expr, allow_aggregate=True, in_aggregate=False)
        del self.result.errors[n_errors:]
        del self.result.warnings[n_warnings:]

        self._process_conjuncts(select_conjuncts(statement))
        report = list(self.result.report)
        report.extend(f"warning: {text}" for text in self.result.warnings)
        self.result.report = tuple(report)

    def _check_condition(
        self, expr: SqlExpr, label: str, allow_aggregate: bool = False
    ) -> None:
        inferred = self._infer(
            expr, allow_aggregate=allow_aggregate, in_aggregate=False
        )
        if inferred in (SqlType.VARCHAR, SqlType.TIMESTAMP):
            self._error(
                f"{label} must be a condition, got {inferred.value}",
                getattr(expr, "position", None),
            )

    # -- conjunct rewriting -----------------------------------------------------

    def _process_conjuncts(self, conjuncts: List[SqlExpr]) -> None:
        report: List[str] = []
        processed: List[SqlExpr] = []
        contradiction = False
        eq_literals: Dict[Tuple[str, str], Tuple[Any, SqlExpr]] = {}
        intervals: Dict[Tuple[str, str], RangeInterval] = {}
        for conjunct in conjuncts:
            folded = _fold_expr(conjunct)
            if isinstance(folded, Literal):
                value = folded.value
                if _is_true(value):
                    report.append(
                        f"always-true: {format_expr(conjunct)} "
                        "(conjunct dropped)"
                    )
                    continue
                contradiction = True
                report.append(
                    f"always-false: {format_expr(conjunct)} (scan skipped)"
                )
                processed.append(folded)
                continue
            if folded is not conjunct:
                report.append(
                    f"folded: {format_expr(conjunct)} "
                    f"-> {format_expr(folded)}"
                )
            if self._null_operand_conjunct(folded):
                contradiction = True
                report.append(
                    f"always-false: {format_expr(conjunct)} "
                    "(NULL operand; scan skipped)"
                )
            key_value = self._eq_literal_form(folded)
            if key_value is not None:
                key, value = key_value
                previous = eq_literals.get(key)
                if previous is not None and not (previous[0] == value):
                    contradiction = True
                    report.append(
                        f"contradiction: {format_expr(previous[1])} AND "
                        f"{format_expr(folded)} (scan skipped)"
                    )
                else:
                    eq_literals[key] = (value, folded)
            range_form = self._range_literal_form(folded)
            if range_form is not None:
                key, op, value = range_form
                if isinstance(value, float) and value != value:
                    # A NaN bound compares false with every value (and
                    # UNKNOWN with NULL): no row can pass.
                    contradiction = True
                    report.append(
                        f"always-false: {format_expr(folded)} "
                        "(NaN bound; scan skipped)"
                    )
                else:
                    interval = intervals.setdefault(key, RangeInterval())
                    if not self._merge_bound(
                        interval, op, value, folded, processed, report
                    ):
                        continue
                    if interval.empty:
                        contradiction = True
                        report.append(
                            f"contradiction: "
                            f"{format_expr(interval.lo_expr)} AND "
                            f"{format_expr(interval.hi_expr)} "
                            "(empty range; scan skipped)"
                        )
            processed.append(folded)
        for key, (value, expr) in eq_literals.items():
            interval = intervals.get(key)
            if interval is not None and not interval.contains(value):
                contradiction = True
                report.append(
                    f"contradiction: {format_expr(expr)} is outside the "
                    f"range on {key[1]} (scan skipped)"
                )
        self._warn_cross_join(processed)
        self._warn_non_sargable(processed)
        self.result.conjuncts = processed
        self.result.contradiction = contradiction
        self.result.intervals = intervals
        self.result.report = tuple(report)

    def _null_operand_conjunct(self, conjunct: SqlExpr) -> bool:
        """A comparison/arithmetic conjunct with a literal NULL side is NULL
        (falsy) for every row."""
        if not isinstance(conjunct, BinaryOperation):
            return False
        if conjunct.op in (BinaryOperator.AND, BinaryOperator.OR):
            return False
        return (
            isinstance(conjunct.left, Literal) and conjunct.left.value is None
        ) or (
            isinstance(conjunct.right, Literal)
            and conjunct.right.value is None
        )

    def _eq_literal_form(
        self, conjunct: SqlExpr
    ) -> Optional[Tuple[Tuple[str, str], Any]]:
        """``(binding, column) -> literal`` for conjuncts of shape
        ``col = literal`` / ``literal = col``."""
        if not (
            isinstance(conjunct, BinaryOperation)
            and conjunct.op is BinaryOperator.EQ
        ):
            return None
        ref, literal = conjunct.left, conjunct.right
        if isinstance(ref, Literal) and isinstance(literal, ColumnRef):
            ref, literal = literal, ref
        if not (isinstance(ref, ColumnRef) and isinstance(literal, Literal)):
            return None
        if literal.value is None:
            return None
        resolved = self._resolve(ref)
        if resolved is None:
            return None
        return (resolved[0], ref.name.lower()), literal.value

    _FLIPPED_COMPARISON = {
        BinaryOperator.LT: BinaryOperator.GT,
        BinaryOperator.LE: BinaryOperator.GE,
        BinaryOperator.GT: BinaryOperator.LT,
        BinaryOperator.GE: BinaryOperator.LE,
    }

    def _range_literal_form(
        self, conjunct: SqlExpr
    ) -> Optional[Tuple[Tuple[str, str], BinaryOperator, Any]]:
        """``((binding, column), op, literal)`` for conjuncts of shape
        ``col op literal`` / ``literal op col`` with an ordered comparison
        (the operator is normalised to the column-on-the-left reading)."""
        if not (
            isinstance(conjunct, BinaryOperation)
            and conjunct.op in _COMPARABLE_OPS
        ):
            return None
        ref, literal = conjunct.left, conjunct.right
        op = conjunct.op
        if isinstance(ref, Literal) and isinstance(literal, ColumnRef):
            ref, literal = literal, ref
            op = self._FLIPPED_COMPARISON[op]
        if not (isinstance(ref, ColumnRef) and isinstance(literal, Literal)):
            return None
        if literal.value is None:
            return None
        resolved = self._resolve(ref)
        if resolved is None:
            return None
        return (resolved[0], ref.name.lower()), op, literal.value

    @staticmethod
    def _merge_bound(
        interval: RangeInterval,
        op: BinaryOperator,
        value: Any,
        conjunct: SqlExpr,
        processed: List[SqlExpr],
        report: List[str],
    ) -> bool:
        """Intersect one range conjunct into ``interval``.

        Returns ``False`` when the conjunct is dominated by an existing bound
        (the caller drops it); when the conjunct *replaces* a weaker bound,
        the weaker conjunct is removed from ``processed`` instead.  Dropping
        is sound for literal comparisons: the analyzer already rejects static
        type-class mismatches, and NULL column values fail the kept conjunct
        the same way they fail the dropped one.
        """
        lower = op in (BinaryOperator.GT, BinaryOperator.GE)
        inclusive = op in (BinaryOperator.GE, BinaryOperator.LE)
        if lower:
            current, current_incl, current_expr = (
                interval.lo, interval.lo_incl, interval.lo_expr
            )
        else:
            current, current_incl, current_expr = (
                interval.hi, interval.hi_incl, interval.hi_expr
            )
        if current_expr is not None:
            try:
                if lower:
                    tighter = value > current or (
                        value == current and current_incl and not inclusive
                    )
                else:
                    tighter = value < current or (
                        value == current and current_incl and not inclusive
                    )
            except TypeError:
                # Incomparable bound classes: the static mismatch is already
                # a semantic error; keep both conjuncts untouched.
                return True
            if not tighter:
                report.append(
                    f"redundant range: {format_expr(conjunct)} (implied by "
                    f"{format_expr(current_expr)}; conjunct dropped)"
                )
                return False
            for index, existing in enumerate(processed):
                if existing is current_expr:
                    del processed[index]
                    break
            report.append(
                f"redundant range: {format_expr(current_expr)} (implied by "
                f"{format_expr(conjunct)}; conjunct dropped)"
            )
        if lower:
            interval.lo, interval.lo_incl, interval.lo_expr = (
                value, inclusive, conjunct
            )
        else:
            interval.hi, interval.hi_incl, interval.hi_expr = (
                value, inclusive, conjunct
            )
        return True

    # -- warnings ---------------------------------------------------------------

    def _warn_cross_join(self, conjuncts: Sequence[SqlExpr]) -> None:
        if len(self.bindings) < 2:
            return
        parent = {binding: binding for binding, _table in self.bindings}

        def find(node: str) -> str:
            while parent[node] != node:
                parent[node] = parent[parent[node]]
                node = parent[node]
            return node

        for conjunct in conjuncts:
            # A statement with an unknown binding is rejected anyway; its
            # qualifier has no node here.
            touched = sorted(
                required_bindings(conjunct, self.bindings).intersection(parent)
            )
            for other in touched[1:]:
                parent[find(other)] = find(touched[0])
        roots = {find(binding) for binding, _table in self.bindings}
        if len(roots) > 1:
            self.result.warnings.append(
                "cross join: no predicate connects "
                + ", ".join(sorted(binding for binding, _ in self.bindings))
            )

    def _warn_non_sargable(self, conjuncts: Sequence[SqlExpr]) -> None:
        for conjunct in conjuncts:
            if not (
                isinstance(conjunct, BinaryOperation)
                and conjunct.op.is_comparison
            ):
                continue
            for side, other in (
                (conjunct.left, conjunct.right),
                (conjunct.right, conjunct.left),
            ):
                if isinstance(side, (ColumnRef, Literal, Placeholder)):
                    continue
                if not isinstance(other, (Literal, Placeholder)):
                    continue
                for ref in self._column_refs(side):
                    resolved = self._resolve(ref)
                    if resolved is not None and (
                        ref.name.lower() in resolved[1].indexes
                    ):
                        self.result.warnings.append(
                            "non-sargable predicate on indexed column "
                            f"{ref}: {format_expr(conjunct)}"
                        )
                        break

    def _column_refs(self, expr: SqlExpr) -> List[ColumnRef]:
        """The column references of ``expr`` outside scalar subqueries,
        right to left: the non-sargable warning names the first indexed
        one, ``y`` in ``x + y > 5``."""
        refs = [node for node in walk(expr) if isinstance(node, ColumnRef)]
        refs.reverse()
        return refs

    def _resolve(self, ref: ColumnRef) -> Optional[Tuple[str, Table, int]]:
        """Where a reference points (:func:`resolve_column`), or ``None``
        when it names no column or several: type inference reports those."""
        try:
            return resolve_column(ref, self.bindings)
        except ExecutionError:
            return None

    # -- type inference ---------------------------------------------------------

    def _error(self, message: str, position: Optional[int]) -> None:
        self.result.errors.append(SemanticError(message, position))

    def _infer(
        self, expr: SqlExpr, allow_aggregate: bool, in_aggregate: bool
    ) -> SqlType:
        if isinstance(expr, Literal):
            return self._literal_type(expr.value)
        if isinstance(expr, Placeholder):
            return SqlType.UNKNOWN
        if isinstance(expr, ColumnRef):
            return self._infer_column(expr)
        if isinstance(expr, Star):
            return SqlType.UNKNOWN
        if isinstance(expr, UnaryOperation):
            return self._infer_unary(expr, allow_aggregate, in_aggregate)
        if isinstance(expr, BinaryOperation):
            return self._infer_binary(expr, allow_aggregate, in_aggregate)
        # Aggregates may sit under arithmetic, comparisons, NOT, AND and OR
        # only: IS NULL, IN and scalar-function operands are row
        # expressions in every engine, so an aggregate there is rejected
        # here, before any row, instead of when (or whether) it is reached.
        if isinstance(expr, IsNull):
            self._infer(expr.operand, False, in_aggregate)
            return SqlType.BOOLEAN
        if isinstance(expr, InList):
            self._infer(expr.operand, False, in_aggregate)
            for item in expr.items:
                self._infer(item, False, in_aggregate)
            return SqlType.BOOLEAN
        if isinstance(expr, FunctionExpr):
            return self._infer_function(expr, allow_aggregate, in_aggregate)
        if isinstance(expr, ScalarSubquery):
            return self._infer_subquery(expr)
        return SqlType.UNKNOWN

    @staticmethod
    def _literal_type(value: Any) -> SqlType:
        if value is None:
            return SqlType.NULL
        if isinstance(value, bool):
            return SqlType.BOOLEAN
        if isinstance(value, int):
            return SqlType.INTEGER
        if isinstance(value, float):
            return SqlType.FLOAT
        if isinstance(value, str):
            return SqlType.VARCHAR
        return SqlType.UNKNOWN

    def _infer_column(self, ref: ColumnRef) -> SqlType:
        try:
            _binding, table, index = resolve_column(ref, self.bindings)
        except ExecutionError as exc:
            self._error(str(exc), ref.position)
            return SqlType.UNKNOWN
        return _FROM_COLUMN_TYPE[table.schema.columns[index].type]

    def _infer_unary(
        self, expr: UnaryOperation, allow_aggregate: bool, in_aggregate: bool
    ) -> SqlType:
        operand = self._infer(expr.operand, allow_aggregate, in_aggregate)
        if expr.op == "NOT":
            return SqlType.BOOLEAN
        if operand in (SqlType.VARCHAR, SqlType.TIMESTAMP):
            self._error(
                f"invalid operand for unary -: {operand.value} "
                f"in {format_expr(expr)}",
                expr.position,
            )
            return SqlType.UNKNOWN
        if operand is SqlType.BOOLEAN:
            return SqlType.INTEGER
        return operand

    def _infer_binary(
        self, expr: BinaryOperation, allow_aggregate: bool, in_aggregate: bool
    ) -> SqlType:
        left = self._infer(expr.left, allow_aggregate, in_aggregate)
        right = self._infer(expr.right, allow_aggregate, in_aggregate)
        op = expr.op
        if op in (BinaryOperator.AND, BinaryOperator.OR):
            return SqlType.BOOLEAN
        left_class = _type_class(left)
        right_class = _type_class(right)
        if op.is_comparison:
            if left_class is not None and right_class is not None:
                if left_class != right_class:
                    if op in _COMPARABLE_OPS:
                        self._error(
                            f"cannot compare {left.value} and {right.value}: "
                            f"{format_expr(expr)}",
                            expr.position,
                        )
                    else:
                        # = / <> across classes never raises — it is just
                        # constant-valued (equality of a str and an int is
                        # always False).  Lint, don't reject.
                        self.result.warnings.append(
                            f"mixed-type comparison {format_expr(expr)} "
                            f"({left.value} vs {right.value})"
                        )
            return SqlType.BOOLEAN
        # arithmetic
        if SqlType.NULL in (left, right):
            return SqlType.NULL
        if left_class is None or right_class is None:
            return SqlType.UNKNOWN
        if left_class == "numeric" and right_class == "numeric":
            if op is BinaryOperator.DIV:
                return SqlType.FLOAT
            if SqlType.FLOAT in (left, right):
                return SqlType.FLOAT
            return SqlType.INTEGER
        if op is BinaryOperator.ADD and left_class == right_class == "string":
            return SqlType.VARCHAR  # concatenation
        if op is BinaryOperator.MUL and (
            (left_class == "string" and right in (SqlType.INTEGER, SqlType.BOOLEAN))
            or (right_class == "string" and left in (SqlType.INTEGER, SqlType.BOOLEAN))
        ):
            return SqlType.VARCHAR  # string repetition
        if op is BinaryOperator.SUB and left_class == right_class == "timestamp":
            return SqlType.UNKNOWN  # timedelta: outside the lattice
        self._error(
            f"invalid operands for {op.value}: {left.value} and "
            f"{right.value} in {format_expr(expr)}",
            expr.position,
        )
        return SqlType.UNKNOWN

    def _infer_function(
        self, expr: FunctionExpr, allow_aggregate: bool, in_aggregate: bool
    ) -> SqlType:
        name = expr.name.upper()
        if expr.is_aggregate:
            if not allow_aggregate or in_aggregate:
                self._error(
                    f"aggregate function {expr.name} is not allowed here",
                    expr.position,
                )
            arg_types = [
                self._infer(arg, allow_aggregate=True, in_aggregate=True)
                for arg in expr.args
                if not isinstance(arg, Star)
            ]
            if name == "COUNT":
                return SqlType.INTEGER
            if len(expr.args) != 1 or not arg_types:
                return SqlType.UNKNOWN  # arity errors are the engine's
            arg = arg_types[0]
            if name in ("SUM", "AVG"):
                if arg in (SqlType.VARCHAR, SqlType.TIMESTAMP):
                    self._error(
                        f"{name} requires numeric values, got {arg.value} "
                        f"in {format_expr(expr)}",
                        expr.position,
                    )
                    return SqlType.UNKNOWN
                if name == "AVG":
                    return SqlType.FLOAT if arg in _NUMERIC else SqlType.UNKNOWN
                if arg in (SqlType.INTEGER, SqlType.BOOLEAN):
                    return SqlType.INTEGER
                return SqlType.FLOAT if arg is SqlType.FLOAT else SqlType.UNKNOWN
            return arg  # MIN / MAX: any homogeneous column type works
        arg_types = [self._infer(arg, False, in_aggregate) for arg in expr.args]
        if name == "COALESCE":
            return self._join_types(arg_types)
        if len(arg_types) != 1:
            return SqlType.UNKNOWN  # unknown function / arity: engine's call
        arg = arg_types[0]
        if name == "ABS":
            if arg in (SqlType.VARCHAR, SqlType.TIMESTAMP):
                self._error(
                    f"ABS requires a numeric value, got {arg.value} "
                    f"in {format_expr(expr)}",
                    expr.position,
                )
                return SqlType.UNKNOWN
            return SqlType.INTEGER if arg is SqlType.BOOLEAN else arg
        if name == "LENGTH":
            if arg in _NUMERIC or arg is SqlType.TIMESTAMP:
                self._error(
                    f"LENGTH requires a string value, got {arg.value} "
                    f"in {format_expr(expr)}",
                    expr.position,
                )
                return SqlType.UNKNOWN
            return SqlType.NULL if arg is SqlType.NULL else SqlType.INTEGER
        if name in ("LOWER", "UPPER"):
            # implemented over str(value): never raises, any operand type
            return SqlType.NULL if arg is SqlType.NULL else SqlType.VARCHAR
        return SqlType.UNKNOWN

    @staticmethod
    def _join_types(arg_types: List[SqlType]) -> SqlType:
        """Least upper bound for COALESCE: NULLs drop out, numeric widens."""
        known = [t for t in arg_types if t is not SqlType.NULL]
        if not known:
            return SqlType.NULL
        if any(t is SqlType.UNKNOWN for t in known):
            return SqlType.UNKNOWN
        classes = {_type_class(t) for t in known}
        if len(classes) > 1:
            return SqlType.UNKNOWN
        if classes == {"numeric"}:
            if SqlType.FLOAT in known:
                return SqlType.FLOAT
            if SqlType.INTEGER in known:
                return SqlType.INTEGER
            return SqlType.BOOLEAN
        return known[0]

    def _infer_subquery(self, expr: ScalarSubquery) -> SqlType:
        sub = analyze_select(expr.select, self.tables)
        self.result.subqueries[id(expr.select)] = sub
        self.result.errors.extend(sub.errors)
        if len(sub.item_types) == 1 and sub.item_types[0] is not None:
            return sub.item_types[0]
        return SqlType.UNKNOWN

