"""Abstract syntax tree of the SQL subset understood by the engine.

The subset covers what COSY needs (paper, Section 5): creating the schema,
bulk-inserting the Apprentice summary data, and evaluating the performance
property conditions and severity expressions as queries — selections,
equality joins over several tables, grouping with the standard aggregates,
ordering, scalar subqueries and parameter placeholders.
"""

from __future__ import annotations

import enum
from typing import Any, Iterator, List, Optional, Tuple, Union

from repro.records import FrozenRecord, Record, slot_setters

__all__ = [
    "SqlExpr",
    "Literal",
    "ColumnRef",
    "Star",
    "Placeholder",
    "BinaryOperator",
    "BinaryOperation",
    "UnaryOperation",
    "FunctionExpr",
    "IsNull",
    "InList",
    "ScalarSubquery",
    "SelectItem",
    "TableRef",
    "Join",
    "OrderItem",
    "SelectStatement",
    "ColumnDef",
    "CreateTableStatement",
    "CreateIndexStatement",
    "InsertStatement",
    "DeleteStatement",
    "DropTableStatement",
    "BeginStatement",
    "CommitStatement",
    "RollbackStatement",
    "Statement",
    "AGGREGATE_FUNCTIONS",
    "clause_exprs",
    "format_expr",
    "walk",
]

#: Function names treated as aggregates when they appear in a select list,
#: HAVING or ORDER BY clause.
AGGREGATE_FUNCTIONS = frozenset({"SUM", "MIN", "MAX", "AVG", "COUNT"})


# --------------------------------------------------------------------------- #
# expressions
# --------------------------------------------------------------------------- #


class SqlExpr(FrozenRecord):
    """Base class of SQL expressions (immutable, hashable, compared by value)."""

    __slots__ = ()


class Literal(SqlExpr):
    """A literal value (number, string, boolean or NULL)."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        _literal_value(self, value)


(_literal_value,) = slot_setters(Literal)


class ColumnRef(SqlExpr):
    """A (possibly qualified) column reference, e.g. ``r.region_id``."""

    #: ``position`` is the character offset of the reference in the statement
    #: text, used for diagnostics only; equality ignores it.
    __slots__ = ("name", "table", "position")
    _uncompared = ("position",)

    def __init__(
        self, name: str, table: Optional[str] = None, position: Optional[int] = None
    ) -> None:
        _column_name(self, name)
        _column_table(self, table)
        _column_position(self, position)

    def __str__(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


_column_name, _column_table, _column_position = slot_setters(ColumnRef)


class Star(SqlExpr):
    """``*`` (only valid in ``SELECT *`` and ``COUNT(*)``)."""

    __slots__ = ("table",)

    def __init__(self, table: Optional[str] = None) -> None:
        _star_table(self, table)


(_star_table,) = slot_setters(Star)


class Placeholder(SqlExpr):
    """A ``?`` parameter placeholder (bound positionally at execution time)."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        _placeholder_index(self, index)


(_placeholder_index,) = slot_setters(Placeholder)


class BinaryOperator(enum.Enum):
    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    AND = "AND"
    OR = "OR"

    @property
    def is_comparison(self) -> bool:
        return self in (
            BinaryOperator.EQ,
            BinaryOperator.NE,
            BinaryOperator.LT,
            BinaryOperator.LE,
            BinaryOperator.GT,
            BinaryOperator.GE,
        )


class BinaryOperation(SqlExpr):
    #: ``origin`` is the node as the user wrote it, when constant folding
    #: rebuilt this one (see ``semantics._fold_expr``): error messages name it.
    __slots__ = ("op", "left", "right", "position", "origin")
    _uncompared = ("position", "origin")
    _unshown = ("origin",)

    def __init__(
        self,
        op: BinaryOperator,
        left: SqlExpr,
        right: SqlExpr,
        position: Optional[int] = None,
        origin: Optional[SqlExpr] = None,
    ) -> None:
        _binary_op(self, op)
        _binary_left(self, left)
        _binary_right(self, right)
        _binary_position(self, position)
        _binary_origin(self, origin)


_binary_op, _binary_left, _binary_right, _binary_position, _binary_origin = (
    slot_setters(BinaryOperation)
)


class UnaryOperation(SqlExpr):
    """``NOT expr`` or ``-expr``."""

    #: ``origin``: the unfolded original, as on :class:`BinaryOperation`.
    __slots__ = ("op", "operand", "position", "origin")
    _uncompared = ("position", "origin")
    _unshown = ("origin",)

    def __init__(
        self,
        op: str,  # "NOT" | "-"
        operand: SqlExpr,
        position: Optional[int] = None,
        origin: Optional[SqlExpr] = None,
    ) -> None:
        _unary_op(self, op)
        _unary_operand(self, operand)
        _unary_position(self, position)
        _unary_origin(self, origin)


_unary_op, _unary_operand, _unary_position, _unary_origin = slot_setters(UnaryOperation)


class FunctionExpr(SqlExpr):
    """A function call; aggregate functions are listed in AGGREGATE_FUNCTIONS."""

    __slots__ = ("name", "args", "distinct", "position")
    _uncompared = ("position",)

    def __init__(
        self,
        name: str,
        args: Tuple[SqlExpr, ...] = (),
        distinct: bool = False,
        position: Optional[int] = None,
    ) -> None:
        _function_name(self, name)
        _function_args(self, args)
        _function_distinct(self, distinct)
        _function_position(self, position)

    @property
    def is_aggregate(self) -> bool:
        return self.name.upper() in AGGREGATE_FUNCTIONS


_function_name, _function_args, _function_distinct, _function_position = (
    slot_setters(FunctionExpr)
)


class IsNull(SqlExpr):
    __slots__ = ("operand", "negated")

    def __init__(self, operand: SqlExpr, negated: bool = False) -> None:
        _is_null_operand(self, operand)
        _is_null_negated(self, negated)


_is_null_operand, _is_null_negated = slot_setters(IsNull)


class InList(SqlExpr):
    """``expr IN (v1, v2, …)`` over literal/parameter values."""

    __slots__ = ("operand", "items", "negated")

    def __init__(
        self, operand: SqlExpr, items: Tuple[SqlExpr, ...], negated: bool = False
    ) -> None:
        _in_list_operand(self, operand)
        _in_list_items(self, items)
        _in_list_negated(self, negated)


_in_list_operand, _in_list_items, _in_list_negated = slot_setters(InList)


class ScalarSubquery(SqlExpr):
    """A parenthesised SELECT used as a scalar value."""

    __slots__ = ("select",)

    def __init__(self, select: "SelectStatement") -> None:
        _subquery_select(self, select)


(_subquery_select,) = slot_setters(ScalarSubquery)


def walk(expr: SqlExpr) -> Iterator[SqlExpr]:
    """``expr`` and every expression below it: parents first, children left
    to right (a function's arguments in order; an IN list's operand, then
    its items).

    The one place that lists an expression's children: every structural
    question about a tree (which columns, bindings, subqueries or
    aggregates it holds) is a filter over this walk, so a new node kind is
    wired here once.  A :class:`ScalarSubquery` is yielded, but its SELECT
    is not entered: a subquery is a scope of its own.
    """
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, BinaryOperation):
            stack.append(node.right)
            stack.append(node.left)
        elif isinstance(node, (UnaryOperation, IsNull)):
            stack.append(node.operand)
        elif isinstance(node, FunctionExpr):
            stack.extend(reversed(node.args))
        elif isinstance(node, InList):
            stack.extend(reversed(node.items))
            stack.append(node.operand)


def format_expr(expr: SqlExpr) -> str:
    """Render an expression back to SQL-ish text for diagnostics.

    Used by error attribution and the EXPLAIN ``analysis:`` section; the
    output is for humans (it is not guaranteed to re-parse, e.g. scalar
    subqueries render abbreviated).
    """
    if isinstance(expr, Literal):
        value = expr.value
        if value is None:
            return "NULL"
        if value is True:
            return "TRUE"
        if value is False:
            return "FALSE"
        if isinstance(value, str):
            escaped = value.replace("'", "''")
            return f"'{escaped}'"
        return str(value)
    if isinstance(expr, ColumnRef):
        return str(expr)
    if isinstance(expr, Star):
        return f"{expr.table}.*" if expr.table else "*"
    if isinstance(expr, Placeholder):
        return "?"
    if isinstance(expr, BinaryOperation):
        left = format_expr(expr.left)
        right = format_expr(expr.right)
        if isinstance(expr.left, BinaryOperation):
            left = f"({left})"
        if isinstance(expr.right, BinaryOperation):
            right = f"({right})"
        return f"{left} {expr.op.value} {right}"
    if isinstance(expr, UnaryOperation):
        operand = format_expr(expr.operand)
        if isinstance(expr.operand, BinaryOperation):
            operand = f"({operand})"
        return f"NOT {operand}" if expr.op == "NOT" else f"-{operand}"
    if isinstance(expr, FunctionExpr):
        args = ", ".join(format_expr(arg) for arg in expr.args)
        prefix = "DISTINCT " if expr.distinct else ""
        return f"{expr.name.upper()}({prefix}{args})"
    if isinstance(expr, IsNull):
        middle = " IS NOT NULL" if expr.negated else " IS NULL"
        return format_expr(expr.operand) + middle
    if isinstance(expr, InList):
        items = ", ".join(format_expr(item) for item in expr.items)
        keyword = "NOT IN" if expr.negated else "IN"
        return f"{format_expr(expr.operand)} {keyword} ({items})"
    if isinstance(expr, ScalarSubquery):
        return "(SELECT ...)"
    return repr(expr)


# --------------------------------------------------------------------------- #
# statements
# --------------------------------------------------------------------------- #


class SelectItem(FrozenRecord):
    __slots__ = ("expr", "alias")

    def __init__(self, expr: SqlExpr, alias: Optional[str] = None) -> None:
        _item_expr(self, expr)
        _item_alias(self, alias)


_item_expr, _item_alias = slot_setters(SelectItem)


class TableRef(FrozenRecord):
    __slots__ = ("name", "alias")

    def __init__(self, name: str, alias: Optional[str] = None) -> None:
        _table_name(self, name)
        _table_alias(self, alias)

    @property
    def binding(self) -> str:
        """The name under which the table's columns are visible."""
        return self.alias or self.name


_table_name, _table_alias = slot_setters(TableRef)


class Join(FrozenRecord):
    __slots__ = ("table", "on")

    def __init__(self, table: TableRef, on: Optional[SqlExpr] = None) -> None:
        _join_table(self, table)
        _join_on(self, on)


_join_table, _join_on = slot_setters(Join)


class OrderItem(FrozenRecord):
    __slots__ = ("expr", "ascending")

    def __init__(self, expr: SqlExpr, ascending: bool = True) -> None:
        _order_expr(self, expr)
        _order_ascending(self, ascending)


_order_expr, _order_ascending = slot_setters(OrderItem)


class SelectStatement(Record):
    __slots__ = (
        "items", "from_tables", "joins", "where", "group_by", "having",
        "order_by", "limit", "offset", "distinct",
    )

    def __init__(
        self,
        items: Optional[List[SelectItem]] = None,
        from_tables: Optional[List[TableRef]] = None,
        joins: Optional[List[Join]] = None,
        where: Optional[SqlExpr] = None,
        group_by: Optional[List[SqlExpr]] = None,
        having: Optional[SqlExpr] = None,
        order_by: Optional[List[OrderItem]] = None,
        limit: Optional[int] = None,
        offset: Optional[int] = None,
        distinct: bool = False,
    ) -> None:
        self.items = [] if items is None else items
        self.from_tables = [] if from_tables is None else from_tables
        self.joins = [] if joins is None else joins
        self.where = where
        self.group_by = [] if group_by is None else group_by
        self.having = having
        self.order_by = [] if order_by is None else order_by
        self.limit = limit
        self.offset = offset
        self.distinct = distinct

    @property
    def is_aggregate_query(self) -> bool:
        """True when the query groups or uses an aggregate in the select list."""
        if self.group_by:
            return True
        return any(_contains_aggregate(item.expr) for item in self.items)


def clause_exprs(select: SelectStatement) -> List[SqlExpr]:
    """The expressions of one SELECT's own clauses, in clause order: select
    items, JOIN ON conditions, WHERE, GROUP BY, HAVING, ORDER BY."""
    exprs: List[SqlExpr] = [item.expr for item in select.items]
    exprs.extend(join.on for join in select.joins if join.on is not None)
    if select.where is not None:
        exprs.append(select.where)
    exprs.extend(select.group_by)
    if select.having is not None:
        exprs.append(select.having)
    exprs.extend(item.expr for item in select.order_by)
    return exprs


def _contains_aggregate(expr: SqlExpr) -> bool:
    """Whether ``expr`` calls an aggregate outside any scalar subquery."""
    return any(
        isinstance(node, FunctionExpr) and node.is_aggregate
        for node in walk(expr)
    )


class ColumnDef(FrozenRecord):
    __slots__ = ("name", "type_name", "nullable", "primary_key")

    def __init__(
        self, name: str, type_name: str, nullable: bool = True, primary_key: bool = False
    ) -> None:
        _def_name(self, name)
        _def_type_name(self, type_name)
        _def_nullable(self, nullable)
        _def_primary_key(self, primary_key)


_def_name, _def_type_name, _def_nullable, _def_primary_key = slot_setters(ColumnDef)


class CreateTableStatement(Record):
    __slots__ = ("table", "columns", "if_not_exists")

    def __init__(
        self,
        table: str,
        columns: Optional[List[ColumnDef]] = None,
        if_not_exists: bool = False,
    ) -> None:
        self.table = table
        self.columns = [] if columns is None else columns
        self.if_not_exists = if_not_exists


class CreateIndexStatement(Record):
    #: ``ordered`` (``CREATE INDEX ... ORDERED``): additionally maintain a
    #: sorted run so range predicates and ORDER BY can use index order.
    __slots__ = ("name", "table", "column", "ordered")

    def __init__(self, name: str, table: str, column: str, ordered: bool = False) -> None:
        self.name = name
        self.table = table
        self.column = column
        self.ordered = ordered


class InsertStatement(Record):
    __slots__ = ("table", "columns", "rows")

    def __init__(
        self,
        table: str,
        columns: Optional[List[str]] = None,
        rows: Optional[List[List[SqlExpr]]] = None,
    ) -> None:
        self.table = table
        self.columns = [] if columns is None else columns
        self.rows = [] if rows is None else rows


class DeleteStatement(Record):
    __slots__ = ("table", "where")

    def __init__(self, table: str, where: Optional[SqlExpr] = None) -> None:
        self.table = table
        self.where = where


class DropTableStatement(Record):
    __slots__ = ("table", "if_exists")

    def __init__(self, table: str, if_exists: bool = False) -> None:
        self.table = table
        self.if_exists = if_exists


class BeginStatement(FrozenRecord):
    """``BEGIN [TRANSACTION | WORK]`` — open an explicit transaction."""

    __slots__ = ()


class CommitStatement(FrozenRecord):
    """``COMMIT [TRANSACTION | WORK]`` — make the open transaction durable."""

    __slots__ = ()


class RollbackStatement(FrozenRecord):
    """``ROLLBACK [TRANSACTION | WORK]`` — undo the open transaction."""

    __slots__ = ()


Statement = Union[
    SelectStatement,
    CreateTableStatement,
    CreateIndexStatement,
    InsertStatement,
    DeleteStatement,
    DropTableStatement,
    BeginStatement,
    CommitStatement,
    RollbackStatement,
]
