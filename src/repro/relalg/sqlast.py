"""Abstract syntax tree of the SQL subset understood by the engine.

The subset covers what COSY needs (paper, Section 5): creating the schema,
bulk-inserting the Apprentice summary data, and evaluating the performance
property conditions and severity expressions as queries — selections,
equality joins over several tables, grouping with the standard aggregates,
ordering, scalar subqueries and parameter placeholders.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple, Union

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
    "format_expr",
]

#: Function names treated as aggregates when they appear in a select list,
#: HAVING or ORDER BY clause.
AGGREGATE_FUNCTIONS = frozenset({"SUM", "MIN", "MAX", "AVG", "COUNT"})


# --------------------------------------------------------------------------- #
# expressions
# --------------------------------------------------------------------------- #


class SqlExpr:
    """Base class of SQL expressions."""


@dataclass(frozen=True)
class Literal(SqlExpr):
    """A literal value (number, string, boolean or NULL)."""

    value: Any


@dataclass(frozen=True)
class ColumnRef(SqlExpr):
    """A (possibly qualified) column reference, e.g. ``r.region_id``."""

    name: str
    table: Optional[str] = None
    #: Character offset of the reference in the statement text, used for
    #: diagnostics only; excluded from equality so AST comparisons ignore it.
    position: Optional[int] = field(default=None, compare=False)

    def __str__(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Star(SqlExpr):
    """``*`` (only valid in ``SELECT *`` and ``COUNT(*)``)."""

    table: Optional[str] = None


@dataclass(frozen=True)
class Placeholder(SqlExpr):
    """A ``?`` parameter placeholder (bound positionally at execution time)."""

    index: int


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


@dataclass(frozen=True)
class BinaryOperation(SqlExpr):
    op: BinaryOperator
    left: SqlExpr
    right: SqlExpr
    position: Optional[int] = field(default=None, compare=False)
    #: The node as the user wrote it, when constant folding rebuilt this one
    #: (see ``semantics._fold_expr``): error messages name ``origin``.
    origin: Optional[SqlExpr] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class UnaryOperation(SqlExpr):
    """``NOT expr`` or ``-expr``."""

    op: str  # "NOT" | "-"
    operand: SqlExpr
    position: Optional[int] = field(default=None, compare=False)
    #: The unfolded original, as on :class:`BinaryOperation`.
    origin: Optional[SqlExpr] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class FunctionExpr(SqlExpr):
    """A function call; aggregate functions are listed in AGGREGATE_FUNCTIONS."""

    name: str
    args: Tuple[SqlExpr, ...] = ()
    distinct: bool = False
    position: Optional[int] = field(default=None, compare=False)

    @property
    def is_aggregate(self) -> bool:
        return self.name.upper() in AGGREGATE_FUNCTIONS


@dataclass(frozen=True)
class IsNull(SqlExpr):
    operand: SqlExpr
    negated: bool = False


@dataclass(frozen=True)
class InList(SqlExpr):
    """``expr IN (v1, v2, …)`` over literal/parameter values."""

    operand: SqlExpr
    items: Tuple[SqlExpr, ...]
    negated: bool = False


@dataclass(frozen=True)
class ScalarSubquery(SqlExpr):
    """A parenthesised SELECT used as a scalar value."""

    select: "SelectStatement"


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


@dataclass(frozen=True)
class SelectItem:
    expr: SqlExpr
    alias: Optional[str] = None


@dataclass(frozen=True)
class TableRef:
    name: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        """The name under which the table's columns are visible."""
        return self.alias or self.name


@dataclass(frozen=True)
class Join:
    table: TableRef
    on: Optional[SqlExpr] = None


@dataclass(frozen=True)
class OrderItem:
    expr: SqlExpr
    ascending: bool = True


@dataclass
class SelectStatement:
    items: List[SelectItem] = field(default_factory=list)
    from_tables: List[TableRef] = field(default_factory=list)
    joins: List[Join] = field(default_factory=list)
    where: Optional[SqlExpr] = None
    group_by: List[SqlExpr] = field(default_factory=list)
    having: Optional[SqlExpr] = None
    order_by: List[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None
    offset: Optional[int] = None
    distinct: bool = False

    @property
    def is_aggregate_query(self) -> bool:
        """True when the query groups or uses an aggregate in the select list."""
        if self.group_by:
            return True
        return any(_contains_aggregate(item.expr) for item in self.items)


def _contains_aggregate(expr: SqlExpr) -> bool:
    if isinstance(expr, FunctionExpr) and expr.is_aggregate:
        return True
    if isinstance(expr, BinaryOperation):
        return _contains_aggregate(expr.left) or _contains_aggregate(expr.right)
    if isinstance(expr, UnaryOperation):
        return _contains_aggregate(expr.operand)
    if isinstance(expr, FunctionExpr):
        return any(_contains_aggregate(arg) for arg in expr.args)
    if isinstance(expr, (IsNull,)):
        return _contains_aggregate(expr.operand)
    if isinstance(expr, InList):
        return _contains_aggregate(expr.operand)
    return False


@dataclass(frozen=True)
class ColumnDef:
    name: str
    type_name: str
    nullable: bool = True
    primary_key: bool = False


@dataclass
class CreateTableStatement:
    table: str
    columns: List[ColumnDef] = field(default_factory=list)
    if_not_exists: bool = False


@dataclass
class CreateIndexStatement:
    name: str
    table: str
    column: str
    #: ``CREATE INDEX ... ORDERED``: additionally maintain a sorted run per
    #: partition so range predicates and ORDER BY can use index order.
    ordered: bool = False


@dataclass
class InsertStatement:
    table: str
    columns: List[str] = field(default_factory=list)
    rows: List[List[SqlExpr]] = field(default_factory=list)


@dataclass
class DeleteStatement:
    table: str
    where: Optional[SqlExpr] = None


@dataclass
class DropTableStatement:
    table: str
    if_exists: bool = False


@dataclass(frozen=True)
class BeginStatement:
    """``BEGIN [TRANSACTION | WORK]`` — open an explicit transaction."""


@dataclass(frozen=True)
class CommitStatement:
    """``COMMIT [TRANSACTION | WORK]`` — make the open transaction durable."""


@dataclass(frozen=True)
class RollbackStatement:
    """``ROLLBACK [TRANSACTION | WORK]`` — undo the open transaction."""


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
