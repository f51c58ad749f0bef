"""Expression compilation: SQL expressions → Python closures over slot rows.

The interpreted executor (:mod:`repro.relalg.interp`) re-walks the expression
AST for every row it inspects and resolves every column reference through a
per-row dict-of-dicts environment.  This module removes both per-row costs:

* a :class:`SlotLayout` assigns every column of every table binding a fixed
  *slot* (a tuple position) at plan time, so a joined row is one flat tuple
  and a column reference compiles into a single indexed load;
* :func:`compile_row_expr` turns an expression into a Python closure
  ``fn(row, ctx) -> value`` — all dispatch on node types happens once, at
  compile time;
* :func:`compile_group_expr` compiles a select item or the HAVING of an
  aggregate query through the row compiler, with the group's row list as
  the row: it takes over only the aggregate calls, which fold the group,
  and the nodes that read a row but hold no aggregate, which read the
  group's first row.

``ctx`` is an :class:`ExecContext` carrying the positional parameters and
the :class:`~repro.relalg.rowset.QueryStats` counters.  This module plans
nothing: a scalar subquery compiles into a closure over the plan that the
caller's ``plan_subquery`` callback returns for its SELECT node (the
planner's per-statement memo, so each node is planned once).  That plan runs
at most once per execution: the first reference runs its execution body
(``QueryPlan._run``) on a child context that shares the statement's
parameters and subquery memo and counts into fresh counters, and every
later reference in the same execution replays the memoized value and
merges those counters again (subqueries cannot be correlated, so the value
depends only on the parameters and the tables, which a statement does not
change while it reads them).
"""

from __future__ import annotations

import operator
from itertools import repeat
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.relalg.errors import ExecutionError
from repro.relalg.rowset import QueryStats, _hashable, _is_true
from repro.relalg.sqlast import (
    BinaryOperation,
    BinaryOperator,
    ColumnRef,
    FunctionExpr,
    InList,
    InsertStatement,
    IsNull,
    Literal,
    Placeholder,
    ScalarSubquery,
    SelectStatement,
    SqlExpr,
    Star,
    UnaryOperation,
    _contains_aggregate,
    format_expr,
    walk,
)
from repro.relalg.storage import Table

__all__ = [
    "BatchPredicate",
    "ExecContext",
    "SlotLayout",
    "RowFn",
    "GroupFn",
    "compile_batch_aggregate",
    "compile_batch_expr",
    "compile_batch_predicate",
    "compile_row_expr",
    "compile_group_expr",
    "compile_insert_binder",
    "resolve_column",
]

#: A compiled per-row expression: ``fn(row, ctx) -> value``.
RowFn = Callable[[Sequence[Any], "ExecContext"], Any]
#: A compiled per-group expression: ``fn(group_rows, ctx) -> value``.
GroupFn = Callable[[List[Tuple[Any, ...]], "ExecContext"], Any]
#: ``plan_subquery(select) -> QueryPlan``: the planner's per-statement memo,
#: which plans a scalar subquery's SELECT node on first request and returns
#: that same plan on every later one.
SubqueryPlanner = Callable[[SelectStatement], Any]
#: ``hook(node) -> closure or None``: :func:`compile_row_expr` asks it first
#: at every node, and ``None`` hands the node back.
CompileHook = Callable[[SqlExpr], Optional[RowFn]]


class ExecContext:
    """Per-execution state threaded through every compiled closure."""

    __slots__ = ("params", "stats", "hash_tables", "subquery_memo", "opens")

    def __init__(
        self,
        params: Sequence[Any],
        stats: QueryStats,
        opens: Optional[List[int]] = None,
    ) -> None:
        self.params = params
        self.stats = stats
        #: EXPLAIN ANALYZE's counters, ``None`` on every other execution:
        #: ``opens[i]`` counts the opens of join level ``i``'s loop, and
        #: ``opens[len(levels)]`` the plan's joined rows, so ``opens[i + 1]``
        #: is the number of rows that survived level ``i``.
        self.opens = opens
        #: Lazily built hash-join tables, keyed by plan level index; the
        #: execution's first build creates the dict.
        self.hash_tables: Optional[
            Dict[int, Dict[Any, List[Tuple[Any, ...]]]]
        ] = None
        #: Scalar subquery results of this statement execution, keyed by the
        #: compiled subquery closure: ``(value, QueryStats of the run)``.
        #: The child context of a subquery run shares it.
        self.subquery_memo: Dict[RowFn, Tuple[Any, QueryStats]] = {}


class SlotLayout:
    """Slot (flat tuple position) assignment for a list of table bindings.

    Slots follow the *syntactic* binding order of the statement, regardless of
    the join order the planner picks, so projections and ``SELECT *`` output
    are stable under join reordering.
    """

    __slots__ = ("bindings", "ranges", "width")

    def __init__(self, bindings: List[Tuple[str, Table]]) -> None:
        self.bindings = bindings
        self.ranges: Dict[str, Tuple[int, int]] = {}
        offset = 0
        for binding, table in bindings:
            end = offset + len(table.schema.columns)
            self.ranges[binding] = (offset, end)
            offset = end
        self.width = offset

    def range_of(self, binding: str) -> Tuple[int, int]:
        """``(offset, offset + n_columns)`` of one binding."""
        return self.ranges[binding]

    def resolve(self, ref: ColumnRef) -> int:
        """The slot of a (possibly qualified) column reference, resolved by
        :func:`resolve_column` at plan time rather than per row."""
        binding, _table, index = resolve_column(ref, self.bindings)
        return self.ranges[binding][0] + index


def resolve_column(
    ref: ColumnRef, bindings: Sequence[Tuple[str, Table]]
) -> Tuple[str, Table, int]:
    """``(binding, table, column index)`` a column reference names.

    The one name-resolution rule of every engine and of the analyzer: a
    qualified reference names a column of its own binding, an unqualified
    one the column of the single binding whose table declares that name.
    Raises :class:`ExecutionError` for unknown and ambiguous references,
    with the messages every engine reports.
    """
    name = ref.name.lower()
    qualifier = None if ref.table is None else ref.table.lower()
    matches = [
        (binding, table, index)
        for binding, table in bindings
        if qualifier is None or binding == qualifier
        for index, column in enumerate(table.schema.columns)
        if column.name.lower() == name
    ]
    if not matches:
        raise ExecutionError(f"unknown column {ref}")
    if len(matches) > 1:
        raise ExecutionError(f"ambiguous column reference {ref.name!r}")
    return matches[0]


# --------------------------------------------------------------------------- #
# shared operator semantics
# --------------------------------------------------------------------------- #


def _source_suffix(source: Optional[SqlExpr]) -> str:
    """`` in <expr>`` attribution, rendered lazily (errors only).

    A node constant folding rebuilt names its unfolded ``origin``, so every
    engine prints the expression the user wrote.
    """
    if source is None:
        return ""
    return f" in {format_expr(getattr(source, 'origin', None) or source)}"


def _apply_binop(
    op: BinaryOperator, left: Any, right: Any, source: Optional[SqlExpr] = None
) -> Any:
    """Non-logical binary operators with the engine's NULL semantics.

    ``source`` is the originating AST node; it is only formatted when an
    error is raised, so attribution costs nothing on the hot path.  Only
    the analyzer's constant folder passes none: it discards the error and
    leaves the expression for the engine to evaluate.
    """
    if left is None or right is None:
        # Simplified NULL semantics: any comparison or arithmetic with NULL
        # yields NULL (which is falsy in predicates).
        return None
    try:
        if op is BinaryOperator.ADD:
            return left + right
        if op is BinaryOperator.SUB:
            return left - right
        if op is BinaryOperator.MUL:
            return left * right
        if op is BinaryOperator.DIV:
            if right == 0:
                raise ExecutionError(
                    f"division by zero{_source_suffix(source)}"
                )
            return left / right
    except TypeError:
        raise ExecutionError(
            f"invalid operands for {op.value}: {left!r} and {right!r}"
            f"{_source_suffix(source)}"
        ) from None
    try:
        if op is BinaryOperator.EQ:
            return left == right
        if op is BinaryOperator.NE:
            return left != right
        if op is BinaryOperator.LT:
            return left < right
        if op is BinaryOperator.LE:
            return left <= right
        if op is BinaryOperator.GT:
            return left > right
        if op is BinaryOperator.GE:
            return left >= right
    except TypeError as exc:
        raise ExecutionError(
            f"cannot compare {left!r} and {right!r}: {exc}"
            f"{_source_suffix(source)}"
        ) from None
    raise ExecutionError(f"unhandled operator {op}")


def _negate(value: Any, source: Optional[SqlExpr] = None) -> Any:
    """Unary minus with the engine's NULL semantics and typed errors."""
    if value is None:
        return None
    try:
        return -value
    except TypeError:
        raise ExecutionError(
            f"invalid operand for -: {value!r}{_source_suffix(source)}"
        ) from None


#: The one-argument scalar functions, over non-NULL values.
_SCALAR_FUNCTIONS: Dict[str, Callable[[Any], Any]] = {
    "ABS": abs,
    "LENGTH": len,
    "LOWER": lambda a: str(a).lower(),
    "UPPER": lambda a: str(a).upper(),
}


def _apply_function(
    name: str, value: Any, source: Optional[SqlExpr] = None
) -> Any:
    """A :data:`_SCALAR_FUNCTIONS` call: NULL in, NULL out, typed errors."""
    if value is None:
        return None
    try:
        return _SCALAR_FUNCTIONS[name](value)
    except TypeError:
        raise ExecutionError(
            f"invalid argument for {name}: {value!r}{_source_suffix(source)}"
        ) from None


#: Final folds over one group's NULL-stripped (and DISTINCT-deduped) value
#: list, shared by the row, batch and interpreted aggregates so accumulation
#: order (and hence float results) is the same in every engine.
_AGG_FOLDS: Dict[str, Callable[[List[Any]], Any]] = {
    "COUNT": len,
    "SUM": lambda values: sum(values) if values else None,
    "AVG": lambda values: (sum(values) / len(values)) if values else None,
    "MIN": lambda values: min(values) if values else None,
    "MAX": lambda values: max(values) if values else None,
}

#: The pairwise step of every fold that can raise, replayed to name the
#: value it could not combine.
_FOLD_STEPS: Dict[str, Callable[[Any, Any], Any]] = {
    "SUM": operator.add, "AVG": operator.add, "MIN": min, "MAX": max,
}


def _apply_fold(
    name: str, values: List[Any], source: Optional[SqlExpr] = None
) -> Any:
    """An :data:`_AGG_FOLDS` fold with typed errors.

    The fold itself runs unchanged (float accumulation stays byte-identical);
    only when it raises are the values replayed pairwise, to name the first
    one the running result cannot absorb.
    """
    try:
        return _AGG_FOLDS[name](values)
    except TypeError:
        step = _FOLD_STEPS[name]
        acc = 0 if step is operator.add else values[0]
        for value in values:
            try:
                acc = step(acc, value)
            except TypeError:
                break
        raise ExecutionError(
            f"invalid value for {name}: {value!r}{_source_suffix(source)}"
        ) from None


def _counts_rows(call: FunctionExpr) -> bool:
    """Whether an aggregate call is ``COUNT(*)`` (or ``COUNT()``): its value
    is the group's row count, and it evaluates no argument."""
    return call.name.upper() == "COUNT" and (
        not call.args or isinstance(call.args[0], Star)
    )


def _fold_group(
    name: str,
    values: Iterable[Any],
    distinct: bool,
    source: Optional[SqlExpr] = None,
) -> Any:
    """One aggregate call over one group's argument values, in row order.

    NULLs are skipped, DISTINCT keeps each value's first occurrence, and
    :func:`_apply_fold` folds what is left.  The row, batch and interpreted
    aggregates all call it, once per group.
    """
    kept = [value for value in values if value is not None]
    if distinct:
        first: Dict[Any, Any] = {}
        for value in kept:
            first.setdefault(_hashable(value), value)
        kept = list(first.values())
    return _apply_fold(name, kept, source)


# --------------------------------------------------------------------------- #
# per-row compilation
# --------------------------------------------------------------------------- #


def compile_row_expr(
    expr: SqlExpr,
    layout: SlotLayout,
    plan_subquery: SubqueryPlanner,
    hook: Optional[CompileHook] = None,
) -> RowFn:
    """Compile ``expr`` into a closure evaluated against one slot row.

    ``hook``, when given, sees every node first: a closure it returns
    compiles that node, and ``None`` hands the node back to this compiler,
    whose operands meet the hook again (:func:`compile_group_expr`).
    """
    if hook is not None:
        fn = hook(expr)
        if fn is not None:
            return fn
    if isinstance(expr, Literal):
        value = expr.value
        return lambda row, ctx: value
    if isinstance(expr, Placeholder):
        index = expr.index
        needed = index + 1

        def param_fn(row: Sequence[Any], ctx: ExecContext) -> Any:
            params = ctx.params
            if index >= len(params):
                raise ExecutionError(
                    f"statement uses {needed} parameter(s) but only "
                    f"{len(params)} were supplied"
                )
            return params[index]

        return param_fn
    if isinstance(expr, ColumnRef):
        slot = layout.resolve(expr)
        return lambda row, ctx: row[slot]
    if isinstance(expr, UnaryOperation):
        operand = compile_row_expr(expr.operand, layout, plan_subquery, hook)
        if expr.op == "NOT":
            return lambda row, ctx: (
                None if (v := operand(row, ctx)) is None else not _is_true(v)
            )
        return lambda row, ctx: _negate(operand(row, ctx), expr)
    if isinstance(expr, BinaryOperation):
        op = expr.op
        # The hashed OR-set reads ``row[slot]``, which a hook's row may not be.
        if op is BinaryOperator.OR and hook is None:
            member_fn = _compile_literal_or_set(expr, layout)
            if member_fn is not None:
                return member_fn
        left = compile_row_expr(expr.left, layout, plan_subquery, hook)
        right = compile_row_expr(expr.right, layout, plan_subquery, hook)
        if op is BinaryOperator.AND:
            return lambda row, ctx: (
                _is_true(left(row, ctx)) and _is_true(right(row, ctx))
            )
        if op is BinaryOperator.OR:
            return lambda row, ctx: (
                _is_true(left(row, ctx)) or _is_true(right(row, ctx))
            )
        if op is BinaryOperator.EQ:
            # The hottest predicate form; specialise it.
            def eq_fn(row: Sequence[Any], ctx: ExecContext) -> Any:
                a = left(row, ctx)
                b = right(row, ctx)
                if a is None or b is None:
                    return None
                return a == b

            return eq_fn
        return lambda row, ctx: _apply_binop(
            op, left(row, ctx), right(row, ctx), expr
        )
    if isinstance(expr, IsNull):
        operand = compile_row_expr(expr.operand, layout, plan_subquery, hook)
        if expr.negated:
            return lambda row, ctx: operand(row, ctx) is not None
        return lambda row, ctx: operand(row, ctx) is None
    if isinstance(expr, InList):
        operand = compile_row_expr(expr.operand, layout, plan_subquery, hook)
        items = [
            compile_row_expr(item, layout, plan_subquery, hook)
            for item in expr.items
        ]
        negated = expr.negated

        def in_fn(row: Sequence[Any], ctx: ExecContext) -> Any:
            value = operand(row, ctx)
            # Evaluate every member (as the interpreter does) so side effects
            # such as subquery statistics are identical.
            members = [item(row, ctx) for item in items]
            found = value in members
            return (not found) if negated else found

        return in_fn
    if isinstance(expr, FunctionExpr):
        if expr.is_aggregate:
            raise ExecutionError(
                f"aggregate function {expr.name} is not allowed here"
            )
        return _compile_scalar_function(expr, layout, plan_subquery, hook)
    if isinstance(expr, ScalarSubquery):
        return _compile_subquery(expr, plan_subquery)
    if isinstance(expr, Star):
        raise ExecutionError("'*' is only valid in SELECT lists and COUNT(*)")
    raise ExecutionError(f"unsupported expression {expr!r}")


def _literal_class(value: Any) -> Optional[str]:
    """The type class of a literal a hashed OR-set may hold (``None``: the
    literal cannot join one — NULL, NaN, or neither a number nor a string)."""
    if isinstance(value, str):
        return "string"
    if isinstance(value, (bool, int, float)) and value == value:
        return "number"
    return None


def _compile_literal_or_set(
    expr: BinaryOperation, layout: SlotLayout
) -> Optional[RowFn]:
    """An OR-chain of ``col = literal`` terms as one hashed membership test.

    Applies when every leaf of the flattened OR tree equates the same slot
    with a literal (either side), and the literals share one type class
    (:func:`_literal_class`); returns ``None`` for any other shape.
    ``row[slot] in frozenset(literals)`` returns exactly the bool the chain
    of ``=`` closures returns: ``True`` when some literal equals the value
    (membership uses the same ``==``, and equal numbers hash alike), and
    ``False`` for NULL, which the chain's UNKNOWN leaves also give.  No leaf
    can raise, so no error is lost; columns resolve in leaf order, so an
    unknown column raises the chain's first error.
    """
    leaves: List[SqlExpr] = []
    pending: List[SqlExpr] = [expr]
    while pending:
        node = pending.pop()
        if isinstance(node, BinaryOperation) and node.op is BinaryOperator.OR:
            pending.append(node.right)
            pending.append(node.left)
        else:
            leaves.append(node)
    terms: List[Tuple[ColumnRef, Any]] = []
    for leaf in leaves:
        if not (
            isinstance(leaf, BinaryOperation) and leaf.op is BinaryOperator.EQ
        ):
            return None
        if isinstance(leaf.left, ColumnRef) and isinstance(leaf.right, Literal):
            terms.append((leaf.left, leaf.right.value))
        elif isinstance(leaf.right, ColumnRef) and isinstance(
            leaf.left, Literal
        ):
            terms.append((leaf.right, leaf.left.value))
        else:
            return None
    classes = {_literal_class(value) for _ref, value in terms}
    if len(classes) != 1 or None in classes:
        return None
    slots = {layout.resolve(ref) for ref, _value in terms}
    if len(slots) != 1:
        return None
    slot = slots.pop()
    members = frozenset(value for _ref, value in terms)
    return lambda row, ctx: row[slot] in members


def _compile_scalar_function(
    expr: FunctionExpr,
    layout: SlotLayout,
    plan_subquery: SubqueryPlanner,
    hook: Optional[CompileHook],
) -> RowFn:
    name = expr.name.upper()
    args = [
        compile_row_expr(arg, layout, plan_subquery, hook) for arg in expr.args
    ]
    if name == "COALESCE":
        def coalesce_fn(row: Sequence[Any], ctx: ExecContext) -> Any:
            for arg in args:
                value = arg(row, ctx)
                if value is not None:
                    return value
            return None

        return coalesce_fn
    if name in _SCALAR_FUNCTIONS and len(args) == 1:
        arg = args[0]
        return lambda row, ctx: _apply_function(name, arg(row, ctx), expr)
    raise ExecutionError(f"unknown function {expr.name!r}")


def _compile_subquery(
    expr: ScalarSubquery, plan_subquery: SubqueryPlanner
) -> RowFn:
    plan = plan_subquery(expr.select)

    def subquery_fn(row: Sequence[Any], ctx: ExecContext) -> Any:
        stats = ctx.stats
        memo = ctx.subquery_memo
        replay = memo.get(subquery_fn)
        if replay is not None:
            # Replay: charge the counters of the first run again, so the
            # totals equal those of re-running the plan at every reference.
            value, sub = replay
            stats.merge(sub)
            stats.subqueries += 1
            stats.subquery_replays += 1 + sub.subqueries - sub.subquery_replays
            return value
        # The run's own counters are its replay record; its nested
        # subqueries memoize in the statement's memo.
        child = ExecContext(ctx.params, QueryStats())
        child.subquery_memo = memo
        rows = plan._run(child, False)
        sub = child.stats
        stats.merge(sub)
        stats.subqueries += 1
        if not rows:
            value = None
        elif len(rows) != 1:
            # The planner admits only one-column subqueries.
            raise ExecutionError(
                f"scalar subquery returned {len(rows)} row(s) × 1 column(s)"
            )
        else:
            value = rows[0][0]
        memo[subquery_fn] = (value, sub)
        return value

    return subquery_fn


# --------------------------------------------------------------------------- #
# batch compilation (vectorized columnar scans)
# --------------------------------------------------------------------------- #

#: A compiled batch predicate over one columnar chunk:
#: ``fn(columns, n, ctx) -> surviving row indexes`` (ascending, chunk-local),
#: or ``None`` meaning every row survived.
BatchPredicate = Callable[
    [Sequence[List[Any]], int, "ExecContext"], Optional[List[int]]
]

#: ``("const", fn(ctx) -> value)`` — row-independent subexpression, or
#: ``("vec", fn(columns, n, ctx) -> values, needed column positions)``.
_BatchNode = Tuple[Any, ...]


def _gather(
    cols: Sequence[List[Any]], needed: frozenset, idxs: List[int]
) -> List[Optional[List[Any]]]:
    """Project ``cols`` down to the rows in ``idxs``.

    Only the positions a subtree actually reads (``needed``) are gathered;
    the rest stay ``None``, keeping conditional evaluation (AND/OR/COALESCE
    narrowing) linear in the surviving-row count rather than the chunk width.
    """
    sub: List[Optional[List[Any]]] = [None] * len(cols)
    for j in needed:
        column = cols[j]
        sub[j] = [column[i] for i in idxs]
    return sub


_BATCH_PY_OPS = {
    BinaryOperator.ADD: operator.add,
    BinaryOperator.SUB: operator.sub,
    BinaryOperator.MUL: operator.mul,
    BinaryOperator.DIV: operator.truediv,
    BinaryOperator.EQ: operator.eq,
    BinaryOperator.NE: operator.ne,
    BinaryOperator.LT: operator.lt,
    BinaryOperator.LE: operator.le,
    BinaryOperator.GT: operator.gt,
    BinaryOperator.GE: operator.ge,
}


def _batch_binop(op: BinaryOperator, left: _BatchNode,
                 right: _BatchNode,
                 source: Optional[SqlExpr] = None) -> _BatchNode:
    """Batch form of a non-logical binary operator (at least one operand
    reads a column).

    The fast inner comprehension uses the raw Python operator; if it raises
    (mixed-type comparison, division by zero) the chunk is re-evaluated
    through :func:`_apply_binop`, which raises the row engine's exact error
    at the exact offending row — the happy path stays allocation-lean while
    the error path stays byte-identical.  ``source`` is the originating AST
    node, threaded into :func:`_apply_binop` so replayed errors name the
    offending expression.
    """
    lkind, lfn = left[0], left[1]
    rkind, rfn = right[0], right[1]
    py = _BATCH_PY_OPS[op]
    if lkind == "const":
        def op_cv(cols, n, ctx):
            a = lfn(ctx)
            b = rfn(cols, n, ctx)
            if a is None:
                return [None] * n
            try:
                return [None if y is None else py(a, y) for y in b]
            except (TypeError, ZeroDivisionError):
                return [_apply_binop(op, a, y, source) for y in b]

        return ("vec", op_cv, right[2])
    if rkind == "const":
        def op_vc(cols, n, ctx):
            a = lfn(cols, n, ctx)
            b = rfn(ctx)
            if b is None:
                return [None] * n
            try:
                return [None if x is None else py(x, b) for x in a]
            except (TypeError, ZeroDivisionError):
                return [_apply_binop(op, x, b, source) for x in a]

        return ("vec", op_vc, left[2])

    def op_vv(cols, n, ctx):
        a = lfn(cols, n, ctx)
        b = rfn(cols, n, ctx)
        try:
            return [
                None if (x is None or y is None) else py(x, y)
                for x, y in zip(a, b)
            ]
        except (TypeError, ZeroDivisionError):
            return [_apply_binop(op, x, y, source) for x, y in zip(a, b)]

    return ("vec", op_vv, left[2] | right[2])


def _batch_logical(op: BinaryOperator, left: _BatchNode,
                   right: _BatchNode) -> _BatchNode:
    """Batch AND/OR with the row path's short-circuit evaluation order.

    The right operand is evaluated only over the rows the left side did not
    already decide (left-truthy rows for AND, left-falsy for OR), via
    :func:`_gather` — so a right side that would raise (missing parameter,
    type error) raises exactly when the row engine would.
    """
    lkind, lfn = left[0], left[1]
    rkind, rfn = right[0], right[1]
    conjunction = op is BinaryOperator.AND
    if lkind == "const":
        def logical_cv(cols, n, ctx):
            decided = _is_true(lfn(ctx))
            if conjunction and not decided:
                return [False] * n
            if not conjunction and decided:
                return [True] * n
            return [_is_true(v) for v in rfn(cols, n, ctx)]

        return ("vec", logical_cv, right[2])

    def logical_v(cols, n, ctx):
        lv = lfn(cols, n, ctx)
        if conjunction:
            out = [False] * n
            undecided = [i for i, v in enumerate(lv) if _is_true(v)]
        else:
            out = [_is_true(v) for v in lv]
            undecided = [i for i in range(n) if not out[i]]
        if not undecided:
            return out
        if rkind == "const":
            if _is_true(rfn(ctx)):
                for i in undecided:
                    out[i] = True
            return out
        sub = _gather(cols, right[2], undecided)
        rv = rfn(sub, len(undecided), ctx)
        for i, v in zip(undecided, rv):
            out[i] = _is_true(v)
        return out

    needed = left[2] | (right[2] if rkind == "vec" else frozenset())
    return ("vec", logical_v, needed)


#: Node kinds that read nothing from a row themselves.
_ROW_FREE = (Literal, Placeholder, UnaryOperation, IsNull, BinaryOperation,
             InList)


def _row_independent(expr: SqlExpr) -> bool:
    """Whether ``expr`` reads no column, no subquery and no aggregate."""
    return all(
        isinstance(node, _ROW_FREE)
        or (isinstance(node, FunctionExpr) and not node.is_aggregate)
        for node in walk(expr)
    )


def _no_subqueries(select: SelectStatement) -> Any:
    """Subquery callback of batch constants, which hold no subqueries."""
    raise ExecutionError("a batch constant cannot hold a scalar subquery")


def compile_batch_expr(expr: SqlExpr, layout: SlotLayout, offset: int,
                       end: int) -> Optional[_BatchNode]:
    """Compile one expression into a batch node, or ``None``.

    ``("const", fn(ctx))`` for a row-independent expression, compiled by
    :func:`compile_row_expr` (the one implementation of scalar semantics),
    or ``("vec", fn(columns, n, ctx), needed)`` for a column-dependent one,
    where ``needed`` holds the chunk positions it reads.  ``[offset, end)``
    is the slot range the caller can materialise as columns; expressions
    reaching outside it (or containing scalar subqueries, row-dependent IN
    lists or unknown functions) return ``None`` and stay on the
    row-at-a-time path.

    Callers batch-compile only expressions the row compiler has already
    compiled (driving filters, hash-join keys, group keys, aggregate
    arguments), so compiling a constant subtree again cannot raise.
    """
    if _row_independent(expr):
        fn = compile_row_expr(expr, layout, _no_subqueries)
        return ("const", lambda ctx: fn((), ctx))
    if isinstance(expr, ColumnRef):
        slot = layout.resolve(expr)
        if not offset <= slot < end:
            return None
        j = slot - offset
        return ("vec", lambda cols, n, ctx: cols[j], frozenset((j,)))
    # Below, every node reads a column, so at least one child is a "vec".
    if isinstance(expr, UnaryOperation):
        operand = compile_batch_expr(expr.operand, layout, offset, end)
        if operand is None:
            return None
        ofn = operand[1]
        if expr.op == "NOT":
            return ("vec", lambda cols, n, ctx: [
                None if v is None else not _is_true(v)
                for v in ofn(cols, n, ctx)
            ], operand[2])

        def negate_vec(cols, n, ctx):
            values = ofn(cols, n, ctx)
            try:
                return [None if v is None else -v for v in values]
            except TypeError:
                return [_negate(v, expr) for v in values]

        return ("vec", negate_vec, operand[2])
    if isinstance(expr, BinaryOperation):
        left = compile_batch_expr(expr.left, layout, offset, end)
        if left is None:
            return None
        right = compile_batch_expr(expr.right, layout, offset, end)
        if right is None:
            return None
        if expr.op in (BinaryOperator.AND, BinaryOperator.OR):
            return _batch_logical(expr.op, left, right)
        return _batch_binop(expr.op, left, right, expr)
    if isinstance(expr, IsNull):
        operand = compile_batch_expr(expr.operand, layout, offset, end)
        if operand is None:
            return None
        ofn = operand[1]
        if expr.negated:
            return ("vec", lambda cols, n, ctx: [
                v is not None for v in ofn(cols, n, ctx)
            ], operand[2])
        return ("vec", lambda cols, n, ctx: [
            v is None for v in ofn(cols, n, ctx)
        ], operand[2])
    if isinstance(expr, InList):
        operand = compile_batch_expr(expr.operand, layout, offset, end)
        if operand is None:
            return None
        item_nodes = [
            compile_batch_expr(item, layout, offset, end)
            for item in expr.items
        ]
        # Row-dependent list members would need per-row re-evaluation; leave
        # those predicates to the row engine.
        if any(node is None or node[0] != "const" for node in item_nodes):
            return None
        item_fns = [node[1] for node in item_nodes]
        ofn = operand[1]
        negated = expr.negated

        def in_vec(cols, n, ctx):
            values = ofn(cols, n, ctx)
            members = [fn(ctx) for fn in item_fns]
            if negated:
                return [v not in members for v in values]
            return [v in members for v in values]

        return ("vec", in_vec, operand[2])
    if isinstance(expr, FunctionExpr):
        return _batch_function(expr, layout, offset, end)
    # ScalarSubquery (needs per-row plan execution + stats merging), Star and
    # anything unrecognised: row-at-a-time only.
    return None


def _batch_function(expr: FunctionExpr, layout: SlotLayout, offset: int,
                    end: int) -> Optional[_BatchNode]:
    if expr.is_aggregate:
        return None
    name = expr.name.upper()
    arg_nodes = [
        compile_batch_expr(arg, layout, offset, end) for arg in expr.args
    ]
    if any(node is None for node in arg_nodes):
        return None
    if name == "COALESCE":
        needed = frozenset().union(
            *(node[2] for node in arg_nodes if node[0] == "vec")
        )

        def coalesce_vec(cols, n, ctx):
            out: List[Any] = [None] * n
            pending = list(range(n))
            for node in arg_nodes:
                if not pending:
                    break
                if node[0] == "const":
                    value = node[1](ctx)
                    if value is not None:
                        for i in pending:
                            out[i] = value
                        pending = []
                    continue
                if len(pending) == n:
                    values = node[1](cols, n, ctx)
                else:
                    sub = _gather(cols, node[2], pending)
                    values = node[1](sub, len(pending), ctx)
                still: List[int] = []
                for i, v in zip(pending, values):
                    if v is None:
                        still.append(i)
                    else:
                        out[i] = v
                pending = still
            return out

        return ("vec", coalesce_vec, needed)
    fn = _SCALAR_FUNCTIONS.get(name)
    if fn is None or len(arg_nodes) != 1:
        return None
    afn = arg_nodes[0][1]

    def function_vec(cols, n, ctx):
        values = afn(cols, n, ctx)
        try:
            return [None if v is None else fn(v) for v in values]
        except TypeError:
            return [_apply_function(name, v, expr) for v in values]

    return ("vec", function_vec, arg_nodes[0][2])


def compile_batch_predicate(
    exprs: Sequence[SqlExpr], layout: SlotLayout, offset: int, end: int
) -> Optional[BatchPredicate]:
    """Compile a conjunct list into one batch predicate, or ``None``.

    The predicate evaluates the conjuncts in order over a columnar chunk of
    the driving binding (slots ``[offset, end)``), narrowing the surviving
    row set between conjuncts exactly as the row engine's per-row
    short-circuit does: a later conjunct only ever sees — and can only ever
    raise for — rows that passed every earlier one.  It returns ascending
    chunk-local row indexes, or ``None`` when every row survived.  It has
    no side effects, so a caller whose chunk raises replays that chunk
    through the row filters to raise the row engine's error, at its row.

    Returns ``None`` (not vectorizable) when any conjunct contains a scalar
    subquery, a column outside the driving binding, a row-dependent IN list
    or an unknown function — the caller then keeps the row-at-a-time path.
    """
    compiled: List[_BatchNode] = []
    for expr in exprs:
        node = compile_batch_expr(expr, layout, offset, end)
        if node is None:
            return None
        compiled.append(node)

    def predicate(cols, n, ctx):
        if not n:
            return []
        sel: Optional[List[int]] = None
        for node in compiled:
            if sel is not None and not sel:
                return sel
            if node[0] == "const":
                if not _is_true(node[1](ctx)):
                    sel = []
                continue
            if sel is None:
                values = node[1](cols, n, ctx)
                sel = [i for i, v in enumerate(values) if _is_true(v)]
            else:
                sub = _gather(cols, node[2], sel)
                values = node[1](sub, len(sel), ctx)
                sel = [i for i, v in zip(sel, values) if _is_true(v)]
        return sel

    return predicate


def compile_batch_aggregate(
    statement: Any,
    layout: SlotLayout,
    item_group_fns: List[GroupFn],
    having_fn: Optional[GroupFn],
) -> Optional[Callable[[List[Tuple[Any, ...]], "ExecContext"],
                       Optional[List[Tuple[Any, ...]]]]]:
    """Compile grouped aggregation into one batch fold over the joined rows.

    Instead of materialising ``List[row]`` groups and re-walking each group
    once per aggregate closure, the batch path gathers the referenced
    columns once, assigns group ids in a single pass and folds each
    COUNT/SUM/MIN/MAX/AVG argument column per group with the row path's own
    per-group rule (:func:`_fold_group`) — reproducing the row engine's
    semantics exactly: group keys are ``_hashable``-wrapped tuples in
    first-seen order, and each group's values are folded in enumeration
    order.

    Select items that are not plain batchable aggregates (expressions *of*
    aggregates, grouping keys in the select list, scalar subqueries) fall
    back to their compiled group closure over the materialised group rows,
    evaluated group-major exactly like the row path.  HAVING always uses the
    row path's group closure.  Returns ``None`` at compile time when the
    group keys do not batch-compile or no item does; the returned closure
    itself returns ``None`` (having had no observable effect) when a fold
    raises — the caller then replays the row-at-a-time aggregation, which
    reproduces the exact row-path error or result.
    """
    width = layout.width
    key_nodes: List[_BatchNode] = []
    for expr in statement.group_by:
        node = compile_batch_expr(expr, layout, 0, width)
        if node is None:
            return None
        key_nodes.append(node)
    #: ("count*",) | ("fold", name, arg_node, distinct) | ("group", fn)
    item_plans: List[Tuple[Any, ...]] = []
    batched = 0
    for index, item in enumerate(statement.items):
        expr = item.expr
        plan: Optional[Tuple[Any, ...]] = None
        if isinstance(expr, FunctionExpr) and expr.is_aggregate:
            name = expr.name.upper()
            if _counts_rows(expr):
                plan = ("count*",)
            elif name in _AGG_FOLDS and expr.args:
                node = compile_batch_expr(expr.args[0], layout, 0, width)
                if node is not None:
                    plan = ("fold", name, node, expr.distinct)
        if plan is None:
            plan = ("group", item_group_fns[index])
        else:
            batched += 1
        item_plans.append(plan)
    if not batched:
        return None
    needed: set = set()
    for node in key_nodes:
        if node[0] == "vec":
            needed |= node[2]
    for plan in item_plans:
        if plan[0] == "fold" and plan[2][0] == "vec":
            needed |= plan[2][2]
    need_group_rows = having_fn is not None or any(
        plan[0] == "group" for plan in item_plans
    )

    def batch_aggregate(rows, ctx):
        # The pre-pass (column gathering, group assignment, aggregate folds)
        # is pure: nothing here touches ctx.stats, so bailing out with None
        # lets the caller replay the row path for the byte-identical result —
        # including errors the row path would only raise later (or, when a
        # HAVING filters the offending group, never).
        try:
            n = len(rows)
            cols: List[Optional[List[Any]]] = [None] * width
            for j in needed:
                cols[j] = [row[j] for row in rows]
            group_ids: Dict[Tuple[Any, ...], int] = {}
            order_count = 0
            member_idxs: List[List[int]] = []
            if key_nodes:
                key_cols = []
                for node in key_nodes:
                    if node[0] == "const":
                        key_cols.append([_hashable(node[1](ctx))] * n)
                    else:
                        key_cols.append(
                            [_hashable(v) for v in node[1](cols, n, ctx)]
                        )
                if len(key_cols) == 1:
                    keys: Any = ((k,) for k in key_cols[0])
                else:
                    keys = zip(*key_cols)
                for i, key in enumerate(keys):
                    gid = group_ids.get(key)
                    if gid is None:
                        group_ids[key] = gid = order_count
                        order_count += 1
                        member_idxs.append([i])
                    else:
                        member_idxs[gid].append(i)
            else:
                member_idxs.append(list(range(n)))
                order_count = 1
            folded: List[Optional[List[Any]]] = [None] * len(item_plans)
            for index, plan in enumerate(item_plans):
                kind = plan[0]
                if kind == "count*":
                    folded[index] = [len(idxs) for idxs in member_idxs]
                elif kind == "fold":
                    _, name, node, distinct = plan
                    if node[0] == "const":
                        col = [node[1](ctx)] * n
                    else:
                        col = node[1](cols, n, ctx)
                    folded[index] = [
                        _fold_group(name, map(col.__getitem__, idxs), distinct)
                        for idxs in member_idxs
                    ]
        except Exception:  # lint: allow-broad-except
            return None
        # Emission is group-major — HAVING first, then the items left to
        # right — exactly the row path's order, so closures with side
        # effects (scalar subqueries bumping counters) stay byte-identical.
        out: List[Tuple[Any, ...]] = []
        for gid in range(order_count):
            group = (
                [rows[i] for i in member_idxs[gid]] if need_group_rows
                else None
            )
            if having_fn is not None and not _is_true(having_fn(group, ctx)):
                continue
            out.append(tuple(
                plan[1](group, ctx) if plan[0] == "group" else folded[index][gid]
                for index, plan in enumerate(item_plans)
            ))
        return out

    return batch_aggregate


# --------------------------------------------------------------------------- #
# per-group compilation (aggregate queries)
# --------------------------------------------------------------------------- #


#: Nodes the group compiler hands back to the row compiler even when they
#: hold no aggregate: they read no row themselves.
_GROUP_FREE = (Literal, Placeholder, ScalarSubquery, UnaryOperation,
               BinaryOperation)


def _reads_first_row(node: SqlExpr) -> bool:
    """Whether a node of an aggregate query's item or HAVING is evaluated on
    its group's first row (NULL for an empty group): it holds no aggregate
    and is not a literal, parameter, scalar subquery or operator — a column,
    or a function, IS NULL or IN over columns.  The interpreter follows the
    same rule."""
    return not isinstance(node, _GROUP_FREE) and not _contains_aggregate(node)


def compile_group_expr(
    expr: SqlExpr, layout: SlotLayout, plan_subquery: SubqueryPlanner
) -> GroupFn:
    """Compile a select item or the HAVING of an aggregate query into a
    closure over one group's materialised rows.

    The row compiler compiles it, with the group's row list as its row, so
    every operator, function, IS NULL and IN keeps the one evaluation
    order.  Its hook takes over two kinds of node: an aggregate call folds
    the group, once per occurrence, when evaluation reaches it (AND/OR and
    COALESCE skip a fold they do not need), and a node
    :func:`_reads_first_row` names reads the group's first row.
    """

    def group_node(node: SqlExpr) -> Optional[GroupFn]:
        if isinstance(node, FunctionExpr) and node.is_aggregate:
            return _compile_aggregate_function(node, layout, plan_subquery)
        if not _reads_first_row(node):
            return None
        row_fn = compile_row_expr(node, layout, plan_subquery)
        return lambda group, ctx: (row_fn(group[0], ctx) if group else None)

    return compile_row_expr(expr, layout, plan_subquery, group_node)


def _compile_aggregate_function(
    expr: FunctionExpr, layout: SlotLayout, plan_subquery: SubqueryPlanner
) -> GroupFn:
    if _counts_rows(expr):
        return lambda group, ctx: len(group)
    name = expr.name.upper()
    if not expr.args:
        raise ExecutionError(f"aggregate {name} requires an argument")
    arg = compile_row_expr(expr.args[0], layout, plan_subquery)
    distinct = expr.distinct
    if name not in _AGG_FOLDS:
        raise ExecutionError(f"unknown aggregate {name}")
    return lambda group, ctx: _fold_group(
        name, map(arg, group, repeat(ctx)), distinct, expr
    )


# --------------------------------------------------------------------------- #
# DML binding (compiled INSERT value rows)
# --------------------------------------------------------------------------- #

#: A compiled parameter binder: ``bind(params) -> value``.
ConstFn = Callable[[Sequence[Any]], Any]


def _compile_const_expr(expr: SqlExpr) -> ConstFn:
    """Compile an INSERT value expression (literal / ``?`` / negation).

    All node-type dispatch happens here, once per statement; binding a
    parameter row is then a plain closure call per value.
    """
    if isinstance(expr, Literal):
        value = expr.value
        return lambda params: value
    if isinstance(expr, Placeholder):
        index = expr.index

        def param_fn(params: Sequence[Any]) -> Any:
            if index >= len(params):
                raise ExecutionError(
                    f"INSERT uses parameter {index + 1} but only "
                    f"{len(params)} parameter(s) were supplied"
                )
            return params[index]

        return param_fn
    if isinstance(expr, UnaryOperation) and expr.op == "-":
        operand = _compile_const_expr(expr.operand)
        return lambda params: _negate(operand(params), expr)
    raise ExecutionError("INSERT values must be literals or '?' parameters")


def compile_insert_binder(
    statement: InsertStatement, table: Table
) -> Callable[[Sequence[Any]], List[Sequence[Any]]]:
    """Compile an INSERT statement into a parameter binder.

    The returned ``bind(params)`` produces one full-width positional value
    row (schema column order, unmentioned columns ``None``) per ``VALUES``
    row of the statement.  Column-name resolution, arity checking and value
    expression dispatch all happen once here, so ``executemany`` re-binds a
    cached closure per parameter row instead of re-walking the statement —
    the DML counterpart of the SELECT plan cache.
    """
    schema = table.schema
    width = len(schema.columns)
    if statement.columns:
        positions = [schema.column_index(name) for name in statement.columns]
    else:
        positions = None
    compiled_rows: List[List[ConstFn]] = []
    for row_exprs in statement.rows:
        if positions is not None and len(row_exprs) != len(positions):
            raise ExecutionError(
                f"INSERT specifies {len(positions)} column(s) "
                f"but {len(row_exprs)} value(s)"
            )
        compiled_rows.append([_compile_const_expr(e) for e in row_exprs])

    def bind_values(params: Sequence[Any]) -> List[List[Any]]:
        rows: List[List[Any]] = []
        for fns in compiled_rows:
            if positions is None:
                rows.append([fn(params) for fn in fns])
            else:
                row: List[Any] = [None] * width
                for position, fn in zip(positions, fns):
                    row[position] = fn(params)
                rows.append(row)
        return rows

    if not all(
        isinstance(expr, Placeholder) for row in statement.rows for expr in row
    ):
        return bind_values
    # Every value is a '?': each row is the parameters gathered by index into
    # schema column order.  A short parameter row takes the per-value path,
    # which raises the error for the first missing parameter.
    needed = 1 + max(
        (expr.index for row in statement.rows for expr in row), default=-1
    )
    gatherers: List[Callable[[Sequence[Any]], Sequence[Any]]] = []
    for row_exprs in statement.rows:
        if positions is None:
            gather: List[Optional[int]] = [expr.index for expr in row_exprs]
        else:
            gather = [None] * width
            for position, expr in zip(positions, row_exprs):
                gather[position] = expr.index
        gatherers.append(_gatherer(gather))

    def bind(params: Sequence[Any]) -> List[Sequence[Any]]:
        if len(params) < needed:
            return bind_values(params)
        return [gatherer(params) for gatherer in gatherers]

    return bind


def _gatherer(gather: List[Optional[int]]) -> Callable[[Sequence[Any]], Sequence[Any]]:
    """``params`` → the value row whose column ``i`` is ``params[gather[i]]``
    (``None`` where ``gather[i]`` is ``None``)."""
    if len(gather) > 1 and None not in gather:
        return itemgetter(*gather)
    return lambda params: [None if i is None else params[i] for i in gather]
