"""Automatic translation of ASL performance properties into SQL queries.

The paper's prototype translated the conditions and severity expressions of
the performance properties into SQL *by the tool developer*; the conclusion
names the automatic translation as future work.  This module implements that
translation for the generated relational schema of
:mod:`repro.compiler.schema_gen`.

Translation pipeline (per property)::

    property declaration
      1. inline specification functions      (Duration(r,t) → Summary body …)
         and LET definitions, in one pass    (a fresh tree over the params)
      2. re-run type inference               (annotates every node)
      3. translate each condition /
         confidence / severity expression    (SQL text + parameter slots)
      4. fold the entries that read no data  (the ASL evaluator's value)

The central ideas of the translation:

* a property parameter of class type is represented by its row id and becomes
  a ``?`` parameter of the query;
* an aggregate over a collection attribute (``SUM(tt.Time WHERE tt IN
  r.TypTimes AND …)``) becomes a scalar subquery over the element table with
  the owner foreign key bound to the parameter;
* ``UNIQUE`` selections become scalar subqueries returning either a value
  column or the row id / foreign key (when the selected object is used as an
  object value);
* navigation across a reference attribute inside an aggregate
  (``sum.Run.NoPe``) becomes a join with the referenced table;
* the complete condition / confidence / severity expression is wrapped into
  ``SELECT <expr> AS value FROM dual`` so that one statement per entry is sent
  to the database — exactly the work distribution the paper recommends in
  Section 5;
* an entry that reads no data (only literals, specification constants and
  enum members under the operators, such as the bundled ``CONFIDENCE: 1``) is
  *folded*: the translator evaluates it once, with the ASL evaluator, and the
  pushdown strategy uses that value instead of a statement.  An entry whose
  evaluation raises stays a statement.

The result is the record every strategy evaluates,
:class:`repro.asl.compile.CompiledProperty`, with one :class:`CompiledQuery`
per entry; the pushdown strategy decides an instance through its
``evaluate``, the rule the ASL evaluator follows too.

Constructs outside this subset raise :class:`PushdownError`; the pushdown
strategy then evaluates that property client-side (and counts the fallback),
so adding new properties can never silently produce wrong results.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.asl.ast_nodes import (
    AggregateExpr,
    AttributeAccess,
    BinaryExpr,
    BinaryOp,
    BoolLiteral,
    Expr,
    FloatLiteral,
    FunctionCall,
    Identifier,
    IntLiteral,
    PropertyDecl,
    SetComprehension,
    StringLiteral,
    UnaryExpr,
    UnaryOp,
)
from repro.asl.compile import CompiledProperty
from repro.asl.errors import AslError, AslTypeError
from repro.asl.evaluator import AslEvaluator
from repro.asl.semantic import CheckedSpecification, SemanticChecker
from repro.asl.symbols import Scope
from repro.asl.types import ClassType, Type
from repro.compiler.schema_gen import DUAL_TABLE, PRIMARY_KEY, SchemaMapping
from repro.records import Record

__all__ = [
    "PushdownError",
    "CompiledQuery",
    "PropertyCompiler",
]


class PushdownError(AslError):
    """Raised when an expression cannot be translated into the SQL subset."""


class CompiledQuery(Record):
    """One generated SQL query computing a scalar value.

    ``param_slots`` names, for every ``?`` in textual order, the property
    parameter whose row id (or scalar value) must be bound at execution time.
    A *folded* query's expression reads no data: ``value`` is what the ASL
    evaluator computed for it at compile time, and ``sql`` the statement
    that computes the same value in the database.
    """

    __slots__ = ("sql", "param_slots", "folded", "value")

    def __init__(
        self,
        sql: str,
        param_slots: Optional[List[str]] = None,
        folded: bool = False,
        value: Any = None,
    ) -> None:
        self.sql = sql
        self.param_slots = [] if param_slots is None else param_slots
        self.folded = folded
        self.value = value

    def bind(self, values: Mapping[str, Any]) -> List[Any]:
        """Positional parameter list for ``values`` (param name → id/value)."""
        try:
            return [values[slot] for slot in self.param_slots]
        except KeyError as exc:
            raise KeyError(
                f"missing value for parameter {exc.args[0]!r}; query needs "
                f"{self.param_slots}"
            ) from None


class PropertyCompiler:
    """Compiles checked ASL properties into SQL for a generated schema."""

    def __init__(
        self,
        checked: CheckedSpecification,
        mapping: SchemaMapping,
        constants: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.checked = checked
        self.index = checked.index
        self.mapping = mapping
        #: Values specification constants in the SQL text and folds the
        #: entries that read no data, with the overrides (``constants``) the
        #: client-side evaluator of the same analysis sees.
        self.evaluator = AslEvaluator(checked, constants=constants)
        #: Types the inlined expressions against the specification's index.
        self._checker = SemanticChecker(checked.program)
        self._checker.index = checked.index

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def compile_property(self, name: str) -> CompiledProperty:
        """Compile one property; raises :class:`PushdownError` when impossible.

        Its LETs are inlined into the entries, so the record has none.
        """
        decl = self.index.properties.get(name)
        if decl is None:
            raise AslTypeError(f"unknown property {name!r}")
        param_types = {p.name: self._checker.resolve_type(p.type) for p in decl.params}
        substitutions = self._let_substitutions(decl)
        return CompiledProperty.from_decl(
            decl,
            [],
            lambda expr: self._compile_expr(expr, substitutions, param_types),
        )

    def compile_all(self) -> Dict[str, CompiledProperty]:
        """Compile every property of the specification."""
        return {
            name: self.compile_property(name) for name in self.index.properties
        }

    # ------------------------------------------------------------------ #
    # preparation: inlining and typing
    # ------------------------------------------------------------------ #

    def _let_substitutions(self, decl: PropertyDecl) -> Dict[str, Expr]:
        """Inlined (function-free) definitions of the property's LET block."""
        substitutions: Dict[str, Expr] = {}
        for let_def in decl.let_defs:
            inlined = self._inline(let_def.value, substitutions)
            substitutions[let_def.name] = inlined
        return substitutions

    def _inline(
        self,
        expr: Expr,
        env: Mapping[str, Expr],
        bound: frozenset = frozenset(),
    ) -> Expr:
        """A fresh copy of ``expr`` with specification functions inlined and
        the free identifiers named in ``env`` replaced.

        ``env`` maps LET names (or, inside an inlined function body, the
        function's parameters) to already inlined expressions; every use gets
        its own copy.  Names bound by a set comprehension or aggregate inside
        ``expr`` (``bound``) shadow ``env``.  A function call's arguments are
        inlined in the caller's ``env``, and its body in an ``env`` of just
        its parameters.  The result shares no node with ``expr``, ``env`` or
        the specification, so type-annotating it leaves them untouched.
        """
        if isinstance(expr, Identifier) and expr.name in env and expr.name not in bound:
            return _copy_tree(env[expr.name])
        if isinstance(expr, FunctionCall) and expr.name in self.index.functions:
            decl = self.index.functions[expr.name]
            args = {
                param.name: self._inline(arg, env, bound)
                for param, arg in zip(decl.params, expr.args)
            }
            return self._inline(decl.body, args)
        inner = bound
        if isinstance(expr, (SetComprehension, AggregateExpr)) and expr.var:
            inner = bound | {expr.var}
        return _map_children(
            expr,
            lambda child: self._inline(child, env, bound),
            lambda child: self._inline(child, env, inner),
        )

    def _annotate(self, expr: Expr, param_types: Mapping[str, Type]) -> None:
        """Run type inference over an inlined expression (annotates nodes)."""
        checker = self._checker
        checker.diagnostics.clear()
        scope: Scope[Type] = Scope()
        for name, param_type in param_types.items():
            scope.define(name, param_type)
        checker.check_expr(expr, scope)
        if checker.diagnostics:
            raise PushdownError(
                f"cannot type the inlined expression: {checker.diagnostics[0]}"
            )

    # ------------------------------------------------------------------ #
    # expression translation
    # ------------------------------------------------------------------ #

    def _compile_expr(
        self,
        expr: Expr,
        substitutions: Mapping[str, Expr],
        param_types: Mapping[str, Type],
    ) -> CompiledQuery:
        inlined = self._inline(expr, substitutions)
        self._annotate(inlined, param_types)
        translator = _ExprTranslator(self, param_types)
        value_sql = translator.value(inlined, context=None)
        sql = f"SELECT {value_sql} AS value FROM {DUAL_TABLE}"
        query = CompiledQuery(sql=sql, param_slots=translator.param_slots)
        if self._reads_no_data(inlined, param_types):
            try:
                query.value = self.evaluator.evaluate(inlined, Scope())
            except (AslError, ArithmeticError):
                # ASL raises here (division by zero, say): keep the
                # statement, which the database evaluates like any other.
                return query
            query.folded = True
        return query

    def _reads_no_data(self, expr: Expr, param_types: Mapping[str, Type]) -> bool:
        """Whether ``expr`` (inlined) is literals, specification constants and
        enum members under unary and binary operators, and nothing else."""
        if isinstance(expr, (IntLiteral, FloatLiteral, BoolLiteral, StringLiteral)):
            return True
        if isinstance(expr, Identifier):
            return expr.name not in param_types and (
                expr.name in self.index.constants
                or expr.name in self.index.enum_members
            )
        if isinstance(expr, UnaryExpr):
            return self._reads_no_data(expr.operand, param_types)
        if isinstance(expr, BinaryExpr):
            return all(
                self._reads_no_data(side, param_types)
                for side in (expr.left, expr.right)
            )
        return False


# --------------------------------------------------------------------------- #
# AST utilities
# --------------------------------------------------------------------------- #


def _map_children(node: Expr, fn, scoped_fn=None) -> Expr:
    """A new node like ``node`` whose direct child expressions are ``fn(child)``
    (a leaf is copied).

    ``scoped_fn`` (default ``fn``) rewrites instead the children that see the
    node's bound variable: a comprehension's predicate, and an aggregate's
    value and predicate.
    """
    scoped_fn = scoped_fn or fn
    location = node.location
    if isinstance(node, AttributeAccess):
        return AttributeAccess(
            location=location, obj=fn(node.obj), attribute=node.attribute
        )
    if isinstance(node, FunctionCall):
        return FunctionCall(
            location=location, name=node.name, args=[fn(arg) for arg in node.args]
        )
    if isinstance(node, UnaryExpr):
        return UnaryExpr(location=location, op=node.op, operand=fn(node.operand))
    if isinstance(node, BinaryExpr):
        return BinaryExpr(
            location=location, op=node.op, left=fn(node.left), right=fn(node.right)
        )
    if isinstance(node, SetComprehension):
        return SetComprehension(
            location=location,
            var=node.var,
            source=fn(node.source),
            predicate=None if node.predicate is None else scoped_fn(node.predicate),
        )
    if isinstance(node, AggregateExpr):
        return AggregateExpr(
            location=location,
            func=node.func,
            value=scoped_fn(node.value),
            var=node.var,
            source=None if node.source is None else fn(node.source),
            predicate=None if node.predicate is None else scoped_fn(node.predicate),
        )
    if isinstance(node, Identifier):
        return Identifier(location=location, name=node.name)
    # A literal (or a bare placeholder ``Expr``): its fields, not its
    # ``inferred_type`` annotation.
    return type(node)(*[getattr(node, name) for name in node._fields])


def _copy_tree(expr: Expr) -> Expr:
    """A copy of ``expr`` that shares no node with it."""
    return _map_children(expr, _copy_tree)


# --------------------------------------------------------------------------- #
# the expression translator
# --------------------------------------------------------------------------- #


class _QueryContext:
    """FROM/JOIN context of one (sub)query being generated."""

    def __init__(self, translator: "_ExprTranslator", table: str, alias: str,
                 var: str, class_name: str) -> None:
        self.translator = translator
        self.base_table = table
        self.base_alias = alias
        #: var name → (alias, class name)
        self.row_vars: Dict[str, Tuple[str, str]] = {var: (alias, class_name)}
        #: list of (table, alias, on-sql)
        self.joins: List[Tuple[str, str, str]] = []

    def join_via(self, source_alias: str, fk_column: str, target_class: str) -> str:
        """Alias of the table joined through ``source_alias.fk_column``."""
        target_table = self.translator.compiler.mapping.table_for(target_class)
        for table, alias, on in self.joins:
            if on == f"{alias}.{PRIMARY_KEY} = {source_alias}.{fk_column}":
                return alias
        alias = self.translator.new_alias()
        self.joins.append(
            (target_table, alias, f"{alias}.{PRIMARY_KEY} = {source_alias}.{fk_column}")
        )
        return alias


_BINOP_SQL = {
    BinaryOp.ADD: "+",
    BinaryOp.SUB: "-",
    BinaryOp.MUL: "*",
    BinaryOp.DIV: "/",
    BinaryOp.EQ: "=",
    BinaryOp.NE: "<>",
    BinaryOp.LT: "<",
    BinaryOp.LE: "<=",
    BinaryOp.GT: ">",
    BinaryOp.GE: ">=",
    BinaryOp.AND: "AND",
    BinaryOp.OR: "OR",
}


class _ExprTranslator:
    """Translates one inlined, type-annotated expression into SQL text."""

    def __init__(self, compiler: PropertyCompiler, param_types: Mapping[str, Type]) -> None:
        self.compiler = compiler
        self.param_types = dict(param_types)
        self.param_slots: List[str] = []
        self._alias_counter = 0

    # -- helpers ------------------------------------------------------------

    def new_alias(self) -> str:
        self._alias_counter += 1
        return f"t{self._alias_counter}"

    def _placeholder(self, param_name: str) -> str:
        self.param_slots.append(param_name)
        return "?"

    @staticmethod
    def _type_of(expr: Expr) -> Optional[Type]:
        return getattr(expr, "inferred_type", None)

    # -- value translation -----------------------------------------------------

    def value(self, expr: Expr, context: Optional[_QueryContext]) -> str:
        """SQL text computing the value of ``expr``.

        Object-typed expressions are represented by their row id.
        """
        if isinstance(expr, IntLiteral):
            return str(expr.value)
        if isinstance(expr, FloatLiteral):
            return repr(float(expr.value))
        if isinstance(expr, BoolLiteral):
            return "TRUE" if expr.value else "FALSE"
        if isinstance(expr, StringLiteral):
            escaped = expr.value.replace("'", "''")
            return f"'{escaped}'"
        if isinstance(expr, Identifier):
            return self._identifier_value(expr, context)
        if isinstance(expr, AttributeAccess):
            return self._attribute_value(expr, context)
        if isinstance(expr, AggregateExpr):
            return self._aggregate_value(expr, context, wanted_column=None)
        if isinstance(expr, UnaryExpr):
            operand = self.value(expr.operand, context)
            if expr.op is UnaryOp.NEG:
                return f"(-{operand})"
            return f"(NOT {operand})"
        if isinstance(expr, BinaryExpr):
            return self._binary_value(expr, context)
        if isinstance(expr, FunctionCall):
            raise PushdownError(
                f"call to {expr.name!r} cannot be pushed down (only "
                f"specification functions are inlined)"
            )
        if isinstance(expr, SetComprehension):
            raise PushdownError(
                "a set comprehension can only be pushed down inside UNIQUE or "
                "an aggregate"
            )
        raise PushdownError(
            f"cannot translate expression node {type(expr).__name__} to SQL"
        )

    def _identifier_value(self, expr: Identifier, context: Optional[_QueryContext]) -> str:
        name = expr.name
        if context is not None and name in context.row_vars:
            alias, class_name = context.row_vars[name]
            return f"{alias}.{PRIMARY_KEY}"
        if name in self.param_types:
            return self._placeholder(name)
        if name in self.compiler.index.constants:
            value = self.compiler.evaluator.constant_value(name)
            if isinstance(value, bool):
                return "TRUE" if value else "FALSE"
            if isinstance(value, (int, float)):
                return repr(value)
            if isinstance(value, str):
                return "'" + value.replace("'", "''") + "'"
            raise PushdownError(f"constant {name!r} has a non-scalar value")
        if name in self.compiler.index.enum_members:
            return f"'{name}'"
        raise PushdownError(f"cannot translate identifier {name!r} to SQL")

    def _attribute_value(
        self, expr: AttributeAccess, context: Optional[_QueryContext]
    ) -> str:
        obj = expr.obj
        obj_type = self._type_of(obj)
        if not isinstance(obj_type, ClassType):
            raise PushdownError(
                f"attribute access {expr.attribute!r} on a value of type "
                f"{obj_type} cannot be pushed down"
            )
        attribute = self.compiler.mapping.attribute(obj_type.name, expr.attribute)
        if attribute.kind == "collection":
            raise PushdownError(
                f"collection attribute {obj_type.name}.{expr.attribute} can "
                f"only be used as an aggregate or UNIQUE source"
            )
        # Row variable in the current query context → direct column reference,
        # possibly through a join for reference chains.
        alias = self._alias_for_row(obj, context)
        if alias is not None:
            return f"{alias}.{attribute.column}"
        # UNIQUE(...) result → subquery selecting the wanted column.
        if isinstance(obj, AggregateExpr) and obj.is_unique:
            return self._aggregate_value(obj, context, wanted_column=attribute.column)
        # Anything else: the object is available as an id value; fetch the
        # column with a scalar subquery against the object's table.
        table = self.compiler.mapping.table_for(obj_type.name)
        object_id = self.value(obj, context)
        if object_id == "?" or object_id.startswith("("):
            return (
                f"(SELECT {attribute.column} FROM {table} "
                f"WHERE {PRIMARY_KEY} = {object_id})"
            )
        raise PushdownError(
            f"cannot translate attribute access {obj_type.name}.{expr.attribute}"
        )

    def _alias_for_row(
        self, expr: Expr, context: Optional[_QueryContext]
    ) -> Optional[str]:
        """Alias representing ``expr`` as a row of the current context, if any."""
        if context is None:
            return None
        if isinstance(expr, Identifier) and expr.name in context.row_vars:
            return context.row_vars[expr.name][0]
        if isinstance(expr, AttributeAccess):
            obj_type = self._type_of(expr.obj)
            if not isinstance(obj_type, ClassType):
                return None
            attribute = self.compiler.mapping.attribute(obj_type.name, expr.attribute)
            if attribute.kind != "reference" or attribute.target_class is None:
                return None
            source_alias = self._alias_for_row(expr.obj, context)
            if source_alias is None:
                return None
            return context.join_via(source_alias, attribute.column, attribute.target_class)
        return None

    def _binary_value(self, expr: BinaryExpr, context: Optional[_QueryContext]) -> str:
        # Objects are their row ids, so object equality compares row ids and
        # foreign keys.
        left = self.value(expr.left, context)
        right = self.value(expr.right, context)
        op = _BINOP_SQL.get(expr.op)
        if op is None:
            raise PushdownError(f"operator {expr.op.value!r} is not supported in SQL")
        return f"({left} {op} {right})"

    # -- aggregates / UNIQUE ------------------------------------------------------

    def _aggregate_value(
        self,
        expr: AggregateExpr,
        outer_context: Optional[_QueryContext],
        wanted_column: Optional[str],
    ) -> str:
        """Translate UNIQUE / SUM / MIN / MAX / AVG / COUNT into a scalar subquery.

        Note on parameter ordering: every ``?`` placeholder must be appended to
        ``param_slots`` in the same order it appears in the generated text.  The
        generated subquery reads ``SELECT <value> FROM … WHERE <owner> AND
        <predicates>``, therefore the value expression is translated first, the
        owner condition second and the predicates last.
        """
        if expr.is_unique:
            var, source, predicate = self._comprehension_parts(expr.value)
            context, collection = self._make_context(var, source)
            column = wanted_column or PRIMARY_KEY
            select_value = f"{context.base_alias}.{column}"
            where = [self._owner_condition(context, collection, source, outer_context)]
            if predicate is not None:
                where.append(self.value(predicate, context))
            return self._build_select(select_value, context, where)
        if expr.source is None:
            raise PushdownError(
                f"aggregate {expr.func} has no source collection to push down"
            )
        if wanted_column is not None:
            raise PushdownError(
                "attribute access on a non-UNIQUE aggregate cannot be pushed down"
            )
        var, source, comp_predicate = self._comprehension_parts(expr.source, expr.var)
        context, collection = self._make_context(var, source)
        if expr.func == "COUNT":
            select_value = "COUNT(*)"
        else:
            select_value = f"{expr.func}({self.value(expr.value, context)})"
        where = [self._owner_condition(context, collection, source, outer_context)]
        if comp_predicate is not None:
            where.append(self.value(comp_predicate, context))
        if expr.predicate is not None:
            where.append(self.value(expr.predicate, context))
        return self._build_select(select_value, context, where)

    def _comprehension_parts(
        self, expr: Expr, default_var: str = ""
    ) -> Tuple[str, Expr, Optional[Expr]]:
        """Normalise an aggregate/UNIQUE source into (var, collection, predicate)."""
        if isinstance(expr, SetComprehension):
            return expr.var, expr.source, expr.predicate
        if default_var:
            return default_var, expr, None
        raise PushdownError(
            "UNIQUE requires a set comprehension or collection attribute as its "
            "argument"
        )

    def _make_context(self, var: str, source: Expr):
        """Query context for an aggregate over the collection ``source``."""
        if not isinstance(source, AttributeAccess):
            raise PushdownError(
                "only collection attributes (e.g. r.TotTimes) can be used as "
                "aggregate sources in SQL"
            )
        owner_type = self._type_of(source.obj)
        if not isinstance(owner_type, ClassType):
            raise PushdownError(
                f"aggregate source must navigate from an object, found "
                f"{owner_type}"
            )
        attribute = self.compiler.mapping.attribute(owner_type.name, source.attribute)
        if attribute.kind != "collection" or attribute.target_class is None:
            raise PushdownError(
                f"{owner_type.name}.{source.attribute} is not a collection "
                f"attribute"
            )
        alias = self.new_alias()
        context = _QueryContext(
            self, table=attribute.table, alias=alias, var=var,
            class_name=attribute.target_class,
        )
        return context, attribute

    def _owner_condition(
        self,
        context: _QueryContext,
        collection,
        source: AttributeAccess,
        outer_context: Optional[_QueryContext],
    ) -> str:
        """WHERE condition binding the element table to the owning object."""
        owner_id = self.value(source.obj, outer_context)
        return f"{context.base_alias}.{collection.column} = {owner_id}"

    def _build_select(
        self, select_value: str, context: _QueryContext, where: List[str]
    ) -> str:
        parts = [f"SELECT {select_value} FROM {context.base_table} {context.base_alias}"]
        for table, alias, on in context.joins:
            parts.append(f"JOIN {table} {alias} ON {on}")
        conditions = [w for w in where if w]
        if conditions:
            parts.append("WHERE " + " AND ".join(conditions))
        return "(" + " ".join(parts) + ")"
