"""Compile-once evaluation of ASL property expressions, and the one rule
that decides a property instance.

The reference evaluator (:class:`repro.asl.evaluator.AslEvaluator`) walks the
expression AST on every evaluation — for the client-side analysis strategy
that means re-dispatching on node types for every property × context pair.
This module compiles each property once into Python closures over a flat
name→value environment dict, mirroring the relational engine's
plan-then-execute split (:mod:`repro.relalg.compile`):

* identifier *kinds* (parameter/LET, specification constant, enum member) are
  resolved at compile time, so the per-evaluation work is a dict lookup;
* specification functions are compiled once and invoked with a fresh
  environment per call;
* comprehension and aggregate variables use save/restore slots in the shared
  environment instead of allocating a scope chain per element.

Semantics — including every error message and the handling of empty sets,
UNIQUE cardinality and division by zero — follow the reference evaluator
exactly; ``tests/test_asl_compile.py`` asserts parity.

:class:`CompiledProperty` is one property in the form a strategy evaluates:
these closures, the AST expressions the reference evaluator walks, or the
SQL queries of :mod:`repro.compiler.sql_gen`.  Its
:meth:`~CompiledProperty.evaluate` is the paper's Section 4 rule
(conditions, then the guarded maximum of the confidence entries, then that
of the severity entries when a condition holds), written once for all three;
a strategy supplies only how one entry is computed.
"""

from __future__ import annotations

import operator as _operator
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple,
)

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
from repro.asl.errors import AslEvaluationError, AslNameError
from repro.records import Record

if TYPE_CHECKING:
    from repro.asl.evaluator import PropertyEvaluation

__all__ = ["CompiledProperty", "AslExprCompiler"]

#: A compiled ASL expression: ``fn(env) -> value`` over a flat environment.
EnvFn = Callable[[Dict[str, Any]], Any]

_ABSENT = object()


class CompiledProperty(Record):
    """One property declaration in the form an evaluation strategy runs.

    An *entry* is whatever the strategy evaluates: a closure over a flat
    environment (:class:`AslExprCompiler`), the AST expression itself (the
    reference evaluator) or a :class:`repro.compiler.sql_gen.CompiledQuery`
    (the ASL→SQL translator).  ``lets`` holds ``(name, entry)`` pairs in
    declaration order (none where the translator inlined them),
    ``conditions`` ``(key, entry)`` pairs keyed by the condition id, else by
    the 1-based position, and ``confidence`` / ``severity`` ``(guard or
    None, entry)`` pairs.  :meth:`evaluate` decides an instance from them.
    """

    __slots__ = ("decl", "lets", "conditions", "confidence", "severity")

    def __init__(
        self,
        decl: PropertyDecl,
        lets: List[Tuple[str, Any]],
        conditions: List[Tuple[str, Any]],
        confidence: List[Tuple[Optional[str], Any]],
        severity: List[Tuple[Optional[str], Any]],
    ) -> None:
        self.decl = decl
        self.lets = lets
        self.conditions = conditions
        self.confidence = confidence
        self.severity = severity

    @classmethod
    def from_decl(
        cls,
        decl: PropertyDecl,
        lets: List[Tuple[str, Any]],
        entry: Callable[[Expr], Any],
    ) -> "CompiledProperty":
        """The record of ``decl`` whose entries are ``entry(expression)``,
        made in declaration order: conditions, confidence, severity."""
        conditions = [
            (
                condition.cond_id if condition.cond_id is not None else str(position),
                entry(condition.expr),
            )
            for position, condition in enumerate(decl.conditions, start=1)
        ]
        confidence = [(e.guard, entry(e.expr)) for e in decl.confidence.entries]
        severity = [(e.guard, entry(e.expr)) for e in decl.severity.entries]
        return cls(decl, lets, conditions, confidence, severity)

    def evaluate(
        self, result: "PropertyEvaluation", value: Callable[[Any], Any]
    ) -> "PropertyEvaluation":
        """Decide one property instance into ``result`` (its LETs already
        evaluated) and return it; ``value(entry)`` computes one entry.

        This is the rule of the paper's Section 4 for every strategy: each
        condition is evaluated, in order, to a boolean, and the property
        holds when one is true.  Confidence is the maximum of the entries
        whose guard holds (an unguarded entry always counts), 0.0 when none
        does; so is severity, whose entries are evaluated only when the
        property holds.  A ``None`` value, which only the database gives
        (SQL's NULL; an ASL entry never yields one), is a false condition
        and adds nothing to confidence or severity.
        """
        conditions = result.conditions
        for key, entry in self.conditions:
            conditions[key] = bool(value(entry))
        result.holds = any(conditions.values())
        result.confidence = _guarded_max(self.confidence, conditions, value)
        result.severity = (
            _guarded_max(self.severity, conditions, value) if result.holds else 0.0
        )
        return result

    def entries(self) -> List[Any]:
        """Every condition, confidence and severity entry, in evaluation order."""
        return [
            entry
            for part in (self.conditions, self.confidence, self.severity)
            for _, entry in part
        ]


def _guarded_max(
    entries: List[Tuple[Optional[str], Any]],
    conditions: Dict[str, bool],
    value: Callable[[Any], Any],
) -> float:
    """``max`` over the values of the entries whose guard holds; 0.0 when
    none contributes (a ``None`` value contributes nothing)."""
    best: Optional[float] = None
    for guard, entry in entries:
        if guard is not None and not conditions.get(guard, False):
            continue
        found = value(entry)
        if found is None:
            continue
        found = float(found)
        # ``max``'s own rule: the first of equal (or unordered) values wins.
        if best is None or found > best:
            best = found
    return 0.0 if best is None else best


class AslExprCompiler:
    """Compiles ASL expressions into closures for one evaluator instance.

    The compiler resolves non-local names through the evaluator (constants
    honour overrides and the constant cache; the enum binding is fixed at
    evaluator construction), so compiled closures observe exactly what the
    interpretive path would.
    """

    def __init__(self, evaluator) -> None:
        self.evaluator = evaluator
        self.index = evaluator.index
        #: Specification function name → (parameter names, compiled body).
        self._functions: Dict[str, Tuple[List[str], EnvFn]] = {}

    # ------------------------------------------------------------------ #
    # property compilation
    # ------------------------------------------------------------------ #

    def compile_property(self, decl: PropertyDecl) -> CompiledProperty:
        local_names = {p.name for p in decl.params}
        lets: List[Tuple[str, EnvFn]] = []
        for let_def in decl.let_defs:
            # The LET's own name is *not* in scope inside its definition (it
            # may shadow an enum member referenced there).
            fn = self.compile(let_def.value, frozenset(local_names))
            lets.append((let_def.name, fn))
            local_names.add(let_def.name)
        locals_ = frozenset(local_names)
        return CompiledProperty.from_decl(
            decl, lets, lambda expr: self.compile(expr, locals_)
        )

    # ------------------------------------------------------------------ #
    # expression compilation
    # ------------------------------------------------------------------ #

    def compile(self, expr: Expr, locals_: FrozenSet[str]) -> EnvFn:
        """Compile one expression given the compile-time set of local names."""
        if isinstance(expr, (IntLiteral, FloatLiteral, StringLiteral, BoolLiteral)):
            value = expr.value
            return lambda env: value
        if isinstance(expr, Identifier):
            return self._compile_identifier(expr, locals_)
        if isinstance(expr, AttributeAccess):
            return self._compile_attribute(expr, locals_)
        if isinstance(expr, FunctionCall):
            return self._compile_call(expr, locals_)
        if isinstance(expr, UnaryExpr):
            operand = self.compile(expr.operand, locals_)
            if expr.op is UnaryOp.NEG:
                return lambda env: -operand(env)
            if expr.op is UnaryOp.NOT:
                return lambda env: not operand(env)
            raise AssertionError(f"unhandled unary operator {expr.op}")
        if isinstance(expr, BinaryExpr):
            return self._compile_binary(expr, locals_)
        if isinstance(expr, SetComprehension):
            return self._compile_comprehension(expr, locals_)
        if isinstance(expr, AggregateExpr):
            return self._compile_aggregate(expr, locals_)
        raise AslEvaluationError(
            f"unsupported expression node {type(expr).__name__}", expr.location
        )

    # -- helpers ------------------------------------------------------------

    def _compile_identifier(self, expr: Identifier, locals_: FrozenSet[str]) -> EnvFn:
        name = expr.name
        location = expr.location
        if name in locals_:
            def local_fn(env: Dict[str, Any]) -> Any:
                try:
                    return env[name]
                except KeyError:
                    raise AslNameError(f"unbound name {name!r}", location) from None

            return local_fn
        evaluator = self.evaluator
        if name in self.index.constants:
            return lambda env: evaluator.constant_value(name)
        if name in evaluator._enum_binding:
            value = evaluator._enum_binding[name]
            return lambda env: value
        raise AslNameError(f"unbound name {name!r}", location)

    def _compile_attribute(
        self, expr: AttributeAccess, locals_: FrozenSet[str]
    ) -> EnvFn:
        obj_fn = self.compile(expr.obj, locals_)
        attribute = expr.attribute
        location = expr.location

        def attribute_fn(env: Dict[str, Any]) -> Any:
            obj = obj_fn(env)
            if obj is None:
                raise AslEvaluationError(
                    f"cannot access attribute {attribute!r} of an absent "
                    f"(null) object",
                    location,
                )
            try:
                return getattr(obj, attribute)
            except AttributeError:
                raise AslEvaluationError(
                    f"object of type {type(obj).__name__} has no attribute "
                    f"{attribute!r}",
                    location,
                ) from None

        return attribute_fn

    def _compile_call(self, expr: FunctionCall, locals_: FrozenSet[str]) -> EnvFn:
        arg_fns = [self.compile(arg, locals_) for arg in expr.args]
        if expr.name in self.index.functions:
            param_names, body_fn = self._compiled_function(expr.name)

            def call_fn(env: Dict[str, Any]) -> Any:
                inner = {
                    name: fn(env) for name, fn in zip(param_names, arg_fns)
                }
                return body_fn(inner)

            return call_fn
        # The checker admitted only builtins of the right arity.
        if expr.name == "MIN":
            return lambda env: min(fn(env) for fn in arg_fns)
        if expr.name == "MAX":
            return lambda env: max(fn(env) for fn in arg_fns)
        if expr.name == "ABS":
            arg = arg_fns[0]
            return lambda env: abs(arg(env))
        raise AslNameError(f"unknown function {expr.name!r}", expr.location)

    def _compiled_function(self, name: str) -> Tuple[List[str], EnvFn]:
        cached = self._functions.get(name)
        if cached is not None:
            return cached
        decl = self.index.functions[name]
        param_names = [p.name for p in decl.params]
        # Register a late-bound placeholder first so a (pathological)
        # recursive reference compiles instead of recursing at compile time.
        cell: Dict[str, EnvFn] = {}
        self._functions[name] = (param_names, lambda env: cell["fn"](env))
        body_fn = self.compile(decl.body, frozenset(param_names))
        cell["fn"] = body_fn
        self._functions[name] = (param_names, body_fn)
        return param_names, body_fn

    def _compile_binary(self, expr: BinaryExpr, locals_: FrozenSet[str]) -> EnvFn:
        op = expr.op
        left = self.compile(expr.left, locals_)
        right = self.compile(expr.right, locals_)
        location = expr.location
        if op is BinaryOp.AND:
            return lambda env: bool(left(env)) and bool(right(env))
        if op is BinaryOp.OR:
            return lambda env: bool(left(env)) or bool(right(env))
        if op is BinaryOp.ADD:
            return lambda env: left(env) + right(env)
        if op is BinaryOp.SUB:
            return lambda env: left(env) - right(env)
        if op is BinaryOp.MUL:
            return lambda env: left(env) * right(env)
        if op is BinaryOp.DIV:
            def div_fn(env: Dict[str, Any]) -> Any:
                dividend = left(env)
                divisor = right(env)
                if divisor == 0:
                    raise AslEvaluationError("division by zero", location)
                return dividend / divisor

            return div_fn
        if op is BinaryOp.MOD:
            def mod_fn(env: Dict[str, Any]) -> Any:
                dividend = left(env)
                divisor = right(env)
                if divisor == 0:
                    raise AslEvaluationError("modulo by zero", location)
                return dividend % divisor

            return mod_fn
        if op is BinaryOp.EQ:
            return lambda env: left(env) == right(env)
        if op is BinaryOp.NE:
            return lambda env: left(env) != right(env)
        ordering = {
            BinaryOp.LT: _operator.lt,
            BinaryOp.LE: _operator.le,
            BinaryOp.GT: _operator.gt,
            BinaryOp.GE: _operator.ge,
        }.get(op)
        if ordering is None:
            raise AssertionError(f"unhandled binary operator {op}")

        def order_fn(env: Dict[str, Any]) -> Any:
            a = left(env)
            b = right(env)
            try:
                return ordering(a, b)
            except TypeError as exc:
                raise AslEvaluationError(
                    f"cannot order values {a!r} and {b!r}: {exc}", location
                ) from None

        return order_fn

    def _compile_comprehension(
        self, expr: SetComprehension, locals_: FrozenSet[str]
    ) -> EnvFn:
        source_fn = self.compile(expr.source, locals_)
        var = expr.var
        predicate_fn = (
            self.compile(expr.predicate, locals_ | {var})
            if expr.predicate is not None
            else None
        )

        def comprehension_fn(env: Dict[str, Any]) -> List[Any]:
            source = _iterable(source_fn(env), expr)
            result: List[Any] = []
            saved = env.get(var, _ABSENT)
            try:
                if predicate_fn is None:
                    result.extend(source)
                else:
                    for element in source:
                        env[var] = element
                        if bool(predicate_fn(env)):
                            result.append(element)
            finally:
                if saved is _ABSENT:
                    env.pop(var, None)
                else:
                    env[var] = saved
            return result

        return comprehension_fn

    def _compile_aggregate(
        self, expr: AggregateExpr, locals_: FrozenSet[str]
    ) -> EnvFn:
        if expr.is_unique:
            value_fn = self.compile(expr.value, locals_)
            location = expr.location

            def unique_fn(env: Dict[str, Any]) -> Any:
                elements = list(_iterable(value_fn(env), expr))
                if len(elements) != 1:
                    raise AslEvaluationError(
                        f"UNIQUE applied to a set with {len(elements)} elements "
                        f"(expected exactly one)",
                        location,
                    )
                return elements[0]

            return unique_fn

        if expr.source is None:
            # The parser/checker guarantee a source on non-UNIQUE aggregates;
            # reaching this means a hand-built (or corrupted) AST.
            raise AslEvaluationError(
                f"aggregate {expr.func} has no source collection",
                expr.location,
            )
        source_fn = self.compile(expr.source, locals_)
        var = expr.var
        inner_locals = locals_ | {var} if var else locals_
        predicate_fn = (
            self.compile(expr.predicate, inner_locals)
            if expr.predicate is not None
            else None
        )
        value_fn = self.compile(expr.value, inner_locals)
        func = expr.func
        location = expr.location

        def aggregate_fn(env: Dict[str, Any]) -> Any:
            source = _iterable(source_fn(env), expr)
            values: List[Any] = []
            saved = env.get(var, _ABSENT)
            try:
                for element in source:
                    env[var] = element
                    if predicate_fn is not None and not bool(predicate_fn(env)):
                        continue
                    values.append(value_fn(env))
            finally:
                if saved is _ABSENT:
                    env.pop(var, None)
                else:
                    env[var] = saved
            if func == "COUNT":
                return len(values)
            if func == "SUM":
                return sum(values) if values else 0
            if not values:
                raise AslEvaluationError(
                    f"aggregate {func} applied to an empty set", location
                )
            if func == "MIN":
                return min(values)
            if func == "MAX":
                return max(values)
            if func == "AVG":
                return sum(values) / len(values)
            raise AslEvaluationError(f"unknown aggregate {func!r}", location)

        return aggregate_fn


def _iterable(value: Any, expr: Expr) -> Iterable[Any]:
    if isinstance(value, (list, tuple, set, frozenset)):
        return value
    if isinstance(value, str) or not hasattr(value, "__iter__"):
        raise AslEvaluationError(
            f"expected a set-valued expression, found {type(value).__name__}",
            expr.location,
        )
    return value
