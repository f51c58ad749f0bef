"""Reference evaluator for ASL performance properties.

The paper's COSY prototype translates property conditions into SQL; this
module provides the *reference semantics* against which the SQL translation is
validated: it evaluates properties directly over the object repository
(:mod:`repro.datamodel`), binding ASL class attributes to Python attributes.

The evaluation of a property proceeds exactly as described in Section 4:

1. the property's parameters are bound to the supplied context objects
   (e.g. the region, the test run and the ranking basis);
2. the ``LET`` definitions are evaluated sequentially;
3. every condition is evaluated to a boolean; the property *holds* when at
   least one condition is true;
4. the confidence and severity are computed as the maximum of their
   (condition-guarded) value expressions — a guarded entry contributes only
   when its condition evaluated to true — and the severity only when the
   property holds;
5. the property is a *performance problem* when its severity exceeds the
   user- or tool-defined threshold, and the *bottleneck* is the property
   instance with the highest severity (this ranking is performed by
   :mod:`repro.cosy`).

Properties are **compiled once per evaluator instance**
(:mod:`repro.asl.compile`): the first :meth:`AslEvaluator.evaluate_property`
call for a property turns its LET definitions, conditions and value
specifications into Python closures; subsequent evaluations — the client-side
analysis strategy evaluates every property for every region × run context —
only re-bind the parameters.  :meth:`AslEvaluator.evaluate` remains the
interpretive single-expression API (and the semantic reference the compiled
closures are tested against).

Steps 3 and 4 are written once, as
:meth:`repro.asl.compile.CompiledProperty.evaluate`: the compiled path, the
interpretive reference :meth:`AslEvaluator.evaluate_property_interpreted` and
the SQL pushdown strategy all decide an instance through it, each computing
one entry its own way.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

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
from repro.asl.compile import AslExprCompiler, CompiledProperty, _iterable
from repro.asl.errors import AslEvaluationError, AslNameError, AslTypeError
from repro.asl.semantic import CheckedSpecification
from repro.asl.symbols import MISSING, Scope
from repro.asl.types import ANY, BOOL, FLOAT, INT, STRING, Type, is_assignable
from repro.records import Record

__all__ = ["AslEvaluator", "PropertyEvaluation", "default_enum_binding"]


class PropertyEvaluation(Record):
    """The result of evaluating one property in one context.

    ``parameters`` is the binding the property was evaluated with; ``holds``
    whether at least one condition was satisfied; ``confidence`` (0..1) and
    ``severity`` come from the confidence and severity specifications.
    ``conditions`` holds the value of each condition, keyed by its condition
    identifier where declared, otherwise by its 1-based position, and
    ``let_values`` the values of the LET definitions (for reports and
    debugging).
    """

    __slots__ = (
        "property_name", "parameters", "holds", "confidence", "severity",
        "conditions", "let_values",
    )

    def __init__(
        self,
        property_name: str,
        parameters: Optional[Dict[str, Any]] = None,
        holds: bool = False,
        confidence: float = 0.0,
        severity: float = 0.0,
        conditions: Optional[Dict[str, bool]] = None,
        let_values: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.property_name = property_name
        self.parameters = {} if parameters is None else parameters
        self.holds = holds
        self.confidence = confidence
        self.severity = severity
        self.conditions = {} if conditions is None else conditions
        self.let_values = {} if let_values is None else let_values

    def is_problem(self, threshold: float) -> bool:
        """Performance property → performance problem iff severity > threshold."""
        return self.holds and self.severity > threshold


#: The ASL type of a constant override, by the value's Python type (``bool``
#: before ``int``: it is one).  A value of any other type, an enum member or
#: an object, is not checked.
_OVERRIDE_TYPES = ((bool, BOOL), (int, INT), (float, FLOAT), (str, STRING))


def _override_type(value: Any) -> Type:
    for python_type, asl_type in _OVERRIDE_TYPES:
        if isinstance(value, python_type):
            return asl_type
    return ANY


def _bound_parameters(
    decl: PropertyDecl, parameters: Mapping[str, Any]
) -> Dict[str, Any]:
    """``decl``'s parameters bound from ``parameters``, in declaration order;
    raises :class:`AslEvaluationError` when one is missing."""
    try:
        return {param.name: parameters[param.name] for param in decl.params}
    except KeyError:
        names = [param.name for param in decl.params]
        missing = [name for name in names if name not in parameters]
        raise AslEvaluationError(
            f"property {decl.name!r} is missing parameter(s) {missing}; "
            f"expected {names}"
        ) from None


def default_enum_binding(checked: CheckedSpecification) -> Dict[str, Any]:
    """Bind enum member names of the specification to runtime values.

    Members of an enum named ``TimingType`` are bound to the
    :class:`repro.datamodel.TimingType` members of the same name when they
    exist; every other member is bound to its own name (a string marker),
    which is sufficient for equality comparisons as long as the repository
    stores the same markers.
    """
    binding: Dict[str, Any] = {}
    try:
        from repro.datamodel import TimingType as _TimingType
    except ImportError:  # pragma: no cover - datamodel is part of this package
        _TimingType = None  # type: ignore[assignment]
    for enum_name, decl in checked.index.enums.items():
        for member in decl.members:
            value: Any = member
            if _TimingType is not None and enum_name == "TimingType":
                try:
                    value = _TimingType(member)
                except ValueError:
                    value = member
            binding[member] = value
    return binding


class AslEvaluator:
    """Evaluates checked ASL specifications over Python objects.

    ``constants`` overrides the values of specification constants.  Each
    override is checked here, once, for every analysis that takes one (both
    strategies and the ASL→SQL translator build their evaluator with it): an
    override naming no declared constant raises :class:`AslNameError`, one
    whose value the constant's declared type does not admit raises
    :class:`AslTypeError`.
    """

    def __init__(
        self,
        checked: CheckedSpecification,
        constants: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.checked = checked
        self.index = checked.index
        self._constant_overrides: Dict[str, Any] = dict(constants or {})
        for name, value in self._constant_overrides.items():
            declared = self.index.constant_types.get(name)
            if declared is None:
                raise AslNameError(
                    f"constant override {name!r} = {value!r} names no "
                    f"declared constant (declared: "
                    f"{', '.join(sorted(self.index.constants))})"
                )
            actual = _override_type(value)
            if not is_assignable(actual, declared, self.index.subclass_map()):
                raise AslTypeError(
                    f"constant {name!r} of type {declared} cannot be "
                    f"overridden with {value!r} of type {actual}"
                )
        self._enum_binding: Dict[str, Any] = default_enum_binding(checked)
        self._constant_cache: Dict[str, Any] = {}
        self._compiler = AslExprCompiler(self)
        #: Property name → compiled program (filled on first evaluation).
        self.compiled_properties: Dict[str, CompiledProperty] = {}

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def compile_property(self, name: str) -> CompiledProperty:
        """The compiled (closure) form of a property; compiled on first use."""
        program = self.compiled_properties.get(name)
        if program is None:
            program = self._compiler.compile_property(self._declaration(name))
            self.compiled_properties[name] = program
        return program

    def evaluate_property(
        self, name: str, parameters: Mapping[str, Any]
    ) -> PropertyEvaluation:
        """Evaluate property ``name`` with the given parameter binding."""
        program = self.compile_property(name)
        env = _bound_parameters(program.decl, parameters)
        result = PropertyEvaluation(property_name=name, parameters=dict(env))
        for let_name, let_fn in program.lets:
            value = let_fn(env)
            env[let_name] = value
            result.let_values[let_name] = value
        return program.evaluate(result, lambda fn: fn(env))

    def evaluate_property_interpreted(
        self, name: str, parameters: Mapping[str, Any]
    ) -> PropertyEvaluation:
        """Evaluate a property by walking the AST (the reference semantics).

        Kept for differential testing against the compiled path used by
        :meth:`evaluate_property`; both decide the instance through
        :meth:`CompiledProperty.evaluate`, this one with AST entries.
        """
        decl = self._declaration(name)
        bound = _bound_parameters(decl, parameters)
        scope: Scope[Any] = Scope()
        for param_name, value in bound.items():
            scope.define(param_name, value)
        result = PropertyEvaluation(property_name=name, parameters=dict(bound))
        program = CompiledProperty.from_decl(
            decl,
            [(let_def.name, let_def.value) for let_def in decl.let_defs],
            lambda expr: expr,
        )
        for let_name, expr in program.lets:
            value = self.evaluate(expr, scope)
            scope.define(let_name, value)
            result.let_values[let_name] = value
        return program.evaluate(result, lambda expr: self.evaluate(expr, scope))

    def evaluate_function(self, name: str, *args: Any) -> Any:
        """Evaluate a specification function (e.g. ``Duration``) directly."""
        try:
            decl = self.index.functions[name]
        except KeyError:
            raise AslNameError(f"unknown function {name!r}") from None
        if len(args) != len(decl.params):
            raise AslEvaluationError(
                f"function {name!r} expects {len(decl.params)} arguments, got "
                f"{len(args)}"
            )
        scope: Scope[Any] = Scope()
        for param, arg in zip(decl.params, args):
            scope.define(param.name, arg)
        return self.evaluate(decl.body, scope)

    def constant_value(self, name: str) -> Any:
        """Value of a specification constant, honouring overrides."""
        if name in self._constant_overrides:
            return self._constant_overrides[name]
        if name in self._constant_cache:
            return self._constant_cache[name]
        decl = self.index.constants.get(name)
        if decl is None:
            raise AslNameError(f"unknown constant {name!r}")
        value = self.evaluate(decl.value, Scope())
        self._constant_cache[name] = value
        return value

    def _declaration(self, name: str) -> PropertyDecl:
        try:
            return self.index.properties[name]
        except KeyError:
            raise AslNameError(f"unknown property {name!r}") from None

    # ------------------------------------------------------------------ #
    # expression evaluation
    # ------------------------------------------------------------------ #

    def evaluate(self, expr: Expr, scope: Scope[Any]) -> Any:
        """Evaluate one expression in the given scope."""
        if isinstance(expr, IntLiteral):
            return expr.value
        if isinstance(expr, FloatLiteral):
            return expr.value
        if isinstance(expr, StringLiteral):
            return expr.value
        if isinstance(expr, BoolLiteral):
            return expr.value
        if isinstance(expr, Identifier):
            return self._evaluate_identifier(expr, scope)
        if isinstance(expr, AttributeAccess):
            return self._evaluate_attribute(expr, scope)
        if isinstance(expr, FunctionCall):
            return self._evaluate_call(expr, scope)
        if isinstance(expr, UnaryExpr):
            return self._evaluate_unary(expr, scope)
        if isinstance(expr, BinaryExpr):
            return self._evaluate_binary(expr, scope)
        if isinstance(expr, SetComprehension):
            return self._evaluate_comprehension(expr, scope)
        if isinstance(expr, AggregateExpr):
            return self._evaluate_aggregate(expr, scope)
        raise AslEvaluationError(
            f"unsupported expression node {type(expr).__name__}", expr.location
        )

    # -- helpers ------------------------------------------------------------

    def _evaluate_identifier(self, expr: Identifier, scope: Scope[Any]) -> Any:
        # One walk up the scope chain resolves value and boundness at once.
        value = scope.find(expr.name)
        if value is not MISSING:
            return value
        if expr.name in self.index.constants:
            return self.constant_value(expr.name)
        if expr.name in self._enum_binding:
            return self._enum_binding[expr.name]
        raise AslNameError(f"unbound name {expr.name!r}", expr.location)

    def _evaluate_attribute(self, expr: AttributeAccess, scope: Scope[Any]) -> Any:
        obj = self.evaluate(expr.obj, scope)
        if obj is None:
            raise AslEvaluationError(
                f"cannot access attribute {expr.attribute!r} of an absent "
                f"(null) object",
                expr.location,
            )
        try:
            return getattr(obj, expr.attribute)
        except AttributeError:
            raise AslEvaluationError(
                f"object of type {type(obj).__name__} has no attribute "
                f"{expr.attribute!r}",
                expr.location,
            ) from None

    def _evaluate_call(self, expr: FunctionCall, scope: Scope[Any]) -> Any:
        args = [self.evaluate(arg, scope) for arg in expr.args]
        if expr.name in self.index.functions:
            decl = self.index.functions[expr.name]
            inner: Scope[Any] = Scope()
            for param, arg in zip(decl.params, args):
                inner.define(param.name, arg)
            return self.evaluate(decl.body, inner)
        # The checker admitted only builtins of the right arity.
        if expr.name == "MIN":
            return min(args)
        if expr.name == "MAX":
            return max(args)
        if expr.name == "ABS":
            return abs(args[0])
        raise AslNameError(f"unknown function {expr.name!r}", expr.location)

    def _evaluate_unary(self, expr: UnaryExpr, scope: Scope[Any]) -> Any:
        value = self.evaluate(expr.operand, scope)
        if expr.op is UnaryOp.NEG:
            return -value
        if expr.op is UnaryOp.NOT:
            return not value
        raise AssertionError(f"unhandled unary operator {expr.op}")

    def _evaluate_binary(self, expr: BinaryExpr, scope: Scope[Any]) -> Any:
        op = expr.op
        if op is BinaryOp.AND:
            return bool(self.evaluate(expr.left, scope)) and bool(
                self.evaluate(expr.right, scope)
            )
        if op is BinaryOp.OR:
            return bool(self.evaluate(expr.left, scope)) or bool(
                self.evaluate(expr.right, scope)
            )
        left = self.evaluate(expr.left, scope)
        right = self.evaluate(expr.right, scope)
        if op is BinaryOp.ADD:
            return left + right
        if op is BinaryOp.SUB:
            return left - right
        if op is BinaryOp.MUL:
            return left * right
        if op is BinaryOp.DIV:
            if right == 0:
                raise AslEvaluationError("division by zero", expr.location)
            return left / right
        if op is BinaryOp.MOD:
            if right == 0:
                raise AslEvaluationError("modulo by zero", expr.location)
            return left % right
        if op is BinaryOp.EQ:
            return left == right
        if op is BinaryOp.NE:
            return left != right
        try:
            if op is BinaryOp.LT:
                return left < right
            if op is BinaryOp.LE:
                return left <= right
            if op is BinaryOp.GT:
                return left > right
            if op is BinaryOp.GE:
                return left >= right
        except TypeError as exc:
            raise AslEvaluationError(
                f"cannot order values {left!r} and {right!r}: {exc}", expr.location
            ) from None
        raise AssertionError(f"unhandled binary operator {op}")

    def _evaluate_comprehension(
        self, expr: SetComprehension, scope: Scope[Any]
    ) -> List[Any]:
        source = _iterable(self.evaluate(expr.source, scope), expr)
        result: List[Any] = []
        for element in source:
            inner = scope.child()
            inner.define(expr.var, element)
            if expr.predicate is None or bool(self.evaluate(expr.predicate, inner)):
                result.append(element)
        return result

    def _evaluate_aggregate(self, expr: AggregateExpr, scope: Scope[Any]) -> Any:
        if expr.is_unique:
            elements = list(_iterable(self.evaluate(expr.value, scope), expr))
            if len(elements) != 1:
                raise AslEvaluationError(
                    f"UNIQUE applied to a set with {len(elements)} elements "
                    f"(expected exactly one)",
                    expr.location,
                )
            return elements[0]
        if expr.source is None:
            # The parser/checker guarantee a source on non-UNIQUE aggregates;
            # reaching this means a hand-built (or corrupted) AST.
            raise AslEvaluationError(
                f"aggregate {expr.func} has no source collection",
                expr.location,
            )
        source = _iterable(self.evaluate(expr.source, scope), expr)
        values: List[Any] = []
        for element in source:
            inner = scope.child()
            inner.define(expr.var, element)
            if expr.predicate is not None and not bool(
                self.evaluate(expr.predicate, inner)
            ):
                continue
            values.append(self.evaluate(expr.value, inner))
        func = expr.func
        if func == "COUNT":
            return len(values)
        if func == "SUM":
            return sum(values) if values else 0
        if not values:
            raise AslEvaluationError(
                f"aggregate {func} applied to an empty set", expr.location
            )
        if func == "MIN":
            return min(values)
        if func == "MAX":
            return max(values)
        if func == "AVG":
            return sum(values) / len(values)
        raise AslEvaluationError(f"unknown aggregate {func!r}", expr.location)
