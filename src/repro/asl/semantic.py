"""Semantic analysis (name resolution and type checking) for ASL.

The checker validates a parsed specification document against the static
rules implied by the paper:

* the data model uses single inheritance only; attribute types must refer to
  declared classes, enums or the built-in scalar types;
* specification functions and properties have typed parameters; their bodies
  and expressions must be well typed;
* a property's condition expressions must be boolean, its confidence and
  severity expressions numeric;
* condition identifiers must be unique within a property, and confidence /
  severity guards may only refer to declared condition identifiers.

The checker produces a :class:`~repro.asl.symbols.SpecificationIndex` that the
reference evaluator and the ASL→SQL compiler consume.  Every expression node is
annotated with its inferred type (attribute ``inferred_type``) for later use.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.asl.ast_nodes import (
    AggregateExpr,
    AslProgram,
    AttributeAccess,
    BinaryExpr,
    BinaryOp,
    BoolLiteral,
    ClassDecl,
    Expr,
    FloatLiteral,
    FunctionCall,
    FunctionDecl,
    Identifier,
    IntLiteral,
    PropertyDecl,
    SetComprehension,
    StringLiteral,
    TypeRef,
    UnaryExpr,
    UnaryOp,
    ValueSpec,
)
from repro.asl.errors import AslError, AslNameError, AslTypeError, SourceLocation
from repro.asl.symbols import ClassInfo, Scope, SpecificationIndex
from repro.asl.types import (
    ANY,
    BOOL,
    BUILTIN_TYPES,
    DATETIME,
    FLOAT,
    INT,
    STRING,
    AnyType,
    ClassType,
    EnumType,
    SetType,
    Type,
    common_numeric,
    is_assignable,
    is_numeric,
)

__all__ = ["SemanticChecker", "check_asl", "CheckedSpecification"]

#: Scalar builtins usable in expressions without a WHERE clause, with the
#: fewest and the most arguments each takes (``None``: no upper bound).  The
#: evaluators rely on the checker for the arity.
_SCALAR_BUILTINS = {"MIN": (1, None), "MAX": (1, None), "ABS": (1, 1)}


class CheckedSpecification:
    """The result of a successful semantic check."""

    def __init__(self, program: AslProgram, index: SpecificationIndex) -> None:
        self.program = program
        self.index = index

    @property
    def properties(self) -> Dict[str, PropertyDecl]:
        """All checked property declarations by name."""
        return dict(self.index.properties)


class SemanticChecker:
    """Checks one specification document and builds its symbol index."""

    def __init__(self, program: AslProgram) -> None:
        self.program = program
        self.index = SpecificationIndex()
        self.diagnostics: List[AslError] = []

    # ------------------------------------------------------------------ #
    # entry point
    # ------------------------------------------------------------------ #

    def check(self) -> CheckedSpecification:
        """Run all checks; raises the first error when any were found."""
        self._register_enums()
        self._register_classes()
        self._check_constants()
        self._check_functions()
        self._check_properties()
        if self.diagnostics:
            raise self.diagnostics[0]
        return CheckedSpecification(self.program, self.index)

    # ------------------------------------------------------------------ #
    # diagnostics
    # ------------------------------------------------------------------ #

    def _error(self, message: str, location: Optional[SourceLocation]) -> Type:
        self.diagnostics.append(AslTypeError(message, location))
        return ANY

    def _name_error(self, message: str, location: Optional[SourceLocation]) -> Type:
        self.diagnostics.append(AslNameError(message, location))
        return ANY

    # ------------------------------------------------------------------ #
    # declarations
    # ------------------------------------------------------------------ #

    def _register_enums(self) -> None:
        for decl in self.program.enums:
            try:
                self.index.add_enum(decl)
            except AslError as exc:
                self.diagnostics.append(exc)

    def _register_classes(self) -> None:
        # First pass: register the names so attribute types may refer to any
        # class regardless of declaration order.
        infos: List[ClassInfo] = []
        for decl in self.program.classes:
            info = ClassInfo(decl=decl, base=decl.base)
            try:
                self.index.add_class(info)
                infos.append(info)
            except AslError as exc:
                self.diagnostics.append(exc)
        # Second pass: resolve inheritance and attribute types.
        for info in infos:
            self._resolve_class(info)

    def _resolve_class(self, info: ClassInfo) -> None:
        decl = info.decl
        # Inheritance chain (detect unknown bases and cycles).
        chain: List[ClassDecl] = []
        seen = set()
        current: Optional[ClassDecl] = decl
        while current is not None:
            if current.name in seen:
                self._error(
                    f"inheritance cycle involving class {current.name!r}",
                    decl.location,
                )
                break
            seen.add(current.name)
            chain.append(current)
            if current.base is None:
                current = None
            elif current.base in self.index.classes:
                current = self.index.classes[current.base].decl
            else:
                self._name_error(
                    f"class {current.name!r} extends unknown class "
                    f"{current.base!r}",
                    current.location,
                )
                current = None
        # Attributes: base classes first so derived declarations shadow checks.
        for class_decl in reversed(chain):
            for attr in class_decl.attributes:
                attr_type = self.resolve_type(attr.type)
                if attr.name in info.attributes:
                    self._error(
                        f"attribute {attr.name!r} of class {decl.name!r} is "
                        f"declared more than once (possibly inherited)",
                        attr.location,
                    )
                    continue
                info.attributes[attr.name] = attr_type
                info.declared_in[attr.name] = class_decl.name

    def _check_constants(self) -> None:
        for decl in self.program.constants:
            declared = self.resolve_type(decl.type)
            scope: Scope[Type] = Scope()
            actual = self.check_expr(decl.value, scope)
            if not is_assignable(actual, declared, self.index.subclass_map()):
                self._error(
                    f"constant {decl.name!r} declares type {declared} but its "
                    f"value has type {actual}",
                    decl.location,
                )
            try:
                self.index.add_constant(decl, declared)
            except AslError as exc:
                self.diagnostics.append(exc)

    def _check_functions(self) -> None:
        # Register all signatures first so functions may call each other in any
        # order (Duration calls Summary in the paper's specification).
        signatures: List[Tuple[FunctionDecl, Tuple[Type, ...], Type]] = []
        for decl in self.program.functions:
            param_types = tuple(self.resolve_type(p.type) for p in decl.params)
            return_type = self.resolve_type(decl.return_type)
            try:
                self.index.add_function(decl, param_types, return_type)
                signatures.append((decl, param_types, return_type))
            except AslError as exc:
                self.diagnostics.append(exc)
        for decl, param_types, return_type in signatures:
            scope: Scope[Type] = Scope()
            for param, param_type in zip(decl.params, param_types):
                try:
                    scope.define(param.name, param_type, param.location)
                except AslError as exc:
                    self.diagnostics.append(exc)
            body_type = self.check_expr(decl.body, scope)
            if not is_assignable(body_type, return_type, self.index.subclass_map()):
                self._error(
                    f"function {decl.name!r} declares return type {return_type} "
                    f"but its body has type {body_type}",
                    decl.location,
                )

    def _check_properties(self) -> None:
        for decl in self.program.properties:
            try:
                self.index.add_property(decl)
            except AslError as exc:
                self.diagnostics.append(exc)
                continue
            self._check_property(decl)

    def _check_property(self, decl: PropertyDecl) -> None:
        scope: Scope[Type] = Scope()
        for param in decl.params:
            param_type = self.resolve_type(param.type)
            try:
                scope.define(param.name, param_type, param.location)
            except AslError as exc:
                self.diagnostics.append(exc)
        # LET definitions are checked sequentially; later definitions may use
        # earlier ones (the paper's SublinearSpeedup does exactly that).
        for let_def in decl.let_defs:
            declared = self.resolve_type(let_def.type)
            actual = self.check_expr(let_def.value, scope)
            if not is_assignable(actual, declared, self.index.subclass_map()):
                self._error(
                    f"LET definition {let_def.name!r} in property {decl.name!r} "
                    f"declares type {declared} but its value has type {actual}",
                    let_def.location,
                )
            try:
                scope.define(let_def.name, declared, let_def.location)
            except AslError as exc:
                self.diagnostics.append(exc)
        # Conditions.
        cond_ids: List[str] = []
        for condition in decl.conditions:
            if condition.cond_id is not None:
                if condition.cond_id in cond_ids:
                    self._error(
                        f"condition identifier {condition.cond_id!r} is used "
                        f"more than once in property {decl.name!r}",
                        condition.location,
                    )
                cond_ids.append(condition.cond_id)
            cond_type = self.check_expr(condition.expr, scope)
            if not isinstance(cond_type, AnyType) and cond_type != BOOL:
                self._error(
                    f"condition of property {decl.name!r} must be boolean, "
                    f"found {cond_type}",
                    condition.location,
                )
        self._check_value_spec(decl, decl.confidence, "confidence", cond_ids, scope)
        self._check_value_spec(decl, decl.severity, "severity", cond_ids, scope)

    def _check_value_spec(
        self,
        decl: PropertyDecl,
        spec: ValueSpec,
        what: str,
        cond_ids: List[str],
        scope: Scope[Type],
    ) -> None:
        if not spec.entries:
            self._error(
                f"property {decl.name!r} is missing its {what} specification",
                decl.location,
            )
            return
        for entry in spec.entries:
            if entry.guard is not None and entry.guard not in cond_ids:
                self._name_error(
                    f"{what} guard {entry.guard!r} of property {decl.name!r} "
                    f"does not name a declared condition identifier "
                    f"(declared: {cond_ids or 'none'})",
                    entry.location,
                )
            value_type = self.check_expr(entry.expr, scope)
            if not is_numeric(value_type):
                self._error(
                    f"{what} expression of property {decl.name!r} must be "
                    f"numeric, found {value_type}",
                    entry.location,
                )

    # ------------------------------------------------------------------ #
    # types
    # ------------------------------------------------------------------ #

    def resolve_type(self, ref: TypeRef) -> Type:
        """Resolve a syntactic type reference to a semantic type."""
        base: Type
        if ref.name in BUILTIN_TYPES:
            base = BUILTIN_TYPES[ref.name]
        elif ref.name in self.index.classes:
            base = ClassType(name=ref.name)
        elif ref.name in self.index.enums:
            decl = self.index.enums[ref.name]
            base = EnumType(name=ref.name, members=tuple(decl.members))
        else:
            return self._name_error(f"unknown type {ref.name!r}", ref.location)
        return SetType(element=base) if ref.is_set else base

    # ------------------------------------------------------------------ #
    # expressions
    # ------------------------------------------------------------------ #

    def check_expr(self, expr: Expr, scope: Scope[Type]) -> Type:
        """Infer the type of ``expr`` and annotate the node (``inferred_type``)."""
        result = self._check_expr_inner(expr, scope)
        expr.inferred_type = result  # type: ignore[attr-defined]
        return result

    def _check_expr_inner(self, expr: Expr, scope: Scope[Type]) -> Type:
        if isinstance(expr, IntLiteral):
            return INT
        if isinstance(expr, FloatLiteral):
            return FLOAT
        if isinstance(expr, StringLiteral):
            return STRING
        if isinstance(expr, BoolLiteral):
            return BOOL
        if isinstance(expr, Identifier):
            return self._check_identifier(expr, scope)
        if isinstance(expr, AttributeAccess):
            return self._check_attribute(expr, scope)
        if isinstance(expr, FunctionCall):
            return self._check_call(expr, scope)
        if isinstance(expr, UnaryExpr):
            return self._check_unary(expr, scope)
        if isinstance(expr, BinaryExpr):
            return self._check_binary(expr, scope)
        if isinstance(expr, SetComprehension):
            return self._check_comprehension(expr, scope)
        if isinstance(expr, AggregateExpr):
            return self._check_aggregate(expr, scope)
        return self._error(
            f"unsupported expression node {type(expr).__name__}", expr.location
        )

    def _check_identifier(self, expr: Identifier, scope: Scope[Type]) -> Type:
        bound = scope.lookup(expr.name)
        if bound is not None:
            return bound
        if expr.name in self.index.constant_types:
            return self.index.constant_types[expr.name]
        if expr.name in self.index.enum_members:
            return self.index.enum_members[expr.name]
        return self._name_error(
            f"unknown name {expr.name!r} (not a parameter, LET definition, "
            f"constant or enum member)",
            expr.location,
        )

    def _check_attribute(self, expr: AttributeAccess, scope: Scope[Type]) -> Type:
        obj_type = self.check_expr(expr.obj, scope)
        if isinstance(obj_type, AnyType):
            return ANY
        if isinstance(obj_type, ClassType):
            try:
                return self.index.attribute_type(obj_type.name, expr.attribute)
            except AslError as exc:
                self.diagnostics.append(
                    AslNameError(exc.bare_message, expr.location)
                )
                return ANY
        if isinstance(obj_type, SetType):
            return self._error(
                f"cannot access attribute {expr.attribute!r} on a set; use a "
                f"set operation (UNIQUE, SUM, …) to select elements first",
                expr.location,
            )
        return self._error(
            f"cannot access attribute {expr.attribute!r} on a value of type "
            f"{obj_type}",
            expr.location,
        )

    def _check_call(self, expr: FunctionCall, scope: Scope[Type]) -> Type:
        if expr.name in self.index.function_types:
            param_types, return_type = self.index.function_types[expr.name]
            if len(expr.args) != len(param_types):
                self._error(
                    f"function {expr.name!r} expects {len(param_types)} "
                    f"arguments, got {len(expr.args)}",
                    expr.location,
                )
            for arg, param_type in zip(expr.args, param_types):
                arg_type = self.check_expr(arg, scope)
                if not is_assignable(arg_type, param_type, self.index.subclass_map()):
                    self._error(
                        f"argument of type {arg_type} is not assignable to "
                        f"parameter of type {param_type} in call to "
                        f"{expr.name!r}",
                        arg.location,
                    )
            return return_type
        if expr.name in _SCALAR_BUILTINS:
            arg_types = [self.check_expr(arg, scope) for arg in expr.args]
            fewest, most = _SCALAR_BUILTINS[expr.name]
            if len(expr.args) < fewest or (most is not None and len(expr.args) > most):
                arity = f"at least {fewest}" if most is None else f"exactly {most}"
                return self._error(
                    f"builtin {expr.name} takes {arity} argument(s), got "
                    f"{len(expr.args)}",
                    expr.location,
                )
            for arg, arg_type in zip(expr.args, arg_types):
                if not is_numeric(arg_type):
                    self._error(
                        f"builtin {expr.name} requires numeric arguments, "
                        f"found {arg_type}",
                        arg.location,
                    )
            result: Type = INT
            for arg_type in arg_types:
                result = common_numeric(result, arg_type)
            return result
        # Still type check the arguments for follow-up diagnostics.
        for arg in expr.args:
            self.check_expr(arg, scope)
        return self._name_error(f"unknown function {expr.name!r}", expr.location)

    def _check_unary(self, expr: UnaryExpr, scope: Scope[Type]) -> Type:
        operand = self.check_expr(expr.operand, scope)
        if expr.op is UnaryOp.NEG:
            if not is_numeric(operand):
                return self._error(
                    f"unary '-' requires a numeric operand, found {operand}",
                    expr.location,
                )
            return operand
        if expr.op is UnaryOp.NOT:
            if not isinstance(operand, AnyType) and operand != BOOL:
                return self._error(
                    f"NOT requires a boolean operand, found {operand}",
                    expr.location,
                )
            return BOOL
        raise AssertionError(f"unhandled unary operator {expr.op}")

    def _check_binary(self, expr: BinaryExpr, scope: Scope[Type]) -> Type:
        left = self.check_expr(expr.left, scope)
        right = self.check_expr(expr.right, scope)
        op = expr.op
        if op.is_logical:
            for side, side_type in (("left", left), ("right", right)):
                if not isinstance(side_type, AnyType) and side_type != BOOL:
                    self._error(
                        f"{op.value} requires boolean operands, {side} operand "
                        f"has type {side_type}",
                        expr.location,
                    )
            return BOOL
        if op.is_arithmetic:
            if not is_numeric(left) or not is_numeric(right):
                return self._error(
                    f"operator {op.value!r} requires numeric operands, found "
                    f"{left} and {right}",
                    expr.location,
                )
            return common_numeric(left, right)
        if op in (BinaryOp.EQ, BinaryOp.NE):
            subclasses = self.index.subclass_map()
            if not (
                is_assignable(left, right, subclasses)
                or is_assignable(right, left, subclasses)
            ):
                self._error(
                    f"cannot compare values of incompatible types {left} and "
                    f"{right}",
                    expr.location,
                )
            return BOOL
        # Ordering comparisons.
        orderable = (
            (is_numeric(left) and is_numeric(right))
            or (left == right == DATETIME)
            or (left == right == STRING)
            or isinstance(left, AnyType)
            or isinstance(right, AnyType)
        )
        if not orderable:
            self._error(
                f"operator {op.value!r} cannot order values of types {left} "
                f"and {right}",
                expr.location,
            )
        return BOOL

    def _check_comprehension(self, expr: SetComprehension, scope: Scope[Type]) -> Type:
        source = self.check_expr(expr.source, scope)
        if isinstance(source, AnyType):
            element: Type = ANY
        elif isinstance(source, SetType):
            element = source.element
        else:
            return self._error(
                f"set comprehension requires a set-valued source, found {source}",
                expr.location,
            )
        inner = scope.child()
        try:
            inner.define(expr.var, element, expr.location)
        except AslError as exc:
            self.diagnostics.append(exc)
        if expr.predicate is not None:
            predicate = self.check_expr(expr.predicate, inner)
            if not isinstance(predicate, AnyType) and predicate != BOOL:
                self._error(
                    f"WITH predicate must be boolean, found {predicate}",
                    expr.predicate.location,
                )
        return SetType(element=element)

    def _check_aggregate(self, expr: AggregateExpr, scope: Scope[Type]) -> Type:
        if expr.is_unique:
            value = self.check_expr(expr.value, scope)
            if isinstance(value, AnyType):
                return ANY
            if not isinstance(value, SetType):
                return self._error(
                    f"UNIQUE requires a set-valued argument, found {value}",
                    expr.location,
                )
            return value.element
        if expr.source is None:
            return self._error(
                f"aggregate {expr.func} requires a WHERE clause", expr.location
            )
        source = self.check_expr(expr.source, scope)
        if isinstance(source, AnyType):
            element: Type = ANY
        elif isinstance(source, SetType):
            element = source.element
        else:
            return self._error(
                f"aggregate {expr.func} requires a set-valued source, found "
                f"{source}",
                expr.location,
            )
        inner = scope.child()
        try:
            inner.define(expr.var, element, expr.location)
        except AslError as exc:
            self.diagnostics.append(exc)
        value_type = self.check_expr(expr.value, inner)
        if expr.predicate is not None:
            predicate = self.check_expr(expr.predicate, inner)
            if not isinstance(predicate, AnyType) and predicate != BOOL:
                self._error(
                    f"aggregate predicate must be boolean, found {predicate}",
                    expr.predicate.location,
                )
        if expr.func == "COUNT":
            return INT
        if not is_numeric(value_type) and not isinstance(value_type, AnyType):
            if expr.func in ("MIN", "MAX") and value_type == DATETIME:
                return DATETIME
            return self._error(
                f"aggregate {expr.func} requires a numeric value expression, "
                f"found {value_type}",
                expr.value.location,
            )
        if expr.func in ("MIN", "MAX"):
            return value_type if not isinstance(value_type, AnyType) else ANY
        if expr.func == "SUM":
            return value_type if value_type == INT else FLOAT
        return FLOAT


def check_asl(program: AslProgram) -> CheckedSpecification:
    """Semantically check a parsed specification document."""
    return SemanticChecker(program).check()
