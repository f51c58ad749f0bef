"""Abstract syntax tree of the APART Specification Language.

The node classes follow the structure of the paper:

* the **data model section** consists of class declarations (attributes only,
  single inheritance), enumeration declarations and global helper function
  definitions such as ``Summary`` and ``Duration`` (Section 4.1 / 4.2);
* the **property section** consists of property declarations following the
  grammar of Figure 1: parameter list, optional ``LET … IN`` definitions, a
  list of (optionally named) conditions, and confidence / severity
  specifications that are either a single expression or the ``MAX`` of a list
  of condition-guarded expressions.

Every node carries a :class:`~repro.asl.errors.SourceLocation` so the semantic
checker and the SQL compiler can produce precise diagnostics.
"""

from __future__ import annotations

import enum
from typing import Iterator, List, Optional, Sequence, Union

from repro.asl.errors import SourceLocation
from repro.records import FrozenRecord, Record, slot_setters

_unknown = SourceLocation.unknown

__all__ = [
    # types
    "TypeRef",
    # expressions
    "Expr",
    "IntLiteral",
    "FloatLiteral",
    "StringLiteral",
    "BoolLiteral",
    "Identifier",
    "AttributeAccess",
    "FunctionCall",
    "UnaryOp",
    "UnaryExpr",
    "BinaryOp",
    "BinaryExpr",
    "SetComprehension",
    "AggregateExpr",
    # declarations
    "AttributeDecl",
    "ClassDecl",
    "EnumDecl",
    "ConstantDecl",
    "Param",
    "FunctionDecl",
    "LetDef",
    "ConditionClause",
    "GuardedExpr",
    "ValueSpec",
    "PropertyDecl",
    "AslProgram",
    "Declaration",
    "walk",
]


# --------------------------------------------------------------------------- #
# type references
# --------------------------------------------------------------------------- #


class TypeRef(FrozenRecord):
    """A syntactic reference to a type, e.g. ``float`` or ``setof Region``."""

    __slots__ = ("name", "is_set", "location")
    _uncompared = ("location",)

    def __init__(
        self, name: str, is_set: bool = False, location: Optional[SourceLocation] = None
    ) -> None:
        _type_ref_name(self, name)
        _type_ref_is_set(self, is_set)
        _type_ref_location(self, _unknown() if location is None else location)

    def __str__(self) -> str:
        return f"setof {self.name}" if self.is_set else self.name


_type_ref_name, _type_ref_is_set, _type_ref_location = slot_setters(TypeRef)


# --------------------------------------------------------------------------- #
# expressions
# --------------------------------------------------------------------------- #


class Expr(Record):
    """Base class of every ASL expression node.

    Each subclass's constructor takes ``location`` first, then its own fields.
    Equality ignores ``location``; the semantic checker annotates each node
    with ``inferred_type``, which is not a field.
    """

    __slots__ = ("location", "inferred_type")
    _fields = ("location",)
    _uncompared = ("location",)

    def __init__(self, location: Optional[SourceLocation] = None) -> None:
        self.location = _unknown() if location is None else location

    def children(self) -> Sequence["Expr"]:
        """Direct sub-expressions (used by generic tree walks)."""
        return ()


class IntLiteral(Expr):
    __slots__ = ("value",)

    def __init__(self, location: Optional[SourceLocation] = None, value: int = 0) -> None:
        self.location = _unknown() if location is None else location
        self.value = value


class FloatLiteral(Expr):
    __slots__ = ("value",)

    def __init__(
        self, location: Optional[SourceLocation] = None, value: float = 0.0
    ) -> None:
        self.location = _unknown() if location is None else location
        self.value = value


class StringLiteral(Expr):
    __slots__ = ("value",)

    def __init__(self, location: Optional[SourceLocation] = None, value: str = "") -> None:
        self.location = _unknown() if location is None else location
        self.value = value


class BoolLiteral(Expr):
    __slots__ = ("value",)

    def __init__(
        self, location: Optional[SourceLocation] = None, value: bool = False
    ) -> None:
        self.location = _unknown() if location is None else location
        self.value = value


class Identifier(Expr):
    """A reference to a parameter, LET definition, constant or enum member."""

    __slots__ = ("name",)

    def __init__(self, location: Optional[SourceLocation] = None, name: str = "") -> None:
        self.location = _unknown() if location is None else location
        self.name = name


class AttributeAccess(Expr):
    """``object.Attribute`` — navigation along the data model."""

    __slots__ = ("obj", "attribute")

    def __init__(
        self,
        location: Optional[SourceLocation] = None,
        obj: Optional[Expr] = None,
        attribute: str = "",
    ) -> None:
        self.location = _unknown() if location is None else location
        self.obj = Expr() if obj is None else obj
        self.attribute = attribute

    def children(self) -> Sequence[Expr]:
        return (self.obj,)


class FunctionCall(Expr):
    """A call of a user-defined specification function, e.g. ``Duration(r, t)``."""

    __slots__ = ("name", "args")

    def __init__(
        self,
        location: Optional[SourceLocation] = None,
        name: str = "",
        args: Optional[List[Expr]] = None,
    ) -> None:
        self.location = _unknown() if location is None else location
        self.name = name
        self.args = [] if args is None else args

    def children(self) -> Sequence[Expr]:
        return tuple(self.args)


class UnaryOp(enum.Enum):
    NEG = "-"
    NOT = "NOT"


class UnaryExpr(Expr):
    __slots__ = ("op", "operand")

    def __init__(
        self,
        location: Optional[SourceLocation] = None,
        op: UnaryOp = UnaryOp.NEG,
        operand: Optional[Expr] = None,
    ) -> None:
        self.location = _unknown() if location is None else location
        self.op = op
        self.operand = Expr() if operand is None else operand

    def children(self) -> Sequence[Expr]:
        return (self.operand,)


class BinaryOp(enum.Enum):
    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    MOD = "%"
    EQ = "=="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    AND = "AND"
    OR = "OR"

    @property
    def is_comparison(self) -> bool:
        return self in (
            BinaryOp.EQ,
            BinaryOp.NE,
            BinaryOp.LT,
            BinaryOp.LE,
            BinaryOp.GT,
            BinaryOp.GE,
        )

    @property
    def is_logical(self) -> bool:
        return self in (BinaryOp.AND, BinaryOp.OR)

    @property
    def is_arithmetic(self) -> bool:
        return self in (
            BinaryOp.ADD,
            BinaryOp.SUB,
            BinaryOp.MUL,
            BinaryOp.DIV,
            BinaryOp.MOD,
        )


class BinaryExpr(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(
        self,
        location: Optional[SourceLocation] = None,
        op: BinaryOp = BinaryOp.ADD,
        left: Optional[Expr] = None,
        right: Optional[Expr] = None,
    ) -> None:
        self.location = _unknown() if location is None else location
        self.op = op
        self.left = Expr() if left is None else left
        self.right = Expr() if right is None else right

    def children(self) -> Sequence[Expr]:
        return (self.left, self.right)


class SetComprehension(Expr):
    """``{ var IN source WITH predicate }`` — selection from a set."""

    __slots__ = ("var", "source", "predicate")

    def __init__(
        self,
        location: Optional[SourceLocation] = None,
        var: str = "",
        source: Optional[Expr] = None,
        predicate: Optional[Expr] = None,
    ) -> None:
        self.location = _unknown() if location is None else location
        self.var = var
        self.source = Expr() if source is None else source
        self.predicate = predicate

    def children(self) -> Sequence[Expr]:
        if self.predicate is None:
            return (self.source,)
        return (self.source, self.predicate)


class AggregateExpr(Expr):
    """An aggregate over a set.

    Two syntactic forms are supported, both used in the paper's examples:

    * ``UNIQUE(set-expr)`` — the single element of a singleton set
      (``func="UNIQUE"``, ``var`` empty, ``value`` is the set expression);
    * ``SUM(value WHERE var IN source AND pred …)`` /
      ``MIN(...)`` / ``MAX(...)`` / ``AVG(...)`` / ``COUNT(...)`` —
      an aggregate of ``value`` over the elements of ``source`` bound to
      ``var`` that satisfy the optional predicate.
    """

    __slots__ = ("func", "value", "var", "source", "predicate")

    def __init__(
        self,
        location: Optional[SourceLocation] = None,
        func: str = "SUM",
        value: Optional[Expr] = None,
        var: str = "",
        source: Optional[Expr] = None,
        predicate: Optional[Expr] = None,
    ) -> None:
        self.location = _unknown() if location is None else location
        self.func = func
        self.value = Expr() if value is None else value
        self.var = var
        self.source = source
        self.predicate = predicate

    @property
    def is_unique(self) -> bool:
        return self.func == "UNIQUE"

    def children(self) -> Sequence[Expr]:
        result: List[Expr] = [self.value]
        if self.source is not None:
            result.append(self.source)
        if self.predicate is not None:
            result.append(self.predicate)
        return tuple(result)


# --------------------------------------------------------------------------- #
# declarations
# --------------------------------------------------------------------------- #


class AttributeDecl(Record):
    """One attribute of a data-model class, e.g. ``setof TestRun Runs;``."""

    __slots__ = ("type", "name", "location")

    def __init__(
        self, type: TypeRef, name: str, location: Optional[SourceLocation] = None
    ) -> None:
        self.type = type
        self.name = name
        self.location = _unknown() if location is None else location


class ClassDecl(Record):
    """A data-model class (attributes only, optional single inheritance)."""

    __slots__ = ("name", "attributes", "base", "location")

    def __init__(
        self,
        name: str,
        attributes: Optional[List[AttributeDecl]] = None,
        base: Optional[str] = None,
        location: Optional[SourceLocation] = None,
    ) -> None:
        self.name = name
        self.attributes = [] if attributes is None else attributes
        self.base = base
        self.location = _unknown() if location is None else location

    def attribute(self, name: str) -> Optional[AttributeDecl]:
        """Return the attribute declared *directly* on this class, if any."""
        for attr in self.attributes:
            if attr.name == name:
                return attr
        return None


class EnumDecl(Record):
    """An enumeration type, e.g. the Apprentice ``TimingType``."""

    __slots__ = ("name", "members", "location")

    def __init__(
        self,
        name: str,
        members: Optional[List[str]] = None,
        location: Optional[SourceLocation] = None,
    ) -> None:
        self.name = name
        self.members = [] if members is None else members
        self.location = _unknown() if location is None else location


class ConstantDecl(Record):
    """A named constant usable in property expressions.

    The paper's ``LoadImbalance`` property refers to an ``ImbalanceThreshold``
    without defining it; constants make such thresholds part of the
    specification document while still being overridable by the tool.
    """

    __slots__ = ("type", "name", "value", "location")

    def __init__(
        self,
        type: TypeRef,
        name: str,
        value: Expr,
        location: Optional[SourceLocation] = None,
    ) -> None:
        self.type = type
        self.name = name
        self.value = value
        self.location = _unknown() if location is None else location


class Param(Record):
    """A formal parameter of a function or property."""

    __slots__ = ("type", "name", "location")

    def __init__(
        self, type: TypeRef, name: str, location: Optional[SourceLocation] = None
    ) -> None:
        self.type = type
        self.name = name
        self.location = _unknown() if location is None else location


class FunctionDecl(Record):
    """A specification function, e.g. ``float Duration(Region r, TestRun t) = …;``."""

    __slots__ = ("return_type", "name", "params", "body", "location")

    def __init__(
        self,
        return_type: TypeRef,
        name: str,
        params: List[Param],
        body: Expr,
        location: Optional[SourceLocation] = None,
    ) -> None:
        self.return_type = return_type
        self.name = name
        self.params = params
        self.body = body
        self.location = _unknown() if location is None else location


class LetDef(Record):
    """One definition inside a property's ``LET … IN`` block."""

    __slots__ = ("type", "name", "value", "location")

    def __init__(
        self,
        type: TypeRef,
        name: str,
        value: Expr,
        location: Optional[SourceLocation] = None,
    ) -> None:
        self.type = type
        self.name = name
        self.value = value
        self.location = _unknown() if location is None else location


class ConditionClause(Record):
    """One condition of a property, optionally labelled with a condition id."""

    __slots__ = ("expr", "cond_id", "location")

    def __init__(
        self,
        expr: Expr,
        cond_id: Optional[str] = None,
        location: Optional[SourceLocation] = None,
    ) -> None:
        self.expr = expr
        self.cond_id = cond_id
        self.location = _unknown() if location is None else location


class GuardedExpr(Record):
    """A confidence/severity value, optionally guarded by a condition id."""

    __slots__ = ("expr", "guard", "location")

    def __init__(
        self,
        expr: Expr,
        guard: Optional[str] = None,
        location: Optional[SourceLocation] = None,
    ) -> None:
        self.expr = expr
        self.guard = guard
        self.location = _unknown() if location is None else location


class ValueSpec(Record):
    """A confidence or severity specification.

    ``is_max`` is true when the specification uses the ``MAX( … )`` form of
    Figure 1; otherwise ``entries`` holds exactly one (possibly guarded)
    expression.
    """

    __slots__ = ("entries", "is_max", "location")

    def __init__(
        self,
        entries: Optional[List[GuardedExpr]] = None,
        is_max: bool = False,
        location: Optional[SourceLocation] = None,
    ) -> None:
        self.entries = [] if entries is None else entries
        self.is_max = is_max
        self.location = _unknown() if location is None else location


class PropertyDecl(Record):
    """A complete ASL performance property (Figure 1)."""

    __slots__ = (
        "name", "params", "let_defs", "conditions", "confidence", "severity",
        "location",
    )

    def __init__(
        self,
        name: str,
        params: Optional[List[Param]] = None,
        let_defs: Optional[List[LetDef]] = None,
        conditions: Optional[List[ConditionClause]] = None,
        confidence: Optional[ValueSpec] = None,
        severity: Optional[ValueSpec] = None,
        location: Optional[SourceLocation] = None,
    ) -> None:
        self.name = name
        self.params = [] if params is None else params
        self.let_defs = [] if let_defs is None else let_defs
        self.conditions = [] if conditions is None else conditions
        self.confidence = ValueSpec() if confidence is None else confidence
        self.severity = ValueSpec() if severity is None else severity
        self.location = _unknown() if location is None else location

    def condition_ids(self) -> List[str]:
        """All declared condition identifiers, in declaration order."""
        return [c.cond_id for c in self.conditions if c.cond_id is not None]


Declaration = Union[ClassDecl, EnumDecl, ConstantDecl, FunctionDecl, PropertyDecl]


class AslProgram(Record):
    """A parsed ASL specification document (data model + properties)."""

    __slots__ = ("declarations", "filename")

    def __init__(
        self, declarations: Optional[List[Declaration]] = None, filename: str = "<asl>"
    ) -> None:
        self.declarations = [] if declarations is None else declarations
        self.filename = filename

    # -- typed views -----------------------------------------------------------

    @property
    def classes(self) -> List[ClassDecl]:
        return [d for d in self.declarations if isinstance(d, ClassDecl)]

    @property
    def enums(self) -> List[EnumDecl]:
        return [d for d in self.declarations if isinstance(d, EnumDecl)]

    @property
    def constants(self) -> List[ConstantDecl]:
        return [d for d in self.declarations if isinstance(d, ConstantDecl)]

    @property
    def functions(self) -> List[FunctionDecl]:
        return [d for d in self.declarations if isinstance(d, FunctionDecl)]

    @property
    def properties(self) -> List[PropertyDecl]:
        return [d for d in self.declarations if isinstance(d, PropertyDecl)]

    # -- lookup ------------------------------------------------------------------

    def class_decl(self, name: str) -> ClassDecl:
        for decl in self.classes:
            if decl.name == name:
                return decl
        raise KeyError(f"no class named {name!r}")

    def property_decl(self, name: str) -> PropertyDecl:
        for decl in self.properties:
            if decl.name == name:
                return decl
        raise KeyError(f"no property named {name!r}")

    def function_decl(self, name: str) -> FunctionDecl:
        for decl in self.functions:
            if decl.name == name:
                return decl
        raise KeyError(f"no function named {name!r}")

    def merge(self, other: "AslProgram") -> "AslProgram":
        """Return a new program combining the declarations of both documents.

        COSY keeps the data model and the property specifications in separate
        sections (Section 4); merging the two parsed documents produces the
        complete specification.
        """
        return AslProgram(
            declarations=list(self.declarations) + list(other.declarations),
            filename=f"{self.filename}+{other.filename}",
        )


def walk(expr: Expr) -> Iterator[Expr]:
    """Yield ``expr`` and all nested sub-expressions, depth first."""
    yield expr
    for child in expr.children():
        yield from walk(child)
