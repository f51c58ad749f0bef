"""The ASL type system.

ASL is statically typed: the data model declares classes with typed attributes,
functions and properties declare typed parameters, and the semantic checker
(:mod:`repro.asl.semantic`) verifies that every expression is well typed before
a specification is accepted by COSY or translated to SQL.

The type universe consists of

* the scalar base types ``int``, ``float``, ``bool``, ``String``, ``DateTime``
  and the opaque ``SourceCode`` type used by the COSY data model,
* class types declared in the data model (single inheritance),
* enumeration types (e.g. the Apprentice ``TimingType``),
* homogeneous set types ``setof T`` for every element type ``T``.

``int`` is implicitly convertible to ``float``; no other implicit conversions
exist.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, Tuple

from repro.records import FrozenRecord, slot_setters

__all__ = [
    "Type",
    "ScalarKind",
    "ScalarType",
    "ClassType",
    "EnumType",
    "SetType",
    "AnyType",
    "INT",
    "FLOAT",
    "BOOL",
    "STRING",
    "DATETIME",
    "SOURCECODE",
    "ANY",
    "BUILTIN_TYPES",
    "is_numeric",
    "is_assignable",
    "common_numeric",
]


class Type(FrozenRecord):
    """Base class of all ASL types (immutable, compared by value)."""

    __slots__ = ()

    def __str__(self) -> str:  # pragma: no cover - overridden
        return self.__class__.__name__


class ScalarKind(enum.Enum):
    """The built-in scalar type kinds."""

    INT = "int"
    FLOAT = "float"
    BOOL = "bool"
    STRING = "String"
    DATETIME = "DateTime"
    SOURCECODE = "SourceCode"


class ScalarType(Type):
    """A built-in scalar type."""

    __slots__ = ("kind",)

    def __init__(self, kind: ScalarKind) -> None:
        _scalar_kind(self, kind)

    def __str__(self) -> str:
        return self.kind.value


(_scalar_kind,) = slot_setters(ScalarType)


class ClassType(Type):
    """A class declared in the data model section."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        _class_name(self, name)

    def __str__(self) -> str:
        return self.name


(_class_name,) = slot_setters(ClassType)


class EnumType(Type):
    """An enumeration type declared in the data model section."""

    __slots__ = ("name", "members")

    def __init__(self, name: str, members: Tuple[str, ...] = ()) -> None:
        _enum_name(self, name)
        _enum_members(self, members)

    def __str__(self) -> str:
        return self.name


_enum_name, _enum_members = slot_setters(EnumType)


class SetType(Type):
    """A homogeneous set of elements (``setof T``)."""

    __slots__ = ("element",)

    def __init__(self, element: Type) -> None:
        _set_element(self, element)

    def __str__(self) -> str:
        return f"setof {self.element}"


(_set_element,) = slot_setters(SetType)


class AnyType(Type):
    """The error-recovery type: compatible with everything.

    The semantic checker assigns ``ANY`` to sub-expressions it could not type
    so that one mistake does not produce a cascade of follow-up errors.
    """

    __slots__ = ()

    def __str__(self) -> str:
        return "<any>"


INT = ScalarType(ScalarKind.INT)
FLOAT = ScalarType(ScalarKind.FLOAT)
BOOL = ScalarType(ScalarKind.BOOL)
STRING = ScalarType(ScalarKind.STRING)
DATETIME = ScalarType(ScalarKind.DATETIME)
SOURCECODE = ScalarType(ScalarKind.SOURCECODE)
ANY = AnyType()

#: Spelling of the built-in type names as they appear in specifications.
BUILTIN_TYPES: Dict[str, Type] = {
    "int": INT,
    "float": FLOAT,
    "bool": BOOL,
    "String": STRING,
    "string": STRING,
    "DateTime": DATETIME,
    "SourceCode": SOURCECODE,
}


def is_numeric(t: Type) -> bool:
    """True for ``int``, ``float`` and the error-recovery type."""
    if isinstance(t, AnyType):
        return True
    return isinstance(t, ScalarType) and t.kind in (ScalarKind.INT, ScalarKind.FLOAT)


def common_numeric(left: Type, right: Type) -> Type:
    """The result type of an arithmetic operation on two numeric types."""
    if isinstance(left, AnyType) or isinstance(right, AnyType):
        return ANY
    if left == FLOAT or right == FLOAT:
        return FLOAT
    return INT


def is_assignable(value: Type, target: Type, subclasses: Optional[Dict[str, str]] = None) -> bool:
    """Whether a value of type ``value`` can be used where ``target`` is expected.

    ``subclasses`` optionally maps a class name to its base class name so that
    a subclass instance can be used where the base class is expected (ASL has
    single inheritance).
    """
    if isinstance(value, AnyType) or isinstance(target, AnyType):
        return True
    if value == target:
        return True
    if value == INT and target == FLOAT:
        return True
    if isinstance(value, SetType) and isinstance(target, SetType):
        return is_assignable(value.element, target.element, subclasses)
    if (
        isinstance(value, ClassType)
        and isinstance(target, ClassType)
        and subclasses is not None
    ):
        # Walk the single-inheritance chain of the value's class.
        current: Optional[str] = value.name
        seen = set()
        while current is not None and current not in seen:
            if current == target.name:
                return True
            seen.add(current)
            current = subclasses.get(current)
    return False
