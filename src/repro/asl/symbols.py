"""Symbol tables for the ASL semantic checker and evaluator.

Two kinds of symbol tables are used:

* :class:`SpecificationIndex` — the *global* index of a parsed specification:
  classes (with their resolved attribute types and inheritance chain), enums,
  constants, specification functions and properties.  It is built once per
  document by the semantic checker and then shared by the evaluator and the
  SQL compiler.
* :class:`Scope` — a lexical scope mapping local names (property parameters,
  ``LET`` definitions, comprehension and aggregate variables) to their types or
  runtime values.  Scopes nest; lookup walks outwards.
"""

from __future__ import annotations

from typing import Dict, Generic, Iterator, Optional, Tuple, TypeVar

from repro.asl.ast_nodes import (
    ClassDecl,
    ConstantDecl,
    EnumDecl,
    FunctionDecl,
    PropertyDecl,
)
from repro.asl.errors import AslNameError, SourceLocation
from repro.asl.types import EnumType, Type
from repro.records import Record

__all__ = ["MISSING", "Scope", "ClassInfo", "SpecificationIndex"]

T = TypeVar("T")


class _Missing:
    """Sentinel distinguishing 'unbound' from a binding whose value is None."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<MISSING>"


#: Returned by :meth:`Scope.find` when a name is unbound.
MISSING = _Missing()


class Scope(Generic[T]):
    """A nested name→value mapping with outward lookup."""

    def __init__(self, parent: Optional["Scope[T]"] = None) -> None:
        self.parent = parent
        self._bindings: Dict[str, T] = {}

    def child(self) -> "Scope[T]":
        """Create a nested scope."""
        return Scope(parent=self)

    def define(self, name: str, value: T, location: Optional[SourceLocation] = None) -> None:
        """Bind ``name`` in this scope; redefinition in the same scope fails."""
        if name in self._bindings:
            raise AslNameError(f"name {name!r} is already defined in this scope", location)
        self._bindings[name] = value

    def assign(self, name: str, value: T) -> None:
        """Rebind ``name`` in the nearest scope that defines it (else here)."""
        scope: Optional[Scope[T]] = self
        while scope is not None:
            if name in scope._bindings:
                scope._bindings[name] = value
                return
            scope = scope.parent
        self._bindings[name] = value

    def find(self, name: str):
        """Return the binding of ``name`` or the :data:`MISSING` sentinel.

        One walk up the scope chain resolves both the value *and* whether the
        name is bound at all, so callers don't need a second ``in`` walk to
        distinguish "unbound" from "bound to None".
        """
        scope: Optional[Scope[T]] = self
        while scope is not None:
            bindings = scope._bindings
            if name in bindings:
                return bindings[name]
            scope = scope.parent
        return MISSING

    def lookup(self, name: str) -> Optional[T]:
        """Return the binding of ``name`` or ``None`` when it is unbound."""
        value = self.find(name)
        return None if value is MISSING else value

    def __contains__(self, name: str) -> bool:
        return self.find(name) is not MISSING

    def names(self) -> Iterator[str]:
        """All names visible from this scope (inner shadowing outer)."""
        seen = set()
        scope: Optional[Scope[T]] = self
        while scope is not None:
            for name in scope._bindings:
                if name not in seen:
                    seen.add(name)
                    yield name
            scope = scope.parent


class ClassInfo(Record):
    """Resolved information about one data-model class.

    ``attributes`` maps each attribute name to its resolved type, *including
    inherited attributes*; ``declared_in`` maps it to the name of the class
    that declares it (for SQL mapping).
    """

    __slots__ = ("decl", "attributes", "declared_in", "base")

    def __init__(
        self,
        decl: ClassDecl,
        attributes: Optional[Dict[str, Type]] = None,
        declared_in: Optional[Dict[str, str]] = None,
        base: Optional[str] = None,
    ) -> None:
        self.decl = decl
        self.attributes = {} if attributes is None else attributes
        self.declared_in = {} if declared_in is None else declared_in
        self.base = base

    @property
    def name(self) -> str:
        return self.decl.name


class SpecificationIndex:
    """Global symbol index of one checked ASL specification."""

    def __init__(self) -> None:
        self.classes: Dict[str, ClassInfo] = {}
        self.enums: Dict[str, EnumDecl] = {}
        #: Enum member name → owning enum type (members are globally unique).
        self.enum_members: Dict[str, EnumType] = {}
        self.constants: Dict[str, ConstantDecl] = {}
        self.constant_types: Dict[str, Type] = {}
        self.functions: Dict[str, FunctionDecl] = {}
        self.function_types: Dict[str, Tuple[Tuple[Type, ...], Type]] = {}
        self.properties: Dict[str, PropertyDecl] = {}

    # -- registration ----------------------------------------------------------

    def add_class(self, info: ClassInfo) -> None:
        if info.name in self.classes:
            raise AslNameError(
                f"class {info.name!r} is declared more than once", info.decl.location
            )
        self.classes[info.name] = info

    def add_enum(self, decl: EnumDecl) -> None:
        if decl.name in self.enums:
            raise AslNameError(
                f"enum {decl.name!r} is declared more than once", decl.location
            )
        self.enums[decl.name] = decl
        enum_type = EnumType(name=decl.name, members=tuple(decl.members))
        for member in decl.members:
            if member in self.enum_members:
                raise AslNameError(
                    f"enum member {member!r} is declared in more than one enum",
                    decl.location,
                )
            self.enum_members[member] = enum_type

    def add_constant(self, decl: ConstantDecl, resolved_type: Type) -> None:
        if decl.name in self.constants:
            raise AslNameError(
                f"constant {decl.name!r} is declared more than once", decl.location
            )
        self.constants[decl.name] = decl
        self.constant_types[decl.name] = resolved_type

    def add_function(
        self, decl: FunctionDecl, param_types: Tuple[Type, ...], return_type: Type
    ) -> None:
        if decl.name in self.functions:
            raise AslNameError(
                f"function {decl.name!r} is declared more than once", decl.location
            )
        self.functions[decl.name] = decl
        self.function_types[decl.name] = (param_types, return_type)

    def add_property(self, decl: PropertyDecl) -> None:
        if decl.name in self.properties:
            raise AslNameError(
                f"property {decl.name!r} is declared more than once", decl.location
            )
        self.properties[decl.name] = decl

    # -- lookup ------------------------------------------------------------------

    def class_info(self, name: str) -> ClassInfo:
        try:
            return self.classes[name]
        except KeyError:
            raise AslNameError(f"unknown class {name!r}") from None

    def attribute_type(self, class_name: str, attribute: str) -> Type:
        """Type of ``class_name.attribute`` including inherited attributes."""
        info = self.class_info(class_name)
        try:
            return info.attributes[attribute]
        except KeyError:
            known = ", ".join(sorted(info.attributes))
            raise AslNameError(
                f"class {class_name!r} has no attribute {attribute!r} "
                f"(known attributes: {known})"
            ) from None

    def subclass_map(self) -> Dict[str, str]:
        """Class name → base class name (only classes that have a base)."""
        return {
            name: info.base for name, info in self.classes.items() if info.base
        }
