"""Registry of the performance properties COSY evaluates.

A registration names an ASL property and, for a call-site property, the
callees it is restricted to.  Everything else comes from the property's ASL
declaration (:mod:`repro.asl.specs`): the analyzer instantiates a property
over the declared class of its first parameter —

* ``Region`` (``SublinearSpeedup``, ``MeasuredCost``, …): every program region
  of the selected program version;
* ``FunctionCall``: every call site; the ``LoadImbalance`` property "is
  evaluated only for calls to the barrier routine" (paper, Section 4.2),
  which the ``only_callees`` filter expresses —

and its conditions, confidence and severity come from the same declaration.
Tools may register additional properties parsed from their own
specification documents by name.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional

from repro.asl.specs import COSY_PROPERTY_NAMES
from repro.records import FrozenRecord, slot_setters

__all__ = ["SubjectKind", "PropertyRegistration", "PropertyRegistry", "default_registry"]


class SubjectKind:
    """What kind of entity a property instance was evaluated for."""

    REGION = "region"
    CALL = "call"


class PropertyRegistration(FrozenRecord):
    """How one ASL property is instantiated by the analyzer."""

    __slots__ = ("name", "only_callees")

    def __init__(
        self, name: str, only_callees: Optional[FrozenSet[str]] = None
    ) -> None:
        #: Name of the ASL property declaration.
        _registration_name(self, name)
        #: For call-site properties: restrict evaluation to these callees
        #: (``None`` = all call sites).
        _registration_only_callees(self, only_callees)

    def accepts_callee(self, callee: str) -> bool:
        """Whether a call site with this callee should be evaluated."""
        return self.only_callees is None or callee in self.only_callees


_registration_name, _registration_only_callees = slot_setters(PropertyRegistration)


class PropertyRegistry:
    """An ordered collection of property registrations."""

    def __init__(self, registrations: Iterable[PropertyRegistration] = ()) -> None:
        self._registrations: Dict[str, PropertyRegistration] = {}
        for registration in registrations:
            self.register(registration)

    def register(self, registration: PropertyRegistration) -> None:
        """Add (or replace) a registration."""
        self._registrations[registration.name] = registration

    def unregister(self, name: str) -> None:
        """Remove a registration; unknown names are ignored."""
        self._registrations.pop(name, None)

    def names(self) -> List[str]:
        return list(self._registrations)

    def get(self, name: str) -> PropertyRegistration:
        try:
            return self._registrations[name]
        except KeyError:
            raise KeyError(
                f"property {name!r} is not registered; registered: "
                f"{self.names()}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._registrations

    def __iter__(self):
        return iter(self._registrations.values())

    def __len__(self) -> int:
        return len(self._registrations)


#: The call-site properties of the bundled document that the paper evaluates
#: only for calls to the barrier routine (Section 4.2).
_BARRIER_PROPERTIES = frozenset({"LoadImbalance", "FrequentBarrier"})


def default_registry() -> PropertyRegistry:
    """The property set of the COSY prototype: the bundled document's
    properties in evaluation order, the barrier properties filtered to
    ``barrier`` calls."""
    barrier = frozenset({"barrier"})
    return PropertyRegistry(
        PropertyRegistration(name, barrier if name in _BARRIER_PROPERTIES else None)
        for name in COSY_PROPERTY_NAMES
    )
