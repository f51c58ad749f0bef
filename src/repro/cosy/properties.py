"""Registry of the performance properties COSY evaluates.

The registry records, for every ASL property, *over which entities* the COSY
analyzer instantiates it:

* region properties (``SublinearSpeedup``, ``MeasuredCost``, …) are evaluated
  for every program region of the selected test run;
* call-site properties are evaluated for function call sites; the
  ``LoadImbalance`` property "is evaluated only for calls to the barrier
  routine" (paper, Section 4.2), which the ``only_callees`` filter expresses.

The registry is purely declarative — the conditions, confidence and severity
come from the ASL specification (:mod:`repro.asl.specs`), and tools may
register additional properties parsed from their own specification documents.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional

from repro.records import FrozenRecord, slot_setters

__all__ = ["SubjectKind", "PropertyRegistration", "PropertyRegistry", "default_registry"]


class SubjectKind:
    """What kind of entity a property is instantiated over."""

    REGION = "region"
    CALL = "call"


class PropertyRegistration(FrozenRecord):
    """How one ASL property is instantiated by the analyzer."""

    __slots__ = ("name", "subject", "only_callees", "description")

    def __init__(
        self,
        name: str,
        subject: str = SubjectKind.REGION,
        only_callees: Optional[FrozenSet[str]] = None,
        description: str = "",
    ) -> None:
        #: Name of the ASL property declaration.
        _registration_name(self, name)
        #: ``SubjectKind.REGION`` or ``SubjectKind.CALL``.
        _registration_subject(self, subject)
        #: For call-site properties: restrict evaluation to these callees
        #: (``None`` = all call sites).
        _registration_only_callees(self, only_callees)
        #: Short description used in reports.
        _registration_description(self, description)

    def accepts_callee(self, callee: str) -> bool:
        """Whether a call site with this callee should be evaluated."""
        return self.only_callees is None or callee in self.only_callees


(
    _registration_name, _registration_subject, _registration_only_callees,
    _registration_description,
) = slot_setters(PropertyRegistration)


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

    def region_properties(self) -> List[PropertyRegistration]:
        return [r for r in self if r.subject == SubjectKind.REGION]

    def call_properties(self) -> List[PropertyRegistration]:
        return [r for r in self if r.subject == SubjectKind.CALL]


def default_registry() -> PropertyRegistry:
    """The property set of the COSY prototype (paper properties + breakdowns)."""
    return PropertyRegistry(
        [
            PropertyRegistration(
                name="SublinearSpeedup",
                subject=SubjectKind.REGION,
                description="lost cycles compared to the run with the fewest PEs",
            ),
            PropertyRegistration(
                name="MeasuredCost",
                subject=SubjectKind.REGION,
                description="overhead measured by Apprentice",
            ),
            PropertyRegistration(
                name="UnmeasuredCost",
                subject=SubjectKind.REGION,
                description="lost cycles not explained by measured overhead",
            ),
            PropertyRegistration(
                name="SyncCost",
                subject=SubjectKind.REGION,
                description="barrier synchronisation overhead",
            ),
            PropertyRegistration(
                name="CommunicationCost",
                subject=SubjectKind.REGION,
                description="message passing and collective communication overhead",
            ),
            PropertyRegistration(
                name="IOCost",
                subject=SubjectKind.REGION,
                description="input/output overhead",
            ),
            PropertyRegistration(
                name="LoadImbalance",
                subject=SubjectKind.CALL,
                only_callees=frozenset({"barrier"}),
                description="barrier cost caused by uneven work distribution",
            ),
            PropertyRegistration(
                name="FrequentBarrier",
                subject=SubjectKind.CALL,
                only_callees=frozenset({"barrier"}),
                description="very frequent barrier synchronisation",
            ),
        ]
    )
