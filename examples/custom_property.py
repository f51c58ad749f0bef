#!/usr/bin/env python3
"""Extending COSY with a new performance property written in ASL.

The point of the specification approach is that the *tool* does not change
when the *knowledge* changes: a new performance property is a few lines of ASL
that are parsed, type-checked against the data model, registered with the
analyzer — and, thanks to the automatic ASL→SQL translation, it is immediately
evaluable inside the database as well.

This example adds two properties that are not part of the bundled document:

``CommunicationDominates``
    communication overhead exceeds half of the measured overhead of a region;
``MemoryPressure``
    cache-miss time is a significant fraction of a region's duration.

Run with::

    python examples/custom_property.py
"""

from repro.apprentice import ExecutionSimulator, SimulationConfig, synthetic_workload
from repro.asl import check_asl, parse_asl
from repro.asl.specs import COSY_DATA_MODEL, COSY_PROPERTIES
from repro.compiler import PropertyCompiler, generate_schema
from repro.cosy import (
    CosyAnalyzer,
    PropertyRegistration,
    default_registry,
    render_report,
)

CUSTOM_PROPERTIES = """
// Properties added by the tool user, not by the tool developer.

Property CommunicationDominates(Region r, TestRun t, Region Basis) {
    LET float Comm = SUM(tt.Time WHERE tt IN r.TypTimes AND tt.Run == t
            AND (tt.Type == SendOverhead OR tt.Type == ReceiveOverhead
                 OR tt.Type == MessageWait OR tt.Type == AllToAll
                 OR tt.Type == Reduce OR tt.Type == Broadcast));
        float Overhead = Summary(r, t).Ovhd
    IN
    CONDITION: (dominant) Comm > 0.5 * Overhead;
    CONFIDENCE: MAX((dominant) -> 0.9);
    SEVERITY: MAX((dominant) -> Comm / Duration(Basis, t));
}

Property MemoryPressure(Region r, TestRun t, Region Basis) {
    LET float Miss = SUM(tt.Time WHERE tt IN r.TypTimes AND tt.Run == t
            AND tt.Type == CacheMiss);
    IN
    CONDITION: Miss > 0.02 * Duration(r, t);
    CONFIDENCE: 0.7;
    SEVERITY: Miss / Duration(Basis, t);
}
"""


def main() -> None:
    # Parse and check the extended specification: data model + bundled
    # properties + the user's additional properties.
    program = (
        parse_asl(COSY_DATA_MODEL, filename="cosy_model.asl")
        .merge(parse_asl(COSY_PROPERTIES, filename="cosy_properties.asl"))
        .merge(parse_asl(CUSTOM_PROPERTIES, filename="custom.asl"))
    )
    specification = check_asl(program)

    # Register the new properties with the analyzer: by name, since their
    # declarations say they are instantiated over every Region.
    registry = default_registry()
    for name in ("CommunicationDominates", "MemoryPressure"):
        registry.register(PropertyRegistration(name))

    # Analyse a communication-bound workload with the extended property set.
    workload = synthetic_workload("comm_bound")
    repository = ExecutionSimulator(
        workload, SimulationConfig(pe_counts=(1, 4, 16, 32))
    ).run()
    analyzer = CosyAnalyzer(repository, specification=specification, registry=registry)
    result = analyzer.analyze()
    print(render_report(result, top=12))

    # The new properties are automatically translatable to SQL as well.
    mapping = generate_schema(specification)
    compiler = PropertyCompiler(specification, mapping)
    compiled = compiler.compile_property("CommunicationDominates")
    print()
    print("Generated SQL for the new CommunicationDominates condition:")
    print(" ", compiled.conditions[0][1].sql)


if __name__ == "__main__":
    main()
