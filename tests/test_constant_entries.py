"""Constant property entries and constant overrides: pushdown ≡ client-side.

The ASL→SQL translator folds a condition, confidence or severity entry that
reads no data (literals, specification constants and enum members under the
operators) to the value the ASL evaluator computes for it, and the pushdown
strategy uses that value without a statement.  An entry whose evaluation
raises stays a statement.  The translator values specification constants with
the overrides the strategy was given, as the client-side evaluator does.

Every analysis runs under both strategies on the interpreted, row-at-a-time
and vectorized engines (the client-side strategy fetches its data components
through the same engine) and must find the same property instances.
"""

from __future__ import annotations

import math
import re

import pytest

from repro.asl import AslNameError, AslTypeError, check_asl, parse_asl
from repro.asl.specs import COSY_DATA_MODEL, COSY_PROPERTIES
from repro.bench import PerEntryPushdownStrategy, build_scenario
from repro.compiler import PropertyCompiler, generate_schema, load_repository
from repro.cosy import (
    ClientSideStrategy,
    CosyAnalyzer,
    PropertyRegistration,
    PropertyRegistry,
    PushdownStrategy,
    default_registry,
)
from repro.relalg import (
    BACKEND_PROFILES,
    Database,
    ExecutionError,
    NativeClient,
    SimulatedBackend,
)

#: Region properties whose entries read no data, beside the bundled ones
#: (``CONFIDENCE: 1`` everywhere, FrequentBarrier's guarded ``(c1) -> 0.8``).
TEST_PROPERTIES = """
constant float Zero = 0;

// A constant expression over a constant the tool may override.
Property ThresholdScaledCost(Region r, TestRun t, Region Basis) {
    LET float Cost = Summary(r, t).Ovhd
    IN
    CONDITION: Cost > 0;
    CONFIDENCE: 1 - ImbalanceThreshold / 2;
    SEVERITY: Cost / Duration(Basis, t) * (1 + ImbalanceThreshold);
}

// Constant conditions: one always holds, the other never does.
Property ConstantConditions(Region r, TestRun t, Region Basis) {
    LET float Cost = Summary(r, t).Ovhd
    IN
    CONDITION: (always) ImbalanceThreshold < 10 OR (never) 2 * 3 > 7;
    CONFIDENCE: MAX((always) -> 0.5, (never) -> 1);
    SEVERITY: MAX((always) -> Cost / Duration(Basis, t), (never) -> 2);
}

// A constant entry whose evaluation raises in ASL.
Property RaisingConfidence(Region r, TestRun t, Region Basis) {
    CONDITION: Duration(r, t) > 0;
    CONFIDENCE: 1 / Zero;
    SEVERITY: Duration(r, t) / Duration(Basis, t);
}
"""

#: Overrides under which every call site's ``c1`` holds and every call site
#: is imbalanced (the bundled defaults are 100 and 0.25).
OVERRIDES = {"ImbalanceThreshold": 0, "FrequentBarrierThreshold": 0}

ENGINES = {
    "interpreted": {"engine": "interpreted"},
    "row-at-a-time": {"vectorized": False},
    "vectorized": {},
}


def _registry(*names):
    registry = PropertyRegistry()
    for registration in default_registry():
        registry.register(registration)
    for name in names:
        registry.register(PropertyRegistration(name))
    return registry


@pytest.fixture(scope="module")
def specification():
    program = (
        parse_asl(COSY_DATA_MODEL, filename="cosy_model.asl")
        .merge(parse_asl(COSY_PROPERTIES, filename="cosy_properties.asl"))
        .merge(parse_asl(TEST_PROPERTIES, filename="constant_entries.asl"))
    )
    return check_asl(program)


@pytest.fixture(scope="module")
def scenario(specification):
    return build_scenario(
        "mixed", pe_counts=(1, 4, 8), threshold=0, specification=specification
    )


@pytest.fixture(scope="module", params=list(ENGINES))
def engine(request, scenario):
    """A client of ``scenario`` loaded on one engine, and its object ids."""
    client = NativeClient(
        SimulatedBackend(
            BACKEND_PROFILES["ms_access"], Database(**ENGINES[request.param])
        )
    )
    ids = load_repository(scenario.repository, scenario.mapping, client)
    yield client, ids
    client.close()


def _analyzer(scenario, constants, *names):
    return CosyAnalyzer(
        scenario.repository,
        specification=scenario.specification,
        registry=_registry(*names),
        threshold=0,
        constants=constants,
    )


def _outcome(result):
    """What an analysis found; severity and confidence are compared apart,
    within a tolerance (the database sums in another order than ASL)."""
    return result.skipped, [
        (i.property_name, i.subject, i.holds, i.conditions) for i in result.instances
    ]


def _assert_same_analysis(pushdown, client_side):
    assert _outcome(pushdown) == _outcome(client_side)
    for a, b in zip(pushdown.instances, client_side.instances):
        key = a.property_name, a.subject
        assert math.isclose(a.severity, b.severity, rel_tol=1e-9, abs_tol=1e-12), key
        assert math.isclose(a.confidence, b.confidence, rel_tol=1e-9), key


class TestFoldingRule:
    """What the translator folds, to which value, and what it leaves alone."""

    def _compiled(self, specification, name, constants=None):
        mapping = generate_schema(specification)
        return PropertyCompiler(specification, mapping, constants).compile_property(name)

    def test_a_literal_entry_folds_and_keeps_its_sql(self, specification):
        compiled = self._compiled(specification, "SyncCost")
        (_, confidence), = compiled.confidence
        assert (confidence.folded, confidence.value) == (True, 1)
        assert confidence.sql == "SELECT 1 AS value FROM dual"
        assert confidence.param_slots == []
        (_, condition), = compiled.conditions
        (_, severity), = compiled.severity
        assert not condition.folded and not severity.folded

    def test_a_guarded_literal_entry_folds_and_keeps_its_guard(self, specification):
        compiled = self._compiled(specification, "FrequentBarrier")
        (guard, confidence), = compiled.confidence
        assert guard == "c1"
        assert (confidence.folded, confidence.value) == (True, 0.8)
        assert confidence.sql == "SELECT 0.8 AS value FROM dual"
        assert not compiled.severity[0][1].folded

    def test_a_constant_expression_folds_with_the_overrides(self, specification):
        default = self._compiled(specification, "ThresholdScaledCost")
        overridden = self._compiled(
            specification, "ThresholdScaledCost", {"ImbalanceThreshold": 0.5}
        )
        assert default.confidence[0][1].value == 1 - 0.25 / 2
        assert overridden.confidence[0][1].value == 1 - 0.5 / 2
        assert overridden.confidence[0][1].sql == (
            "SELECT (1 - (0.5 / 2)) AS value FROM dual"
        )
        # An entry that reads data is a statement, with the override inlined.
        severity = overridden.severity[0][1]
        assert not severity.folded
        assert severity.sql.endswith("* (1 + 0.5)) AS value FROM dual")

    def test_constant_conditions_fold_to_booleans(self, specification):
        compiled = self._compiled(specification, "ConstantConditions")
        assert [(key, q.folded, q.value) for key, q in compiled.conditions] == [
            ("always", True, True), ("never", True, False),
        ]
        assert [q.value for _, q in compiled.confidence] == [0.5, 1]
        assert [q.folded for _, q in compiled.severity] == [False, True]

    def test_a_constant_that_raises_in_asl_stays_a_statement(self, specification):
        compiled = self._compiled(specification, "RaisingConfidence")
        (_, confidence), = compiled.confidence
        assert not confidence.folded and confidence.value is None
        assert confidence.sql == "SELECT (1 / 0) AS value FROM dual"
        # An override of the wrong type never reaches an entry: the
        # translator's evaluator rejects it when the translator is built.
        with pytest.raises(AslTypeError, match="'ImbalanceThreshold'"):
            self._compiled(
                specification, "ThresholdScaledCost",
                {"ImbalanceThreshold": "high"},
            )


class TestConstantOverridesAreChecked:
    """An override is checked once, where an analysis builds its ASL
    evaluator, so both strategies and the translator reject it alike, before
    any evaluation or statement, with an error naming the constant, its type
    and the value."""

    CASES = {
        "wrong-type": (
            {"ImbalanceThreshold": "high"},
            AslTypeError,
            "constant 'ImbalanceThreshold' of type float cannot be overridden "
            "with 'high' of type String",
        ),
        "bool-for-float": (
            {"FrequentBarrierThreshold": True},
            AslTypeError,
            "constant 'FrequentBarrierThreshold' of type float cannot be "
            "overridden with True of type bool",
        ),
        "unknown-name": (
            {"ImbalanceTreshold": 0.5},
            AslNameError,
            "constant override 'ImbalanceTreshold' = 0.5 names no declared "
            "constant (declared: FrequentBarrierThreshold, "
            "ImbalanceThreshold, Zero)",
        ),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_both_strategies_and_the_translator_reject_it(
        self, scenario, engine, case
    ):
        constants, error, message = self.CASES[case]
        client, ids = engine
        spec, mapping = scenario.specification, scenario.mapping
        consumers = {
            "PropertyCompiler": lambda: PropertyCompiler(spec, mapping, constants),
            "ClientSideStrategy": lambda: ClientSideStrategy(
                spec, constants=constants, client=client, ids=ids
            ),
            "PushdownStrategy": lambda: PushdownStrategy(
                spec, mapping, client, ids, constants=constants
            ),
        }
        for name, build in consumers.items():
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                build()
                pytest.fail(f"{name} accepted {constants}")


class TestStrategiesAgree:
    """Pushdown ≡ client-side with folded entries, on every engine."""

    @pytest.mark.parametrize(
        "constants", [None, OVERRIDES], ids=["defaults", "overrides"]
    )
    def test_bundled_and_constant_properties(self, scenario, engine, constants):
        client, ids = engine
        analyzer = _analyzer(
            scenario, constants, "ThresholdScaledCost", "ConstantConditions"
        )
        pushdown = PushdownStrategy(
            scenario.specification, scenario.mapping, client, ids, constants=constants
        )
        per_entry = PerEntryPushdownStrategy(
            scenario.specification, scenario.mapping, client, ids, constants=constants
        )
        client_side = ClientSideStrategy(
            scenario.specification, constants=constants, client=client, ids=ids
        )
        folded = analyzer.analyze(pes=8, strategy=pushdown)
        sent = analyzer.analyze(pes=8, strategy=per_entry)
        reference = analyzer.analyze(pes=8, strategy=client_side)
        assert pushdown.fallbacks == per_entry.fallbacks == 0
        _assert_same_analysis(folded, reference)
        # Folding changes what is sent, never what is found.
        assert folded.instances == sent.instances
        assert 0 < pushdown.statements_issued < per_entry.statements_issued
        if constants is OVERRIDES:
            # Only the overrides make this call site's barrier frequent and
            # imbalanced: the SQL must see them as ASL does.
            holding = {(i.property_name, i.subject) for i in folded.instances if i.holds}
            assert ("FrequentBarrier", "barrier@write_results") in holding
            assert ("LoadImbalance", "barrier@write_results") in holding

    def test_frequent_barrier_confidence_follows_its_guard(self, scenario, engine):
        client, ids = engine
        seen = set()
        for constants in (None, OVERRIDES):
            analyzer = _analyzer(scenario, constants)
            strategy = PushdownStrategy(
                scenario.specification, scenario.mapping, client, ids,
                constants=constants,
            )
            result = analyzer.analyze(pes=8, strategy=strategy)
            for instance in result.instances:
                if instance.property_name == "FrequentBarrier":
                    holds = instance.conditions["c1"]
                    assert instance.confidence == (0.8 if holds else 0.0)
                    seen.add(holds)
        assert seen == {True, False}

    def test_a_constant_that_raises_in_asl(self, scenario, engine):
        """As before folding: ASL skips every instance, and the statement's
        division by zero stops the pushdown analysis."""
        client, ids = engine
        analyzer = _analyzer(scenario, None, "RaisingConfidence")
        only = ["RaisingConfidence"]
        reference = analyzer.analyze(
            pes=8,
            properties=only,
            strategy=ClientSideStrategy(
                scenario.specification, client=client, ids=ids
            ),
        )
        assert reference.instances == [] and reference.skipped > 0
        with pytest.raises(ExecutionError, match="division by zero"):
            analyzer.analyze(
                pes=8,
                properties=only,
                strategy=PushdownStrategy(
                    scenario.specification, scenario.mapping, client, ids
                ),
            )
