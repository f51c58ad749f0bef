"""Tests of the COSY analyzer: ranking, bottleneck, registry, strategies."""

import re

import pytest

from repro.bench import build_scenario, load_into_backend
from repro.cosy import (
    ClientSideStrategy,
    CosyAnalyzer,
    PropertyRegistration,
    PropertyRegistry,
    PushdownStrategy,
    SubjectKind,
    default_registry,
    render_report,
)
from repro.asl import AslEvaluationError, AslTypeError, check_asl, parse_asl
from repro.asl.specs import COSY_DATA_MODEL, COSY_PROPERTIES, COSY_PROPERTY_NAMES
from repro.compiler import PushdownError, load_repository
from repro.cosy.report import format_table, render_speedup_table
from repro.datamodel import PerformanceDatabase
from repro.relalg import (
    BACKEND_PROFILES,
    Database,
    ExecutionError,
    NativeClient,
    SimulatedBackend,
)


#: Properties registered by name alone: the declared class of the first
#: parameter decides what the analyzer instantiates them over.
BY_DECLARATION = """
Property SlowCalls(FunctionCall Call, TestRun t, Region Basis) {
    CONDITION: UNIQUE({c IN Call.Sums WITH c.Run == t}).MeanTime > 0;
    CONFIDENCE: 1;
    SEVERITY: UNIQUE({c IN Call.Sums WITH c.Run == t}).MeanTime / Duration(Basis, t);
}

Property RunWide(TestRun t, Region Basis) {
    CONDITION: Duration(Basis, t) > 0;
    CONFIDENCE: 1;
    SEVERITY: 1;
}

Property Unbound() {
    CONDITION: 1 > 0;
    CONFIDENCE: 1;
    SEVERITY: 1;
}
"""

#: A Region property whose second parameter the analyzer cannot bind: only
#: a ``TestRun`` (the analysed run) or a ``Region`` (the ranking basis) can.
CALLER_COST = """
Property CallerCost(Region r, FunctionCall c) {
    CONDITION: c.CallingReg == r;
    CONFIDENCE: 1;
    SEVERITY: 1;
}
"""

#: A Region property the translator refuses: ``ABS`` is an ASL builtin with
#: no SQL translation.
REFUSED_PROPERTY = """
Property AbsoluteOverhead(Region r, TestRun t, Region Basis) {
    LET float Cost = Summary(r, t).Ovhd
    IN
    CONDITION: (big) ABS(Cost) > 0.1 * Duration(r, t);
    CONFIDENCE: MAX((big) -> 0.9, 0.5);
    SEVERITY: ABS(Cost) / Duration(Basis, t);
}
"""


@pytest.fixture(scope="module")
def scenario():
    return build_scenario("mixed", pe_counts=(1, 2, 4, 8))


@pytest.fixture(scope="module")
def analysis(scenario):
    return scenario.analyzer.analyze()


class TestRegistry:
    def test_default_registry_contains_the_paper_properties(self):
        registry = default_registry()
        assert {"SublinearSpeedup", "MeasuredCost", "SyncCost", "LoadImbalance"} <= set(
            registry.names()
        )

    def test_load_imbalance_is_restricted_to_barrier_calls(self):
        registry = default_registry()
        registration = registry.get("LoadImbalance")
        assert registration.accepts_callee("barrier")
        assert not registration.accepts_callee("mpi_send")

    def test_register_and_unregister(self):
        registry = PropertyRegistry()
        registry.register(PropertyRegistration(name="Custom"))
        assert "Custom" in registry
        registry.unregister("Custom")
        assert "Custom" not in registry
        with pytest.raises(KeyError):
            registry.get("Custom")

    def test_region_and_call_partitions(self, analysis):
        """The kind of a property's instances is the declared class of its
        first parameter."""
        names = {SubjectKind.REGION: set(), SubjectKind.CALL: set()}
        for instance in analysis.instances:
            names[instance.subject_kind].add(instance.property_name)
        assert "SublinearSpeedup" in names[SubjectKind.REGION]
        assert names[SubjectKind.CALL] == {"LoadImbalance", "FrequentBarrier"}
        assert not names[SubjectKind.REGION] & names[SubjectKind.CALL]

    def test_the_default_registry_is_the_bundled_document_in_order(self):
        registry = default_registry()
        assert tuple(registry.names()) == COSY_PROPERTY_NAMES
        assert {r.name: r.only_callees for r in registry if r.only_callees} == {
            "LoadImbalance": frozenset({"barrier"}),
            "FrequentBarrier": frozenset({"barrier"}),
        }


class TestAnalysisResult:
    def test_instances_cover_regions_and_barrier_calls(self, analysis, scenario):
        region_count = sum(1 for _ in scenario.repository.regions())
        # Six of the eight bundled properties are declared over a Region.
        region_instances = [
            i for i in analysis.instances if i.subject_kind == SubjectKind.REGION
        ]
        assert len(region_instances) == region_count * 6

    def test_ranking_is_sorted_by_severity(self, analysis):
        ranked = analysis.ranked()
        severities = [i.severity for i in ranked]
        assert severities == sorted(severities, reverse=True)
        assert all(i.holds for i in ranked)

    def test_bottleneck_is_the_most_severe_property(self, analysis):
        bottleneck = analysis.bottleneck()
        assert bottleneck is analysis.ranked()[0]
        assert bottleneck.property_name == "SublinearSpeedup"
        assert bottleneck.subject == "app_main"

    def test_the_injected_bottlenecks_are_detected(self, analysis):
        # The mixed workload injects load imbalance into assemble_matrix and
        # serialized I/O into write_results.
        assert analysis.severity_of("SyncCost", "assemble_matrix") > 0.05
        assert analysis.severity_of("IOCost", "write_results") > 0.005
        load_imbalance = analysis.by_property("LoadImbalance")
        assert any("assemble_matrix" in i.subject for i in load_imbalance)

    def test_problems_respect_the_threshold(self, analysis):
        for instance in analysis.problems():
            assert instance.severity > analysis.threshold
        assert analysis.needs_tuning()

    def test_total_cost_severity_matches_sublinear_speedup_on_the_basis(self, analysis):
        assert analysis.total_cost_severity() == pytest.approx(
            analysis.severity_of("SublinearSpeedup", "app_main")
        )

    def test_severity_of_unknown_instance_is_zero(self, analysis):
        assert analysis.severity_of("SyncCost", "no_such_region") == 0.0


class TestAnalyzerSelection:
    def test_default_selection_uses_the_largest_run(self, analysis):
        assert analysis.run_pes == 8

    def test_explicit_run_selection(self, scenario):
        result = scenario.analyzer.analyze(pes=2)
        assert result.run_pes == 2
        assert result.total_cost_severity() < scenario.analyzer.analyze(pes=8).total_cost_severity()

    def test_reference_run_has_no_sublinear_speedup(self, scenario):
        result = scenario.analyzer.analyze(pes=1)
        assert result.severity_of("SublinearSpeedup", "app_main") == 0.0

    def test_property_subset_selection(self, scenario):
        result = scenario.analyzer.analyze(properties=["SyncCost"])
        assert {i.property_name for i in result.instances} == {"SyncCost"}

    def test_unknown_registered_property_is_reported(self, scenario):
        registry = default_registry()
        registry.register(PropertyRegistration(name="NotInTheSpec"))
        analyzer = CosyAnalyzer(
            scenario.repository,
            specification=scenario.specification,
            registry=registry,
        )
        with pytest.raises(KeyError, match="NotInTheSpec"):
            analyzer.analyze()

    def test_empty_repository_is_rejected(self, scenario):
        analyzer = CosyAnalyzer(
            PerformanceDatabase(), specification=scenario.specification
        )
        with pytest.raises(ValueError, match="no programs"):
            analyzer.analyze()

    def test_threshold_controls_problem_classification(self, scenario):
        strict = CosyAnalyzer(
            scenario.repository, specification=scenario.specification, threshold=0.9
        ).analyze()
        assert strict.problems() == []
        assert not strict.needs_tuning()


class TestStrategyEquivalence:
    def test_pushdown_matches_client_side_evaluation(self, scenario):
        client, ids = load_into_backend(scenario, "ms_access")
        pushdown = PushdownStrategy(
            scenario.specification, scenario.mapping, client, ids
        )
        result_push = scenario.analyzer.analyze(strategy=pushdown)
        result_client = scenario.analyzer.analyze(
            strategy=ClientSideStrategy(scenario.specification)
        )
        assert pushdown.fallbacks == 0
        by_key_push = {
            (i.property_name, i.subject): i for i in result_push.instances
        }
        by_key_client = {
            (i.property_name, i.subject): i for i in result_client.instances
        }
        assert set(by_key_push) == set(by_key_client)
        for key, push_instance in by_key_push.items():
            client_instance = by_key_client[key]
            assert push_instance.holds == client_instance.holds, key
            assert push_instance.severity == pytest.approx(
                client_instance.severity, rel=1e-9, abs=1e-12
            ), key

    def test_client_strategy_with_database_charges_fetches(self, scenario):
        client, ids = load_into_backend(scenario, "oracle7")
        client.reset_clock()
        strategy = ClientSideStrategy(
            scenario.specification, client=client, ids=ids
        )
        scenario.analyzer.analyze(strategy=strategy)
        assert strategy.statements_issued > 0
        assert client.backend.elapsed > 0

    def test_pushdown_issues_one_statement_per_expression(self, scenario):
        client, ids = load_into_backend(scenario, "ms_access")
        pushdown = PushdownStrategy(
            scenario.specification, scenario.mapping, client, ids
        )
        evaluation = pushdown.evaluate(
            "SyncCost",
            {
                "r": scenario.repository.region_by_name("assemble_matrix"),
                "t": scenario.run_with_pes(8),
                "Basis": scenario.repository.region_by_name("app_main"),
            },
        )
        assert evaluation.holds
        assert evaluation.confidence == 1.0
        # one condition + one severity query; the translator folded
        # ``CONFIDENCE: 1``, which reads no data, to its value
        assert pushdown.statements_issued == 2


    def test_a_refused_property_falls_back_to_client_side(self):
        specification, scenario, analyzer, pushdown = _refused_property_setup()
        with pytest.raises(PushdownError, match="'ABS'"):
            pushdown.compiler.compile_property("AbsoluteOverhead")
        result = analyzer.analyze(strategy=pushdown)
        reference = analyzer.analyze(strategy=ClientSideStrategy(specification))
        # Every context falls back, is counted and sends no statement.
        version = scenario.repository.programs[0].latest_version()
        assert pushdown.fallbacks == len(list(version.all_regions())) == 6
        assert pushdown.statements_issued == 0
        assert (result.instances, result.skipped) == (
            reference.instances, reference.skipped
        )
        # The guard decides the confidence of each instance.
        assert {(i.holds, i.confidence) for i in result.instances} == {
            (True, 0.9), (False, 0.5)
        }

    def test_a_refusal_is_translated_once_per_analysis(self, monkeypatch):
        _, _, analyzer, pushdown = _refused_property_setup()
        compile_property = pushdown.compiler.compile_property
        attempts = []

        def counted(name):
            attempts.append(name)
            return compile_property(name)

        monkeypatch.setattr(pushdown.compiler, "compile_property", counted)
        analyzer.analyze(strategy=pushdown)
        # The refusal is cached; every context still falls back and counts.
        assert attempts == ["AbsoluteOverhead"]
        assert pushdown.fallbacks == 6
        with pytest.raises(PushdownError, match="'ABS'"):
            pushdown.compiled("AbsoluteOverhead")
        assert len(attempts) == 1


def _refused_property_setup():
    """The bundled specification plus a property the translator refuses,
    its analyzer and a pushdown strategy over the loaded scenario."""
    specification = check_asl(
        parse_asl(COSY_DATA_MODEL)
        .merge(parse_asl(COSY_PROPERTIES))
        .merge(parse_asl(REFUSED_PROPERTY))
    )
    scenario = build_scenario(
        "mixed", pe_counts=(1, 4), specification=specification
    )
    analyzer = CosyAnalyzer(
        scenario.repository,
        specification=specification,
        registry=PropertyRegistry([PropertyRegistration(name="AbsoluteOverhead")]),
        threshold=0,
    )
    client, ids = load_into_backend(scenario, "ms_access")
    pushdown = PushdownStrategy(specification, scenario.mapping, client, ids)
    return specification, scenario, analyzer, pushdown


ENGINES = {
    "interpreted": {"engine": "interpreted"},
    "row-at-a-time": {"vectorized": False},
    "vectorized": {},
}


class TestSubjectsFromDeclarations:
    """A property is instantiated over the declared class of its first
    parameter; a registration names only the property and its callees."""

    @pytest.fixture(scope="class")
    def declared(self):
        specification = check_asl(
            parse_asl(COSY_DATA_MODEL)
            .merge(parse_asl(COSY_PROPERTIES))
            .merge(parse_asl(BY_DECLARATION))
        )
        return build_scenario("mixed", pe_counts=(1, 4), specification=specification)

    @staticmethod
    def _analyzer(scenario, *registrations):
        return CosyAnalyzer(
            scenario.repository,
            specification=scenario.specification,
            registry=PropertyRegistry(registrations),
            threshold=0,
        )

    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_a_call_property_registered_by_name_covers_every_call_site(
        self, declared, engine
    ):
        analyzer = self._analyzer(declared, PropertyRegistration("SlowCalls"))
        client = NativeClient(
            SimulatedBackend(BACKEND_PROFILES["ms_access"], Database(**ENGINES[engine]))
        )
        ids = load_repository(declared.repository, declared.mapping, client)
        pushdown = PushdownStrategy(
            declared.specification, declared.mapping, client, ids
        )
        result = analyzer.analyze(pes=4, strategy=pushdown)
        reference = analyzer.analyze(
            pes=4, strategy=ClientSideStrategy(declared.specification)
        )
        version = declared.repository.programs[0].latest_version()
        calls = [
            f"{call.callee_name}@{call.CallingReg.name}" for call in version.all_calls()
        ]
        assert len(calls) == 9
        assert pushdown.fallbacks == 0
        for analysis in (result, reference):
            assert analysis.skipped == 0
            assert [i.subject for i in analysis.instances] == calls
            assert {i.subject_kind for i in analysis.instances} == {SubjectKind.CALL}
            assert all(i.holds for i in analysis.instances)
        for got, want in zip(result.instances, reference.instances):
            assert (got.holds, got.conditions) == (want.holds, want.conditions)
            assert got.severity == pytest.approx(want.severity, rel=1e-9, abs=1e-12)
            assert got.confidence == want.confidence

    @pytest.mark.parametrize(
        "registration, found",
        [
            (PropertyRegistration("RunWide"), "found TestRun"),
            (PropertyRegistration("Unbound"), "it has none"),
            (
                PropertyRegistration("SyncCost", frozenset({"barrier"})),
                "found Region with a callee filter",
            ),
        ],
        ids=["test-run", "no-parameter", "callee-filter-on-region"],
    )
    def test_a_property_that_cannot_be_instantiated_raises_before_any_statement(
        self, declared, registration, found
    ):
        # A valid property comes first: nothing of it may run either.
        analyzer = self._analyzer(
            declared, PropertyRegistration("SublinearSpeedup"), registration
        )
        client, ids = load_into_backend(declared, "ms_access")
        executed = client.backend.statements_executed
        strategy = PushdownStrategy(
            declared.specification, declared.mapping, client, ids
        )
        with pytest.raises(AslTypeError, match=f"{registration.name!r}.*; {found}$"):
            analyzer.analyze(pes=4, strategy=strategy)
        assert strategy.statements_issued == 0
        assert client.backend.statements_executed == executed


class TestParameterBinding:
    """Every parameter after the first is bound by its class, and a class
    the analyzer cannot bind is rejected before any statement."""

    @pytest.fixture(scope="class")
    def caller_cost(self):
        specification = check_asl(
            parse_asl(COSY_DATA_MODEL)
            .merge(parse_asl(COSY_PROPERTIES))
            .merge(parse_asl(CALLER_COST))
        )
        return build_scenario("mixed", pe_counts=(1, 4), specification=specification)

    @pytest.mark.parametrize("strategy_name", ["pushdown", "client"])
    def test_an_unbindable_parameter_raises_before_any_statement(
        self, caller_cost, strategy_name
    ):
        # A valid property comes first: nothing of it may run either.
        analyzer = CosyAnalyzer(
            caller_cost.repository,
            specification=caller_cost.specification,
            registry=PropertyRegistry([
                PropertyRegistration("SublinearSpeedup"),
                PropertyRegistration("CallerCost"),
            ]),
        )
        client, ids = load_into_backend(caller_cost, "ms_access")
        executed = client.backend.statements_executed
        if strategy_name == "pushdown":
            strategy = PushdownStrategy(
                caller_cost.specification, caller_cost.mapping, client, ids
            )
        else:
            strategy = ClientSideStrategy(
                caller_cost.specification, client=client, ids=ids
            )
        message = (
            "property 'CallerCost' binds parameter 'c' by its class, which "
            "must be TestRun (the analysed run) or Region (the ranking "
            "basis); found FunctionCall"
        )
        with pytest.raises(AslTypeError, match=re.escape(message) + "$"):
            analyzer.analyze(pes=4, strategy=strategy)
        assert strategy.statements_issued == 0
        assert client.backend.statements_executed == executed


class _FailingFor:
    """Delegates to ``strategy``, except that every context whose subject is
    ``subject`` raises ``error``; records the contexts it was asked for."""

    def __init__(self, strategy, subject, error):
        self.name = strategy.name
        self.strategy = strategy
        self.subject = subject
        self.error = error
        self.asked = []

    def evaluate(self, property_name, parameters):
        subject = next(iter(parameters.values()))
        self.asked.append((property_name, subject))
        if subject is self.subject:
            raise self.error
        return self.strategy.evaluate(property_name, parameters)


class TestContextLoop:
    """The analyzer evaluates the contexts of each property one after
    another: a context without data is skipped, the others still count."""

    @pytest.fixture(params=["client", "pushdown"])
    def strategy(self, request, scenario):
        if request.param == "client":
            return ClientSideStrategy(scenario.specification)
        client, ids = load_into_backend(scenario, "ms_access")
        return PushdownStrategy(
            scenario.specification, scenario.mapping, client, ids
        )

    def test_a_context_without_data_is_skipped_and_the_rest_evaluated(
        self, scenario, strategy
    ):
        reference = scenario.analyzer.analyze(strategy=strategy)
        region = scenario.repository.region_by_name("assemble_matrix")
        failing = _FailingFor(
            strategy, region, AslEvaluationError("no timings for this run")
        )
        result = scenario.analyzer.analyze(strategy=failing)
        kept = [i for i in reference.instances if i.subject != region.name]
        assert len(kept) < len(reference.instances)
        assert result.instances == kept
        assert result.skipped == reference.skipped + (
            len(reference.instances) - len(kept)
        )
        assert sum(1 for _, subject in failing.asked if subject is region) == (
            len(reference.instances) - len(kept)
        )

    def test_any_other_error_stops_the_analysis(self, scenario, strategy):
        region = scenario.repository.region_by_name("assemble_matrix")
        failing = _FailingFor(strategy, region, ExecutionError("server gone"))
        with pytest.raises(ExecutionError, match="server gone"):
            scenario.analyzer.analyze(strategy=failing)


class _MirroredClient:
    """Delegates every query to ``client`` and repeats it on ``reference``,
    recording both results."""

    def __init__(self, client, reference):
        self.client = client
        self.reference = reference
        self.pairs = []

    def query(self, sql, params=()):
        result = self.client.query(sql, params)
        self.pairs.append((sql, result, self.reference.query(sql, params)))
        return result


class TestStatementParity:
    def test_every_pushdown_statement_matches_the_reference_engine(self, cosy_spec):
        """Each statement the pushdown strategy issues returns the same rows
        and ``==``-identical QueryStats on the compiled engine (which replays
        repeated subqueries) and on the interpreted reference engine."""
        scenario = build_scenario(
            "mixed", pe_counts=(1, 2, 4, 8, 16), specification=cosy_spec
        )
        compiled, ids = load_into_backend(scenario, "ms_access")
        interpreted, _ = load_into_backend(
            scenario, "ms_access", engine="interpreted"
        )
        mirrored = _MirroredClient(compiled, interpreted.backend.database)
        pushdown = PushdownStrategy(
            scenario.specification, scenario.mapping, mirrored, ids
        )
        scenario.analyzer.analyze(strategy=pushdown)
        assert pushdown.fallbacks == 0
        assert len(mirrored.pairs) == pushdown.statements_issued > 0
        for sql, result, reference in mirrored.pairs:
            assert result.rows == reference.rows, sql
            assert result.stats == reference.stats, sql
        assert sum(r.stats.subquery_replays for _, r, _ in mirrored.pairs) > 0


class TestStrategyGuards:
    """The strategy preconditions are real checks, not bare asserts —
    they must also hold under ``python -O``."""

    def test_fetch_without_client_raises_execution_error(self, scenario):
        strategy = ClientSideStrategy(scenario.specification)
        with pytest.raises(ExecutionError, match="database client"):
            strategy._fetch_data_components({})

    def test_query_without_client_raises_execution_error(self, scenario):
        strategy = ClientSideStrategy(scenario.specification)
        with pytest.raises(ExecutionError, match="no database client"):
            strategy._query("SELECT 1 FROM Dual", [])


class TestReports:
    def test_report_mentions_the_bottleneck_and_problems(self, analysis):
        report = render_report(analysis)
        assert "Bottleneck" in report
        assert "SublinearSpeedup" in report
        assert "needs tuning" in report
        assert "app_main" in report

    def test_report_top_limits_the_ranking(self, analysis):
        report = render_report(analysis, top=3)
        assert report.count("\n") < render_report(analysis).count("\n")

    def test_report_for_empty_result(self, scenario):
        result = scenario.analyzer.analyze(pes=1, properties=["SublinearSpeedup"])
        report = render_report(result)
        assert "nothing to tune" in report or "does not need" in report

    def test_format_table_alignment(self):
        table = format_table(["a", "bb"], [[1, 22], [333, 4]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_speedup_table(self):
        text = render_speedup_table([(1, 10.0, 1.0, 0.0), (8, 16.0, 5.0, 0.4)])
        assert "PEs" in text and "speedup" in text
