"""Tests of the compile-once ASL property evaluation, the one Section 4
evaluation rule (:meth:`CompiledProperty.evaluate`) and Scope.find."""

import datetime as dt
import math

import pytest

from repro.asl import AslEvaluationError, AslNameError, check_asl, parse_asl
from repro.asl.compile import CompiledProperty
from repro.asl.evaluator import AslEvaluator, PropertyEvaluation
from repro.asl.specs import COSY_DATA_MODEL
from repro.asl.symbols import MISSING, Scope
from repro.datamodel import (
    Function,
    FunctionCall,
    CallTiming,
    Region,
    RegionKind,
    TestRun,
    TimingType,
    TotalTiming,
    TypedTiming,
)

PROPERTIES = """
constant float ImbalanceThreshold = 0.25;

TotalTiming Summary(Region r, TestRun t) = UNIQUE({s IN r.TotTimes WITH s.Run == t});
float Duration(Region r, TestRun t) = Summary(r, t).Incl;

Property SublinearSpeedup(Region r, TestRun t, Region Basis) {
    LET TotalTiming MinPeSum = UNIQUE({sum IN r.TotTimes WITH sum.Run.NoPe ==
            MIN(s.Run.NoPe WHERE s IN r.TotTimes)});
        float TotalCost = Duration(r, t) - Duration(r, MinPeSum.Run)
    IN
    CONDITION: TotalCost > 0;
    CONFIDENCE: 1;
    SEVERITY: TotalCost / Duration(Basis, t);
}

Property SyncCost(Region r, TestRun t, Region Basis) {
    LET float Barrier = SUM(tt.Time WHERE tt IN r.TypTimes AND tt.Run == t
            AND tt.Type == Barrier);
    IN
    CONDITION: Barrier > 0;
    CONFIDENCE: 1;
    SEVERITY: Barrier / Duration(Basis, t);
}

Property Guarded(Region r, TestRun t) {
    CONDITION: (big) Duration(r, t) > 100 OR (small) Duration(r, t) > 1;
    CONFIDENCE: MAX((big) -> 0.9, (small) -> 0.4);
    SEVERITY: MAX((big) -> 2.0, (small) -> 0.5);
}
"""


@pytest.fixture(scope="module")
def checked_spec():
    model = parse_asl(COSY_DATA_MODEL)
    props = parse_asl(PROPERTIES)
    return check_asl(model.merge(props))


@pytest.fixture()
def scenario():
    run_small = TestRun(Start=dt.datetime(2000, 1, 1), NoPe=2, Clockspeed=300)
    run_large = TestRun(Start=dt.datetime(2000, 1, 1), NoPe=8, Clockspeed=300)
    function = Function(Name="main")
    basis = function.add_region(Region(name="main", kind=RegionKind.PROGRAM))
    basis.add_total_timing(TotalTiming(Run=run_small, Excl=10.0, Incl=10.0, Ovhd=1.0))
    basis.add_total_timing(TotalTiming(Run=run_large, Excl=16.0, Incl=16.0, Ovhd=6.0))
    basis.add_typed_timing(TypedTiming(Run=run_large, Type=TimingType.Barrier, Time=4.0))
    return {"run_small": run_small, "run_large": run_large, "basis": basis}


class TestCompiledPropertyParity:
    """The compiled closures must reproduce the interpretive semantics."""

    @pytest.mark.parametrize("prop", ["SublinearSpeedup", "SyncCost", "Guarded"])
    @pytest.mark.parametrize("run_key", ["run_small", "run_large"])
    def test_compiled_equals_interpreted(self, checked_spec, scenario, prop, run_key):
        evaluator = AslEvaluator(checked_spec)
        params = {"r": scenario["basis"], "t": scenario[run_key],
                  "Basis": scenario["basis"]}
        decl = evaluator.index.properties[prop]
        params = {p.name: params[p.name] for p in decl.params}
        compiled = evaluator.evaluate_property(prop, params)
        interpreted = evaluator.evaluate_property_interpreted(prop, params)
        assert compiled.holds == interpreted.holds
        assert compiled.conditions == interpreted.conditions
        assert compiled.confidence == pytest.approx(interpreted.confidence)
        assert compiled.severity == pytest.approx(interpreted.severity)
        assert compiled.let_values == interpreted.let_values
        assert compiled.parameters == interpreted.parameters

    def test_constant_overrides_are_honoured(self, checked_spec, scenario):
        evaluator = AslEvaluator(checked_spec, constants={"ImbalanceThreshold": 0.9})
        assert evaluator.constant_value("ImbalanceThreshold") == 0.9

    def test_compiled_errors_match(self, checked_spec, scenario):
        evaluator = AslEvaluator(checked_spec)
        empty_region = Region(name="empty")
        with pytest.raises(AslEvaluationError, match="UNIQUE"):
            evaluator.evaluate_property(
                "SublinearSpeedup",
                {"r": empty_region, "t": scenario["run_large"],
                 "Basis": scenario["basis"]},
            )
        with pytest.raises(AslEvaluationError, match="missing parameter"):
            evaluator.evaluate_property("SyncCost", {"r": scenario["basis"]})
        with pytest.raises(AslNameError, match="unknown property"):
            evaluator.evaluate_property("Nope", {})

    @pytest.mark.parametrize("op", ["/", "%"])
    def test_the_dividend_is_evaluated_before_the_divisor(self, scenario, op):
        """A dividend that raises decides the error, not a zero divisor."""
        checked = check_asl(parse_asl(COSY_DATA_MODEL).merge(parse_asl(f"""
            Property EmptyQuotient(Region r) {{
                CONDITION: UNIQUE({{s IN r.TotTimes WITH s.Incl < 0}}).Incl {op} 0 > 0;
                CONFIDENCE: 1;
                SEVERITY: 1;
            }}
        """)))
        evaluator = AslEvaluator(checked)
        for evaluate in (
            evaluator.evaluate_property, evaluator.evaluate_property_interpreted
        ):
            with pytest.raises(AslEvaluationError, match="set with 0 elements"):
                evaluate("EmptyQuotient", {"r": scenario["basis"]})


class TestEvaluationProtocol:
    """:meth:`CompiledProperty.evaluate` on hand-built records whose entries
    are names and whose ``value`` records every entry it computes."""

    @staticmethod
    def _decide(conditions, confidence, severity, values):
        asked = []

        def value(entry):
            asked.append(entry)
            return values[entry]

        program = CompiledProperty(None, [], conditions, confidence, severity)
        result = PropertyEvaluation(property_name="P")
        assert program.evaluate(result, value) is result
        return result, asked

    def test_only_entries_whose_guard_holds_count(self):
        result, asked = self._decide(
            [("a", "ca"), ("b", "cb")],
            [(None, "k0"), ("a", "ka"), ("b", "kb")],
            [("b", "sb"), ("a", "sa"), (None, "s0")],
            {"ca": 1, "cb": 0, "k0": 0.3, "ka": 0.7, "kb": 1.0,
             "sb": 9, "sa": 2, "s0": 1.5},
        )
        assert result.conditions == {"a": True, "b": False}
        assert result.holds
        assert (result.confidence, result.severity) == (0.7, 2.0)
        assert type(result.severity) is float
        assert asked == ["ca", "cb", "k0", "ka", "sa", "s0"]

    def test_all_guards_false_gives_zero_and_skips_the_severity(self):
        result, asked = self._decide(
            [("a", "ca"), ("b", "cb")],
            [("a", "ka"), ("b", "kb")],
            [(None, "s0"), ("a", "sa")],
            {"ca": False, "cb": 0.0, "ka": 0.9, "kb": 0.4, "s0": 3, "sa": 4},
        )
        assert result.conditions == {"a": False, "b": False}
        assert (result.holds, result.confidence, result.severity) == (
            False, 0.0, 0.0
        )
        # No condition holds: not even the unguarded severity entry runs.
        assert asked == ["ca", "cb"]

    def test_a_none_value_is_a_false_condition_and_adds_nothing(self):
        result, asked = self._decide(
            [("a", "ca"), ("b", "cb")],
            [(None, "k_null"), (None, "k0")],
            [("a", "s_null"), ("b", "sb")],
            {"ca": None, "cb": True, "k_null": None, "k0": 0.4,
             "s_null": 5, "sb": None},
        )
        assert result.conditions == {"a": False, "b": True}
        assert (result.confidence, result.severity) == (0.4, 0.0)
        assert asked == ["ca", "cb", "k_null", "k0", "sb"]

    @pytest.mark.parametrize("values", [
        [2], [1, 3, 2], [0.0, -0.0], [-0.0, 0.0], [math.nan, 1.0],
        [1.0, math.nan], [True, 0.5],
    ], ids=repr)
    def test_the_value_is_max_of_the_contributing_values(self, values):
        names = [f"v{i}" for i in range(len(values))]
        result, _ = self._decide(
            [("c", "c")],
            [(None, name) for name in names],
            [(None, name) for name in names],
            {"c": True, **dict(zip(names, values))},
        )
        expected = max(float(v) for v in values)
        for found in (result.confidence, result.severity):
            assert repr(found) == repr(expected)


class TestCompileOnceCaching:
    def test_property_is_compiled_once_and_reused(self, checked_spec, scenario):
        evaluator = AslEvaluator(checked_spec)
        params = {"r": scenario["basis"], "t": scenario["run_large"],
                  "Basis": scenario["basis"]}
        assert evaluator.compiled_properties == {}
        evaluator.evaluate_property("SyncCost", params)
        assert set(evaluator.compiled_properties) == {"SyncCost"}
        program = evaluator.compiled_properties["SyncCost"]
        assert isinstance(program, CompiledProperty)
        evaluator.evaluate_property("SyncCost", params)
        assert evaluator.compiled_properties["SyncCost"] is program

    def test_compile_property_is_idempotent(self, checked_spec):
        evaluator = AslEvaluator(checked_spec)
        first = evaluator.compile_property("Guarded")
        second = evaluator.compile_property("Guarded")
        assert first is second

    def test_client_strategy_precompiles(self, checked_spec):
        from repro.cosy.strategies import ClientSideStrategy

        strategy = ClientSideStrategy(checked_spec)
        strategy.precompile()
        assert set(strategy.evaluator.compiled_properties) == set(
            checked_spec.index.properties
        )


class TestScopeFind:
    """Scope.lookup resolves in one walk; None-valued bindings are 'bound'."""

    def test_find_returns_missing_for_unbound_names(self):
        scope = Scope()
        assert scope.find("x") is MISSING
        scope.define("x", 1)
        assert scope.find("x") == 1

    def test_none_valued_binding_is_contained(self):
        scope = Scope()
        scope.define("maybe", None)
        assert "maybe" in scope
        assert scope.find("maybe") is None
        assert scope.lookup("maybe") is None

    def test_find_walks_outwards_once(self):
        outer = Scope()
        outer.define("x", "outer")
        inner = outer.child()
        assert inner.find("x") == "outer"
        inner.define("x", None)
        assert inner.find("x") is None
        assert outer.find("x") == "outer"
