"""Tests of the pretty-printer and of the bundled COSY specification."""

import pytest

from repro.asl import (
    check_asl,
    parse_asl,
    parse_expression,
    unparse,
    unparse_expr,
)
from repro.asl.specs import (
    COSY_DATA_MODEL,
    COSY_PROPERTIES,
    COSY_PROPERTY_NAMES,
    cosy_specification,
)
from repro.asl.types import ClassType, SetType
from repro.datamodel import NUM_TIMING_TYPES, TimingType


class TestUnparseExpressions:
    @pytest.mark.parametrize(
        "source",
        [
            "1 + 2 * 3",
            "(1 + 2) * 3",
            "a.b.c",
            "Duration(r, t) - Duration(r, s)",
            "SUM(tt.Time WHERE tt IN r.TypTimes AND tt.Run == t AND tt.Type == Barrier)",
            "UNIQUE({s IN r.TotTimes WITH s.Run == t}).Incl",
            "MIN(s.Run.NoPe WHERE s IN r.TotTimes)",
            "NOT a > 1 AND b < 2",
            "-x / (y + 1)",
            "{c IN Call.Sums WITH c.Run == t}",
        ],
    )
    def test_round_trip_is_stable(self, source):
        once = unparse_expr(parse_expression(source))
        twice = unparse_expr(parse_expression(once))
        assert once == twice

    def test_parentheses_are_preserved_semantically(self):
        expr = parse_expression("(1 + 2) * 3")
        assert unparse_expr(expr) == "(1 + 2) * 3"

    def test_needless_parentheses_are_dropped(self):
        expr = parse_expression("(((1))) + 2")
        assert unparse_expr(expr) == "1 + 2"

    @pytest.mark.parametrize(
        "source", ["(0 + 0 > 0) > 0", "(a == b) != (c < d)"]
    )
    def test_a_comparison_operand_of_a_comparison_keeps_its_parentheses(
        self, source
    ):
        # Comparisons do not chain: ``0 + 0 > 0 > 0`` does not parse.
        assert unparse_expr(parse_expression(source)) == source


class TestUnparseDeclarations:
    def test_document_round_trip(self):
        source = """
        enum TimingType { Barrier, IORead };
        class Region { Region ParentRegion; setof TotalTiming TotTimes; }
        class TotalTiming { float Incl; }
        constant float Threshold = 0.25;
        float Duration(Region r) = UNIQUE({s IN r.TotTimes}).Incl;
        Property P(Region r) {
            LET float D = Duration(r)
            IN
            CONDITION: (c1) D > Threshold;
            CONFIDENCE: MAX((c1) -> 1);
            SEVERITY: (c1) -> D;
        };
        """
        once = unparse(parse_asl(source))
        twice = unparse(parse_asl(once))
        assert once == twice

    def test_cosy_documents_round_trip(self):
        for document in (COSY_DATA_MODEL, COSY_PROPERTIES):
            once = unparse(parse_asl(document))
            twice = unparse(parse_asl(once))
            assert once == twice


class TestBundledSpecification:
    def test_specification_checks(self):
        checked = cosy_specification()
        assert set(COSY_PROPERTY_NAMES) <= set(checked.index.properties)

    def test_data_model_matches_the_paper_classes(self):
        checked = cosy_specification()
        assert set(checked.index.classes) == {
            "Program", "ProgVersion", "TestRun", "Function", "Region",
            "TotalTiming", "TypedTiming", "FunctionCall", "CallTiming",
        }

    def test_paper_attribute_names(self):
        checked = cosy_specification()
        region = checked.index.classes["Region"]
        assert set(region.attributes) == {"ParentRegion", "TotTimes", "TypTimes"}
        total = checked.index.classes["TotalTiming"]
        assert set(total.attributes) == {"Run", "Excl", "Incl", "Ovhd"}
        run = checked.index.classes["TestRun"]
        assert set(run.attributes) == {"Start", "NoPe", "Clockspeed"}

    def test_timing_type_enum_matches_the_runtime_enum(self):
        checked = cosy_specification()
        members = checked.index.enums["TimingType"].members
        assert len(members) == NUM_TIMING_TYPES == 25
        assert set(members) == {t.value for t in TimingType}

    def test_collection_attributes_have_set_types(self):
        checked = cosy_specification()
        tot_times = checked.index.attribute_type("Region", "TotTimes")
        assert tot_times == SetType(element=ClassType("TotalTiming"))

    def test_paper_properties_take_the_paper_parameters(self):
        checked = cosy_specification()
        sublinear = checked.index.properties["SublinearSpeedup"]
        assert [(p.type.name, p.name) for p in sublinear.params] == [
            ("Region", "r"), ("TestRun", "t"), ("Region", "Basis"),
        ]
        imbalance = checked.index.properties["LoadImbalance"]
        assert imbalance.params[0].type.name == "FunctionCall"

    def test_helper_functions_are_defined(self):
        checked = cosy_specification()
        assert {"Summary", "Duration", "MinPeSummary", "TypedCost"} <= set(
            checked.index.functions
        )

    def test_imbalance_threshold_constant_is_declared(self):
        checked = cosy_specification()
        assert "ImbalanceThreshold" in checked.index.constants
