"""Tests of the ASL semantic checker (name resolution and type rules)."""

import re

import pytest

from repro.asl import (
    AslNameError,
    AslTypeError,
    check_asl,
    parse_asl,
)
from repro.asl.types import BOOL, FLOAT, INT, ClassType, SetType


MODEL = """
enum TimingType { Barrier, IORead };

class TestRun { int NoPe; int Clockspeed; }

class TotalTiming { TestRun Run; float Excl; float Incl; float Ovhd; }

class TypedTiming { TestRun Run; TimingType Type; float Time; }

class Region {
    Region ParentRegion;
    setof TotalTiming TotTimes;
    setof TypedTiming TypTimes;
}
"""


def check(extra: str):
    return check_asl(parse_asl(MODEL + extra))


class TestDataModelChecks:
    def test_valid_model_checks(self):
        checked = check("")
        assert set(checked.index.classes) == {
            "TestRun", "TotalTiming", "TypedTiming", "Region",
        }
        assert checked.index.enums["TimingType"].members == ["Barrier", "IORead"]

    def test_attribute_types_are_resolved(self):
        checked = check("")
        assert checked.index.attribute_type("TotalTiming", "Incl") == FLOAT
        assert checked.index.attribute_type("TotalTiming", "Run") == ClassType("TestRun")
        tot_times = checked.index.attribute_type("Region", "TotTimes")
        assert isinstance(tot_times, SetType)
        assert tot_times.element == ClassType("TotalTiming")

    def test_unknown_attribute_type_is_reported(self):
        with pytest.raises(AslNameError, match="unknown type"):
            check("class Broken { Widget W; }")

    def test_duplicate_class_is_reported(self):
        with pytest.raises(AslNameError, match="more than once"):
            check("class Region { int X; }")

    def test_unknown_base_class_is_reported(self):
        with pytest.raises(AslNameError, match="extends unknown class"):
            check("class Sub extends Missing { int X; }")

    def test_inheritance_cycle_is_reported(self):
        source = MODEL + "class A extends B { int X; } class B extends A { int Y; }"
        with pytest.raises((AslTypeError, AslNameError), match="cycle"):
            check_asl(parse_asl(source))

    def test_inherited_attributes_are_visible(self):
        checked = check(
            "class Base { float Time; } class Derived extends Base { int Count; }"
        )
        assert checked.index.attribute_type("Derived", "Time") == FLOAT
        assert checked.index.attribute_type("Derived", "Count") == INT

    def test_unknown_attribute_lookup_reports_known_names(self):
        checked = check("")
        with pytest.raises(AslNameError, match="Excl"):
            checked.index.attribute_type("TotalTiming", "Missing")

    def test_duplicate_enum_member_across_enums_is_reported(self):
        with pytest.raises(AslNameError, match="more than one enum"):
            check("enum Other { Barrier };")


class TestFunctionChecks:
    def test_paper_functions_check(self):
        checked = check(
            """
            TotalTiming Summary(Region r, TestRun t) =
                UNIQUE({s IN r.TotTimes WITH s.Run == t});
            float Duration(Region r, TestRun t) = Summary(r, t).Incl;
            """
        )
        params, return_type = checked.index.function_types["Duration"]
        assert return_type == FLOAT
        assert params == (ClassType("Region"), ClassType("TestRun"))

    def test_return_type_mismatch_is_reported(self):
        with pytest.raises(AslTypeError, match="return type"):
            check("int Wrong(Region r) = r.TotTimes;")

    def test_wrong_argument_count_is_reported(self):
        with pytest.raises(AslTypeError, match="expects 2 arguments"):
            check(
                """
                float Duration(Region r, TestRun t) = 1.0;
                float Bad(Region r) = Duration(r);
                """
            )

    def test_wrong_argument_type_is_reported(self):
        with pytest.raises(AslTypeError, match="not assignable"):
            check(
                """
                float Duration(Region r, TestRun t) = 1.0;
                float Bad(Region r) = Duration(r, r);
                """
            )

    def test_functions_may_call_each_other_in_any_order(self):
        checked = check(
            """
            float A(Region r, TestRun t) = B(r, t) + 1;
            float B(Region r, TestRun t) = 2.0;
            """
        )
        assert set(checked.index.functions) == {"A", "B"}

    def test_unknown_name_in_body_is_reported(self):
        with pytest.raises(AslNameError, match="unknown name"):
            check("float Bad(Region r) = NotDefined;")

    def test_int_is_assignable_to_float(self):
        check("float Ok() = 1;")

    def test_float_is_not_assignable_to_int(self):
        with pytest.raises(AslTypeError):
            check("int Bad() = 1.5;")


class TestPropertyChecks:
    GOOD = """
    constant float Threshold = 0.25;
    float Duration(Region r, TestRun t) =
        UNIQUE({s IN r.TotTimes WITH s.Run == t}).Incl;

    Property SyncCost(Region r, TestRun t, Region Basis) {
        LET float Barrier = SUM(tt.Time WHERE tt IN r.TypTimes AND tt.Run == t
                AND tt.Type == Barrier);
        IN
        CONDITION: Barrier > 0;
        CONFIDENCE: 1;
        SEVERITY: Barrier / Duration(Basis, t);
    }
    """

    def test_paper_style_property_checks(self):
        checked = check(self.GOOD)
        assert "SyncCost" in checked.index.properties

    def test_non_boolean_condition_is_reported(self):
        with pytest.raises(AslTypeError, match="must be boolean"):
            check(
                """
                Property Bad(Region r, TestRun t) {
                    CONDITION: 1 + 1;
                    CONFIDENCE: 1;
                    SEVERITY: 1;
                }
                """
            )

    def test_non_numeric_severity_is_reported(self):
        with pytest.raises(AslTypeError, match="severity.*numeric"):
            check(
                """
                Property Bad(Region r, TestRun t) {
                    CONDITION: r.TotTimes == r.TotTimes;
                    CONFIDENCE: 1;
                    SEVERITY: r.ParentRegion;
                }
                """
            )

    def test_duplicate_condition_identifier_is_reported(self):
        with pytest.raises(AslTypeError, match="used .*more than once|more than once"):
            check(
                """
                Property Bad(Region r, TestRun t) {
                    CONDITION: (c1) 1 > 0 OR (c1) 2 > 0;
                    CONFIDENCE: 1;
                    SEVERITY: 1;
                }
                """
            )

    def test_guard_must_reference_declared_condition(self):
        with pytest.raises(AslNameError, match="does not name a declared condition"):
            check(
                """
                Property Bad(Region r, TestRun t) {
                    CONDITION: (c1) 1 > 0;
                    CONFIDENCE: MAX((c2) -> 1);
                    SEVERITY: 1;
                }
                """
            )

    def test_let_definitions_see_earlier_definitions(self):
        check(
            """
            Property Chained(Region r, TestRun t) {
                LET float A = 1.0;
                    float B = A * 2
                IN
                CONDITION: B > 0;
                CONFIDENCE: 1;
                SEVERITY: B;
            }
            """
        )

    def test_let_type_mismatch_is_reported(self):
        with pytest.raises(AslTypeError, match="LET definition"):
            check(
                """
                Property Bad(Region r, TestRun t) {
                    LET int A = r.TotTimes
                    IN
                    CONDITION: A > 0; CONFIDENCE: 1; SEVERITY: 1;
                }
                """
            )

    def test_duplicate_property_is_reported(self):
        duplicated = """
        Property Twice(Region r, TestRun t) {
            CONDITION: 1 > 0; CONFIDENCE: 1; SEVERITY: 1;
        }
        Property Twice(Region r, TestRun t) {
            CONDITION: 2 > 0; CONFIDENCE: 1; SEVERITY: 2;
        }
        """
        with pytest.raises(AslNameError, match="more than once"):
            check(duplicated)

    def test_unknown_property_parameter_type_is_reported(self):
        with pytest.raises(AslNameError, match="unknown type"):
            check(
                """
                Property Bad(Widget w) {
                    CONDITION: 1 > 0; CONFIDENCE: 1; SEVERITY: 1;
                }
                """
            )


class TestExpressionTyping:
    def test_attribute_access_on_set_is_rejected(self):
        with pytest.raises(AslTypeError, match="on a set"):
            check("float Bad(Region r) = r.TotTimes.Incl;")

    def test_unique_requires_a_set(self):
        with pytest.raises(AslTypeError, match="UNIQUE requires a set"):
            check("float Bad(TotalTiming s) = UNIQUE(s.Incl);")

    def test_aggregate_source_must_be_a_set(self):
        with pytest.raises(AslTypeError, match="set-valued source"):
            check("float Bad(TotalTiming s) = SUM(x.Incl WHERE x IN s.Incl);")

    def test_comparison_of_incompatible_types_is_rejected(self):
        with pytest.raises(AslTypeError, match="incompatible types"):
            check("bool Bad(Region r, TestRun t) = r == t;")

    def test_logical_operator_requires_booleans(self):
        with pytest.raises(AslTypeError, match="requires boolean operands"):
            check("bool Bad(TestRun t) = t.NoPe AND true;")

    def test_arithmetic_requires_numbers(self):
        with pytest.raises(AslTypeError, match="numeric operands"):
            check("float Bad(Region r) = r.ParentRegion + 1;")

    def test_count_returns_int(self):
        check("int Ok(Region r) = COUNT(1 WHERE s IN r.TotTimes);")

    @pytest.mark.parametrize(
        "call, arity",
        [
            ("ABS(1, 2)", "exactly 1 argument(s), got 2"),
            ("ABS()", "exactly 1 argument(s), got 0"),
        ],
    )
    def test_a_builtin_of_the_wrong_arity_is_rejected(self, call, arity):
        """Also inside a guarded entry that may never run: the evaluators
        rely on the checker for the arity."""
        message = rf"builtin {call.split('(')[0]} takes {re.escape(arity)}$"
        with pytest.raises(AslTypeError, match=message):
            check(
                f"""
                Property P(Region r) {{
                    CONDITION: (c) 1 > 2;
                    CONFIDENCE: 1;
                    SEVERITY: MAX((c) -> {call});
                }}
                """
            )

    def test_builtins_of_the_right_arity_check(self):
        check("float Ok(TestRun t) = MIN(t.NoPe) + MAX(1, 2.5, t.NoPe) + ABS(-1);")

    def test_enum_comparison_is_allowed(self):
        check("bool Ok(TypedTiming tt) = tt.Type == Barrier;")

    def test_object_equality_with_subtyping(self):
        check(
            """
            class SpecialRun extends TestRun { int Priority; }
            bool Ok(TotalTiming s, SpecialRun sp) = s.Run == sp;
            """
        )
