"""Tests of the Apprentice summary-file exporter and parser (round trip)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apprentice import (
    ApprenticeExport,
    ApprenticeFormatError,
    ApprenticeParser,
    simulate,
    synthetic_workload,
)
from repro.datamodel import TimingType


@pytest.fixture(scope="module")
def exported_text(mixed_repository):
    return ApprenticeExport(mixed_repository).dumps()


class TestExportFormat:
    def test_header_and_record_kinds(self, exported_text):
        lines = exported_text.splitlines()
        assert lines[0] == "APPRENTICE-SUMMARY|1.0"
        kinds = {line.split("|")[0] for line in lines[1:] if not line.startswith(">")}
        assert {"PROGRAM", "VERSION", "RUN", "FUNCTION", "REGION", "TOTAL",
                "TYPED", "CALLSITE", "CALLTIMING"} <= kinds

    def test_every_region_appears(self, exported_text, mixed_repository):
        for region in mixed_repository.regions():
            assert f"REGION|{region.name}|" in exported_text

    def test_dump_path_round_trip(self, tmp_path, mixed_repository):
        path = tmp_path / "summary.apr"
        ApprenticeExport(mixed_repository).dump_path(str(path))
        parsed = ApprenticeParser().load_path(str(path))
        assert parsed.stats().counts == mixed_repository.stats().counts


class TestRoundTrip:
    def test_counts_preserved(self, exported_text, mixed_repository):
        parsed = ApprenticeParser().loads(exported_text)
        assert parsed.stats().counts == mixed_repository.stats().counts

    def test_timings_preserved(self, exported_text, mixed_repository):
        parsed = ApprenticeParser().loads(exported_text)
        original_main = mixed_repository.region_by_name("app_main")
        parsed_main = parsed.region_by_name("app_main")
        original = sorted(
            (t.Run.NoPe, t.Incl, t.Excl, t.Ovhd) for t in original_main.TotTimes
        )
        round_tripped = sorted(
            (t.Run.NoPe, t.Incl, t.Excl, t.Ovhd) for t in parsed_main.TotTimes
        )
        # The export format keeps 12 significant digits.
        for before, after in zip(original, round_tripped):
            assert after[0] == before[0]
            for b, a in zip(before[1:], after[1:]):
                assert a == pytest.approx(b, rel=1e-9)

    def test_typed_timings_preserved(self, exported_text, mixed_repository):
        parsed = ApprenticeParser().loads(exported_text)
        region = parsed.region_by_name("write_results")
        types = {t.Type for t in region.TypTimes}
        assert TimingType.IOWrite in types
        assert TimingType.EventWait in types

    def test_parent_structure_preserved(self, exported_text):
        parsed = ApprenticeParser().loads(exported_text)
        child = parsed.region_by_name("assemble_matrix")
        assert child.ParentRegion is not None
        assert child.ParentRegion.name == "app_main"

    def test_call_sites_preserved(self, exported_text, mixed_repository):
        parsed = ApprenticeParser().loads(exported_text)
        version = parsed.programs[0].latest_version()
        callees = sorted(call.callee_name for call in version.all_calls())
        original = sorted(
            call.callee_name
            for call in mixed_repository.programs[0].latest_version().all_calls()
        )
        assert callees == original

    def test_double_round_trip_is_stable(self, exported_text):
        parsed = ApprenticeParser().loads(exported_text)
        again = ApprenticeExport(parsed).dumps()
        assert ApprenticeParser().loads(again).stats().counts == parsed.stats().counts

    @given(pes=st.sampled_from([1, 2, 3, 4, 7, 8]),
           kind=st.sampled_from(["stencil", "io_bound", "comm_bound"]))
    @settings(max_examples=6, deadline=None)
    def test_round_trip_for_other_workloads(self, pes, kind):
        repo = simulate(synthetic_workload(kind), pe_counts=(1, pes) if pes > 1 else (1,))
        text = ApprenticeExport(repo).dumps()
        parsed = ApprenticeParser().loads(text)
        assert parsed.stats().counts == repo.stats().counts


class TestParserErrors:
    def test_missing_header(self):
        with pytest.raises(ApprenticeFormatError, match="header"):
            ApprenticeParser().loads("PROGRAM|x\n")

    def test_unsupported_version(self):
        with pytest.raises(ApprenticeFormatError, match="version"):
            ApprenticeParser().loads("APPRENTICE-SUMMARY|9.9\n")

    def test_unknown_record_type(self):
        text = "APPRENTICE-SUMMARY|1.0\nBOGUS|x\n"
        with pytest.raises(ApprenticeFormatError, match="unknown record type"):
            ApprenticeParser().loads(text)

    def test_region_before_function(self):
        text = (
            "APPRENTICE-SUMMARY|1.0\n"
            "PROGRAM|p\n"
            "VERSION|v1|2000-01-01T00:00:00\n"
            "REGION|r|loop|-|-|0|0\n"
        )
        with pytest.raises(ApprenticeFormatError, match="REGION before FUNCTION"):
            ApprenticeParser().loads(text)

    def test_total_for_unknown_region(self):
        text = (
            "APPRENTICE-SUMMARY|1.0\n"
            "PROGRAM|p\n"
            "VERSION|v1|2000-01-01T00:00:00\n"
            "RUN|1|2000-01-01T01:00:00|4|300\n"
            "FUNCTION|main\n"
            "TOTAL|missing|1|1.0|1.0|0.0\n"
        )
        with pytest.raises(ApprenticeFormatError, match="unknown region"):
            ApprenticeParser().loads(text)

    def test_wrong_field_count(self):
        text = (
            "APPRENTICE-SUMMARY|1.0\n"
            "PROGRAM|p|extra\n"
        )
        with pytest.raises(ApprenticeFormatError, match="expects 2 fields"):
            ApprenticeParser().loads(text)

    def test_truncated_source_block(self):
        text = (
            "APPRENTICE-SUMMARY|1.0\n"
            "PROGRAM|p\n"
            "VERSION|v1|2000-01-01T00:00:00\n"
            "SOURCE|a.f90|3\n"
            ">only one line\n"
        )
        with pytest.raises(ApprenticeFormatError, match="truncated|source"):
            ApprenticeParser().loads(text)

    def test_error_messages_carry_line_numbers(self):
        text = "APPRENTICE-SUMMARY|1.0\nBOGUS|x\n"
        with pytest.raises(ApprenticeFormatError, match="line 2"):
            ApprenticeParser().loads(text)

    @pytest.mark.parametrize("record", ["LINE", "REQUIRE", "LOOKUP_REGION"])
    def test_parser_method_names_are_not_record_types(self, record):
        text = f"APPRENTICE-SUMMARY|1.0\n{record}|x\n"
        with pytest.raises(ApprenticeFormatError, match="^line 2: unknown record type"):
            ApprenticeParser().loads(text)
