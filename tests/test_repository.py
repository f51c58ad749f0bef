"""Tests of the in-memory performance-data repository."""

import datetime as dt

import pytest

from repro.datamodel import (
    DataModelError,
    Function,
    PerformanceDatabase,
    Region,
    RegionKind,
    TestRun,
    TimingType,
    TotalTiming,
    TypedTiming,
)


def build_small_repository():
    """A hand-built repository with two runs and one region hierarchy."""
    repo = PerformanceDatabase()
    version = repo.create_version("app", label="v1")
    run_small = version.add_run(
        TestRun(Start=dt.datetime(2000, 1, 1), NoPe=2, Clockspeed=300)
    )
    run_large = version.add_run(
        TestRun(Start=dt.datetime(2000, 1, 1, 1), NoPe=8, Clockspeed=300)
    )
    main = version.add_function(Function(Name="main"))
    body = main.add_region(Region(name="main_body", kind=RegionKind.PROGRAM))
    loop = main.add_region(Region(name="loop", ParentRegion=body))
    body.add_total_timing(TotalTiming(Run=run_small, Excl=2.0, Incl=10.0, Ovhd=1.0))
    body.add_total_timing(TotalTiming(Run=run_large, Excl=3.0, Incl=16.0, Ovhd=4.0))
    loop.add_total_timing(TotalTiming(Run=run_small, Excl=8.0, Incl=8.0, Ovhd=0.5))
    loop.add_total_timing(TotalTiming(Run=run_large, Excl=13.0, Incl=13.0, Ovhd=3.0))
    loop.add_typed_timing(TypedTiming(Run=run_large, Type=TimingType.Barrier, Time=2.5))
    return repo, version, run_small, run_large, body, loop


class TestPopulation:
    def test_duplicate_program_rejected(self):
        repo = PerformanceDatabase()
        repo.create_program("app")
        with pytest.raises(DataModelError, match="already registered"):
            repo.create_program("app")

    def test_create_version_creates_program_on_demand(self):
        repo = PerformanceDatabase()
        version = repo.create_version("new_app")
        assert "new_app" in repo
        assert version.label == "v1"

    def test_program_lookup_error_lists_known_programs(self):
        repo = PerformanceDatabase()
        repo.create_program("app")
        with pytest.raises(KeyError, match="app"):
            repo.program("missing")


class TestNavigation:
    def test_region_iteration_and_lookup(self):
        repo, *_ = build_small_repository()
        names = {r.name for r in repo.regions()}
        assert names == {"main_body", "loop"}
        assert repo.region_by_name("loop").name == "loop"
        with pytest.raises(KeyError):
            repo.region_by_name("nope")

    def test_stats_counts_every_entity(self):
        repo, *_ = build_small_repository()
        stats = repo.stats()
        assert stats["programs"] == 1
        assert stats["runs"] == 2
        assert stats["regions"] == 2
        assert stats["total_timings"] == 4
        assert stats["typed_timings"] == 1
        assert stats.total_rows() == 1 + 1 + 2 + 1 + 2 + 4 + 1


class TestAslHelperSemantics:
    def test_duration_is_inclusive_time(self):
        _, _, run_small, run_large, body, _ = build_small_repository()
        assert body.duration(run_small) == 10.0
        assert body.duration(run_large) == 16.0

    def test_min_pe_summary_selects_the_smallest_run(self):
        repo, _, run_small, _, body, _ = build_small_repository()
        assert repo.min_pe_summary(body).Run is run_small

    def test_total_cost_matches_the_paper_definition(self):
        repo, _, _, run_large, body, _ = build_small_repository()
        # TotalCost = Duration(r, t) - Duration(r, MinPeSum.Run) = 16 - 10
        assert repo.total_cost(body, run_large) == pytest.approx(6.0)

    def test_total_cost_of_the_reference_run_is_zero(self):
        repo, _, run_small, _, body, _ = build_small_repository()
        assert repo.total_cost(body, run_small) == pytest.approx(0.0)

    def test_speedup_uses_wall_clock_semantics(self):
        repo, _, _, run_large, body, _ = build_small_repository()
        # reference wall clock = 10/2 = 5; run wall clock = 16/8 = 2 → speedup 2.5
        assert repo.speedup(body, run_large) == pytest.approx(2.5)

    def test_typed_cost(self):
        _, _, _, run_large, _, loop = build_small_repository()
        assert loop.typed_time(run_large, TimingType.Barrier) == 2.5
        assert loop.typed_time(run_large, TimingType.IOWrite) == 0.0

    def test_min_pe_summary_requires_data(self):
        with pytest.raises(DataModelError):
            PerformanceDatabase.min_pe_summary(Region(name="empty"))


class TestValidation:
    def test_valid_repository_passes(self):
        repo, *_ = build_small_repository()
        repo.validate()

    def test_timing_for_unregistered_run_is_detected(self):
        repo, version, *_rest = build_small_repository()
        rogue_run = TestRun(Start=dt.datetime(2000, 2, 1), NoPe=32, Clockspeed=300)
        region = repo.region_by_name("loop")
        region.TotTimes.append(TotalTiming(Run=rogue_run, Excl=1, Incl=1, Ovhd=0))
        with pytest.raises(DataModelError, match="unregistered run"):
            repo.validate()

    def test_duplicate_total_timing_is_detected(self):
        repo, _, run_small, *_rest = build_small_repository()
        region = repo.region_by_name("loop")
        region.TotTimes.append(TotalTiming(Run=run_small, Excl=1, Incl=1, Ovhd=0))
        with pytest.raises(DataModelError, match="duplicate TotalTiming"):
            repo.validate()

    def test_duplicate_typed_timing_is_detected(self):
        repo, _, _, run_large, _, loop = build_small_repository()
        loop.TypTimes.append(
            TypedTiming(Run=run_large, Type=TimingType.Barrier, Time=1.0)
        )
        with pytest.raises(DataModelError, match="duplicate TypedTiming"):
            repo.validate()
