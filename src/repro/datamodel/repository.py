"""The in-memory performance-data repository used by COSY.

The paper stores performance data in a relational database; the analysis tool
and the ASL reference evaluator, however, operate on an object view of that
data (the ASL data model of Section 4.1).  :class:`PerformanceDatabase` is that
object view: it owns a set of :class:`~repro.datamodel.entities.Program`
objects, enforces the data-model invariants, and offers the navigation and
aggregation helpers the COSY properties rely on (``Summary``, ``Duration``,
selection of the reference run with the minimal number of processors, …).

The relational representation is produced from this repository by
:mod:`repro.compiler.loader`.
"""

from __future__ import annotations

import datetime as _dt
from typing import Dict, Iterator, List, Optional

from repro.datamodel.entities import (
    DataModelError,
    FunctionCall,
    Program,
    ProgVersion,
    Region,
    TestRun,
    TotalTiming,
)
from repro.datamodel.timing_types import TimingType

__all__ = ["PerformanceDatabase", "RepositoryStats"]


class RepositoryStats:
    """Simple record of entity counts, used by reports and benchmarks."""

    def __init__(self, **counts: int) -> None:
        self.counts: Dict[str, int] = dict(counts)

    def __getitem__(self, key: str) -> int:
        return self.counts[key]

    def total_rows(self) -> int:
        """Total number of entity instances (≈ relational rows)."""
        return sum(self.counts.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.counts.items()))
        return f"RepositoryStats({inner})"


class PerformanceDatabase:
    """Object repository of COSY performance data.

    The repository may hold *multiple applications with different versions and
    multiple test runs per program version* (paper, Section 3).
    """

    def __init__(self) -> None:
        self._programs: Dict[str, Program] = {}

    # ------------------------------------------------------------------ #
    # population
    # ------------------------------------------------------------------ #

    def add_program(self, program: Program) -> Program:
        """Register an application; names must be unique."""
        if program.Name in self._programs:
            raise DataModelError(f"program {program.Name!r} already registered")
        self._programs[program.Name] = program
        return program

    def create_program(self, name: str) -> Program:
        """Create and register an empty :class:`Program`."""
        return self.add_program(Program(Name=name))

    def create_version(
        self,
        program_name: str,
        label: str = "",
        compilation: Optional[_dt.datetime] = None,
    ) -> ProgVersion:
        """Create a new version of an existing (or new) program."""
        program = self._programs.get(program_name)
        if program is None:
            program = self.create_program(program_name)
        version = ProgVersion(
            Compilation=compilation or _dt.datetime(2000, 1, 1),
            label=label or f"v{len(program.Versions) + 1}",
        )
        program.add_version(version)
        return version

    # ------------------------------------------------------------------ #
    # navigation
    # ------------------------------------------------------------------ #

    @property
    def programs(self) -> List[Program]:
        """All registered applications."""
        return list(self._programs.values())

    def program(self, name: str) -> Program:
        """Look up a program by name; raises ``KeyError`` when unknown."""
        try:
            return self._programs[name]
        except KeyError:
            raise KeyError(
                f"no program named {name!r}; known programs: "
                f"{sorted(self._programs)}"
            ) from None

    def versions(self) -> Iterator[ProgVersion]:
        """Iterate over every program version of every application."""
        for program in self._programs.values():
            yield from program.Versions

    def regions(self) -> Iterator[Region]:
        """Iterate over every region in the repository."""
        for version in self.versions():
            yield from version.all_regions()

    def calls(self) -> Iterator[FunctionCall]:
        """Iterate over every function call site in the repository."""
        for version in self.versions():
            yield from version.all_calls()

    def runs(self) -> Iterator[TestRun]:
        """Iterate over every test run in the repository."""
        for version in self.versions():
            yield from version.Runs

    def region_by_name(self, name: str) -> Region:
        """Find a region anywhere in the repository by its name."""
        for region in self.regions():
            if region.name == name:
                return region
        raise KeyError(f"no region named {name!r} in the repository")

    # ------------------------------------------------------------------ #
    # ASL helper functions (Section 4.2)
    # ------------------------------------------------------------------ #

    @staticmethod
    def summary(region: Region, run: TestRun) -> TotalTiming:
        """ASL ``Summary(Region r, TestRun t)``: the unique TotalTiming of a run."""
        return region.summary(run)

    @staticmethod
    def duration(region: Region, run: TestRun) -> float:
        """ASL ``Duration(Region r, TestRun t)``: inclusive time in the run."""
        return region.duration(run)

    @staticmethod
    def min_pe_summary(region: Region) -> TotalTiming:
        """The TotalTiming of ``region`` belonging to the run with minimal NoPe.

        This mirrors the ``MinPeSum`` LET-binding of the ``SublinearSpeedup``
        property.
        """
        if not region.TotTimes:
            raise DataModelError(
                f"region {region.name!r} has no TotalTiming objects"
            )
        return min(region.TotTimes, key=lambda t: (t.Run.NoPe, t.Run.uid))

    @classmethod
    def total_cost(cls, region: Region, run: TestRun) -> float:
        """Lost cycles of ``region`` in ``run`` relative to the smallest run.

        ``TotalCost = Duration(r, t) - Duration(r, MinPeSum.Run)`` — the basis
        of the ``SublinearSpeedup`` property and of COSY's main cost metric.
        """
        reference = cls.min_pe_summary(region)
        return region.duration(run) - region.duration(reference.Run)

    @staticmethod
    def typed_cost(region: Region, run: TestRun, timing_type: TimingType) -> float:
        """Summed time of one overhead type (e.g. Barrier) in ``run``."""
        return region.typed_time(run, timing_type)

    @staticmethod
    def speedup(region: Region, run: TestRun) -> float:
        """Speedup of ``region`` in ``run`` relative to the smallest run.

        Timings in the database are summed over all processes, therefore the
        wall-clock time of a run is ``Duration / NoPe`` and the speedup against
        the reference run with ``NoPe_ref`` processors is::

            (Duration_ref / NoPe_ref) / (Duration_run / NoPe_run)
        """
        reference = PerformanceDatabase.min_pe_summary(region)
        ref_wall = reference.Incl / reference.Run.NoPe
        run_wall = region.duration(run) / run.NoPe
        if run_wall <= 0:
            return float("inf")
        return ref_wall / run_wall

    # ------------------------------------------------------------------ #
    # integrity / statistics
    # ------------------------------------------------------------------ #

    def validate(self) -> None:
        """Check the repository invariants; raises :class:`DataModelError`.

        Checked invariants:

        * every region has at most one :class:`TotalTiming` per run and at most
          one :class:`TypedTiming` per (run, type) pair;
        * every timing refers to a run registered with the owning version;
        * region parent chains are acyclic and stay within one function;
        * every call site has at most one :class:`CallTiming` per run.
        """
        for version in self.versions():
            run_ids = {run.uid for run in version.Runs}
            for function in version.Functions:
                for region in function.Regions:
                    self._validate_region(region, run_ids)
                for call in function.Calls:
                    self._validate_call(call, run_ids)

    @staticmethod
    def _validate_region(region: Region, run_ids: set) -> None:
        seen_runs = set()
        for timing in region.TotTimes:
            if timing.Run.uid not in run_ids:
                raise DataModelError(
                    f"region {region.name!r} has a TotalTiming for an "
                    f"unregistered run {timing.Run.uid}"
                )
            if timing.Run.uid in seen_runs:
                raise DataModelError(
                    f"region {region.name!r} has duplicate TotalTiming for run "
                    f"{timing.Run.uid}"
                )
            seen_runs.add(timing.Run.uid)
        seen_typed: set = set()
        for typed in region.TypTimes:
            key = (typed.Run.uid, typed.Type)
            if typed.Run.uid not in run_ids:
                raise DataModelError(
                    f"region {region.name!r} has a TypedTiming for an "
                    f"unregistered run {typed.Run.uid}"
                )
            if key in seen_typed:
                raise DataModelError(
                    f"region {region.name!r} has duplicate TypedTiming "
                    f"({typed.Type.value}) for run {typed.Run.uid}"
                )
            seen_typed.add(key)
        # Walking the ancestor chain raises on cycles.
        list(region.ancestors())

    @staticmethod
    def _validate_call(call: FunctionCall, run_ids: set) -> None:
        seen = set()
        for timing in call.Sums:
            if timing.Run.uid not in run_ids:
                raise DataModelError(
                    f"call site {call.uid} has a CallTiming for an "
                    f"unregistered run {timing.Run.uid}"
                )
            if timing.Run.uid in seen:
                raise DataModelError(
                    f"call site {call.uid} has duplicate CallTiming for run "
                    f"{timing.Run.uid}"
                )
            seen.add(timing.Run.uid)

    def stats(self) -> RepositoryStats:
        """Entity counts across the whole repository."""
        counts = {
            "programs": len(self._programs),
            "versions": 0,
            "runs": 0,
            "functions": 0,
            "regions": 0,
            "total_timings": 0,
            "typed_timings": 0,
            "calls": 0,
            "call_timings": 0,
        }
        for program in self._programs.values():
            counts["versions"] += len(program.Versions)
            for version in program.Versions:
                counts["runs"] += len(version.Runs)
                counts["functions"] += len(version.Functions)
                for function in version.Functions:
                    counts["regions"] += len(function.Regions)
                    counts["calls"] += len(function.Calls)
                    for region in function.Regions:
                        counts["total_timings"] += len(region.TotTimes)
                        counts["typed_timings"] += len(region.TypTimes)
                    for call in function.Calls:
                        counts["call_timings"] += len(call.Sums)
        return RepositoryStats(**counts)

    def __len__(self) -> int:
        return len(self._programs)

    def __contains__(self, name: str) -> bool:
        return name in self._programs

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PerformanceDatabase(programs={sorted(self._programs)})"
