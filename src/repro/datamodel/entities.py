"""Runtime entity classes for the COSY performance data model.

These classes mirror, one to one, the ASL data model printed in Section 4.1 of
the paper (``Program``, ``ProgVersion``, ``TestRun``, ``Function``, ``Region``,
``TotalTiming``, ``TypedTiming``, ``FunctionCall`` and ``CallTiming``).  The
attribute names follow the paper exactly (``NoPe``, ``Excl``, ``Incl``,
``Ovhd``, ``TotTimes``, ``TypTimes`` …) so that

* the ASL reference evaluator (:mod:`repro.asl.evaluator`) can resolve
  attribute accesses such as ``r.TotTimes`` or ``sum.Run.NoPe`` directly
  against these Python objects, and
* the ASL→SQL compiler (:mod:`repro.compiler`) can map attributes to relational
  columns without a separate name-mapping table.

A small number of bookkeeping attributes that the paper leaves implicit (object
identifiers, region names and kinds, source line ranges) are added because the
relational representation and the report output need them; they are all
lower-case to keep them visually distinct from the paper's attributes.
"""

from __future__ import annotations

import datetime as _dt
import enum
import itertools
from typing import Dict, Iterator, List, Optional

from repro.datamodel.timing_types import TimingType
from repro.records import Record

__all__ = [
    "RegionKind",
    "SourceCode",
    "Program",
    "ProgVersion",
    "TestRun",
    "Function",
    "Region",
    "TotalTiming",
    "TypedTiming",
    "FunctionCall",
    "CallTiming",
    "DataModelError",
]


class DataModelError(ValueError):
    """Raised when an entity or a repository violates a data-model invariant."""


_id_counter = itertools.count(1)


def _next_id() -> int:
    """Return a process-wide unique positive integer identifier."""
    return next(_id_counter)


def _timing_keys(owner: object, slot: str, timings: list, key_of) -> set:
    """The duplicate-check keys of ``timings``, kept beside the list.

    ``owner.<slot>`` holds one key per timing, so an ``add_*`` method checks
    a new timing in constant time instead of scanning the list.  The set is
    rebuilt whenever its size no longer matches the list's length: a timing
    appended to the list directly, bypassing ``add_*``, is still seen.
    """
    keys = getattr(owner, slot, None)
    if keys is None or len(keys) != len(timings):
        keys = {key_of(timing) for timing in timings}
        setattr(owner, slot, keys)
    return keys


def _run_key(timing) -> int:
    return timing.Run.uid


def _run_type_key(timing) -> tuple:
    return (timing.Run.uid, timing.Type)


class RegionKind(enum.Enum):
    """Kinds of program regions COSY identifies (paper, Section 3).

    COSY "identifies program regions, i.e. subprograms, loops, if-blocks,
    subroutine calls, and arbitrary basic blocks".
    """

    PROGRAM = "program"
    SUBPROGRAM = "subprogram"
    LOOP = "loop"
    IF_BLOCK = "if_block"
    CALL = "call"
    BASIC_BLOCK = "basic_block"


class SourceCode(Record):
    """Program source text stored with a program version.

    The paper's ``ProgVersion`` class has a ``SourceCode Code`` attribute; COSY
    stores the source so that reports can point at the offending lines.
    """

    __slots__ = ("files",)

    def __init__(self, files: Optional[Dict[str, str]] = None) -> None:
        self.files = {} if files is None else files

    def add_file(self, path: str, text: str) -> None:
        """Register (or replace) a source file."""
        self.files[path] = text

    def line(self, path: str, lineno: int) -> str:
        """Return one source line (1-based); raises ``KeyError``/``IndexError``."""
        lines = self.files[path].splitlines()
        return lines[lineno - 1]

    @property
    def total_lines(self) -> int:
        """Total number of source lines across all files."""
        return sum(len(text.splitlines()) for text in self.files.values())


class TestRun(Record):
    """One execution of a program version on a processor configuration.

    ASL::

        class TestRun {
            DateTime Start;
            int NoPe;
            int Clockspeed;
        }
    """

    __slots__ = ("Start", "NoPe", "Clockspeed", "uid")
    #: Not a test case: keeps pytest from trying to collect the class from
    #: the test modules that import it.
    __test__ = False

    def __init__(
        self,
        Start: _dt.datetime,
        NoPe: int,
        Clockspeed: int,
        uid: Optional[int] = None,
    ) -> None:
        self.Start = Start
        self.NoPe = NoPe
        self.Clockspeed = Clockspeed
        self.uid = _next_id() if uid is None else uid
        if NoPe <= 0:
            raise DataModelError(f"TestRun.NoPe must be positive, got {NoPe}")
        if Clockspeed <= 0:
            raise DataModelError(
                f"TestRun.Clockspeed must be positive, got {Clockspeed}"
            )

    def __hash__(self) -> int:
        return hash(self.uid)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TestRun) and other.uid == self.uid

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TestRun(uid={self.uid}, NoPe={self.NoPe}, Clockspeed={self.Clockspeed})"


class TotalTiming(Record):
    """Summed-up exclusive/inclusive/overhead time of a region in one run.

    ASL::

        class TotalTiming {
            TestRun Run;
            float Excl;
            float Incl;
            float Ovhd;
        }

    All timings in the database are sums over all processes of the run.
    """

    __slots__ = ("Run", "Excl", "Incl", "Ovhd", "uid")

    def __init__(
        self,
        Run: TestRun,
        Excl: float,
        Incl: float,
        Ovhd: float,
        uid: Optional[int] = None,
    ) -> None:
        self.Run = Run
        self.Excl = Excl
        self.Incl = Incl
        self.Ovhd = Ovhd
        self.uid = _next_id() if uid is None else uid
        for name, value in (("Excl", Excl), ("Incl", Incl), ("Ovhd", Ovhd)):
            if value < 0:
                raise DataModelError(f"TotalTiming.{name} must be >= 0, got {value}")
        if Incl + 1e-9 < Excl:
            raise DataModelError(
                "TotalTiming.Incl must be >= TotalTiming.Excl "
                f"(Incl={Incl}, Excl={Excl})"
            )

    def __hash__(self) -> int:
        return hash(self.uid)


class TypedTiming(Record):
    """Time a region spent in one of the 25 Apprentice work/overhead types.

    ASL::

        class TypedTiming {
            TestRun Run;
            TimingType Type;
            float Time;
        }

    For each region there is *at most one* object per (run, type) pair; the
    repository enforces this invariant.
    """

    __slots__ = ("Run", "Type", "Time", "uid")

    def __init__(
        self,
        Run: TestRun,
        Type: TimingType,
        Time: float,
        uid: Optional[int] = None,
    ) -> None:
        self.Run = Run
        self.Type = Type
        self.Time = Time
        self.uid = _next_id() if uid is None else uid
        if not isinstance(Type, TimingType):
            raise DataModelError(f"TypedTiming.Type must be a TimingType, got {Type!r}")
        if Time < 0:
            raise DataModelError(f"TypedTiming.Time must be >= 0, got {Time}")

    def __hash__(self) -> int:
        return hash(self.uid)


class CallTiming(Record):
    """Across-process statistics of one call site in one test run.

    ASL (described in prose in the paper): a ``CallTiming`` stores, for the
    test run it belongs to, minimum / maximum / mean / standard deviation over

    a) the number of calls executed per process, and
    b) the time spent in the called function per process.

    For the four extremal values the processor that was first or last in the
    respective category is memorised (the ``*Pe`` attributes).
    """

    __slots__ = (
        "Run", "MinCalls", "MaxCalls", "MeanCalls", "StdevCalls", "MinTime",
        "MaxTime", "MeanTime", "StdevTime", "MinCallsPe", "MaxCallsPe",
        "MinTimePe", "MaxTimePe", "uid",
    )

    def __init__(
        self,
        Run: TestRun,
        MinCalls: float,
        MaxCalls: float,
        MeanCalls: float,
        StdevCalls: float,
        MinTime: float,
        MaxTime: float,
        MeanTime: float,
        StdevTime: float,
        MinCallsPe: int = 0,
        MaxCallsPe: int = 0,
        MinTimePe: int = 0,
        MaxTimePe: int = 0,
        uid: Optional[int] = None,
    ) -> None:
        self.Run = Run
        self.MinCalls = MinCalls
        self.MaxCalls = MaxCalls
        self.MeanCalls = MeanCalls
        self.StdevCalls = StdevCalls
        self.MinTime = MinTime
        self.MaxTime = MaxTime
        self.MeanTime = MeanTime
        self.StdevTime = StdevTime
        self.MinCallsPe = MinCallsPe
        self.MaxCallsPe = MaxCallsPe
        self.MinTimePe = MinTimePe
        self.MaxTimePe = MaxTimePe
        self.uid = _next_id() if uid is None else uid
        if MinCalls > MaxCalls + 1e-9:
            raise DataModelError(
                f"CallTiming.MinCalls ({MinCalls}) > MaxCalls ({MaxCalls})"
            )
        if MinTime > MaxTime + 1e-9:
            raise DataModelError(
                f"CallTiming.MinTime ({MinTime}) > MaxTime ({MaxTime})"
            )
        for name, value in (
            ("StdevCalls", StdevCalls),
            ("StdevTime", StdevTime),
            ("MeanCalls", MeanCalls),
            ("MeanTime", MeanTime),
        ):
            if value < 0:
                raise DataModelError(f"CallTiming.{name} must be >= 0")

    def __hash__(self) -> int:
        return hash(self.uid)

    @property
    def imbalance_ratio(self) -> float:
        """Standard deviation of per-process time relative to the mean.

        This is the quantity the ``LoadImbalance`` property compares against
        the imbalance threshold.  Zero when the mean time is zero.
        """
        if self.MeanTime <= 0:
            return 0.0
        return self.StdevTime / self.MeanTime


class Region(Record):
    """A program region with its parent and its measured performance data.

    ASL::

        class Region {
            Region ParentRegion;
            setof TotalTiming TotTimes;
            setof TypedTiming TypTimes;
        }

    The additional ``name`` / ``kind`` / ``source_file`` / ``first_line`` /
    ``last_line`` attributes identify the region in reports and exports.
    """

    #: The last three slots are private: the children the repository
    #: registers and the duplicate-check keys of the two timing lists.
    __slots__ = (
        "name", "kind", "ParentRegion", "TotTimes", "TypTimes", "source_file",
        "first_line", "last_line", "uid", "_children", "_total_keys", "_typed_keys",
    )
    _fields = __slots__[:-3]

    def __init__(
        self,
        name: str,
        kind: RegionKind = RegionKind.BASIC_BLOCK,
        ParentRegion: Optional["Region"] = None,
        TotTimes: Optional[List[TotalTiming]] = None,
        TypTimes: Optional[List[TypedTiming]] = None,
        source_file: str = "",
        first_line: int = 0,
        last_line: int = 0,
        uid: Optional[int] = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.ParentRegion = ParentRegion
        self.TotTimes = [] if TotTimes is None else TotTimes
        self.TypTimes = [] if TypTimes is None else TypTimes
        self.source_file = source_file
        self.first_line = first_line
        self.last_line = last_line
        self.uid = _next_id() if uid is None else uid

    def __hash__(self) -> int:
        return hash(self.uid)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Region) and other.uid == self.uid

    # -- structural helpers -------------------------------------------------

    @property
    def children(self) -> List["Region"]:
        """Direct sub-regions (computed lazily by the repository)."""
        return getattr(self, "_children", [])

    def _register_child(self, child: "Region") -> None:
        if not hasattr(self, "_children"):
            self._children: List[Region] = []
        self._children.append(child)

    def ancestors(self) -> Iterator["Region"]:
        """Yield the parent chain from the immediate parent to the root."""
        current = self.ParentRegion
        seen = set()
        while current is not None:
            if current.uid in seen:
                raise DataModelError(
                    f"cycle in region parent chain at region {current.name!r}"
                )
            seen.add(current.uid)
            yield current
            current = current.ParentRegion

    def depth(self) -> int:
        """Nesting depth of the region (root regions have depth 0)."""
        return sum(1 for _ in self.ancestors())

    # -- timing accessors ----------------------------------------------------

    def add_total_timing(self, timing: TotalTiming) -> None:
        """Attach summary timing for one test run (at most one per run)."""
        keys = _timing_keys(self, "_total_keys", self.TotTimes, _run_key)
        key = _run_key(timing)
        if key in keys:
            raise DataModelError(
                f"region {self.name!r} already has a TotalTiming for run "
                f"{timing.Run.uid}"
            )
        self.TotTimes.append(timing)
        keys.add(key)

    def add_typed_timing(self, timing: TypedTiming) -> None:
        """Attach a typed timing (at most one per run and timing type)."""
        keys = _timing_keys(self, "_typed_keys", self.TypTimes, _run_type_key)
        key = _run_type_key(timing)
        if key in keys:
            raise DataModelError(
                f"region {self.name!r} already has a TypedTiming of type "
                f"{timing.Type.value} for run {timing.Run.uid}"
            )
        self.TypTimes.append(timing)
        keys.add(key)

    def summary(self, run: TestRun) -> TotalTiming:
        """Return the unique :class:`TotalTiming` for ``run``.

        This is the Python counterpart of the ASL helper function
        ``Summary(Region r, TestRun t)`` in Section 4.2.
        """
        matches = [t for t in self.TotTimes if t.Run == run]
        if len(matches) != 1:
            raise DataModelError(
                f"region {self.name!r} has {len(matches)} TotalTiming objects "
                f"for run {run.uid}; expected exactly one"
            )
        return matches[0]

    def duration(self, run: TestRun) -> float:
        """Inclusive execution time of the region in ``run`` (ASL ``Duration``)."""
        return self.summary(run).Incl

    def typed_time(self, run: TestRun, timing_type: TimingType) -> float:
        """Summed time of ``timing_type`` in ``run``; zero when not recorded."""
        return sum(
            t.Time
            for t in self.TypTimes
            if t.Run == run and t.Type is timing_type
        )

    def overhead(self, run: TestRun) -> float:
        """Measured overhead of the region in ``run`` (``Summary(r,t).Ovhd``)."""
        return self.summary(run).Ovhd

    def runs(self) -> List[TestRun]:
        """All test runs for which the region has summary data."""
        return [t.Run for t in self.TotTimes]


class FunctionCall(Record):
    """A call site of a function with per-process call statistics.

    ASL::

        class FunctionCall {
            Function Caller;
            Region CallingReg;
            setof CallTiming Sums;
        }
    """

    #: ``_sum_keys`` is private: the duplicate-check keys of ``Sums``.
    __slots__ = ("Caller", "CallingReg", "Sums", "callee_name", "uid", "_sum_keys")
    _fields = __slots__[:-1]

    def __init__(
        self,
        Caller: "Function",
        CallingReg: Region,
        Sums: Optional[List[CallTiming]] = None,
        callee_name: str = "",
        uid: Optional[int] = None,
    ) -> None:
        self.Caller = Caller
        self.CallingReg = CallingReg
        self.Sums = [] if Sums is None else Sums
        self.callee_name = callee_name
        self.uid = _next_id() if uid is None else uid

    def __hash__(self) -> int:
        return hash(self.uid)

    def add_call_timing(self, timing: CallTiming) -> None:
        """Attach statistics for one test run (at most one per run)."""
        keys = _timing_keys(self, "_sum_keys", self.Sums, _run_key)
        key = _run_key(timing)
        if key in keys:
            raise DataModelError(
                f"call site {self.uid} already has a CallTiming for run "
                f"{timing.Run.uid}"
            )
        self.Sums.append(timing)
        keys.add(key)

    def timing_for(self, run: TestRun) -> CallTiming:
        """Return the unique :class:`CallTiming` for ``run``."""
        matches = [t for t in self.Sums if t.Run == run]
        if len(matches) != 1:
            raise DataModelError(
                f"call site {self.uid} has {len(matches)} CallTiming objects "
                f"for run {run.uid}; expected exactly one"
            )
        return matches[0]


class Function(Record):
    """A subprogram with its call sites and regions.

    ASL::

        class Function {
            String Name;
            setof FunctionCall Calls;
            setof Region Regions;
        }
    """

    __slots__ = ("Name", "Calls", "Regions", "uid")

    def __init__(
        self,
        Name: str,
        Calls: Optional[List[FunctionCall]] = None,
        Regions: Optional[List[Region]] = None,
        uid: Optional[int] = None,
    ) -> None:
        self.Name = Name
        self.Calls = [] if Calls is None else Calls
        self.Regions = [] if Regions is None else Regions
        self.uid = _next_id() if uid is None else uid

    def __hash__(self) -> int:
        return hash(self.uid)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Function) and other.uid == self.uid

    def add_region(self, region: Region) -> Region:
        """Register ``region`` as belonging to this function."""
        self.Regions.append(region)
        if region.ParentRegion is not None:
            region.ParentRegion._register_child(region)
        return region

    def add_call(self, call: FunctionCall) -> FunctionCall:
        """Register a call site located in this function."""
        self.Calls.append(call)
        return call

    def region_by_name(self, name: str) -> Region:
        """Look up a region of this function by name; raises ``KeyError``."""
        for region in self.Regions:
            if region.name == name:
                return region
        raise KeyError(f"function {self.Name!r} has no region named {name!r}")

    @property
    def body_region(self) -> Region:
        """The outermost (function body) region of this function."""
        roots = [r for r in self.Regions if r.ParentRegion is None]
        if not roots:
            raise DataModelError(f"function {self.Name!r} has no root region")
        return roots[0]


class ProgVersion(Record):
    """One compiled version of a program with its runs and static structure.

    ASL::

        class ProgVersion {
            DateTime Compilation;
            setof Function Functions;
            setof TestRun Runs;
            SourceCode Code;
        }
    """

    __slots__ = ("Compilation", "Functions", "Runs", "Code", "label", "uid")

    def __init__(
        self,
        Compilation: _dt.datetime,
        Functions: Optional[List[Function]] = None,
        Runs: Optional[List[TestRun]] = None,
        Code: Optional[SourceCode] = None,
        label: str = "",
        uid: Optional[int] = None,
    ) -> None:
        self.Compilation = Compilation
        self.Functions = [] if Functions is None else Functions
        self.Runs = [] if Runs is None else Runs
        self.Code = SourceCode() if Code is None else Code
        self.label = label
        self.uid = _next_id() if uid is None else uid

    def __hash__(self) -> int:
        return hash(self.uid)

    def add_function(self, function: Function) -> Function:
        """Register a function of this program version."""
        if any(f.Name == function.Name for f in self.Functions):
            raise DataModelError(
                f"program version already has a function named {function.Name!r}"
            )
        self.Functions.append(function)
        return function

    def add_run(self, run: TestRun) -> TestRun:
        """Register a test run executed with this program version."""
        self.Runs.append(run)
        return run

    def function_by_name(self, name: str) -> Function:
        """Look up a function by name; raises ``KeyError`` when unknown."""
        for function in self.Functions:
            if function.Name == name:
                return function
        raise KeyError(f"no function named {name!r} in this program version")

    def run_with_pes(self, nope: int) -> TestRun:
        """Return the (first) test run executed with ``nope`` processors."""
        for run in self.Runs:
            if run.NoPe == nope:
                return run
        raise KeyError(f"no test run with {nope} processors")

    def smallest_run(self) -> TestRun:
        """The test run with the minimal number of processors.

        COSY uses this run as the reference for the total-cost computation
        (paper, Section 3).
        """
        if not self.Runs:
            raise DataModelError("program version has no test runs")
        return min(self.Runs, key=lambda run: (run.NoPe, run.uid))

    def all_regions(self) -> Iterator[Region]:
        """Iterate over every region of every function."""
        for function in self.Functions:
            yield from function.Regions

    def all_calls(self) -> Iterator[FunctionCall]:
        """Iterate over every call site of every function."""
        for function in self.Functions:
            yield from function.Calls

    @property
    def main_region(self) -> Region:
        """The whole-program region used as the default ranking basis."""
        for function in self.Functions:
            for region in function.Regions:
                if region.kind is RegionKind.PROGRAM:
                    return region
        # Fall back to the body region of the first function.
        if self.Functions:
            return self.Functions[0].body_region
        raise DataModelError("program version has no regions")


class Program(Record):
    """A single application identified by its name.

    ASL::

        class Program {
            String Name;
            setof ProgVersion Versions;
        }
    """

    __slots__ = ("Name", "Versions", "uid")

    def __init__(
        self,
        Name: str,
        Versions: Optional[List[ProgVersion]] = None,
        uid: Optional[int] = None,
    ) -> None:
        self.Name = Name
        self.Versions = [] if Versions is None else Versions
        self.uid = _next_id() if uid is None else uid

    def __hash__(self) -> int:
        return hash(self.uid)

    def add_version(self, version: ProgVersion) -> ProgVersion:
        """Register a new program version."""
        self.Versions.append(version)
        return version

    def latest_version(self) -> ProgVersion:
        """The most recently compiled version."""
        if not self.Versions:
            raise DataModelError(f"program {self.Name!r} has no versions")
        return max(self.Versions, key=lambda v: (v.Compilation, v.uid))

    def version_by_label(self, label: str) -> ProgVersion:
        """Look up a version by its label; raises ``KeyError`` when unknown."""
        for version in self.Versions:
            if version.label == label:
                return version
        raise KeyError(f"program {self.Name!r} has no version labelled {label!r}")
