"""Synthetic program structure for the simulated measurement environment.

The Cray MPP Apprentice tool measures real programs; this reproduction needs a
*program model* it can "execute" instead.  A :class:`WorkloadSpec` describes a
parallel application as a tree of :class:`RegionSpec` objects (subprograms,
loops, if-blocks, basic blocks — the region kinds COSY identifies) annotated
with their computational work, serial fraction, load imbalance, communication
pattern, synchronisation and I/O behaviour.  :class:`CallSpec` objects describe
call sites (including calls to the barrier routine, which the ``LoadImbalance``
property inspects).

The :mod:`repro.apprentice.simulator` turns such a specification plus a
processor count into Apprentice-style summary data.
"""

from __future__ import annotations

import enum
import math
from typing import Iterator, List, Optional, Tuple

from repro.datamodel.entities import RegionKind
from repro.records import Record

__all__ = [
    "CommPattern",
    "CallSpec",
    "RegionSpec",
    "FunctionSpec",
    "WorkloadSpec",
    "WorkloadError",
]


class WorkloadError(ValueError):
    """Raised when a workload specification is inconsistent."""


class CommPattern(enum.Enum):
    """Communication patterns a region may perform.

    The pattern determines how per-process communication time scales with the
    number of processors ``P``:

    ``NONE``
        no communication;
    ``NEAREST``
        nearest-neighbour exchange — constant per-process cost;
    ``REDUCTION``
        tree-based collective — cost grows with ``log2(P)``;
    ``ALLTOALL``
        personalised all-to-all — cost grows linearly with ``P``;
    ``BROADCAST``
        one-to-all — cost grows with ``log2(P)``.
    """

    NONE = "none"
    NEAREST = "nearest"
    REDUCTION = "reduction"
    ALLTOALL = "alltoall"
    BROADCAST = "broadcast"

    def per_process_time(self, comm_time: float, pes: int) -> float:
        """Per-process communication time on ``pes`` processors of a region
        with this pattern and ``comm_time``, scaled as listed above; none on
        one processor."""
        if self is CommPattern.NONE or comm_time <= 0 or pes <= 1:
            return 0.0
        if self is CommPattern.NEAREST:
            return comm_time
        if self in (CommPattern.REDUCTION, CommPattern.BROADCAST):
            return comm_time * math.log2(pes)
        if self is CommPattern.ALLTOALL:
            return comm_time * (pes - 1)
        raise AssertionError(f"unhandled communication pattern {self}")


class CallSpec(Record):
    """A call site inside a region.

    Attributes
    ----------
    callee:
        Name of the called routine.  The special names ``"barrier"``,
        ``"global_sum"`` and ``"mpi_send"`` are recognised by the simulator and
        mapped to the matching overhead timing types.
    calls_per_pe:
        Mean number of calls each process executes.
    time_per_call:
        Mean time (seconds) spent per call on the reference configuration.
    imbalance:
        Coefficient of variation of the per-process time, producing the
        min/max/mean/stdev statistics of the :class:`CallTiming` objects.
    count_imbalance:
        Coefficient of variation of the per-process *call count*.
    """

    __slots__ = (
        "callee", "calls_per_pe", "time_per_call", "imbalance", "count_imbalance",
    )

    def __init__(
        self,
        callee: str,
        calls_per_pe: float = 1.0,
        time_per_call: float = 1e-4,
        imbalance: float = 0.0,
        count_imbalance: float = 0.0,
    ) -> None:
        self.callee = callee
        self.calls_per_pe = calls_per_pe
        self.time_per_call = time_per_call
        self.imbalance = imbalance
        self.count_imbalance = count_imbalance
        if self.calls_per_pe < 0:
            raise WorkloadError("CallSpec.calls_per_pe must be >= 0")
        if self.time_per_call < 0:
            raise WorkloadError("CallSpec.time_per_call must be >= 0")
        if self.imbalance < 0 or self.count_imbalance < 0:
            raise WorkloadError("CallSpec imbalance values must be >= 0")


class RegionSpec(Record):
    """One program region and its performance-relevant behaviour.

    Work is expressed in seconds of useful computation on a single processor
    of the reference clock speed; the simulator divides the parallelisable part
    among the processes of a run.
    """

    __slots__ = (
        "name", "kind", "work", "serial_fraction", "imbalance", "barriers",
        "comm_pattern", "comm_time", "io_time", "io_parallel", "fp_fraction",
        "int_fraction", "children", "calls", "source_file", "first_line",
        "last_line",
    )

    def __init__(
        self,
        name: str,
        kind: RegionKind = RegionKind.BASIC_BLOCK,
        work: float = 0.0,
        serial_fraction: float = 0.0,
        imbalance: float = 0.0,
        barriers: int = 0,
        comm_pattern: CommPattern = CommPattern.NONE,
        comm_time: float = 0.0,
        io_time: float = 0.0,
        io_parallel: bool = True,
        fp_fraction: float = 0.55,
        int_fraction: float = 0.20,
        children: Optional[List["RegionSpec"]] = None,
        calls: Optional[List[CallSpec]] = None,
        source_file: str = "",
        first_line: int = 0,
        last_line: int = 0,
    ) -> None:
        self.name = name
        self.kind = kind
        self.work = work
        self.serial_fraction = serial_fraction
        self.imbalance = imbalance
        self.barriers = barriers
        self.comm_pattern = comm_pattern
        self.comm_time = comm_time
        self.io_time = io_time
        self.io_parallel = io_parallel
        self.fp_fraction = fp_fraction
        self.int_fraction = int_fraction
        self.children = [] if children is None else children
        self.calls = [] if calls is None else calls
        self.source_file = source_file
        self.first_line = first_line
        self.last_line = last_line
        if self.work < 0:
            raise WorkloadError(f"region {self.name!r}: work must be >= 0")
        if not 0.0 <= self.serial_fraction <= 1.0:
            raise WorkloadError(
                f"region {self.name!r}: serial_fraction must be in [0, 1]"
            )
        if self.imbalance < 0:
            raise WorkloadError(f"region {self.name!r}: imbalance must be >= 0")
        if self.barriers < 0:
            raise WorkloadError(f"region {self.name!r}: barriers must be >= 0")
        if self.comm_time < 0 or self.io_time < 0:
            raise WorkloadError(
                f"region {self.name!r}: comm_time and io_time must be >= 0"
            )
        if self.fp_fraction < 0 or self.int_fraction < 0:
            raise WorkloadError(
                f"region {self.name!r}: computation fractions must be >= 0"
            )
        if self.fp_fraction + self.int_fraction > 1.0 + 1e-9:
            raise WorkloadError(
                f"region {self.name!r}: fp_fraction + int_fraction must be <= 1"
            )

    # -- tree helpers --------------------------------------------------------

    def add_child(self, child: "RegionSpec") -> "RegionSpec":
        """Append a nested region and return it (for fluent construction)."""
        self.children.append(child)
        return child

    def walk(self) -> Iterator["RegionSpec"]:
        """Yield this region and all nested regions, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def total_work(self) -> float:
        """Useful computational work of this region including children."""
        return self.work + sum(c.total_work() for c in self.children)

    def total_barriers(self) -> int:
        """Barrier synchronisations performed by this region and its children."""
        return self.barriers + sum(c.total_barriers() for c in self.children)

    def find(self, name: str) -> "RegionSpec":
        """Locate a (possibly nested) region spec by name; raises ``KeyError``."""
        for region in self.walk():
            if region.name == name:
                return region
        raise KeyError(f"no region named {name!r} below {self.name!r}")


class FunctionSpec(Record):
    """A subprogram of the synthetic application."""

    __slots__ = ("name", "body")

    def __init__(self, name: str, body: RegionSpec) -> None:
        self.name = name
        self.body = body
        if self.body.kind not in (RegionKind.SUBPROGRAM, RegionKind.PROGRAM):
            # The body region represents the whole function.
            self.body.kind = RegionKind.SUBPROGRAM

    def regions(self) -> Iterator[RegionSpec]:
        """All region specs of the function (body first, depth-first)."""
        return self.body.walk()


class WorkloadSpec(Record):
    """A complete synthetic application.

    Attributes
    ----------
    name:
        Application name, used as the :class:`~repro.datamodel.Program` name.
    functions:
        The subprograms; the one named ``main`` (or the first one) is treated
        as the program entry point and its body becomes the whole-program
        region used as COSY's default ranking basis.
    reference_clock_mhz:
        Clock speed the ``work`` figures refer to.  Runs with a different
        clock speed scale their computation time accordingly.
    instrumentation_per_region:
        Instrumentation overhead (seconds, per process and per instrumented
        region) added by the measurement tool; COSY stores this as
        ``Instrumentation`` typed time.
    """

    __slots__ = (
        "name", "functions", "entry", "reference_clock_mhz",
        "instrumentation_per_region",
    )

    def __init__(
        self,
        name: str,
        functions: Optional[List[FunctionSpec]] = None,
        entry: str = "main",
        reference_clock_mhz: int = 300,
        instrumentation_per_region: float = 5e-5,
    ) -> None:
        self.name = name
        self.functions = [] if functions is None else functions
        self.entry = entry
        self.reference_clock_mhz = reference_clock_mhz
        self.instrumentation_per_region = instrumentation_per_region
        if not self.name:
            raise WorkloadError("workload name must not be empty")
        if self.reference_clock_mhz <= 0:
            raise WorkloadError("reference_clock_mhz must be positive")
        names = [f.name for f in self.functions]
        if len(names) != len(set(names)):
            raise WorkloadError(f"duplicate function names in workload: {names}")

    # -- construction ---------------------------------------------------------

    def add_function(self, function: FunctionSpec) -> FunctionSpec:
        """Register another subprogram."""
        if any(f.name == function.name for f in self.functions):
            raise WorkloadError(f"duplicate function name {function.name!r}")
        self.functions.append(function)
        return function

    # -- lookup ----------------------------------------------------------------

    @property
    def entry_function(self) -> FunctionSpec:
        """The program entry point."""
        if not self.functions:
            raise WorkloadError(f"workload {self.name!r} has no functions")
        for function in self.functions:
            if function.name == self.entry:
                return function
        return self.functions[0]

    def function(self, name: str) -> FunctionSpec:
        """Look up a subprogram by name; raises ``KeyError`` when unknown."""
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(f"workload {self.name!r} has no function named {name!r}")

    def all_regions(self) -> Iterator[Tuple[FunctionSpec, RegionSpec]]:
        """Yield ``(function, region)`` pairs for every region spec."""
        for function in self.functions:
            for region in function.regions():
                yield function, region

    def region_names(self) -> List[str]:
        """Names of every region in the workload (must be unique)."""
        names = [r.name for _, r in self.all_regions()]
        return names

    def validate(self) -> None:
        """Check cross-function invariants (unique region names, callees exist)."""
        names = self.region_names()
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise WorkloadError(
                f"region names must be unique across the workload; duplicated: "
                f"{sorted(duplicates)}"
            )
        known_functions = {f.name for f in self.functions}
        builtin_callees = {"barrier", "global_sum", "mpi_send", "mpi_recv", "io"}
        for function, region in self.all_regions():
            for call in region.calls:
                if (
                    call.callee not in known_functions
                    and call.callee not in builtin_callees
                ):
                    raise WorkloadError(
                        f"region {region.name!r} in function {function.name!r} "
                        f"calls unknown routine {call.callee!r}"
                    )

    def total_work(self) -> float:
        """Total useful work of one run of the application (seconds on 1 PE)."""
        return sum(f.body.total_work() for f in self.functions)
