"""Parallel-execution simulator producing Apprentice-style summary data.

The paper's COSY prototype obtains its performance data from the Cray MPP
Apprentice tool on a Cray T3E.  This module is the substitute for that
measurement environment: given a :class:`~repro.apprentice.program_model.WorkloadSpec`
and a :class:`SimulationConfig` it "executes" the synthetic application for a
series of processor counts and produces a fully populated
:class:`~repro.datamodel.PerformanceDatabase` with

* one :class:`~repro.datamodel.TestRun` per processor count,
* one :class:`~repro.datamodel.TotalTiming` per region and run (summed
  exclusive / inclusive / overhead times over all processes, exactly the
  Apprentice summary semantics described in Section 3 of the paper),
* :class:`~repro.datamodel.TypedTiming` objects for the overhead categories
  a region incurs (inclusive of nested regions, at most one per type and run),
* :class:`~repro.datamodel.CallTiming` statistics (min / max / mean / stdev of
  per-process call counts and times, with the extremal processor ids) for every
  call site, including the calls to the barrier routine that the
  ``LoadImbalance`` property inspects.

Cost model
----------

For a run on ``P`` processors, each region's useful work ``w`` is split into a
serial part (replicated on every process — the classic reason for sublinear
speedup) and a parallel part divided among the processes, perturbed by the
region's load-imbalance factor.  Regions that synchronise at barriers turn the
per-process work spread into barrier waiting time; communication time scales
with the region's communication pattern (constant for nearest-neighbour,
``log2 P`` for reductions/broadcasts, linear in ``P`` for all-to-all); I/O is
either divided among the processes or serialised (every other process waits).
All times are summed over processes before they are stored, because "all
timings in the database are summed up values of all processes" (Section 4.2).
"""

from __future__ import annotations

import datetime as _dt
import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apprentice.program_model import (
    CallSpec,
    CommPattern,
    RegionSpec,
    WorkloadSpec,
)
from repro.apprentice.rng import imbalanced_shares, mean, pairwise_sum, rng_for, std
from repro.datamodel import (
    CallTiming,
    Function,
    FunctionCall,
    PerformanceDatabase,
    ProgVersion,
    Region,
    TestRun,
    TimingType,
    TotalTiming,
    TypedTiming,
)
from repro.records import Record

__all__ = ["SimulationConfig", "ExecutionSimulator", "RegionMeasurement", "simulate"]


class SimulationConfig(Record):
    """Parameters of the simulated machine and measurement environment."""

    __slots__ = (
        "pe_counts", "clock_mhz", "barrier_latency", "measurement_jitter",
        "cache_miss_fraction", "start_time", "seed",
    )

    def __init__(
        self,
        pe_counts: Sequence[int] = (1, 2, 4, 8, 16, 32),
        clock_mhz: int = 300,
        barrier_latency: float = 5.0e-6,
        measurement_jitter: float = 0.01,
        cache_miss_fraction: float = 0.04,
        start_time: Optional[_dt.datetime] = None,
        seed: int = 0,
    ) -> None:
        #: Processor counts to execute; one :class:`TestRun` is produced per entry.
        self.pe_counts = pe_counts
        #: Clock speed of the simulated machine in MHz (Cray T3E-900: 450 MHz).
        self.clock_mhz = clock_mhz
        #: Base latency of one barrier operation (seconds, scaled by ``log2 P``).
        self.barrier_latency = barrier_latency
        #: Relative measurement noise applied to every aggregated timing.
        self.measurement_jitter = measurement_jitter
        #: Fraction of computation time additionally spent on cache misses.
        self.cache_miss_fraction = cache_miss_fraction
        #: Start timestamp of the first run; subsequent runs are one minute apart.
        self.start_time = (
            _dt.datetime(2000, 1, 17, 9, 0, 0) if start_time is None else start_time
        )
        #: Additional seed mixed into every random draw.
        self.seed = seed
        if not pe_counts:
            raise ValueError("pe_counts must not be empty")
        if any(p <= 0 for p in pe_counts):
            raise ValueError(f"pe_counts must be positive, got {pe_counts}")
        if clock_mhz <= 0:
            raise ValueError("clock_mhz must be positive")
        if measurement_jitter < 0:
            raise ValueError("measurement_jitter must be >= 0")


class RegionMeasurement(Record):
    """Per-process measurements of one region in one run (before aggregation).

    Every vector holds one value per process.  The element-wise arithmetic of
    the simulator follows a fixed operand order (``serial + (parallel / P) *
    share``, ``(count * time_per_call) * share``, ...): regrouping it changes
    the last bits of every simulated repository, which
    ``tests/corpus/simulator_digests.json`` pins.
    """

    __slots__ = ("compute", "typed")

    def __init__(
        self,
        compute: List[float],
        typed: Dict[TimingType, List[float]],
    ) -> None:
        #: Useful computation per process (seconds).
        self.compute = compute
        #: Time per process, per timing type (seconds).  The computation types
        #: (FloatingPoint, IntegerOps, LoadStore) are a *breakdown* of ``compute``
        #: and are not added again when forming the exclusive time.
        self.typed = typed

    @property
    def exclusive(self) -> List[float]:
        """Per-process exclusive time: computation plus all overhead types."""
        return [c + o for c, o in zip(self.compute, self.overhead)]

    @property
    def overhead(self) -> List[float]:
        """Per-process overhead time (only overhead-classified types)."""
        total = [0.0] * len(self.compute)
        for timing_type, values in self.typed.items():
            if timing_type.is_overhead:
                total = [t + v for t, v in zip(total, values)]
        return total


class ExecutionSimulator:
    """Simulates test runs of a synthetic workload and populates a repository."""

    def __init__(
        self, workload: WorkloadSpec, config: Optional[SimulationConfig] = None
    ) -> None:
        workload.validate()
        self.workload = workload
        self.config = config or SimulationConfig()
        self._region_objects: Dict[str, Region] = {}
        self._call_objects: Dict[Tuple[str, str], FunctionCall] = {}

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def run(
        self,
        database: Optional[PerformanceDatabase] = None,
        version_label: str = "v1",
    ) -> PerformanceDatabase:
        """Simulate every configured processor count and return the repository."""
        database = database or PerformanceDatabase()
        version = self._build_static_structure(database, version_label)
        for index, pe_count in enumerate(self.config.pe_counts):
            run = TestRun(
                Start=self.config.start_time + _dt.timedelta(minutes=index),
                NoPe=int(pe_count),
                Clockspeed=self.config.clock_mhz,
            )
            version.add_run(run)
            self._simulate_run(run)
        database.validate()
        return database

    # ------------------------------------------------------------------ #
    # static structure
    # ------------------------------------------------------------------ #

    def _build_static_structure(
        self, database: PerformanceDatabase, version_label: str
    ) -> ProgVersion:
        """Create Program / ProgVersion / Function / Region / FunctionCall objects."""
        if self.workload.name in database:
            program = database.program(self.workload.name)
        else:
            program = database.create_program(self.workload.name)
        version = ProgVersion(
            Compilation=self.config.start_time - _dt.timedelta(hours=1),
            label=version_label,
        )
        program.add_version(version)
        version.Code.add_file(
            f"{self.workload.name}.f90",
            _synthetic_source(self.workload),
        )
        self._region_objects.clear()
        self._call_objects.clear()
        for function_spec in self.workload.functions:
            function = Function(Name=function_spec.name)
            version.add_function(function)
            self._materialise_region(function, function_spec.body, parent=None)
            for region_spec in function_spec.regions():
                region = self._region_objects[region_spec.name]
                for call_spec in region_spec.calls:
                    call = FunctionCall(
                        Caller=function,
                        CallingReg=region,
                        callee_name=call_spec.callee,
                    )
                    function.add_call(call)
                    self._call_objects[(region_spec.name, call_spec.callee)] = call
        return version

    def _materialise_region(
        self, function: Function, spec: RegionSpec, parent: Optional[Region]
    ) -> Region:
        region = Region(
            name=spec.name,
            kind=spec.kind,
            ParentRegion=parent,
            source_file=spec.source_file,
            first_line=spec.first_line,
            last_line=spec.last_line,
        )
        function.add_region(region)
        self._region_objects[spec.name] = region
        for child in spec.children:
            self._materialise_region(function, child, parent=region)
        return region

    # ------------------------------------------------------------------ #
    # dynamic behaviour
    # ------------------------------------------------------------------ #

    def _simulate_run(self, run: TestRun) -> None:
        """Attach TotalTiming / TypedTiming / CallTiming objects for one run."""
        measurements: Dict[str, RegionMeasurement] = {}
        for function_spec in self.workload.functions:
            for region_spec in function_spec.regions():
                measurements[region_spec.name] = self._measure_region(
                    region_spec, run
                )
        # Aggregate bottom-up so inclusive values include nested regions.
        for function_spec in self.workload.functions:
            self._aggregate_region(function_spec.body, run, measurements)
        # Call-site statistics.
        for function_spec in self.workload.functions:
            for region_spec in function_spec.regions():
                for call_spec in region_spec.calls:
                    self._measure_call(region_spec, call_spec, run, measurements)

    def _measure_region(self, spec: RegionSpec, run: TestRun) -> RegionMeasurement:
        """Per-process computation and overhead of one region (exclusive)."""
        pes = run.NoPe
        cfg = self.config
        rng = rng_for(cfg.seed, self.workload.name, spec.name, pes, run.Clockspeed)
        clock_factor = self.workload.reference_clock_mhz / run.Clockspeed

        serial_work = spec.work * spec.serial_fraction * clock_factor
        parallel_work = spec.work * (1.0 - spec.serial_fraction) * clock_factor
        shares = imbalanced_shares(rng, pes, spec.imbalance)
        per_pe_work = [(parallel_work / pes) * s for s in shares]
        compute = [serial_work + w for w in per_pe_work]

        typed: Dict[TimingType, List[float]] = {}

        def add(timing_type: TimingType, values: List[float]) -> None:
            if all(v <= 0 for v in values):
                return
            existing = typed.get(timing_type)
            typed[timing_type] = (
                values if existing is None else [e + v for e, v in zip(existing, values)]
            )

        def scaled(values: List[float], factor: float) -> List[float]:
            return [v * factor for v in values]

        # -- useful computation, broken down into the Apprentice work types ----
        if spec.work > 0:
            ls_fraction = max(0.0, 1.0 - spec.fp_fraction - spec.int_fraction)
            add(TimingType.FloatingPoint, scaled(compute, spec.fp_fraction))
            add(TimingType.IntegerOps, scaled(compute, spec.int_fraction))
            add(TimingType.LoadStore, scaled(compute, ls_fraction))

        # -- barrier synchronisation: waiting comes from the work spread ------
        # Load imbalance is modelled as *persistent*: the same processes are
        # slow in every barrier phase (the realistic case, and the one the
        # LoadImbalance property is designed to catch), so the per-process
        # waiting time is (max - own) share of the parallel work regardless of
        # how many barrier phases the work is split into.
        if spec.barriers > 0 and pes > 1:
            slowest = max(per_pe_work)
            latency = cfg.barrier_latency * math.log2(pes) * spec.barriers
            add(TimingType.Barrier, [(slowest - w) + latency for w in per_pe_work])
        elif spec.barriers > 0:
            add(TimingType.Barrier, [cfg.barrier_latency * spec.barriers] * pes)

        # -- communication ------------------------------------------------------
        comm = spec.comm_pattern.per_process_time(spec.comm_time, pes)
        if comm > 0:
            if spec.comm_pattern is CommPattern.NEAREST:
                add(TimingType.SendOverhead, [comm * 0.40] * pes)
                add(TimingType.ReceiveOverhead, [comm * 0.30] * pes)
                add(TimingType.MessageWait, [comm * 0.30] * pes)
            elif spec.comm_pattern is CommPattern.REDUCTION:
                add(TimingType.Reduce, [comm * 0.85] * pes)
                add(TimingType.MessageWait, [comm * 0.15] * pes)
            elif spec.comm_pattern is CommPattern.BROADCAST:
                add(TimingType.Broadcast, [comm * 0.9] * pes)
                add(TimingType.MessageWait, [comm * 0.1] * pes)
            elif spec.comm_pattern is CommPattern.ALLTOALL:
                add(TimingType.AllToAll, [comm * 0.7] * pes)
                add(TimingType.MessagePacking, [comm * 0.2] * pes)
                add(TimingType.MessageWait, [comm * 0.1] * pes)

        # -- input / output ------------------------------------------------------
        if spec.io_time > 0:
            if spec.io_parallel:
                per_pe = spec.io_time / pes
                add(TimingType.IORead, [per_pe * 0.4] * pes)
                add(TimingType.IOWrite, [per_pe * 0.6] * pes)
            else:
                # Serialised I/O: process 0 performs the transfer, the others
                # wait for completion.
                rest = pes - 1
                add(TimingType.IOWrite, [spec.io_time * 0.7] + [0.0] * rest)
                add(TimingType.IORead, [spec.io_time * 0.3] + [0.0] * rest)
                add(TimingType.EventWait, [0.0] + [spec.io_time] * rest)
            add(TimingType.IOOpenClose, [min(1e-4, spec.io_time * 1e-3)] * pes)

        # -- memory system -------------------------------------------------------
        if cfg.cache_miss_fraction > 0 and spec.work > 0:
            add(TimingType.CacheMiss, scaled(compute, cfg.cache_miss_fraction))

        # -- instrumentation overhead ---------------------------------------------
        instr = self.workload.instrumentation_per_region
        if instr > 0:
            add(TimingType.Instrumentation, [instr] * pes)

        # -- measurement jitter ------------------------------------------------
        if cfg.measurement_jitter > 0:
            # The noise is clipped to [0.5, 1.5] and the jittered times are
            # floored at 0.0; a NaN passes through both (numpy's clip and
            # maximum semantics).
            jitter = cfg.measurement_jitter
            noise = [
                0.5 if (x := 1.0 + jitter * z) < 0.5 else 1.5 if x > 1.5 else x
                for z in rng.standard_normal(pes)
            ]
            compute = [c * n for c, n in zip(compute, noise)]
            typed = {
                k: [0.0 if (x := v * n) < 0.0 else x for v, n in zip(values, noise)]
                for k, values in typed.items()
            }

        return RegionMeasurement(compute=compute, typed=typed)

    def _aggregate_region(
        self,
        spec: RegionSpec,
        run: TestRun,
        measurements: Dict[str, RegionMeasurement],
    ) -> Tuple[float, float, Dict[TimingType, float]]:
        """Store timings for ``spec`` and return (excl_sum, incl_sum, typed_sums)."""
        measurement = measurements[spec.name]
        excl_sum = pairwise_sum(measurement.exclusive)
        typed_sums: Dict[TimingType, float] = {
            timing_type: pairwise_sum(values)
            for timing_type, values in measurement.typed.items()
        }
        incl_sum = excl_sum
        for child in spec.children:
            _, child_incl, child_typed = self._aggregate_region(
                child, run, measurements
            )
            incl_sum += child_incl
            for timing_type, value in child_typed.items():
                typed_sums[timing_type] = typed_sums.get(timing_type, 0.0) + value

        # Added left to right: the built-in sum() compensates float rounding
        # from Python 3.12 on, which would make the data depend on the
        # interpreter version.
        overhead_sum = 0.0
        for timing_type, value in typed_sums.items():
            if timing_type.is_overhead:
                overhead_sum += value
        region = self._region_objects[spec.name]
        region.add_total_timing(
            TotalTiming(Run=run, Excl=excl_sum, Incl=incl_sum, Ovhd=overhead_sum)
        )
        for timing_type, value in sorted(typed_sums.items(), key=lambda kv: kv[0].value):
            if value > 0:
                region.add_typed_timing(
                    TypedTiming(Run=run, Type=timing_type, Time=value)
                )
        return excl_sum, incl_sum, typed_sums

    def _measure_call(
        self,
        region_spec: RegionSpec,
        call_spec: CallSpec,
        run: TestRun,
        measurements: Dict[str, RegionMeasurement],
    ) -> None:
        """Produce the per-process call statistics for one call site."""
        pes = run.NoPe
        cfg = self.config
        rng = rng_for(
            cfg.seed, self.workload.name, region_spec.name, call_spec.callee, pes
        )
        counts = [
            call_spec.calls_per_pe * s
            for s in imbalanced_shares(rng, pes, call_spec.count_imbalance)
        ]
        times = [
            (c * call_spec.time_per_call) * s
            for c, s in zip(counts, imbalanced_shares(rng, pes, call_spec.imbalance))
        ]
        if call_spec.callee == "barrier":
            # Calls to the barrier routine absorb the barrier waiting time of
            # their region; this is what makes the LoadImbalance refinement of
            # SyncCost observable in the call statistics (paper, Section 4.2).
            barrier_wait = measurements[region_spec.name].typed.get(TimingType.Barrier)
            if barrier_wait is not None:
                times = [t + w for t, w in zip(times, barrier_wait)]

        min_calls, max_calls = min(counts), max(counts)
        min_time, max_time = min(times), max(times)
        call = self._call_objects[(region_spec.name, call_spec.callee)]
        call.add_call_timing(
            CallTiming(
                Run=run,
                MinCalls=min_calls,
                MaxCalls=max_calls,
                MeanCalls=mean(counts),
                StdevCalls=std(counts),
                MinTime=min_time,
                MaxTime=max_time,
                MeanTime=mean(times),
                StdevTime=std(times),
                MinCallsPe=counts.index(min_calls),
                MaxCallsPe=counts.index(max_calls),
                MinTimePe=times.index(min_time),
                MaxTimePe=times.index(max_time),
            )
        )


def simulate(
    workload: WorkloadSpec,
    pe_counts: Sequence[int] = (1, 2, 4, 8, 16, 32),
    **config_kwargs: object,
) -> PerformanceDatabase:
    """Convenience wrapper: simulate ``workload`` for the given processor counts."""
    config = SimulationConfig(pe_counts=tuple(pe_counts), **config_kwargs)  # type: ignore[arg-type]
    return ExecutionSimulator(workload, config).run()


def _synthetic_source(workload: WorkloadSpec) -> str:
    """Generate a small pseudo-Fortran listing so reports can show source lines."""
    lines: List[str] = [f"! synthetic source of workload {workload.name}"]
    for function in workload.functions:
        lines.append(f"subroutine {function.name}()")
        for region in function.regions():
            lines.append(
                f"  ! region {region.name} kind={region.kind.value} "
                f"work={region.work:.3f}s"
            )
        lines.append(f"end subroutine {function.name}")
    return "\n".join(lines) + "\n"
