"""Event-trace generation for the baseline analyzers.

The trace generator "executes" a :class:`~repro.apprentice.WorkloadSpec` for a
given processor count and records enter/exit, barrier, message and I/O events.
It uses the same deterministic work model as the summary-data simulator
(:mod:`repro.apprentice.simulator`) — serial fraction, per-process imbalance,
barrier phases, communication patterns — so the bottlenecks visible in the
traces are the same bottlenecks the COSY properties detect from the summary
data.  The traces are intentionally much lighter weight than a real trace (one
event pair per region instance rather than per iteration); what matters for
the E5 comparison is that the EDL/EARL-style analyses can locate the injected
bottleneck, not byte-level realism.
"""

from __future__ import annotations

import math
from typing import List

from repro.apprentice.program_model import CommPattern, RegionSpec, WorkloadSpec
from repro.apprentice.rng import imbalanced_shares, rng_for
from repro.traces.events import Event, EventKind, Trace

__all__ = ["TraceGenerator", "generate_trace"]


class TraceGenerator:
    """Generates an event trace of one run of a synthetic workload."""

    def __init__(self, workload: WorkloadSpec, seed: int = 0) -> None:
        workload.validate()
        self.workload = workload
        self.seed = seed

    def generate(self, pes: int) -> Trace:
        """Generate the trace of a run on ``pes`` processors."""
        if pes <= 0:
            raise ValueError("pes must be positive")
        trace = Trace(pes=pes)
        clocks = [0.0] * pes
        for function in self.workload.functions:
            self._emit_region(function.body, pes, clocks, trace)
        return trace.finalize()

    # ------------------------------------------------------------------ #

    def _emit_region(
        self, spec: RegionSpec, pes: int, clocks: List[float], trace: Trace
    ) -> None:
        # ``clocks`` holds each process's current time and is advanced in
        # place; its operand order is pinned by the trace digests in
        # ``tests/corpus/simulator_digests.json``.
        rng = rng_for(self.seed, "trace", self.workload.name, spec.name, pes)
        for pe in range(pes):
            trace.add(
                Event(time=clocks[pe], pe=pe, kind=EventKind.ENTER,
                      region=spec.name)
            )

        serial = spec.work * spec.serial_fraction
        parallel = spec.work * (1.0 - spec.serial_fraction)
        shares = imbalanced_shares(rng, pes, spec.imbalance)
        clocks[:] = [c + (serial + (parallel / pes) * s) for c, s in zip(clocks, shares)]

        # Communication events.
        comm_time = spec.comm_pattern.per_process_time(spec.comm_time, pes)
        if comm_time > 0:
            messages = 2 if spec.comm_pattern is CommPattern.NEAREST else max(1, pes // 2)
            size = 8192 if spec.comm_pattern is CommPattern.ALLTOALL else 65536
            for pe in range(pes):
                partner = (pe - 1) % pes
                for message in range(messages):
                    send_time = clocks[pe] + comm_time * (message + 0.25) / messages
                    trace.add(
                        Event(time=send_time, pe=pe, kind=EventKind.SEND,
                              region=spec.name, partner=partner, size=size)
                    )
                    trace.add(
                        Event(time=send_time + comm_time / (2 * messages),
                              pe=partner, kind=EventKind.RECV,
                              region=spec.name, partner=pe, size=size)
                    )
            clocks[:] = [c + comm_time for c in clocks]

        # I/O events.
        if spec.io_time > 0:
            for pe in range(pes):
                io_share = spec.io_time / pes if spec.io_parallel else (
                    spec.io_time if pe == 0 else 0.0
                )
                if io_share > 0:
                    trace.add(
                        Event(time=clocks[pe], pe=pe, kind=EventKind.IO_BEGIN,
                              region=spec.name, size=int(io_share * 1e7))
                    )
                    trace.add(
                        Event(time=clocks[pe] + io_share, pe=pe,
                              kind=EventKind.IO_END, region=spec.name,
                              size=int(io_share * 1e7))
                    )
            if spec.io_parallel:
                clocks[:] = [c + spec.io_time / pes for c in clocks]
            else:
                clocks[:] = [max(clocks) + spec.io_time] * pes

        # Barrier: everyone waits for the slowest process.
        if spec.barriers > 0 and pes > 1:
            for pe in range(pes):
                trace.add(
                    Event(time=clocks[pe], pe=pe,
                          kind=EventKind.BARRIER_ENTER, region=spec.name)
                )
            release = max(clocks) + 5e-6 * math.log2(pes) * spec.barriers
            for pe in range(pes):
                trace.add(
                    Event(time=release, pe=pe, kind=EventKind.BARRIER_EXIT,
                          region=spec.name)
                )
            clocks[:] = [release] * pes

        for child in spec.children:
            self._emit_region(child, pes, clocks, trace)

        for pe in range(pes):
            trace.add(
                Event(time=clocks[pe], pe=pe, kind=EventKind.EXIT,
                      region=spec.name)
            )


def generate_trace(workload: WorkloadSpec, pes: int, seed: int = 0) -> Trace:
    """Convenience wrapper around :class:`TraceGenerator`."""
    return TraceGenerator(workload, seed=seed).generate(pes)
