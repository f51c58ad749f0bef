"""EARL-like baseline: procedural, scriptable event-trace analysis.

EARL (Wolf & Mohr) describes event patterns "in a more procedural fashion as
scripts in a high-level event trace analysis language".  This baseline models
that style: an :class:`EarlScript` receives every trace event in order through
callback methods and maintains whatever state it needs; the
:class:`EarlInterpreter` drives one or more scripts over a trace.  Three
built-in scripts reproduce the analyses the E5 comparison needs: per-region
inclusive time, barrier waiting time (the load-imbalance signature) and
message statistics.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.baselines.common import Finding, rank_findings
from repro.traces.events import Event, Trace

__all__ = [
    "EarlScript",
    "EarlInterpreter",
    "RegionProfileScript",
    "BarrierWaitScript",
    "MessageStatisticsScript",
    "EarlAnalyzer",
]


class EarlScript:
    """Base class of procedural trace-analysis scripts.

    Subclasses override the ``on_*`` callbacks they are interested in and
    implement :meth:`findings` to report their results.
    """

    name = "script"

    def on_event(self, event: Event) -> None:
        """Called for every event; dispatches to the specific callbacks."""
        handler = getattr(self, f"on_{event.kind.value}", None)
        if handler is not None:
            handler(event)

    def begin(self, trace: Trace) -> None:
        """Called once before the first event."""

    def end(self, trace: Trace) -> None:
        """Called once after the last event."""

    def findings(self, trace: Trace) -> List[Finding]:
        """The findings of this script (after the trace was processed)."""
        return []


class EarlInterpreter:
    """Drives scripts over a trace (one pass, events in time order)."""

    def __init__(self, scripts: List[EarlScript]) -> None:
        self.scripts = scripts

    def run(self, trace: Trace) -> List[Finding]:
        for script in self.scripts:
            script.begin(trace)
        for event in trace:
            for script in self.scripts:
                script.on_event(event)
        findings: List[Finding] = []
        for script in self.scripts:
            script.end(trace)
            findings.extend(script.findings(trace))
        return rank_findings(findings)


class RegionProfileScript(EarlScript):
    """Per-region inclusive time; reports regions dominating the run time."""

    name = "region_profile"

    def __init__(self, threshold: float = 0.3) -> None:
        self.threshold = threshold
        self._open: Dict[Tuple[int, str], List[float]] = {}
        self.inclusive: Dict[str, float] = {}

    def on_enter(self, event: Event) -> None:
        self._open.setdefault((event.pe, event.region), []).append(event.time)

    def on_exit(self, event: Event) -> None:
        starts = self._open.get((event.pe, event.region))
        if starts:
            start = starts.pop()
            self.inclusive[event.region] = self.inclusive.get(event.region, 0.0) + (
                event.time - start
            )

    def findings(self, trace: Trace) -> List[Finding]:
        duration = trace.duration() * trace.pes
        if duration <= 0:
            return []
        return [
            Finding(
                problem="DominantRegion",
                location=region,
                severity=time / duration,
                tool="earl",
                details=f"inclusive time {time:.4f}s",
            )
            for region, time in self.inclusive.items()
            if time / duration > self.threshold
        ]


class BarrierWaitScript(EarlScript):
    """Barrier waiting time per region (the load-imbalance signature)."""

    name = "barrier_wait"

    def __init__(self, threshold: float = 0.05) -> None:
        self.threshold = threshold
        self._arrivals: Dict[Tuple[str, int], List[float]] = {}
        self._instance: Dict[Tuple[int, str], int] = {}

    def on_barrier_enter(self, event: Event) -> None:
        index = self._instance.get((event.pe, event.region), 0)
        self._instance[(event.pe, event.region)] = index + 1
        self._arrivals.setdefault((event.region, index), []).append(event.time)

    def findings(self, trace: Trace) -> List[Finding]:
        duration = trace.duration() * trace.pes
        if duration <= 0:
            return []
        waits: Dict[str, float] = {}
        for (region, _instance), times in self._arrivals.items():
            latest = max(times)
            waits[region] = waits.get(region, 0.0) + sum(latest - t for t in times)
        return [
            Finding(
                problem="BarrierWait",
                location=region,
                severity=wait / duration,
                tool="earl",
                details=f"summed wait {wait:.4f}s",
            )
            for region, wait in waits.items()
            if wait / duration > self.threshold
        ]


class MessageStatisticsScript(EarlScript):
    """Counts messages and bytes; reports regions with many small messages."""

    name = "message_statistics"

    def __init__(self, small_message_bytes: int = 16384, threshold: int = 100) -> None:
        self.small_message_bytes = small_message_bytes
        self.threshold = threshold
        self.per_region_small: Dict[str, int] = {}
        self.per_region_messages: Dict[str, int] = {}

    def on_send(self, event: Event) -> None:
        self.per_region_messages[event.region] = (
            self.per_region_messages.get(event.region, 0) + 1
        )
        if event.size <= self.small_message_bytes:
            self.per_region_small[event.region] = (
                self.per_region_small.get(event.region, 0) + 1
            )

    def findings(self, trace: Trace) -> List[Finding]:
        findings = []
        for region, small in self.per_region_small.items():
            if small >= self.threshold:
                total = self.per_region_messages.get(region, small)
                findings.append(
                    Finding(
                        problem="TooManySmallMessages",
                        location=region,
                        severity=small / max(total, 1) * 0.1,
                        tool="earl",
                        details=f"{small} of {total} messages are small",
                    )
                )
        return findings


class EarlAnalyzer:
    """Convenience wrapper running the three built-in scripts."""

    def __init__(self) -> None:
        self.interpreter = EarlInterpreter(
            [RegionProfileScript(), BarrierWaitScript(), MessageStatisticsScript()]
        )

    def analyze(self, trace: Trace) -> List[Finding]:
        return self.interpreter.run(trace)
