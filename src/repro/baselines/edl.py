"""EDL-like baseline: compound event patterns over traces.

EDL (Bates & Wileden) describes performance/behaviour problems as *compound
events* defined by extended regular expressions over primitive trace events.
This module provides a small combinator library for such patterns —
:func:`prim` (a predicate on one event), :func:`seq`, :func:`alt`,
:func:`star`, :func:`plus` — plus a matcher that scans a per-process event
stream and reports every match, and two predefined compound events used by the
E5 comparison:

* ``barrier_wait``: a barrier entered long before it is left (waiting at a
  barrier — the trace signature of load imbalance);
* ``serial_io``: an I/O phase on one process while the others are idle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.baselines.common import Finding, rank_findings
from repro.traces.events import Event, EventKind, Trace

__all__ = [
    "Pattern",
    "Match",
    "prim",
    "seq",
    "alt",
    "star",
    "plus",
    "match_stream",
    "EdlAnalyzer",
]


@dataclass(frozen=True)
class Match:
    """One match of a pattern in an event stream."""

    start: int
    end: int  # exclusive
    events: Tuple[Event, ...]

    @property
    def duration(self) -> float:
        if not self.events:
            return 0.0
        return self.events[-1].time - self.events[0].time


class Pattern:
    """A compound-event pattern (regular expression over events)."""

    def match_at(self, events: Sequence[Event], index: int) -> List[int]:
        """All end positions of matches starting at ``index``."""
        raise NotImplementedError

    # Combinator sugar ------------------------------------------------------

    def then(self, other: "Pattern") -> "Pattern":
        return seq(self, other)

    def or_else(self, other: "Pattern") -> "Pattern":
        return alt(self, other)


class _Prim(Pattern):
    def __init__(self, predicate: Callable[[Event], bool]) -> None:
        self.predicate = predicate

    def match_at(self, events: Sequence[Event], index: int) -> List[int]:
        if index < len(events) and self.predicate(events[index]):
            return [index + 1]
        return []


class _Seq(Pattern):
    def __init__(self, parts: Sequence[Pattern]) -> None:
        self.parts = list(parts)

    def match_at(self, events: Sequence[Event], index: int) -> List[int]:
        positions = [index]
        for part in self.parts:
            next_positions: List[int] = []
            for position in positions:
                next_positions.extend(part.match_at(events, position))
            positions = sorted(set(next_positions))
            if not positions:
                return []
        return positions


class _Alt(Pattern):
    def __init__(self, options: Sequence[Pattern]) -> None:
        self.options = list(options)

    def match_at(self, events: Sequence[Event], index: int) -> List[int]:
        positions: List[int] = []
        for option in self.options:
            positions.extend(option.match_at(events, index))
        return sorted(set(positions))


class _Star(Pattern):
    def __init__(self, inner: Pattern, at_least_one: bool = False) -> None:
        self.inner = inner
        self.at_least_one = at_least_one

    def match_at(self, events: Sequence[Event], index: int) -> List[int]:
        results = set() if self.at_least_one else {index}
        frontier = {index}
        while frontier:
            next_frontier = set()
            for position in frontier:
                for end in self.inner.match_at(events, position):
                    if end not in results and end > position:
                        results.add(end)
                        next_frontier.add(end)
            frontier = next_frontier
        return sorted(results)


def prim(predicate: Callable[[Event], bool]) -> Pattern:
    """A primitive pattern matching one event satisfying ``predicate``."""
    return _Prim(predicate)


def seq(*parts: Pattern) -> Pattern:
    """Sequential composition of patterns."""
    return _Seq(parts)


def alt(*options: Pattern) -> Pattern:
    """Alternative between patterns."""
    return _Alt(options)


def star(inner: Pattern) -> Pattern:
    """Zero or more repetitions."""
    return _Star(inner)


def plus(inner: Pattern) -> Pattern:
    """One or more repetitions."""
    return _Star(inner, at_least_one=True)


def match_stream(pattern: Pattern, events: Sequence[Event]) -> List[Match]:
    """All non-overlapping, leftmost-longest matches of ``pattern``."""
    matches: List[Match] = []
    index = 0
    while index < len(events):
        ends = pattern.match_at(events, index)
        if ends:
            end = max(ends)
            matches.append(
                Match(start=index, end=end, events=tuple(events[index:end]))
            )
            index = max(end, index + 1)
        else:
            index += 1
    return matches


class EdlAnalyzer:
    """Detects predefined compound events in a trace and reports findings."""

    def __init__(self, long_wait_threshold: float = 0.05) -> None:
        self.long_wait_threshold = long_wait_threshold

    def analyze(self, trace: Trace) -> List[Finding]:
        """Scan every process stream for the predefined compound events."""
        duration = trace.duration()
        if duration <= 0:
            return []
        findings: List[Finding] = []
        findings.extend(self._barrier_waits(trace, duration))
        findings.extend(self._serial_io(trace, duration))
        return rank_findings(findings)

    # -- compound events ------------------------------------------------------

    def _barrier_waits(self, trace: Trace, duration: float) -> List[Finding]:
        pattern = seq(
            prim(lambda e: e.kind is EventKind.BARRIER_ENTER),
            prim(lambda e: e.kind is EventKind.BARRIER_EXIT),
        )
        per_region_wait: Dict[str, float] = {}
        for pe in range(trace.pes):
            events = [
                e
                for e in trace.for_pe(pe)
                if e.kind in (EventKind.BARRIER_ENTER, EventKind.BARRIER_EXIT)
            ]
            for match in match_stream(pattern, events):
                region = match.events[0].region
                per_region_wait[region] = (
                    per_region_wait.get(region, 0.0) + match.duration
                )
        findings = []
        for region, wait in per_region_wait.items():
            severity = wait / (duration * trace.pes)
            if severity > self.long_wait_threshold:
                findings.append(
                    Finding(
                        problem="BarrierWait",
                        location=region,
                        severity=severity,
                        tool="edl",
                        details=f"summed barrier wait {wait:.4f}s",
                    )
                )
        return findings

    def _serial_io(self, trace: Trace, duration: float) -> List[Finding]:
        pattern = seq(
            prim(lambda e: e.kind is EventKind.IO_BEGIN),
            prim(lambda e: e.kind is EventKind.IO_END),
        )
        findings = []
        per_region_io: Dict[str, float] = {}
        io_pes: Dict[str, set] = {}
        for pe in range(trace.pes):
            events = [
                e
                for e in trace.for_pe(pe)
                if e.kind in (EventKind.IO_BEGIN, EventKind.IO_END)
            ]
            for match in match_stream(pattern, events):
                region = match.events[0].region
                per_region_io[region] = per_region_io.get(region, 0.0) + match.duration
                io_pes.setdefault(region, set()).add(pe)
        for region, io_time in per_region_io.items():
            serialised = len(io_pes[region]) < max(2, trace.pes // 2)
            severity = io_time / duration
            if serialised and severity > self.long_wait_threshold / 2:
                findings.append(
                    Finding(
                        problem="SerializedIO",
                        location=region,
                        severity=severity,
                        tool="edl",
                        details=f"I/O on {len(io_pes[region])} of {trace.pes} PEs",
                    )
                )
        return findings
