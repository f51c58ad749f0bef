"""Event traces of simulated parallel program runs.

The related-work section of the paper contrasts the ASL/COSY approach with
tools that define performance bottlenecks as *event patterns in program
traces* (EDL) or analyse traces procedurally (EARL).  To compare against those
approaches, this module defines a minimal event-trace model: a
:class:`Trace` is an ordered list of per-process :class:`Event` records
(region enter/exit, barrier enter/exit, message send/receive, I/O begin/end).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = ["EventKind", "Event", "Trace"]


class EventKind(enum.Enum):
    """Kinds of trace events."""

    ENTER = "enter"
    EXIT = "exit"
    BARRIER_ENTER = "barrier_enter"
    BARRIER_EXIT = "barrier_exit"
    SEND = "send"
    RECV = "recv"
    IO_BEGIN = "io_begin"
    IO_END = "io_end"


@dataclass(frozen=True)
class Event:
    """One trace record of one process."""

    time: float
    pe: int
    kind: EventKind
    #: Region (or routine) the event belongs to.
    region: str = ""
    #: Communication partner (SEND/RECV) or -1.
    partner: int = -1
    #: Message size in bytes (SEND/RECV) or transferred bytes (I/O).
    size: int = 0

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"event time must be >= 0, got {self.time}")
        if self.pe < 0:
            raise ValueError(f"event pe must be >= 0, got {self.pe}")


class Trace:
    """An event trace of one simulated test run."""

    def __init__(self, pes: int, events: Optional[Iterable[Event]] = None) -> None:
        if pes <= 0:
            raise ValueError("a trace needs at least one process")
        self.pes = pes
        self.events: List[Event] = sorted(
            events or [], key=lambda e: (e.time, e.pe)
        )

    # -- construction -----------------------------------------------------------

    def add(self, event: Event) -> None:
        """Append one event (keeps the trace sorted lazily)."""
        self.events.append(event)
        self._dirty = True

    def finalize(self) -> "Trace":
        """Sort the events by time; returns self for chaining."""
        self.events.sort(key=lambda e: (e.time, e.pe))
        return self

    # -- access -------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def for_pe(self, pe: int) -> List[Event]:
        """Events of one process, in time order."""
        return [e for e in self.events if e.pe == pe]

    def of_kind(self, *kinds: EventKind) -> List[Event]:
        """Events of the given kinds, in time order."""
        wanted = set(kinds)
        return [e for e in self.events if e.kind in wanted]

    def filter(self, predicate: Callable[[Event], bool]) -> List[Event]:
        """Events satisfying an arbitrary predicate."""
        return [e for e in self.events if predicate(e)]

    def duration(self) -> float:
        """Time of the last event (the run's makespan)."""
        return self.events[-1].time if self.events else 0.0

    def regions(self) -> List[str]:
        """Names of all regions that appear in the trace."""
        seen: Dict[str, None] = {}
        for event in self.events:
            if event.region and event.region not in seen:
                seen[event.region] = None
        return list(seen)

    # -- derived metrics -------------------------------------------------------------

    def region_times(self) -> Dict[str, float]:
        """Summed (over processes) exclusive-of-nothing time per region.

        Computed from matching ENTER/EXIT pairs per process; nested regions are
        counted in full for every enclosing region (inclusive semantics, like
        the Apprentice summary data).
        """
        totals: Dict[str, float] = {}
        open_stack: Dict[Tuple[int, str], List[float]] = {}
        for event in self.events:
            key = (event.pe, event.region)
            if event.kind is EventKind.ENTER:
                open_stack.setdefault(key, []).append(event.time)
            elif event.kind is EventKind.EXIT:
                starts = open_stack.get(key)
                if starts:
                    start = starts.pop()
                    totals[event.region] = totals.get(event.region, 0.0) + (
                        event.time - start
                    )
        return totals

    def barrier_wait_times(self) -> Dict[str, float]:
        """Summed barrier waiting time per region.

        The waiting time of one barrier instance is, per process, the gap
        between its own BARRIER_ENTER and the latest BARRIER_ENTER of that
        instance (the last process arrives and releases everyone).
        """
        # Group barrier enters per (region, instance); instances are counted
        # per region in arrival order per process.
        per_region_counts: Dict[Tuple[int, str], int] = {}
        arrivals: Dict[Tuple[str, int], List[Tuple[int, float]]] = {}
        for event in self.of_kind(EventKind.BARRIER_ENTER):
            index = per_region_counts.get((event.pe, event.region), 0)
            per_region_counts[(event.pe, event.region)] = index + 1
            arrivals.setdefault((event.region, index), []).append(
                (event.pe, event.time)
            )
        waits: Dict[str, float] = {}
        for (region, _instance), entries in arrivals.items():
            latest = max(time for _, time in entries)
            waits[region] = waits.get(region, 0.0) + sum(
                latest - time for _, time in entries
            )
        return waits

    def message_statistics(self) -> Dict[str, float]:
        """Simple message-passing statistics (counts, bytes, mean size)."""
        sends = self.of_kind(EventKind.SEND)
        total_bytes = float(sum(e.size for e in sends))
        return {
            "messages": float(len(sends)),
            "bytes": total_bytes,
            "mean_size": total_bytes / len(sends) if sends else 0.0,
        }
