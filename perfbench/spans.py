"""Per-layer spans of the COSY pipeline, timed from outside the program.

The program has no tracing of its own, so this module wraps the call at each
layer boundary -- a method of a class or a module-level function -- in a
timing wrapper.  Every wrapped call during an operation records a span (span
id, parent span id, layer, start, end) in memory; the spans of one operation
are kept together.  When an operation ends, each span's self time
(its duration minus the time its child spans cover) is added to its layer, so
the layers' self times add up to the time the root spans cover.

A re-entrant call of the same layer (``query`` calling ``execute`` on the same
object) is merged into the outer span: it records no span and no call.

Some boundaries also feed counters (rows scanned, plan-cache hits, virtual
database time) read from the program's own return values and attributes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

_now = time.perf_counter_ns


class Tracer:
    """Collects the spans of one operation at a time and sums them by layer."""

    def __init__(self) -> None:
        self.ops = 0
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        #: Time covered by root spans, summed over all operations.
        self.covered_ns = 0
        #: Spans of the most recent operation, as plain lists for JSON:
        #: ``[span id, parent id (0 = root), layer, start ns, end ns]``.
        self.last_op_spans: List[list] = []
        self._spans: List[list] = []
        self._stack: List[list] = []
        self._next_id = 1
        #: Spans and counters are recorded only between begin_op and end_op,
        #: so the benchmark's own checks of an output stay out of the trace.
        self.active = False

    def begin_op(self) -> None:
        self._spans = []
        self._stack = []
        self.active = True

    def end_op(self) -> None:
        if self._stack:
            raise RuntimeError(f"spans still open at end of operation: {self._stack}")
        child_ns: Dict[int, int] = defaultdict(int)
        for sid, parent, layer, start, end in self._spans:
            if parent:
                child_ns[parent] += end - start
            else:
                self.covered_ns += end - start
        for sid, parent, layer, start, end in self._spans:
            self.self_ns[layer] += end - start - child_ns[sid]
        self.last_op_spans = self._spans
        self.ops += 1
        self.active = False

    def open(self, layer: str) -> Optional[list]:
        parent = self._stack[-1] if self._stack else None
        if not self.active or (parent is not None and parent[2] == layer):
            return None
        self.calls[layer] += 1
        span = [self._next_id, parent[0] if parent else 0, layer, _now(), 0]
        self._next_id += 1
        self._stack.append(span)
        return span

    def close(self, span: Optional[list]) -> None:
        if span is None:
            return
        span[4] = _now()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span} closed out of order (open: {popped})")
        self._spans.append(span)

    def add_root(self, layer: str, duration_ns: int) -> None:
        """Add a root span's duration to the totals outside any operation."""
        self.calls[layer] += 1
        self.self_ns[layer] += duration_ns
        self.covered_ns += duration_ns

    @contextlib.contextmanager
    def span(self, layer: str) -> Iterator[None]:
        opened = self.open(layer)
        try:
            yield
        finally:
            self.close(opened)

    def summary(self) -> dict:
        """Totals as plain data (used to ship a child process's trace)."""
        return {
            "ops": self.ops,
            "self_ns": dict(self.self_ns),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "covered_ns": self.covered_ns,
            "last_op_spans": self.last_op_spans,
        }

    def merge(self, summary: dict) -> None:
        """Add another tracer's :meth:`summary` into this one."""
        self.ops += summary["ops"]
        self.covered_ns += summary["covered_ns"]
        for key, value in summary["self_ns"].items():
            self.self_ns[key] += value
        for key, value in summary["calls"].items():
            self.calls[key] += value
        for key, value in summary["counts"].items():
            self.counts[key] += value
        self.last_op_spans = summary["last_op_spans"]


# --------------------------------------------------------------------------- #
# counters read at boundaries: (tracer, call args, result, value captured
# before the call) -> None
# --------------------------------------------------------------------------- #


def _select_stats(tracer, args, result, _before) -> None:
    stats = result.stats
    tracer.counts["rows_scanned"] += stats.rows_scanned
    tracer.counts["index_lookups"] += stats.index_lookups
    tracer.counts["rows_returned"] += stats.rows_returned


def _plan_hits_before(args):
    return args[0]._plan_hits


def _plan_hit(tracer, args, result, hits_before) -> None:
    if args[0]._plan_hits > hits_before:
        tracer.counts["plan_cache_hits"] += 1


def _rows_inserted(tracer, args, result, _before) -> None:
    tracer.counts["rows_inserted"] += result


def _virtual_before(args):
    return args[0].elapsed


def _virtual_time(tracer, args, result, elapsed_before) -> None:
    # A backend call nested in another (executemany of a SELECT runs query)
    # is already inside the outer call's clock delta.
    if any(span[2] == "backend" for span in tracer._stack):
        return
    tracer.counts["virtual_ns"] += (args[0].elapsed - elapsed_before) * 1e9


# (module, "Class.method" or "function", layer or None, before, after)
BOUNDARIES: Tuple[tuple, ...] = (
    ("repro.apprentice.simulator", "ExecutionSimulator.run", "simulate", None, None),
    ("repro.apprentice.export", "ApprenticeParser.loads", "ingest_parse", None, None),
    ("repro.asl.specs", "cosy_specification", "asl_spec", None, None),
    ("repro.compiler.schema_gen", "generate_schema", "schema_gen", None, None),
    ("repro.compiler.loader", "DatabaseLoader.create_schema", "loader", None, None),
    ("repro.compiler.loader", "DatabaseLoader.load", "loader", None, None),
    ("repro.compiler.sql_gen", "PropertyCompiler.compile_property", "sql_gen", None, None),
    ("repro.cosy.analyzer", "CosyAnalyzer.analyze", "analyzer", None, None),
    ("repro.cosy.strategies", "ClientSideStrategy.evaluate", "strategy", None, None),
    ("repro.cosy.strategies", "PushdownStrategy.evaluate", "strategy", None, None),
    ("repro.asl.evaluator", "AslEvaluator.evaluate_property", "asl_eval", None, None),
    ("repro.cosy.report", "render_report", "report", None, None),
    ("repro.relalg.client", "DatabaseClient.execute", "client", None, None),
    ("repro.relalg.client", "DatabaseClient.executemany", "client", None, None),
    ("repro.relalg.backends", "SimulatedBackend.query", "backend", None, None),
    ("repro.relalg.backends", "SimulatedBackend.execute", "backend",
     _virtual_before, _virtual_time),
    ("repro.relalg.backends", "SimulatedBackend.executemany", "backend",
     _virtual_before, _virtual_time),
    ("repro.relalg.database", "Database.query", "engine", None, None),
    ("repro.relalg.database", "Database.execute", "engine", None, None),
    ("repro.relalg.database", "Database.executemany", "engine", None, None),
    ("repro.relalg.database", "Database._plan_for", None,
     _plan_hits_before, _plan_hit),
    ("repro.relalg.database", "Database._execute_select", None, None, _select_stats),
    ("repro.relalg.database", "Database._execute_insert_batch", "insert",
     None, _rows_inserted),
    ("repro.relalg.sqlparser", "parse_sql", "sql_parse", None, None),
    ("repro.relalg.planner", "plan_select", "plan", None, None),
    ("repro.relalg.semantics", "analyze_select", "semantic", None, None),
    ("repro.relalg.planner", "QueryPlan.execute", "execute", None, None),
    ("repro.relalg.storage", "Table.insert_many", "storage", None, None),
)

#: Layers in pipeline order; the report lists one self-time metric for each.
LAYERS: Tuple[str, ...] = tuple(
    dict.fromkeys(["startup", "import", "cli", "exit"] + [b[2] for b in BOUNDARIES if b[2]])
)


def _wrap(tracer: Tracer, original: Callable, layer: Optional[str],
          before: Optional[Callable], after: Optional[Callable]) -> Callable:
    if inspect.isgeneratorfunction(original) or inspect.iscoroutinefunction(original):
        raise TypeError(f"cannot time {original!r}: it returns before its work is done")

    @functools.wraps(original)
    def timed(*args, **kwargs):
        captured = before(args) if before is not None else None
        span = tracer.open(layer) if layer is not None else None
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.close(span)
        if after is not None and tracer.active:
            after(tracer, args, result, captured)
        return result

    return timed


def install(tracer: Tracer) -> None:
    """Wrap every boundary in :data:`BOUNDARIES` so it reports to ``tracer``.

    A module-level function is replaced in its own module and in every loaded
    ``repro`` module that imported it by name.
    """
    for module_name, target, layer, before, after in BOUNDARIES:
        module = importlib.import_module(module_name)
        if "." in target:
            class_name, attr = target.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, _wrap(tracer, original, layer, before, after))
            continue
        original = getattr(module, target)
        timed = _wrap(tracer, original, layer, before, after)
        for name, loaded in list(sys.modules.items()):
            if name.split(".")[0] != "repro" or loaded is None:
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, attr, timed)
