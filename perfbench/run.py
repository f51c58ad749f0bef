"""End-to-end benchmark of the COSY pipeline.

Run from the root of the repository::

    python3 perfbench/run.py --workload warm_pushdown --seed 1 --seconds 10 --trace 0

It makes the workload's inputs from ``--seed``, sets the workload up several
times (the median is ``setup_s``), then runs its operation in a closed loop
for ``--seconds`` and checks every output.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics:

* ``latency_ms``: median time of one operation;
* ``setup_s``: median time of one set-up.

On a shared 2-vCPU VM the machine's speed drifts by a quarter and more
within minutes as other tenants load the host, so raw wall times of runs made minutes apart differ
by that much.  Every timed stretch is therefore bracketed by a fixed
pure-Python calibration loop (:func:`calibrate`), and its wall time is scaled
to a reference machine on which the loop takes ``REFERENCE_CALIBRATION_NS``:
``scaled = wall * reference / mean(calibration before, calibration after)``.
The process and its children are pinned to one CPU, so the loop and the
work it brackets share a processor.

``--trace 1`` wraps every layer boundary (see ``spans.py``) and reports, per
operation, each layer's self time (``<layer>_ms``), the work counters, the
share of the operation's time the spans cover and the traced latency
(times scaled by the run's mean calibration factor).  The spans of the last
operation (raw nanoseconds) are written to
``perfbench/out/trace-<workload>-<seed>.json``.

Workloads are described in ``workloads.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
CALIBRATION_PASSES = 3
#: Time of :func:`calibrate` on the reference machine: an uncontended
#: 2-vCPU Intel Xeon VM running CPython 3.11.
REFERENCE_CALIBRATION_NS = 3_500_000

#: Per-operation counters: metric name -> (source, key).
COUNTERS = {
    "statements": ("calls", "backend"),
    "plans_built": ("calls", "plan"),
    "plan_cache_hits": ("counts", "plan_cache_hits"),
    "sql_compiles": ("calls", "sql_gen"),
    "asl_evals": ("calls", "asl_eval"),
    "rows_scanned": ("counts", "rows_scanned"),
    "index_lookups": ("counts", "index_lookups"),
    "rows_returned": ("counts", "rows_returned"),
    "rows_inserted": ("counts", "rows_inserted"),
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def calibrate() -> int:
    """Wall time (ns) of a fixed loop of interpreter work: dictionary
    updates, float arithmetic, a keyed sort, string formatting.

    The collector is off during the loop, so the program's heap does not
    change the loop's cost.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter_ns()
    try:
        for _ in range(CALIBRATION_PASSES):
            counts = {}
            total = 0.0
            for i in range(3000):
                key = (i * 7919) % 1009
                counts[key] = counts.get(key, 0) + 1
                total += (i % 13) * 0.5
            ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
            ",".join(f"{k}:{v}:{total}" for k, v in ranked[:200])
        return time.perf_counter_ns() - start
    finally:
        if gc_was_enabled:
            gc.enable()


class ScaledClock:
    """Scales wall durations to the reference machine's speed, measured by
    :func:`calibrate` right before and right after each duration."""

    def __init__(self) -> None:
        self._before_ns = calibrate()

    def scale(self, wall_ns: int) -> float:
        after_ns = calibrate()
        speed_ns = (self._before_ns + after_ns) / 2
        self._before_ns = after_ns
        return wall_ns * REFERENCE_CALIBRATION_NS / speed_ns


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _layer_metrics(tracer, wall_ns, scaled_ns):
    from spans import LAYERS

    ops = tracer.ops
    total_ns = sum(wall_ns)
    # Span times are raw: scale them like the latencies, per operation.
    to_ms = sum(scaled_ns) / total_ns / ops / 1e6
    metrics = {
        f"{layer}_ms": _metric(tracer.self_ns.get(layer, 0) * to_ms, "ms")
        for layer in LAYERS
    }
    for name, (source, key) in COUNTERS.items():
        metrics[name] = _metric(getattr(tracer, source).get(key, 0) / ops, "count")
    metrics["virtual_db_ms"] = _metric(
        tracer.counts.get("virtual_ns", 0) / ops / 1e6, "ms"
    )
    metrics["untraced_ms"] = _metric((total_ns - tracer.covered_ns) * to_ms, "ms")
    metrics["span_coverage_pct"] = _metric(100.0 * tracer.covered_ns / total_ns, "%")
    metrics["traced_latency_ms"] = _metric(statistics.median(scaled_ns) / 1e6, "ms")
    return metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from spans import Tracer, install
    from workloads import WORKLOADS, make_inputs

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"available: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](make_inputs(args.seed), ROOT)

    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except OSError as error:
        print(f"perfbench: running unpinned: {error}", file=sys.stderr)
    clock = ScaledClock()
    setup_ns = []
    try:
        for _ in range(SETUP_REPEATS):
            workload.close()
            start = time.perf_counter_ns()
            workload.setup()
            setup_ns.append(clock.scale(time.perf_counter_ns() - start))

        tracer = None
        if args.trace:
            tracer = Tracer()
            install(tracer)
        wall_ns = []
        scaled_ns = []
        attempted = failed = 0
        deadline = time.perf_counter() + args.seconds
        while attempted == 0 or time.perf_counter() < deadline:
            attempted += 1
            start = time.perf_counter_ns()
            try:
                result = workload.traced_op(tracer) if tracer else workload.op()
            except Exception:
                failed += 1
                traceback.print_exc()
                continue
            wall_ns.append(time.perf_counter_ns() - start)
            scaled_ns.append(clock.scale(wall_ns[-1]))
            if not workload.check(result):
                failed += 1
    finally:
        workload.close()

    if not wall_ns:
        print("perfbench: no operation completed", file=sys.stderr)
        return 1
    if tracer is None:
        metrics = {
            "latency_ms": _metric(statistics.median(scaled_ns) / 1e6, "ms"),
            "setup_s": _metric(statistics.median(setup_ns) / 1e9, "s"),
        }
    else:
        metrics = _layer_metrics(tracer, wall_ns, scaled_ns)
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        trace_path = out / f"trace-{args.workload}-{args.seed}.json"
        trace_path.write_text(json.dumps(
            {"metrics": metrics, "last_op_spans": tracer.last_op_spans}
        ))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
