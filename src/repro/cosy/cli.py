"""Command-line interface of the COSY cost analyzer.

Example::

    cosy --workload mixed --pes 1 2 4 8 16 32 --analyze-pes 32 --strategy pushdown

simulates the ``mixed`` synthetic workload, loads the resulting performance
data, evaluates the COSY properties with the chosen strategy and prints the
ranked report.  ``--show-sql`` additionally prints the SQL queries generated
for every property (the output of the ASL→SQL compiler).
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
from typing import Optional, Sequence

from repro.apprentice import (
    WORKLOAD_FACTORIES,
    ExecutionSimulator,
    SimulationConfig,
    synthetic_workload,
)
from repro.asl.specs import cosy_specification
from repro.compiler import PropertyCompiler, generate_schema, load_repository
from repro.cosy.analyzer import CosyAnalyzer, DEFAULT_THRESHOLD
from repro.cosy.report import render_report
from repro.cosy.strategies import ClientSideStrategy, PushdownStrategy
from repro.relalg import NativeClient, backend

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of the ``cosy`` command."""
    parser = argparse.ArgumentParser(
        prog="cosy",
        description="KOJAK Cost Analyzer — automatic performance analysis of "
        "simulated parallel applications",
    )
    parser.add_argument(
        "--workload",
        choices=tuple(WORKLOAD_FACTORIES),
        default="mixed",
        help="synthetic workload to simulate",
    )
    parser.add_argument(
        "--pes",
        type=int,
        nargs="+",
        default=[1, 2, 4, 8, 16, 32],
        help="processor counts of the simulated test runs",
    )
    parser.add_argument(
        "--analyze-pes",
        type=int,
        default=None,
        help="processor count of the run to analyse (default: the largest)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="severity threshold above which a property is a problem",
    )
    parser.add_argument(
        "--strategy",
        choices=("client", "pushdown"),
        default="client",
        help="property evaluation strategy",
    )
    parser.add_argument(
        "--db-backend",
        choices=("oracle7", "ms_sql_server", "postgres", "ms_access"),
        default="ms_access",
        help="simulated database backend used by the pushdown strategy",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=20,
        help="number of ranked property instances to print",
    )
    parser.add_argument(
        "--show-sql",
        action="store_true",
        help="print the SQL generated for every property and exit",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="load the data, then print the execution plan of every property "
        "query (join order, access paths, estimated cardinalities) and exit",
    )
    return parser


def _print_property_queries(specification, mapping, render) -> None:
    """Shared --show-sql / --explain loop: one ``render(label, query)`` per
    compiled condition, confidence and severity query of every property, in
    the order the pushdown strategy runs them.  An entry the translator
    folded runs no statement: it prints as ``constant <value>``."""

    def show(label, query):
        if query.folded:
            print(f"--   {label}: constant {query.value!r}")
        else:
            render(label, query)

    compiler = PropertyCompiler(specification, mapping)
    for name, compiled in sorted(compiler.compile_all().items()):
        print(f"-- property {name}")
        for key, query in compiled.conditions:
            show(f"condition ({key})", query)
        for kind, entries in (
            ("confidence", compiled.confidence),
            ("severity", compiled.severity),
        ):
            for guard, query in entries:
                label = f"guard {guard}" if guard else "unguarded"
                show(f"{kind} ({label})", query)
        print()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``cosy`` command."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if min(args.pes) < 1:
        parser.error("--pes values must be >= 1")
    if args.analyze_pes is not None and args.analyze_pes not in args.pes:
        parser.error(
            f"--analyze-pes {args.analyze_pes} is not one of --pes "
            f"{' '.join(map(str, args.pes))}"
        )
    if args.top < 0:
        parser.error("--top must be >= 0")
    if math.isnan(args.threshold):
        # Every severity > nan is false: the report would show no problem.
        parser.error("--threshold must be a number, got nan")

    specification = cosy_specification()

    if args.show_sql:
        mapping = generate_schema(specification)

        def render_sql(label, query):
            print(f"--   {label}: params {query.param_slots}")
            print(f"     {query.sql}")

        _print_property_queries(specification, mapping, render_sql)
        return 0

    workload = synthetic_workload(args.workload)
    simulator = ExecutionSimulator(
        workload, SimulationConfig(pe_counts=tuple(args.pes))
    )
    repository = simulator.run()

    analyzer = CosyAnalyzer(
        repository, specification=specification, threshold=args.threshold
    )

    if args.strategy == "pushdown" or args.explain:
        mapping = generate_schema(specification)
        client = NativeClient(backend(args.db_backend))
        try:
            ids = load_repository(repository, mapping, client)
            if args.explain:
                def render_plan(label, query):
                    print(f"--   {label}")
                    for line in client.explain(query.sql).splitlines():
                        print(f"     {line}")

                _print_property_queries(specification, mapping, render_plan)
                return 0
            strategy = PushdownStrategy(specification, mapping, client, ids)
            result = analyzer.analyze(pes=args.analyze_pes, strategy=strategy)
        finally:
            client.close()
    else:
        strategy = ClientSideStrategy(specification)
        result = analyzer.analyze(pes=args.analyze_pes, strategy=strategy)

    print(render_report(result, top=args.top))
    return 0


if __name__ == "__main__":  # pragma: no cover
    status = main()
    # Everything left on the heap dies with the process: frozen, it is never
    # traversed again by the collections of interpreter teardown, while
    # atexit handlers and the normal shutdown (stream flushes) still run.
    # Only here, never in main(), which tests call in-process.
    gc.freeze()
    sys.exit(status)
