"""The benchmark's workloads: inputs made from a seed, one timed operation
each, and a check of every operation's output.

All workloads run one client in a closed loop: the next operation starts when
the previous one has finished and been checked.

``cold_cli``
    one ``cosy`` command run in a fresh interpreter: import, simulate, bulk
    load, ASL parse/check, ASL->SQL compile, pushdown analysis, report.  This
    is what a user waits for.  The report must equal the report of the
    client-side evaluation of the same data.
``warm_pushdown``
    an analysis of every test run of an already loaded database with the
    SQL pushdown strategy, its plan cache and compiled queries warm: the
    relational engine's statement path (parse cache, plan cache, execution).
    Checked against the client-side evaluation.
``warm_client``
    the same analyses evaluated client-side by the ASL evaluator; they
    bypass the relational engine, so an engine change should leave this
    workload unchanged.  Checked against the pushdown evaluation.
``bulk_ingest``
    parse one exported Apprentice summary file and bulk load it into a fresh
    database (schema DDL plus batched inserts): the loader and the engine's
    insert path, which the analysis workloads touch only in set-up.  Row
    counts and a checksum are checked after every load.

The seed picks the processor counts of the simulated runs, the run analysed,
the severity threshold, the simulated database backend and (in process) the
simulator's random draws.  Input sizes do not depend on it.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.apprentice import ExecutionSimulator, SimulationConfig, synthetic_workload
from repro.apprentice.export import ApprenticeExport, ApprenticeParser
from repro.asl.specs import cosy_specification
from repro.compiler import generate_schema, load_repository
from repro.cosy.analyzer import AnalysisResult, CosyAnalyzer
from repro.cosy.report import render_report
from repro.cosy.strategies import ClientSideStrategy, PushdownStrategy
from repro.relalg import NativeClient, backend

from spans import Tracer

PE_CHOICES = (2, 3, 4, 6, 8, 12, 16, 24, 32)
BACKENDS = ("oracle7", "ms_sql_server", "postgres", "ms_access")
#: Ranked instances the cold CLI run prints.
REPORT_TOP = 20
#: Size of the program the bulk-ingest workload simulates: 48 leaf regions
#: with two call sites each, about 3,100 rows over five runs.
INGEST_WORKLOAD = dict(functions=6, regions_per_function=8, calls_per_region=2)
CHILD_TIMEOUT_S = 60


@dataclass(frozen=True)
class Inputs:
    pes: Tuple[int, ...]
    analyze_pes: int
    threshold: float
    backend: str
    seed: int


def make_inputs(seed: int) -> Inputs:
    rng = random.Random(seed)
    pes = (1,) + tuple(sorted(rng.sample(PE_CHOICES, 4)))
    return Inputs(
        pes=pes,
        analyze_pes=rng.choice(pes[1:]),
        threshold=round(rng.uniform(0.02, 0.10), 3),
        backend=rng.choice(BACKENDS),
        seed=seed,
    )


def same_analysis(left: List[AnalysisResult], right: List[AnalysisResult]) -> bool:
    """Whether two evaluations found the same property instances.

    Severities and confidences may differ in the last bits, because the
    database sums in another order than the ASL evaluator.
    """
    return len(left) == len(right) and all(map(_same_result, left, right))


def _same_result(left: AnalysisResult, right: AnalysisResult) -> bool:
    if (left.run_pes, left.skipped, len(left.instances)) != (
        right.run_pes, right.skipped, len(right.instances)
    ):
        return False
    for a, b in zip(left.instances, right.instances):
        if (a.property_name, a.subject, a.holds, a.conditions) != (
            b.property_name, b.subject, b.holds, b.conditions
        ):
            return False
        for x, y in ((a.severity, b.severity), (a.confidence, b.confidence)):
            if not math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-12):
                return False
    return True


def _simulate(inputs: Inputs, kind: str, **workload_kwargs):
    config = SimulationConfig(pe_counts=inputs.pes, seed=inputs.seed)
    return ExecutionSimulator(synthetic_workload(kind, **workload_kwargs), config).run()


class Workload:
    """One set of inputs, an operation to time and a check of its output."""

    def __init__(self, inputs: Inputs, root: Path) -> None:
        self.inputs = inputs
        self.root = root

    def setup(self) -> None:
        """Build the state the timed loop starts from (repeatable)."""

    def op(self) -> Any:
        raise NotImplementedError

    def traced_op(self, tracer: Tracer) -> Any:
        tracer.begin_op()
        try:
            return self.op()
        finally:
            tracer.end_op()

    def check(self, result: Any) -> bool:
        raise NotImplementedError

    def close(self) -> None:
        """Release what :meth:`setup` or the last operation holds."""


class ColdCli(Workload):
    """A fresh ``python -m repro.cosy.cli`` process per operation."""

    def cli_args(self):
        i = self.inputs
        return [
            "--workload", "mixed",
            "--pes", *map(str, i.pes),
            "--analyze-pes", str(i.analyze_pes),
            "--threshold", str(i.threshold),
            "--strategy", "pushdown",
            "--db-backend", i.backend,
            "--top", str(REPORT_TOP),
        ]

    def _env(self) -> Dict[str, str]:
        env = dict(os.environ)
        # Compiled bytecode is cached (under the benchmark's own output
        # directory) as for an installed program; only the program's state
        # is cold.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPYCACHEPREFIX"] = str(self.root / "perfbench" / "out" / "pycache")
        env["PYTHONPATH"] = str(self.root / "src")
        return env

    def _run(self, command) -> str:
        done = subprocess.run(
            [sys.executable, *command, *self.cli_args()],
            cwd=self.root, env=self._env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if done.returncode != 0:
            raise RuntimeError(f"cosy exited with {done.returncode}: {done.stderr}")
        return done.stdout

    def setup(self) -> None:
        # The CLI simulates with the default simulator seed.
        i = self.inputs
        config = SimulationConfig(pe_counts=i.pes)
        repository = ExecutionSimulator(synthetic_workload("mixed"), config).run()
        analyzer = CosyAnalyzer(repository, threshold=i.threshold)
        reference = analyzer.analyze(pes=i.analyze_pes, strategy=ClientSideStrategy(
            analyzer.specification))
        reference.strategy = "pushdown"
        self.expected = render_report(reference, top=REPORT_TOP) + "\n"
        # One untimed run fills the bytecode and file caches.
        if not self.check(self.op()):
            raise RuntimeError("the cosy report differs from the client-side reference")

    def op(self) -> str:
        return self._run(["-m", "repro.cosy.cli"])

    def traced_op(self, tracer: Tracer) -> str:
        # perf_counter is the system-wide monotonic clock on Linux, so the
        # child's readings and these two are on one time line.
        spawned_ns = time.perf_counter_ns()
        stdout = self._run([str(self.root / "perfbench" / "cold_child.py")])
        ended_ns = time.perf_counter_ns()
        report, _, trace = stdout.rstrip("\n").rpartition("\n")
        summary = json.loads(trace)
        tracer.merge(summary)
        tracer.add_root("startup", summary["start_ns"] - spawned_ns)
        tracer.add_root("exit", ended_ns - summary["exit_ns"])
        return report + "\n"

    def check(self, result: str) -> bool:
        return result == self.expected


class _Analysis(Workload):
    """Shared set-up of the two warm analysis workloads."""

    def setup(self) -> None:
        i = self.inputs
        spec = cosy_specification()
        repository = _simulate(i, "mixed")
        mapping = generate_schema(spec)
        self.client = NativeClient(backend(i.backend))
        ids = load_repository(repository, mapping, self.client)
        self.analyzer = CosyAnalyzer(repository, specification=spec, threshold=i.threshold)
        self.pushdown = PushdownStrategy(spec, mapping, self.client, ids)
        self.client_side = ClientSideStrategy(spec)

    def analyze(self, strategy) -> List[AnalysisResult]:
        return [
            self.analyzer.analyze(pes=pes, strategy=strategy) for pes in self.inputs.pes
        ]

    def close(self) -> None:
        client = getattr(self, "client", None)
        if client is not None:
            client.close()


class WarmPushdown(_Analysis):
    def setup(self) -> None:
        super().setup()
        self.reference = self.analyze(self.client_side)
        # The untimed first analysis compiles the SQL and fills the plan cache.
        if not self.check(self.op()):
            raise RuntimeError("pushdown analysis differs from the client-side reference")

    def op(self) -> List[AnalysisResult]:
        return self.analyze(self.pushdown)

    def check(self, result: List[AnalysisResult]) -> bool:
        return same_analysis(result, self.reference)


class WarmClient(_Analysis):
    def setup(self) -> None:
        super().setup()
        self.reference = self.analyze(self.pushdown)
        # The untimed first analysis compiles the ASL expressions.
        if not self.check(self.op()):
            raise RuntimeError("client-side analysis differs from the pushdown reference")

    def op(self) -> List[AnalysisResult]:
        return self.analyze(self.client_side)

    def check(self, result: List[AnalysisResult]) -> bool:
        return same_analysis(result, self.reference)


def _expected_contents(repository) -> Tuple[Counter, float]:
    """Rows per table the repository should load into, and the sum of its
    regions' exclusive times, counted from the object model."""
    counts: Counter = Counter()
    excl = 0.0
    for program in repository.programs:
        counts["Program"] += 1
        for version in program.Versions:
            counts["ProgVersion"] += 1
            counts["TestRun"] += len(version.Runs)
            for function in version.Functions:
                counts["Function"] += 1
                counts["Region"] += len(function.Regions)
                counts["FunctionCall"] += len(function.Calls)
                for region in function.Regions:
                    counts["TotalTiming"] += len(region.TotTimes)
                    counts["TypedTiming"] += len(region.TypTimes)
                    excl += sum(total.Excl for total in region.TotTimes)
                for call in function.Calls:
                    counts["CallTiming"] += len(call.Sums)
    return counts, excl


class BulkIngest(Workload):
    def setup(self) -> None:
        i = self.inputs
        repository = _simulate(i, "scalable", **INGEST_WORKLOAD)
        self.text = ApprenticeExport(repository).dumps()
        self.mapping = generate_schema(cosy_specification())
        parsed = ApprenticeParser().loads(self.text)
        self.expected_counts, self.expected_excl = _expected_contents(parsed)
        if not self.check(self.op()):
            raise RuntimeError("bulk ingest lost or changed rows")

    def op(self) -> NativeClient:
        parsed = ApprenticeParser().loads(self.text)
        client = NativeClient(backend(self.inputs.backend))
        load_repository(parsed, self.mapping, client)
        return client

    def check(self, client: NativeClient) -> bool:
        try:
            counts = client.backend.database.row_counts()
            if any(counts.get(name) != n for name, n in self.expected_counts.items()):
                return False
            excl = client.query("SELECT SUM(Excl) FROM TotalTiming").rows[0][0]
            return math.isclose(excl, self.expected_excl, rel_tol=1e-9)
        finally:
            client.close()


WORKLOADS = {
    "cold_cli": ColdCli,
    "warm_pushdown": WarmPushdown,
    "warm_client": WarmClient,
    "bulk_ingest": BulkIngest,
}
