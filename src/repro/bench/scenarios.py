"""Standard experiment scenarios shared by the benchmarks and the examples.

Every experiment of EXPERIMENTS.md starts from the same building blocks:
simulate a synthetic workload, (optionally) load the resulting performance
data into a simulated database backend, and analyse a test run with COSY.
:func:`build_scenario` packages those steps into a :class:`CosyScenario` so
that the benchmark modules stay focused on what they measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apprentice import ExecutionSimulator, SimulationConfig, synthetic_workload
from repro.asl.semantic import CheckedSpecification
from repro.asl.specs import cosy_specification
from repro.compiler import (
    DEFAULT_LOAD_BATCH_SIZE,
    DatabaseLoader,
    ObjectIds,
    SchemaMapping,
    generate_schema,
)
from repro.compiler.sql_gen import CompiledQuery
from repro.cosy import CosyAnalyzer, PushdownStrategy
from repro.datamodel import PerformanceDatabase
from repro.relalg import DatabaseClient, NativeClient, backend

__all__ = [
    "CosyScenario",
    "PerEntryPushdownStrategy",
    "build_scenario",
    "identical_table_contents",
    "load_into_backend",
    "speedup_series",
]


@dataclass
class CosyScenario:
    """A simulated workload plus everything COSY needs to analyse it."""

    workload_kind: str
    pe_counts: Tuple[int, ...]
    repository: PerformanceDatabase
    specification: CheckedSpecification
    mapping: SchemaMapping
    analyzer: CosyAnalyzer

    def run_with_pes(self, pes: int):
        """The test run with ``pes`` processors."""
        version = self.repository.programs[0].latest_version()
        return version.run_with_pes(pes)

    @property
    def version(self):
        return self.repository.programs[0].latest_version()


def build_scenario(
    workload_kind: str = "mixed",
    pe_counts: Sequence[int] = (1, 2, 4, 8, 16, 32),
    threshold: float = 0.05,
    specification: Optional[CheckedSpecification] = None,
    **workload_kwargs,
) -> CosyScenario:
    """Simulate ``workload_kind`` and prepare the COSY analyzer for it."""
    spec = specification or cosy_specification()
    workload = synthetic_workload(workload_kind, **workload_kwargs)
    simulator = ExecutionSimulator(
        workload, SimulationConfig(pe_counts=tuple(pe_counts))
    )
    repository = simulator.run()
    mapping = generate_schema(spec)
    analyzer = CosyAnalyzer(repository, specification=spec, threshold=threshold)
    return CosyScenario(
        workload_kind=workload_kind,
        pe_counts=tuple(pe_counts),
        repository=repository,
        specification=spec,
        mapping=mapping,
        analyzer=analyzer,
    )


def load_into_backend(
    scenario: CosyScenario,
    backend_name: str = "ms_access",
    with_indexes: bool = True,
    client_factory=NativeClient,
    engine: str = "compiled",
    batch_size: Optional[int] = DEFAULT_LOAD_BATCH_SIZE,
) -> Tuple[DatabaseClient, ObjectIds]:
    """Load the scenario's repository into a freshly created simulated backend.

    ``engine`` selects the relational execution engine: the default compiled
    plan-then-execute engine or the seed ``"interpreted"`` AST walker (used by
    ``benchmarks/run_bench.py`` as the speedup baseline).  ``batch_size``
    controls the loader's insert batching (one virtual round trip per batch);
    ``batch_size=None`` loads row at a time — the E6 benchmark compares the
    two paths.
    """
    client = client_factory(backend(backend_name, engine=engine))
    loader = DatabaseLoader(scenario.mapping, client, batch_size=batch_size)
    loader.create_schema(with_indexes=with_indexes)
    ids = loader.load(scenario.repository)
    return client, ids


class PerEntryPushdownStrategy(PushdownStrategy):
    """The pushdown strategy with one statement per entry, folded or not.

    The translator folds an entry that reads no data (the bundled
    ``CONFIDENCE: 1``) to its value, which costs the pushdown strategy no
    statement.  This variant sends such an entry's SQL (``SELECT 1 AS value
    FROM dual``) like any other entry's, so E3's ``pushdown_per_entry``,
    A1's ``per_entry`` and the pinned per-entry clock keep the statement
    counts and virtual times of one statement per entry and context.
    """

    def _scalar(self, query, binding):
        if query.folded:
            query = CompiledQuery(query.sql, query.param_slots)
        return super()._scalar(query, binding)


def identical_table_contents(left, right) -> bool:
    """Whether two databases hold the same tables with identical live rows.

    Rows are compared in storage order, so this is the differential check the
    E6 bulk-load experiment relies on: batched and row-at-a-time loading must
    be indistinguishable in what they load.
    """
    if left.table_names() != right.table_names():
        return False
    return all(
        list(left.table(name).scan()) == list(right.table(name).scan())
        for name in left.table_names()
    )


def speedup_series(scenario: CosyScenario) -> List[Dict[str, float]]:
    """Per-run duration / speedup / total-cost severity of the main region.

    This is the data series behind the E4 'cost analysis' table: it shows how
    the summed duration grows with the processor count and how severe the
    SublinearSpeedup property becomes.
    """
    version = scenario.version
    basis = version.main_region
    repository = scenario.repository
    series: List[Dict[str, float]] = []
    for run in sorted(version.Runs, key=lambda r: r.NoPe):
        duration = basis.duration(run)
        speedup = repository.speedup(basis, run)
        total_cost = repository.total_cost(basis, run)
        series.append(
            {
                "pes": float(run.NoPe),
                "duration": duration,
                "speedup": speedup,
                "total_cost": total_cost,
                "severity": total_cost / duration if duration > 0 else 0.0,
            }
        )
    return series
