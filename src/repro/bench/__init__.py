"""Shared helpers for the benchmark harness and the examples."""

from repro.bench.scenarios import (
    CosyScenario,
    PerEntryPushdownStrategy,
    build_scenario,
    identical_table_contents,
    load_into_backend,
    speedup_series,
)

__all__ = [
    "CosyScenario",
    "PerEntryPushdownStrategy",
    "build_scenario",
    "identical_table_contents",
    "load_into_backend",
    "speedup_series",
]
