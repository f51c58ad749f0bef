"""E12 — batch execution past the driving scan vs. the scan-only pipeline.

The same sequential executor over aggregation-heavy and join-heavy
variants of the E11 scan workload, three ways: the full batch pipeline
(vectorized aggregation, join probing, projection, top-k), the scan-only
pipeline (post-scan batch rungs stripped from warmed plans — exactly the
PR 7 engine), and the row-at-a-time engine.  Two properties:

* every batch rung is result-transparent — byte-identical rows *and*
  byte-identical :class:`QueryStats` across all three pipelines;
* the full pipeline is not slower than scan-only (deliberately relaxed —
  CI machines are noisy; the persistent baseline in ``BENCH_relalg.json``
  records the real ratio, ≥ 1.5× locally on the aggregation workload).
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run_bench  # noqa: E402
from run_bench import (  # noqa: E402
    _E12_AGG_QUERIES,
    _E12_JOIN_QUERIES,
    _e12_database,
    _e12_disable_batch_rungs,
    _e12_run,
    _walls,
)


def test_walls_alternates_the_sides_and_keeps_each_best(monkeypatch):
    # Runs a, b, a, b, a, b take 5, 2, 3, 6, 4 and 1 seconds.
    ticks = iter([0.0, 5.0, 0.0, 2.0, 0.0, 3.0, 0.0, 6.0, 0.0, 4.0, 0.0, 1.0])
    monkeypatch.setattr(
        run_bench, "time", SimpleNamespace(perf_counter=lambda: next(ticks))
    )
    order = []
    walls = _walls([lambda: order.append("a"), lambda: order.append("b")], 3)
    assert order == ["a", "b"] * 3
    assert walls == [3.0, 1.0]


class TestBatchPipelineBaseline:
    def test_aggregate_workload_transparent_and_not_slower(self):
        queries = _E12_AGG_QUERIES
        with _e12_database() as full, _e12_database() as scan_only, (
            _e12_database(vectorized=False)
        ) as rowwise:
            _e12_disable_batch_rungs(scan_only, queries)
            full_results = _e12_run(full, queries)
            scan_results = _e12_run(scan_only, queries)
            row_results = _e12_run(rowwise, queries)
            assert full_results[0] == row_results[0]
            assert full_results[1] == row_results[1]
            assert scan_results == row_results

            full_wall, scan_wall = _walls(
                [
                    lambda: _e12_run(full, queries),
                    lambda: _e12_run(scan_only, queries),
                ],
                3,
            )
            assert full_wall <= scan_wall, (
                f"batch pipeline {full_wall:.4f}s slower than "
                f"scan-only {scan_wall:.4f}s"
            )

    def test_join_workload_transparent(self):
        queries = _E12_JOIN_QUERIES
        with _e12_database() as full, _e12_database(
            vectorized=False
        ) as rowwise:
            assert _e12_run(full, queries) == _e12_run(rowwise, queries)

    def test_scan_only_plans_actually_lose_their_batch_rungs(self):
        # The stripped plans are the control group: if the attributes were
        # renamed the "scan-only" measurement would silently become the
        # full pipeline and the speedup would read as 1.0x.
        with _e12_database() as scan_only:
            _e12_disable_batch_rungs(scan_only, _E12_AGG_QUERIES)
            assert scan_only._plan_cache, "plan cache should be warm"
            for _snapshot, plan in scan_only._plan_cache.values():
                assert plan.vector_aggregate is None
                assert plan.vector_join_key is None
