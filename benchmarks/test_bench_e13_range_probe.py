"""E13 — ordered range indexes vs. full-table scans.

The range-heavy variant of the E11 scan workload (selective sargable
predicates, a BETWEEN aggregate, and a single-key top-k) with and without
the ordered index on ``incl``.  Two properties:

* the index is result-transparent — byte-identical rows with the index on
  or off, and byte-identical :class:`QueryStats` between the row-at-a-time
  and vectorized engines on the probe path;
* the probe path does strictly less counted work (``range_probes``
  charged, ``rows_scanned`` collapses to the in-range rows) and is not
  slower on wall clock (deliberately relaxed — CI machines are noisy; the
  persistent baseline in ``BENCH_relalg.json`` records the real ratio,
  ≥ 2× locally).
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run_bench import _e13_database, _e13_run  # noqa: E402


def _wall(database, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _e13_run(database)
        times.append(time.perf_counter() - start)
    return min(times)


class TestRangeProbeBaseline:
    def test_probe_transparent_and_not_slower_than_full_scan(self):
        with _e13_database() as ordered, (
            _e13_database(ordered=False)
        ) as plain, _e13_database(vectorized=False) as rowwise:
            ordered_rows, ordered_stats = _e13_run(ordered)
            plain_rows, plain_stats = _e13_run(plain)
            row_rows, row_stats = _e13_run(rowwise)

            assert ordered_rows == plain_rows
            assert row_rows == ordered_rows
            assert row_stats == ordered_stats

            assert sum(stats.range_probes for stats in ordered_stats) > 0
            assert sum(stats.range_probes for stats in plain_stats) == 0
            assert (
                sum(stats.rows_scanned for stats in ordered_stats)
                < sum(stats.rows_scanned for stats in plain_stats)
            )

            probe_wall = _wall(ordered)
            scan_wall = _wall(plain)
            assert probe_wall <= scan_wall, (
                f"range probes {probe_wall:.4f}s slower than "
                f"full scans {scan_wall:.4f}s"
            )
