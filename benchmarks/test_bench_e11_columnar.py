"""E11 — vectorized columnar scans vs. row-at-a-time execution.

The same sequential executor over the same scan-heavy workload, with only
the scan representation changed: batch-compiled predicates over cached
columnar chunks (PR 7, the ``vectorized=True`` default) vs. the
row-at-a-time closure pipeline.  Two properties:

* the columnar path is result-transparent — byte-identical rows *and*
  byte-identical :class:`QueryStats` (it does the same logical work, only
  batched, so every counter must agree with the row-at-a-time engine);
* it is not slower: vectorized wall ≤ row-at-a-time wall (deliberately
  relaxed — CI machines are noisy; the persistent baseline in
  ``BENCH_relalg.json`` records the real ratio, ≥ 1.5× locally).
"""

from __future__ import annotations

import time

from repro.relalg import Database

_ROWS = 24_000
_QUERIES = [
    (
        "SELECT region, COUNT(*), SUM(incl), MAX(excl) FROM samples "
        "WHERE excl > ? GROUP BY region ORDER BY region",
        [97.0],
    ),
    ("SELECT COUNT(*), SUM(incl) FROM samples WHERE incl > ? AND pe <= ?", [95.0, 8]),
    ("SELECT id, incl FROM samples WHERE incl > ? AND excl > ? ORDER BY id", [98.0, 98.0]),
    ("SELECT pe, COUNT(*) FROM samples WHERE excl > ? GROUP BY pe ORDER BY pe", [96.0]),
    ("SELECT COUNT(*) FROM samples WHERE incl > ? AND excl < ?", [90.0, 20.0]),
]


def _build(**kwargs) -> Database:
    database = Database(**kwargs)
    database.execute(
        "CREATE TABLE samples (id INTEGER PRIMARY KEY, region INTEGER, "
        "pe INTEGER, incl FLOAT, excl FLOAT)"
    )
    database.executemany(
        "INSERT INTO samples (id, region, pe, incl, excl) VALUES (?, ?, ?, ?, ?)",
        [
            (i, i % 24, i % 16, (i * 37 % 1000) / 10.0, (i * 59 % 1000) / 10.0)
            for i in range(_ROWS)
        ],
    )
    return database


def _run(database: Database):
    results = [database.query(sql, params) for sql, params in _QUERIES]
    return [r.rows for r in results], [r.stats for r in results]


def _wall(database: Database, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _run(database)
        times.append(time.perf_counter() - start)
    return min(times)


class TestColumnarScanBaseline:
    def test_vectorized_is_transparent_and_not_slower(self):
        with _build(vectorized=False) as rowwise, _build() as vectorized:
            row_rows, row_stats = _run(rowwise)
            vec_rows, vec_stats = _run(vectorized)
            assert vec_rows == row_rows
            assert vec_stats == row_stats

            # Warm both (plan caches and the vectorized chunk caches are
            # already hot from the parity run), then race them.
            row_wall = _wall(rowwise)
            vec_wall = _wall(vectorized)
            assert vec_wall <= row_wall, (
                f"vectorized {vec_wall:.4f}s slower than "
                f"row-at-a-time {row_wall:.4f}s"
            )

    def test_vectorized_transparent_under_dml_and_transactions(self):
        with _build(vectorized=False) as rowwise, _build() as vectorized:
            for database in (rowwise, vectorized):
                database.execute("DELETE FROM samples WHERE pe = ?", [3])
                database.begin()
                database.executemany(
                    "INSERT INTO samples (id, region, pe, incl, excl) "
                    "VALUES (?, ?, ?, ?, ?)",
                    [(100_000 + i, 0, 1, 99.5, 99.5) for i in range(8)],
                )
                database.commit()
            row_rows, row_stats = _run(rowwise)
            vec_rows, vec_stats = _run(vectorized)
            assert vec_rows == row_rows
            assert vec_stats == row_stats
