"""Columnar chunk layout and its boundary conditions.

The vectorized scan path reads a table's columnar chunks
(:meth:`Table.column_chunks`) that are rebuilt lazily from the live rows
after any mutation.  These tests pin the boundaries where a batch layout
can silently go wrong: chunk size one, tables smaller than one chunk,
tombstones in the middle of a chunk, and DML invalidating a cached chunk
inside an open transaction (every mutation drops the cache, so vectorized
scans read the transaction's staged writes).
"""

import pytest

from repro.relalg import CHUNK_ROWS, Database, Table, planner, storage

_DDL = "CREATE TABLE t (id INTEGER PRIMARY KEY, g INTEGER, x FLOAT)"
_INS = "INSERT INTO t (id, g, x) VALUES (?, ?, ?)"


def _filled(n_rows=50, **kwargs):
    database = Database(**kwargs)
    database.execute(_DDL)
    database.executemany(
        _INS, [(i, i % 5, float(i) / 2) for i in range(1, n_rows + 1)]
    )
    return database


class TestChunkLayout:
    def test_chunks_transpose_live_rows_in_order(self):
        with _filled(n_rows=10) as database:
            database.execute("DELETE FROM t WHERE id = ?", [3])
            table = database.tables["t"]
            chunks = table.column_chunks(chunk_size=4)
            rebuilt = [row for block, _cols in chunks for row in block]
            assert rebuilt == [r for r in table.rows if r is not None]
            for block, cols in chunks:
                assert len(cols) == 3
                for j, column in enumerate(cols):
                    assert column == [row[j] for row in block]

    def test_chunk_size_one_yields_one_row_per_chunk(self):
        with _filled(n_rows=9) as database:
            table = database.tables["t"]
            chunks = table.column_chunks(chunk_size=1)
            assert len(chunks) == table.live_count
            assert all(len(block) == 1 for block, _cols in chunks)

    def test_table_smaller_than_one_chunk_is_a_single_chunk(self):
        with _filled(n_rows=6) as database:
            table = database.tables["t"]
            assert table.live_count < CHUNK_ROWS
            chunks = table.column_chunks()
            assert len(chunks) == 1
            assert len(chunks[0][0]) == table.live_count

    def test_empty_table_has_no_chunks(self):
        with _filled(n_rows=0) as database:
            assert database.tables["t"].column_chunks() == []

    def test_cache_reused_until_invalidated(self):
        with _filled() as database:
            table = database.tables["t"]
            first = table.column_chunks(chunk_size=8)
            assert table.column_chunks(chunk_size=8) is first
            # A different chunk size rebuilds; a mutation invalidates.
            second = table.column_chunks(chunk_size=16)
            assert second is not first
            database.execute(_INS, [1000, 0, 0.0])
            fresh = table.column_chunks(chunk_size=16)
            assert fresh is not second
            assert sum(len(block) for block, _cols in fresh) == 51


@pytest.mark.parametrize("chunk_size", [1, 3, CHUNK_ROWS])
class TestChunkedQueriesMatchRowwise:
    def test_tombstones_mid_chunk(self, chunk_size, monkeypatch):
        # Delete a stripe of rows (far below the compaction threshold, so
        # the row lists keep tombstones in the middle of every chunk), then
        # compare the vectorized scan against row-at-a-time.
        monkeypatch.setattr(storage, "CHUNK_ROWS", chunk_size)
        with _filled() as vectorized, _filled(
            vectorized=False
        ) as rowwise:
            for database in (vectorized, rowwise):
                deleted = database.execute("DELETE FROM t WHERE g = ?", [2])
                assert deleted == 10
            for sql, params in [
                ("SELECT id, x FROM t WHERE x > ? ORDER BY id", [5.0]),
                ("SELECT g, COUNT(*) FROM t GROUP BY g ORDER BY g", []),
                ("SELECT id FROM t ORDER BY id", []),
            ]:
                got = vectorized.query(sql, params)
                expected = rowwise.query(sql, params)
                assert got.rows == expected.rows, sql
                assert got.stats == expected.stats, sql

    def test_dml_inside_open_transaction(self, chunk_size, monkeypatch):
        monkeypatch.setattr(storage, "CHUNK_ROWS", chunk_size)
        with _filled() as database:
            count_sql = "SELECT COUNT(*) FROM t WHERE x > ?"
            # Warm the chunk caches with a vectorized scan.
            assert database.query(count_sql, [10.0]).rows == [(30,)]
            database.begin()
            database.execute(_INS, [2000, 1, 99.0])
            database.execute("DELETE FROM t WHERE id = ?", [1])
            # Inside the transaction the engine reads its own staged writes
            # (each mutation dropped the chunk cache).
            assert database.query(count_sql, [10.0]).rows == [(31,)]
            assert database.query(
                "SELECT id FROM t WHERE id = ?", [2000]
            ).rows == [(2000,)]
            assert database.query(
                "SELECT id FROM t WHERE id = ?", [1]
            ).rows == []
            database.rollback()
            # After rollback the staged rows are gone and the (invalidated,
            # rebuilt) chunks serve the original data again.
            assert database.query(count_sql, [10.0]).rows == [(30,)]
            assert database.query(
                "SELECT id FROM t WHERE id = ?", [2000]
            ).rows == []
            assert database.query(
                "SELECT id FROM t WHERE id = ?", [1]
            ).rows == [(1,)]

    def test_commit_inside_transaction_then_vectorized_reads(
        self, chunk_size, monkeypatch
    ):
        monkeypatch.setattr(storage, "CHUNK_ROWS", chunk_size)
        with _filled() as database:
            assert database.query("SELECT COUNT(*) FROM t").rows == [(50,)]
            database.begin()
            database.executemany(
                _INS, [(3000 + i, 9, -1.0) for i in range(5)]
            )
            database.commit()
            result = database.query(
                "SELECT id FROM t WHERE g = ? ORDER BY id", [9]
            )
            assert result.rows == [(3000 + i,) for i in range(5)]

    def test_staged_writes_scan_vectorized(self, chunk_size, monkeypatch):
        # Inside an open transaction, after ROLLBACK and after COMMIT, the
        # vectorized engine returns the row-at-a-time engine's rows and
        # counters — and while the transaction is open its filtered scans
        # read columnar chunks rebuilt from the staged rows.
        monkeypatch.setattr(storage, "CHUNK_ROWS", chunk_size)
        reads = []
        original = Table.column_chunks

        def spy(table, *args, **kwargs):
            reads.append(table.name)
            return original(table, *args, **kwargs)

        monkeypatch.setattr(Table, "column_chunks", spy)
        queries = [
            ("SELECT id, x FROM t WHERE x > ? ORDER BY id", [10.0]),
            (
                "SELECT g, COUNT(*), SUM(x) FROM t WHERE x > ? "
                "GROUP BY g ORDER BY g",
                [3.0],
            ),
            ("SELECT COUNT(*), MIN(x) FROM t WHERE g <> ?", [4]),
        ]

        def compare():
            for sql, params in queries:
                got = vectorized.query(sql, params)
                expected = rowwise.query(sql, params)
                assert got.rows == expected.rows, sql
                assert got.stats == expected.stats, sql

        with _filled() as vectorized, _filled(vectorized=False) as rowwise:
            compare()
            for end in ("ROLLBACK", "COMMIT"):
                for database in (vectorized, rowwise):
                    database.begin()
                    database.executemany(
                        _INS, [(2000 + i, i % 5, 40.0 + i) for i in range(7)]
                    )
                    database.execute("DELETE FROM t WHERE g = ?", [2])
                reads.clear()
                compare()
                assert reads == ["t"] * len(queries), end
                for database in (vectorized, rowwise):
                    database.execute(end)
                compare()
            assert vectorized.query("SELECT COUNT(*) FROM t").scalar() == 46


class TestVectorizationReport:
    """EXPLAIN reports per-rung vectorization eligibility and fallback reasons."""

    def test_fully_vectorized_aggregate(self):
        with _filled() as database:
            text = database.explain(
                "SELECT g, COUNT(*), SUM(id) FROM t GROUP BY g"
            )
            assert "vectorization:" in text
            assert "scan: row stream (no driving filter)" in text
            assert "aggregate: vectorized (per-group column folds)" in text
            assert "join-probe: n/a (no join levels)" in text
            assert "projection: n/a (aggregate query)" in text
            assert "top-k: n/a (no ORDER BY)" in text

    def test_row_fallback_reasons_are_reported(self):
        with _filled() as database:
            probe = database.explain("SELECT x FROM t WHERE id = ?")
            assert (
                "scan: row-at-a-time (driving access is index-probe)" in probe
            )
            subquery = database.explain(
                "SELECT id FROM t WHERE x > (SELECT AVG(x) FROM t)"
            )
            assert (
                "scan: row-at-a-time (driving filters do not batch-compile)"
                in subquery
            )
            floats = database.explain("SELECT g, SUM(x) FROM t GROUP BY g")
            assert "aggregate: vectorized (per-group column folds)" in floats

    def test_top_k_report(self, monkeypatch):
        heaps = []
        original = planner.nsmallest

        def spy(n, iterable, key=None):
            heaps.append(n)
            return original(n, iterable, key=key)

        monkeypatch.setattr(planner, "nsmallest", spy)
        with _filled() as database:
            sql = "SELECT id FROM t ORDER BY x LIMIT 3"
            top_k = database.explain(sql)
            assert "top-k: vectorized (bounded heap)" in top_k
            assert database.query(sql).rows == [(1,), (2,), (3,)]
            assert heaps == [3]
            # An index probe drives the scan row-at-a-time: the plan runs
            # the full sort, and EXPLAIN says so.
            database.execute("CREATE INDEX t_g ON t (g)")
            probe_sql = "SELECT id, x FROM t WHERE g = ? ORDER BY x LIMIT 3"
            probe = database.explain(probe_sql)
            assert "top-k: full sort (driving scan is row-at-a-time)" in probe
            heaps.clear()
            assert database.query(probe_sql, [1]).rows == [
                (1, 0.5), (6, 3.0), (11, 5.5)
            ]
            assert heaps == []
            distinct = database.explain(
                "SELECT DISTINCT g FROM t ORDER BY g LIMIT 3"
            )
            assert (
                "top-k: full sort (DISTINCT dedups after ordering)" in distinct
            )
            unlimited = database.explain("SELECT id FROM t ORDER BY x")
            assert "top-k: full sort (no LIMIT)" in unlimited

    def test_projection_report(self):
        # The projection runs the same way on every path, so the line names
        # its kind only, whatever the driving access.
        with _filled() as database:
            exprs = database.explain("SELECT id * 2 + 1, COALESCE(g, -1) FROM t")
            assert (
                "projection: expression list (row-at-a-time on every path)"
                in exprs
            )
            slots = database.explain("SELECT id, g FROM t")
            assert (
                "projection: slot projection (one itemgetter on every path)"
                in slots
            )
            identity = "projection: identity (rows pass through on every path)"
            assert identity in database.explain("SELECT * FROM t")
            probe = database.explain("SELECT * FROM t WHERE id = 3")
            assert "index-probe" in probe and identity in probe

    def test_join_probe_report(self):
        with _filled() as database:
            database.execute("CREATE TABLE d (g INTEGER, label TEXT)")
            database.executemany(
                "INSERT INTO d (g, label) VALUES (?, ?)",
                [(i, f"g{i}") for i in range(5)],
            )
            text = database.explain(
                "SELECT t.id, d.label FROM t, d WHERE t.g = d.g"
            )
            assert "join-probe: vectorized (batch probe)" in text

    def test_disabled_banner(self):
        with _filled(vectorized=False) as database:
            text = database.explain("SELECT g, COUNT(*) FROM t GROUP BY g")
            assert "vectorization (disabled: vectorized=False):" in text
