"""Ordered secondary indexes: range probes, index-order top-k pushdown,
and the range-predicate correctness sweep.

Every test pins the same contract the differential fuzzers sweep at random:
an ordered index is an access-path accelerator, never a semantics change —
rows are byte-identical with the index on or off, across all four engine
modes, through ROLLBACK, checkpoint restore and WAL replay.  Only the
physical-work counters (``range_probes``, ``rows_scanned``) may differ from
the scan-everything reference, and those are asserted exactly.
"""

from __future__ import annotations

import pytest

from repro.relalg import Database, storage
from repro.relalg.errors import ExecutionError, SemanticError
from repro.relalg.planner import plan_select
from repro.relalg.sqlparser import parse_sql


def _fill(database, rows, ordered=True):
    database.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, v FLOAT, g INTEGER)"
    )
    if ordered:
        database.execute("CREATE INDEX t_v ON t (v) ORDERED")
    database.executemany("INSERT INTO t (id, v, g) VALUES (?, ?, ?)", rows)
    return database


def _rows(n=60):
    """n rows: v cycles a shuffled residue pattern, every 7th v is NULL."""
    out = []
    for i in range(n):
        value = None if i % 7 == 3 else float((i * 37) % n) / 2.0
        out.append((i + 1, value, i % 5))
    return out


def _pair(rows=None):
    """The same data with and without the ordered index."""
    rows = _rows() if rows is None else rows
    indexed = _fill(Database(), rows)
    plain = _fill(Database(), rows, ordered=False)
    return indexed, plain


def _access_kinds(database, sql):
    plan = plan_select(parse_sql(sql), database.tables)
    return [level["access"] for level in plan.describe()]


class TestRangeProbe:
    def test_probe_matches_scan_with_exact_stats(self):
        indexed, plain = _pair()
        sql = "SELECT id, v FROM t WHERE v > ? AND v <= ? ORDER BY id"
        assert _access_kinds(indexed, sql) == ["range-probe"]
        assert _access_kinds(plain, sql) == ["scan"]
        for lo, hi in [(4.0, 11.0), (-5.0, 0.0), (25.0, 20.0), (0.0, 100.0)]:
            got = indexed.query(sql, [lo, hi])
            expected = plain.query(sql, [lo, hi])
            assert got.rows == expected.rows
            assert got.stats.range_probes == 1
            assert expected.stats.range_probes == 0
            # The probe touches exactly the in-range rows; the scan touches
            # everything.
            assert got.stats.rows_scanned == len(got.rows)
            assert expected.stats.rows_scanned == 60

    def test_inclusivity_all_four_operators(self):
        indexed, plain = _pair()
        for op in (">", ">=", "<", "<="):
            sql = f"SELECT id FROM t WHERE v {op} ? ORDER BY id"
            assert _access_kinds(indexed, sql) == ["range-probe"]
            got = indexed.query(sql, [10.0])
            assert got.rows == plain.query(sql, [10.0]).rows
            assert got.stats.range_probes == 1

    def test_between_desugars_to_range_probe(self):
        indexed, plain = _pair()
        sql = "SELECT id, v FROM t WHERE v BETWEEN ? AND ? ORDER BY id"
        assert _access_kinds(indexed, sql) == ["range-probe"]
        assert indexed.query(sql, [3.0, 9.0]).rows == plain.query(sql, [3.0, 9.0]).rows
        # Inverted bounds: BETWEEN desugars to v >= lo AND v <= hi, which no
        # value satisfies — an empty slice, still one charged probe.
        inverted = indexed.query(sql, [9.0, 3.0])
        assert inverted.rows == []
        assert inverted.stats.range_probes == 1

    def test_null_bound_matches_nothing(self):
        indexed, plain = _pair()
        sql = "SELECT id FROM t WHERE v > ?"
        for database in (indexed, plain):
            assert database.query(sql, [None]).rows == []
        # The comparison is UNKNOWN for every row: the probe is charged but
        # no candidates are visited.
        got = indexed.query(sql, [None])
        assert got.stats.range_probes == 1
        assert got.stats.rows_scanned == 0

    def test_nan_bound_matches_nothing(self):
        indexed, plain = _pair()
        sql = "SELECT id FROM t WHERE v < ?"
        for database in (indexed, plain):
            assert database.query(sql, [float("nan")]).rows == []
        assert indexed.query(sql, [float("nan")]).stats.range_probes == 1

    def test_incompatible_bound_reproduces_reference_error(self):
        # A string bound over a float run cannot be bisected; the probe
        # falls back to a filtered scan so the reference engine's per-row
        # typed error surfaces identically (same first row, same message).
        indexed, plain = _pair()
        sql = "SELECT id FROM t WHERE v > ?"
        messages = set()
        for database in (indexed, plain):
            with pytest.raises(ExecutionError) as excinfo:
                database.query(sql, ["abc"])
            messages.add(str(excinfo.value))
        assert len(messages) == 1

    def test_contradictory_literals_scan_nothing(self):
        indexed, _plain = _pair()
        got = indexed.query("SELECT id FROM t WHERE v > 10 AND v < 5")
        assert got.rows == []
        assert got.stats.rows_scanned == 0
        assert got.stats.range_probes == 0

    def test_redundant_conjuncts_fold_to_tightest_interval(self):
        # v > 5 AND v > 20 folds to v > 20 at plan time: the estimate must
        # match the estimate of the already-tight statement instead of
        # multiplying both selectivities.
        indexed, _plain = _pair()
        redundant = plan_select(
            parse_sql("SELECT id FROM t WHERE v > 5 AND v > 20 AND v < 28"),
            indexed.tables,
        )
        tight = plan_select(
            parse_sql("SELECT id FROM t WHERE v > 20 AND v < 28"),
            indexed.tables,
        )
        assert (
            redundant.describe()[0]["estimated_rows"]
            == tight.describe()[0]["estimated_rows"]
        )

    def test_residual_filters_still_apply(self):
        indexed, plain = _pair()
        sql = "SELECT id, v, g FROM t WHERE v >= ? AND v < ? AND g = ? ORDER BY id"
        assert _access_kinds(indexed, sql) == ["range-probe"]
        args = [2.0, 21.0, 3]
        assert indexed.query(sql, args).rows == plain.query(sql, args).rows


class TestIndexOrderPushdown:
    def test_pushdown_engages_and_plain_sort_does_not(self):
        indexed, plain = _pair()
        sql = "SELECT id, v FROM t ORDER BY v LIMIT 6"
        assert plan_select(parse_sql(sql), indexed.tables).index_order == ("v", True)
        assert plan_select(parse_sql(sql), plain.tables).index_order is None
        desc = "SELECT id, v FROM t ORDER BY v DESC LIMIT 6"
        assert plan_select(parse_sql(desc), indexed.tables).index_order == ("v", False)

    @pytest.mark.parametrize("history", ["fresh", "churned", "staged"])
    def test_pushdown_is_invisible(self, history):
        # The same data with and without the index: the index-order walk
        # must reproduce the stable sort's tie order and NULL placement
        # exactly, for every direction/limit/offset shape — also after
        # deletes and inserts moved ties to new positions, and while those
        # writes are staged by an open transaction.
        indexed, plain = _pair()
        for database in (indexed, plain):
            if history == "staged":
                database.execute("BEGIN")
            if history != "fresh":
                database.execute("DELETE FROM t WHERE g = ?", [1])
                database.executemany(
                    "INSERT INTO t (id, v, g) VALUES (?, ?, ?)",
                    [
                        (100 + i, None if i % 4 == 0 else i * 13 % 30 / 2.0, i % 5)
                        for i in range(12)
                    ],
                )
        for sql in (
            "SELECT id, v FROM t ORDER BY v LIMIT 7",
            "SELECT id, v FROM t ORDER BY v DESC LIMIT 7",
            "SELECT id, v FROM t ORDER BY v LIMIT 5 OFFSET 4",
            "SELECT id, v FROM t ORDER BY v DESC LIMIT 5 OFFSET 4",
            "SELECT id, v FROM t ORDER BY v LIMIT 100",
            "SELECT id, v FROM t ORDER BY v LIMIT 3 OFFSET 200",
        ):
            assert indexed.query(sql).rows == plain.query(sql).rows, sql
        if history == "staged":
            for database in (indexed, plain):
                database.execute("ROLLBACK")
            fresh, _ = _pair()
            sql = "SELECT id, v FROM t ORDER BY v DESC LIMIT 100"
            assert indexed.query(sql).rows == fresh.query(sql).rows

    def test_pushdown_stops_early(self):
        indexed, plain = _pair()
        sql = "SELECT id, v FROM t ORDER BY v LIMIT 4 OFFSET 2"
        got = indexed.query(sql)
        assert got.rows == plain.query(sql).rows
        # The merge stops after limit+offset survivors; the sort reference
        # scans the whole table.
        assert got.stats.rows_scanned == 6
        assert plain.query(sql).stats.rows_scanned == 60

    def test_signed_zero_ties_keep_position_order(self):
        rows = [(1, 0.0, 0), (2, -0.0, 0), (3, 0.0, 0), (4, -1.0, 0), (5, 1.0, 0)]
        indexed, plain = _pair(rows=rows)
        for sql in (
            "SELECT id FROM t ORDER BY v LIMIT 5",
            "SELECT id FROM t ORDER BY v DESC LIMIT 5",
        ):
            assert indexed.query(sql).rows == plain.query(sql).rows, sql

    def test_nan_in_data_forces_runtime_fallback(self):
        rows = [(i + 1, float(v), 0) for i, v in enumerate([5, 2, 9, 1])]
        rows.append((5, float("nan"), 0))
        indexed, plain = _pair(rows=rows)
        sql = "SELECT id FROM t ORDER BY v LIMIT 3"
        # Eligible at plan time, but a NaN entry poisons the sorted run, so
        # execution falls back to the full stable sort.
        assert plan_select(parse_sql(sql), indexed.tables).index_order == ("v", True)
        got = indexed.query(sql)
        assert got.rows == plain.query(sql).rows
        assert got.stats.rows_scanned == len(rows)

    def test_two_sort_keys_disable_pushdown(self):
        indexed, _plain = _pair()
        sql = "SELECT id, v FROM t ORDER BY v, id LIMIT 5"
        assert plan_select(parse_sql(sql), indexed.tables).index_order is None


class TestModeParity:
    def _everywhere(self, sql, params=()):
        rows = _rows()
        databases = {
            "interp": _fill(Database(engine="interpreted"), rows),
            "rowwise": _fill(Database(vectorized=False), rows),
            "vector": _fill(Database(), rows),
        }
        results = {name: db.query(sql, params) for name, db in databases.items()}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(storage, "CHUNK_ROWS", 3)
            results["small-chunks"] = _fill(
                Database(), rows
            ).query(sql, params)
        reference = results["interp"]
        for name, result in results.items():
            assert result.columns == reference.columns, (name, sql)
            assert result.rows == reference.rows, (name, sql)
        return results

    def test_range_and_pushdown_rows_identical_in_all_modes(self):
        for sql, params in [
            ("SELECT id, v FROM t WHERE v > ? AND v < ? ORDER BY id", [3.0, 17.0]),
            ("SELECT id FROM t WHERE v BETWEEN ? AND ? ORDER BY id DESC", [5.0, 12.5]),
            ("SELECT id, v FROM t ORDER BY v LIMIT 8", []),
            ("SELECT id, v FROM t ORDER BY v DESC LIMIT 6 OFFSET 3", []),
            ("SELECT id, g FROM t WHERE v IS NULL ORDER BY id LIMIT 4 OFFSET 1", []),
        ]:
            self._everywhere(sql, params)

    def test_order_by_aggregate_output_expression(self):
        results = self._everywhere(
            "SELECT g, COUNT(*) AS c FROM t GROUP BY g ORDER BY COUNT(*), g",
        )
        counts = [row[1] for row in results["interp"].rows]
        assert counts == sorted(counts)

    def test_order_by_aggregate_not_in_output_rejected_identically(self):
        rows = _rows()
        sql = "SELECT g, COUNT(*) FROM t GROUP BY g ORDER BY SUM(v)"
        messages = set()
        for database in (
            _fill(Database(engine="interpreted"), rows),
            _fill(Database(), rows),
        ):
            with pytest.raises((SemanticError, ExecutionError)) as excinfo:
                database.query(sql)
            messages.add(str(excinfo.value))
        assert len(messages) == 1


class TestMaintenance:
    def test_rolled_back_inserts_stay_invisible_to_the_probe(self):
        indexed, plain = _pair()
        for database in (indexed, plain):
            database.execute("BEGIN")
            database.executemany(
                "INSERT INTO t (id, v, g) VALUES (?, ?, ?)",
                [(100 + i, 7.0 + i, 0) for i in range(5)],
            )
            database.execute("ROLLBACK")
        sql = "SELECT id, v FROM t WHERE v >= ? AND v < ? ORDER BY id"
        got = indexed.query(sql, [6.0, 14.0])
        assert got.rows == plain.query(sql, [6.0, 14.0]).rows
        assert got.stats.range_probes == 1
        assert all(row[0] < 100 for row in got.rows)

    def test_rolled_back_delete_keeps_rows_probeable(self):
        indexed, plain = _pair()
        for database in (indexed, plain):
            database.execute("BEGIN")
            database.execute("DELETE FROM t WHERE v > ?", [5.0])
            database.execute("ROLLBACK")
        sql = "SELECT id, v FROM t WHERE v > ? ORDER BY id"
        assert indexed.query(sql, [5.0]).rows == plain.query(sql, [5.0]).rows
        assert indexed.query(sql, [5.0]).rows != []

    def test_delete_then_probe(self):
        indexed, plain = _pair()
        for database in (indexed, plain):
            database.execute("DELETE FROM t WHERE g = ?", [2])
        sql = "SELECT id, v, g FROM t WHERE v >= ? AND v <= ? ORDER BY id"
        got = indexed.query(sql, [0.0, 50.0])
        assert got.rows == plain.query(sql, [0.0, 50.0]).rows
        assert all(row[2] != 2 for row in got.rows)

    def test_pushdown_after_dml_churn(self):
        indexed, plain = _pair()
        for database in (indexed, plain):
            database.execute("DELETE FROM t WHERE g = ?", [1])
            database.executemany(
                "INSERT INTO t (id, v, g) VALUES (?, ?, ?)",
                [(200 + i, float(i) / 3.0, 1) for i in range(12)],
            )
        for sql in (
            "SELECT id, v FROM t ORDER BY v LIMIT 9",
            "SELECT id, v FROM t ORDER BY v DESC LIMIT 9 OFFSET 2",
        ):
            assert indexed.query(sql).rows == plain.query(sql).rows, sql


class TestDurability:
    def test_ordered_index_survives_wal_replay(self, tmp_path):
        wal_path = str(tmp_path / "ordered.wal")
        database = _fill(
            Database(wal_path=wal_path, wal_autocheckpoint=None),
            _rows(),
        )
        expected = database.query(
            "SELECT id, v FROM t WHERE v > ? AND v < ? ORDER BY id", [4.0, 16.0]
        )
        database.close()
        with Database(wal_path=wal_path) as recovered:
            got = recovered.query(
                "SELECT id, v FROM t WHERE v > ? AND v < ? ORDER BY id", [4.0, 16.0]
            )
            assert got.rows == expected.rows
            # The replayed CREATE INDEX record carries the ordered flag:
            # the probe path is live again, not a silent downgrade to scan.
            assert got.stats.range_probes == 1

    def test_ordered_index_survives_checkpoint_restore(self, tmp_path):
        wal_path = str(tmp_path / "ordered-ckpt.wal")
        database = _fill(
            Database(wal_path=wal_path, wal_autocheckpoint=None),
            _rows(),
        )
        database.checkpoint()
        database.executemany(
            "INSERT INTO t (id, v, g) VALUES (?, ?, ?)",
            [(500, 4.25, 0), (501, None, 1)],
        )
        expected = database.query(
            "SELECT id, v FROM t WHERE v BETWEEN ? AND ? ORDER BY id", [4.0, 9.0]
        )
        database.close()
        with Database(wal_path=wal_path) as recovered:
            got = recovered.query(
                "SELECT id, v FROM t WHERE v BETWEEN ? AND ? ORDER BY id", [4.0, 9.0]
            )
            assert got.rows == expected.rows
            assert got.stats.range_probes == 1
            assert any(row[0] == 500 for row in got.rows)


class TestExplain:
    def test_explain_shows_range_probe_and_estimates(self):
        indexed, _plain = _pair()
        text = indexed.explain("SELECT id FROM t WHERE v > 10 AND v < 20")
        assert "range-probe" in text

    def test_explain_analyze_reports_estimated_vs_actual(self):
        indexed, _plain = _pair()
        text = indexed.explain(
            "SELECT id FROM t WHERE v > 10 AND v < 20", analyze=True
        )
        assert "analyze:" in text
        assert "actual_rows" in text
        assert "range probes 1" in text

    def test_explain_analyze_counts_land_in_summary(self):
        indexed, _plain = _pair()
        before = indexed.summary.selects
        indexed.explain("SELECT id FROM t WHERE v > 10", analyze=True)
        assert indexed.summary.selects == before + 1
