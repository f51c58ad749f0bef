"""Batched statement execution: storage, engine, cost model and caches.

Covers the bulk-insert pipeline end to end — `Table.insert_many` (deferred
index maintenance, atomic batches), the `Database.executemany` fast path,
the batched virtual cost model of `SimulatedBackend`/`DatabaseClient`, the
batched `DatabaseLoader`, and the plan-cache lifecycle (epoch bumps per DDL
kind, counters through the wrapper layers, one miss per SQL text under
`executemany`).
"""

import pytest

from repro.asl.specs import cosy_specification
from repro.bench import build_scenario, identical_table_contents, load_into_backend
from repro.relalg import (
    Column,
    ColumnType,
    Database,
    ExecutionError,
    IntegrityError,
    NativeClient,
    SchemaError,
    TableSchema,
    backend,
)


def _schema():
    return TableSchema(
        name="t",
        columns=[
            Column("id", ColumnType.INTEGER, primary_key=True),
            Column("g", ColumnType.INTEGER),
            Column("x", ColumnType.FLOAT),
        ],
    )


@pytest.fixture()
def db():
    database = Database()
    database.create_table(_schema())
    return database


class TestInsertMany:
    def test_inserts_rows_and_maintains_indexes(self, db):
        table = db.table("t")
        table.insert_many([(1, 7, 1.0), (2, 7, 2.0), (3, 8, None)])
        assert table.row_count == 3
        assert [row[0] for row in table.lookup("id", 2)] == [2]
        table.create_index("idx_g", "g")
        table.insert_many([(4, 7, 4.0)])
        assert sorted(row[0] for row in table.lookup("g", 7)) == [1, 2, 4]

    def test_empty_batch_is_a_no_op(self, db):
        assert db.table("t").insert_many([]) == 0
        assert db.table("t").row_count == 0

    def test_duplicate_primary_key_within_the_batch_is_atomic(self, db):
        table = db.table("t")
        table.insert((1, 0, 0.0))
        with pytest.raises(IntegrityError, match="duplicate primary key"):
            table.insert_many([(2, 1, 1.0), (3, 1, 2.0), (2, 1, 3.0)])
        # Nothing from the failed batch is visible: rows, indexes, tombstones.
        assert table.row_count == 1
        assert table.dead_count == 0
        assert list(table.lookup("id", 2)) == []
        assert list(table.lookup("id", 3)) == []

    def test_duplicate_primary_key_against_stored_rows_is_atomic(self, db):
        table = db.table("t")
        table.insert_many([(1, 0, 0.0), (2, 0, 0.5)])
        with pytest.raises(IntegrityError):
            table.insert_many([(3, 1, 1.0), (1, 1, 2.0)])
        assert table.row_count == 2
        assert list(table.lookup("id", 3)) == []

    def test_invalid_value_mid_batch_is_atomic(self, db):
        table = db.table("t")
        with pytest.raises(SchemaError):
            table.insert_many([(1, 0, 0.0), (2, "not-an-int", 1.0)])
        assert table.row_count == 0
        assert len(table.index_for("id")) == 0

    def test_batch_after_deletes_keeps_tombstone_accounting(self, db):
        table = db.table("t")
        table.insert_many([(i, i % 2, float(i)) for i in range(1, 11)])
        table.delete_where(lambda row: row[0] <= 5)
        assert table.dead_count == 5
        table.insert_many([(11, 0, 11.0), (12, 1, 12.0)])
        assert table.row_count == 7
        assert table.dead_count == 5  # batch appends; tombstones untouched
        assert [row[0] for row in table.lookup("id", 11)] == [11]


class TestExecutemanyBatchPath:
    def test_insert_batch_matches_row_at_a_time(self):
        batched = Database()
        row_wise = Database()
        rows = [(i, i % 3, float(i) if i % 4 else None) for i in range(1, 40)]
        for database in (batched, row_wise):
            database.create_table(_schema())
        batched.executemany("INSERT INTO t (id, g, x) VALUES (?, ?, ?)", rows)
        for params in rows:
            row_wise.execute("INSERT INTO t (id, g, x) VALUES (?, ?, ?)", params)
        assert list(batched.table("t").scan()) == list(row_wise.table("t").scan())

    def test_batch_counts_one_statement(self, db):
        db.executemany(
            "INSERT INTO t (id, g, x) VALUES (?, ?, ?)",
            [(1, 0, 1.0), (2, 0, 2.0), (3, 1, 3.0)],
        )
        assert db.summary.statements == 1
        assert db.summary.inserts == 1
        assert db.summary.rows_inserted == 3

    def test_empty_param_rows(self, db):
        assert db.executemany("INSERT INTO t (id, g, x) VALUES (?, ?, ?)", []) == 0
        assert db.summary.statements == 0
        assert db.total_rows() == 0

    def test_unmentioned_columns_become_null(self, db):
        db.executemany("INSERT INTO t (id) VALUES (?)", [(1,), (2,)])
        assert list(db.table("t").scan()) == [(1, None, None), (2, None, None)]

    def test_mid_batch_integrity_error_leaves_state_consistent(self, db):
        db.executemany("INSERT INTO t (id, g, x) VALUES (?, ?, ?)", [(1, 0, 1.0)])
        with pytest.raises(IntegrityError):
            db.executemany(
                "INSERT INTO t (id, g, x) VALUES (?, ?, ?)",
                [(2, 0, 2.0), (1, 0, 3.0)],
            )
        assert db.total_rows() == 1
        assert db.query("SELECT id FROM t ORDER BY id").rows == [(1,)]
        # The failed batch recorded no statement and no inserted rows.
        assert db.summary.rows_inserted == 1

    def test_missing_parameter_mid_batch_is_atomic(self, db):
        with pytest.raises(ExecutionError, match="parameter"):
            db.executemany(
                "INSERT INTO t (id, g, x) VALUES (?, ?, ?)", [(1, 0, 1.0), (2, 0)]
            )
        assert db.total_rows() == 0

    def test_multi_row_insert_statements_bind_per_parameter_row(self, db):
        db.executemany(
            "INSERT INTO t (id, g, x) VALUES (?, ?, ?), (?, ?, ?)",
            [(1, 0, 1.0, 2, 0, 2.0), (3, 1, 3.0, 4, 1, 4.0)],
        )
        assert db.query("SELECT COUNT(*) FROM t").scalar() == 4

    def test_select_executemany_still_works(self, db):
        db.executemany(
            "INSERT INTO t (id, g, x) VALUES (?, ?, ?)",
            [(i, i % 2, float(i)) for i in range(1, 6)],
        )
        total = db.executemany("SELECT id FROM t WHERE g = ?", [(0,), (1,)])
        assert total == 5


class TestPlanCacheLifecycle:
    def _warm(self, database):
        database.query("SELECT id FROM t ORDER BY id")
        database.query("SELECT id FROM t ORDER BY id")

    def test_epoch_bump_on_create_index(self, db):
        self._warm(db)
        assert db.plan_cache_info() == {"hits": 1, "misses": 1, "size": 1}
        db.execute("CREATE INDEX idx_g ON t (g)")
        db.query("SELECT id FROM t ORDER BY id")
        assert db.plan_cache_info()["misses"] == 2

    def test_drop_of_unrelated_table_keeps_cached_plans(self, db):
        # Per-table invalidation: DDL on `other` must not evict plans on `t`.
        db.execute("CREATE TABLE other (id INTEGER PRIMARY KEY)")
        self._warm(db)
        db.execute("DROP TABLE other")
        db.query("SELECT id FROM t ORDER BY id")
        info = db.plan_cache_info()
        assert info["misses"] == 1
        assert info["hits"] == 2

    def test_create_of_unrelated_table_keeps_cached_plans(self, db):
        self._warm(db)
        db.execute("CREATE TABLE other (id INTEGER PRIMARY KEY)")
        db.query("SELECT id FROM t ORDER BY id")
        info = db.plan_cache_info()
        assert info["misses"] == 1
        assert info["hits"] == 2

    def test_drop_of_dependent_table_invalidates(self, db):
        self._warm(db)
        db.execute("DROP TABLE t")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, g INTEGER, x FLOAT)")
        db.query("SELECT id FROM t ORDER BY id")
        # Dropping and recreating `t` bumps its epoch twice: re-planned.
        assert db.plan_cache_info()["misses"] == 2

    def test_subquery_table_dependency_invalidates(self, db):
        db.execute("CREATE TABLE s (id INTEGER PRIMARY KEY, v INTEGER)")
        sql = "SELECT id FROM t WHERE g = (SELECT MAX(v) FROM s)"
        db.query(sql)
        db.query(sql)
        assert db.plan_cache_info() == {"hits": 1, "misses": 1, "size": 1}
        # DDL on the *subquery* table must invalidate the outer plan too.
        db.execute("CREATE INDEX idx_s_v ON s (v)")
        db.query(sql)
        assert db.plan_cache_info()["misses"] == 2

    def test_mixed_invalidation_keeps_unrelated_plans_hot(self, db):
        db.execute("CREATE TABLE other (id INTEGER PRIMARY KEY, w INTEGER)")
        sql_t = "SELECT id FROM t ORDER BY id"
        sql_other = "SELECT id FROM other ORDER BY id"
        db.query(sql_t)
        db.query(sql_other)
        db.execute("CREATE INDEX idx_other_w ON other (w)")
        db.query(sql_t)      # hit: t untouched by the DDL
        db.query(sql_other)  # miss: other's epoch moved
        info = db.plan_cache_info()
        assert info["misses"] == 3
        assert info["hits"] == 1

    def test_executemany_selects_miss_exactly_once_per_sql_text(self, db):
        db.executemany(
            "INSERT INTO t (id, g, x) VALUES (?, ?, ?)",
            [(i, i % 2, float(i)) for i in range(1, 21)],
        )
        db.executemany("SELECT x FROM t WHERE g = ?", [(i % 2,) for i in range(10)])
        info = db.plan_cache_info()
        assert info["misses"] == 1
        assert info["hits"] == 9

    def test_counters_through_backend_and_client_wrappers(self):
        client = NativeClient(backend("ms_access"))
        client.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, g INTEGER)")
        client.executemany("INSERT INTO t (id, g) VALUES (?, ?)", [(1, 0), (2, 1)])
        client.executemany("SELECT id FROM t WHERE g = ?", [(0,), (1,), (0,)])
        info = client.plan_cache_info()
        assert info == client.backend.plan_cache_info()
        assert info == client.backend.database.plan_cache_info()
        assert info["misses"] == 1
        assert info["hits"] == 2


class TestBackendBatchCosts:
    def test_one_round_trip_per_batch(self):
        simulated = backend("oracle7", batch_size=10)
        simulated.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, x FLOAT)")
        before = simulated.elapsed
        rows = [(i + 1, float(i)) for i in range(25)]
        simulated.executemany("INSERT INTO t (id, x) VALUES (?, ?)", rows)
        profile = simulated.profile
        expected = 3 * (profile.round_trip + profile.per_insert_statement)
        expected += 25 * profile.per_insert_row
        assert simulated.elapsed - before == pytest.approx(expected)
        assert simulated.statements_executed == 4  # create + 3 batches
        assert simulated.rows_inserted == 25

    def test_batched_insert_beats_row_at_a_time(self):
        rows = [(i + 1, float(i)) for i in range(500)]
        batched = backend("oracle7")
        batched.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, x FLOAT)")
        batched.executemany("INSERT INTO t (id, x) VALUES (?, ?)", rows)
        row_wise = backend("oracle7")
        row_wise.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, x FLOAT)")
        for params in rows:
            row_wise.execute("INSERT INTO t (id, x) VALUES (?, ?)", params)
        assert row_wise.elapsed / batched.elapsed >= 5.0
        assert identical_table_contents(batched.database, row_wise.database)

    def test_batch_size_override_and_validation(self):
        simulated = backend("ms_access")
        simulated.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        simulated.executemany(
            "INSERT INTO t (id) VALUES (?)", [(i,) for i in range(6)], batch_size=2
        )
        assert simulated.statements_executed == 4  # create + 3 batches of 2
        with pytest.raises(ValueError):
            simulated.executemany("INSERT INTO t (id) VALUES (?)", [(9,)], batch_size=0)
        with pytest.raises(ValueError):
            backend("ms_access", batch_size=0)

    def test_select_executemany_is_charged_per_statement(self):
        # Result sets cannot be batched on the wire: each SELECT of an
        # executemany pays its own round trip, exactly like execute().
        simulated = backend("oracle7", batch_size=10)
        simulated.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, g INTEGER)")
        simulated.executemany(
            "INSERT INTO t (id, g) VALUES (?, ?)", [(i, i % 2) for i in range(6)]
        )
        statements_before = simulated.statements_executed
        before = simulated.elapsed
        total = simulated.executemany("SELECT id FROM t WHERE g = ?", [(0,), (1,)])
        assert total == 6
        assert simulated.statements_executed - statements_before == 2
        assert simulated.elapsed - before == pytest.approx(
            2 * simulated.profile.round_trip
            + 6 * simulated.profile.per_fetch_row
            # g is unindexed: each of the two SELECTs scans all six rows.
            + 12 * simulated.profile.per_scanned_row
        )

    def test_empty_executemany_charges_nothing(self):
        simulated = backend("oracle7")
        assert simulated.executemany("INSERT INTO t (id) VALUES (?)", []) == 0
        assert simulated.elapsed == 0.0

    def test_query_raises_execution_error_for_non_select(self):
        # Regression: this used to be a bare assert (vanishing under -O).
        simulated = backend("ms_access")
        simulated.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        with pytest.raises(ExecutionError, match="SELECT"):
            simulated.query("DELETE FROM t")

    def test_delete_is_not_charged_insert_costs(self):
        # Regression: DELETE returns an affected-row count, which must not be
        # mistaken for inserted rows by the cost model.  It is charged the
        # ten rows it reads.
        simulated = backend("oracle7")
        simulated.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        simulated.executemany("INSERT INTO t (id) VALUES (?)", [(i,) for i in range(10)])
        inserted_before = simulated.rows_inserted
        before = simulated.elapsed
        simulated.execute("DELETE FROM t")
        assert simulated.rows_inserted == inserted_before
        assert simulated.elapsed - before == pytest.approx(
            simulated.profile.round_trip
            + 10 * simulated.profile.per_scanned_row
        )


class TestDeleteReadsAreCharged:
    """A DELETE decides every live row of its table, so it is counted and
    charged a full scan of it plus its subqueries' counters, exactly what a
    SELECT with the same WHERE clause reads."""

    def _loaded(self, rows=200, **options):
        simulated = backend("oracle7", **options)
        simulated.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, x FLOAT)")
        simulated.executemany(
            "INSERT INTO t (id, x) VALUES (?, ?)",
            [(i, float(i)) for i in range(rows)],
        )
        return simulated

    @pytest.mark.parametrize(
        "where,params",
        [
            ("x > ?", [150.5]),
            ("x = (SELECT MIN(x) FROM t)", []),
        ],
        ids=["predicate", "subquery"],
    )
    def test_delete_reads_what_the_equivalent_select_reads(self, where, params):
        simulated = self._loaded()
        stats = simulated.query(f"SELECT COUNT(*) FROM t WHERE {where}", params).stats
        summary = simulated.database.summary
        scanned, subqueries = summary.rows_scanned, summary.select_stats.subqueries
        before = simulated.elapsed
        simulated.execute(f"DELETE FROM t WHERE {where}", params)
        assert summary.rows_scanned - scanned == stats.rows_scanned
        assert summary.select_stats.subqueries - subqueries == stats.subqueries
        profile = simulated.profile
        assert simulated.elapsed - before == pytest.approx(
            profile.round_trip + stats.rows_scanned * profile.per_scanned_row
        )

    def test_delete_without_where_reads_every_live_row(self):
        simulated = self._loaded()
        simulated.execute("DELETE FROM t WHERE x < ?", [50])
        scanned = simulated.database.summary.rows_scanned
        simulated.execute("DELETE FROM t")
        assert simulated.database.summary.rows_scanned - scanned == 150


class TestClientBatchCosts:
    def test_per_call_charged_once_per_batch(self):
        client = NativeClient(backend("ms_access", batch_size=10))
        client.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, x FLOAT)")
        client.reset_clock()
        rows = [(i + 1, float(i)) for i in range(30)]
        client.executemany("INSERT INTO t (id, x) VALUES (?, ?)", rows)
        costs = client.costs
        expected = 3 * costs.per_call + len(rows) * 2 * costs.per_param
        assert client.client_time == pytest.approx(expected)
        assert client.calls == 3  # 3 batches

    def test_query_raises_execution_error_for_non_select(self):
        client = NativeClient(backend("ms_access"))
        client.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        with pytest.raises(ExecutionError, match="SELECT"):
            client.query("DELETE FROM t")

    def test_failed_batch_still_charges_applied_sub_batches(self):
        client = NativeClient(backend("ms_access", batch_size=10))
        client.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        client.reset_clock()
        # Rows 0..9 commit as one batch; the duplicate in the second batch
        # aborts it, but the first batch's marshalling must still be charged.
        rows = [(i,) for i in range(15)]
        rows.append((0,))
        with pytest.raises(IntegrityError):
            client.executemany("INSERT INTO t (id) VALUES (?)", rows)
        costs = client.costs
        assert client.calls == 1
        assert client.client_time == pytest.approx(
            costs.per_call + 10 * costs.per_param
        )


class TestBatchedLoader:
    @pytest.fixture(scope="class")
    def scenario(self):
        return build_scenario(
            "mixed", pe_counts=(1, 2), specification=cosy_specification()
        )

    def test_batched_and_row_at_a_time_loads_are_identical(self, scenario):
        batched, batched_ids = load_into_backend(scenario, "ms_access")
        row_wise, row_ids = load_into_backend(scenario, "ms_access", batch_size=None)
        assert batched_ids.total() == row_ids.total()
        assert identical_table_contents(
            batched.backend.database, row_wise.backend.database
        )

    def test_batched_load_is_cheaper(self, scenario):
        batched, _ = load_into_backend(scenario, "oracle7")
        row_wise, _ = load_into_backend(scenario, "oracle7", batch_size=None)
        assert batched.elapsed < row_wise.elapsed

    def test_loader_rejects_non_positive_batch_size(self, scenario):
        from repro.compiler import DatabaseLoader

        with pytest.raises(ValueError):
            DatabaseLoader(scenario.mapping, Database(), batch_size=0)
