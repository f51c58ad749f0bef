"""Process-pool partition execution: PlanSpec lowering, differential
equivalence against the sequential engine, DML shard re-sync, worker
robustness (killed/crashed workers, pool rebuild) and pool lifecycle
(context managers, idempotent close, shared pools)."""

from __future__ import annotations

import os
import pickle
import signal
import time

import pytest

from repro.relalg import (
    Database,
    ExecutionError,
    PlanSpec,
    ProcessScanExecutor,
    backend,
    lower_plan,
    parse_sql,
    plan_select,
)
from repro.relalg.compile import ExecContext, SlotLayout, compile_row_expr
from repro.relalg import parallel
from repro.relalg.rowset import QueryStats
from repro.relalg.parallel import _compile_driving_scan


def _populate(db: Database) -> Database:
    db.execute(
        "CREATE TABLE m (id INTEGER PRIMARY KEY, g INTEGER, x FLOAT, s VARCHAR)"
    )
    db.execute("CREATE TABLE r (id INTEGER PRIMARY KEY, m_id INTEGER, v FLOAT)")
    db.executemany(
        "INSERT INTO m (id, g, x, s) VALUES (?, ?, ?, ?)",
        [
            (i, i % 7, float(i) * 1.5, ["alpha", "beta", None][i % 3])
            for i in range(120)
        ],
    )
    db.executemany(
        "INSERT INTO r (id, m_id, v) VALUES (?, ?, ?)",
        [(i, (i * 11) % 120, float(i % 13)) for i in range(60)],
    )
    return db


def _sequential(n_partitions=5) -> Database:
    return _populate(Database(n_partitions=n_partitions))


_QUERIES = [
    ("SELECT id, g, x FROM m WHERE g = ? AND x > ? ORDER BY id", [3, 20.0]),
    ("SELECT COUNT(*), SUM(x), MIN(x), MAX(x) FROM m WHERE x > ?", [30.0]),
    ("SELECT DISTINCT g FROM m WHERE s IS NOT NULL ORDER BY g", []),
    ("SELECT g, COUNT(*) AS c FROM m GROUP BY g HAVING COUNT(*) > ? ORDER BY g", [2]),
    ("SELECT g, SUM(g + id), AVG(id + id), COUNT(*) FROM m GROUP BY g ORDER BY g", []),
    (
        "SELECT m.id, r.id, r.v FROM m, r WHERE m.id = r.m_id AND m.x > ? "
        "ORDER BY m.id, r.id LIMIT 25",
        [5.0],
    ),
    ("SELECT m.id, r.id FROM m, r WHERE m.g = r.m_id ORDER BY m.id, r.id", []),
    ("SELECT id FROM m WHERE g IN (?, ?) ORDER BY id DESC LIMIT 7", [1, 5]),
]


class TestPlanSpecLowering:
    def test_spec_is_plain_picklable_data(self):
        db = _sequential()
        plan = plan_select(
            parse_sql("SELECT m.id, r.v FROM m, r WHERE m.id = r.m_id AND m.x > ?"),
            db.tables,
        )
        spec = lower_plan(plan)
        assert isinstance(spec, PlanSpec)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.width == plan.layout.width
        assert clone.table_uid == plan.levels[0].table.uid

    def test_eligibility_gates(self):
        partitioned = _sequential()
        single = _populate(Database())
        scan = parse_sql("SELECT id FROM m WHERE x > ?")
        assert lower_plan(plan_select(scan, partitioned.tables)).process_eligible
        assert not lower_plan(plan_select(scan, single.tables)).process_eligible
        subquery = parse_sql(
            "SELECT id FROM m WHERE x > (SELECT MIN(v) FROM r)"
        )
        assert not lower_plan(
            plan_select(subquery, partitioned.tables)
        ).process_eligible
        point = parse_sql("SELECT * FROM m WHERE id = ?")
        assert not lower_plan(
            plan_select(point, partitioned.tables)
        ).process_eligible  # index-probe driving level: nothing to fan out

    def test_worker_rehydration_matches_parent_compilation(self):
        db = _sequential()
        plan = plan_select(
            parse_sql("SELECT id FROM m WHERE g = ? AND x > ?"), db.tables
        )
        spec = lower_plan(plan)
        entry = _compile_driving_scan(spec)
        table_uid, offset, end, width, filter_fns, batch_fn = entry
        assert table_uid == db.table("m").uid
        assert batch_fn is not None  # plain comparisons batch-compile
        assert (offset, end, width) == (0, 4, 4)
        ctx = ExecContext([3, 20.0], QueryStats())
        survivors = []
        row = [None] * width
        for _pid, chunk in db.table("m").scan_chunks():
            for candidate in chunk:
                row[offset:end] = candidate
                if all(fn(row, ctx) for fn in filter_fns):
                    survivors.append(candidate[0])
        expected = [r[0] for r in db.query(
            "SELECT id FROM m WHERE g = ? AND x > ?", [3, 20.0]
        )]
        assert sorted(survivors) == sorted(expected)

    def test_layout_from_column_names_matches_table_layout(self):
        db = _sequential()
        bindings = [("m", db.table("m")), ("r", db.table("r"))]
        original = SlotLayout(bindings)
        rebuilt = SlotLayout.from_column_names(
            [("m", ["id", "g", "x", "s"]), ("r", ["id", "m_id", "v"])]
        )
        assert rebuilt.offsets == original.offsets
        assert rebuilt.columns == original.columns
        assert rebuilt.width == original.width


class TestProcessExecutorEquivalence:
    @pytest.mark.parametrize("sql, params", _QUERIES)
    def test_matches_sequential_results_and_stats(self, sql, params, process_pool):
        sequential = _sequential()
        with _populate(Database(n_partitions=5, executor=process_pool)) as db:
            expected = sequential.query(sql, params)
            got = db.query(sql, params)
            assert got.columns == expected.columns
            assert got.rows == expected.rows
            assert got.stats == expected.stats
            assert (
                got.stats.partition_rows_scanned
                == expected.stats.partition_rows_scanned
            )

    def test_dml_resyncs_stale_shards(self, process_pool):
        sequential = _sequential()
        with _populate(Database(n_partitions=5, executor=process_pool)) as db:
            sql = "SELECT g, COUNT(*), SUM(x) FROM m WHERE x > ? GROUP BY g ORDER BY g"
            assert db.query(sql, [0.0]).rows == sequential.query(sql, [0.0]).rows
            for target in (db, sequential):
                target.executemany(
                    "INSERT INTO m (id, g, x, s) VALUES (?, ?, ?, ?)",
                    [(1000 + i, i % 7, 999.0 + i, "new") for i in range(15)],
                )
                target.execute("DELETE FROM m WHERE g = ?", [2])
            got = db.query(sql, [0.0])
            expected = sequential.query(sql, [0.0])
            assert got.rows == expected.rows
            assert got.stats == expected.stats

    def test_ineligible_plans_fall_back_to_local_execution(self, process_pool):
        sequential = _sequential()
        with _populate(Database(n_partitions=5, executor=process_pool)) as db:
            for sql, params in [
                ("SELECT id FROM m WHERE x > (SELECT MIN(v) FROM r) ORDER BY id", []),
                ("SELECT * FROM m WHERE id = ?", [42]),
            ]:
                got = db.query(sql, params)
                expected = sequential.query(sql, params)
                assert got.rows == expected.rows
                assert got.stats == expected.stats

    def test_ddl_between_queries_reships_the_new_plan(self, process_pool):
        sequential = _sequential()
        with _populate(Database(n_partitions=5, executor=process_pool)) as db:
            sql = "SELECT id FROM m WHERE g = ? ORDER BY id"
            assert db.query(sql, [4]).rows == sequential.query(sql, [4]).rows
            for target in (db, sequential):
                target.execute("CREATE INDEX idx_m_g ON m (g)")
            got = db.query(sql, [4])
            expected = sequential.query(sql, [4])
            assert got.rows == expected.rows
            assert got.stats == expected.stats

    def test_shared_pool_serves_same_named_tables_of_two_databases(
        self, process_pool
    ):
        with Database(n_partitions=4, executor=process_pool) as first, \
                Database(n_partitions=4, executor=process_pool) as second:
            for db, rows in ((first, 40), (second, 7)):
                db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v FLOAT)")
                db.executemany(
                    "INSERT INTO t (id, v) VALUES (?, ?)",
                    [(i, float(i)) for i in range(rows)],
                )
            sql = "SELECT COUNT(*) FROM t WHERE v >= ?"
            assert first.query(sql, [0.0]).scalar() == 40
            assert second.query(sql, [0.0]).scalar() == 7

    def test_empty_partitions_and_empty_tables(self, process_pool):
        with Database(n_partitions=6, executor=process_pool) as db:
            db.execute("CREATE TABLE e (id INTEGER PRIMARY KEY, v FLOAT)")
            assert db.query("SELECT * FROM e WHERE v > ?", [0.0]).rows == []
            db.execute("INSERT INTO e (id, v) VALUES (?, ?)", [1, 5.0])
            assert db.query("SELECT id FROM e WHERE v > ?", [0.0]).rows == [(1,)]


class TestWorkerRobustness:
    def _fresh(self) -> Database:
        return _populate(
            Database(n_partitions=4, parallel=2, executor="process")
        )

    def test_killed_worker_raises_typed_error_then_pool_rebuilds(self):
        with self._fresh() as db:
            sql = "SELECT COUNT(*) FROM m WHERE x > ?"
            expected = db.query(sql, [10.0]).scalar()
            pool = db._process_pool()
            victim = pool.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                try:
                    os.kill(victim, 0)
                except OSError:
                    break
                time.sleep(0.01)
            with pytest.raises(ExecutionError, match="worker"):
                db.query(sql, [10.0])
            assert not pool.running
            # The next statement rebuilds the pool and re-syncs the shards.
            assert db.query(sql, [10.0]).scalar() == expected
            assert pool.running
            assert victim not in pool.worker_pids()

    def test_worker_side_engine_error_is_typed_and_pool_survives(self):
        with self._fresh() as db:
            with pytest.raises(ExecutionError, match="division by zero"):
                db.query("SELECT id FROM m WHERE x / ? > 1", [0])
            pool = db._process_pool()
            pids = pool.worker_pids()
            assert pool.running
            result = db.query("SELECT COUNT(*) FROM m WHERE x > ?", [0.0])
            assert result.scalar() == 119  # one row has x == 0.0
            assert pool.worker_pids() == pids

    def test_close_is_idempotent_across_all_executors(self, process_pool):
        databases = [
            Database(n_partitions=4),
            Database(n_partitions=4, parallel=2, executor="process"),
            Database(n_partitions=4, executor=process_pool),
        ]
        for db in databases:
            _populate(db)
            db.query("SELECT COUNT(*) FROM m WHERE x > ?", [0.0])
            db.close()
            db.close()

    def test_borrowed_pool_is_not_shut_down_by_database_close(self, process_pool):
        with Database(n_partitions=4, executor=process_pool) as db:
            db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v FLOAT)")
            db.executemany(
                "INSERT INTO t (id, v) VALUES (?, ?)",
                [(i, float(i)) for i in range(20)],
            )
            db.query("SELECT COUNT(*) FROM t WHERE v > ?", [1.0])
        assert process_pool.running  # close() only forgot this db's shards
        with Database(n_partitions=4, executor=process_pool) as db:
            db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v FLOAT)")
            db.execute("INSERT INTO t (id, v) VALUES (?, ?)", [1, 1.0])
            assert db.query("SELECT COUNT(*) FROM t WHERE v > ?", [0.0]).scalar() == 1

    def test_owned_pool_shuts_down_on_close_and_revives_lazily(self):
        db = self._fresh()
        db.query("SELECT COUNT(*) FROM m WHERE x > ?", [0.0])
        pool = db._process_pool()
        assert pool.running
        db.close()
        assert not pool.running
        # A closed owned executor is recreated on the next parallel
        # statement.
        assert db.query("SELECT COUNT(*) FROM m WHERE x > ?", [0.0]).scalar() == 119
        db.close()

    def test_context_manager_shuts_the_owned_pool_down(self):
        with self._fresh() as db:
            db.query("SELECT COUNT(*) FROM m WHERE x > ?", [0.0])
            pool = db._process_pool()
            assert pool.running
        assert not pool.running

    def test_evicted_spec_is_reshipped_not_desynced(self, monkeypatch):
        # Regression: the worker's FIFO spec cache evicted entries the
        # parent still believed were cached, permanently breaking any
        # statement whose plan outlived its worker-side compilation.  The
        # parent now mirrors the eviction rule and re-ships evicted specs.
        monkeypatch.setattr(parallel, "DEFAULT_SPEC_CACHE_LIMIT", 2)
        with ProcessScanExecutor(workers=1) as pool, \
                _populate(Database(n_partitions=4, executor=pool)) as db:
            first = "SELECT id FROM m WHERE g = ? ORDER BY id"
            expected = db.query(first, [1]).rows
            for i in range(5):  # five distinct plans → first spec evicted
                db.query(
                    f"SELECT id FROM m WHERE g = ? AND x > {i}.0 ORDER BY id",
                    [1],
                )
            assert db.query(first, [1]).rows == expected

    def test_dropped_table_shards_are_forgotten(self, process_pool):
        # Regression: DROP TABLE left the dropped generation's shard
        # replicas in every worker forever (close() only forgets tables
        # still present).
        with Database(n_partitions=4, executor=process_pool) as db:
            for generation in range(3):
                db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v FLOAT)")
                db.executemany(
                    "INSERT INTO t (id, v) VALUES (?, ?)",
                    [(i, float(i + generation)) for i in range(30)],
                )
                uid = db.table("t").uid
                assert db.query(
                    "SELECT COUNT(*) FROM t WHERE v >= ?", [0.0]
                ).scalar() == 30
                db.execute("DROP TABLE t")
                for handle in process_pool._handles:
                    assert not any(
                        key[0] == uid for key in handle.versions
                    ), generation

    def test_shutdown_pool_refuses_new_work(self):
        pool = ProcessScanExecutor(workers=2)
        pool.shutdown()
        with Database(n_partitions=4, executor=pool) as db:
            _populate(db)
            with pytest.raises(ExecutionError, match="shut down"):
                db.query("SELECT COUNT(*) FROM m WHERE x > ?", [0.0])


class TestExecutorSelection:
    def test_default_is_sequential(self):
        assert Database().executor == "sequential"
        assert Database(parallel=2, executor="process").executor == "process"

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown executor"):
            Database(executor="fibers")
        with pytest.raises(ValueError, match="parallel"):
            Database(executor="process")
        with pytest.raises(ValueError, match="sequential"):
            Database(parallel=2, executor="sequential")
        with pytest.raises(ValueError, match="workers"):
            ProcessScanExecutor(workers=0)
        with pytest.raises(ValueError, match="timeout"):
            ProcessScanExecutor(timeout=0)
        # The backend passthrough must not silently ignore a requested
        # fan-out (it would make wall-clock comparisons measure sequential
        # execution); it mirrors Database's validation instead.
        with pytest.raises(ValueError, match="parallelism"):
            backend("oracle7", executor="process")

    def test_thread_executor_is_refused(self):
        # Parallel workers are worker processes: a thread request is refused
        # with a typed error, never silently run sequentially.
        with pytest.raises(ValueError, match="unknown executor 'thread'"):
            Database(parallel=2, executor="thread")
        with pytest.raises(ValueError, match="executor='process'"):
            Database(parallel=2)
        with pytest.raises(ValueError, match="unknown executor 'thread'"):
            backend("oracle7", parallelism=2, executor="thread")
        # Virtual parallelism alone stays: the backend charges the makespan
        # and the engine executes sequentially.
        with backend("oracle7", n_partitions=4, parallelism=4) as served:
            assert served.database.executor == "sequential"
