"""Tests of the plan-then-execute engine: planning, caching, hash joins.

Several tests run the same statement through both engines — the compiled
planner (:mod:`repro.relalg.planner`) and the seed AST interpreter
(:mod:`repro.relalg.interp`) — and assert identical results; on index/scan
access paths the :class:`QueryStats` counters must be identical too (the A1
ablation depends on them).
"""

import pytest

import repro.relalg.database as database_module
from repro.relalg import (
    Database,
    ExecutionError,
    QueryStats,
    SchemaError,
    plan_select,
)
from repro.relalg.interp import InterpretedSelectExecutor
from repro.relalg.planner import QueryPlan
from repro.relalg.sqlparser import parse_sql


def make_db(engine="compiled"):
    db = Database(engine=engine)
    db.execute(
        "CREATE TABLE measurements (id INTEGER PRIMARY KEY, region VARCHAR, "
        "run_id INTEGER, value FLOAT)"
    )
    db.executemany(
        "INSERT INTO measurements (id, region, run_id, value) VALUES (?, ?, ?, ?)",
        [
            (1, "main", 1, 10.0),
            (2, "main", 2, None),
            (3, "loop", 1, 4.0),
            (4, "loop", 2, 8.0),
            (5, "io", 1, 1.0),
        ],
    )
    db.execute("CREATE TABLE runs (id INTEGER PRIMARY KEY, pes INTEGER)")
    db.executemany("INSERT INTO runs (id, pes) VALUES (?, ?)", [(1, 2), (2, 8)])
    return db


@pytest.fixture()
def db():
    return make_db()


def run_both(sql, params=()):
    """Execute ``sql`` on the compiled and the interpreted engine."""
    compiled = make_db("compiled").query(sql, params)
    interpreted = make_db("interpreted").query(sql, params)
    return compiled, interpreted


PARITY_QUERIES = [
    "SELECT * FROM measurements",
    "SELECT id, value FROM measurements WHERE value IS NOT NULL ORDER BY value DESC",
    "SELECT DISTINCT region FROM measurements ORDER BY region",
    "SELECT region, COUNT(*) AS n, SUM(value) FROM measurements "
    "GROUP BY region HAVING COUNT(*) > 1 ORDER BY n DESC, region",
    "SELECT m.id, r.pes FROM measurements m JOIN runs r ON m.run_id = r.id "
    "WHERE r.pes = 8 ORDER BY m.id",
    "SELECT COUNT(*) FROM measurements WHERE region IN ('main', 'io')",
    "SELECT UPPER(region), COALESCE(value, 0) FROM measurements WHERE id = 2",
    "SELECT id FROM measurements WHERE id = 3 AND region = 'loop'",
    "SELECT COUNT(*) FROM measurements m, runs r",
    "SELECT id FROM runs WHERE pes = (SELECT MAX(run_id) FROM measurements)",
    "SELECT id, value FROM measurements ORDER BY 2 DESC, 1",
    "SELECT value FROM measurements WHERE value > ? LIMIT 2",
]


class TestEngineParity:
    @pytest.mark.parametrize("sql", PARITY_QUERIES)
    def test_identical_results(self, sql):
        params = (3.0,) if "?" in sql else ()
        compiled, interpreted = run_both(sql, params)
        assert compiled.columns == interpreted.columns
        assert compiled.rows == interpreted.rows

    @pytest.mark.parametrize(
        "sql",
        [
            # Index/scan access paths (no hash join): the physical counters
            # must be byte-identical between the engines.
            "SELECT id FROM measurements WHERE id = 4",
            "SELECT id, value FROM measurements WHERE region = 'loop'",
            "SELECT region, COUNT(*) FROM measurements GROUP BY region",
            "SELECT r.pes FROM measurements m JOIN runs r ON r.id = m.run_id "
            "WHERE m.region = 'loop'",
            "SELECT pes FROM runs WHERE id = (SELECT MIN(run_id) FROM measurements)",
        ],
    )
    def test_identical_query_stats(self, sql):
        compiled, interpreted = run_both(sql)
        assert compiled.rows == interpreted.rows
        assert compiled.stats == interpreted.stats


class TestPlanShapes:
    def test_index_probe_is_chosen_for_indexed_equality(self, db):
        plan = plan_select(parse_sql("SELECT * FROM measurements WHERE id = 3"),
                           db.tables)
        (level,) = plan.describe()
        assert level["binding"] == "measurements"
        assert level["table"] == "measurements"
        assert level["access"] == "index-probe"
        assert level["column"] == "id"
        assert level["filters"] == 0
        # 5 rows, 5 distinct primary keys: the probe expects one match.
        assert level["estimated_rows"] == 1.0

    def test_hash_join_is_chosen_for_unindexed_equi_join(self, db):
        plan = plan_select(
            parse_sql(
                "SELECT m.id FROM measurements m JOIN runs r ON m.run_id = r.id "
                "WHERE r.pes = 8"
            ),
            db.tables,
        )
        described = {level["binding"]: level["access"] for level in plan.describe()}
        # The planner binds `runs` first (its filter is available) and then
        # hash-joins the unindexed measurements.run_id column.
        assert described == {"r": "scan", "m": "hash-probe"}

    def test_join_order_follows_bound_predicate_availability(self, db):
        plan = plan_select(
            parse_sql(
                "SELECT m.id FROM measurements m, runs r "
                "WHERE r.pes = 8 AND m.run_id = r.id"
            ),
            db.tables,
        )
        assert [level["binding"] for level in plan.describe()] == ["r", "m"]

    def test_constant_equality_on_unindexed_column_stays_a_scan(self, db):
        plan = plan_select(
            parse_sql("SELECT id FROM measurements WHERE region = 'loop'"),
            db.tables,
        )
        assert plan.describe()[0]["access"] == "scan"


def _three_table_db():
    """Three tables of 40, 200 and 400 rows, each with a hash index on
    ``k`` (7 distinct keys), an ordered index on ``v`` (``v = id``) and an
    unindexed ``u``."""
    db = Database()
    for name, rows in (("small", 40), ("mid", 200), ("big", 400)):
        db.execute(
            f"CREATE TABLE {name} (id INTEGER PRIMARY KEY, k INTEGER, "
            "v INTEGER, u INTEGER)"
        )
        db.execute(f"CREATE INDEX {name}_k ON {name} (k)")
        db.execute(f"CREATE INDEX {name}_v ON {name} (v) ORDERED")
        db.executemany(
            f"INSERT INTO {name} (id, k, v, u) VALUES (?, ?, ?, ?)",
            [(i, i % 7, i, i % 11) for i in range(rows)],
        )
    return db


#: ``(sql, [(binding, access, estimated rows), ...] in join order)``: the
#: join-order rule.  A level is chosen by tier (index probe, range probe,
#: hash join, filtered scan, bare scan), then by estimate within the three
#: probe tiers, then by syntactic position.
JOIN_ORDER_CASES = {
    "index probe before a cheaper range probe": (
        "SELECT * FROM small, big WHERE small.v > 39 AND big.k = 1",
        [("big", "index-probe", 57.143), ("small", "range-probe", 0.0)],
    ),
    "lower index estimate before syntactic order": (
        "SELECT * FROM big, small WHERE big.k = 1 AND small.k = 1",
        [("small", "index-probe", 5.714), ("big", "index-probe", 57.143)],
    ),
    "equal estimates keep syntactic order": (
        "SELECT * FROM small a, small b WHERE b.k = 2 AND a.k = 3",
        [("a", "index-probe", 5.714), ("b", "index-probe", 5.714)],
    ),
    "filtered scan before a smaller bare scan": (
        "SELECT * FROM small, big WHERE big.u = 3",
        [("big", "scan", 40.0), ("small", "scan", 40.0)],
    ),
    "filtered scans keep syntactic order": (
        "SELECT * FROM big, small WHERE small.u = 3 AND big.u = 4",
        [("big", "scan", 40.0), ("small", "scan", 4.0)],
    ),
    "later round: range probe before hash join": (
        "SELECT * FROM small s, mid m, big b "
        "WHERE s.k = 1 AND m.u = s.u AND b.v < s.v",
        [
            ("s", "index-probe", 5.714),
            ("b", "range-probe", 133.333),
            ("m", "hash-probe", 20.0),
        ],
    ),
    "hash joins ordered by estimate": (
        "SELECT * FROM small s, big b, mid m "
        "WHERE s.k = 1 AND b.u = s.u AND m.u = s.u",
        [
            ("s", "index-probe", 5.714),
            ("m", "hash-probe", 20.0),
            ("b", "hash-probe", 40.0),
        ],
    ),
}


class TestJoinOrderRule:
    @pytest.mark.parametrize(
        "sql,expected", list(JOIN_ORDER_CASES.values()),
        ids=list(JOIN_ORDER_CASES),
    )
    def test_join_order(self, sql, expected):
        db = _three_table_db()
        plan = plan_select(parse_sql(sql), db.tables)
        assert [
            (level["binding"], level["access"], level["estimated_rows"])
            for level in plan.describe()
        ] == expected
        # The order serves the same rows as the reference engine's.
        interpreted = Database(engine="interpreted")
        for name, table in db.tables.items():
            interpreted.execute(table.schema.sql())
            interpreted.executemany(
                f"INSERT INTO {name} VALUES ({', '.join('?' * 4)})",
                [row for row in table.rows if row is not None],
            )
        assert sorted(db.query(sql).rows) == sorted(
            interpreted.query(sql).rows
        )


class TestHashJoin:
    def test_hash_join_results_match_the_interpreter(self):
        sql = ("SELECT m.id, r.pes FROM measurements m JOIN runs r "
               "ON m.run_id = r.id ORDER BY m.id")
        compiled, interpreted = run_both(sql)
        assert compiled.rows == interpreted.rows

    def test_hash_join_builds_once_and_probes_per_outer_row(self, db):
        result = db.query(
            "SELECT m.id FROM measurements m JOIN runs r ON m.run_id = r.id "
            "WHERE r.pes = 8"
        )
        assert sorted(row[0] for row in result) == [2, 4]
        # runs scan (2) + one-time hash build over measurements (5) + the two
        # matching probe results.
        assert result.stats.rows_scanned == 9
        assert result.stats.hash_probes == 1
        assert result.stats.index_lookups == 0

    def test_null_join_keys_never_match(self):
        for engine in ("compiled", "interpreted"):
            db = make_db(engine)
            db.execute(
                "INSERT INTO measurements (id, region, run_id, value) "
                "VALUES (99, 'x', NULL, 0.5)"
            )
            result = db.query(
                "SELECT m.id FROM measurements m JOIN runs r ON m.run_id = r.id"
            )
            assert 99 not in [row[0] for row in result]
            assert len(result) == 5


class TestStalePlanFallback:
    """A cached plan whose index was dropped directly on the table — behind
    the plan cache's back — falls back to a filtered scan with the same rows,
    on the vectorized and on the row-at-a-time engine."""

    @pytest.mark.parametrize("vectorized", [True, False],
                             ids=["vectorized", "row-at-a-time"])
    @pytest.mark.parametrize(
        "column, ddl_suffix, sql, params",
        [
            ("g", "", "SELECT id FROM t WHERE g = ? ORDER BY id", [2]),
            (
                "v", " ORDERED",
                "SELECT id FROM t WHERE v > ? AND v <= ? ORDER BY id",
                [3.0, 9.5],
            ),
        ],
    )
    def test_dropped_index_falls_back_to_a_filtered_scan(
        self, column, ddl_suffix, sql, params, vectorized
    ):
        db = Database(vectorized=vectorized)
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, g INTEGER, v FLOAT)")
        db.executemany(
            "INSERT INTO t (id, g, v) VALUES (?, ?, ?)",
            [(i, i % 5, i * 0.5) for i in range(40)],
        )
        db.execute(f"CREATE INDEX t_{column} ON t ({column}){ddl_suffix}")
        probed = db.query(sql, params)
        assert probed.stats.index_lookups + probed.stats.range_probes == 1
        assert probed.stats.rows_scanned < 40

        db.table("t").drop_index(column)
        fallback = db.query(sql, params)
        assert db.plan_cache_info()["hits"] == 1  # the stale plan ran
        assert fallback.rows == probed.rows
        assert fallback.stats.index_lookups == fallback.stats.range_probes == 0
        assert fallback.stats.rows_scanned == 40


class TestPlanCache:
    def test_repeated_execution_hits_the_plan_cache(self, db):
        sql = "SELECT id FROM measurements WHERE region = ?"
        first = db.query(sql, ["loop"])
        second = db.query(sql, ["io"])
        assert [row[0] for row in first] == [3, 4]
        assert [row[0] for row in second] == [5]
        info = db.plan_cache_info()
        assert info["hits"] == 1
        assert info["misses"] == 1
        assert info["size"] == 1

    def test_cached_statement_reexecution_skips_parse_and_plan(self, db, monkeypatch):
        parse_calls = []
        real_parse = database_module.parse_sql

        def counting_parse(sql):
            parse_calls.append(sql)
            return real_parse(sql)

        monkeypatch.setattr(database_module, "parse_sql", counting_parse)
        sql = "SELECT COUNT(*) FROM measurements WHERE run_id = ?"
        db.query(sql, [1])
        misses_after_first = db.plan_cache_info()["misses"]
        db.query(sql, [2])
        db.query(sql, [1])
        assert parse_calls == [sql]  # parsed exactly once
        info = db.plan_cache_info()
        assert info["misses"] == misses_after_first  # planned exactly once
        assert info["hits"] == 2

    def test_ddl_invalidates_cached_plans(self, db):
        sql = "SELECT id FROM measurements WHERE run_id = 2"
        before = db.query(sql)
        assert before.stats.index_lookups == 0  # run_id is not indexed yet
        db.execute("CREATE INDEX idx_run ON measurements (run_id)")
        after = db.query(sql)
        assert sorted(row[0] for row in after) == sorted(row[0] for row in before)
        assert after.stats.index_lookups == 1  # re-planned with the new index
        assert after.stats.rows_scanned == 2

    def test_plans_survive_data_modification(self, db):
        sql = "SELECT COUNT(*) FROM measurements WHERE region = 'loop'"
        assert db.query(sql).scalar() == 2
        db.execute(
            "INSERT INTO measurements (id, region, run_id, value) "
            "VALUES (6, 'loop', 1, 2.0)"
        )
        assert db.query(sql).scalar() == 3
        db.execute("DELETE FROM measurements WHERE region = 'loop'")
        assert db.query(sql).scalar() == 0
        assert db.plan_cache_info()["misses"] == 1

    def test_create_index_replans_only_its_table(self, db):
        sql = "SELECT id FROM measurements WHERE run_id = ? ORDER BY id"
        other = "SELECT pes FROM runs WHERE id = ?"
        before = db.query(sql, [1])
        db.query(other, [1])
        assert db.plan_cache_info() == {"hits": 0, "misses": 2, "size": 2}
        db.execute("CREATE INDEX idx_run ON measurements (run_id)")
        assert db.plan_cache_info()["size"] == 1  # the runs plan survives
        after = db.query(sql, [1])
        db.query(other, [1])
        assert db.plan_cache_info() == {"hits": 1, "misses": 3, "size": 2}
        assert after.rows == before.rows
        assert (before.stats.index_lookups, before.stats.rows_scanned) == (0, 5)
        assert (after.stats.index_lookups, after.stats.rows_scanned) == (1, 3)

    def test_drop_and_recreate_never_reuses_a_dropped_plan(self):
        db = Database()
        sql = "SELECT COUNT(*), MIN(v) FROM t WHERE v >= ?"
        for generation in range(3):
            db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v FLOAT)")
            db.executemany(
                "INSERT INTO t (id, v) VALUES (?, ?)",
                [(i, float(i + generation)) for i in range(30 + generation)],
            )
            assert db.query(sql, [0.0]).rows == [
                (30 + generation, float(generation))
            ]
            db.execute("DROP TABLE t")
            assert db.plan_cache_info()["size"] == 0
        assert db.plan_cache_info()["misses"] == 3
        with pytest.raises(SchemaError, match="unknown table"):
            db.query(sql, [0.0])

    def test_same_named_tables_of_two_databases_stay_apart(self):
        first, second = Database(), Database()
        for database, rows in ((first, 40), (second, 7)):
            database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v FLOAT)")
            database.executemany(
                "INSERT INTO t (id, v) VALUES (?, ?)",
                [(i, float(i)) for i in range(rows)],
            )
        sql = "SELECT COUNT(*) FROM t WHERE v >= ?"
        for _ in range(2):  # cold plans, then cached ones
            assert first.query(sql, [0.0]).scalar() == 40
            assert second.query(sql, [0.0]).scalar() == 7

    def test_a_failed_execution_leaves_the_cached_plan_usable(self, db):
        sql = "SELECT id FROM measurements WHERE value / ? > 1 ORDER BY id"
        with pytest.raises(ExecutionError, match="division by zero"):
            db.query(sql, [0])
        got = db.query(sql, [2])
        assert db.plan_cache_info()["hits"] == 1
        expected = make_db("interpreted").query(sql, [2])
        assert got.rows == expected.rows == [(1,), (3,), (4,)]
        assert got.stats == expected.stats


class TestEmptyTables:
    @pytest.mark.parametrize("engine", ["compiled", "interpreted"])
    def test_scans_and_aggregates_over_empty_tables(self, engine):
        db = Database(engine=engine)
        db.execute("CREATE TABLE e (id INTEGER PRIMARY KEY, v FLOAT)")
        empty = db.query("SELECT * FROM e WHERE v > ?", [0.0])
        assert empty.rows == []
        assert empty.stats.rows_scanned == 0
        aggregates = "SELECT COUNT(*), SUM(v), MIN(v) FROM e WHERE v > ?"
        assert db.query(aggregates, [0.0]).rows == [(0, None, None)]
        db.execute("INSERT INTO e (id, v) VALUES (?, ?)", [1, 5.0])
        one = db.query("SELECT id FROM e WHERE v > ?", [0.0])
        assert one.rows == [(1,)]
        assert one.stats.rows_scanned == 1
        assert db.query(aggregates, [0.0]).rows == [(1, 5.0, 5.0)]


class TestEstimates:
    def test_planner_estimates_follow_statistics(self):
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, g INTEGER)")
        db.executemany(
            "INSERT INTO t (id, g) VALUES (?, ?)", [(i, i % 4) for i in range(80)]
        )
        db.execute("CREATE INDEX t_g ON t (g)")
        (by_key,) = plan_select(
            parse_sql("SELECT * FROM t WHERE id = 3"), db.tables
        ).describe()
        (by_group,) = plan_select(
            parse_sql("SELECT * FROM t WHERE g = 3"), db.tables
        ).describe()
        # 80 rows over 80 distinct keys, and over 4 distinct groups.
        assert by_key["estimated_rows"] == 1.0
        assert by_group["estimated_rows"] == 20.0
        db.execute("DELETE FROM t WHERE g = ?", [0])
        (after,) = plan_select(
            parse_sql("SELECT * FROM t WHERE g = 3"), db.tables
        ).describe()
        assert after["estimated_rows"] == 20.0  # 60 rows over 3 groups


class TestDuplicateConjuncts:
    """Regression: duplicate conjuncts are partitioned by identity."""

    @pytest.mark.parametrize(
        "sql, expected",
        [
            ("SELECT id FROM measurements WHERE region = 'loop' AND region = 'loop'",
             [3, 4]),
            ("SELECT id FROM measurements WHERE id = 3 AND id = 3", [3]),
            ("SELECT m.id FROM measurements m JOIN runs r "
             "ON m.run_id = r.id AND m.run_id = r.id WHERE r.pes = 8", [2, 4]),
        ],
    )
    def test_duplicate_conjuncts_filter_correctly(self, sql, expected):
        compiled, interpreted = run_both(sql)
        assert sorted(row[0] for row in compiled) == expected
        assert sorted(row[0] for row in interpreted) == expected

    def test_duplicate_indexed_conjuncts_have_identical_stats(self):
        sql = "SELECT id FROM measurements WHERE id = 3 AND id = 3"
        compiled, interpreted = run_both(sql)
        assert compiled.stats == interpreted.stats
        assert compiled.stats.index_lookups == 1


class TestPlannerErrors:
    def test_unknown_column_is_reported(self, db):
        with pytest.raises(ExecutionError, match="unknown column"):
            db.query("SELECT bogus FROM runs")

    def test_ambiguous_column_is_reported(self, db):
        with pytest.raises(ExecutionError, match="ambiguous"):
            db.query("SELECT id FROM measurements m, runs r WHERE m.run_id = r.id")

    def test_missing_parameters_are_reported(self, db):
        with pytest.raises(ExecutionError, match="parameter"):
            db.query("SELECT id FROM runs WHERE pes = ?")

    def test_interpreted_engine_flag_is_validated(self):
        with pytest.raises(ValueError, match="unknown engine"):
            Database(engine="quantum")


class TestDirectPlanUse:
    def test_plan_select_returns_a_reusable_plan(self, db):
        statement = parse_sql("SELECT COUNT(*) FROM measurements WHERE run_id = ?")
        plan = plan_select(statement, db.tables)
        assert isinstance(plan, QueryPlan)
        assert plan.execute([1], QueryStats()).scalar() == 3
        assert plan.execute([2], QueryStats()).scalar() == 2

    def test_interpreted_executor_is_exported(self, db):
        statement = parse_sql("SELECT COUNT(*) FROM runs")
        executor = InterpretedSelectExecutor(db.tables)
        assert executor.execute(statement).scalar() == 2
