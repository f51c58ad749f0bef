"""Additional executor edge cases: ordering, NULLs, joins, result shapes."""

import pytest

from repro.relalg import Database, ExecutionError
from repro.relalg.rowset import QueryStats


@pytest.fixture()
def db():
    database = Database()
    database.execute(
        "CREATE TABLE measurements (id INTEGER PRIMARY KEY, region VARCHAR, "
        "run_id INTEGER, value FLOAT)"
    )
    rows = [
        (1, "main", 1, 10.0),
        (2, "main", 2, None),
        (3, "loop", 1, 4.0),
        (4, "loop", 2, 8.0),
        (5, "io", 1, 1.0),
    ]
    database.executemany(
        "INSERT INTO measurements (id, region, run_id, value) VALUES (?, ?, ?, ?)",
        rows,
    )
    database.execute("CREATE TABLE runs (id INTEGER PRIMARY KEY, pes INTEGER)")
    database.executemany("INSERT INTO runs (id, pes) VALUES (?, ?)", [(1, 2), (2, 8)])
    return database


class TestOrderingAndNulls:
    def test_order_by_ascending_puts_nulls_last(self, db):
        result = db.query("SELECT id, value FROM measurements ORDER BY value")
        assert [row[0] for row in result] == [5, 3, 4, 1, 2]

    def test_order_by_descending_treats_nulls_as_largest(self, db):
        # NULL sorts as the largest value: last in ASC, first in DESC.
        result = db.query("SELECT id, value FROM measurements ORDER BY value DESC")
        ids = [row[0] for row in result]
        assert ids[0] == 2
        assert ids[1] == 1
        assert ids[-1] == 5

    def test_order_by_multiple_keys(self, db):
        result = db.query(
            "SELECT region, run_id FROM measurements ORDER BY region, run_id DESC"
        )
        assert result.rows[0] == ("io", 1)
        assert result.rows[1] == ("loop", 2)

    def test_order_by_expression_over_source_rows(self, db):
        result = db.query(
            "SELECT id FROM measurements WHERE value IS NOT NULL ORDER BY value * -1"
        )
        assert [row[0] for row in result] == [1, 4, 3, 5]

    def test_order_by_output_alias_in_aggregate_query(self, db):
        result = db.query(
            "SELECT region, COUNT(*) AS n FROM measurements GROUP BY region ORDER BY n DESC, region"
        )
        assert result.rows[0][1] == 2

    def test_order_by_arbitrary_expression_in_aggregate_query_is_rejected(self, db):
        with pytest.raises(ExecutionError, match="ORDER BY"):
            db.query(
                "SELECT region, COUNT(*) FROM measurements GROUP BY region "
                "ORDER BY value"
            )

    def test_aggregates_skip_nulls(self, db):
        result = db.query(
            "SELECT COUNT(value), COUNT(*), AVG(value) FROM measurements WHERE region = 'main'"
        )
        count_value, count_star, average = result.rows[0]
        assert count_value == 1
        assert count_star == 2
        assert average == pytest.approx(10.0)

    def test_sum_of_only_nulls_is_null(self, db):
        result = db.query(
            "SELECT SUM(value) FROM measurements WHERE region = 'main' AND run_id = 2"
        )
        assert result.scalar() is None

    def test_limit_zero_returns_nothing(self, db):
        assert len(db.query("SELECT * FROM measurements LIMIT 0")) == 0

    def test_distinct_after_order_preserves_sortedness(self, db):
        result = db.query(
            "SELECT DISTINCT region FROM measurements ORDER BY region DESC"
        )
        assert [row[0] for row in result] == ["main", "loop", "io"]


class TestJoinsAndStats:
    def test_join_statistics_count_scans_and_joins(self, db):
        result = db.query(
            "SELECT m.id FROM measurements m JOIN runs r ON m.run_id = r.id "
            "WHERE r.pes = 8"
        )
        assert sorted(row[0] for row in result) == [2, 4]
        assert result.stats.rows_joined == 2
        assert result.stats.rows_scanned > 0

    def test_three_way_cross_join_filtering(self, db):
        db.execute("CREATE TABLE labels (id INTEGER PRIMARY KEY, name VARCHAR)")
        db.executemany(
            "INSERT INTO labels (id, name) VALUES (?, ?)", [(1, "first"), (2, "second")]
        )
        result = db.query(
            "SELECT m.id, l.name FROM measurements m, runs r, labels l "
            "WHERE m.run_id = r.id AND l.id = r.id AND m.region = 'loop' "
            "ORDER BY m.id"
        )
        assert result.rows == [(3, "first"), (4, "second")]

    def test_qualified_star_selects_one_table(self, db):
        result = db.query(
            "SELECT r.* FROM measurements m JOIN runs r ON m.run_id = r.id "
            "WHERE m.id = 1"
        )
        assert result.columns == ["id", "pes"]
        assert result.rows == [(1, 2)]

    def test_duplicate_binding_is_rejected(self, db):
        with pytest.raises(ExecutionError, match="duplicate table binding"):
            db.query("SELECT * FROM runs a, runs a")

    def test_join_without_on_is_a_cross_product(self, db):
        result = db.query("SELECT COUNT(*) FROM measurements JOIN runs")
        assert result.scalar() == 10

    def test_query_stats_merge(self):
        a = QueryStats(rows_scanned=5, index_lookups=1, rows_joined=2, subqueries=1)
        b = QueryStats(rows_scanned=3, index_lookups=2, rows_joined=1, subqueries=0)
        a.merge(b)
        assert a.rows_scanned == 8
        assert a.index_lookups == 3
        assert a.subqueries == 1

    def test_scalar_subquery_with_multiple_rows_is_an_error(self, db):
        with pytest.raises(ExecutionError, match="scalar subquery"):
            db.query(
                "SELECT id FROM runs WHERE pes = (SELECT run_id FROM measurements)"
            )

    def test_scalar_subquery_with_no_rows_yields_null(self, db):
        result = db.query(
            "SELECT COUNT(*) FROM runs WHERE pes = (SELECT value FROM measurements WHERE id = 999)"
        )
        assert result.scalar() == 0

    def test_scalar_functions(self, db):
        result = db.query(
            "SELECT ABS(value * -1), UPPER(region), LOWER(region), LENGTH(region), "
            "COALESCE(NULL, value, 0) FROM measurements WHERE id = 1"
        )
        assert result.rows[0] == (10.0, "MAIN", "main", 4, 10.0)

    def test_unknown_scalar_function(self, db):
        with pytest.raises(ExecutionError, match="unknown function"):
            db.query("SELECT SOUNDEX(region) FROM measurements")

    def test_aggregate_outside_aggregate_context_is_rejected(self, db):
        with pytest.raises(ExecutionError, match="not allowed here"):
            db.query("SELECT id FROM measurements WHERE SUM(value) > 1")


class TestOrderByDescWithNulls:
    """ORDER BY DESC and NULLs — behaviour the plan-driven rewrite preserves."""

    def test_desc_with_nulls_and_secondary_key(self, db):
        result = db.query(
            "SELECT id, value FROM measurements ORDER BY value DESC, id DESC"
        )
        # NULL sorts as the largest value in DESC; ties broken by id DESC.
        assert [row[0] for row in result] == [2, 1, 4, 3, 5]

    def test_desc_on_expression_over_source_rows(self, db):
        result = db.query(
            "SELECT id FROM measurements WHERE value IS NOT NULL "
            "ORDER BY value * 2 DESC"
        )
        assert [row[0] for row in result] == [1, 4, 3, 5]

    def test_desc_on_aggregate_alias_with_null_groups(self, db):
        result = db.query(
            "SELECT region, SUM(value) AS total FROM measurements "
            "GROUP BY region ORDER BY total DESC"
        )
        # 'main' has SUM 10 (NULL skipped), 'loop' 12, 'io' 1.
        assert [row[0] for row in result] == ["loop", "main", "io"]


class TestCountDistinct:
    def test_count_distinct_skips_nulls_and_duplicates(self, db):
        result = db.query("SELECT COUNT(DISTINCT run_id) FROM measurements")
        assert result.scalar() == 2

    def test_count_distinct_on_expression(self, db):
        result = db.query(
            "SELECT COUNT(DISTINCT region), COUNT(region) FROM measurements"
        )
        assert result.rows == [(3, 5)]

    def test_count_distinct_per_group(self, db):
        result = db.query(
            "SELECT region, COUNT(DISTINCT value) FROM measurements "
            "GROUP BY region ORDER BY region"
        )
        # 'main' has one non-NULL value; NULL is not counted.
        assert result.rows == [("io", 1), ("loop", 2), ("main", 1)]


class TestIndexProbeStatsAcrossTables:
    """Exact QueryStats of multi-table index-probe plans (A1-style queries)."""

    def test_pk_probe_per_outer_row(self, db):
        result = db.query(
            "SELECT r.pes FROM measurements m JOIN runs r ON r.id = m.run_id "
            "WHERE m.region = 'loop'"
        )
        assert sorted(row[0] for row in result) == [2, 8]
        # measurements scan (5) + one PK-probe result row per outer row (2).
        assert result.stats.rows_scanned == 7
        assert result.stats.index_lookups == 2
        assert result.stats.rows_joined == 2
        assert result.stats.rows_returned == 2
        assert result.stats.hash_probes == 0

    def test_probe_stats_match_the_interpreted_engine(self, db):
        from repro.relalg.interp import InterpretedSelectExecutor
        from repro.relalg.sqlparser import parse_sql

        sql = ("SELECT r.pes FROM measurements m JOIN runs r ON r.id = m.run_id "
               "WHERE m.region = 'loop'")
        compiled = db.query(sql)
        interpreted = InterpretedSelectExecutor(db.tables).execute(parse_sql(sql))
        assert compiled.stats == interpreted.stats

    def test_probe_key_from_constant_counts_one_lookup(self, db):
        result = db.query(
            "SELECT m.id FROM runs r JOIN measurements m ON m.run_id = r.id "
            "WHERE r.id = 1"
        )
        assert sorted(row[0] for row in result) == [1, 3, 5]
        # One PK probe into runs (1 row) + a scan of measurements per outer
        # row (run_id is unindexed, equated with the bound r.id → hash join:
        # 5 build rows + 3 probe results).
        assert result.stats.index_lookups == 1
        assert result.stats.rows_scanned == 1 + 5 + 3
        assert result.stats.hash_probes == 1


class TestScalarSubqueryStatsMerging:
    def test_filter_subquery_counters_merge_into_the_outer_query(self, db):
        result = db.query(
            "SELECT id FROM runs WHERE pes = (SELECT MAX(run_id) FROM measurements)"
        )
        assert [row[0] for row in result] == [1]
        # runs is scanned (2 rows); the subquery is charged once per scanned
        # row, a full scan of measurements each time (it runs for the first
        # row and is replayed for the second).
        assert result.stats.subqueries == 2
        assert result.stats.subquery_replays == 1
        assert result.stats.rows_scanned == 2 + 2 * 5
        assert result.stats.rows_returned == 1  # outer rows only

    def test_probe_key_subquery_runs_once(self, db):
        result = db.query(
            "SELECT pes FROM runs WHERE id = (SELECT MIN(run_id) FROM measurements)"
        )
        assert result.scalar() == 2
        assert result.stats.subqueries == 1
        assert result.stats.subquery_replays == 0
        assert result.stats.index_lookups == 1
        assert result.stats.rows_scanned == 5 + 1

    def test_select_list_subquery_merges_per_row(self, db):
        result = db.query(
            "SELECT id, (SELECT COUNT(*) FROM measurements) FROM runs"
        )
        assert result.rows == [(1, 5), (2, 5)]
        assert result.stats.subqueries == 2
        assert result.stats.subquery_replays == 1
        assert result.stats.rows_scanned == 2 + 2 * 5

    def test_subquery_stats_match_the_interpreted_engine(self, db):
        from repro.relalg.interp import InterpretedSelectExecutor
        from repro.relalg.sqlparser import parse_sql

        sql = "SELECT id FROM runs WHERE pes = (SELECT MAX(run_id) FROM measurements)"
        compiled = db.query(sql)
        interpreted = InterpretedSelectExecutor(db.tables).execute(parse_sql(sql))
        assert compiled.stats == interpreted.stats
        # The reference engine re-runs the subquery; only the compiled
        # engine replays it, and equality ignores the replay count.
        assert compiled.stats.subquery_replays == 1
        assert interpreted.stats.subquery_replays == 0

    def test_nested_subqueries_run_each_plan_once(self, db, monkeypatch):
        """A SublinearSpeedup-shaped statement: a difference of two scalar
        subqueries, one keyed by a join whose filter nests a MIN.  Each of
        the five plans runs once, however often its subquery is referenced."""
        from repro.relalg.interp import InterpretedSelectExecutor
        from repro.relalg.planner import QueryPlan
        from repro.relalg.sqlparser import parse_sql

        db.execute("CREATE TABLE dual (dummy INTEGER)")
        db.execute("INSERT INTO dual (dummy) VALUES (0)")
        sql = (
            "SELECT ((SELECT m1.value FROM measurements m1 "
            "WHERE m1.region = ? AND m1.run_id = ?) - "
            "(SELECT m2.value FROM measurements m2 WHERE m2.region = ? AND "
            "m2.run_id = (SELECT m3.run_id FROM measurements m3 "
            "JOIN runs r3 ON r3.id = m3.run_id WHERE m3.region = ? AND "
            "r3.pes = (SELECT MIN(r4.pes) FROM measurements m4 "
            "JOIN runs r4 ON r4.id = m4.run_id WHERE m4.region = ?)))) "
            "AS value FROM dual"
        )
        params = ["loop", 2, "loop", "loop", "loop"]
        runs = {}
        run = QueryPlan._run

        def spy(plan, *args, **kwargs):
            runs[id(plan)] = runs.get(id(plan), 0) + 1
            return run(plan, *args, **kwargs)

        monkeypatch.setattr(QueryPlan, "_run", spy)
        result = db.query(sql, params)
        monkeypatch.undo()
        assert result.rows == [(8.0 - 4.0,)]
        # The m2 subquery references the m3 subquery once per loop row (2),
        # and the m3 subquery references MIN once per joined loop row (2):
        # 1 (m1) + 1 (m2) + 2 (m3) + 2 * 2 (MIN).  The second MIN reference
        # is a replay, and so is the second m3 reference with the two MIN
        # evaluations it re-charges.
        assert result.stats.subqueries == 8
        assert result.stats.subquery_replays == 1 + (1 + 2)
        assert sorted(runs.values()) == [1] * 5
        executed_subqueries = sum(runs.values()) - 1
        assert executed_subqueries == (
            result.stats.subqueries - result.stats.subquery_replays
        )
        interpreted = InterpretedSelectExecutor(db.tables, params).execute(
            parse_sql(sql)
        )
        assert interpreted.rows == result.rows
        assert interpreted.stats == result.stats

    def test_no_memo_leaks_across_executions(self, db):
        sql = (
            "SELECT id, (SELECT MAX(value) FROM measurements WHERE run_id = ?) "
            "FROM runs"
        )
        first = db.query(sql, [1])
        second = db.query(sql, [2])
        assert db.plan_cache_info() == {"hits": 1, "misses": 1, "size": 1}
        assert first.rows == [(1, 10.0), (2, 10.0)]
        assert second.rows == [(1, 8.0), (2, 8.0)]
        assert first.stats.subquery_replays == 1
        assert second.stats.subquery_replays == 1
        # Each DELETE execution evaluates its own subquery: a leaked memo
        # would make the second one look for 10.0 again and delete nothing.
        deleted = db.executemany(
            "DELETE FROM measurements WHERE value = "
            "(SELECT MAX(value) FROM measurements WHERE run_id = ?)",
            [(1,), (2,)],
        )
        assert deleted == 2
        assert db.query("SELECT id FROM measurements ORDER BY id").rows == [
            (2,), (3,), (5,)
        ]

    def test_multi_row_subquery_still_raises_and_stores_nothing(self, db):
        from repro.relalg.compile import ExecContext, SlotLayout, compile_row_expr
        from repro.relalg.interp import InterpretedSelectExecutor
        from repro.relalg.planner import subquery_planner
        from repro.relalg.sqlparser import parse_sql

        sql = "SELECT id FROM runs WHERE pes = (SELECT id FROM runs)"
        message = r"scalar subquery returned 2 row\(s\) × 1 column\(s\)"
        with pytest.raises(ExecutionError, match=message):
            db.query(sql)
        with pytest.raises(ExecutionError, match=message):
            InterpretedSelectExecutor(db.tables).execute(parse_sql(sql))
        # Every reference re-runs the failing plan: nothing is memoized.
        subquery = parse_sql(sql).where.right
        fn = compile_row_expr(
            subquery, SlotLayout([]), subquery_planner(db.tables, None)[0]
        )
        ctx = ExecContext([], QueryStats())
        for _ in range(2):
            with pytest.raises(ExecutionError, match=message):
                fn((), ctx)
        assert ctx.subquery_memo == {}
        assert ctx.stats.subqueries == 2
        assert ctx.stats.subquery_replays == 0
