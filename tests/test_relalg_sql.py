"""Tests of the SQL parser, the executor and the database facade."""

import copy
import datetime as dt

import pytest
from hypothesis import given, settings, strategies as st

from repro.relalg import (
    Database,
    ExecutionError,
    IntegrityError,
    QueryStats,
    ResultSet,
    SchemaError,
    SqlSyntaxError,
    parse_sql,
)
from repro.relalg.sqlast import (
    BinaryOperation,
    BinaryOperator,
    CreateTableStatement,
    InsertStatement,
    ScalarSubquery,
    SelectStatement,
)


@pytest.fixture()
def db():
    """A small two-table database mirroring the COSY timing tables."""
    database = Database()
    database.execute(
        "CREATE TABLE TestRun (id INTEGER PRIMARY KEY, NoPe INTEGER, Clockspeed INTEGER)"
    )
    database.execute(
        "CREATE TABLE TotalTiming (id INTEGER PRIMARY KEY, region_id INTEGER, "
        "run_id INTEGER, Incl FLOAT, Ovhd FLOAT)"
    )
    runs = [(1, 2, 300), (2, 4, 300), (3, 8, 300)]
    database.executemany("INSERT INTO TestRun (id, NoPe, Clockspeed) VALUES (?, ?, ?)", runs)
    timings = [
        (1, 10, 1, 10.0, 1.0),
        (2, 10, 2, 12.0, 2.0),
        (3, 10, 3, 16.0, 6.0),
        (4, 20, 1, 5.0, 0.5),
        (5, 20, 3, 9.0, 3.0),
    ]
    database.executemany(
        "INSERT INTO TotalTiming (id, region_id, run_id, Incl, Ovhd) VALUES (?, ?, ?, ?, ?)",
        timings,
    )
    return database


class TestSqlParser:
    def test_create_table_statement(self):
        statement = parse_sql(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, name VARCHAR NOT NULL, x FLOAT)"
        )
        assert isinstance(statement, CreateTableStatement)
        assert [c.name for c in statement.columns] == ["id", "name", "x"]
        assert statement.columns[0].primary_key
        assert not statement.columns[1].nullable

    def test_insert_with_placeholders(self):
        statement = parse_sql("INSERT INTO t (a, b) VALUES (?, ?)")
        assert isinstance(statement, InsertStatement)
        assert statement.columns == ["a", "b"]
        assert len(statement.rows[0]) == 2

    def test_multi_row_insert(self):
        statement = parse_sql("INSERT INTO t (a) VALUES (1), (2), (3)")
        assert len(statement.rows) == 3

    def test_select_with_everything(self):
        statement = parse_sql(
            "SELECT r.NoPe, SUM(t.Incl) AS total FROM TotalTiming t "
            "JOIN TestRun r ON t.run_id = r.id "
            "WHERE t.region_id = 10 GROUP BY r.NoPe HAVING SUM(t.Incl) > 5 "
            "ORDER BY total DESC LIMIT 2"
        )
        assert isinstance(statement, SelectStatement)
        assert statement.joins[0].table.name == "TestRun"
        assert statement.group_by and statement.having is not None
        assert statement.order_by[0].ascending is False
        assert statement.limit == 2
        assert statement.is_aggregate_query

    def test_scalar_subquery(self):
        statement = parse_sql(
            "SELECT Incl FROM TotalTiming WHERE run_id = (SELECT MIN(id) FROM TestRun)"
        )
        assert isinstance(statement.where, BinaryOperation)
        assert isinstance(statement.where.right, ScalarSubquery)

    def test_string_literals_with_quotes(self):
        statement = parse_sql("SELECT * FROM t WHERE name = 'O''Brien'")
        assert statement.where.right.value == "O'Brien"

    def test_syntax_errors_are_reported_with_position(self):
        with pytest.raises(SqlSyntaxError, match="expected"):
            parse_sql("SELECT FROM t")
        with pytest.raises(SqlSyntaxError):
            parse_sql("SELEC * FROM t")
        with pytest.raises(SqlSyntaxError, match="unexpected character"):
            parse_sql("SELECT # FROM t")
        with pytest.raises(SqlSyntaxError, match="unterminated string"):
            parse_sql("SELECT 'oops FROM t")

    @pytest.mark.parametrize(
        "literal, message",
        [
            ("²", "invalid digit '²'"),
            ("1²", "invalid digit '²'"),
            (".③", "invalid digit '③'"),
            ("1e+", "invalid numeric literal '1e\\+'"),
            ("9" * 4400, "integer literal of 4400 digits is too long"),
        ],
        ids=["superscript", "digit-superscript", "circled", "empty-exponent", "4400-digits"],
    )
    def test_invalid_numeric_literals_raise_at_the_literal(self, literal, message):
        # ``str.isdigit`` accepts ``²`` and ``③`` but ``int`` does not, and
        # ``int`` refuses more than 4,300 digits: all used to escape as a
        # bare ValueError, from the parser and from ``Database.query``.
        database = Database()
        database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER)")
        sql = f"SELECT id FROM t WHERE a = {literal}"
        for run in (parse_sql, database.query):
            with pytest.raises(SqlSyntaxError, match=message) as info:
                run(sql)
            assert info.value.position == 27

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SqlSyntaxError, match="trailing"):
            parse_sql("SELECT * FROM t garbage extra")


class TestLeftJoinRejected:
    """Both engines implement inner joins only, so an outer join must not
    parse: it used to run as an inner join and silently drop the unmatched
    left rows."""

    @staticmethod
    def _db(engine):
        database = Database(engine=engine)
        database.execute("CREATE TABLE a (id INTEGER PRIMARY KEY)")
        database.execute(
            "CREATE TABLE b (id INTEGER PRIMARY KEY, a_id INTEGER)"
        )
        database.executemany("INSERT INTO a (id) VALUES (?)", [(1,), (2,)])
        database.execute("INSERT INTO b (id, a_id) VALUES (1, 1)")
        return database

    @pytest.mark.parametrize("engine", ["compiled", "interpreted"])
    @pytest.mark.parametrize(
        "join", ["LEFT JOIN", "INNER LEFT JOIN", "left join"]
    )
    def test_left_join_raises_at_the_left_token(self, engine, join):
        sql = f"SELECT a.id, b.id FROM a {join} b ON b.a_id = a.id"
        message = "LEFT JOIN is not supported"
        with pytest.raises(SqlSyntaxError, match=message) as info:
            self._db(engine).query(sql)
        assert info.value.position == sql.upper().index("LEFT")

    @pytest.mark.parametrize("engine", ["compiled", "interpreted"])
    @pytest.mark.parametrize("join", ["JOIN", "INNER JOIN"])
    def test_inner_join_spellings_still_parse(self, engine, join):
        sql = f"SELECT a.id, b.id FROM a {join} b ON b.a_id = a.id"
        assert self._db(engine).query(sql).rows == [(1, 1)]


class TestSelectExecution:
    def test_simple_projection_and_filter(self, db):
        result = db.query("SELECT Incl FROM TotalTiming WHERE region_id = 10")
        assert sorted(row[0] for row in result) == [10.0, 12.0, 16.0]

    def test_select_star(self, db):
        result = db.query("SELECT * FROM TestRun")
        assert result.columns == ["id", "NoPe", "Clockspeed"]
        assert len(result) == 3

    def test_parameterised_query(self, db):
        result = db.query(
            "SELECT Incl FROM TotalTiming WHERE region_id = ? AND run_id = ?", [10, 3]
        )
        assert result.scalar() == 16.0

    def test_join_via_on_clause(self, db):
        result = db.query(
            "SELECT r.NoPe, t.Incl FROM TotalTiming t JOIN TestRun r ON t.run_id = r.id "
            "WHERE t.region_id = 10 ORDER BY r.NoPe"
        )
        assert result.rows == [(2, 10.0), (4, 12.0), (8, 16.0)]

    def test_implicit_join_with_where(self, db):
        result = db.query(
            "SELECT r.NoPe FROM TotalTiming t, TestRun r "
            "WHERE t.run_id = r.id AND t.Incl = 9.0"
        )
        assert result.scalar() == 8

    def test_aggregates_without_group_by(self, db):
        result = db.query("SELECT COUNT(*), SUM(Incl), MIN(Incl), MAX(Incl), AVG(Ovhd) "
                          "FROM TotalTiming WHERE region_id = 10")
        assert result.rows[0] == (3, 38.0, 10.0, 16.0, pytest.approx(3.0))

    def test_group_by_and_having(self, db):
        result = db.query(
            "SELECT region_id, SUM(Incl) AS total FROM TotalTiming "
            "GROUP BY region_id HAVING SUM(Incl) > 20 ORDER BY total DESC"
        )
        assert result.rows == [(10, 38.0)]

    def test_order_by_and_limit(self, db):
        result = db.query("SELECT Incl FROM TotalTiming ORDER BY Incl DESC LIMIT 2")
        assert [row[0] for row in result] == [16.0, 12.0]

    def test_distinct(self, db):
        result = db.query("SELECT DISTINCT region_id FROM TotalTiming ORDER BY region_id")
        assert [row[0] for row in result] == [10, 20]

    def test_scalar_subquery_in_where(self, db):
        result = db.query(
            "SELECT Incl FROM TotalTiming WHERE region_id = 10 AND run_id = "
            "(SELECT id FROM TestRun WHERE NoPe = (SELECT MIN(NoPe) FROM TestRun))"
        )
        assert result.scalar() == 10.0

    def test_scalar_subquery_in_select_list(self, db):
        db.execute("CREATE TABLE dual (one INTEGER)")
        db.execute("INSERT INTO dual (one) VALUES (1)")
        result = db.query(
            "SELECT (SELECT SUM(Incl) FROM TotalTiming WHERE region_id = ?) - "
            "(SELECT SUM(Incl) FROM TotalTiming WHERE region_id = ?) AS diff FROM dual",
            [10, 20],
        )
        assert result.scalar() == pytest.approx(38.0 - 14.0)

    def test_arithmetic_and_comparison_in_where(self, db):
        result = db.query(
            "SELECT Incl FROM TotalTiming WHERE Incl - Ovhd > 9 AND region_id = 10"
        )
        assert sorted(row[0] for row in result) == [12.0, 16.0]

    def test_in_list_and_is_null(self, db):
        db.execute("INSERT INTO TotalTiming (id, region_id, run_id, Incl, Ovhd) "
                   "VALUES (99, 30, NULL, NULL, NULL)")
        result = db.query("SELECT id FROM TotalTiming WHERE run_id IS NULL")
        assert result.scalar() == 99
        result = db.query(
            "SELECT COUNT(*) FROM TotalTiming WHERE region_id IN (10, 30)"
        )
        assert result.scalar() == 4

    def test_not_and_boolean_logic(self, db):
        result = db.query(
            "SELECT COUNT(*) FROM TotalTiming WHERE NOT region_id = 10 AND Incl > 4"
        )
        assert result.scalar() == 2

    def test_count_distinct(self, db):
        result = db.query("SELECT COUNT(DISTINCT region_id) FROM TotalTiming")
        assert result.scalar() == 2

    def test_division_by_zero_is_reported(self, db):
        with pytest.raises(ExecutionError, match="division by zero"):
            db.query("SELECT Incl / 0 FROM TotalTiming")

    def test_unknown_table_and_column_errors(self, db):
        with pytest.raises(SchemaError, match="unknown table"):
            db.query("SELECT * FROM Missing")
        with pytest.raises(ExecutionError, match="unknown column"):
            db.query("SELECT bogus_column FROM TestRun")

    def test_ambiguous_column_is_reported(self, db):
        with pytest.raises(ExecutionError, match="ambiguous"):
            db.query("SELECT id FROM TestRun r, TotalTiming t WHERE t.run_id = r.id")

    def test_result_set_helpers(self, db):
        result = db.query("SELECT id, NoPe FROM TestRun ORDER BY NoPe")
        assert result.column("nope") == [2, 4, 8]
        assert result.as_dicts()[0] == {"id": 1, "NoPe": 2}
        with pytest.raises(ExecutionError):
            result.scalar()

    def test_index_is_used_for_equality_probe(self, db):
        db.execute("CREATE INDEX idx_region ON TotalTiming (region_id)")
        before = db.summary.rows_scanned
        db.query("SELECT Incl FROM TotalTiming WHERE region_id = ?", [20])
        scanned = db.summary.rows_scanned - before
        assert scanned == 2  # only the two rows of region 20, not all five

    def test_null_comparison_is_falsy(self, db):
        db.execute("INSERT INTO TotalTiming (id, region_id, run_id, Incl, Ovhd) "
                   "VALUES (50, 40, 1, NULL, 0.0)")
        result = db.query("SELECT COUNT(*) FROM TotalTiming WHERE Incl > 0")
        assert result.scalar() == 5  # the NULL row does not match


class TestDmlAndDdl:
    def test_insert_without_column_list(self, db):
        affected = db.execute("INSERT INTO TestRun VALUES (4, 16, 300)")
        assert affected == 1
        assert db.query("SELECT COUNT(*) FROM TestRun").scalar() == 4

    def test_insert_arity_mismatch(self, db):
        with pytest.raises(ExecutionError, match="column"):
            db.execute("INSERT INTO TestRun (id, NoPe) VALUES (9, 2, 3)")

    def test_delete_with_where(self, db):
        deleted = db.execute("DELETE FROM TotalTiming WHERE region_id = 20")
        assert deleted == 2
        assert db.query("SELECT COUNT(*) FROM TotalTiming").scalar() == 3

    def test_delete_all(self, db):
        assert db.execute("DELETE FROM TotalTiming") == 5

    def test_drop_table(self, db):
        db.execute("DROP TABLE TotalTiming")
        with pytest.raises(SchemaError):
            db.query("SELECT * FROM TotalTiming")
        db.execute("DROP TABLE IF EXISTS TotalTiming")
        with pytest.raises(SchemaError):
            db.execute("DROP TABLE TotalTiming")

    def test_create_table_if_not_exists(self, db):
        db.execute("CREATE TABLE IF NOT EXISTS TestRun (id INTEGER)")
        with pytest.raises(SchemaError, match="already exists"):
            db.execute("CREATE TABLE TestRun (id INTEGER)")

    def test_duplicate_primary_key_through_sql(self, db):
        with pytest.raises(IntegrityError):
            db.execute("INSERT INTO TestRun (id, NoPe, Clockspeed) VALUES (1, 2, 300)")

    def test_query_requires_select(self, db):
        with pytest.raises(ExecutionError, match="SELECT"):
            db.query("DELETE FROM TestRun")

    def test_execution_summary_counts(self, db):
        db.query("SELECT * FROM TestRun")
        summary = db.summary
        assert summary.selects >= 1
        assert summary.inserts >= 2
        assert summary.rows_inserted == 8
        assert db.total_rows() == 8
        assert db.row_counts()["TestRun"] == 3


class TestExecutionSummaryIsTheSumOfStatementStats:
    """``Database.summary`` accumulates every SELECT's counters through the
    one merge rule, so it equals their field-by-field sum — partition
    attribution and replayed subqueries included."""

    STREAM = [
        ("SELECT id FROM m WHERE s = ?", ["b"]),  # scan
        ("SELECT id, x FROM m WHERE g = ?", [3]),  # index probe
        ("SELECT id FROM m WHERE x BETWEEN 10 AND 30", []),  # range probe
        ("SELECT m.id, r.id FROM m JOIN r ON r.tag = m.s WHERE m.g = ?", [1]),
        (
            "SELECT id FROM m WHERE x > (SELECT AVG(v) FROM r "
            "WHERE v < (SELECT MAX(g) FROM m))",
            [],
        ),
        ("SELECT id, x FROM m WHERE g = ?", [4]),  # a plan-cache hit
    ]

    @pytest.mark.parametrize("vectorized", [True, False],
                             ids=["vectorized", "row-at-a-time"])
    def test_mixed_stream(self, vectorized):
        database = Database(vectorized=vectorized)
        database.execute(
            "CREATE TABLE m (id INTEGER PRIMARY KEY, g INTEGER, x INTEGER, "
            "s VARCHAR)"
        )
        database.execute("CREATE INDEX m_g ON m (g)")
        database.execute("CREATE INDEX m_x ON m (x) ORDERED")
        database.execute(
            "CREATE TABLE r (id INTEGER PRIMARY KEY, tag VARCHAR, v INTEGER)"
        )
        database.executemany(
            "INSERT INTO m (id, g, x, s) VALUES (?, ?, ?, ?)",
            [(i, i % 5, i * 3 % 50, "abc"[i % 3]) for i in range(1, 41)],
        )
        database.executemany(
            "INSERT INTO r (id, tag, v) VALUES (?, ?, ?)",
            [(i, "abcd"[i % 4], i) for i in range(1, 13)],
        )
        before = copy.copy(database.summary)
        results = [database.query(sql, params) for sql, params in self.STREAM]

        summary = database.summary
        assert summary.statements - before.statements == len(self.STREAM)
        assert summary.selects == len(self.STREAM)
        totals = summary.select_stats
        for stat in QueryStats.__slots__:
            values = [getattr(result.stats, stat) for result in results]
            assert getattr(totals, stat) == sum(values), stat
        # The stream reaches every access path and counter.
        for name in (
            "index_lookups", "range_probes", "hash_probes", "rows_joined",
            "subqueries", "subquery_replays",
        ):
            assert getattr(totals, name) > 0, name
        # The summary's own counter names read the same sums.
        for name in ("rows_returned", "rows_scanned", "index_lookups"):
            assert getattr(summary, name) == getattr(totals, name), name


class TestAggregateSemanticsAgainstPython:
    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_sum_min_max_avg_match_python(self, values):
        database = Database()
        database.execute("CREATE TABLE v (id INTEGER PRIMARY KEY, x FLOAT)")
        database.executemany(
            "INSERT INTO v (id, x) VALUES (?, ?)",
            [(i + 1, value) for i, value in enumerate(values)],
        )
        result = database.query("SELECT SUM(x), MIN(x), MAX(x), AVG(x), COUNT(*) FROM v")
        total, minimum, maximum, average, count = result.rows[0]
        assert total == pytest.approx(sum(values), rel=1e-9, abs=1e-6)
        assert minimum == min(values)
        assert maximum == max(values)
        assert average == pytest.approx(sum(values) / len(values), rel=1e-9, abs=1e-6)
        assert count == len(values)

    @given(
        pairs=st.lists(
            st.tuples(st.integers(min_value=0, max_value=4),
                      st.integers(min_value=-100, max_value=100)),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_group_by_matches_python(self, pairs):
        database = Database()
        database.execute("CREATE TABLE v (id INTEGER PRIMARY KEY, g INTEGER, x INTEGER)")
        database.executemany(
            "INSERT INTO v (id, g, x) VALUES (?, ?, ?)",
            [(i + 1, g, x) for i, (g, x) in enumerate(pairs)],
        )
        result = database.query("SELECT g, SUM(x) FROM v GROUP BY g ORDER BY g")
        expected = {}
        for g, x in pairs:
            expected[g] = expected.get(g, 0) + x
        assert result.rows == [(g, expected[g]) for g in sorted(expected)]
