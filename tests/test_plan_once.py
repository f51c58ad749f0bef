"""Planning analyzes and plans every SELECT node once, and EXPLAIN, the plan
cache and execution all read those same plans.

A COSY property statement nests scalar subqueries up to three deep.  The
planner is the only module that plans or analyzes a SELECT: a subquery's
analysis is kept in its parent's and handed down, and each plan keeps a memo
from subquery SELECT node to plan, which the compiled expressions,
``QueryPlan.subquery_plans`` (EXPLAIN) and ``QueryPlan.table_deps`` (the
plan cache) all read.
"""

import ast
from pathlib import Path

import pytest

import repro.relalg.compile as compile_module
import repro.relalg.planner as planner
import repro.relalg.semantics as semantics
from repro.bench import build_scenario, load_into_backend
from repro.compiler import PropertyCompiler
from repro.cosy import PushdownStrategy
from repro.relalg import Database, ExecutionError, SemanticError
from repro.relalg.planner import QueryPlan
from repro.relalg.sqlast import (
    BinaryOperation,
    FunctionExpr,
    InList,
    IsNull,
    ScalarSubquery,
    UnaryOperation,
)
from repro.relalg.sqlparser import parse_sql

#: The shape of the COSY ``SublinearSpeedup`` condition: five SELECT nodes,
#: the innermost three deep, two of them joins.
SUBLINEAR_SQL = (
    "SELECT (((SELECT t1.Incl FROM TotalTiming t1 WHERE t1.owner = ? "
    "AND (t1.Run_id = ?)) - (SELECT t2.Incl FROM TotalTiming t2 "
    "WHERE t2.owner = ? AND (t2.Run_id = (SELECT t3.Run_id FROM TotalTiming t3 "
    "JOIN TestRun t4 ON t4.id = t3.Run_id WHERE t3.owner = ? AND (t4.NoPe = "
    "(SELECT MIN(t6.NoPe) FROM TotalTiming t5 JOIN TestRun t6 "
    "ON t6.id = t5.Run_id WHERE t5.owner = ?)))))) > 0) AS value FROM dual"
)
SUBLINEAR_PARAMS = [7, 3, 7, 7, 7]


def _timing_db(engine="compiled"):
    db = Database(engine=engine)
    db.execute(
        "CREATE TABLE TotalTiming (id INTEGER PRIMARY KEY, owner INTEGER, "
        "Run_id INTEGER, Incl FLOAT)"
    )
    db.execute("CREATE INDEX tt_owner ON TotalTiming (owner)")
    db.execute("CREATE TABLE TestRun (id INTEGER PRIMARY KEY, NoPe INTEGER)")
    db.execute("CREATE TABLE dual (id INTEGER PRIMARY KEY)")
    db.execute("INSERT INTO dual (id) VALUES (1)")
    db.executemany(
        "INSERT INTO TestRun (id, NoPe) VALUES (?, ?)", [(1, 1), (2, 2), (3, 4)]
    )
    db.executemany(
        "INSERT INTO TotalTiming (id, owner, Run_id, Incl) VALUES (?, ?, ?, ?)",
        [(1, 7, 1, 10.0), (2, 7, 2, 6.0), (3, 7, 3, 4.0), (4, 8, 1, 1.0)],
    )
    return db


def _select_nodes(statement):
    """Every SELECT node of a statement tree, outermost first (AST walk)."""
    found = [statement]

    def visit(node):
        if isinstance(node, ScalarSubquery):
            found.extend(_select_nodes(node.select))
        elif isinstance(node, BinaryOperation):
            visit(node.left)
            visit(node.right)
        elif isinstance(node, (UnaryOperation, IsNull)):
            visit(node.operand)
        elif isinstance(node, FunctionExpr):
            for arg in node.args:
                visit(arg)
        elif isinstance(node, InList):
            visit(node.operand)
            for item in node.items:
                visit(item)

    exprs = [item.expr for item in statement.items]
    exprs += [join.on for join in statement.joins if join.on is not None]
    exprs += [statement.where, statement.having] + list(statement.group_by)
    exprs += [item.expr for item in statement.order_by]
    for expr in exprs:
        if expr is not None:
            visit(expr)
    return found


@pytest.fixture()
def spies(monkeypatch):
    """Record the SELECT node of every analysis and every plan built."""
    calls = {"analyzed": [], "planned": []}
    analyze = semantics.analyze_select
    plan = planner._plan_select

    def analyze_spy(statement, tables):
        calls["analyzed"].append(statement)
        return analyze(statement, tables)

    def plan_spy(statement, tables, analysis):
        calls["planned"].append(statement)
        return plan(statement, tables, analysis)

    monkeypatch.setattr(semantics, "analyze_select", analyze_spy)
    monkeypatch.setattr(planner, "analyze_select", analyze_spy)
    monkeypatch.setattr(planner, "_plan_select", plan_spy)
    return calls


@pytest.fixture()
def executed(monkeypatch):
    """``(top-level plan, plan)`` for every plan run: every execution, a
    statement's and a scalar subquery's, passes through ``QueryPlan._run``."""
    runs = []
    stack = []
    run = QueryPlan._run

    def run_spy(self, *args, **kwargs):
        runs.append((stack[0] if stack else self, self))
        stack.append(self)
        try:
            return run(self, *args, **kwargs)
        finally:
            stack.pop()

    monkeypatch.setattr(QueryPlan, "_run", run_spy)
    return runs


def _reachable(plan):
    plans = {id(plan)}
    for subplan in plan.subquery_plans:
        plans |= _reachable(subplan)
    return plans


def _ids(nodes):
    return sorted(id(node) for node in nodes)


class TestOneAnalysisAndOnePlanPerSelectNode:
    def test_sublinear_speedup_shape(self, spies):
        db = _timing_db()
        db.query(SUBLINEAR_SQL, SUBLINEAR_PARAMS)
        # The outermost SELECT is planned first.
        nodes = _select_nodes(spies["planned"][0])
        assert len(nodes) == 5
        assert _ids(spies["planned"]) == _ids(nodes)
        assert _ids(spies["analyzed"]) == _ids(nodes)
        # A plan-cache hit plans and analyzes nothing.
        db.query(SUBLINEAR_SQL, SUBLINEAR_PARAMS)
        assert len(spies["planned"]) == len(spies["analyzed"]) == 5

    def test_every_cosy_property_statement(self, spies, cosy_spec):
        scenario = build_scenario(
            "mixed", pe_counts=(1, 2, 4), specification=cosy_spec
        )
        client, _ids_map = load_into_backend(scenario, "ms_access")
        db = client.backend.database
        compiled = PropertyCompiler(
            scenario.specification, scenario.mapping
        ).compile_all()
        queries = [
            query
            for _name, prop in sorted(compiled.items())
            for _key, query in list(prop.conditions) + list(prop.severity)
        ]
        assert queries
        seen = set()
        total_nodes = 0
        for query in queries:
            misses = db.plan_cache_info()["misses"]
            spies["planned"].clear()
            spies["analyzed"].clear()
            db.query(query.sql, [1] * len(query.param_slots))
            if query.sql in seen:
                # The same text again: a plan-cache hit.
                assert spies["planned"] == spies["analyzed"] == []
                continue
            seen.add(query.sql)
            nodes = _select_nodes(spies["planned"][0])
            total_nodes += len(nodes)
            assert db.plan_cache_info()["misses"] == misses + 1
            assert _ids(spies["planned"]) == _ids(nodes), query.sql
            assert _ids(spies["analyzed"]) == _ids(nodes), query.sql
        assert total_nodes > len(seen)  # the statements do nest subqueries


class TestExplainAndExecutionShareThePlans:
    def test_every_executed_plan_is_reachable_from_the_top_plan(
        self, executed
    ):
        db = _timing_db()
        db.query(SUBLINEAR_SQL, SUBLINEAR_PARAMS)
        top = executed[0][0]
        assert len(executed) == 5  # every subquery plan ran once
        reachable = _reachable(top)
        assert all(id(plan) in reachable for _top, plan in executed)
        # Later executions of the cached plan run the same objects.
        executed.clear()
        db.query(SUBLINEAR_SQL, SUBLINEAR_PARAMS)
        assert executed[0][0] is top
        assert all(id(plan) in reachable for _top, plan in executed)

    def test_the_pushdown_analysis_runs_only_reachable_plans(
        self, executed, cosy_spec
    ):
        scenario = build_scenario(
            "mixed", pe_counts=(1, 2, 4), specification=cosy_spec
        )
        client, ids = load_into_backend(scenario, "ms_access")
        pushdown = PushdownStrategy(
            scenario.specification, scenario.mapping, client, ids
        )
        scenario.analyzer.analyze(strategy=pushdown)
        assert pushdown.fallbacks == 0
        tops = {id(top): top for top, _plan in executed}
        assert len(tops) < len(executed)  # subquery plans did run
        reachable = {key: _reachable(top) for key, top in tops.items()}
        for top, plan in executed:
            assert id(plan) in reachable[id(top)]

    def test_explain_lists_one_plan_per_subquery_node(self):
        explained = _timing_db().explain(SUBLINEAR_SQL).splitlines()
        headers = [line.strip() for line in explained if "subquery" in line]
        assert headers == [
            "subquery 1:", "subquery 2:", "subquery 1:", "subquery 1:"
        ]


def _analyze_db(vectorized):
    db = Database(vectorized=vectorized)
    db.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, g INTEGER, x FLOAT, "
        "o INTEGER)"
    )
    db.execute("CREATE INDEX t_o ON t (o) ORDERED")
    db.execute("CREATE TABLE u (id INTEGER PRIMARY KEY, g INTEGER)")
    db.execute("CREATE TABLE v (id INTEGER PRIMARY KEY, w FLOAT)")
    db.executemany(
        "INSERT INTO t (id, g, x, o) VALUES (?, ?, ?, ?)",
        [(i, i % 4, float(i % 17), 60 - i) for i in range(60)],
    )
    db.executemany(
        "INSERT INTO u (id, g) VALUES (?, ?)", [(i, i % 5) for i in range(30)]
    )
    db.executemany(
        "INSERT INTO v (id, w) VALUES (?, ?)",
        [(i, i / 2) for i in range(0, 30, 2)],
    )
    return db


def _analyze_section(text):
    return text[text.index("analyze:"):]


class TestExplainAnalyzeRunsTheServingPath:
    """EXPLAIN ANALYZE executes the cached plan on the path that serves the
    statement and counts the rows that survive each level there."""

    def test_a_vectorized_filtered_scan_reads_columnar_chunks(self):
        sql = "SELECT id FROM t WHERE x > ?"
        vectorized, rowwise = _analyze_db(True), _analyze_db(False)
        text = vectorized.explain(sql, analyze=True, params=[10.0])
        assert "scan: vectorized (columnar chunks)" in text
        assert vectorized.table("t")._chunks is not None
        # x = i % 17 over 60 rows: 6 values above 10 in each of the three
        # full cycles, none in the partial fourth (x = 0..8).
        assert "actual_rows=18" in text
        reference = rowwise.explain(sql, analyze=True, params=[10.0])
        assert rowwise.table("t")._chunks is None
        assert _analyze_section(text) == _analyze_section(reference)

    @pytest.mark.parametrize(
        "sql,actual",
        [
            # scan -> batch hash join: level 2 is never opened row by row.
            ("SELECT t.id, u.id FROM t, u WHERE t.x > 10 AND u.g = t.g",
             [18, 108]),
            ("SELECT COUNT(*) FROM t, u, v WHERE t.x > 10 AND u.g = t.g "
             "AND v.id = u.id", [18, 108, 54]),
            # Index-order walk with OFFSET: it stops after limit + offset.
            ("SELECT id FROM t WHERE g = 1 ORDER BY o LIMIT 3 OFFSET 1", [4]),
            # The subquery's rows are not the plan's joined rows (AVG 7.4).
            ("SELECT id FROM t WHERE x > (SELECT AVG(x) FROM t)", [28]),
            ("SELECT id FROM t WHERE 1 = 2", [0]),
        ],
    )
    def test_actual_rows_match_the_row_at_a_time_run(self, sql, actual):
        vectorized, rowwise = _analyze_db(True), _analyze_db(False)
        text = vectorized.explain(sql, analyze=True)
        counted = [
            int(line.rsplit("actual_rows=", 1)[1])
            for line in _analyze_section(text).splitlines()
            if "actual_rows=" in line
        ]
        assert counted == actual
        reference = rowwise.explain(sql, analyze=True)
        assert _analyze_section(text) == _analyze_section(reference)
        # The run is an ordinary execution: same counters as a query.
        rows = vectorized.query(sql).rows
        assert f"returned {len(rows)} row(s)" in text


class TestIndexProbeOnASubqueryKey:
    SQL = "SELECT id, v FROM t WHERE k = (SELECT MAX(x) FROM s)"

    @staticmethod
    def _db(engine):
        db = Database(engine=engine)
        db.execute(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, v FLOAT)"
        )
        db.execute("CREATE INDEX t_k ON t (k)")
        db.execute("CREATE TABLE s (id INTEGER PRIMARY KEY, x INTEGER)")
        db.executemany(
            "INSERT INTO t (id, k, v) VALUES (?, ?, ?)",
            [(1, 2, 1.5), (2, 3, 2.5), (3, 3, 3.5), (4, 1, 4.5)],
        )
        db.executemany(
            "INSERT INTO s (id, x) VALUES (?, ?)", [(1, 1), (2, 3)]
        )
        return db

    def test_key_and_stale_index_fallback_share_one_subquery_plan(
        self, spies
    ):
        db = self._db("compiled")
        first = db.query(self.SQL)
        top, subquery = spies["planned"]
        assert subquery is top.where.right.select
        assert "index-probe on k" in db.explain(self.SQL)

        reference = self._db("interpreted")
        assert first.rows == reference.query(self.SQL).rows
        # Drop the index behind the plan cache's back: the cached plan's
        # probe falls back to a filtered scan.
        db.table("t").drop_index("k")
        reference.table("t").drop_index("k")
        hits = db.plan_cache_info()["hits"]
        # The reference database plans too: count only this database's plans.
        planned = len(spies["planned"])
        stale = db.query(self.SQL)
        assert db.plan_cache_info()["hits"] == hits + 1
        assert len(spies["planned"]) == planned  # no re-planning behind the cache
        expected = reference.query(self.SQL)
        assert sorted(stale.rows) == sorted(expected.rows) == [
            (2, 2.5), (3, 3.5)
        ]
        assert stale.stats == expected.stats
        assert stale.stats.subqueries == 4  # one per scanned row


class TestDependenciesFromSubplans:
    SELECT = (
        "SELECT id FROM t WHERE v = (SELECT MAX(x) FROM u "
        "WHERE x < (SELECT MAX(y) FROM w))"
    )
    DELETE = (
        "DELETE FROM t WHERE v = (SELECT MAX(x) FROM u "
        "WHERE x < (SELECT MAX(y) FROM w))"
    )

    @staticmethod
    def _db():
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        db.execute("CREATE TABLE u (id INTEGER PRIMARY KEY, x INTEGER)")
        db.execute("CREATE TABLE w (id INTEGER PRIMARY KEY, y INTEGER)")
        db.execute("CREATE TABLE z (id INTEGER PRIMARY KEY, q INTEGER)")
        db.executemany(
            "INSERT INTO t (id, v) VALUES (?, ?)", [(1, 1), (2, 3), (3, 9)]
        )
        db.executemany(
            "INSERT INTO u (id, x) VALUES (?, ?)", [(1, 1), (2, 3), (3, 7)]
        )
        db.execute("INSERT INTO w (id, y) VALUES (1, 5)")
        return db

    def test_table_deps_reach_depth_two(self):
        db = self._db()
        plan = planner.plan_select(parse_sql(self.SELECT), db.tables)
        assert plan.table_deps == {"t", "u", "w"}
        assert plan.subquery_plans[0].table_deps == {"u", "w"}

    def test_ddl_at_depth_two_invalidates_the_cached_select(self):
        db = self._db()
        assert db.query(self.SELECT).rows == [(2,)]
        db.execute("CREATE INDEX z_q ON z (q)")
        db.query(self.SELECT)
        assert db.plan_cache_info()["misses"] == 1  # unrelated DDL: a hit
        db.execute("CREATE INDEX w_y ON w (y)")
        assert db.query(self.SELECT).rows == [(2,)]
        assert db.plan_cache_info()["misses"] == 2

    def test_ddl_at_depth_two_invalidates_the_cached_delete(self, spies):
        db = self._db()
        db.execute("INSERT INTO t (id, v) VALUES (4, 7)")
        assert db.execute(self.DELETE) == 1  # MAX(x) below 5 is 3
        assert len(spies["analyzed"]) == 3  # the WHERE and two subqueries
        db.execute("CREATE INDEX z_q ON z (q)")
        assert db.execute(self.DELETE) == 0
        assert len(spies["analyzed"]) == 3  # unrelated DDL: still cached
        db.execute("CREATE INDEX w_y ON w (y)")
        db.execute("INSERT INTO w (id, y) VALUES (2, 9)")
        assert db.execute(self.DELETE) == 1  # MAX(x) below 9 is 7
        assert len(spies["analyzed"]) == 6
        assert len(spies["planned"]) == 4  # two subqueries, twice
        assert db.query("SELECT id FROM t ORDER BY id").rows == [(1,), (3,)]


class TestErrorOrder:
    @staticmethod
    def _db(engine):
        db = Database(engine=engine)
        db.execute(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER, name VARCHAR)"
        )
        db.execute("CREATE TABLE u (id INTEGER PRIMARY KEY, x INTEGER)")
        db.execute(
            "CREATE TABLE w (id INTEGER PRIMARY KEY, y INTEGER, label VARCHAR)"
        )
        db.executemany(
            "INSERT INTO t (id, v, name) VALUES (?, ?, ?)",
            [(1, 1, "a"), (2, 5, "b")],
        )
        db.execute("INSERT INTO u (id, x) VALUES (1, 5)")
        db.execute("INSERT INTO w (id, y, label) VALUES (1, 9, 'p')")
        return db

    @pytest.mark.parametrize("engine", ["compiled", "interpreted"])
    def test_unknown_function_before_unknown_subquery_table(self, engine):
        with pytest.raises(ExecutionError, match="unknown function 'FOO'"):
            self._db(engine).query(
                "SELECT FOO(id), (SELECT v FROM nosuch) FROM t"
            )

    @pytest.mark.parametrize("engine", ["compiled", "interpreted"])
    @pytest.mark.parametrize(
        "sql, message, position",
        [
            (
                "SELECT id FROM t WHERE v = (SELECT MAX(x) FROM u WHERE x < "
                "(SELECT MAX(y) FROM w WHERE label > 5))",
                "cannot compare VARCHAR and INTEGER: label > 5",
                93,
            ),
            (
                "SELECT id FROM t ORDER BY (SELECT MAX(x) FROM u WHERE x < "
                "(SELECT MAX(y) FROM w WHERE label > 5))",
                "cannot compare VARCHAR and INTEGER: label > 5",
                92,
            ),
            (
                "SELECT (SELECT MAX(x) FROM u WHERE x < (SELECT MAX(y) FROM w "
                "WHERE label - 1 > 0)) FROM t",
                "invalid operands for -: VARCHAR and INTEGER in label - 1",
                73,
            ),
        ],
    )
    def test_semantic_error_at_depth_two(self, engine, sql, message, position):
        with pytest.raises(SemanticError) as info:
            self._db(engine).query(sql)
        assert str(info.value) == f"{message} (at character {position})"
        assert info.value.position == position

    @pytest.mark.parametrize("engine", ["compiled", "interpreted"])
    def test_mistyped_delete_raises_on_every_execution(self, engine):
        db = self._db(engine)
        sql = (
            "DELETE FROM t WHERE v = (SELECT MAX(x) FROM u WHERE x < "
            "(SELECT MAX(y) FROM w WHERE label > 5))"
        )
        for _ in range(2):
            with pytest.raises(SemanticError, match="at character 90"):
                db.execute(sql)
            assert db.row_counts()["t"] == 2

    def test_cached_delete_executemany_analyzes_its_where_once(self, spies):
        db = self._db("compiled")
        deleted = db.executemany(
            "DELETE FROM t WHERE id = ? AND v <= (SELECT MAX(x) FROM u)",
            [(1,), (2,), (3,)],
        )
        assert deleted == 2
        assert len(spies["analyzed"]) == 2  # the WHERE and its subquery
        assert len(spies["planned"]) == 1


def test_compile_imports_nothing_from_the_planner():
    tree = ast.parse(Path(compile_module.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert "repro.relalg.planner" not in imported
