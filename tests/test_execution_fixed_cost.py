"""Per-execution fixed cost of a cached plan.

Each execution of a cached plan pays only for work that depends on its
parameters and its rows:

* a slot-only select list projects through the plan's one ``itemgetter``
  projector on every path, and a one-item expression list returns its
  value without the generic parts loop;
* an ungrouped aggregate folds its rows directly, without a group table;
* a multi-key index probe resolves its indexes once per plan and
  revalidates them by identity at every probe: a dropped index falls back
  to the filtered scan, a re-created one is used, and the table's row list
  is read at probe time, after compaction replaced it;
* a driving scan streams the table's rows unless a batch predicate or the
  batch hash-join probe consumes columnar chunks, so a scan with nothing to
  filter never builds ``Table.column_chunks``' cache;
* a scalar subquery runs its plan's execution body (``QueryPlan._run``)
  inside its statement's execution, so a statement builds one result set
  however many subqueries it runs, and only a hash-join build creates an
  execution's hash-table dict (compiled engines only: the interpreter
  runs each subquery as a statement of its own).

Every case runs on the interpreted, row-at-a-time and vectorized engines:
rows equal the interpreter's, and so do the ``QueryStats`` wherever the
access paths are shared.  The scan, aggregate and projection cases run
over committed rows and over rows staged by a transaction that is still
open, which must read exactly like committed ones; the probe cases run
over hash and over ordered indexes.
"""

import pytest

from repro.relalg import Database
from repro.relalg.planner import IndexProbe, plan_select
from repro.relalg.sqlparser import parse_sql

_ENGINES = {
    "interpreted": {"engine": "interpreted"},
    "row-at-a-time": {"vectorized": False},
    "vectorized": {},
}

#: ``z`` is NULL in every row; ``b`` is a type tag with NULLs.
_T_ROWS = [
    (i, i % 6, i % 4, ("p", "q", None)[i % 3], float(i % 9) - 2.0, None)
    for i in range(1, 121)
]
#: ``u.t_id`` points at rows of ``t``, past its end, or nowhere (NULL).
_U_ROWS = [
    (i, None if i % 10 == 0 else (i * 7) % 130, float(i)) for i in range(1, 41)
]
_V_ROWS = [(i, i % 8, f"label-{i}") for i in range(1, 11)]

_PROBE = "SELECT id, x FROM t WHERE g = ? AND a = ?"

#: How the rows stand while the statements run: ``committed``, or
#: ``staged`` — inserted by a transaction that is still open, after decoy
#: rows of ``t`` that the same transaction deleted again.
_STATES = ["committed", "staged"]
_DECOYS = [(2000 + i, i % 6, i % 4, "decoy", 0.0, None) for i in range(30)]

_T_INSERT = "INSERT INTO t (id, g, a, b, x, z) VALUES (?, ?, ?, ?, ?, ?)"


def _database(engine, state="committed", index_kind=""):
    """The test tables on ``engine``; ``index_kind`` is appended to the
    ``CREATE INDEX`` statements of ``t`` (``" ORDERED"`` or empty)."""
    database = Database(**_ENGINES[engine])
    database.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, g INTEGER, a INTEGER, "
        "b VARCHAR, x FLOAT, z FLOAT)"
    )
    database.execute(f"CREATE INDEX t_g ON t (g){index_kind}")
    database.execute(f"CREATE INDEX t_a ON t (a){index_kind}")
    database.execute(
        "CREATE TABLE u (id INTEGER PRIMARY KEY, t_id INTEGER, w FLOAT)"
    )
    # No index on v.g: joining on it takes the hash-join access path.
    database.execute(
        "CREATE TABLE v (id INTEGER PRIMARY KEY, g INTEGER, label VARCHAR)"
    )
    database.execute("CREATE TABLE one (id INTEGER PRIMARY KEY)")
    database.execute("CREATE TABLE e (id INTEGER PRIMARY KEY, z FLOAT)")
    if state == "staged":
        database.begin()
        database.executemany(_T_INSERT, _DECOYS)
    database.executemany(_T_INSERT, _T_ROWS)
    database.executemany("INSERT INTO u (id, t_id, w) VALUES (?, ?, ?)", _U_ROWS)
    database.executemany(
        "INSERT INTO v (id, g, label) VALUES (?, ?, ?)", _V_ROWS
    )
    database.execute("INSERT INTO one (id) VALUES (1)")
    if state == "staged":
        database.execute("DELETE FROM t WHERE b = 'decoy'")
    return database


def _close(database):
    """Close ``database``; a staged one first rolls its transaction back,
    which must leave every table empty."""
    if database.in_transaction:
        database.rollback()
        assert set(database.row_counts().values()) == {0}
    database.close()


def _run(engine, state, sql, params):
    """``sql``'s result on a fresh ``engine`` database in ``state``, after
    asserting that the cached plan returns it again."""
    database = _database(engine, state)
    try:
        first = database.query(sql, list(params))
        again = database.query(sql, list(params))
    finally:
        _close(database)
    assert again.rows == first.rows and again.stats == first.stats
    return first


def _agreed(sql, params=(), shared_paths=True, state="committed"):
    """The interpreter's result of ``sql``, after asserting that every
    engine returns its rows — twice, the second time through the cached
    plan — and, where the access paths are shared, its counters.  Staged
    rows must give each engine its committed result."""
    results = {}
    for engine in _ENGINES:
        results[engine] = result = _run(engine, state, sql, params)
        if state == "staged":
            committed = _run(engine, "committed", sql, params)
            assert result.rows == committed.rows, engine
            assert result.stats == committed.stats, engine
    reference = results["interpreted"]
    for engine, result in results.items():
        assert sorted(map(repr, result.rows)) == sorted(
            map(repr, reference.rows)
        ), engine
        if "ORDER BY" in sql:
            assert result.rows == reference.rows, engine
        if shared_paths:
            assert result.stats == reference.stats, engine
    assert results["row-at-a-time"].stats == results["vectorized"].stats
    return reference


def _chunk_cache(database, table):
    """Whether ``table`` holds a columnar chunk cache."""
    return database.table(table)._chunks is not None


# --------------------------------------------------------------------------- #
# predicate-less driving scans
# --------------------------------------------------------------------------- #

#: ``(sql, driving table)``: statements whose driving scan has no filter.
_PREDICATE_LESS = [
    pytest.param("SELECT * FROM t", "t", id="select-star"),
    pytest.param("SELECT a, b FROM t", "t", id="select-columns"),
    pytest.param("SELECT COUNT(*) FROM t", "t", id="count-star"),
    pytest.param(
        "SELECT g, COUNT(*), SUM(x), MIN(z) FROM t GROUP BY g ORDER BY g",
        "t", id="group-by",
    ),
    pytest.param(
        "SELECT u.id, t.b FROM u, t WHERE t.id = u.t_id ORDER BY u.id",
        "u", id="index-join",
    ),
]


class TestPredicateLessScans:
    @pytest.mark.parametrize("state", _STATES)
    @pytest.mark.parametrize("sql,driving", _PREDICATE_LESS)
    def test_rows_and_counters_match_the_reference(self, sql, driving, state):
        reference = _agreed(sql, state=state)
        assert reference.rows

    @pytest.mark.parametrize("state", _STATES)
    @pytest.mark.parametrize("sql,driving", _PREDICATE_LESS)
    def test_never_build_the_chunk_cache(self, sql, driving, state):
        after = {}
        for engine in _ENGINES:
            database = _database(engine, state)
            try:
                before = database.query(sql).rows
                dead = database.table(driving).dead_count
                # DML leaves a tombstone and invalidates every cache; the
                # cached plan runs again.
                database.execute(f"DELETE FROM {driving} WHERE id = 3")
                database.executemany(
                    f"INSERT INTO {driving} (id) VALUES (?)", [[1000], [1001]]
                )
                assert database.table(driving).dead_count == dead + 1
                after[engine] = sorted(map(repr, database.query(sql).rows))
                assert after[engine] != sorted(map(repr, before))
                assert not _chunk_cache(database, driving)
            finally:
                _close(database)
        assert len(set(map(tuple, after.values()))) == 1

    @pytest.mark.parametrize("sql,driving", _PREDICATE_LESS)
    def test_explain_reports_the_row_stream(self, sql, driving):
        with _database("vectorized") as database:
            text = database.explain(sql)
        assert text.count("scan: row stream (no driving filter)") == 1
        assert "columnar chunks" not in text

    @pytest.mark.parametrize("state", _STATES)
    def test_a_filtered_scan_still_builds_it(self, state):
        sql = "SELECT id, x FROM t WHERE x > ? ORDER BY id"
        database = _database("vectorized", state)
        try:
            assert "scan: vectorized (columnar chunks)" in database.explain(sql)
            database.query(sql, [1.0])
            assert _chunk_cache(database, "t")
        finally:
            _close(database)
        _agreed(sql, [1.0], state=state)

    @pytest.mark.parametrize("state", _STATES)
    def test_a_scan_into_a_hash_join_still_builds_it(self, state):
        sql = "SELECT t.id, v.label FROM t, v WHERE v.g = t.g ORDER BY t.id, v.id"
        database = _database("vectorized", state)
        try:
            text = database.explain(sql)
            assert "join-probe: vectorized (batch probe)" in text
            assert "scan: vectorized (columnar chunks)" in text
            database.query(sql)
            assert _chunk_cache(database, "t")
            assert not _chunk_cache(database, "v")
        finally:
            _close(database)
        # The interpreter has no hash join: rows only.
        _agreed(sql, shared_paths=False, state=state)


# --------------------------------------------------------------------------- #
# ungrouped aggregates
# --------------------------------------------------------------------------- #

_AGGREGATES = "COUNT(*), COUNT(b), SUM(x), MIN(z), MAX(b), AVG(x)"


class TestUngroupedAggregates:
    @pytest.mark.parametrize("state", _STATES)
    @pytest.mark.parametrize(
        "having,kept",
        [
            ("", True),
            (" HAVING COUNT(*) >= 0", True),
            (" HAVING COUNT(*) < 0", False),
            (" HAVING MIN(z) > 0", False),  # NULL: the group is dropped
        ],
        ids=["no-having", "having-true", "having-false", "having-null"],
    )
    @pytest.mark.parametrize(
        "source,rows",
        [
            ("t", 120),
            ("t WHERE g = 2", 20),
            ("t WHERE x > 100", 0),
            ("e", 0),
        ],
        ids=["whole-table", "probe", "empty-filter", "empty-table"],
    )
    def test_one_row_or_none(self, source, rows, having, kept, state):
        columns = _AGGREGATES if source.startswith("t") else "COUNT(*), MIN(z)"
        sql = f"SELECT {columns} FROM {source}{having}"
        reference = _agreed(sql, state=state)
        if not kept:
            assert reference.rows == []
            return
        assert len(reference.rows) == 1
        assert reference.rows[0][0] == rows

    @pytest.mark.parametrize("state", _STATES)
    def test_min_of_an_all_null_column_is_null(self, state):
        reference = _agreed("SELECT MIN(z) FROM t", state=state)
        assert reference.rows == [(None,)]

    @pytest.mark.parametrize("state", _STATES)
    def test_a_subquery_aggregate_per_outer_row(self, state):
        reference = _agreed(
            "SELECT u.id, (SELECT SUM(x) FROM t WHERE g = ? AND a = ?) "
            "FROM u WHERE u.id < ? ORDER BY u.id",
            [2, 2, 8],
            state=state,
        )
        total = sum(row[4] for row in _T_ROWS if row[1] == 2 and row[2] == 2)
        assert reference.rows == [(i, total) for i in range(1, 8)]


# --------------------------------------------------------------------------- #
# projections
# --------------------------------------------------------------------------- #

_ONE_ITEM = [
    pytest.param("SELECT 7 AS value FROM one", [], id="literal"),
    pytest.param("SELECT x FROM t WHERE g = ? ORDER BY id", [3], id="column"),
    pytest.param(
        "SELECT x * 2 + a FROM t WHERE g = ? ORDER BY id", [3], id="arithmetic"
    ),
    pytest.param(
        "SELECT (SELECT MAX(x) FROM t WHERE g = ?) AS value FROM one",
        [3], id="subquery",
    ),
    pytest.param(
        "SELECT ((SELECT x FROM t WHERE g = ? AND id = ?) > 0) AS value "
        "FROM one",
        [4, 10], id="two-key-subquery",
    ),
]


class TestProjections:
    @pytest.mark.parametrize("state", _STATES)
    @pytest.mark.parametrize("sql,params", _ONE_ITEM)
    def test_one_item_lists(self, sql, params, state):
        reference = _agreed(sql, params, state=state)
        assert reference.rows
        assert all(len(row) == 1 for row in reference.rows)

    @pytest.mark.parametrize("state", _STATES)
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT b FROM t WHERE a = ? ORDER BY id",
            "SELECT b, id, x FROM t WHERE a = ? ORDER BY id",
            "SELECT x, x, id FROM t WHERE a = ? ORDER BY id",
            "SELECT t.b, u.w, t.id FROM u, t WHERE t.id = u.t_id AND u.w > ? "
            "ORDER BY u.id",
        ],
        ids=["one-column", "three-columns", "repeated-column", "join"],
    )
    def test_slot_only_lists(self, sql, state):
        reference = _agreed(sql, [1], state=state)
        assert reference.rows

    @pytest.mark.parametrize(
        "sql,slot_only",
        [
            ("SELECT b FROM t", True),
            ("SELECT b, id, x FROM t WHERE a = ?", True),
            ("SELECT x + 1 FROM t", False),
            ("SELECT id, x + 1 FROM t", False),
        ],
    )
    def test_a_plan_holds_one_projector(self, sql, slot_only):
        with _database("vectorized") as database:
            plan = plan_select(parse_sql(sql), database.tables)
            text = database.explain(sql)
        assert (plan.slot_projector is not None) is slot_only
        assert (plan.projector is not None) is not slot_only
        assert (
            "projection: slot projection (one itemgetter on every path)"
            in text
        ) is slot_only


# --------------------------------------------------------------------------- #
# plan-resolved multi-key probes
# --------------------------------------------------------------------------- #


def _expected(table, g, a):
    """``_PROBE``'s rows, read from the live table by brute force."""
    return sorted(
        (row[0], row[4]) for row in table.scan() if row[1] == g and row[2] == a
    )


def _cached_probe(database):
    """The index probe of ``_PROBE``'s cached plan."""
    (level,) = database._plan_cache[_PROBE][1].levels
    assert type(level.access) is IndexProbe
    return level.access


def _check_all_keys(database):
    """Run the cached probe plan for every key pair against the live rows."""
    table = database.table("t")
    for g in range(6):
        for a in range(4):
            result = database.query(_PROBE, [g, a])
            assert sorted(result.rows) == _expected(table, g, a), (g, a)


#: ``CREATE INDEX`` suffix per index kind: an ordered index probes like a
#: hash index and also keeps a sorted run that compaction, rollback and
#: re-creation must maintain.
_INDEX_KINDS = {"hash": "", "ordered": " ORDERED"}


class TestResolvedProbes:
    @pytest.fixture(params=list(_ENGINES))
    def engine(self, request):
        return request.param

    @pytest.fixture(params=list(_INDEX_KINDS))
    def kind(self, request):
        return request.param

    @pytest.fixture()
    def database(self, engine, kind):
        with _database(engine, index_kind=_INDEX_KINDS[kind]) as database:
            _check_all_keys(database)
            yield database
            if engine != "interpreted":
                # Everything ran through the one cached plan.
                assert database.plan_cache_info()["misses"] == 1

    @pytest.mark.parametrize("kind", list(_INDEX_KINDS))
    @pytest.mark.parametrize("compiled", ["row-at-a-time", "vectorized"])
    def test_the_plan_resolves_its_indexes(self, compiled, kind):
        with _database(compiled, index_kind=_INDEX_KINDS[kind]) as database:
            result = database.query(_PROBE, [2, 2])
            table = database.table("t")
            assert _cached_probe(database).resolved == (
                ("g", table.indexes["g"]), ("a", table.indexes["a"])
            )
            assert all(
                index.ordered == (kind == "ordered")
                for index in (table.indexes["g"], table.indexes["a"])
            )
        assert result.stats.index_lookups == 2
        assert result.stats.rows_scanned == len(result.rows) == 10

    def test_a_dropped_index_falls_back_to_the_filtered_scan(self, database):
        database.table("t").drop_index("a")
        _check_all_keys(database)
        result = database.query(_PROBE, [2, 2])
        assert result.stats.rows_scanned > len(result.rows)

    def test_a_recreated_index_is_used(self, database, engine, kind):
        table = database.table("t")
        table.drop_index("a")
        _check_all_keys(database)
        recreated = table.create_index(
            "t_a_again", "a", ordered=kind == "ordered"
        )
        database.execute("INSERT INTO t (id, g, a, x) VALUES (500, 2, 2, 9.5)")
        _check_all_keys(database)
        result = database.query(_PROBE, [2, 2])
        assert result.stats.index_lookups == 2
        assert result.stats.rows_scanned == len(result.rows) == 11
        if engine != "interpreted":
            assert _cached_probe(database).resolved[1] == ("a", recreated)

    def test_compaction_replaces_the_row_list(self, database):
        table = database.table("t")
        database.executemany(
            "INSERT INTO t (id, g, a, x) VALUES (?, ?, ?, ?)",
            [(1000 + i, i % 6, i % 4, float(i)) for i in range(400)],
        )
        _check_all_keys(database)
        old = table.rows
        database.execute("DELETE FROM t WHERE id > ?", [20])
        assert table.dead_count == 0  # the table compacted
        assert table.rows is not old
        database.execute("INSERT INTO t (id, g, a, x) VALUES (600, 2, 2, 1.0)")
        _check_all_keys(database)
        assert sorted(database.query(_PROBE, [2, 2]).rows) == [
            (2, 0.0), (14, 3.0), (600, 1.0)
        ]

    def test_a_rolled_back_transaction_leaves_no_trace(self, database):
        before = {
            (g, a): sorted(database.query(_PROBE, [g, a]).rows)
            for g in range(6) for a in range(4)
        }
        database.begin()
        database.execute("DELETE FROM t WHERE g = ?", [2])
        database.execute("INSERT INTO t (id, g, a, x) VALUES (700, 2, 2, 4.0)")
        assert database.query(_PROBE, [2, 2]).rows == [(700, 4.0)]
        _check_all_keys(database)
        database.rollback()
        _check_all_keys(database)
        assert before == {
            (g, a): sorted(database.query(_PROBE, [g, a]).rows)
            for g in range(6) for a in range(4)
        }


# --------------------------------------------------------------------------- #
# scalar subqueries run inside their statement's execution
# --------------------------------------------------------------------------- #

_COMPILED = ["row-at-a-time", "vectorized"]

#: Two levels of scalar subqueries, each referenced once per outer row.
_NESTED = (
    "SELECT u.id, (SELECT MAX(x) FROM t WHERE g = "
    "(SELECT MIN(g) FROM v WHERE id > ?)) FROM u WHERE u.id < ? ORDER BY u.id"
)

_HASH_JOIN = "SELECT t.id, v.label FROM t, v WHERE v.g = t.g ORDER BY t.id, v.id"


@pytest.fixture()
def plan_runs(monkeypatch):
    """``(plan, ctx)`` of every plan run, statement or subquery."""
    from repro.relalg.planner import QueryPlan

    runs = []
    run = QueryPlan._run

    def run_spy(plan, ctx, vectorized):
        runs.append((plan, ctx))
        return run(plan, ctx, vectorized)

    monkeypatch.setattr(QueryPlan, "_run", run_spy)
    return runs


@pytest.fixture()
def result_sets(monkeypatch):
    """A list that grows by one at every ``ResultSet`` construction."""
    from repro.relalg.rowset import ResultSet

    built = []
    init = ResultSet.__init__

    def init_spy(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ResultSet, "__init__", init_spy)
    return built


class TestSubqueryRuns:
    @pytest.mark.parametrize("engine", _COMPILED)
    def test_a_statement_builds_one_result_set(
        self, engine, plan_runs, result_sets
    ):
        with _database(engine) as database:
            database.query(_NESTED, [4, 6])
            del plan_runs[:], result_sets[:]
            result = database.query(_NESTED, [4, 6])
        assert len(result.rows) == 5
        assert len(result_sets) == 1 and result_sets[0] is result
        # Three plans ran, once each; the other 8 references replayed.
        assert result.stats.subqueries == 10
        assert result.stats.subquery_replays == 8
        (_top, top_ctx), *children = plan_runs
        assert len(children) == 2
        for _plan, ctx in children:
            # A subquery run shares its statement's parameters and memo and
            # counts into its own replay record.
            assert ctx.params is top_ctx.params
            assert ctx.subquery_memo is top_ctx.subquery_memo
            assert ctx.stats is not top_ctx.stats
        assert len(top_ctx.subquery_memo) == 2

    @pytest.mark.parametrize("engine", _COMPILED)
    def test_a_plan_without_a_hash_join_builds_no_hash_table_dict(
        self, engine, plan_runs
    ):
        with _database(engine) as database:
            database.query(_NESTED, [4, 6])
            database.query(_PROBE, [2, 2])
            database.query("SELECT u.id, t.b FROM u, t WHERE t.id = u.t_id")
            assert plan_runs
            assert all(ctx.hash_tables is None for _plan, ctx in plan_runs)
            del plan_runs[:]
            database.query(_HASH_JOIN)
        ((plan, ctx),) = plan_runs
        assert plan.levels[1].access.kind == "hash-probe"
        assert list(ctx.hash_tables) == [1]


#: The inputs of perfbench's ``warm_pushdown`` workload at seed 1.
_WARM_PES = (1, 2, 3, 4, 32)
_WARM_THRESHOLD = 0.081
_WARM_BACKEND = "ms_access"


def test_a_warm_pushdown_operation_keeps_its_counters(plan_runs, result_sets):
    """One analysis of every test run of a loaded database with warm plan
    caches: 330 statements, whose 1,139 subquery references run 775
    subquery plans and replay 364, each plan run through the one execution
    body and only the statements building a result set."""
    from repro.apprentice import (
        ExecutionSimulator,
        SimulationConfig,
        synthetic_workload,
    )
    from repro.asl.specs import cosy_specification
    from repro.compiler import generate_schema, load_repository
    from repro.cosy.analyzer import CosyAnalyzer
    from repro.cosy.strategies import PushdownStrategy
    from repro.relalg import NativeClient, backend

    spec = cosy_specification()
    repository = ExecutionSimulator(
        synthetic_workload("mixed"),
        SimulationConfig(pe_counts=_WARM_PES, seed=1),
    ).run()
    mapping = generate_schema(spec)
    client = NativeClient(backend(_WARM_BACKEND))
    try:
        ids = load_repository(repository, mapping, client)
        analyzer = CosyAnalyzer(
            repository, specification=spec, threshold=_WARM_THRESHOLD
        )
        strategy = PushdownStrategy(spec, mapping, client, ids)

        def operation():
            for pes in _WARM_PES:
                analyzer.analyze(pes=pes, strategy=strategy)

        summary = client.backend.database.summary

        def counters():
            stats = summary.select_stats
            return (
                summary.statements, stats.subqueries, stats.subquery_replays,
                stats.rows_scanned, stats.index_lookups,
            )

        operation()  # fills the plan cache and the compiled queries
        before = counters()
        del plan_runs[:], result_sets[:]
        operation()
        after = counters()
    finally:
        client.close()
    # statements, subquery references, replays, rows scanned, index lookups
    assert [b - a for a, b in zip(before, after)] == [330, 1139, 364, 7623, 4462]
    assert len(plan_runs) == 330 + (1139 - 364)
    assert len(result_sets) == 330
