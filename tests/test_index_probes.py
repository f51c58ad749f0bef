"""Multi-key index probes and hashed literal OR-sets.

An index probe consumes every indexed equality conjunct of its level: the
first one (the probe the planner always chose) and every later one on a
different indexed column whose other side is already bound.  The buckets of
those indexes are intersected by :func:`repro.relalg.storage.probe_rows`,
which both engines call, so rows, their order and the ``QueryStats`` stay
identical between the compiled engine and the interpreted reference.  Each
key is evaluated once per probe and counts one index lookup; the probe
returns — and charges as scanned — only the rows in every bucket.

An OR-chain of ``col = literal`` terms on one column compiles, in the row
compiler only, into one frozenset membership test that returns the chain's
exact bool.
"""

import pytest

from repro.relalg import Database
from repro.relalg.compile import SlotLayout, _compile_literal_or_set
from repro.relalg.errors import RelalgError
from repro.relalg.sqlparser import parse_sql

_ENGINES = {
    "interpreted": {"engine": "interpreted"},
    "row-at-a-time": {"vectorized": False},
    "vectorized": {},
}

#: The COSY timing-table shape: every (owner, run) pair holds one or two
#: rows, ``kind`` is a type tag with NULLs, ``v`` holds -0.0 and a NaN.
_ROWS = [
    (i, i % 8, i % 5, ("Send", "Recv", "Wait", None)[i % 4], float(i % 7))
    for i in range(1, 61)
]
_ROWS[6] = (7, 7, 2, "Recv", -0.0)
_ROWS[13] = (14, 6, 4, "Recv", float("nan"))

_SELECT = "SELECT id FROM t WHERE owner = ? AND run = ?"


def _database(engine="vectorized", indexes=("owner", "run")):
    database = Database(**_ENGINES[engine])
    database.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, owner INTEGER, run INTEGER, "
        "kind VARCHAR, v FLOAT)"
    )
    for column in indexes:
        database.execute(f"CREATE INDEX t_{column} ON t ({column})")
    database.executemany(
        "INSERT INTO t (id, owner, run, kind, v) VALUES (?, ?, ?, ?, ?)", _ROWS
    )
    database.execute("CREATE TABLE r (id INTEGER PRIMARY KEY, owner INTEGER, run INTEGER)")
    database.executemany(
        "INSERT INTO r (id, owner, run) VALUES (?, ?, ?)",
        [(1, 3, 3), (2, 4, None), (3, 0, 0), (4, 5, 1)],
    )
    return database


def _agreed(sql, params=(), **options):
    """The one outcome — rows and counters, or the typed error — every
    engine gives ``sql`` (asserted identical)."""
    outcomes = {}
    for engine in _ENGINES:
        with _database(engine, **options) as database:
            try:
                result = database.query(sql, list(params))
            except RelalgError as exc:
                outcomes[engine] = ("error", str(exc))
            else:
                outcomes[engine] = (
                    "rows", tuple(map(repr, result.rows)), repr(result.stats)
                )
    assert len(set(outcomes.values())) == 1, (sql, params, outcomes)
    return outcomes["interpreted"]


class TestMultiKeyProbePlan:
    def test_explain_lists_every_probed_column_in_conjunct_order(self):
        with _database() as database:
            text = database.explain(
                "SELECT id FROM t WHERE run = ? AND v > ? AND owner = ?"
            )
        assert "index-probe on run, owner, filters=1" in text

    def test_a_second_conjunct_on_a_probed_column_stays_a_filter(self):
        with _database() as database:
            text = database.explain(
                "SELECT id FROM t WHERE owner = ? AND owner = ? AND run = ?"
            )
        assert "index-probe on owner, run, filters=1" in text

    def test_an_unindexed_column_stays_a_filter(self):
        with _database(indexes=("owner",)) as database:
            text = database.explain(_SELECT)
        assert "index-probe on owner, filters=1" in text

    def test_estimates_and_join_order_are_the_first_keys(self):
        sql = (
            "SELECT r.id, t.id FROM r, t "
            "WHERE r.owner = t.owner AND t.run = r.run AND r.id > ?"
        )
        with _database() as multi, _database(indexes=("owner",)) as single:
            multi_text = multi.explain(sql)
            single_text = single.explain(sql)
        assert "2. t (t): index-probe on owner, run, " in multi_text
        assert "2. t (t): index-probe on owner, " in single_text
        # Only the access text and the residual filter count differ.
        assert multi_text.replace("on owner, run", "on owner").replace(
            "filters=0", "filters=1"
        ) == single_text

    def test_a_primary_key_conjunct_joins_the_probe(self):
        with _database() as database:
            text = database.explain("SELECT id FROM t WHERE owner = ? AND id = ?")
            result = database.query(
                "SELECT id FROM t WHERE owner = ? AND id = ?", [3, 11]
            )
        assert "index-probe on owner, id, filters=0" in text
        assert result.rows == [(11,)]
        assert result.stats.index_lookups == 2
        assert result.stats.rows_scanned == 1


class TestMultiKeyProbeExecution:
    @pytest.mark.parametrize("owner", [0, 3, 7, 9])
    @pytest.mark.parametrize("run", [0, 2, 4])
    def test_rows_and_counters_match_the_reference(self, owner, run):
        outcome = _agreed(_SELECT, [owner, run])
        expected = tuple(
            repr((row[0],)) for row in _ROWS
            if row[1] == owner and row[2] == run
        )
        assert outcome[1] == expected
        # One lookup per key; only the intersection is read.
        assert "index_lookups=2," in outcome[2]
        assert f"rows_scanned={len(expected)}," in outcome[2]

    def test_the_same_rows_in_the_same_order_as_probe_then_filter(self):
        sql = "SELECT id, kind FROM t WHERE run = ? AND owner = ?"
        with _database() as multi, _database(indexes=("run",)) as single:
            for statement in (
                "DELETE FROM t WHERE id = 13",
                "BEGIN",
                "DELETE FROM t WHERE id = 53",
                "ROLLBACK",
                "INSERT INTO t (id, owner, run, kind, v) "
                "VALUES (93, 5, 3, 'Wait', 1.0)",
            ):
                multi.execute(statement)
                single.execute(statement)
            for run in range(5):
                for owner in range(8):
                    got = multi.query(sql, [run, owner])
                    expected = single.query(sql, [run, owner])
                    assert got.rows == expected.rows, (run, owner)
                    assert got.stats.rows_scanned <= expected.stats.rows_scanned
        assert multi.query(sql, [3, 5]).rows == [(13 + 40, "Recv"), (93, "Wait")]

    @pytest.mark.parametrize(
        "params", [[None, 1], [3, None], [float("nan"), 1], [3, float("nan")]]
    )
    def test_a_null_or_nan_key_matches_nothing_after_every_key_counted(
        self, params
    ):
        outcome = _agreed(_SELECT, params)
        assert outcome[1] == ()
        assert "index_lookups=2," in outcome[2]
        assert "rows_scanned=0," in outcome[2]

    def test_a_subquery_key_runs_once_per_probe(self):
        outcome = _agreed(
            "SELECT id FROM t WHERE owner = ? AND run = (SELECT MAX(run) FROM r)",
            [3],
        )
        assert outcome[1] == ("(3,)", "(43,)")
        # The subquery scans r once: 4 rows, plus the two probed rows.
        assert "rows_scanned=6," in outcome[2]
        assert "subqueries=1," in outcome[2]

    def test_an_inner_level_probes_every_outer_bound_key(self):
        outcome = _agreed(
            "SELECT r.id, t.id FROM r, t "
            "WHERE r.id > ? AND t.owner = r.owner AND t.run = r.run "
            "ORDER BY r.id, t.id",
            [0],
        )
        expected = tuple(
            repr((rid, row[0]))
            for rid, owner, run in [(1, 3, 3), (2, 4, None), (3, 0, 0), (4, 5, 1)]
            for row in _ROWS
            if row[1] == owner and row[2] == run
        )
        assert outcome[1] == expected
        # Four outer rows, two keys each (the NULL run still counts).
        assert "index_lookups=8," in outcome[2]

    def test_three_keys_intersect(self):
        with _database(indexes=("owner", "run", "kind")) as database:
            sql = "SELECT id FROM t WHERE kind = ? AND owner = ? AND run = ?"
            assert "index-probe on kind, owner, run" in database.explain(sql)
        outcome = _agreed(sql, ["Recv", 5, 0], indexes=("owner", "run", "kind"))
        assert outcome[1] == ("(5,)", "(45,)")
        assert "index_lookups=3," in outcome[2]
        assert "rows_scanned=2," in outcome[2]

    def test_every_key_pair_returns_exactly_its_rows(self):
        with _database() as database:
            for owner in range(8):
                for run in range(5):
                    result = database.query(_SELECT, [owner, run])
                    expected = [
                        row[0] for row in _ROWS
                        if row[1] == owner and row[2] == run
                    ]
                    assert [r[0] for r in result.rows] == expected
                    assert result.stats.rows_scanned == len(expected)


def _or_set(sql):
    """The hashed membership closure the row compiler builds for the WHERE
    clause of ``sql``, or ``None`` when the clause keeps the OR-chain."""
    with _database() as database:
        layout = SlotLayout([("t", database.table("t"))])
    return _compile_literal_or_set(parse_sql(sql).where, layout)


class TestHashedOrSets:
    @pytest.mark.parametrize(
        "predicate",
        [
            "kind = 'Send' OR kind = 'Recv'",
            "kind = 'Send' OR ('Recv' = kind OR kind = 'Nope')",
            "v = 0 OR v = 2.0 OR v = 5",
            "NOT (kind = 'Send' OR kind = 'Wait')",
            "owner = 1 AND (run = 0 OR run = 3)",
        ],
    )
    def test_engines_agree(self, predicate):
        outcome = _agreed(f"SELECT id, kind, v FROM t WHERE {predicate}")
        assert outcome[0] == "rows" and outcome[1]

    def test_null_and_nan_values_are_not_members(self):
        outcome = _agreed(
            "SELECT id FROM t WHERE NOT (kind = 'Send' OR kind = 'Recv' "
            "OR kind = 'Wait')"
        )
        # The chain gives False for NULL, so NOT gives True: the NULL kinds.
        assert outcome[1] == tuple(
            repr((row[0],)) for row in _ROWS if row[3] is None
        )
        nan = _agreed("SELECT id FROM t WHERE id = 14 AND (v = 1.0 OR v = 2.0)")
        assert nan[1] == ()

    def test_negative_zero_is_a_member_of_zero(self):
        outcome = _agreed("SELECT id FROM t WHERE id < 10 AND (v = 0 OR v = 9)")
        assert outcome[1] == ("(7,)",)

    def test_a_literal_chain_compiles_to_one_membership_test(self):
        member = _or_set(
            "SELECT id FROM t WHERE kind = 'Send' OR 'Recv' = kind OR kind = 'Send'"
        )
        assert member is not None
        kind = 3  # slot of t.kind
        for value, expected in (("Send", True), ("Recv", True), ("Wait", False),
                                (None, False)):
            row = [None] * 5
            row[kind] = value
            assert member(row, None) is expected

    @pytest.mark.parametrize(
        "predicate",
        [
            pytest.param("v = 1 OR v = 'x'", id="mixed-type-classes"),
            pytest.param("kind = 'Send' OR kind = NULL", id="null-literal"),
            pytest.param("kind = 'Send' OR owner = 1", id="two-columns"),
            pytest.param("kind = 'Send' OR kind > 'T'", id="range-leaf"),
            pytest.param("kind = ? OR kind = 'Send'", id="placeholder"),
            pytest.param("kind = 'Send' OR kind IS NULL", id="is-null-leaf"),
            pytest.param(
                "kind = 'Send' OR kind = (SELECT MAX(kind) FROM t)",
                id="subquery",
            ),
        ],
    )
    def test_other_shapes_keep_the_chain(self, predicate):
        assert _or_set(f"SELECT id FROM t WHERE {predicate}") is None

    def test_analysis_and_vectorization_reports_are_unchanged(self):
        with _database() as database:
            text = database.explain(
                "SELECT id FROM t WHERE kind = 'Send' OR kind = 'Recv'"
            )
        assert "scan: vectorized (columnar chunks)" in text
        assert text.endswith("analysis:\n  no findings")
