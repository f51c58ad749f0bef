"""Scalar semantics: one implementation, one evaluation order, typed errors.

The row compiler (:func:`repro.relalg.compile.compile_row_expr`) is the one
implementation of scalar semantics in the compiled engine: the batch
compiler behind vectorized scans adds only column-at-a-time work and
compiles every row-independent subtree through the row compiler.  Every
engine follows one evaluation-order rule — each operator evaluates all its
operands left to right, except AND/OR, which stop at the deciding operand,
and COALESCE, which stops at the first non-NULL argument — and a mistyped
value raises a typed :class:`ExecutionError`, never a bare ``TypeError``.

Every check runs a statement on the interpreted, row-at-a-time and
vectorized engines and requires the same rows and ``QueryStats``, or the
same typed error message:

* constant forms in every batch-compiled position (driving filter, hash-join
  key, GROUP BY key, aggregate argument), over a filled and an empty
  table, committed or staged by a transaction that is still open;
* the evaluation-order, typed-error and vectorized-filter-error cases, the
  typed errors over committed and over staged rows;
* aggregates nested under IS NULL, IN, COALESCE or a scalar function,
  which the analyzer rejects before any row, over a filled and an empty
  table;
* ORDER BY items, resolved once per statement by one rule before any row,
  and aggregates in a row query's sort key, rejected before any row, over a
  filled and an empty table;
* index probes: a probe that falls back to a scan applies its level's
  conjuncts in their original order, and probe keys raise their errors
  before any row, over a filled and an empty table;
* a seeded evaluation-order fuzzer over random single-table statements.
"""

from __future__ import annotations

import random

import pytest

from repro.relalg import Database, ExecutionError, NativeClient, backend
from repro.relalg.errors import RelalgError
from repro.relalg.planner import plan_select
from repro.relalg.sqlparser import parse_sql

_ENGINES = {
    "interpreted": {"engine": "interpreted"},
    "row-at-a-time": {"vectorized": False},
    "vectorized": {},
}

_T_DDL = "CREATE TABLE t (id INTEGER PRIMARY KEY, g INTEGER, x FLOAT, s VARCHAR)"
_T_INSERT = "INSERT INTO t (id, g, x, s) VALUES (?, ?, ?, ?)"
_U_DDL = "CREATE TABLE u (id INTEGER PRIMARY KEY, k INTEGER)"
_U_ROWS = [(1, 1), (2, 2), (3, 3), (4, None), (5, 2)]

#: Three rows, x NULL at id 2: the shape the bugfix cases are stated on.
_THREE = [(1, 1, 1.0, "a"), (2, 1, None, "b"), (3, 2, 3.0, "c")]
#: Twelve rows with NULLs in every nullable column, zeros and mixed case.
_TWELVE = [
    (1, 1, 1.5, "a"), (2, 1, None, "Bb"), (3, 2, 0.0, None),
    (4, None, -2.0, "c"), (5, 2, 4.0, "dD"), (6, 3, None, "e"),
    (7, 3, 7.5, ""), (8, 1, -0.5, "f"), (9, None, 3.0, None),
    (10, 2, 10.0, "g"), (11, 3, 0.0, "hh"), (12, 1, 2.5, "I"),
]


#: How the rows stand while the statements run: ``committed``, or
#: ``staged`` — inserted by a transaction that is still open, after decoy
#: rows that the same transaction deleted again, so ``t`` holds tombstones
#: before its first live row.  Every engine, vectorized scans included,
#: must read staged rows exactly as it reads committed ones.
_STATES = ["committed", "staged"]
_DECOYS = [(100 + i, i % 3, float(i), "decoy") for i in range(5)]


def _database(engine, rows, state="committed"):
    database = Database(**_ENGINES[engine])
    database.execute(_T_DDL)
    database.execute(_U_DDL)
    if state == "staged":
        database.begin()
        database.executemany(_T_INSERT, _DECOYS)
    database.executemany(_T_INSERT, rows)
    database.executemany("INSERT INTO u (id, k) VALUES (?, ?)", _U_ROWS)
    if state == "staged":
        database.execute("DELETE FROM t WHERE s = 'decoy'")
    return database


def _close(database):
    """Close ``database``; a staged one first rolls its transaction back,
    which must leave both tables empty."""
    if database.in_transaction:
        database.rollback()
        assert database.row_counts() == {"t": 0, "u": 0}
    database.close()


def _outcome(database, sql, params):
    """``("rows", columns, row reprs, stats repr)`` or ``("error", type,
    message)``; reprs keep ``-0.0`` and NaN comparable.

    Only typed errors are caught: a bare ``TypeError`` fails the test.
    """
    try:
        result = database.query(sql, params)
    except RelalgError as exc:
        return ("error", type(exc).__name__, str(exc))
    return (
        "rows",
        tuple(result.columns),
        tuple(map(repr, result.rows)),
        repr(result.stats),
    )


def _proves_contradiction(sql, tables):
    """Whether some plan in the compiled plan tree of ``sql`` is a proven
    contradiction: it skips its scan, which the interpreter never does, by
    design."""
    try:
        plans = [plan_select(parse_sql(sql), tables)]
    except RelalgError:
        return False
    while plans:
        plan = plans.pop()
        if plan.contradiction:
            return True
        plans.extend(plan.subquery_plans)
    return False


def _agreed(sql, params=(), rows=_THREE, state="committed"):
    """The one outcome every engine gives ``sql`` (asserted identical)."""
    outcomes = {}
    for engine in _ENGINES:
        database = _database(engine, rows, state)
        try:
            outcomes[engine] = _outcome(database, sql, list(params))
        finally:
            _close(database)
    assert len(set(outcomes.values())) == 1, (sql, params, outcomes)
    return outcomes["interpreted"]


# --------------------------------------------------------------------------- #
# constant forms in every batch-compiled position
# --------------------------------------------------------------------------- #

_NAN = float("nan")

#: Each form appears once per statement, so a parameter list shorter than
#: the form's ``?`` count leaves one missing.
_CONSTANT_FORMS = [
    pytest.param("2", [], id="literal"),
    pytest.param("?", [2], id="param"),
    pytest.param("?", [], id="missing-param"),
    pytest.param("-?", [3], id="negated-param"),
    pytest.param("NOT ?", [0], id="not-param"),
    pytest.param("? + 1", [1], id="param-plus-one"),
    pytest.param("1 / 0", [], id="division-by-zero"),
    pytest.param("? = NULL", [1], id="param-eq-null"),
    pytest.param("NULL = ?", [1], id="null-eq-param"),
    pytest.param("? AND ?", [1], id="and-missing-right"),
    pytest.param("? OR ?", [0], id="or-missing-right"),
    pytest.param("? IS NULL", [None], id="param-is-null"),
    pytest.param("? IN (1, NULL)", [1], id="in-with-null"),
    pytest.param("? IN (?, 1)", [_NAN, _NAN], id="nan-member"),
    pytest.param("COALESCE(?, 2)", [None], id="coalesce"),
    pytest.param("ABS(?)", [-2], id="abs"),
    pytest.param("LENGTH(?)", ["abc"], id="length"),
    pytest.param("LOWER(?)", ["AbC"], id="lower"),
    pytest.param("UPPER(?)", ["AbC"], id="upper"),
    pytest.param("LENGTH(?)", [5], id="mistyped-length"),
    pytest.param("-?", ["x"], id="mistyped-negation"),
]

#: ``placement -> (statement template, batch rung it exercises)``.
_PLACEMENTS = {
    "filter": ("SELECT id FROM t WHERE x IS NOT NULL AND ({f})", "vector_filter"),
    "filter-or": ("SELECT id FROM t WHERE g = 1 OR ({f})", "vector_filter"),
    "join-key": (
        "SELECT t.id, u.id FROM t, u WHERE u.k = t.g + ({f})", "vector_join_key"
    ),
    "group-key": (
        "SELECT g, COUNT(*) FROM t GROUP BY g, ({f})", "vector_aggregate"
    ),
    "aggregate-arg": (
        "SELECT g, COUNT(*), MAX({f}) FROM t GROUP BY g", "vector_aggregate"
    ),
    "sum-arg": ("SELECT COUNT(*), SUM({f}) FROM t", "vector_aggregate"),
}


@pytest.fixture(scope="module")
def constant_databases():
    databases = {
        (engine, state, filled): _database(
            engine, _TWELVE if filled else [], state
        )
        for engine in _ENGINES
        for state in _STATES
        for filled in (True, False)
    }
    yield databases
    for database in databases.values():
        _close(database)


class TestConstantForms:
    @pytest.mark.parametrize("placement", sorted(_PLACEMENTS))
    def test_placements_take_the_batch_rungs(self, placement, constant_databases):
        template, rung = _PLACEMENTS[placement]
        database = constant_databases[("vectorized", "committed", True)]
        plan = plan_select(parse_sql(template.format(f="? + 1")), database.tables)
        assert getattr(plan, rung) is not None, placement

    @pytest.mark.parametrize("state", _STATES)
    @pytest.mark.parametrize("filled", [True, False], ids=["filled", "empty"])
    @pytest.mark.parametrize("form,params", _CONSTANT_FORMS)
    def test_engines_agree(self, form, params, filled, state,
                           constant_databases):
        for placement, (template, _rung) in _PLACEMENTS.items():
            sql = template.format(f=form)
            outcomes = {
                engine: _outcome(
                    constant_databases[(engine, state, filled)], sql, params
                )
                for engine in _ENGINES
            }
            if state == "staged":
                for engine, outcome in outcomes.items():
                    committed = _outcome(
                        constant_databases[(engine, "committed", filled)],
                        sql, params,
                    )
                    assert outcome == committed, (engine, placement, sql)
            vectorized = outcomes["vectorized"]
            assert outcomes["row-at-a-time"] == vectorized, (placement, sql)
            reference = outcomes["interpreted"]
            if reference[0] == "error" or vectorized[0] == "error":
                assert reference == vectorized, (placement, sql)
                continue
            assert reference[1] == vectorized[1], (placement, sql)
            # Join reordering may change row order.
            assert sorted(reference[2]) == sorted(vectorized[2]), (placement, sql)
            tables = constant_databases[("vectorized", state, filled)].tables
            if placement == "join-key":
                continue  # hash joins do other physical work, by design
            if _proves_contradiction(sql, tables):
                continue  # a proven contradiction skips the scan, by design
            assert reference[3] == vectorized[3], (placement, sql)


# --------------------------------------------------------------------------- #
# one evaluation order
# --------------------------------------------------------------------------- #


class TestEvaluationOrder:
    def test_equality_evaluates_both_operands(self):
        # x is NULL at id 2, where the right operand divides by zero.
        assert _agreed("SELECT id FROM t WHERE x = 1 / (id - 2)") == (
            "error", "ExecutionError", "division by zero in 1 / (id - 2)"
        )

    def test_coalesce_stops_at_the_first_non_null_argument(self):
        outcome = _agreed("SELECT id, COALESCE(1, 1 / 0) FROM t")
        assert outcome[2] == ("(1, 1)", "(2, 1)", "(3, 1)")

    def test_coalesce_subquery_runs_only_for_null_arguments(self):
        outcome = _agreed(
            "SELECT id, COALESCE(x, (SELECT MAX(x) FROM t)) FROM t"
        )
        assert outcome[2] == ("(1, 1.0)", "(2, 3.0)", "(3, 3.0)")
        assert "rows_scanned=6," in outcome[3]
        assert "subqueries=1," in outcome[3]

    def test_having_and_stops_at_the_deciding_operand(self):
        outcome = _agreed(
            "SELECT g, COUNT(*) FROM t GROUP BY g "
            "HAVING COUNT(*) > 5 AND SUM(x) / 0 > 1"
        )
        assert outcome[:3] == ("rows", ("g", "count"), ())

    def test_having_or_stops_at_the_deciding_operand(self):
        outcome = _agreed(
            "SELECT g FROM t GROUP BY g HAVING COUNT(*) > 0 OR SUM(x) / 0 > 1"
        )
        assert outcome[2] == ("(1,)", "(2,)")

    def test_having_subquery_runs_only_when_undecided(self):
        outcome = _agreed(
            "SELECT g, COUNT(*) FROM t GROUP BY g "
            "HAVING COUNT(*) > 5 AND (SELECT MAX(x) FROM t) > 0"
        )
        assert outcome[2] == ()
        assert "rows_scanned=3," in outcome[3]
        assert "subqueries=0," in outcome[3]


# --------------------------------------------------------------------------- #
# typed errors for mistyped values and folded expressions
# --------------------------------------------------------------------------- #

_TYPED_ERRORS = [
    pytest.param("SELECT LENGTH(?) FROM t", [5],
                 "invalid argument for LENGTH: 5 in LENGTH(?)", id="length"),
    pytest.param("SELECT ABS(?) FROM t", ["x"],
                 "invalid argument for ABS: 'x' in ABS(?)", id="abs"),
    pytest.param("SELECT -? FROM t", ["x"],
                 "invalid operand for -: 'x' in -?", id="negation"),
    pytest.param("SELECT SUM(?) FROM t", ["x"],
                 "invalid value for SUM: 'x' in SUM(?)", id="sum"),
    pytest.param("SELECT AVG(?) FROM t", ["x"],
                 "invalid value for AVG: 'x' in AVG(?)", id="avg"),
    pytest.param("SELECT MIN(COALESCE(x, ?)) FROM t", ["x"],
                 "invalid value for MIN: 'x' in MIN(COALESCE(x, ?))",
                 id="min-mixed"),
    pytest.param("SELECT g, MAX(COALESCE(x, ?)) FROM t GROUP BY g", ["x"],
                 "invalid value for MAX: 'x' in MAX(COALESCE(x, ?))",
                 id="max-mixed-grouped"),
    pytest.param("SELECT g FROM t GROUP BY g HAVING -MIN(?) > 0", ["x"],
                 "invalid operand for -: 'x' in -MIN(?)", id="having-negation"),
    pytest.param("SELECT COUNT(*) FROM t GROUP BY ABS(?)", ["x"],
                 "invalid argument for ABS: 'x' in ABS(?)", id="group-key"),
    pytest.param("SELECT id FROM t WHERE ABS(COALESCE(x, ?)) > 0", ["x"],
                 "invalid argument for ABS: 'x' in ABS(COALESCE(x, ?))",
                 id="filter"),
    pytest.param("SELECT t.id FROM t, u WHERE u.k = -COALESCE(t.x, ?)", ["x"],
                 "invalid operand for -: 'x' in -COALESCE(t.x, ?)",
                 id="join-key-negation"),
    pytest.param(
        "SELECT t.id FROM t, u WHERE u.k = LENGTH(COALESCE(t.x, ?))", [5],
        "invalid argument for LENGTH: 1.0 in LENGTH(COALESCE(t.x, ?))",
        id="join-key-function",
    ),
    # The analyzer folds constant subtrees; the message still names the
    # expression as written.
    pytest.param("SELECT id FROM t WHERE id / (1 - 1) > 0", [],
                 "division by zero in id / (1 - 1)", id="folded-divisor"),
    pytest.param("SELECT id FROM t WHERE ABS(id) / (2 IS NULL) > 0", [],
                 "division by zero in ABS(id) / 2 IS NULL",
                 id="folded-is-null"),
    pytest.param("SELECT id FROM t WHERE id > 0 AND x / (3 - 3) > 1", [],
                 "division by zero in x / (3 - 3)", id="folded-conjunct"),
]


class TestTypedErrors:
    @pytest.mark.parametrize("state", _STATES)
    @pytest.mark.parametrize("sql,params,message", _TYPED_ERRORS)
    def test_every_engine_raises_the_same_typed_error(
        self, sql, params, message, state
    ):
        assert _agreed(sql, params, state=state) == (
            "error", "ExecutionError", message
        )

    @pytest.mark.parametrize("filled", [True, False], ids=["filled", "empty"])
    def test_a_star_item_of_an_aggregate_query_raises_on_every_engine(
        self, filled
    ):
        # Every engine plans the statement first, so the planner raises on
        # an empty table too.
        assert _agreed(
            "SELECT *, COUNT(*) FROM t", rows=_THREE if filled else []
        ) == (
            "error", "ExecutionError",
            "'*' is only valid in SELECT lists and COUNT(*)",
        )

    @pytest.mark.parametrize("filled", [True, False], ids=["filled", "empty"])
    @pytest.mark.parametrize("sql", [
        pytest.param("SELECT * FROM t GROUP BY g", id="star"),
        pytest.param("SELECT t.* FROM t GROUP BY g", id="qualified-star"),
        pytest.param("SELECT g, * FROM t GROUP BY g HAVING COUNT(*) > 5",
                     id="having-rejects-every-group"),
        pytest.param("SELECT g, t.* FROM t GROUP BY g HAVING COUNT(*) > 5 "
                     "ORDER BY nope", id="before-order-by"),
    ])
    def test_a_star_item_raises_when_no_group_reaches_the_select_list(
        self, sql, filled
    ):
        # The planner rejects the item before any engine reads a row, so an
        # empty table or a HAVING that rejects every group raises too, and
        # ahead of a bad ORDER BY.
        assert _agreed(sql, rows=_THREE if filled else []) == (
            "error", "ExecutionError",
            "'*' is only valid in SELECT lists and COUNT(*)",
        )

    @pytest.mark.parametrize("filled", [True, False], ids=["filled", "empty"])
    @pytest.mark.parametrize("sql", [
        pytest.param("SELECT t.* + 1 FROM t", id="select-item"),
        pytest.param("SELECT t.* + 1 FROM t GROUP BY g", id="grouped-item"),
        pytest.param("SELECT id FROM t WHERE t.* = 1", id="where"),
        pytest.param("SELECT id FROM t ORDER BY t.* + 1", id="order-by"),
        pytest.param("SELECT (SELECT u.* + 1 FROM u) FROM t", id="subquery"),
    ])
    def test_a_star_inside_an_expression_raises_before_any_row(
        self, sql, filled
    ):
        # Every engine, the interpreter included, rejects the '*' while it
        # plans.
        assert _agreed(sql, rows=_THREE if filled else []) == (
            "error", "ExecutionError",
            "'*' is only valid in SELECT lists and COUNT(*)",
        )


class TestInsertNegation:
    """A negated INSERT value raises the SELECT's typed error at every layer
    and inserts nothing; NULL negates to NULL."""

    @staticmethod
    def _layers():
        client = NativeClient(backend("oracle7"))
        return client, [client.backend.database, client.backend, client]

    @pytest.mark.parametrize("layer", range(3), ids=["database", "backend", "client"])
    @pytest.mark.parametrize("sql,params,message", [
        pytest.param("INSERT INTO t (id, x) VALUES (1, -?)", ["abc"],
                     "invalid operand for -: 'abc' in -?", id="parameter"),
        pytest.param("INSERT INTO t (id, x) VALUES (2, -'abc')", [],
                     "invalid operand for -: 'abc' in -'abc'", id="literal"),
    ])
    def test_a_non_number_raises_a_typed_error(self, layer, sql, params, message):
        client, layers = self._layers()
        database = client.backend.database
        database.execute(_T_DDL)
        with pytest.raises(ExecutionError) as raised:
            layers[layer].execute(sql, params)
        assert str(raised.value) == message
        with pytest.raises(ExecutionError) as raised:
            layers[layer].executemany(
                "INSERT INTO t (id, x) VALUES (?, -?)", [[3, 1.0], [4, "abc"]]
            )
        assert str(raised.value) == "invalid operand for -: 'abc' in -?"
        assert database.row_counts()["t"] == 0
        # The SELECT form raises the same error.
        database.execute("INSERT INTO t (id, x) VALUES (1, 2.0)")
        with pytest.raises(ExecutionError) as raised:
            database.query("SELECT -? FROM t", ["abc"])
        assert str(raised.value) == "invalid operand for -: 'abc' in -?"

    def test_null_negates_to_null(self):
        client, _ = self._layers()
        client.execute(_T_DDL)
        client.executemany(
            "INSERT INTO t (id, x) VALUES (?, -?)", [[1, None], [2, 1.5]]
        )
        assert client.query("SELECT id, x FROM t").rows == [(1, None), (2, -1.5)]


# --------------------------------------------------------------------------- #
# vectorized filters raise the row engine's error
# --------------------------------------------------------------------------- #

_EIGHT = [(i, i % 3, float(i), None) for i in range(1, 9)]
_CROSS_CONJUNCT = "SELECT id FROM t WHERE 100 / (5 - id) > 0 AND x / ? > 1"


class TestVectorizedFilterErrors:
    def test_first_failing_row_decides_not_the_first_failing_conjunct(self):
        # Row 1 passes the first conjunct and fails the second; the first
        # conjunct fails only at row 5.
        assert _agreed(_CROSS_CONJUNCT, [0], rows=_EIGHT) == (
            "error", "ExecutionError", "division by zero in x / ?"
        )


# --------------------------------------------------------------------------- #
# aggregates nested under row-level operators
# --------------------------------------------------------------------------- #

#: ids 1-8, g = id % 2, x NULL at id 3.
_NESTED_ROWS = [(i, i % 2, None if i == 3 else float(i), None) for i in range(1, 9)]

#: ``(statement, position of the nested SUM)``.  The interpreter used to
#: return rows whenever the aggregate was never reached: when the left
#: operand of AND decided, or when an empty table formed no group.
_NESTED_AGGREGATES = [
    pytest.param(
        "SELECT g, COUNT(*) FROM t GROUP BY g "
        "HAVING COUNT(*) > 5 AND SUM(x) IS NULL", 61, id="is-null",
    ),
    pytest.param(
        "SELECT g, COALESCE(SUM(x), 0) FROM t GROUP BY g", 19, id="coalesce",
    ),
    pytest.param(
        "SELECT g FROM t GROUP BY g HAVING SUM(x) IN (16, 17)", 34,
        id="in-operand",
    ),
    pytest.param(
        "SELECT g FROM t GROUP BY g HAVING COUNT(*) > 5 AND 16 IN (SUM(x), 1)",
        58, id="in-item",
    ),
    pytest.param(
        "SELECT g FROM t GROUP BY g HAVING COUNT(*) > 5 AND ABS(SUM(x)) > 1",
        55, id="scalar-function",
    ),
]


class TestNestedAggregatesRejected:
    @pytest.mark.parametrize("filled", [True, False], ids=["filled", "empty"])
    @pytest.mark.parametrize("sql,position", _NESTED_AGGREGATES)
    def test_every_engine_rejects_before_any_row(self, sql, position, filled):
        assert _agreed(sql, rows=_NESTED_ROWS if filled else []) == (
            "error",
            "SemanticError",
            f"aggregate function SUM is not allowed here (at character {position})",
        )

    @pytest.mark.parametrize("filled", [True, False], ids=["filled", "empty"])
    def test_row_operators_inside_aggregates_and_arithmetic_over_them_run(
        self, filled
    ):
        outcome = _agreed(
            "SELECT COUNT(x IS NULL), SUM(COALESCE(x, 0)), MAX(ABS(x)), "
            "-SUM(x) + 1 FROM t HAVING NOT SUM(x) > 100",
            rows=_NESTED_ROWS if filled else [],
        )
        # On the empty table SUM(x) is NULL, so HAVING drops the one group.
        assert outcome[2] == (("(8, 33.0, 8.0, -32.0)",) if filled else ())


# --------------------------------------------------------------------------- #
# ORDER BY resolution: one rule, before any row
# --------------------------------------------------------------------------- #

_AGGREGATE_ORDER_ERROR = (
    "error",
    "ExecutionError",
    "ORDER BY of an aggregate query must reference output columns",
)


class TestOrderByResolution:
    """Every engine resolves ORDER BY through ``resolve_order_by`` once per
    statement, so an item that names no output column of an aggregate
    query, or a position outside the select list, raises the same typed
    error whether or not the table holds a row."""

    @pytest.mark.parametrize("engine", list(_ENGINES))
    @pytest.mark.parametrize("filled", [True, False], ids=["filled", "empty"])
    @pytest.mark.parametrize(
        "sql",
        [
            pytest.param(
                "SELECT g, SUM(x) FROM t GROUP BY g ORDER BY ABS(SUM(x))",
                id="grouped",
            ),
            pytest.param(
                "SELECT SUM(x) FROM t ORDER BY ABS(SUM(x))", id="ungrouped"
            ),
        ],
    )
    def test_aggregate_order_by_off_the_select_list_raises(
        self, sql, filled, engine
    ):
        with _database(engine, _THREE if filled else []) as database:
            assert _outcome(database, sql, []) == _AGGREGATE_ORDER_ERROR

    @pytest.mark.parametrize("engine", list(_ENGINES))
    @pytest.mark.parametrize("filled", [True, False], ids=["filled", "empty"])
    @pytest.mark.parametrize(
        "sql,name",
        [
            pytest.param("SELECT id FROM t ORDER BY COUNT(*)", "COUNT", id="count"),
            pytest.param("SELECT id FROM t ORDER BY SUM(x)", "SUM", id="sum"),
            pytest.param("SELECT id FROM t ORDER BY MAX(x) + 1", "MAX", id="nested"),
        ],
    )
    def test_an_aggregate_sort_key_of_a_row_query_raises(
        self, sql, name, filled, engine
    ):
        with _database(engine, _THREE if filled else []) as database:
            assert _outcome(database, sql, []) == (
                "error",
                "ExecutionError",
                f"aggregate function {name} is not allowed here",
            )

    @pytest.mark.parametrize(
        "sql,filled_rows,empty_rows",
        [
            pytest.param(
                "SELECT g, SUM(x) FROM t GROUP BY g ORDER BY SUM(x) DESC",
                ("(2, 3.0)", "(1, 1.0)"), (),
                id="grouped",
            ),
            pytest.param(
                "SELECT g, SUM(x) FROM t GROUP BY g ORDER BY 2 DESC",
                ("(2, 3.0)", "(1, 1.0)"), (),
                id="grouped-position",
            ),
            pytest.param(
                "SELECT SUM(x) FROM t ORDER BY SUM(x)", ("(4.0,)",),
                ("(None,)",), id="ungrouped",
            ),
        ],
    )
    def test_order_by_a_select_list_aggregate_sorts(
        self, sql, filled_rows, empty_rows
    ):
        assert _agreed(sql)[2] == filled_rows
        assert _agreed(sql, rows=[])[2] == empty_rows

    @pytest.mark.parametrize("engine", list(_ENGINES))
    @pytest.mark.parametrize("filled", [True, False], ids=["filled", "empty"])
    @pytest.mark.parametrize("position", [0, 3])
    def test_order_by_position_outside_the_select_list_raises(
        self, position, filled, engine
    ):
        with _database(engine, _THREE if filled else []) as database:
            assert _outcome(
                database, f"SELECT id, x FROM t ORDER BY {position}", []
            ) == (
                "error",
                "ExecutionError",
                f"ORDER BY position {position} is not in the select list "
                "(1..2)",
            )


# --------------------------------------------------------------------------- #
# index probes: fallbacks in conjunct order, probe keys that raise
# --------------------------------------------------------------------------- #

#: One row whose ``1 / b`` divides by zero: a statement over it raises
#: unless a conjunct evaluated earlier rejects the row.
_PROBE_ROW = (1, 2, 0, 5)


def _probe_database(engine, indexes, rows):
    database = Database(**_ENGINES[engine])
    database.execute(
        "CREATE TABLE p (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER, "
        "c INTEGER)"
    )
    for column, suffix in indexes:
        database.execute(f"CREATE INDEX p_{column} ON p ({column}){suffix}")
    database.executemany(
        "INSERT INTO p (id, a, b, c) VALUES (?, ?, ?, ?)", rows
    )
    database.execute(_U_DDL)
    database.executemany("INSERT INTO u (id, k) VALUES (?, ?)", [(1, 2), (2, 3)])
    return database


def _agreed_probe(sql, params=(), indexes=(), dropped=(), rows=(_PROBE_ROW,)):
    """The one result or error every engine gives ``sql``, after the
    ``dropped`` indexes were dropped directly on the table.

    The compiled engines run the statement once before the drop, so the
    second run executes the cached plan, whose probe falls back to a scan.
    Counters are left out: that scan and the reference engine's probe on a
    remaining index do different work, by design.
    """
    outcomes = {}
    for engine in _ENGINES:
        with _probe_database(engine, indexes, list(rows)) as database:
            if dropped:
                _outcome(database, sql, list(params))
                for column in dropped:
                    database.table("p").drop_index(column)
            outcomes[engine] = _outcome(database, sql, list(params))[:3]
            if dropped and engine != "interpreted":
                assert database.plan_cache_info()["hits"] == 1, engine
    assert len(set(outcomes.values())) == 1, (sql, params, outcomes)
    return outcomes["interpreted"]


_NO_ROWS = ("rows", ("id",), ())
_ZERO_DIVISION = ("error", "ExecutionError", "division by zero in 1 / b")


class TestProbeFallbackOrder:
    """A probe that cannot use its index scans the table and applies the
    level's conjuncts in their original order, so it raises what the
    reference engine raises, and only when the reference engine does."""

    def test_range_probe_with_an_incomparable_bound(self):
        assert _agreed_probe(
            "SELECT id FROM p WHERE a > ? AND 1 / b > 0", ["x"],
            indexes=[("a", " ORDERED")],
        ) == (
            "error", "ExecutionError",
            "cannot compare 2 and 'x': '>' not supported between instances "
            "of 'int' and 'str' in a > ?",
        )

    def test_hash_probe_whose_index_was_dropped(self):
        assert _agreed_probe(
            "SELECT id FROM p WHERE a = 1 AND 1 / b > 0",
            indexes=[("a", "")], dropped=["a"],
        ) == _NO_ROWS

    @pytest.mark.parametrize("dropped", ["c", "a"])
    def test_multi_key_probe_with_one_index_dropped(self, dropped):
        assert _agreed_probe(
            "SELECT id FROM p WHERE c = 6 AND 1 / b > 0 AND a = 2",
            indexes=[("a", ""), ("c", "")], dropped=[dropped],
        ) == _NO_ROWS

    @pytest.mark.parametrize(
        "sql,params,indexes,dropped",
        [
            pytest.param("SELECT id FROM p WHERE 1 / b > 0 AND a > ?", ["x"],
                         [("a", " ORDERED")], [], id="range"),
            pytest.param("SELECT id FROM p WHERE 1 / b > 0 AND a = 1", [],
                         [("a", "")], ["a"], id="hash"),
            pytest.param(
                "SELECT id FROM p WHERE 1 / b > 0 AND c = 6 AND a = 2", [],
                [("a", ""), ("c", "")], ["c"], id="multi-key",
            ),
        ],
    )
    def test_residual_filter_written_first_raises_everywhere(
        self, sql, params, indexes, dropped
    ):
        assert _agreed_probe(
            sql, params, indexes=indexes, dropped=dropped
        ) == _ZERO_DIVISION


class TestProbeKeyErrors:
    """Every probe key is evaluated once per probe, before any row is read,
    and its error raises on every engine — whether the table holds rows or
    not, and whether an earlier key's bucket is empty or not."""

    @pytest.mark.parametrize("rows", [[_PROBE_ROW], []], ids=["filled", "empty"])
    def test_a_subquery_key_that_raises(self, rows):
        assert _agreed_probe(
            "SELECT id FROM p WHERE a = (SELECT k FROM u)",
            indexes=[("a", "")], rows=rows,
        ) == (
            "error", "ExecutionError",
            "scalar subquery returned 2 row(s) × 1 column(s)",
        )

    @pytest.mark.parametrize("first", [7, 2], ids=["empty-bucket", "match"])
    def test_every_key_is_evaluated(self, first):
        assert _agreed_probe(
            "SELECT id FROM p WHERE a = ? AND b = ?", [first],
            indexes=[("a", ""), ("b", "")],
        ) == (
            "error", "ExecutionError",
            "statement uses 2 parameter(s) but only 1 were supplied",
        )


# --------------------------------------------------------------------------- #
# seeded evaluation-order fuzzer
# --------------------------------------------------------------------------- #
#
# Random single-table statements (no LIMIT, no ordered index) over operands
# that can be NULL, mistyped, missing or a scalar subquery, run on every
# engine.  Aggregates appear only under the arithmetic,
# comparison, logical and unary operators; IS NULL, IN, COALESCE and the
# scalar functions wrap row-level operands.  Its seed range is its own, so
# the other fuzzers' draws and corpora do not move.

_FUZZ_SEEDS = range(10_000, 10_300)

_PARAM_VALUES = [0, 1, 2, -1, 2.5, None, "x", "Ab"]
_LITERALS = ["0", "1", "2", "0.5", "'a'", "NULL"]
#: ``(SQL, placeholder count)``; the last one returns several rows.
_SUBQUERIES = [
    ("(SELECT MAX(x) FROM t)", 0),
    ("(SELECT COUNT(*) FROM t WHERE g = 1)", 0),
    ("(SELECT s FROM t WHERE id = 2)", 0),
    ("(SELECT x FROM t WHERE id = ?)", 1),
    ("(SELECT id FROM t WHERE g = 3)", 0),
]
_AGGREGATES = ["COUNT", "SUM", "MIN", "MAX", "AVG"]
_FUNCTIONS = ["ABS", "LENGTH", "LOWER", "UPPER"]


class _Statement:
    """Draws one random statement; ``params`` follow the ``?``s in text order."""

    def __init__(self, rng):
        self.rng = rng
        self.params = []

    def param(self):
        self.params.append(self.rng.choice(_PARAM_VALUES))
        return "?"

    def constant(self):
        roll = self.rng.random()
        if roll < 0.35:
            return self.rng.choice(_LITERALS)
        if roll < 0.8:
            return self.param()
        sql, placeholders = self.rng.choice(_SUBQUERIES)
        for _ in range(placeholders):
            self.param()
        return sql

    def row_operand(self):
        if self.rng.random() < 0.45:
            return self.rng.choice(["id", "g", "x", "s"])
        return self.constant()

    def key_operand(self):
        return "g" if self.rng.random() < 0.4 else self.constant()

    def group_operand(self):
        if self.rng.random() < 0.6:
            aggregate = self.rng.choice(_AGGREGATES)
            return f"{aggregate}({self.expr(1, self.row_operand)})"
        return self.key_operand()

    def expr(self, depth, leaf, wrap=None):
        """A random expression over ``leaf()`` operands.  ``wrap`` builds the
        operands of IS NULL, IN, COALESCE and the functions (default: the
        same generator)."""
        rng = self.rng
        if depth <= 0 or rng.random() < 0.25:
            return leaf()

        def sub():
            return self.expr(depth - 1, leaf, wrap)

        def inner():
            if wrap is None:
                return sub()
            return wrap(depth - 1)

        form = rng.randrange(9)
        if form == 0:
            return f"({sub()} {rng.choice('+-*/')} {sub()})"
        if form == 1:
            return f"({sub()} {rng.choice(['=', '<', '>', '<>'])} {sub()})"
        if form == 2:
            return f"({sub()} {rng.choice(['AND', 'OR'])} {sub()})"
        if form == 3:
            return f"(NOT {sub()})"
        if form == 4:
            return f"(-{sub()})"
        if form == 5:
            return f"({inner()} IS {rng.choice(['', 'NOT '])}NULL)"
        if form == 6:
            return f"({inner()} IN ({inner()}, {inner()}))"
        if form == 7:
            return f"COALESCE({inner()}, {inner()})"
        return f"{rng.choice(_FUNCTIONS)}({inner()})"

    def row_expr(self, depth=2):
        return self.expr(depth, self.row_operand)

    def group_expr(self, depth=2):
        return self.expr(
            depth, self.group_operand,
            wrap=lambda d: self.expr(d, self.key_operand),
        )


def _fuzz_statements(seed):
    rng = random.Random(seed)
    drawn = []
    for kind in ("where", "items", "having"):
        statement = _Statement(rng)
        if kind == "where":
            sql = (
                f"SELECT id, {statement.row_expr(1)} FROM t "
                f"WHERE {statement.row_expr()} AND {statement.row_expr()}"
            )
        elif kind == "items":
            sql = (
                f"SELECT id, {statement.row_expr()}, {statement.row_expr()} "
                f"FROM t"
            )
        else:
            sql = (
                f"SELECT g, COUNT(*), {statement.group_expr()} FROM t "
                f"GROUP BY g HAVING COUNT(*) > 1 AND {statement.group_expr()}"
            )
        params = statement.params
        if params and rng.random() < 0.15:
            params = params[:rng.randrange(len(params))]  # trailing ?s missing
        drawn.append((sql, params))
    return drawn


@pytest.fixture(scope="module")
def fuzz_databases():
    databases = {engine: _database(engine, _TWELVE) for engine in _ENGINES}
    yield databases
    for database in databases.values():
        database.close()


class TestEvaluationOrderFuzzer:
    @pytest.mark.parametrize("seed", _FUZZ_SEEDS)
    def test_engines_agree(self, seed, fuzz_databases):
        for sql, params in _fuzz_statements(seed):
            outcomes = {
                engine: _outcome(database, sql, params)
                for engine, database in fuzz_databases.items()
            }
            label = (seed, sql, params)
            compiled = outcomes["vectorized"]
            assert outcomes["row-at-a-time"] == compiled, label
            reference = outcomes["interpreted"]
            if reference != compiled and _proves_contradiction(
                sql, fuzz_databases["vectorized"].tables
            ):
                # The compiled plan skips the proven-empty scan: rows only.
                if reference[0] == "rows":
                    assert reference[:3] == compiled[:3], label
                continue
            assert reference == compiled, (label, outcomes)
