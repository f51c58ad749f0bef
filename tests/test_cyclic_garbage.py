"""Statement execution leaves no cyclic garbage.

Everything one statement creates — its execution context and counters, the
slot row, the result list, the loops that enumerate the join — must be freed
by reference counting as soon as it is dropped.  A single reference cycle
per execution (a nested function that calls itself through its own closure
cell is the classic one) leaves all of it to the cyclic garbage collector
instead: that cost a warm pushdown analysis about 24,000 objects and 28
collections per operation.  These tests switch the collector off, run
statements on every engine, in autocommit mode and inside a transaction,
and then require a full collection to find nothing.  On failure they name
the functions among the garbage.

A plan may hold cycles while it is cached (a compiled scalar subquery keys
its per-execution memo by itself), so every database stays alive until the
check has run: the tests check executions, not plan eviction.  The DML
statements write a table no SELECT reads, so no execution evicts a plan.
"""

from __future__ import annotations

import gc
import re
import types
from collections import Counter
from typing import Callable

import pytest

from repro.bench import build_scenario, load_into_backend
from repro.cosy.strategies import ClientSideStrategy, PushdownStrategy
from repro.relalg import Database

# --------------------------------------------------------------------------- #
# the check
# --------------------------------------------------------------------------- #


def assert_no_cyclic_garbage(run: Callable[[], None], what: str) -> None:
    """Run ``run()`` with the cyclic collector off; fail if a full collection
    afterwards finds unreachable objects, naming the functions among them."""
    gc.collect()
    enabled = gc.isenabled()
    debug = gc.get_debug()
    saved = len(gc.garbage)
    gc.disable()
    try:
        run()
        # DEBUG_SAVEALL keeps what the collection finds in gc.garbage, so it
        # can be named below.
        gc.set_debug(debug | gc.DEBUG_SAVEALL)
        found = gc.collect()
        garbage = gc.garbage[saved:]
        del gc.garbage[saved:]
    finally:
        gc.set_debug(debug)
        if enabled:
            gc.enable()
    functions = sorted(
        {obj.__qualname__ for obj in garbage if isinstance(obj, types.FunctionType)}
    )
    kinds = Counter(type(obj).__name__ for obj in garbage).most_common(8)
    del garbage
    gc.collect()
    assert found == 0, (
        f"{what} left {found} objects of cyclic garbage; functions among "
        f"them: {functions}; most common types: {kinds}"
    )


# --------------------------------------------------------------------------- #
# statements on every engine
# --------------------------------------------------------------------------- #

#: ``(name, sql, params)``; names say which access path or operator the
#: statement exercises.
SELECTS = [
    ("scan", "SELECT id, x FROM m WHERE x > ?", [20.0]),
    ("one-key index probe", "SELECT id, x FROM m WHERE g = ?", [2]),
    ("two-key index probe", "SELECT id FROM m WHERE g = ? AND h = ?", [2, 1]),
    ("range probe", "SELECT id FROM m WHERE k BETWEEN ? AND ?", [3.0, 6.0]),
    ("hash join", "SELECT m.id, d.name FROM m, d WHERE m.x = d.w", []),
    (
        "index-probe join over three levels",
        "SELECT d.name, m.id, e.name FROM d, m, d e "
        "WHERE m.g = d.dk AND e.dk = m.h",
        [],
    ),
    ("index-order top-k", "SELECT id, k FROM m ORDER BY k DESC LIMIT 5", []),
    (
        "group by with having",
        "SELECT g, SUM(x), COUNT(*) FROM m GROUP BY g HAVING COUNT(*) > ?",
        [20],
    ),
    ("distinct", "SELECT DISTINCT g, h FROM m", []),
    (
        "nested scalar subqueries",
        "SELECT id FROM m WHERE x > "
        "(SELECT AVG(x) FROM m WHERE g = (SELECT MIN(dk) FROM d))",
        [],
    ),
    (
        "scalar subquery in a join-level filter",
        "SELECT d.name, m.id FROM d, m WHERE d.dk = m.dk "
        "AND m.x > d.w + (SELECT AVG(x) FROM m WHERE g = (SELECT MIN(dk) FROM d))",
        [],
    ),
]

#: The access paths the compiled plans of :data:`SELECTS` must take, so the
#: check covers each of them.
EXPECTED_PLAN_LINES = [
    "scan, filters=1",
    "index-probe on g, filters=",
    "index-probe on g, h",
    "range-probe on k",
    "hash-probe on w",
    "top-k: index-order walk",
]

ENGINES = {
    "interpreted": dict(engine="interpreted"),
    "row-at-a-time": dict(vectorized=False),
    "vectorized": dict(vectorized=True),
}


def _database(**options) -> Database:
    db = Database(**options)
    db.execute(
        "CREATE TABLE m (id INTEGER PRIMARY KEY, g INTEGER, h INTEGER, "
        "k FLOAT, x FLOAT, dk INTEGER)"
    )
    db.execute("CREATE INDEX m_g ON m (g)")
    db.execute("CREATE INDEX m_h ON m (h)")
    db.execute("CREATE INDEX m_k ON m (k) ORDERED")
    db.execute("CREATE TABLE d (dk INTEGER PRIMARY KEY, w FLOAT, name VARCHAR)")
    db.execute("CREATE TABLE log (id INTEGER PRIMARY KEY, note VARCHAR)")
    db.executemany(
        "INSERT INTO m VALUES (?, ?, ?, ?, ?, ?)",
        [(i, i % 5, i % 3, float(i % 17), i * 0.5, i % 7) for i in range(120)],
    )
    db.executemany(
        "INSERT INTO d VALUES (?, ?, ?)",
        [(i, i * 1.25, f"d{i}") for i in range(7)],
    )
    return db


def _run_statements(db: Database, round_: int, in_transaction: bool) -> None:
    """Every statement kind once, inside one transaction if
    ``in_transaction``; ``round_`` keeps the DML keys fresh."""
    if in_transaction:
        db.begin()
    for _name, sql, params in SELECTS:
        db.execute(sql, params)
    base = 1000 * round_
    db.executemany(
        "INSERT INTO log VALUES (?, ?)",
        [(base + i, f"note {i}") for i in range(50)],
    )
    db.execute("DELETE FROM log WHERE id = ?", [base + 7])
    if db.engine == "compiled":
        for _name, sql, params in SELECTS:
            db.explain(sql, analyze=True, params=params)
    if in_transaction:
        db.commit()


def _check_statements(db: Database, what: str, in_transaction: bool) -> None:
    assert_no_cyclic_garbage(
        lambda: _run_statements(db, 1, in_transaction),
        f"{what}, first executions",
    )
    planned = db.plan_cache_info()["misses"]
    assert_no_cyclic_garbage(
        lambda: _run_statements(db, 2, in_transaction),
        f"{what}, cached executions",
    )
    assert db.plan_cache_info()["misses"] == planned
    assert db.execute("SELECT COUNT(*) FROM log").rows == [(98,)]


@pytest.mark.parametrize("mode", ["autocommit", "transaction"])
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_statements_leave_no_cyclic_garbage(engine, mode):
    db = _database(**ENGINES[engine])
    _check_statements(db, f"{engine} engine, {mode}", mode == "transaction")
    assert not db.in_transaction


def test_the_statements_take_the_intended_access_paths():
    db = _database()
    plans = "\n".join(db.explain(sql, params=params) for _n, sql, params in SELECTS)
    for line in EXPECTED_PLAN_LINES:
        assert line in plans, line
    # The three-level join: two index probes below a scan of d.
    three_levels = db.explain(SELECTS[5][1])
    assert "join order: d -> m -> e" in three_levels
    assert three_levels.count("index-probe on") == 2
    # The subquery filter reads both bindings: the second level applies it.
    assert re.search(r"\n  2\. [^\n]*filters=1", db.explain(SELECTS[-1][1]))


# --------------------------------------------------------------------------- #
# whole COSY analyses
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def scenario():
    return build_scenario("mixed", pe_counts=(1, 2, 4))


def test_a_warm_pushdown_analysis_leaves_no_cyclic_garbage(scenario):
    client, ids = load_into_backend(scenario, "oracle7")
    strategy = PushdownStrategy(
        scenario.specification, scenario.mapping, client, ids
    )

    def analyze() -> None:
        scenario.analyzer.analyze(pes=4, strategy=strategy)

    analyze()  # compiles the SQL and fills the plan cache
    try:
        assert_no_cyclic_garbage(analyze, "a warm pushdown analysis")
    finally:
        client.close()


def test_a_warm_client_side_analysis_leaves_no_cyclic_garbage(scenario):
    strategy = ClientSideStrategy(scenario.specification)

    def analyze() -> None:
        scenario.analyzer.analyze(pes=4, strategy=strategy)

    analyze()  # compiles the ASL expressions
    assert_no_cyclic_garbage(analyze, "a warm client-side analysis")


def test_the_check_names_a_leaking_function():
    def leak() -> None:
        def recurse(n):
            return n and recurse(n - 1)

        recurse(3)

    with pytest.raises(AssertionError, match=r"leak\.<locals>\.recurse"):
        assert_no_cyclic_garbage(leak, "a self-calling closure")
