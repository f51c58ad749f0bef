"""Cross-cutting property-based tests (hypothesis) on core invariants,
plus the seeded differential fuzzers: compiled engine vs. the seed
AST-walking engine, and the executor matrix (sequential / rowwise) against
the sequential reference — each replayed from a persistent seed corpus
before random exploration — and the transaction fuzzer, which checks every
engine's reads of staged writes and the rows each COMMIT or ROLLBACK
leaves."""

import datetime as dt
import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.apprentice import ApprenticeExport, ApprenticeParser, simulate, synthetic_workload
from repro.asl import parse_expression, unparse_expr
from repro.datamodel import PerformanceDatabase, TimingType
from repro.relalg import (
    Database,
    ExecutionError,
    SemanticError,
    analyze_select,
    parse_sql,
    plan_select,
)


# --------------------------------------------------------------------------- #
# the profile the property tests run under (tests/conftest.py)
# --------------------------------------------------------------------------- #


def test_examples_are_derandomized_unless_another_profile_is_named(request):
    """Tier-1 draws the same examples on every run (``tier1``); a run with
    ``--hypothesis-profile=default`` explores fresh ones."""
    profile = request.config.getoption("--hypothesis-profile") or "tier1"
    assert settings.get_current_profile_name() == profile
    assert settings.default.derandomize is (profile == "tier1")


# --------------------------------------------------------------------------- #
# ASL expression round trips over generated expressions
# --------------------------------------------------------------------------- #

_identifiers = st.sampled_from(["r", "t", "Basis", "Cost", "sum", "tt", "NoPe"])


def _expression_strategy() -> st.SearchStrategy:
    atoms = st.one_of(
        st.integers(min_value=0, max_value=10_000).map(str),
        st.floats(min_value=0.001, max_value=1000, allow_nan=False).map(
            lambda v: format(v, ".4g")
        ),
        _identifiers,
        _identifiers.map(lambda name: f"{name}.Incl"),
        _identifiers.map(lambda name: f"Duration({name}, t)"),
    )

    def compound(children):
        return st.one_of(
            st.tuples(children, st.sampled_from(["+", "-", "*", "/"]), children).map(
                lambda parts: f"({parts[0]} {parts[1]} {parts[2]})"
            ),
            st.tuples(children, st.sampled_from([">", ">=", "==", "<"]), children).map(
                lambda parts: f"{parts[0]} {parts[1]} {parts[2]}"
            ),
            children.map(lambda inner: f"SUM({inner} WHERE s IN r.TotTimes)"),
            children.map(lambda inner: f"UNIQUE({{s IN r.TotTimes WITH s.Incl == {inner}}}).Incl"),
        )

    return st.recursive(atoms, compound, max_leaves=12)


class TestAslExpressionRoundTrip:
    @given(source=_expression_strategy())
    @settings(max_examples=120, deadline=None)
    def test_unparse_parse_is_a_fixed_point(self, source):
        """For any generated expression, unparse(parse(x)) is stable."""
        try:
            expr = parse_expression(source)
        except Exception:
            # The generator may produce sources that are not valid ASL
            # (e.g. comparison chains); those are not round-trip subjects.
            return
        once = unparse_expr(expr)
        twice = unparse_expr(parse_expression(once))
        assert once == twice


# --------------------------------------------------------------------------- #
# simulator invariants over random workload parameters
# --------------------------------------------------------------------------- #


class TestSimulatorInvariants:
    @given(
        pes=st.sampled_from([1, 2, 3, 5, 8, 16]),
        imbalance=st.floats(min_value=0.0, max_value=1.0),
        kind=st.sampled_from(["imbalanced", "stencil"]),
    )
    @settings(max_examples=12, deadline=None)
    def test_repository_invariants_hold_for_random_configurations(
        self, pes, imbalance, kind
    ):
        if kind == "imbalanced":
            workload = synthetic_workload(kind, imbalance=imbalance)
        else:
            workload = synthetic_workload(kind)
        repository = simulate(workload, pe_counts=(1, pes) if pes > 1 else (1,))
        repository.validate()
        for region in repository.regions():
            for timing in region.TotTimes:
                assert timing.Incl + 1e-9 >= timing.Excl >= 0
                assert timing.Ovhd >= 0
                # Measured overhead never exceeds the inclusive time.
                assert timing.Ovhd <= timing.Incl + 1e-9
            for typed in region.TypTimes:
                assert typed.Time >= 0
        main = repository.programs[0].latest_version().main_region
        for run in repository.runs():
            assert PerformanceDatabase.total_cost(main, run) >= -1e-9


# --------------------------------------------------------------------------- #
# Apprentice summary round trip over random small workloads
# --------------------------------------------------------------------------- #


class TestSummaryRoundTrip:
    @given(
        functions=st.integers(min_value=1, max_value=3),
        regions=st.integers(min_value=1, max_value=3),
        pes=st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=10, deadline=None)
    def test_round_trip_preserves_counts_and_totals(self, functions, regions, pes):
        workload = synthetic_workload(
            "scalable", functions=functions, regions_per_function=regions,
            name=f"rt_{functions}_{regions}",
        )
        repository = simulate(workload, pe_counts=(1, pes) if pes > 1 else (1,))
        text = ApprenticeExport(repository).dumps()
        parsed = ApprenticeParser().loads(text)
        assert parsed.stats().counts == repository.stats().counts
        original_total = sum(
            t.Incl for region in repository.regions() for t in region.TotTimes
        )
        parsed_total = sum(
            t.Incl for region in parsed.regions() for t in region.TotTimes
        )
        assert parsed_total == pytest.approx(original_total, rel=1e-9)


# --------------------------------------------------------------------------- #
# SQL engine: WHERE filters match Python filters
# --------------------------------------------------------------------------- #


class TestSqlFilterEquivalence:
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.floats(min_value=-100, max_value=100, allow_nan=False),
            ),
            min_size=0,
            max_size=40,
        ),
        threshold=st.floats(min_value=-100, max_value=100, allow_nan=False),
        group=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_where_clause_matches_python_filter(self, rows, threshold, group):
        database = Database()
        database.execute(
            "CREATE TABLE v (id INTEGER PRIMARY KEY, g INTEGER, x FLOAT)"
        )
        database.executemany(
            "INSERT INTO v (id, g, x) VALUES (?, ?, ?)",
            [(i + 1, g, x) for i, (g, x) in enumerate(rows)],
        )
        result = database.query(
            "SELECT id FROM v WHERE g = ? AND x > ? ORDER BY id", [group, threshold]
        )
        expected = [
            i + 1 for i, (g, x) in enumerate(rows) if g == group and x > threshold
        ]
        assert [row[0] for row in result] == expected


# --------------------------------------------------------------------------- #
# Differential fuzzer: compiled plans vs. the seed AST-walking engine
# --------------------------------------------------------------------------- #
#
# Every seeded case builds the same random two-table database (random row
# counts, NULLs in every nullable column, randomly created secondary indexes)
# in one Database instance per engine — the compiled engine, vectorized (the
# default) and row-at-a-time, and the interpreted reference — and runs a
# handful of random SELECTs (index probes, filters, IS NULL, IN lists,
# DISTINCT, aggregates, equi-joins, ORDER BY/LIMIT) against all of them.
# Compiled rows must equal the interpreted reference's bit for bit; the
# QueryStats counters must be byte-identical whenever the compiled plan does
# the same physical work as the interpreter: no hash-join probe (the seed
# engine does not have them) and a join order that follows the syntactic
# binding order (the seed engine cannot reorder by estimated cardinality).
# In both carve-out cases only the returned-row counter is compared.  The
# ``vectorized=False`` compiled database additionally pins the columnar
# batch path byte-identical (rows and full QueryStats) to row-at-a-time.
# The multi-key axis runs every multi-key statement kind (two and three
# indexed equality conjuncts on one binding, at the driving and an inner
# level, NULL/parameter/subquery keys, a duplicated column) per seed under
# the same oracle.

_FUZZ_CASES = 200
_MULTI_KEY_FUZZ_CASES = 100
_FUZZ_STRINGS = ["alpha", "beta", "gamma", None]


def _random_schema(rng):
    """One random two-table schema: the DDL plus the initial data rows.

    ``m.o`` is strictly increasing (1.37 spacing, ±0.4 jitter) and never
    NULL, so a single-key ``ORDER BY o`` totally orders the rows.  The
    ordered-index axis (``ORDERED`` on ``m.x`` / ``m.o``)
    sweeps range probes and pushdown on and off against the same statements
    running as plain filtered scans.
    """
    ddl = [
        "CREATE TABLE m (id INTEGER PRIMARY KEY, g INTEGER, x FLOAT,"
        " s VARCHAR, o FLOAT)",
        "CREATE TABLE r (id INTEGER PRIMARY KEY, m_id INTEGER, v FLOAT)",
        # Always present, so the multi-key statements below always meet two
        # indexed columns of ``m`` (the primary key and ``s``); no other
        # generated statement has an equality on ``s``.
        "CREATE INDEX idx_m_s ON m (s)",
    ]
    if rng.random() < 0.5:
        ddl.append("CREATE INDEX idx_m_g ON m (g)")
    if rng.random() < 0.5:
        ddl.append("CREATE INDEX idx_r_mid ON r (m_id)")
    if rng.random() < 0.5:
        ddl.append("CREATE INDEX idx_m_x ON m (x) ORDERED")
    if rng.random() < 0.5:
        ddl.append("CREATE INDEX idx_m_o ON m (o) ORDERED")
    n_m = rng.randint(0, 25)
    m_rows = [
        (
            i + 1,
            rng.choice([None, 0, 1, 2, 3]),
            None if rng.random() < 0.15 else round(rng.uniform(-50.0, 50.0), 3),
            rng.choice(_FUZZ_STRINGS),
            round(i * 1.37 + rng.uniform(0.0, 0.4), 3),
        )
        for i in range(n_m)
    ]
    n_r = rng.randint(0, 25)
    r_rows = [
        (
            i + 1,
            None if rng.random() < 0.15 else rng.randint(1, max(n_m, 1)),
            round(rng.uniform(0.0, 100.0), 3),
        )
        for i in range(n_r)
    ]
    if rng.random() < 0.2:
        # NULL-heavy variant: every m.x is NULL, so aggregate NULL skipping
        # (SUM/MIN/MAX over an all-NULL column, COUNT(x) vs COUNT(*)) is
        # exercised on whole groups rather than only on sparse rows — and,
        # with the ordered-x axis on, range probes over an all-NULL run.
        m_rows = [(i, g, None, s, o) for (i, g, _x, s, o) in m_rows]
    return ddl, m_rows, r_rows


def _load_schema(database, ddl, m_rows, r_rows):
    for sql in ddl:
        database.execute(sql)
    database.executemany(
        "INSERT INTO m (id, g, x, s, o) VALUES (?, ?, ?, ?, ?)", m_rows
    )
    database.executemany("INSERT INTO r (id, m_id, v) VALUES (?, ?, ?)", r_rows)


def _random_databases(rng):
    """The same random schema + data in a compiled database (vectorized,
    the default), a row-at-a-time compiled database and the interpreted
    reference."""
    compiled = Database(engine="compiled")
    rowwise = Database(engine="compiled", vectorized=False)
    interpreted = Database(engine="interpreted")
    ddl, m_rows, r_rows = _random_schema(rng)
    for database in (compiled, rowwise, interpreted):
        _load_schema(database, ddl, m_rows, r_rows)
    return compiled, rowwise, interpreted


def _random_select(rng):
    """One random (sql, params) pair; every ORDER BY totally orders the rows."""
    kind = rng.choice(
        ["point", "filter", "isnull", "inlist", "distinct", "aggregate",
         "join", "join_filtered", "join_unindexed", "group_join",
         "topk", "topk_aggregate", "project",
         "range", "between", "index_topk"]
    )
    direction = rng.choice(["", " DESC"])
    limit = f" LIMIT {rng.randint(1, 10)}" if rng.random() < 0.3 else ""
    if limit and rng.random() < 0.3:
        limit += f" OFFSET {rng.randint(0, 5)}"
    if kind == "point":
        return "SELECT * FROM m WHERE id = ?", [rng.randint(0, 26)]
    if kind == "range":
        # Sargable range conjuncts on a NULL-able float column: a range
        # probe when the seeded DDL created idx_m_x ORDERED, otherwise a
        # plain filtered scan of the same statement.
        op_lo = rng.choice([">", ">="])
        op_hi = rng.choice(["<", "<="])
        return (
            f"SELECT id, x FROM m WHERE x {op_lo} ? AND x {op_hi} ? "
            f"ORDER BY id{direction}{limit}",
            [round(rng.uniform(-60.0, 10.0), 3), round(rng.uniform(-10.0, 60.0), 3)],
        )
    if kind == "between":
        # BETWEEN desugars to >= AND <=; bounds may be inverted (empty).
        return (
            f"SELECT id, x FROM m WHERE x BETWEEN ? AND ? ORDER BY id{direction}",
            [round(rng.uniform(-60.0, 20.0), 3), round(rng.uniform(-20.0, 60.0), 3)],
        )
    if kind == "index_topk":
        # Single-key LIMIT-bearing ORDER BY over the unique non-NULL float
        # column: index-order pushdown when idx_m_o ORDERED exists, the
        # bounded-heap top-k path otherwise.
        offset = f" OFFSET {rng.randint(0, 4)}" if rng.random() < 0.5 else ""
        return (
            f"SELECT id, o FROM m ORDER BY o{direction} "
            f"LIMIT {rng.randint(1, 8)}{offset}",
            [],
        )
    if kind == "topk":
        # LIMIT-bearing ORDER BY over a NULL-able float key (id breaks
        # ties, so the order is total): the bounded-heap top-k path.
        return (
            f"SELECT id, x FROM m ORDER BY x{direction}, id "
            f"LIMIT {rng.randint(1, 8)}",
            [],
        )
    if kind == "topk_aggregate":
        # Top-k over aggregated output columns (integer counts: exact).
        return (
            f"SELECT g, COUNT(*) AS c, COUNT(x) FROM m GROUP BY g "
            f"ORDER BY c{direction}, g LIMIT {rng.randint(1, 4)}",
            [],
        )
    if kind == "project":
        # Expression projections (arithmetic, COALESCE, scalar functions),
        # projected row-at-a-time after a vectorized scan.
        return (
            f"SELECT id, x * ? + 1, COALESCE(g, -1), ABS(id - ?) FROM m "
            f"ORDER BY id{direction}{limit}",
            [round(rng.uniform(-2.0, 2.0), 3), rng.randint(0, 25)],
        )
    if kind == "filter":
        return (
            f"SELECT id, g, x FROM m WHERE g = ? AND x > ? "
            f"ORDER BY id{direction}{limit}",
            [rng.choice([None, 0, 1, 2, 3]), round(rng.uniform(-60.0, 60.0), 3)],
        )
    if kind == "isnull":
        negated = rng.choice(["", " NOT"])
        return (
            f"SELECT id, s FROM m WHERE x IS{negated} NULL ORDER BY id{direction}",
            [],
        )
    if kind == "inlist":
        return (
            f"SELECT id FROM m WHERE g IN (?, ?) ORDER BY id{limit}",
            [rng.randint(0, 4), rng.randint(0, 4)],
        )
    if kind == "distinct":
        return f"SELECT DISTINCT g FROM m ORDER BY g{direction}", []
    if kind == "aggregate":
        return (
            f"SELECT g, COUNT(*), COUNT(x), SUM(x), MIN(x), MAX(x), AVG(x) "
            f"FROM m GROUP BY g ORDER BY g{direction}",
            [],
        )
    if kind == "group_join":
        # Multi-table GROUP BY with a HAVING over an integer aggregate.
        return (
            f"SELECT m.g AS gg, COUNT(*), SUM(r.v), MIN(r.v) FROM m, r "
            f"WHERE m.id = r.m_id GROUP BY m.g "
            f"HAVING COUNT(*) > ? ORDER BY gg{direction}",
            [rng.randint(0, 3)],
        )
    if kind == "join":
        return (
            f"SELECT m.id, r.id, r.v FROM m, r WHERE m.id = r.m_id "
            f"ORDER BY m.id{direction}, r.id{limit}",
            [],
        )
    if kind == "join_filtered":
        return (
            "SELECT m.id, m.s, r.id FROM m, r "
            "WHERE m.id = r.m_id AND r.v > ? AND m.g = ? "
            f"ORDER BY m.id, r.id{direction}",
            [round(rng.uniform(0.0, 100.0), 3), rng.randint(0, 3)],
        )
    # Equi-join on a column pair that is unindexed unless the seeded DDL
    # happened to create idx_m_g — exercises the hash-join access path.
    return (
        "SELECT m.id, r.id FROM m, r WHERE m.g = r.m_id ORDER BY m.id, r.id",
        [],
    )


#: Multi-key statement kinds: two or three equality conjuncts on indexed
#: columns of one binding, which one index probe consumes together (their
#: buckets intersected).  ``m.id`` and ``m.s`` are always indexed; ``m.g``
#: and ``r.m_id`` are when the seeded DDL created their indexes.
_MULTI_KEY_KINDS = (
    "primary_and_secondary", "two_secondary", "three_keys",
    "duplicated_column", "subquery_key", "inner_level",
)


def _random_multi_key_select(rng, kind):
    """One (sql, params) pair of a multi-key kind; every ORDER BY totally
    orders the rows.  Keys are parameters (sometimes NULL), a scalar
    subquery (NULL over an empty selection) or outer-level columns."""
    string = rng.choice(_FUZZ_STRINGS)
    group = rng.choice([None, 0, 1, 2, 3])
    if kind == "primary_and_secondary":
        # The primary key's bucket, narrowed by ``s``.
        return (
            "SELECT id, g, s FROM m WHERE id = ? AND s = ? ORDER BY id",
            [rng.randint(0, 26), string],
        )
    if kind == "two_secondary":
        return (
            f"SELECT id, x FROM m WHERE g = ? AND s = ? "
            f"ORDER BY id{rng.choice(['', ' DESC'])}",
            [group, string],
        )
    if kind == "three_keys":
        return (
            "SELECT id, o FROM m WHERE s = ? AND id > ? AND g = ? AND id = ? "
            "ORDER BY id",
            [string, rng.randint(-1, 5), group, rng.randint(0, 26)],
        )
    if kind == "duplicated_column":
        # The second conjunct on ``g`` stays a filter.
        return (
            "SELECT id FROM m WHERE g = ? AND s = ? AND g = ? ORDER BY id",
            [group, string, rng.choice([group, rng.randint(0, 3)])],
        )
    if kind == "subquery_key":
        return (
            "SELECT id, s FROM m WHERE s = ? "
            "AND g = (SELECT MIN(m_id) FROM r WHERE v > ?) ORDER BY id",
            [string, round(rng.uniform(0.0, 110.0), 3)],
        )
    # An inner join level probed on ``r.m_id`` (when indexed) and the
    # primary key at once, both keys bound from the outer row (``m.g`` may
    # be NULL).
    return (
        "SELECT m.id, r.id, r.v FROM m, r "
        "WHERE m.s = ? AND r.m_id = m.id AND r.id = m.g ORDER BY m.id, r.id",
        [string],
    )


# --------------------------------------------------------------------------- #
# Analyzer-agreement oracle
# --------------------------------------------------------------------------- #
#
# Two directions, both seed-deterministic so a divergence lands in the corpus
# like any other counterexample (record the seed + note in
# tests/corpus/fuzzer_seeds.json):
#
# * every statement the generators produce must be analyzer-clean — those
#   statements execute successfully on every engine, so a plan-time rejection
#   would be a false positive violating the conservative contract;
# * one mistyped statement per seed (drawn from the pool below, which covers
#   every rejection class) must raise a SemanticError whose message —
#   including the character position — is byte-identical on every engine;
# * so must one planner error per seed (the second pool below), placed in a
#   scalar subquery of a statement whose outer WHERE selects no row: a
#   reference that ran before it planned would never reach the subquery.

_MISTYPED_POOL = [
    "SELECT id FROM m WHERE s > 5",
    "SELECT id FROM m WHERE x < s",
    "SELECT g + s FROM m",
    "SELECT -s FROM m",
    "SELECT SUM(s) FROM m",
    "SELECT AVG(s) FROM m",
    "SELECT ABS(s) FROM m",
    "SELECT LENGTH(g) FROM m",
    "SELECT id FROM m WHERE s",
    "SELECT g FROM m GROUP BY g HAVING s",
    "SELECT id FROM m WHERE SUM(g) > 1",
    "SELECT m.id FROM m, r WHERE m.id = r.m_id AND m.s > r.v",
]

_PLAN_TIME_POOL = [
    "SELECT id FROM m WHERE id < 0 AND g = "
    "(SELECT m_id FROM r ORDER BY COUNT(*) LIMIT 1)",
    "SELECT id, (SELECT m_id FROM r ORDER BY SUM(v) LIMIT 1) FROM m "
    "WHERE id < 0",
    "SELECT id FROM m WHERE id < 0 AND g = (SELECT FOO(v) FROM r)",
    "SELECT id FROM m WHERE id < 0 AND g = (SELECT SUM() FROM r)",
    "SELECT id FROM m WHERE id < 0 AND g = "
    "(SELECT m_id FROM r ORDER BY FOO(v) LIMIT 1)",
    "SELECT id FROM m WHERE id < 0 AND g = (SELECT m_id FROM r ORDER BY 5)",
    "SELECT id FROM m WHERE id < 0 AND g = "
    "(SELECT m_id FROM r GROUP BY FOO(m_id))",
    "SELECT id FROM m WHERE id < 0 AND g = (SELECT MEDIAN(v) FROM r)",
]


def _assert_analyzer_accepts(sql, tables, seed):
    analysis = analyze_select(parse_sql(sql), tables)
    assert not analysis.errors, (seed, sql, [str(e) for e in analysis.errors])


def _assert_identical_rejection(databases, seed, sql, error=SemanticError):
    messages = set()
    for database in databases:
        with pytest.raises(error) as excinfo:
            database.execute(sql)
        messages.add((type(excinfo.value), str(excinfo.value)))
    assert len(messages) == 1, (seed, sql, messages)


def _assert_engines_agree(seed, sql, params, compiled, rowwise, interpreted):
    """The engine-differential oracle for one statement: rows identical to
    the interpreted reference's, byte-identical rows and QueryStats between
    the vectorized and row-at-a-time compiled engines, and QueryStats
    identical to the interpreted reference wherever the plan does the
    reference's physical work.  Returns the compiled plan."""
    _assert_analyzer_accepts(sql, compiled.tables, seed)
    plan = plan_select(parse_sql(sql), compiled.tables)
    uses_hash_join = any(
        level["access"] == "hash-probe" for level in plan.describe()
    )
    uses_ordered_index = plan.index_order is not None or any(
        level["access"] == "range-probe" for level in plan.describe()
    )
    expected = interpreted.query(sql, params)
    got = compiled.query(sql, params)
    assert got.columns == expected.columns, sql
    # Both engines scan in storage order: results must be identical to
    # the bit.
    assert got.rows == expected.rows, sql
    # The vectorized default must be invisible: the row-at-a-time
    # compiled engine returns byte-identical rows AND QueryStats (the
    # columnar path does the same logical work, only batched).
    row_result = rowwise.query(sql, params)
    assert row_result.columns == got.columns, sql
    assert row_result.rows == got.rows, sql
    assert row_result.stats == got.stats, sql
    if uses_hash_join or uses_ordered_index or not plan.follows_syntactic_order:
        # The seed engine has no hash joins, no statistics-driven join
        # reordering, and no ordered indexes; on those plans the
        # compiled engine does strictly different physical work (range
        # probes bisect, index-order pushdown stops early), so only the
        # result-side counter is comparable.  The rowwise-vs-vectorized
        # assertion above still pins full QueryStats across compiled
        # modes — range probes and pushdown are mode-independent.
        assert got.stats.rows_returned == expected.stats.rows_returned
    else:
        assert got.stats == expected.stats, sql
    return plan


def _assert_plans_stayed_cached(compiled, rowwise):
    """No DDL ran after the warm-up, so every cached plan stayed valid:
    one miss per distinct SQL text, never a re-miss from invalidation."""
    for database in (compiled, rowwise):
        info = database.plan_cache_info()
        assert info["misses"] == info["size"]


def _run_engine_differential_case(seed):
    """One engine-differential case: the compiled engines against the
    interpreted reference, shared by the corpus replay and the random
    exploration."""
    rng = random.Random(seed)
    compiled, rowwise, interpreted = _random_databases(rng)
    for _ in range(4):
        sql, params = _random_select(rng)
        _assert_engines_agree(seed, sql, params, compiled, rowwise, interpreted)
    # (This must precede the rejection oracle: a rejected statement counts a
    # plan-cache miss without ever caching a plan.)
    _assert_plans_stayed_cached(compiled, rowwise)
    _assert_identical_rejection(
        [compiled, rowwise, interpreted],
        seed,
        _MISTYPED_POOL[seed % len(_MISTYPED_POOL)],
    )
    _assert_identical_rejection(
        [compiled, rowwise, interpreted],
        seed,
        _PLAN_TIME_POOL[seed % len(_PLAN_TIME_POOL)],
        ExecutionError,
    )


def _run_multi_key_case(seed):
    """Every multi-key statement kind once, on the seed's random schema,
    under the engine-differential oracle.  Drawn after the schema from the
    same generator, so the main cases' statement streams (and the corpus
    they replay) are untouched.  The always-indexed ``id``/``s`` pair makes
    sure the probe really intersects in every case."""
    rng = random.Random(seed)
    compiled, rowwise, interpreted = _random_databases(rng)
    multi_key_levels = 0
    for kind in _MULTI_KEY_KINDS:
        sql, params = _random_multi_key_select(rng, kind)
        plan = _assert_engines_agree(
            seed, sql, params, compiled, rowwise, interpreted
        )
        multi_key_levels += sum(
            level["access"] == "index-probe" and "," in level["column"]
            for level in plan.describe()
        )
    assert multi_key_levels >= 1, seed
    _assert_plans_stayed_cached(compiled, rowwise)


# --------------------------------------------------------------------------- #
# Executor-differential fuzzer: sequential vs. rowwise
# --------------------------------------------------------------------------- #
#
# Every seeded case builds the same random schema in two databases — the
# executor matrix {sequential, rowwise (vectorized off)} — and replays one
# random statement stream of SELECTs (including multi-table GROUP BY/HAVING)
# *interleaved with DML* (INSERT/DELETE between SELECTs, exercising the
# columnar chunk cache's invalidation after every mutation) against both.
# The rowwise executor must return rows byte-identical to the sequential
# reference (same enumeration order — no float tolerance needed) with
# sequential-identical QueryStats on every plan shape.

_EXECUTOR_FUZZ_CASES = 200


def _random_executor_select(rng):
    """A random SELECT for the executor matrix: the engine fuzzer's pool
    plus GROUP BY/HAVING shapes that only executor-vs-executor comparison
    can check exactly (float HAVING boundaries are order-sensitive, but
    both executors enumerate in the same storage order)."""
    if rng.random() < 0.3:
        # A LIMIT sometimes rides along: this exercises top-k over an
        # aggregated result on every executor.
        limit = f" LIMIT {rng.randint(1, 5)}" if rng.random() < 0.4 else ""
        if rng.random() < 0.5:
            return (
                "SELECT g, s, COUNT(*) AS c, MIN(x) FROM m GROUP BY g, s "
                f"HAVING COUNT(*) > ? ORDER BY g, s{limit}",
                [rng.randint(0, 2)],
            )
        return (
            "SELECT m.s AS label, COUNT(*) AS c, SUM(r.v) FROM m, r "
            "WHERE m.id = r.m_id AND r.v > ? GROUP BY m.s "
            f"HAVING SUM(r.v) > ? ORDER BY label{limit}",
            [round(rng.uniform(0.0, 60.0), 3), round(rng.uniform(0.0, 150.0), 3)],
        )
    return _random_select(rng)


def _random_dml(rng, fresh_ids):
    """One random mutation statement: ('execute'|'executemany', sql, payload)."""
    kind = rng.choice(["insert_m", "insert_r", "delete_m", "delete_r"])
    if kind == "insert_m":
        rows = []
        for _ in range(rng.randint(1, 6)):
            # o stays unique and non-NULL (fresh ids are unique, initial o
            # values stay below 1000) so single-key ORDER BY o is total.
            fid = next(fresh_ids)
            rows.append(
                (
                    fid,
                    rng.choice([None, 0, 1, 2, 3]),
                    None if rng.random() < 0.15 else round(rng.uniform(-50.0, 50.0), 3),
                    rng.choice(_FUZZ_STRINGS),
                    fid + 0.25,
                )
            )
        return (
            "executemany",
            "INSERT INTO m (id, g, x, s, o) VALUES (?, ?, ?, ?, ?)",
            rows,
        )
    if kind == "insert_r":
        rows = [
            (next(fresh_ids), rng.randint(1, 30), round(rng.uniform(0.0, 100.0), 3))
            for _ in range(rng.randint(1, 6))
        ]
        return ("executemany", "INSERT INTO r (id, m_id, v) VALUES (?, ?, ?)", rows)
    if kind == "delete_m":
        return ("execute", "DELETE FROM m WHERE g = ?", [rng.randint(0, 4)])
    return ("execute", "DELETE FROM r WHERE v > ?", [round(rng.uniform(40.0, 100.0), 3)])


def _run_executor_differential_case(seed):
    """One executor-matrix case, shared by the corpus replay and the random
    exploration."""
    rng = random.Random(seed)
    ddl, m_rows, r_rows = _random_schema(rng)
    group = {
        "sequential": Database(),
        "rowwise": Database(vectorized=False),
    }
    try:
        for database in group.values():
            _load_schema(database, ddl, m_rows, r_rows)
        fresh_ids = itertools.count(1000)
        ops = [
            _random_dml(rng, fresh_ids)
            if rng.random() < 0.35
            else ("select", *_random_executor_select(rng))
        for _ in range(10)]
        for op, sql, payload in ops:
            if op == "select":
                _assert_analyzer_accepts(sql, group["sequential"].tables, seed)
                reference = group["sequential"].query(sql, payload)
                result = group["rowwise"].query(sql, payload)
                label = (seed, sql, "rowwise")
                assert result.columns == reference.columns, label
                assert result.rows == reference.rows, label
                assert result.stats == reference.stats, label
            else:
                affected = {}
                for kind, database in group.items():
                    if op == "executemany":
                        affected[kind] = database.executemany(sql, payload)
                    else:
                        affected[kind] = database.execute(sql, payload)
                label = (seed, sql)
                assert affected["rowwise"] == affected["sequential"], label
        # The mistyped rejection must be byte-identical across the whole
        # executor matrix too — both as a SELECT and as a DELETE predicate
        # (no rows may be deleted before the rejection fires).
        _assert_identical_rejection(
            list(group.values()),
            seed,
            _MISTYPED_POOL[seed % len(_MISTYPED_POOL)],
        )
        messages = set()
        for database in group.values():
            before = database.query("SELECT COUNT(*) FROM m", []).rows
            with pytest.raises(SemanticError) as excinfo:
                database.execute("DELETE FROM m WHERE s > 5")
            messages.add(str(excinfo.value))
            after = database.query("SELECT COUNT(*) FROM m", []).rows
            assert after == before, seed
        assert len(messages) == 1, (seed, messages)
    finally:
        for database in group.values():
            database.close()


# --------------------------------------------------------------------------- #
# Transaction fuzzer: staged writes on every engine
# --------------------------------------------------------------------------- #
#
# Every seeded case loads one random schema into the vectorized, the
# row-at-a-time and the interpreted engine, and into an autocommit reference.
# It then runs three transactions of random SELECTs and DML against the
# three engines, each ending in COMMIT or ROLLBACK.  Inside a transaction
# every SELECT must return the interpreted engine's rows on both compiled
# engines, and the same QueryStats on both, so the vectorized scans read
# the staged writes.  After each COMMIT or ROLLBACK every engine's tables
# must hold the reference's rows in the reference's order; the reference
# applies a transaction's DML only when it commits.  Its seed range is its
# own, so the other fuzzers' draws and corpora do not move.

_TXN_FUZZ_SEEDS = range(30_000, 30_040)


def _apply_dml(database, op, sql, payload):
    if op == "executemany":
        return database.executemany(sql, payload)
    return database.execute(sql, payload)


def _stored_rows(database):
    """Every live row of ``m`` and ``r``, in storage order."""
    return [database.query(f"SELECT * FROM {name}", []).rows for name in "mr"]


def _run_transaction_case(seed):
    rng = random.Random(seed)
    ddl, m_rows, r_rows = _random_schema(rng)
    engines = {
        "vectorized": Database(),
        "row-at-a-time": Database(vectorized=False),
        "interpreted": Database(engine="interpreted"),
    }
    reference = Database()
    try:
        for database in [*engines.values(), reference]:
            _load_schema(database, ddl, m_rows, r_rows)
        fresh_ids = itertools.count(1000)
        for _ in range(3):
            staged = []
            for database in engines.values():
                database.begin()
            for _ in range(rng.randint(2, 8)):
                if rng.random() < 0.4:
                    dml = _random_dml(rng, fresh_ids)
                    affected = {
                        _apply_dml(database, *dml) for database in engines.values()
                    }
                    assert len(affected) == 1, (seed, dml[1], affected)
                    staged.append(dml)
                    continue
                sql, params = _random_select(rng)
                _assert_analyzer_accepts(sql, engines["vectorized"].tables, seed)
                results = {
                    name: database.query(sql, params)
                    for name, database in engines.items()
                }
                expected = results["interpreted"]
                for name, result in results.items():
                    assert result.columns == expected.columns, (seed, sql, name)
                    assert result.rows == expected.rows, (seed, sql, name)
                assert (
                    results["row-at-a-time"].stats == results["vectorized"].stats
                ), (seed, sql)
            commit = rng.random() < 0.5
            for database in engines.values():
                database.execute("COMMIT" if commit else "ROLLBACK")
            if commit:
                for dml in staged:
                    _apply_dml(reference, *dml)
            stored = _stored_rows(reference)
            for name, database in engines.items():
                assert _stored_rows(database) == stored, (seed, name, commit)
    finally:
        for database in [*engines.values(), reference]:
            database.close()


# --------------------------------------------------------------------------- #
# Seed corpus: previously recorded fuzzer seeds replay before exploration
# --------------------------------------------------------------------------- #

_CORPUS_PATH = Path(__file__).resolve().parent / "corpus" / "fuzzer_seeds.json"


def _corpus_seeds():
    data = json.loads(_CORPUS_PATH.read_text())
    seeds = [entry["seed"] for entry in data["seeds"]]
    assert seeds == sorted(set(seeds)), "corpus seeds must be unique and sorted"
    return seeds


class TestFuzzerSeedCorpus:
    """Deterministic replay of the recorded counterexample corpus.

    These run before (and independently of) the random exploration below:
    a regression on a path the corpus pins fails fast, by seed, with the
    note recorded in ``tests/corpus/fuzzer_seeds.json``.
    """

    @pytest.mark.parametrize("seed", _corpus_seeds())
    def test_corpus_engine_differential(self, seed):
        _run_engine_differential_case(seed)

    @pytest.mark.parametrize("seed", _corpus_seeds())
    def test_corpus_executor_differential(self, seed):
        _run_executor_differential_case(seed)


class TestEngineDifferentialFuzzer:
    @pytest.mark.parametrize("seed", range(_FUZZ_CASES))
    def test_compiled_and_interpreted_engines_agree(self, seed):
        _run_engine_differential_case(seed)

    @pytest.mark.parametrize("seed", range(_MULTI_KEY_FUZZ_CASES))
    def test_multi_key_probes_agree(self, seed):
        _run_multi_key_case(seed)


class TestExecutorDifferentialFuzzer:
    @pytest.mark.parametrize("seed", range(_EXECUTOR_FUZZ_CASES))
    def test_executors_agree_under_interleaved_dml(self, seed):
        _run_executor_differential_case(seed)


class TestTransactionFuzzer:
    @pytest.mark.parametrize("seed", _TXN_FUZZ_SEEDS)
    def test_engines_agree_inside_transactions(self, seed):
        _run_transaction_case(seed)
