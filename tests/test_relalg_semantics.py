"""Plan-time semantic analysis: typed rejections identical across every
engine, the conservative-acceptance contract, constant folding and
contradiction pruning with exact stats, the EXPLAIN ``analysis:`` section,
error attribution, and the engine-invariant lint pass."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro.relalg import (
    Database,
    ExecutionError,
    SemanticError,
    analyze_select,
    parse_sql,
)
from repro.relalg.sqlast import (
    BinaryOperation,
    BinaryOperator,
    ColumnRef,
    FunctionExpr,
    InList,
    IsNull,
    Literal,
    Placeholder,
    ScalarSubquery,
    SqlExpr,
    Star,
    UnaryOperation,
    walk,
)

REPO_ROOT = Path(__file__).resolve().parents[1]

_ROWS = [
    (i, i % 5, float(i) * 1.5, ["alpha", "beta", None][i % 3])
    for i in range(60)
]


def _populate(db: Database) -> Database:
    db.execute(
        "CREATE TABLE m (id INTEGER PRIMARY KEY, g INTEGER, x FLOAT, s VARCHAR)"
    )
    db.execute("CREATE TABLE r (id INTEGER PRIMARY KEY, m_id INTEGER, v FLOAT)")
    db.executemany("INSERT INTO m (id, g, x, s) VALUES (?, ?, ?, ?)", _ROWS)
    db.executemany(
        "INSERT INTO r (id, m_id, v) VALUES (?, ?, ?)",
        [(i, (i * 7) % 60, float(i % 11)) for i in range(30)],
    )
    return db


def _engines(populate=_populate):
    """One database per engine mode; every mode must behave identically."""
    return {
        "interpreted": populate(Database(engine="interpreted")),
        "vectorized": populate(Database()),
        "row-at-a-time": populate(Database(vectorized=False)),
    }


# --------------------------------------------------------------------------- #
# typed rejection, identical across engines
# --------------------------------------------------------------------------- #

REJECTED = [
    ("SELECT id FROM m WHERE s > 5", "cannot compare VARCHAR and INTEGER"),
    ("SELECT id FROM m WHERE x < s", "cannot compare FLOAT and VARCHAR"),
    ("SELECT id FROM m WHERE s", "WHERE clause must be a condition"),
    ("SELECT id FROM m GROUP BY g HAVING s", "HAVING clause must be a condition"),
    ("SELECT id + s FROM m", "invalid operands for +"),
    ("SELECT -s FROM m", "invalid operand for unary -"),
    ("SELECT SUM(s) FROM m", "SUM requires numeric values"),
    ("SELECT AVG(s) FROM m", "AVG requires numeric values"),
    ("SELECT ABS(s) FROM m", "ABS requires a numeric value"),
    ("SELECT LENGTH(id) FROM m", "LENGTH requires a string value"),
    ("SELECT id FROM m WHERE SUM(id) > 3", "aggregate function SUM is not allowed"),
    ("SELECT nope FROM m", "unknown column nope"),
    ("SELECT id FROM m, r", "ambiguous column reference 'id'"),
]


class TestTypedRejection:
    @pytest.mark.parametrize("sql,needle", REJECTED, ids=[s for s, _ in REJECTED])
    def test_identical_semantic_error_across_engines(self, sql, needle):
        messages = set()
        for name, db in _engines().items():
            with pytest.raises(SemanticError, match=needle) as excinfo:
                db.execute(sql)
            assert isinstance(excinfo.value, ExecutionError), name
            messages.add(str(excinfo.value))
        # byte-identical message (including the character position) everywhere
        assert len(messages) == 1, messages

    def test_error_carries_statement_position(self):
        db = _populate(Database())
        with pytest.raises(SemanticError) as excinfo:
            db.execute("SELECT id FROM m WHERE s > 5")
        assert excinfo.value.position == 25  # the comparison operator
        assert "(at character 25)" in str(excinfo.value)

    def test_rejection_happens_before_any_execution(self):
        db = _populate(Database())
        before = db.execute("SELECT COUNT(*) FROM m").rows
        with pytest.raises(SemanticError):
            db.execute("DELETE FROM m WHERE s > 5")
        assert db.execute("SELECT COUNT(*) FROM m").rows == before

    def test_delete_rejection_identical_across_engines(self):
        messages = set()
        for db in _engines().values():
            with pytest.raises(SemanticError) as excinfo:
                db.execute("DELETE FROM m WHERE s > 5")
            messages.add(str(excinfo.value))
        assert len(messages) == 1, messages

    def test_rejected_statements_are_not_plan_cached(self):
        db = _populate(Database())
        for _ in range(2):
            with pytest.raises(SemanticError):
                db.execute("SELECT id FROM m WHERE s > 5")
        assert db.plan_cache_info()["size"] == 0


# --------------------------------------------------------------------------- #
# plan-time rejection: one planner decides for every engine
# --------------------------------------------------------------------------- #

#: Statements the planner rejects, several only inside a subquery, an ORDER
#: BY or a GROUP BY that an empty table never evaluates: every engine plans
#: before it reads a row, so every engine raises the planner's error.
PLAN_TIME_SWEEP = [
    "SELECT id FROM t WHERE x = (SELECT k FROM u ORDER BY COUNT(*) LIMIT 1)",
    "SELECT id, (SELECT k FROM u ORDER BY SUM(k) LIMIT 1) FROM t",
    "SELECT id FROM t WHERE x = (SELECT FOO(k) FROM u)",
    "SELECT FOO(x) FROM t",
    "SELECT id FROM t WHERE x = (SELECT SUM() FROM u)",
    "SELECT id FROM t ORDER BY FOO(x)",
    "SELECT id FROM t WHERE x = (SELECT k FROM u ORDER BY FOO(k) LIMIT 1)",
    "SELECT id FROM t WHERE x = (SELECT k FROM u ORDER BY 5)",
    "SELECT id FROM t WHERE x = (SELECT k FROM u GROUP BY FOO(k))",
    "SELECT id FROM t GROUP BY FOO(x)",
    "SELECT id FROM t WHERE x = (SELECT MEDIAN(k) FROM u)",
    "SELECT MEDIAN(x) FROM t",
    # controls
    "SELECT id FROM t WHERE x = (SELECT t.* + 1 FROM u, t)",
    "SELECT * FROM t GROUP BY x",
    "SELECT id FROM t ORDER BY COUNT(*)",
]


def _t_and_u(filled: bool):
    """A populate function for :func:`_engines`: ``t(id, x)`` and
    ``u(id, k)``, with a few rows each or empty."""

    def populate(db: Database) -> Database:
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, x INTEGER)")
        db.execute("CREATE TABLE u (id INTEGER PRIMARY KEY, k INTEGER)")
        if filled:
            db.executemany(
                "INSERT INTO t (id, x) VALUES (?, ?)", [(1, 1), (2, 2), (3, 3)]
            )
            db.executemany("INSERT INTO u (id, k) VALUES (?, ?)", [(1, 1), (2, 3)])
        return db

    return populate


def _sweep_outcome(db: Database, sql: str):
    try:
        return ("rows", db.query(sql).rows)
    except ExecutionError as error:
        return (type(error).__name__, str(error))


class TestPlanTimeRejectionSweep:
    @pytest.mark.parametrize("filled", [False, True], ids=["empty", "filled"])
    @pytest.mark.parametrize("sql", PLAN_TIME_SWEEP)
    def test_every_engine_gives_the_same_outcome(self, sql, filled):
        outcomes = {
            name: _sweep_outcome(db, sql)
            for name, db in _engines(_t_and_u(filled)).items()
        }
        assert len(set(outcomes.values())) == 1, outcomes
        assert outcomes["interpreted"][0] == "ExecutionError", outcomes

    def test_an_interpreted_database_counts_its_plans(self):
        db = _engines(_t_and_u(filled=True))["interpreted"]
        sql = "SELECT id FROM t WHERE x = (SELECT MAX(k) FROM u)"
        assert db.query(sql).rows == [(3,)]
        assert db.query(sql).rows == [(3,)]
        assert db.plan_cache_info() == {"hits": 1, "misses": 1, "size": 1}


# --------------------------------------------------------------------------- #
# the conservative contract: anything that can succeed at runtime passes
# --------------------------------------------------------------------------- #

ACCEPTED = [
    # truthiness-as-condition is engine behavior; only VARCHAR/TIMESTAMP
    # conditions deterministically mean a bug
    ("SELECT id FROM m WHERE g", []),
    ("SELECT id FROM m WHERE 1", []),
    # EQ/NE across type classes never raises in the engine — rows just
    # compare unequal, so the analyzer must not reject (warn only)
    ("SELECT id FROM m WHERE s = 5", []),
    # VARCHAR + VARCHAR is concatenation, VARCHAR * INTEGER is repetition
    ("SELECT s + s FROM m WHERE s IS NOT NULL", []),
    ("SELECT s * 3 FROM m WHERE s IS NOT NULL", []),
    # placeholders are untypable at plan time: must pass through
    ("SELECT x + ? FROM m", [2.0]),
    # LOWER/UPPER coerce via str() and never raise
    ("SELECT LOWER(id) FROM m", []),
    # NULL literals are valid in any position
    ("SELECT id FROM m WHERE s IS NULL", []),
    ("SELECT COALESCE(s, 'none') FROM m", []),
]


class TestConservativeAcceptance:
    @pytest.mark.parametrize("sql,params", ACCEPTED, ids=[s for s, _ in ACCEPTED])
    def test_statement_accepted_and_engines_agree(self, sql, params):
        engines = _engines()
        reference = engines.pop("interpreted")
        # no ORDER BY in these statements: compare as multisets
        expected = sorted(map(repr, reference.execute(sql, params).rows))
        for name, db in engines.items():
            got = sorted(map(repr, db.execute(sql, params).rows))
            assert got == expected, name

    def test_mistyped_equality_returns_empty_not_error(self):
        db = _populate(Database())
        assert db.execute("SELECT id FROM m WHERE s = 5").rows == []

    def test_analyzer_marks_accepted_statements_clean(self):
        db = _populate(Database())
        for sql, _ in ACCEPTED:
            analysis = analyze_select(parse_sql(sql), db.tables)
            assert not analysis.errors, sql


# --------------------------------------------------------------------------- #
# constant folding
# --------------------------------------------------------------------------- #

class TestConstantFolding:
    def test_folded_predicate_matches_handwritten(self):
        folded = _populate(Database())
        handwritten = _populate(Database())
        a = folded.execute("SELECT id, x FROM m WHERE id = 1 + 1")
        b = handwritten.execute("SELECT id, x FROM m WHERE id = 2")
        assert a.rows == b.rows
        assert a.stats == b.stats

    def test_folding_upgrades_to_index_probe(self):
        db = _populate(Database())
        text = db.explain("SELECT id FROM m WHERE id = 1 + 1")
        assert "index-probe on id" in text
        assert "folded: id = (1 + 1) -> id = 2" in text

    def test_interpreted_rows_agree_on_folded_statement(self):
        compiled = _populate(Database())
        interp = _populate(Database(engine="interpreted"))
        sql = "SELECT id FROM m WHERE g = 6 - 4 ORDER BY id"
        assert compiled.execute(sql).rows == interp.execute(sql).rows

    def test_raising_constants_stay_in_the_tree(self):
        # 1/0 must NOT fold away: the engine reports it at execution time.
        db = _populate(Database())
        with pytest.raises(ExecutionError, match="division by zero"):
            db.execute("SELECT id FROM m WHERE x > 1 / 0")


# --------------------------------------------------------------------------- #
# contradiction pruning with exact stats
# --------------------------------------------------------------------------- #

class TestContradictionPruning:
    def test_always_false_conjuncts_skip_the_scan(self):
        for name, db in _engines().items():
            if name == "interpreted":
                continue  # the AST walker has no plan to prune
            result = db.execute("SELECT id FROM m WHERE g = 1 AND g = 2")
            assert result.rows == [], name
            assert result.stats.rows_scanned == 0, name

    def test_ungrouped_aggregate_over_contradiction(self):
        db = _populate(Database())
        result = db.execute("SELECT COUNT(*), SUM(x) FROM m WHERE g = 1 AND g = 2")
        assert result.rows == [(0, None)]
        assert result.stats.rows_scanned == 0

    def test_null_operand_comparison_skips_the_scan(self):
        db = _populate(Database())
        result = db.execute("SELECT id FROM m WHERE g = NULL")
        assert result.rows == []
        assert result.stats.rows_scanned == 0

    def test_always_true_conjunct_dropped_without_changing_rows(self):
        with_tautology = _populate(Database())
        without = _populate(Database())
        a = with_tautology.execute("SELECT id FROM m WHERE g = 2 AND 1 = 1")
        b = without.execute("SELECT id FROM m WHERE g = 2")
        assert a.rows == b.rows
        assert a.stats.rows_scanned == b.stats.rows_scanned
        assert "always-true: 1 = 1 (conjunct dropped)" in with_tautology.explain(
            "SELECT id FROM m WHERE g = 2 AND 1 = 1"
        )

    def test_interpreted_rows_agree_on_contradictions(self):
        interp = _populate(Database(engine="interpreted"))
        assert interp.execute("SELECT id FROM m WHERE g = 1 AND g = 2").rows == []
        assert interp.execute("SELECT id FROM m WHERE g = NULL").rows == []


# --------------------------------------------------------------------------- #
# EXPLAIN analysis section
# --------------------------------------------------------------------------- #

class TestExplainAnalysis:
    def test_no_findings(self):
        db = _populate(Database())
        text = db.explain("SELECT id FROM m WHERE g = 2")
        assert "analysis:" in text
        assert "no findings" in text

    def test_contradiction_reported(self):
        db = _populate(Database())
        text = db.explain("SELECT id FROM m WHERE g = 1 AND g = 2")
        assert "contradiction: g = 1 AND g = 2 (scan skipped)" in text

    def test_null_operand_reported(self):
        db = _populate(Database())
        text = db.explain("SELECT id FROM m WHERE g = NULL")
        assert "always-false: g = NULL (NULL operand; scan skipped)" in text

    def test_cross_join_warning(self):
        db = _populate(Database())
        text = db.explain("SELECT m.id, r.v FROM m, r LIMIT 3")
        assert "warning: cross join: no predicate connects m, r" in text

    def test_no_cross_join_warning_when_connected(self):
        db = _populate(Database())
        text = db.explain("SELECT m.id, r.v FROM m, r WHERE m.id = r.m_id")
        assert "cross join" not in text

    def test_non_sargable_warning(self):
        db = _populate(Database())
        text = db.explain("SELECT id FROM m WHERE id + 1 = 10")
        assert "warning: non-sargable predicate on indexed column id" in text

    def test_mixed_type_equality_warning(self):
        db = _populate(Database())
        text = db.explain("SELECT id FROM m WHERE s = 5")
        assert "mixed-type comparison s = 5" in text


# --------------------------------------------------------------------------- #
# error attribution
# --------------------------------------------------------------------------- #

class TestErrorAttribution:
    def test_division_by_zero_names_the_expression(self):
        messages = set()
        for db in _engines().values():
            with pytest.raises(ExecutionError, match="division by zero") as excinfo:
                db.execute("SELECT x / (g - g) FROM m")
            messages.add(str(excinfo.value))
        assert messages == {"division by zero in x / (g - g)"}

    def test_invalid_operands_name_the_expression(self):
        messages = set()
        for db in _engines().values():
            with pytest.raises(ExecutionError, match="invalid operands") as excinfo:
                db.execute("SELECT x + ? FROM m", ["oops"])
            messages.add(str(excinfo.value))
        assert len(messages) == 1
        assert "in x + ?" in next(iter(messages))


# --------------------------------------------------------------------------- #
# structural questions: one walk over the expression tree
# --------------------------------------------------------------------------- #

class TestStructuralWalk:
    def test_walk_visits_every_node_kind_parents_first_left_to_right(self):
        inner = parse_sql("SELECT MAX(x) FROM m WHERE g = 1")
        column = ColumnRef("a")
        is_null = IsNull(column)
        negation = UnaryOperation("NOT", is_null)
        placeholder, literal = Placeholder(0), Literal(1)
        coalesce = FunctionExpr("COALESCE", (placeholder, literal))
        subquery = ScalarSubquery(inner)
        star = Star()
        count = FunctionExpr("COUNT", (star,))
        in_list = InList(coalesce, (subquery, count))
        root = BinaryOperation(BinaryOperator.AND, negation, in_list)
        visited = list(walk(root))
        assert [id(node) for node in visited] == [
            id(node) for node in (
                root, negation, is_null, column, in_list, coalesce,
                placeholder, literal, subquery, count, star,
            )
        ]
        # Every expression kind is visited, so a new kind fails here until
        # walk lists its children.
        kinds = {type(node) for node in visited}
        assert kinds == set(SqlExpr.__subclasses__())
        # The subquery is yielded; its SELECT (MAX(x), g = 1) is not entered.
        assert not any(node is inner.where for node in visited)
        assert list(walk(literal)) == [literal]

    def test_non_sargable_warning_names_the_rightmost_indexed_column(self):
        db = Database()
        db.execute(
            "CREATE TABLE w (id INTEGER PRIMARY KEY, x INTEGER, y INTEGER)"
        )
        db.execute("CREATE INDEX w_x ON w (x)")
        db.execute("CREATE INDEX w_y ON w (y)")
        text = db.explain("SELECT id FROM w WHERE x + y > 5")
        assert (
            "warning: non-sargable predicate on indexed column y: (x + y) > 5"
            in text
        )
        assert "indexed column x" not in text

    def test_an_aggregate_in_an_in_list_is_rejected_on_every_engine(self):
        # The analyzer rejects the aggregate before anything asks whether
        # the select list aggregates, so no statement can observe that
        # question looking into IN-list items.
        messages = set()
        for db in _engines().values():
            with pytest.raises(
                SemanticError,
                match="aggregate function SUM is not allowed here",
            ) as excinfo:
                db.execute("SELECT 3 IN (SUM(x)) FROM m")
            messages.add(str(excinfo.value))
        assert len(messages) == 1, messages


# --------------------------------------------------------------------------- #
# the engine-invariant lint pass
# --------------------------------------------------------------------------- #

class TestLintEngine:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "tools.lint_engine", *args],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )

    def test_engine_sources_are_clean(self):
        proc = self._run()
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout

    def test_bare_assert_is_flagged(self, tmp_path):
        bad = tmp_path / "engine_module.py"
        bad.write_text("def f(x):\n    assert x > 0\n    return x\n")
        proc = self._run(str(bad))
        assert proc.returncode == 1
        assert "E100" in proc.stdout

    def test_swallowing_broad_except_is_flagged(self, tmp_path):
        bad = tmp_path / "engine_module.py"
        bad.write_text(
            "def f():\n"
            "    try:\n"
            "        return 1\n"
            "    except Exception:\n"
            "        return None\n"
        )
        proc = self._run(str(bad))
        assert proc.returncode == 1
        assert "E200" in proc.stdout

    def test_pragma_and_reraise_are_allowed(self, tmp_path):
        good = tmp_path / "engine_module.py"
        good.write_text(
            "def f():\n"
            "    try:\n"
            "        return 1\n"
            "    except Exception:  # lint: allow-broad-except\n"
            "        return None\n"
            "def g():\n"
            "    try:\n"
            "        return 1\n"
            "    except Exception as exc:\n"
            "        raise RuntimeError('wrapped') from exc\n"
        )
        proc = self._run(str(good))
        assert proc.returncode == 0, proc.stdout

    def test_wall_clock_in_relalg_is_flagged(self, tmp_path):
        relalg_dir = tmp_path / "relalg"
        relalg_dir.mkdir()
        bad = relalg_dir / "engine_module.py"
        bad.write_text("import time\n\ndef f():\n    return time.time()\n")
        proc = self._run(str(bad))
        assert proc.returncode == 1
        assert "E300" in proc.stdout

    def test_self_calling_closure_in_relalg_is_flagged(self, tmp_path):
        relalg_dir = tmp_path / "relalg"
        relalg_dir.mkdir()
        bad = relalg_dir / "engine_module.py"
        bad.write_text(
            "def walk(tree):\n"
            "    found = []\n"
            "    def visit(node):\n"
            "        found.append(node)\n"
            "        for child in node.children:\n"
            "            visit(child)\n"
            "    visit(tree)\n"
            "    return found\n"
            "class Plan:\n"
            "    def run(self, levels):\n"
            "        def recurse(index):\n"
            "            if index < len(levels):\n"
            "                yield from recurse(index + 1)\n"
            "        return list(recurse(0))\n"
        )
        proc = self._run(str(bad))
        assert proc.returncode == 1
        assert f"{bad}:3: E400 nested function 'visit'" in proc.stdout
        assert f"{bad}:11: E400 nested function 'recurse'" in proc.stdout

    def test_unused_module_level_import_is_flagged(self, tmp_path):
        bad = tmp_path / "engine_module.py"
        bad.write_text(
            "import math\n"
            "import os.path\n"
            "import json as codec\n"
            "from typing import List, Optional as Maybe\n"
            "def f(x: List[int]):\n"
            "    import re  # a function's own import: not module level\n"
            "    codec = None\n"
            "    return x\n"
        )
        proc = self._run(str(bad))
        assert proc.returncode == 1
        flagged = sorted(
            line.split(": E500 ")[1].split()[0]
            for line in proc.stdout.splitlines() if ": E500 " in line
        )
        assert flagged == ["'Maybe'", "'codec'", "'math'", "'os'"]
        assert f"{bad}:1: E500 'math' is imported but never used" in proc.stdout
        assert f"{bad}:4: E500 'Maybe'" in proc.stdout

    def test_a_local_of_the_same_name_does_not_hide_an_unused_import(
        self, tmp_path
    ):
        bad = tmp_path / "engine_module.py"
        bad.write_text(
            "import json\n"
            "import math\n"
            "import os\n"
            "import re\n"
            "def f():\n"
            "    math = 2\n"
            "    def inner():\n"
            "        return json.dumps(math)  # math: f's local\n"
            "    return inner\n"
            "def g(os=None):\n"
            "    return [os for _ in range(2)]  # os: g's parameter\n"
            "def h():\n"
            "    global re\n"
            "    return re\n"
        )
        proc = self._run(str(bad))
        assert proc.returncode == 1
        flagged = sorted(
            line.split(": E500 ")[1].split()[0]
            for line in proc.stdout.splitlines() if ": E500 " in line
        )
        assert flagged == ["'math'", "'os'"]
        assert f"{bad}:2: E500 'math' is imported but never used" in proc.stdout

    def test_reexports_and_string_annotations_pass_e500(self, tmp_path):
        package = tmp_path / "package"
        package.mkdir()
        (package / "__init__.py").write_text("from package.module import Plan\n")
        (package / "module.py").write_text(
            "from __future__ import annotations\n"
            "from typing import TYPE_CHECKING, Dict, List\n"
            "from os.path import basename, join\n"
            "from os import *\n"
            "if TYPE_CHECKING:\n"
            "    from decimal import Decimal\n"
            "__all__ = ['Plan', 'join']\n"
            "class Plan:\n"
            "    rows: 'List[Decimal]'\n"
            "    def names(self) -> Dict['str', 'int']:\n"
            "        return {basename(row): 1 for row in self.rows}\n"
        )
        proc = self._run(str(package))
        assert proc.returncode == 0, proc.stdout

    def test_module_level_and_method_recursion_pass_e400(self, tmp_path):
        relalg_dir = tmp_path / "relalg"
        relalg_dir.mkdir()
        good = relalg_dir / "engine_module.py"
        good.write_text(
            "def walk(tree):\n"
            "    found = []\n"
            "    _visit(tree, found)\n"
            "    return found\n"
            "def _visit(node, found):\n"
            "    found.append(node)\n"
            "    for child in node.children:\n"
            "        _visit(child, found)\n"
            "class Plan:\n"
            "    def run(self, index):\n"
            "        return self.run(index + 1) if index < 3 else index\n"
            "def build(levels):\n"
            "    loop = None\n"
            "    for level in reversed(levels):\n"
            "        def loop(row, descend=loop):\n"
            "            return descend(row) if descend else row\n"
            "    return loop\n"
        )
        proc = self._run(str(good))
        assert proc.returncode == 0, proc.stdout
