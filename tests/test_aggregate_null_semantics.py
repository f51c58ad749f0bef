"""SQL NULL semantics of aggregates, pinned against explicit expected
values and across every engine flavour.

SQL-92 aggregate rules the engine must follow:

* ``COUNT(*)`` counts rows; ``COUNT(col)`` counts non-NULL values only.
* ``SUM``/``MIN``/``MAX``/``AVG`` skip NULL inputs; over an all-NULL (or
  empty) input set they return NULL, never 0.
* ``AVG`` divides by the non-NULL count, not the row count.
* ``DISTINCT`` inside an aggregate deduplicates the non-NULL values.
* ``SELECT DISTINCT`` treats NULL as one distinct value.

Every statement runs on the interpreted reference, the row-at-a-time
compiled engine and the vectorized compiled engine (the default); all
flavours must return the same rows, and they must equal the hand-computed
expectation.
"""

import pytest

from repro.relalg import Database

_M_ROWS = [
    # (id, g, x):  g=1 is all-NULL in x, g=2 is mixed, g=3 has no NULLs.
    (1, 1, None),
    (2, 1, None),
    (3, 1, None),
    (4, 2, 10.0),
    (5, 2, None),
    (6, 2, 30.0),
    (7, 3, 5.0),
    (8, 3, 5.0),
    (9, None, 7.0),
]


def _databases():
    flavours = {
        "interpreted": Database(engine="interpreted"),
        "rowwise": Database(engine="compiled", vectorized=False),
        "vectorized": Database(engine="compiled"),
    }
    for database in flavours.values():
        database.execute(
            "CREATE TABLE m (id INTEGER PRIMARY KEY, g INTEGER, x FLOAT)"
        )
        database.executemany(
            "INSERT INTO m (id, g, x) VALUES (?, ?, ?)", _M_ROWS
        )
    return flavours


@pytest.fixture(name="flavours")
def _flavours_fixture():
    flavours = _databases()
    yield flavours
    for database in flavours.values():
        database.close()


def _assert_everywhere(flavours, sql, params, expected_rows):
    for name, database in flavours.items():
        result = database.query(sql, params)
        assert result.rows == expected_rows, (name, sql)


class TestAggregateNullSkipping:
    def test_count_star_vs_count_column(self, flavours):
        _assert_everywhere(
            flavours,
            "SELECT g, COUNT(*), COUNT(x) FROM m GROUP BY g ORDER BY g",
            [],
            # NULL grouping keys sort last in this engine's ORDER BY.
            [(1, 3, 0), (2, 3, 2), (3, 2, 2), (None, 1, 1)],
        )

    def test_sum_min_max_skip_nulls_and_all_null_group_is_null(self, flavours):
        _assert_everywhere(
            flavours,
            "SELECT g, SUM(x), MIN(x), MAX(x) FROM m GROUP BY g ORDER BY g",
            [],
            [
                (1, None, None, None),
                (2, 40.0, 10.0, 30.0),
                (3, 10.0, 5.0, 5.0),
                (None, 7.0, 7.0, 7.0),
            ],
        )

    def test_avg_divides_by_non_null_count(self, flavours):
        # g=2 has rows (10.0, NULL, 30.0): AVG is 40/2 = 20, not 40/3.
        _assert_everywhere(
            flavours,
            "SELECT g, AVG(x) FROM m GROUP BY g ORDER BY g",
            [],
            [(1, None), (2, 20.0), (3, 5.0), (None, 7.0)],
        )

    def test_count_distinct_excludes_nulls(self, flavours):
        # x values: {NULL×4, 10.0, 30.0, 5.0×2, 7.0} → 4 distinct non-NULL.
        _assert_everywhere(
            flavours,
            "SELECT COUNT(DISTINCT x), COUNT(x), COUNT(*) FROM m",
            [],
            [(4, 5, 9)],
        )

    def test_ungrouped_aggregates_over_empty_input(self, flavours):
        _assert_everywhere(
            flavours,
            "SELECT COUNT(*), COUNT(x), SUM(x), MIN(x), MAX(x), AVG(x) "
            "FROM m WHERE id > ?",
            [100],
            [(0, 0, None, None, None, None)],
        )

    def test_select_distinct_keeps_one_null(self, flavours):
        _assert_everywhere(
            flavours,
            "SELECT DISTINCT g FROM m ORDER BY g",
            [],
            [(1,), (2,), (3,), (None,)],
        )

    def test_stats_identical_between_vectorized_and_rowwise(self, flavours):
        sql = "SELECT g, COUNT(*), SUM(x), AVG(x) FROM m GROUP BY g ORDER BY g"
        rowwise = flavours["rowwise"].query(sql)
        vectorized = flavours["vectorized"].query(sql)
        assert vectorized.rows == rowwise.rows
        assert vectorized.stats == rowwise.stats

    def test_distinct_in_aggregate_per_group(self, flavours):
        # g=3 holds (5.0, 5.0): SUM(DISTINCT x) dedups to 5.0 there.
        _assert_everywhere(
            flavours,
            "SELECT g, SUM(DISTINCT x), COUNT(DISTINCT x) FROM m "
            "GROUP BY g ORDER BY g",
            [],
            [
                (1, None, 0),
                (2, 40.0, 2),
                (3, 5.0, 1),
                (None, 7.0, 1),
            ],
        )

    def test_avg_of_integer_column_divides_exactly(self, flavours):
        # Integer sums stay exact ints until the final division.
        _assert_everywhere(
            flavours,
            "SELECT g, SUM(id), AVG(id) FROM m GROUP BY g ORDER BY g",
            [],
            [(1, 6, 2.0), (2, 15, 5.0), (3, 15, 7.5), (None, 9, 9.0)],
        )

    def test_avg_of_mixed_int_float_expression(self, flavours):
        # id (int) + x (float) widens per row; NULL x rows drop out.
        _assert_everywhere(
            flavours,
            "SELECT g, AVG(id + x) FROM m GROUP BY g ORDER BY g",
            [],
            [(1, None), (2, 25.0), (3, 12.5), (None, 16.0)],
        )


class TestFloatGroupKeys:
    """Float edge-case group keys: -0.0 folds with 0.0, NaN never matches."""

    def _fill(self, flavours, rows):
        for database in flavours.values():
            database.execute(
                "CREATE TABLE fk (id INTEGER PRIMARY KEY, k FLOAT)"
            )
            database.executemany(
                "INSERT INTO fk (id, k) VALUES (?, ?)", rows
            )

    def test_negative_zero_groups_with_positive_zero(self, flavours):
        self._fill(
            flavours, [(1, 0.0), (2, -0.0), (3, 1.0), (4, -0.0), (5, 0.0)]
        )
        _assert_everywhere(
            flavours,
            "SELECT k, COUNT(*) FROM fk GROUP BY k ORDER BY k",
            [],
            # 0.0 == -0.0 (and hashes identically): one group of four.
            [(0.0, 4), (1.0, 1)],
        )

    def test_nan_keys_never_merge(self, flavours):
        # Distinct NaN objects per row: each is its own group everywhere
        # (NaN != NaN).
        rows = [(i, float("nan")) for i in range(1, 5)] + [(5, 2.0), (6, 2.0)]
        self._fill(flavours, rows)
        for name, database in flavours.items():
            result = database.query("SELECT COUNT(*) FROM fk GROUP BY k")
            assert sorted(r[0] for r in result.rows) == [1, 1, 1, 1, 2], name
