"""Partitioned storage: edge cases, statistics, pruning and virtual parallelism.

Covers the hash-partitioned :class:`~repro.relalg.storage.Table` (composite
and absent partition keys, cross-partition batch atomicity, per-partition
tombstone compaction), the maintained cardinality statistics (including
staleness after DELETE-heavy workloads), partition-pruned index probes, the
EXPLAIN surface, the partition-count transparency of both execution engines
(across DML, DDL and failed statements) and the per-partition virtual cost
charging of the simulated backends.
"""

import pytest

from repro.relalg import (
    Column,
    ColumnType,
    Database,
    ExecutionError,
    IntegrityError,
    SchemaError,
    Table,
    TableSchema,
    backend,
    stable_hash,
)


def _pk_schema(name="t"):
    return TableSchema(
        name=name,
        columns=[
            Column("id", ColumnType.INTEGER, primary_key=True),
            Column("g", ColumnType.INTEGER),
            Column("x", ColumnType.FLOAT),
        ],
    )


def _composite_schema():
    return TableSchema(
        name="edge",
        columns=[
            Column("src", ColumnType.INTEGER, primary_key=True),
            Column("dst", ColumnType.INTEGER, primary_key=True),
            Column("w", ColumnType.FLOAT),
        ],
    )


def _keyless_schema():
    return TableSchema(
        name="log",
        columns=[
            Column("tag", ColumnType.VARCHAR),
            Column("v", ColumnType.INTEGER),
        ],
    )


class TestStableHash:
    def test_numeric_cross_type_equality(self):
        # `=` treats 3, 3.0 and True/1 as equal; pruning must agree.
        assert stable_hash(3) == stable_hash(3.0)
        assert stable_hash(1) == stable_hash(True)
        assert stable_hash(0) == stable_hash(False)

    def test_strings_are_seed_independent(self):
        # crc32-based: a fixed value, not PYTHONHASHSEED-dependent.
        assert stable_hash("alpha") == stable_hash("alpha")
        assert stable_hash("alpha") != stable_hash("beta")

    def test_containers_and_null(self):
        assert stable_hash((1, "a")) == stable_hash((1, "a"))
        assert stable_hash(None) == stable_hash(None)


class TestPartitionedTableBasics:
    @pytest.mark.parametrize("parts", [1, 3, 7])
    def test_scan_sees_every_row_exactly_once(self, parts):
        table = Table(_pk_schema(), n_partitions=parts)
        table.insert_many([(i, i % 3, float(i)) for i in range(50)])
        assert table.row_count == 50
        assert sorted(row[0] for row in table.scan()) == list(range(50))

    def test_partition_layout_is_deterministic(self):
        rows = [(i, i % 3, float(i)) for i in range(40)]
        first = Table(_pk_schema(), n_partitions=5)
        second = Table(_pk_schema(), n_partitions=5)
        first.insert_many(rows)
        for row in rows:
            second.insert(row)
        for p_first, p_second in zip(first.partitions, second.partitions):
            assert p_first.rows == p_second.rows

    def test_duplicate_primary_key_detected_across_the_right_partition(self):
        table = Table(_pk_schema(), n_partitions=4)
        table.insert_many([(i, 0, 0.0) for i in range(20)])
        with pytest.raises(IntegrityError, match="duplicate primary key"):
            table.insert((7, 1, 1.0))

    def test_indexed_lookup_matches_scan_at_every_partition_count(self):
        for parts in (1, 2, 5):
            table = Table(_pk_schema(), n_partitions=parts)
            table.create_index("idx_g", "g")
            table.insert_many([(i, i % 4, float(i)) for i in range(60)])
            for needle in range(4):
                via_index = sorted(row[0] for row in table.lookup("g", needle))
                via_scan = sorted(
                    row[0] for row in table.scan() if row[1] == needle
                )
                assert via_index == via_scan

    def test_rows_property_concatenates_partitions(self):
        table = Table(_pk_schema(), n_partitions=3)
        table.insert_many([(i, 0, 0.0) for i in range(9)])
        assert sorted(row[0] for row in table.rows if row is not None) == list(
            range(9)
        )

    def test_invalid_partition_count_rejected(self):
        from repro.relalg import SchemaError

        with pytest.raises(SchemaError, match="n_partitions"):
            Table(_pk_schema(), n_partitions=0)
        with pytest.raises(ValueError, match="n_partitions"):
            Database(n_partitions=0)


class TestPartitionKeys:
    def test_composite_primary_key_partitions_by_key_tuple(self):
        table = Table(_composite_schema(), n_partitions=4)
        rows = [(s, d, float(s + d)) for s in range(6) for d in range(6)]
        table.insert_many(rows)
        assert table.row_count == 36
        assert sorted((r[0], r[1]) for r in table.scan()) == sorted(
            (s, d) for s in range(6) for d in range(6)
        )
        # The same key tuple always lands in the same partition.
        reference = Table(_composite_schema(), n_partitions=4)
        reference.insert_many(rows)
        assert [p.rows for p in table.partitions] == [
            p.rows for p in reference.partitions
        ]
        # Composite keys cannot prune single-column equality probes.
        assert table.partition_column is None

    def test_keyless_table_partitions_by_whole_row_including_nulls(self):
        table = Table(_keyless_schema(), n_partitions=3)
        rows = [("a", 1), (None, 2), ("b", None), (None, None), ("a", 1)]
        table.insert_many(rows)
        assert table.row_count == 5
        assert sorted(
            table.scan(), key=lambda r: (str(r[0]), str(r[1]))
        ) == sorted(rows, key=lambda r: (str(r[0]), str(r[1])))
        # NULL-bearing rows are deletable (the partition is re-derivable).
        deleted = table.delete_where(lambda row: row[0] is None)
        assert deleted == 2
        assert table.row_count == 3

    def test_null_primary_key_rejected_and_leaves_partitions_untouched(self):
        table = Table(_pk_schema(), n_partitions=4)
        table.insert_many([(i, 0, 0.0) for i in range(8)])
        before = [list(p.rows) for p in table.partitions]
        with pytest.raises(IntegrityError, match="must not be NULL"):
            table.insert((None, 1, 1.0))
        assert [list(p.rows) for p in table.partitions] == before


class TestCrossPartitionBatchAtomicity:
    def test_mid_batch_failure_spanning_partitions_inserts_nothing(self):
        table = Table(_pk_schema(), n_partitions=4)
        table.insert((100, 0, 0.0))
        # The batch spreads over all partitions; the last row collides.
        batch = [(i, 1, float(i)) for i in range(20)] + [(100, 1, 1.0)]
        with pytest.raises(IntegrityError, match="duplicate primary key"):
            table.insert_many(batch)
        assert table.row_count == 1
        assert table.dead_count == 0
        assert [len(index) for index in (table.index_for("id"),)] == [1]
        for pid, partition in enumerate(table.partitions):
            live = [row for row in partition.rows if row is not None]
            assert len(live) == partition.live_count
        assert sorted(row[0] for row in table.scan()) == [100]

    def test_mid_batch_validation_failure_spanning_partitions(self):
        table = Table(_pk_schema(), n_partitions=3)
        from repro.relalg import SchemaError

        with pytest.raises(SchemaError):
            table.insert_many([(1, 0, 0.0), (2, 0, 1.0), (3, "bad", 2.0)])
        assert table.row_count == 0
        assert all(not p.rows for p in table.partitions)


class TestPerPartitionCompaction:
    def test_delete_heavy_partition_compacts_independently(self):
        table = Table(_pk_schema(), n_partitions=2)
        table.create_index("idx_g", "g")
        table.insert_many([(i, i % 2, float(i)) for i in range(400)])
        victim = 0
        victim_keys = [
            row[0] for row in table.partitions[victim].scan()
        ]
        doomed = set(victim_keys[: int(len(victim_keys) * 0.9)])
        table.delete_where(lambda row: row[0] in doomed)
        # The victim partition crossed its tombstone threshold and rebuilt;
        # the sibling was never touched.
        assert table.partitions[victim].dead_count == 0
        assert (
            len(table.partitions[victim].rows)
            == table.partitions[victim].live_count
        )
        other = 1 - victim
        assert table.partitions[other].dead_count == 0
        assert sorted(row[0] for row in table.scan()) == sorted(
            set(range(400)) - doomed
        )
        # Indexes survived the partial rebuild.
        assert sorted(row[0] for row in table.lookup("g", 0)) == sorted(
            i for i in range(0, 400, 2) if i not in doomed
        )

    def test_spread_deletes_stay_below_per_partition_threshold(self):
        # 120 tombstones spread over 4 partitions (~30 each) stay below the
        # per-partition floor of 64: no partition compacts on its own.
        table = Table(_pk_schema(), n_partitions=4)
        table.insert_many([(i, 0, 0.0) for i in range(240)])
        table.delete_where(lambda row: row[0] < 120)
        assert table.row_count == 120
        assert table.dead_count == 120
        assert table.compact() == 120
        assert table.dead_count == 0


class TestStatistics:
    def test_row_counts_and_distinct_estimates(self):
        table = Table(_pk_schema(), n_partitions=4)
        table.create_index("idx_g", "g")
        table.insert_many([(i, i % 5, float(i)) for i in range(100)])
        statistics = table.statistics()
        assert statistics.row_count == 100
        assert sum(statistics.partition_rows) == 100
        assert len(statistics.partition_rows) == 4
        # The PK is the partition key: shards are disjoint, the sum is exact.
        assert statistics.distinct_for("id") == 100
        # Secondary indexes estimate via the per-partition maximum (a lower
        # bound on the true distinct count — summing shards would over-count
        # keys that appear in several partitions and make probes look
        # cheaper than they are).  All 5 group values land in every shard
        # here, so the estimate is exact.
        assert statistics.distinct_for("g") == 5

    def test_statistics_track_dml_and_staleness(self):
        table = Table(_pk_schema())
        table.create_index("idx_g", "g")
        table.insert_many([(i, i % 5, float(i)) for i in range(100)])
        snapshot = table.statistics()
        table.delete_where(lambda row: row[1] != 0)  # DELETE-heavy: 80 rows
        fresh = table.statistics()
        # The old snapshot is stale and says so via the mutation counter.
        assert snapshot.row_count == 100
        assert fresh.row_count == 20
        assert fresh.mutations == snapshot.mutations + 80
        assert table.mutations == fresh.mutations
        # Distinct estimates follow the live index buckets through deletes
        # (and any compaction they triggered).
        assert fresh.distinct_for("g") == 1
        assert fresh.distinct_for("id") == 20

    def test_planner_estimates_follow_statistics(self):
        from repro.relalg import parse_sql, plan_select

        db = Database(n_partitions=2)
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, g INTEGER)")
        db.executemany(
            "INSERT INTO t (id, g) VALUES (?, ?)", [(i, i % 4) for i in range(80)]
        )
        plan = plan_select(parse_sql("SELECT * FROM t WHERE id = 3"), db.tables)
        (level,) = plan.describe()
        assert level["pruned"] is True
        assert level["partitions"] == 2
        # 80 rows / 80 distinct keys.
        assert level["estimated_rows"] == 1.0


class TestPartitionPruning:
    @pytest.fixture()
    def db(self):
        db = Database(n_partitions=4)
        db.execute(
            "CREATE TABLE m (id INTEGER PRIMARY KEY, g INTEGER, x FLOAT)"
        )
        db.executemany(
            "INSERT INTO m (id, g, x) VALUES (?, ?, ?)",
            [(i, i % 3, float(i)) for i in range(64)],
        )
        return db

    def test_pk_equality_touches_exactly_one_partition(self, db):
        result = db.query("SELECT * FROM m WHERE id = ?", [17])
        assert result.rows == [(17, 2, 17.0)]
        assert result.stats.index_lookups == 1
        assert result.stats.rows_scanned == 1
        # All scan work was attributed to a single partition.
        assert len(result.stats.partition_rows_scanned) == 1
        (pid,) = result.stats.partition_rows_scanned
        assert pid == db.table("m").partition_of_key(17)

    def test_full_scan_touches_every_nonempty_partition(self, db):
        result = db.query("SELECT COUNT(*) FROM m")
        assert result.scalar() == 64
        assert result.stats.rows_scanned == 64
        assert sum(result.stats.partition_rows_scanned.values()) == 64
        assert len(result.stats.partition_rows_scanned) == 4

    def test_secondary_index_probe_is_not_pruned(self, db):
        from repro.relalg import parse_sql, plan_select

        db.execute("CREATE INDEX idx_g ON m (g)")
        plan = plan_select(parse_sql("SELECT id FROM m WHERE g = 1"), db.tables)
        (level,) = plan.describe()
        assert level["access"] == "index-probe"
        assert level["pruned"] is False
        result = db.query("SELECT id FROM m WHERE g = ?", [1])
        assert sorted(row[0] for row in result) == [
            i for i in range(64) if i % 3 == 1
        ]

    def test_explain_reports_pruning(self, db):
        text = db.explain("SELECT * FROM m WHERE id = 3")
        assert "index-probe on id" in text
        assert "1 of 4 partition(s) [pruned]" in text

    def test_explain_rejects_non_select(self, db):
        with pytest.raises(ExecutionError, match="SELECT"):
            db.explain("DELETE FROM m")


def _populate(db):
    """Two joinable tables whose rows spread over every partition."""
    db.execute(
        "CREATE TABLE m (id INTEGER PRIMARY KEY, g INTEGER, x FLOAT, s VARCHAR)"
    )
    db.execute("CREATE TABLE r (id INTEGER PRIMARY KEY, m_id INTEGER, v FLOAT)")
    db.executemany(
        "INSERT INTO m (id, g, x, s) VALUES (?, ?, ?, ?)",
        [
            (i, i % 7, float(i) * 1.5, ["alpha", "beta", None][i % 3])
            for i in range(120)
        ],
    )
    db.executemany(
        "INSERT INTO r (id, m_id, v) VALUES (?, ?, ?)",
        [(i, (i * 11) % 120, float(i % 13)) for i in range(60)],
    )
    return db


_TRANSPARENCY_QUERIES = [
    ("SELECT id, g, x FROM m WHERE g = ? AND x > ? ORDER BY id", [3, 20.0]),
    ("SELECT COUNT(*), SUM(x), MIN(x), MAX(x) FROM m WHERE x > ?", [30.0]),
    ("SELECT DISTINCT g FROM m WHERE s IS NOT NULL ORDER BY g", []),
    ("SELECT g, COUNT(*) AS c FROM m GROUP BY g HAVING COUNT(*) > ? ORDER BY g", [2]),
    ("SELECT g, SUM(g + id), AVG(id + id), COUNT(*) FROM m GROUP BY g ORDER BY g", []),
    (
        "SELECT m.id, r.id, r.v FROM m, r WHERE m.id = r.m_id AND m.x > ? "
        "ORDER BY m.id, r.id LIMIT 25",
        [5.0],
    ),
    ("SELECT m.id, r.id FROM m, r WHERE m.g = r.m_id ORDER BY m.id, r.id", []),
    ("SELECT id FROM m WHERE g IN (?, ?) ORDER BY id DESC LIMIT 7", [1, 5]),
    ("SELECT id FROM m WHERE x > (SELECT MIN(v) FROM r) ORDER BY id", []),
    ("SELECT * FROM m WHERE id = ?", [42]),
]


class TestPartitionTransparency:
    """Partitioning decides where rows live, never what a statement sees.

    At every partition count the vectorized and the row-at-a-time engine
    return the single-partition columns, rows and counters, and both
    attribute the same scan work to the same partitions.
    """

    @pytest.mark.parametrize("parts", [1, 4, 7])
    @pytest.mark.parametrize("sql, params", _TRANSPARENCY_QUERIES)
    def test_matches_the_single_partition_reference(self, sql, params, parts):
        expected = _populate(Database(vectorized=False)).query(sql, params)
        vectorized = _populate(Database(n_partitions=parts)).query(sql, params)
        rowwise = _populate(
            Database(n_partitions=parts, vectorized=False)
        ).query(sql, params)
        for got in (vectorized, rowwise):
            assert got.columns == expected.columns
            assert got.rows == expected.rows
            assert got.stats == expected.stats
        attribution = vectorized.stats.partition_rows_scanned
        assert attribution == rowwise.stats.partition_rows_scanned
        # Single-partition tables attribute nothing; partitioned scans
        # attribute at most what the statement scanned.
        assert bool(attribution) == (parts > 1)
        assert sum(attribution.values()) <= vectorized.stats.rows_scanned

    def test_dml_between_queries_rebuilds_stale_chunks(self):
        vectorized = _populate(Database(n_partitions=5))
        rowwise = _populate(Database(n_partitions=5, vectorized=False))
        sql = "SELECT g, COUNT(*), SUM(x) FROM m WHERE x > ? GROUP BY g ORDER BY g"
        assert vectorized.query(sql, [0.0]).rows == rowwise.query(sql, [0.0]).rows
        for db in (vectorized, rowwise):
            db.executemany(
                "INSERT INTO m (id, g, x, s) VALUES (?, ?, ?, ?)",
                [(1000 + i, i % 7, 999.0 + i, "new") for i in range(15)],
            )
            db.execute("DELETE FROM m WHERE g = ?", [2])
        got = vectorized.query(sql, [0.0])
        expected = rowwise.query(sql, [0.0])
        assert got.rows == expected.rows
        assert 2 not in [row[0] for row in got.rows]
        assert got.stats == expected.stats
        assert (
            got.stats.partition_rows_scanned
            == expected.stats.partition_rows_scanned
        )

    def test_create_index_between_queries_replans(self):
        db = _populate(Database(n_partitions=5))
        sql = "SELECT id FROM m WHERE g = ? ORDER BY id"
        before = db.query(sql, [4])
        assert db.query(sql, [4]).rows == before.rows
        assert db.plan_cache_info() == {"hits": 1, "misses": 1, "size": 1}
        db.execute("CREATE INDEX idx_m_g ON m (g)")
        assert db.plan_cache_info()["size"] == 0
        after = db.query(sql, [4])
        assert db.plan_cache_info() == {"hits": 1, "misses": 2, "size": 1}
        assert after.rows == before.rows
        # The new plan probes the index instead of scanning all 120 rows.
        assert (before.stats.index_lookups, before.stats.rows_scanned) == (0, 120)
        assert after.stats.index_lookups == 1
        assert after.stats.rows_scanned == len(after.rows)

    def test_drop_and_recreate_never_reuses_a_dropped_plan(self):
        db = Database(n_partitions=4)
        sql = "SELECT COUNT(*), MIN(v) FROM t WHERE v >= ?"
        for generation in range(3):
            db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v FLOAT)")
            db.executemany(
                "INSERT INTO t (id, v) VALUES (?, ?)",
                [(i, float(i + generation)) for i in range(30 + generation)],
            )
            assert db.query(sql, [0.0]).rows == [
                (30 + generation, float(generation))
            ]
            db.execute("DROP TABLE t")
            assert db.plan_cache_info()["size"] == 0
        assert db.plan_cache_info()["misses"] == 3
        with pytest.raises(SchemaError, match="unknown table"):
            db.query(sql, [0.0])

    def test_same_named_tables_of_two_databases_stay_apart(self):
        first = Database(n_partitions=4)
        second = Database(n_partitions=3)
        for db, rows in ((first, 40), (second, 7)):
            db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v FLOAT)")
            db.executemany(
                "INSERT INTO t (id, v) VALUES (?, ?)",
                [(i, float(i)) for i in range(rows)],
            )
        sql = "SELECT COUNT(*) FROM t WHERE v >= ?"
        for _ in range(2):  # cold plans, then cached ones
            assert first.query(sql, [0.0]).scalar() == 40
            assert second.query(sql, [0.0]).scalar() == 7

    def test_empty_partitions_and_empty_tables(self):
        db = Database(n_partitions=6)
        db.execute("CREATE TABLE e (id INTEGER PRIMARY KEY, v FLOAT)")
        empty = db.query("SELECT * FROM e WHERE v > ?", [0.0])
        assert empty.rows == []
        assert empty.stats.rows_scanned == 0
        assert empty.stats.partition_rows_scanned == {}
        assert db.query(
            "SELECT COUNT(*), SUM(v), MIN(v) FROM e WHERE v > ?", [0.0]
        ).rows == [(0, None, None)]
        db.execute("INSERT INTO e (id, v) VALUES (?, ?)", [1, 5.0])
        # One row: five of the six partitions stay empty.
        one = db.query("SELECT id FROM e WHERE v > ?", [0.0])
        assert one.rows == [(1,)]
        assert list(one.stats.partition_rows_scanned.values()) == [1]
        assert db.query(
            "SELECT COUNT(*), SUM(v), MIN(v) FROM e WHERE v > ?", [0.0]
        ).rows == [(1, 5.0, 5.0)]

    def test_failed_execution_leaves_the_cached_plan_usable(self):
        db = _populate(Database(n_partitions=4))
        sql = "SELECT id FROM m WHERE x / ? > 10 ORDER BY id"
        with pytest.raises(ExecutionError, match="division by zero"):
            db.query(sql, [0])
        got = db.query(sql, [2])
        expected = _populate(Database(vectorized=False)).query(sql, [2])
        assert db.plan_cache_info()["hits"] == 1
        assert got.rows == expected.rows
        assert got.stats == expected.stats


class TestBackendPartitionCharging:
    @pytest.mark.parametrize("parallelism", [2, 4])
    @pytest.mark.parametrize(
        "sql, params",
        [
            ("SELECT id, g FROM m WHERE g = ? ORDER BY id", [2]),
            ("SELECT COUNT(*), SUM(x) FROM m WHERE x > ?", [10.0]),
            (
                "SELECT m.id, r.id FROM m, r WHERE m.g = r.m_id "
                "ORDER BY m.id, r.id",
                [],
            ),
        ],
    )
    def test_virtual_parallelism_changes_only_the_charge(
        self, sql, params, parallelism
    ):
        serial = _populate(backend("oracle7", n_partitions=4))
        fanout = _populate(
            backend("oracle7", n_partitions=4, parallelism=parallelism)
        )
        serial.reset_clock()
        fanout.reset_clock()
        expected = serial.query(sql, params)
        got = fanout.query(sql, params)
        assert got.columns == expected.columns
        assert got.rows == expected.rows
        assert got.stats == expected.stats
        assert (
            got.stats.partition_rows_scanned
            == expected.stats.partition_rows_scanned
        )
        assert fanout.elapsed < serial.elapsed

    def test_effective_scan_rows_makespan(self):
        simulated = backend("oracle7", n_partitions=4, parallelism=2)
        # 4 partitions with 10 rows each over 2 workers: makespan 20.
        assert simulated._effective_scan_rows(
            {0: 10, 1: 10, 2: 10, 3: 10}, 40
        ) == 20
        # A dominant partition bounds the makespan from below.
        assert simulated._effective_scan_rows({0: 30, 1: 2}, 32) == 30
        # Unattributed (serial) work is added on top.
        assert simulated._effective_scan_rows({0: 10, 1: 10}, 25) == 15
        # Serial backends charge the plain total.
        serial = backend("oracle7")
        assert serial._effective_scan_rows({0: 10, 1: 10}, 20) == 20

    def test_parallel_backend_charges_less_for_partitioned_scans(self):
        rows = [(i, i % 3, float(i)) for i in range(400)]
        serial = backend("oracle7", n_partitions=4)
        fanout = backend("oracle7", n_partitions=4, parallelism=4)
        for simulated in (serial, fanout):
            simulated.execute(
                "CREATE TABLE t (id INTEGER PRIMARY KEY, g INTEGER, x FLOAT)"
            )
            simulated.executemany(
                "INSERT INTO t (id, g, x) VALUES (?, ?, ?)", rows
            )
            simulated.reset_clock()
            result = simulated.query("SELECT COUNT(*) FROM t WHERE g = 1")
            assert result.scalar() == len([r for r in rows if r[1] == 1])
        assert fanout.elapsed < serial.elapsed
        # Pruned point probes cost the same either way: one row each.
        serial.reset_clock()
        fanout.reset_clock()
        serial.query("SELECT * FROM t WHERE id = 7")
        fanout.query("SELECT * FROM t WHERE id = 7")
        assert fanout.elapsed == pytest.approx(serial.elapsed)

    def test_backend_parallelism_validation(self):
        with pytest.raises(ValueError, match="parallelism"):
            backend("oracle7", parallelism=0)
