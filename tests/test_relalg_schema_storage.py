"""Tests of the relational engine's schemas, storage and indexes."""

import datetime as dt

import pytest
from hypothesis import given, settings, strategies as st

from repro.relalg import (
    Column,
    ColumnType,
    HashIndex,
    IntegrityError,
    SchemaError,
    Table,
    TableSchema,
)


def timing_schema():
    return TableSchema(
        name="TotalTiming",
        columns=[
            Column("id", ColumnType.INTEGER, nullable=False, primary_key=True),
            Column("region_id", ColumnType.INTEGER),
            Column("run_id", ColumnType.INTEGER),
            Column("incl", ColumnType.FLOAT),
            Column("label", ColumnType.VARCHAR),
        ],
    )


class TestColumnTypes:
    def test_sql_aliases(self):
        assert ColumnType.from_sql("INT") is ColumnType.INTEGER
        assert ColumnType.from_sql("double") is ColumnType.FLOAT
        assert ColumnType.from_sql("Text") is ColumnType.VARCHAR
        assert ColumnType.from_sql("DATETIME") is ColumnType.TIMESTAMP

    def test_unknown_type_rejected(self):
        with pytest.raises(SchemaError, match="unsupported column type"):
            ColumnType.from_sql("BLOB")

    def test_integer_validation(self):
        assert ColumnType.INTEGER.validate(4) == 4
        assert ColumnType.INTEGER.validate(4.0) == 4
        with pytest.raises(SchemaError):
            ColumnType.INTEGER.validate("four")
        with pytest.raises(SchemaError):
            ColumnType.INTEGER.validate(4.5)

    def test_float_validation_widens_ints(self):
        assert ColumnType.FLOAT.validate(3) == 3.0
        with pytest.raises(SchemaError):
            ColumnType.FLOAT.validate("x")

    def test_boolean_validation(self):
        assert ColumnType.BOOLEAN.validate(True) is True
        assert ColumnType.BOOLEAN.validate(1) is True
        with pytest.raises(SchemaError):
            ColumnType.BOOLEAN.validate("yes")

    def test_timestamp_validation_accepts_iso_strings(self):
        value = ColumnType.TIMESTAMP.validate("2000-01-17T09:00:00")
        assert value == dt.datetime(2000, 1, 17, 9)
        with pytest.raises(SchemaError):
            ColumnType.TIMESTAMP.validate("not a date")

    def test_null_is_always_accepted_by_types(self):
        for column_type in ColumnType:
            assert column_type.validate(None) is None


class TestTableSchema:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError, match="duplicate column"):
            TableSchema(
                name="t",
                columns=[Column("x", ColumnType.INTEGER), Column("X", ColumnType.FLOAT)],
            )

    def test_column_lookup_is_case_insensitive(self):
        schema = timing_schema()
        assert schema.column("INCL").name == "incl"
        assert schema.column_index("Run_Id") == 2
        with pytest.raises(SchemaError):
            schema.column("missing")

    def test_validate_row_checks_arity(self):
        schema = timing_schema()
        with pytest.raises(SchemaError, match="5 columns"):
            schema.validate_row([1, 2, 3])

    def test_validate_row_rejects_null_primary_key(self):
        schema = timing_schema()
        with pytest.raises(IntegrityError, match="must not be NULL"):
            schema.validate_row([None, 1, 1, 1.0, "x"])

    def test_row_from_mapping_fills_missing_with_null(self):
        schema = timing_schema()
        row = schema.row_from_mapping({"id": 1, "incl": 2.5})
        assert row == (1, None, None, 2.5, None)

    def test_row_from_mapping_rejects_unknown_columns(self):
        schema = timing_schema()
        with pytest.raises(SchemaError, match="unknown column"):
            schema.row_from_mapping({"id": 1, "bogus": 2})

    def test_create_table_sql(self):
        sql = timing_schema().sql()
        assert sql.startswith("CREATE TABLE TotalTiming (")
        assert "id INTEGER PRIMARY KEY" in sql


class TestTable:
    def test_insert_and_scan(self):
        table = Table(timing_schema())
        table.insert([1, 10, 100, 1.5, "a"])
        table.insert([2, 10, 200, 2.5, "b"])
        assert table.row_count == 2
        assert [row[0] for row in table.scan()] == [1, 2]

    def test_primary_key_uniqueness_enforced(self):
        table = Table(timing_schema())
        table.insert([1, 10, 100, 1.5, "a"])
        with pytest.raises(IntegrityError, match="duplicate primary key"):
            table.insert([1, 11, 101, 2.5, "b"])

    def test_null_primary_key_insert_leaves_the_table_untouched(self):
        table = Table(timing_schema())
        table.insert_many([[i, 0, 0, 0.0, "x"] for i in range(1, 9)])
        before = list(table.rows)
        with pytest.raises(IntegrityError, match="must not be NULL"):
            table.insert([None, 1, 1, 1.0, "y"])
        with pytest.raises(IntegrityError, match="must not be NULL"):
            table.insert_many([[9, 1, 1, 1.0, "y"], [None, 1, 1, 1.0, "z"]])
        assert table.rows == before
        assert table.row_count == 8
        assert len(table.index_for("id")) == 8

    def test_lookup_without_index_scans(self):
        table = Table(timing_schema())
        table.insert([1, 10, 100, 1.5, "a"])
        table.insert([2, 20, 100, 2.5, "b"])
        rows = list(table.lookup("region_id", 20))
        assert len(rows) == 1 and rows[0][0] == 2

    def test_index_creation_and_lookup(self):
        table = Table(timing_schema())
        for i in range(50):
            table.insert([i + 1, i % 5, i, float(i), "x"])
        table.create_index("idx_region", "region_id")
        assert len(list(table.lookup("region_id", 3))) == 10
        with pytest.raises(SchemaError, match="already has an index"):
            table.create_index("idx_region2", "region_id")

    def test_index_backfills_existing_rows(self):
        table = Table(timing_schema())
        table.insert([1, 7, 1, 0.0, "x"])
        index = table.create_index("idx", "region_id")
        assert index.lookup(7)

    def test_delete_where_updates_indexes(self):
        table = Table(timing_schema())
        table.create_index("idx", "region_id")
        for i in range(10):
            table.insert([i + 1, i % 2, i, float(i), "x"])
        deleted = table.delete_where(lambda row: row[1] == 0)
        assert deleted == 5
        assert table.row_count == 5
        assert list(table.lookup("region_id", 0)) == []

    def test_drop_index(self):
        table = Table(timing_schema())
        table.create_index("idx", "region_id")
        table.drop_index("region_id")
        assert table.index_for("region_id") is None

    def test_primary_key_index_cannot_be_dropped(self):
        # Regression: dropping the PK index used to leave a stale, no longer
        # maintained index behind that insert kept enforcing uniqueness
        # against (false duplicates after deletes, real ones missed after
        # compaction).
        table = Table(timing_schema())
        with pytest.raises(SchemaError, match="primary-key index"):
            table.drop_index("id")
        table.insert([1, 0, 0, 0.0, "x"])
        table.delete_where(lambda row: row[0] == 1)
        table.insert([1, 0, 0, 0.0, "again"])  # no false duplicate
        with pytest.raises(IntegrityError, match="duplicate primary key"):
            table.insert([1, 1, 1, 1.0, "dup"])

    @given(values=st.lists(st.integers(min_value=0, max_value=9), min_size=0, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_index_lookup_matches_scan(self, values):
        """Property: an indexed lookup returns exactly the rows a scan finds."""
        table = Table(timing_schema())
        table.create_index("idx", "region_id")
        for position, value in enumerate(values):
            table.insert([position + 1, value, position, float(position), "x"])
        for needle in range(10):
            via_index = sorted(row[0] for row in table.lookup("region_id", needle))
            via_scan = sorted(row[0] for row in table.scan() if row[1] == needle)
            assert via_index == via_scan


class TestHashIndex:
    def test_add_remove(self):
        index = HashIndex("idx", "col")
        index.add("a", 0)
        index.add("a", 1)
        index.remove("a", 0)
        assert index.lookup("a") == [1]
        index.remove("a", 1)
        assert index.lookup("a") == []
        # Removing a missing entry is a no-op.
        index.remove("zzz", 5)

    def test_len_counts_entries(self):
        index = HashIndex("idx", "col")
        index.add(1, 0)
        index.add(2, 1)
        assert len(index) == 2


class TestPositionsView:
    def test_lookup_returns_a_read_only_view_not_a_copy(self):
        from repro.relalg import PositionsView

        index = HashIndex("idx", "col")
        index.add("a", 3)
        index.add("a", 7)
        view = index.lookup("a")
        assert isinstance(view, PositionsView)
        assert list(view) == [3, 7]
        assert len(view) == 2
        assert 3 in view and 5 not in view
        assert view[1] == 7
        assert view == [3, 7] and view == (3, 7)
        assert not (view == [7, 3])
        # Views have no mutating API.
        assert not hasattr(view, "append")

    def test_view_reflects_later_index_changes(self):
        index = HashIndex("idx", "col")
        index.add("a", 1)
        view = index.lookup("a")
        index.add("a", 2)
        assert list(view) == [1, 2]

    def test_remove_is_order_preserving(self):
        index = HashIndex("idx", "col")
        for position in (5, 1, 9, 4):
            index.add("x", position)
        index.remove("x", 9)
        assert index.lookup("x") == [5, 1, 4]

    def test_empty_lookup_is_falsy(self):
        index = HashIndex("idx", "col")
        assert not index.lookup("nothing")
        assert list(index.lookup("nothing")) == []


class TestTombstoneCompaction:
    def fill(self, rows=200):
        table = Table(timing_schema())
        table.create_index("idx", "region_id")
        for i in range(rows):
            table.insert([i + 1, i % 4, i, float(i), "x"])
        return table

    def test_mass_delete_triggers_compaction(self):
        table = self.fill(200)
        deleted = table.delete_where(lambda row: row[1] != 0)
        assert deleted == 150
        assert table.row_count == 50
        # The tombstones were dropped: the row list holds only live rows.
        assert table.dead_count == 0
        assert len(table.rows) == 50

    def test_scan_and_indexes_survive_compaction(self):
        table = self.fill(200)
        table.delete_where(lambda row: row[1] != 0)
        scanned = [row[0] for row in table.scan()]
        assert scanned == [i + 1 for i in range(200) if i % 4 == 0]
        via_index = sorted(row[0] for row in table.lookup("region_id", 0))
        assert via_index == scanned
        assert list(table.lookup("region_id", 1)) == []
        # The primary key index was rebuilt too: inserts still detect dupes.
        with pytest.raises(IntegrityError):
            table.insert([1, 0, 0, 0.0, "dup"])
        table.insert([999, 1, 0, 0.0, "new"])
        assert [row[0] for row in table.lookup("region_id", 1)] == [999]

    def test_small_delete_leaves_tombstones(self):
        table = self.fill(10)
        table.delete_where(lambda row: row[0] == 1)
        assert table.dead_count == 1  # below the compaction threshold
        assert table.row_count == 9

    def test_compaction_thresholds(self):
        # Compaction needs at least 64 tombstones that make up at least half
        # of the row list.
        table = self.fill(126)
        table.delete_where(lambda row: row[0] <= 63)
        assert table.dead_count == 63  # half the rows, but below the floor
        table = self.fill(200)
        table.delete_where(lambda row: row[0] <= 64)
        assert table.dead_count == 64  # the floor, but below half the rows
        table.delete_where(lambda row: row[0] <= 99)
        assert table.dead_count == 99  # one short of half the rows
        table.delete_where(lambda row: row[0] == 100)
        assert table.dead_count == 0  # exactly half: compacted
        assert table.row_count == 100
        assert [row[0] for row in table.scan()] == list(range(101, 201))

    def test_explicit_compact(self):
        table = self.fill(10)
        table.delete_where(lambda row: row[0] <= 3)
        assert table.dead_count == 3
        assert table.compact() == 3
        assert table.dead_count == 0
        assert [row[0] for row in table.scan()] == list(range(4, 11))
        assert table.compact() == 0


class TestStatistics:
    def fill(self):
        table = Table(timing_schema())
        table.create_index("idx", "region_id")
        table.insert_many([[i, i % 5, 0, float(i), "x"] for i in range(100)])
        return table

    def test_row_counts_and_distinct_keys(self):
        statistics = self.fill().statistics()
        assert statistics.row_count == 100
        assert statistics.distinct_for("id") == 100
        assert statistics.distinct_for("region_id") == 5
        assert statistics.distinct_for("label") is None

    def test_statistics_track_dml_and_staleness(self):
        table = self.fill()
        snapshot = table.statistics()
        table.delete_where(lambda row: row[1] != 0)  # DELETE-heavy: 80 rows
        fresh = table.statistics()
        # The old snapshot is stale and says so via the mutation counter.
        assert snapshot.row_count == 100
        assert fresh.row_count == 20
        assert fresh.mutations == snapshot.mutations + 80
        assert table.mutations == fresh.mutations
        # Distinct counts follow the live index buckets through deletes
        # (and the compaction they triggered).
        assert table.dead_count == 0
        assert fresh.distinct_for("region_id") == 1
        assert fresh.distinct_for("id") == 20
