"""Float edge-case keys — ``-0.0`` and ``NaN`` — through every keyed layer.

Two layers key rows by value, each with its own equality notion, and they
must agree on the edge cases where IEEE-754 equality and bit identity
diverge:

* :class:`HashIndex` buckets are plain dict keys: Python dict lookup uses
  hash-then-``==`` with an identity shortcut, so ``0.0`` probes find rows
  indexed under ``-0.0``.  NaN keys are canonicalized to one shared bucket
  key on every maintenance path (add/remove/restore) — identity-keyed NaN
  buckets would make live mutation and WAL-replay rebuilds diverge — while
  equality probes still match no NaN row, as the reference engine demands.
* WAL ``row_key`` is ``repr``-based: strictly *finer* than ``==``
  (``-0.0`` and ``0.0`` are different keys, every NaN is ``'nan'``), which
  is exactly what replaying a DELETE against bit-identical replayed rows
  requires.
"""

import math

import pytest

from repro.relalg import Database, HashIndex
from repro.relalg.wal import fingerprint_hash, row_key, state_fingerprint

NAN = float("nan")


class TestHashIndexEdgeKeys:
    def test_zero_probes_find_negative_zero_entries(self):
        index = HashIndex("idx", "x")
        index.add(-0.0, 3)
        assert list(index.lookup(0.0)) == [3]
        assert list(index.lookup(-0.0)) == [3]
        # Removal through the equal-but-not-identical key clears the entry.
        index.remove(0.0, 3)
        assert list(index.lookup(-0.0)) == []

    def test_nan_entries_share_one_bucket_and_never_match_probes(self):
        index = HashIndex("idx", "x")
        index.add(float("nan"), 7)
        index.add(math.nan, 9)
        # Every NaN object funnels into one canonical bucket, so live
        # mutation and a WAL-replay or compaction rebuild converge on the
        # same index state (raw NaN keys would bucket by object identity:
        # one bucket per inserted object live, shared buckets on rebuild).
        assert index.distinct_count() == 1
        # Equality probes still match nothing — dict lookup needs ``==``
        # after the identity check and ``NaN == NaN`` is false — matching
        # the reference engine's ``x = NaN`` semantics.
        assert list(index.lookup(float("nan"))) == []
        # Maintenance reaches the bucket through *any* NaN object: replayed
        # deletes carry a freshly decoded NaN, not the stored object.
        index.remove(float("nan"), 7)
        index.remove(math.nan, 9)
        assert index.distinct_count() == 0


def _edge_database(**kwargs):
    database = Database(**kwargs)
    database.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, x FLOAT, s VARCHAR)"
    )
    database.execute("CREATE INDEX idx_t_x ON t (x)")
    database.executemany(
        "INSERT INTO t (id, x, s) VALUES (?, ?, ?)",
        [
            (1, -0.0, "neg"),
            (2, 0.0, "pos"),
            (3, NAN, "nan"),
            (4, 1.5, "plain"),
        ],
    )
    return database


class TestQueryLayerAgreement:
    @pytest.mark.parametrize("vectorized", [True, False])
    def test_zero_probe_finds_both_zero_signs(self, vectorized):
        with _edge_database(vectorized=vectorized) as database:
            for probe in (0.0, -0.0):
                rows = database.query(
                    "SELECT id FROM t WHERE x = ? ORDER BY id", [probe]
                ).rows
                assert rows == [(1,), (2,)], probe

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_nan_probe_matches_nothing(self, vectorized):
        with _edge_database(vectorized=vectorized) as database:
            assert database.query(
                "SELECT id FROM t WHERE x = ?", [NAN]
            ).rows == []

    def test_interpreted_engine_agrees(self):
        with _edge_database() as compiled, Database(
            engine="interpreted"
        ) as interpreted:
            interpreted.execute(
                "CREATE TABLE t (id INTEGER PRIMARY KEY, x FLOAT, s VARCHAR)"
            )
            interpreted.executemany(
                "INSERT INTO t (id, x, s) VALUES (?, ?, ?)",
                [(1, -0.0, "neg"), (2, 0.0, "pos"), (3, NAN, "nan"), (4, 1.5, "plain")],
            )
            for sql, params in [
                ("SELECT id FROM t WHERE x = ? ORDER BY id", [0.0]),
                ("SELECT id FROM t WHERE x = ? ORDER BY id", [NAN]),
                ("SELECT id FROM t WHERE x > ? ORDER BY id", [-1.0]),
            ]:
                assert (
                    compiled.query(sql, params).rows
                    == interpreted.query(sql, params).rows
                ), (sql, params)


class TestWalRowKeyEdgeCases:
    def test_row_key_separates_zero_signs_and_unifies_nans(self):
        assert row_key((1, -0.0)) != row_key((1, 0.0))
        assert row_key((1, float("nan"))) == row_key((1, float("nan")))
        # int 0 and float 0.0 are different stored values: different keys.
        assert row_key((1, 0)) != row_key((1, 0.0))

    def test_recovery_round_trips_edge_keys_bit_identically(self, tmp_path):
        wal_path = tmp_path / "edge.wal"
        database = _edge_database(wal_path=str(wal_path))
        # Deleting by == removes both zero signs; the logged row images must
        # replay against the bit-identical recovered rows.
        database.execute("DELETE FROM t WHERE x = ?", [0.0])
        database.executemany(
            "INSERT INTO t (id, x, s) VALUES (?, ?, ?)",
            [(5, -0.0, "back"), (6, NAN, "nan2")],
        )
        expected = fingerprint_hash(state_fingerprint(database))
        database.close()
        with Database(wal_path=str(wal_path)) as recovered:
            assert fingerprint_hash(state_fingerprint(recovered)) == expected
            rows = recovered.query("SELECT id, s FROM t ORDER BY id").rows
            assert rows == [
                (3, "nan"), (4, "plain"), (5, "back"), (6, "nan2"),
            ]
            # The recovered -0.0 kept its sign bit.
            back = recovered.query("SELECT x FROM t WHERE id = ?", [5]).rows
            assert math.copysign(1.0, back[0][0]) == -1.0

    @pytest.mark.parametrize(
        "shared", [False, True], ids=["distinct", "shared"]
    )
    def test_nan_primary_keys_of_one_batch_survive_recovery(
        self, tmp_path, shared
    ):
        # A NaN key equals no key, itself included, so a batch may hold two
        # NaN primary keys — as two NaN objects or as one object twice —
        # and the log replays it (its JSON decoding shares one NaN object).
        wal_path = str(tmp_path / "nan-keys.wal")
        first = float("nan")
        second = first if shared else float("nan")
        with Database(wal_path=wal_path) as database:
            database.execute(
                "CREATE TABLE t (id FLOAT PRIMARY KEY, v INTEGER)"
            )
            database.executemany(
                "INSERT INTO t (id, v) VALUES (?, ?)",
                [[first, 1], [second, 2]],
            )
            expected = fingerprint_hash(state_fingerprint(database))
        with Database(wal_path=wal_path) as recovered:
            assert fingerprint_hash(state_fingerprint(recovered)) == expected
            rows = recovered.query("SELECT id, v FROM t ORDER BY v").rows
            assert [v for _id, v in rows] == [1, 2]
            assert all(math.isnan(key) for key, _v in rows)
            # Still no key equals a NaN, so a third NaN row is accepted too.
            recovered.execute(
                "INSERT INTO t (id, v) VALUES (?, ?)", [first, 3]
            )
            assert recovered.query("SELECT COUNT(*) FROM t").rows == [(3,)]
