"""Transaction semantics and write-ahead durability of the relalg engine.

Covers the BEGIN / COMMIT / ROLLBACK surface end to end: statement parsing,
read-your-writes inside a transaction, byte-identical rollback (rows, index
buckets, tombstones and table statistics, all via the state fingerprint),
the autocommit-only DDL rule, close()-time rollback and idempotence, WAL
recovery and checkpointing, the client and backend pass-through, and the
loader's atomic bulk-load mode.
"""

import json
import warnings

import pytest

from repro.bench.scenarios import build_scenario, identical_table_contents
from repro.compiler import DatabaseLoader, load_repository
from repro.relalg import (
    Database,
    ExecutionError,
    IntegrityError,
    NativeClient,
    RecoveryError,
    TransactionWarning,
    backend,
    fingerprint_hash,
    state_fingerprint,
)
from repro.relalg.wal import LEGACY_PARTITION_COUNT

_DDL = "CREATE TABLE t (id INTEGER PRIMARY KEY, g INTEGER, x FLOAT)"
_INS = "INSERT INTO t (id, g, x) VALUES (?, ?, ?)"


def _state(database):
    return fingerprint_hash(state_fingerprint(database))


def _fresh(**kwargs):
    database = Database(**kwargs)
    database.execute(_DDL)
    database.execute("CREATE INDEX t_g ON t (g)")
    database.executemany(_INS, [(i, i % 3, float(i)) for i in range(1, 41)])
    return database


def _count(database):
    return database.query("SELECT COUNT(*) FROM t").scalar()


class TestTransactionStatements:
    def test_begin_commit_makes_changes_permanent(self):
        with _fresh() as db:
            db.execute("BEGIN")
            assert db.in_transaction
            db.execute(_INS, (100, 0, 1.0))
            db.execute("COMMIT")
            assert not db.in_transaction
            assert _count(db) == 41

    def test_transaction_and_work_suffixes_parse(self):
        with _fresh() as db:
            for begin, end in (
                ("BEGIN TRANSACTION", "COMMIT TRANSACTION"),
                ("BEGIN WORK", "ROLLBACK WORK"),
                ("begin", "commit work"),
            ):
                db.execute(begin)
                assert db.in_transaction
                db.execute(end)
                assert not db.in_transaction

    def test_python_level_helpers(self):
        with _fresh() as db:
            db.begin()
            db.execute("DELETE FROM t WHERE g = ?", [0])
            db.rollback()
            assert _count(db) == 40

    def test_read_your_writes_inside_transaction(self):
        with _fresh() as db:
            db.begin()
            db.execute(_INS, (200, 1, 2.0))
            db.execute("DELETE FROM t WHERE id = ?", [1])
            assert _count(db) == 40
            assert db.query("SELECT g FROM t WHERE id = ?", [200]).scalar() == 1
            assert db.query("SELECT COUNT(*) FROM t WHERE id = ?", [1]).scalar() == 0
            db.rollback()

    def test_nested_begin_rejected(self):
        with _fresh() as db:
            db.begin()
            with pytest.raises(ExecutionError, match="nested"):
                db.execute("BEGIN")
            assert db.in_transaction  # the open transaction survives
            db.rollback()

    def test_commit_and_rollback_outside_transaction_rejected(self):
        with _fresh() as db:
            with pytest.raises(ExecutionError, match="COMMIT outside"):
                db.execute("COMMIT")
            with pytest.raises(ExecutionError, match="ROLLBACK outside"):
                db.execute("ROLLBACK")


class TestRollbackRestoresState:
    def test_rollback_is_byte_identical(self):
        with _fresh() as db:
            # Tombstones near the compaction threshold make the restore
            # interesting: deferred compaction must not fire mid-transaction.
            db.execute("DELETE FROM t WHERE g = ?", [2])
            before = _state(db)
            db.begin()
            db.executemany(_INS, [(500 + i, i % 3, -1.0) for i in range(25)])
            db.execute("DELETE FROM t WHERE x > ?", [10.0])
            db.execute("DELETE FROM t WHERE g = ?", [1])
            db.rollback()
            assert _state(db) == before

    def test_commit_then_new_rollback_only_undoes_second_txn(self):
        with _fresh() as db:
            db.begin()
            db.execute(_INS, (300, 2, 3.0))
            db.commit()
            committed = _state(db)
            db.begin()
            db.execute("DELETE FROM t WHERE id = ?", [300])
            db.rollback()
            assert _state(db) == committed

    def test_mid_batch_integrity_error_inside_transaction(self):
        """A duplicate key mid-executemany leaves the batch unapplied and the
        transaction alive; rollback then restores the pre-BEGIN state."""
        with _fresh() as db:
            before = _state(db)
            db.begin()
            db.execute(_INS, (400, 0, 4.0))
            with pytest.raises(IntegrityError, match="duplicate primary key"):
                db.executemany(_INS, [(401, 0, 1.0), (5, 0, 1.0), (402, 0, 1.0)])
            assert db.in_transaction
            # The failed batch vanished; the transaction's own insert stays
            # visible until the rollback.
            assert db.query(
                "SELECT COUNT(*) FROM t WHERE id >= ?", [400]
            ).scalar() == 1
            db.rollback()
            assert _state(db) == before

    def test_rollback_restores_statistics_and_indexes(self):
        with _fresh() as db:
            stats_before = db.table("t").statistics()
            db.begin()
            db.executemany(_INS, [(600 + i, 0, 0.5) for i in range(10)])
            db.execute("DELETE FROM t WHERE g = ?", [0])
            db.rollback()
            assert db.table("t").statistics() == stats_before
            assert db.query("SELECT COUNT(*) FROM t WHERE g = ?", [0]).scalar() > 0


class TestAutocommitOnlyOperations:
    def test_ddl_inside_transaction_rejected(self, tmp_path):
        with _fresh(wal_path=str(tmp_path / "d.wal")) as db:
            db.begin()
            for sql in (
                "CREATE TABLE u (id INTEGER PRIMARY KEY)",
                "CREATE INDEX t_x ON t (x)",
                "DROP TABLE t",
            ):
                with pytest.raises(ExecutionError, match="inside a transaction"):
                    db.execute(sql)
            with pytest.raises(ExecutionError, match="inside a transaction"):
                db.checkpoint()
            assert db.in_transaction  # still usable after every refusal
            db.execute(_INS, (700, 0, 7.0))
            db.commit()
            assert _count(db) == 41

    def test_checkpoint_without_wal_rejected(self):
        with _fresh() as db:
            with pytest.raises(ExecutionError, match="write-ahead log"):
                db.checkpoint()


class TestCloseWithOpenTransaction:
    def test_close_rolls_back_with_warning(self, tmp_path):
        wal_path = tmp_path / "close.wal"
        db = _fresh(wal_path=str(wal_path))
        db.begin()
        db.execute(_INS, (1000, 0, 1.0))
        with pytest.warns(TransactionWarning, match="rolling back"):
            db.close()
        with Database(wal_path=str(wal_path)) as recovered:
            assert _count(recovered) == 40

    def test_context_exit_rolls_back(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TransactionWarning)
            with _fresh() as db:
                db.begin()
                db.execute(_INS, (1001, 0, 1.0))
        assert not db.in_transaction


class TestCloseIsIdempotent:
    @pytest.mark.parametrize(
        "open_transaction", [False, True], ids=["idle", "open-transaction"]
    )
    @pytest.mark.parametrize("with_wal", [False, True], ids=["no-wal", "wal"])
    def test_second_close_does_nothing(self, tmp_path, with_wal, open_transaction):
        wal_path = str(tmp_path / "twice.wal") if with_wal else None
        db = _fresh(wal_path=wal_path)
        if open_transaction:
            db.begin()
            db.execute(_INS, (1002, 0, 1.0))
        first_close = [TransactionWarning] if open_transaction else []
        for expected in (first_close, []):  # the second close does nothing
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                db.close()
            assert [w.category for w in caught] == expected
            assert not db.in_transaction
            assert _count(db) == 40
        if with_wal:
            with Database(wal_path=wal_path) as recovered:
                assert _count(recovered) == 40


class TestWriteAheadLog:
    def test_recovery_is_byte_identical(self, tmp_path):
        wal_path = tmp_path / "r.wal"
        db = _fresh(wal_path=str(wal_path))
        db.begin()
        db.executemany(_INS, [(1100 + i, i % 3, 0.25) for i in range(12)])
        db.execute("DELETE FROM t WHERE g = ?", [2])
        db.commit()
        db.begin()
        db.execute(_INS, (1200, 0, 0.0))
        db.rollback()
        expected = _state(db)
        db.close()
        with Database(wal_path=str(wal_path)) as recovered:
            assert _state(recovered) == expected

    def test_wal_run_matches_pure_in_memory_run(self, tmp_path):
        with _fresh() as plain, _fresh(wal_path=str(tmp_path / "m.wal")) as walled:
            for db in (plain, walled):
                db.begin()
                db.execute("DELETE FROM t WHERE x < ?", [5.0])
                db.commit()
            assert _state(walled) == _state(plain)

    def test_checkpoint_truncates_and_recovers(self, tmp_path):
        wal_path = tmp_path / "c.wal"
        db = _fresh(wal_path=str(wal_path), wal_autocheckpoint=None)
        grown = wal_path.stat().st_size
        db.checkpoint()
        assert (tmp_path / "c.wal.ckpt").exists()
        assert wal_path.stat().st_size < grown
        db.execute(_INS, (1300, 1, 13.0))
        expected = _state(db)
        db.close()
        with Database(wal_path=str(wal_path)) as recovered:
            assert _state(recovered) == expected

    def test_autocheckpoint_triggers_by_log_size(self, tmp_path):
        wal_path = tmp_path / "a.wal"
        with Database(wal_path=str(wal_path),
                      wal_autocheckpoint=2_000) as db:
            db.execute(_DDL)
            for i in range(40):
                db.execute(_INS, (i, i % 3, float(i)))
            assert (tmp_path / "a.wal.ckpt").exists()
            assert wal_path.stat().st_size < 2_000 + 500

    def test_stale_checkpoint_generation_rejected(self, tmp_path):
        """A log generation newer than the checkpoint's is unrecoverable —
        restoring an old checkpoint under a new log must fail loudly, not
        replay new records onto old state."""
        wal_path = tmp_path / "g.wal"
        ckpt_path = tmp_path / "g.wal.ckpt"
        db = _fresh(wal_path=str(wal_path), wal_autocheckpoint=None)
        db.checkpoint()
        stale = ckpt_path.read_bytes()
        db.execute(_INS, (1400, 0, 14.0))
        db.checkpoint()
        db.execute(_INS, (1401, 0, 14.0))
        db.close()
        ckpt_path.write_bytes(stale)
        with pytest.raises(RecoveryError, match="generation"):
            Database(wal_path=str(wal_path))


def _rewrite_create_record(wal_path, count):
    """Give the log's ``create_table`` record the partition count field an
    older, hash-partitioning engine wrote into it."""
    lines = wal_path.read_text().splitlines()
    records = [json.loads(line) for line in lines]
    for record in records:
        if record["t"] == "create_table":
            record[LEGACY_PARTITION_COUNT] = count
    wal_path.write_text(
        "".join(json.dumps(record) + "\n" for record in records)
    )


def _rewrite_checkpoint(ckpt_path, count):
    """Store the checkpointed table the way an older engine stored it: its
    row list dealt round-robin into ``count`` per-partition lists."""
    payload = json.loads(ckpt_path.read_text())
    for spec in payload["tables"]:
        rows = spec.pop("rows")
        spec[LEGACY_PARTITION_COUNT] = count
        spec["partitions"] = [rows[pid::count] for pid in range(count)]
    ckpt_path.write_text(json.dumps(payload))


class TestLogsOfPartitionedTables:
    """A log or checkpoint that an older engine wrote for a table stored in
    several hash partitions raises a typed :class:`RecoveryError` naming
    the table; one written with a single partition opens unchanged."""

    def test_a_partitioned_table_in_the_log_is_refused(self, tmp_path):
        wal_path = tmp_path / "old.wal"
        with _fresh(wal_path=str(wal_path), wal_autocheckpoint=None):
            pass
        _rewrite_create_record(wal_path, 4)
        with pytest.raises(RecoveryError, match=r"table 't' was written with 4"):
            Database(wal_path=str(wal_path))

    def test_a_partitioned_table_in_the_checkpoint_is_refused(self, tmp_path):
        wal_path = tmp_path / "old.wal"
        with _fresh(wal_path=str(wal_path), wal_autocheckpoint=None) as db:
            db.checkpoint()
        _rewrite_checkpoint(tmp_path / "old.wal.ckpt", 3)
        with pytest.raises(
            RecoveryError, match=r"checkpoint: table 't' was written with 3"
        ):
            Database(wal_path=str(wal_path))

    def test_one_partition_opens_unchanged(self, tmp_path):
        log_only = tmp_path / "log.wal"
        with _fresh(wal_path=str(log_only), wal_autocheckpoint=None) as db:
            db.execute("DELETE FROM t WHERE g = ?", [1])
            expected = _state(db)
        _rewrite_create_record(log_only, 1)
        with Database(wal_path=str(log_only)) as recovered:
            assert _state(recovered) == expected
        checkpointed = tmp_path / "ckpt.wal"
        with _fresh(wal_path=str(checkpointed), wal_autocheckpoint=None) as db:
            db.execute("DELETE FROM t WHERE g = ?", [1])
            db.checkpoint()
        _rewrite_checkpoint(tmp_path / "ckpt.wal.ckpt", 1)
        with Database(wal_path=str(checkpointed)) as recovered:
            assert _state(recovered) == expected


class TestDeleteDecidesBeforeTombstoning:
    """A DELETE decides every row against the table as it was when the
    statement started, then tombstones: a predicate reading its own table
    sees no half-deleted state, and a failing predicate deletes nothing —
    in autocommit mode and inside a transaction, which stages the
    tombstones and defers compaction to COMMIT."""

    @staticmethod
    def _five(**kwargs):
        database = Database(**kwargs)
        database.execute("CREATE TABLE s (x INTEGER PRIMARY KEY)")
        database.executemany(
            "INSERT INTO s (x) VALUES (?)", [(x,) for x in range(1, 6)]
        )
        return database

    @pytest.mark.parametrize("mode", ["autocommit", "transaction"])
    def test_self_referencing_delete_removes_one_row(self, tmp_path, mode):
        wal_path = str(tmp_path / "self.wal")
        db = self._five(wal_path=wal_path)
        if mode == "transaction":
            db.begin()
        assert db.execute("DELETE FROM s WHERE x = (SELECT MIN(x) FROM s)") == 1
        remaining = db.query("SELECT x FROM s ORDER BY x").rows
        assert remaining == [(2,), (3,), (4,), (5,)]
        if mode == "transaction":
            db.commit()
            assert db.query("SELECT x FROM s ORDER BY x").rows == remaining
        expected = _state(db)
        db.close()
        with Database(wal_path=wal_path) as recovered:
            assert recovered.query("SELECT x FROM s ORDER BY x").rows == remaining
            assert _state(recovered) == expected

    @pytest.mark.parametrize("mode", ["autocommit", "transaction"])
    def test_failing_predicate_deletes_nothing(self, mode):
        with self._five() as db:
            before = _state(db)
            if mode == "transaction":
                db.begin()
            # 10 / (4 - x) passes for x = 1..3 and divides by zero at x = 4.
            with pytest.raises(ExecutionError, match="division by zero"):
                db.execute("DELETE FROM s WHERE 10 / (4 - x) > 0")
            assert _state(db) == before
            assert db.query("SELECT COUNT(*) FROM s").scalar() == 5
            if mode == "transaction":
                # The failed statement staged nothing: the transaction
                # stays open and its next statement deletes as usual.
                assert db.in_transaction
                assert db.execute("DELETE FROM s WHERE x > ?", [3]) == 2
                db.rollback()
                assert _state(db) == before


# --------------------------------------------------------------------------- #
# a transaction reads its own writes
# --------------------------------------------------------------------------- #

_READ_ENGINES = {
    "interpreted": {"engine": "interpreted"},
    "row-at-a-time": {"vectorized": False},
    "vectorized": {},
}

#: Statements over index and range probes, filtered scans, aggregates,
#: DISTINCT, GROUP BY with HAVING, an index join, a hash join, top-k (by
#: sort and by index order), a scalar subquery and a primary-key lookup.
_READS = [
    ("SELECT id, g, x FROM m WHERE g = ? AND x > ? ORDER BY id", [3, 20.0]),
    ("SELECT COUNT(*), SUM(x), MIN(x), MAX(x) FROM m WHERE x > ?", [30.0]),
    ("SELECT DISTINCT g FROM m WHERE s IS NOT NULL ORDER BY g", []),
    ("SELECT g, COUNT(*) AS c FROM m GROUP BY g HAVING COUNT(*) > ? ORDER BY g",
     [2]),
    ("SELECT g, SUM(g + id), AVG(id + id), COUNT(*) FROM m GROUP BY g "
     "ORDER BY g", []),
    ("SELECT m.id, r.id, r.v FROM m, r WHERE m.id = r.m_id AND m.x > ? "
     "ORDER BY m.id, r.id LIMIT 25", [5.0]),
    ("SELECT m.id, r.id FROM m, r WHERE m.g = r.m_id ORDER BY m.id, r.id", []),
    ("SELECT id FROM m WHERE g IN (?, ?) ORDER BY id DESC LIMIT 7", [1, 5]),
    ("SELECT id, x FROM m ORDER BY x DESC LIMIT 9", []),
    ("SELECT id FROM m WHERE x BETWEEN ? AND ? ORDER BY id", [-10.0, 40.0]),
    ("SELECT id FROM m WHERE x > (SELECT MIN(v) FROM r) ORDER BY id", []),
    ("SELECT * FROM m WHERE id = ?", [42]),
]


def _joinable(**options):
    """Two joinable tables; ``m`` has a hash index on ``g`` and an ordered
    one on ``x``."""
    database = Database(**options)
    database.execute(
        "CREATE TABLE m (id INTEGER PRIMARY KEY, g INTEGER, x FLOAT, s VARCHAR)"
    )
    database.execute("CREATE INDEX m_g ON m (g)")
    database.execute("CREATE INDEX m_x ON m (x) ORDERED")
    database.execute("CREATE TABLE r (id INTEGER PRIMARY KEY, m_id INTEGER, v FLOAT)")
    database.executemany(
        "INSERT INTO m (id, g, x, s) VALUES (?, ?, ?, ?)",
        [
            (i, i % 7, float(i) * 1.5, ["alpha", "beta", None][i % 3])
            for i in range(120)
        ],
    )
    database.executemany(
        "INSERT INTO r (id, m_id, v) VALUES (?, ?, ?)",
        [(i, (i * 11) % 120, float(i % 13)) for i in range(60)],
    )
    return database


def _write(database, read):
    """Inserts, deletes, and a primary key deleted and inserted again with
    new values; ``read()`` runs after every statement."""
    for method, sql, params in [
        (
            "executemany",
            "INSERT INTO m (id, g, x, s) VALUES (?, ?, ?, ?)",
            [(1000 + i, i % 7, 99.0 - i * 7.5, "new") for i in range(15)],
        ),
        ("execute", "DELETE FROM m WHERE g = ?", [2]),
        ("execute", "DELETE FROM m WHERE id = ?", [42]),
        (
            "execute",
            "INSERT INTO m (id, g, x, s) VALUES (?, ?, ?, ?)",
            [42, 5, -3.5, "moved"],
        ),
        (
            "executemany",
            "INSERT INTO r (id, m_id, v) VALUES (?, ?, ?)",
            [(500 + i, (i * 17) % 135, float(i % 5) - 1.0) for i in range(12)],
        ),
        ("execute", "DELETE FROM r WHERE v > ?", [10.0]),
    ]:
        getattr(database, method)(sql, params)
        read()


class TestTransactionsReadTheirOwnWrites:
    """At every point of a transaction — open, rolled back, committed —
    every engine returns the columns, rows and counters of an autocommit
    database holding the same rows: the one that made the same writes, or,
    after ROLLBACK, the one that made none.  Each statement also runs
    before the writes and after every write, so its cached plan predates
    them and every write meets a chunk cache built before it."""

    @pytest.mark.parametrize("point", ["open", "rolled-back", "committed"])
    @pytest.mark.parametrize("sql, params", _READS)
    def test_matches_the_autocommit_reference(self, sql, params, point):
        results = {}
        for engine, options in _READ_ENGINES.items():
            with _joinable(**options) as reference, _joinable(**options) as db:
                reference.query(sql, params)
                if point != "rolled-back":
                    _write(reference, lambda: reference.query(sql, params))
                expected = reference.query(sql, params)
                db.begin()
                db.query(sql, params)
                _write(db, lambda: db.query(sql, params))
                if point == "rolled-back":
                    db.rollback()
                elif point == "committed":
                    db.commit()
                got = db.query(sql, params)
                if db.in_transaction:
                    db.rollback()
            assert got.columns == expected.columns, engine
            assert got.rows == expected.rows, engine
            assert got.stats == expected.stats, engine
            results[engine] = got
        assert results["interpreted"].rows == results["vectorized"].rows
        assert results["row-at-a-time"].stats == results["vectorized"].stats


class TestClientPassThrough:
    def test_native_client_charges_transaction_statements(self):
        client = NativeClient(backend("oracle7"))
        client.execute(_DDL)
        client.reset_clock()
        client.begin()
        charged = client.elapsed
        assert charged > 0.0
        client.execute(_INS, (1, 0, 1.0))
        client.commit()
        assert client.elapsed > charged
        assert client.backend.database.query("SELECT COUNT(*) FROM t").scalar() == 1

    def test_rollback_through_client(self):
        client = NativeClient(backend("ms_access"))
        client.execute(_DDL)
        client.begin()
        client.execute(_INS, (1, 0, 1.0))
        client.rollback()
        assert client.backend.database.query("SELECT COUNT(*) FROM t").scalar() == 0


class TestAtomicBulkLoad:
    @pytest.fixture(scope="class")
    def scenario(self):
        return build_scenario(pe_counts=(1, 2))

    def test_atomic_load_matches_plain_load(self, scenario):
        with Database() as plain, Database() as atomic:
            load_repository(scenario.repository, scenario.mapping, plain,
                            batch_size=16)
            load_repository(scenario.repository, scenario.mapping, atomic,
                            batch_size=16, atomic=True)
            assert not atomic.in_transaction
            assert identical_table_contents(plain, atomic)
            assert _state(atomic) == _state(plain)

    def test_failed_atomic_load_rolls_back(self, scenario):
        class FailingExecutor:
            """Delegates to a database, failing one execute() mid-load."""

            def __init__(self, database, fail_at):
                self.database = database
                self.calls = 0
                self.fail_at = fail_at

            def execute(self, sql, params=()):
                self.calls += 1
                if self.calls == self.fail_at:
                    raise RuntimeError("simulated load failure")
                return self.database.execute(sql, params)

            def executemany(self, sql, rows):
                self.calls += 1
                if self.calls == self.fail_at:
                    raise RuntimeError("simulated load failure")
                return self.database.executemany(sql, rows)

        with Database() as db:
            executor = FailingExecutor(db, fail_at=10_000)
            loader = DatabaseLoader(scenario.mapping, executor, batch_size=16)
            loader.create_schema()
            after_schema = _state(db)
            executor.fail_at = executor.calls + 12  # mid-load, past BEGIN
            with pytest.raises(RuntimeError, match="simulated load failure"):
                loader.load(scenario.repository, atomic=True)
            assert not db.in_transaction
            assert _state(db) == after_schema

    def test_atomic_load_is_durable(self, scenario, tmp_path):
        wal_path = tmp_path / "load.wal"
        with Database(wal_path=str(wal_path)) as db:
            load_repository(scenario.repository, scenario.mapping, db,
                            batch_size=16, atomic=True)
            expected = _state(db)
        with Database(wal_path=str(wal_path)) as recovered:
            assert _state(recovered) == expected
