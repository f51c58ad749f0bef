"""Crash-point fault injection for the write-ahead log.

The WAL (:mod:`repro.relalg.wal`) reports every write-path event — each
record append, each fsync, each checkpoint file step — to a hook *after* the
event completes, and keeps its log file unbuffered.  This module turns that
seam into a crash harness:

* :class:`CrashHook` counts events and raises :class:`SimulatedCrash` once
  the ``crash_after``-th event has completed — "the process died right
  there".  Because the log file is unbuffered, the bytes on disk at that
  moment are exactly what a SIGKILL at the same point would leave behind.
  The hook also tracks, in WAL order, how many **durable records** (commit
  markers, autocommit DML, DDL) have been appended and how many of those an
  fsync has covered — the two indexes the recovery oracle is phrased in.
* :func:`run_with_crash` executes a deterministic operation stream against a
  WAL-backed database until the simulated crash (or completion) and abandons
  the database without any orderly shutdown.
* :func:`crash_images` derives the three on-disk images a real crash could
  have left: the **full** file (in-process death after the write syscall),
  the file truncated to the **fsynced** prefix (power loss: unsynced page
  cache gone), and a **torn** truncation at a random byte in between
  (partial sector write).
* :func:`shadow_fingerprints` replays the same operation stream on a plain
  in-memory database and records the
  :func:`~repro.relalg.wal.state_fingerprint` hash after every durable
  boundary — ``F[0]`` (empty) through ``F[n]``.  Recovery of a crash image
  must land exactly on the oracle's predicted boundary: ``F[appended]`` for
  the full image, ``F[durable]`` for the fsynced image, and one of the two
  for a torn image.

The module doubles as the SIGKILL child (``python tests/faultinject.py
--child ...``): a subprocess runs a seeded stream against a WAL, reporting
its durable progress through a side file, while the parent test kills it
mid-run and checks the recovered state against the same oracle.
"""

from __future__ import annotations

import os
import random
import shutil
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if REPO_SRC not in sys.path:  # direct child invocation: python tests/faultinject.py
    sys.path.insert(0, REPO_SRC)

from repro.relalg import Database  # noqa: E402
from repro.relalg.wal import fingerprint_hash, state_fingerprint  # noqa: E402


def _state_hash(database: Database) -> str:
    return fingerprint_hash(state_fingerprint(database))

#: WAL record labels whose fsync marks a durable boundary (state visible
#: after recovery).  "begin"/"ins"/"del" (in-transaction) and "abort" carry
#: no durability; "header" is generation bookkeeping, not state.
DURABLE_LABELS = frozenset({"commit", "auto-ins", "auto-del", "ddl"})


class SimulatedCrash(BaseException):
    """Raised from the WAL hook to simulate dying at one write-path event.

    Derives from ``BaseException`` so no engine-level ``except Exception``
    can accidentally swallow the crash and keep executing.
    """

    def __init__(self, label: str, event: int) -> None:
        super().__init__(f"simulated crash at event {event} ({label})")
        self.label = label
        self.event = event


class CrashHook:
    """Counts WAL events; optionally crashes after the ``crash_after``-th.

    ``appended`` / ``durable`` track the recovery oracle: how many durable
    records the log contains in full (the full-image recovery point) and how
    many of those are covered by an fsync (the power-loss recovery point).
    Counter updates happen *before* a potential crash — the event itself did
    complete.
    """

    def __init__(self, crash_after: Optional[int] = None) -> None:
        self.crash_after = crash_after
        self.events = 0
        self.appended = 0
        self.durable = 0
        self.bytes_fsynced = 0  # filled in by run_with_crash at crash time
        self.labels: List[str] = []

    def __call__(self, label: str, event: int) -> None:
        self.events = event
        self.labels.append(label)
        kind, _, name = label.partition(":")
        if name in DURABLE_LABELS:
            if kind == "append":
                self.appended += 1
            elif kind == "fsync":
                # fsync covers every byte appended so far, so every durable
                # record already in the file becomes durable with it.
                self.durable = self.appended
        if self.crash_after is not None and event >= self.crash_after:
            raise SimulatedCrash(label, event)


# --------------------------------------------------------------------------- #
# operation streams
# --------------------------------------------------------------------------- #

_STRINGS = ["alpha", "beta", "gamma", "", "päper", "x" * 40]


def make_ops(seed: int, length: int = 14, with_checkpoints: bool = True) -> List[Tuple]:
    """A deterministic operation stream: DDL up front, then mixed DML.

    Each op is plain data so the crash run and the shadow run execute the
    identical statements: ``("execute", sql, params)``,
    ``("executemany", sql, rows)`` or ``("checkpoint",)``.  Streams mix
    autocommit statements, committed and rolled-back transactions, deletes
    that race compaction thresholds, and awkward floats (NaN, ``-0.0``) that
    exercise the replay row matcher.
    """
    rng = random.Random(seed)
    ops: List[Tuple] = [
        ("execute", "CREATE TABLE t (id INTEGER PRIMARY KEY, g INTEGER, x FLOAT, s TEXT)", ()),
        ("execute", "CREATE INDEX t_g ON t (g)", ()),
        # Ordered index over the NaN/NULL/-0.0-bearing float column: crash
        # recovery and checkpoint restore must rebuild the sorted run and
        # its NULL/NaN side-sets to match the shadow database.
        ("execute", "CREATE INDEX t_x ON t (x) ORDERED", ()),
    ]
    next_id = iter(range(1, 100_000))

    def value() -> Any:
        roll = rng.random()
        if roll < 0.08:
            return None
        if roll < 0.13:
            return float("nan")
        if roll < 0.18:
            return -0.0
        return round(rng.uniform(-40.0, 40.0), 3)

    def insert_rows(n: int) -> List[Tuple]:
        return [
            (next(next_id), rng.choice([None, 0, 1, 2, 3]), value(), rng.choice(_STRINGS))
            for _ in range(n)
        ]

    def dml() -> Tuple:
        kind = rng.choice(["ins", "ins", "ins", "del_g", "del_x"])
        if kind == "ins":
            return (
                "executemany",
                "INSERT INTO t (id, g, x, s) VALUES (?, ?, ?, ?)",
                insert_rows(rng.randint(1, 8)),
            )
        if kind == "del_g":
            return ("execute", "DELETE FROM t WHERE g = ?", [rng.randint(0, 4)])
        return (
            "execute",
            "DELETE FROM t WHERE x > ?",
            [round(rng.uniform(10.0, 40.0), 3)],
        )

    for _ in range(length):
        roll = rng.random()
        if with_checkpoints and roll < 0.08:
            ops.append(("checkpoint",))
        elif roll < 0.45:
            ops.append(dml())
        else:
            ops.append(("execute", "BEGIN", ()))
            for _ in range(rng.randint(1, 3)):
                ops.append(dml())
            ops.append(
                ("execute", "COMMIT" if rng.random() < 0.7 else "ROLLBACK", ())
            )
    return ops


def apply_op(database: Database, op: Tuple) -> Any:
    if op[0] == "checkpoint":
        if database._wal is not None:
            return database.checkpoint()
        return None
    if op[0] == "executemany":
        return database.executemany(op[1], op[2])
    return database.execute(op[1], op[2])


def shadow_fingerprints(ops: Sequence[Tuple]) -> List[str]:
    """Fingerprint hashes at every durable boundary of ``ops``.

    Runs the stream on a WAL-less database (byte-identical state evolution:
    that is the engine contract the tier-1 suite pins) and records the state
    hash after each operation that the WAL run would fsync: DDL, autocommit
    INSERT, autocommit DELETE *that deleted rows* (a no-op delete logs
    nothing), and COMMIT.  ``F[0]`` is the empty database.
    """
    database = Database(name="shadow")
    hashes = [_state_hash(database)]
    try:
        for op in ops:
            if op[0] == "checkpoint":
                continue
            result = apply_op(database, op)
            if _is_boundary(database, op[1], result):
                hashes.append(_state_hash(database))
    finally:
        database.close()
    return hashes


def _is_boundary(database: Database, sql: str, result: Any) -> bool:
    """Did this statement end on a durable WAL boundary?

    Mirrors the WAL's fsync points exactly: DDL, autocommit INSERT,
    autocommit DELETE that removed at least one row (a no-op delete logs
    nothing), and COMMIT (always — the marker is fsynced even for an empty
    transaction).  Statements inside an open transaction are never
    boundaries; neither are BEGIN and ROLLBACK.
    """
    if database.in_transaction:
        return False
    head = sql.lstrip().upper()
    if head.startswith(("CREATE", "DROP", "INSERT", "COMMIT")):
        return True
    return head.startswith("DELETE") and bool(result)


class RecordingExecutor:
    """A duck-typed ``SqlExecutor`` wrapping a :class:`Database`.

    Used by the SIGKILL variants in two roles: in the parent it records the
    state-fingerprint hash after every durable boundary (the oracle a killed
    child's recovered state must land on); in the child it reports each
    boundary index through a progress file the instant the boundary's WAL
    record is durable, so the parent knows a lower bound on what recovery
    must preserve.
    """

    def __init__(
        self,
        database: Database,
        record_hashes: bool = True,
        progress_path: Optional[str] = None,
    ) -> None:
        self.database = database
        self.boundary = 0
        self.hashes = [_state_hash(database)] if record_hashes else None
        self.progress_path = progress_path

    def execute(self, sql: str, params: Sequence[Any] = ()) -> Any:
        result = self.database.execute(sql, params)
        self._record(sql, result)
        return result

    def executemany(self, sql: str, rows: Any) -> Any:
        result = self.database.executemany(sql, rows)
        self._record(sql, result)
        return result

    def _record(self, sql: str, result: Any) -> None:
        if not _is_boundary(self.database, sql, result):
            return
        self.boundary += 1
        if self.hashes is not None:
            self.hashes.append(_state_hash(self.database))
        if self.progress_path is not None:
            # By the time execute returned, the statement's WAL record was
            # fsynced, so advertising the boundary as durable is truthful.
            # Written aside and renamed into place: a SIGKILL between a
            # truncate and a write must never leave the parent reading an
            # empty report.
            staged = self.progress_path + ".tmp"
            with open(staged, "w", encoding="utf-8") as handle:
                handle.write(str(self.boundary))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(staged, self.progress_path)


# --------------------------------------------------------------------------- #
# crash execution and recovery images
# --------------------------------------------------------------------------- #


def abandon(database: Database) -> None:
    """Drop a crashed database without any orderly shutdown.

    No rollback, no abort record, no buffered flushes — only the raw file
    descriptor is closed (the container would leak it otherwise; a closed fd
    does not change the file's bytes).
    """
    wal = database._wal
    if wal is not None and wal._file is not None:
        wal._file.close()
        wal._file = None
    database._wal = None
    database._txn = None
    database.close()


def run_with_crash(
    wal_path: str, ops: Sequence[Tuple], crash_after: Optional[int]
) -> Tuple[CrashHook, bool]:
    """Run ``ops`` against a fresh WAL database, crashing at the given event.

    Returns the hook (carrying the oracle indexes at crash time) and whether
    the crash actually fired (``False``: the stream completed first).
    """
    hook = CrashHook(crash_after)
    database = None
    try:
        database = Database(
            name="crash", wal_path=wal_path,
            wal_autocheckpoint=None, wal_hook=hook,
        )
        for op in ops:
            apply_op(database, op)
    except SimulatedCrash:
        # Snapshot the fsynced prefix before abandon() detaches the WAL; a
        # crash inside Database.__init__ leaves nothing fsynced.
        if database is not None and database._wal is not None:
            hook.bytes_fsynced = database._wal.bytes_fsynced
        return hook, True
    finally:
        if database is not None:
            abandon(database)
    return hook, False


def stage_crash_state(
    wal_path: str, bytes_fsynced: int, scratch_dir: str, rng: random.Random
) -> Dict[str, str]:
    """Copy the crashed WAL (+ checkpoint) into per-mode directories.

    * ``full`` — every write syscall made it to disk (in-process death).
    * ``fsynced`` — only fsynced bytes survive (a power loss drops the
      unsynced page cache).
    * ``torn`` — a random cut strictly inside the unsynced tail (partial
      line write).  Present only when an unsynced tail exists.
    """
    images: Dict[str, str] = {}
    size = os.path.getsize(wal_path) if os.path.exists(wal_path) else 0
    modes = [("full", size), ("fsynced", min(bytes_fsynced, size))]
    if size > bytes_fsynced:
        modes.append(("torn", rng.randint(bytes_fsynced, size - 1)))
    for mode, cut in modes:
        mode_dir = os.path.join(scratch_dir, mode)
        os.makedirs(mode_dir, exist_ok=True)
        copy = os.path.join(mode_dir, os.path.basename(wal_path))
        if os.path.exists(wal_path):
            shutil.copyfile(wal_path, copy)
            with open(copy, "rb+") as handle:
                handle.truncate(cut)
        ckpt = wal_path + ".ckpt"
        if os.path.exists(ckpt):
            # The checkpoint is written via fsync + atomic rename, so every
            # crash mode sees the same (old or new, never partial) file.
            shutil.copyfile(ckpt, copy + ".ckpt")
        images[mode] = copy
    return images


def recover_hash(wal_path: str) -> str:
    """Open a crash image and return the recovered state's fingerprint hash."""
    database = Database(name="recover", wal_path=wal_path,
                        wal_autocheckpoint=None)
    try:
        return fingerprint_hash(state_fingerprint(database))
    finally:
        database.close()


def run_crash_case(
    seed: int,
    crash_after: int,
    scratch_dir: str,
    ops: Optional[List[Tuple]] = None,
    boundaries: Optional[List[str]] = None,
) -> List[str]:
    """One full crash-recovery check; returns failure descriptions (empty = ok).

    Executes the seeded stream, crashes at ``crash_after``, derives the three
    crash images, recovers each, and compares against the shadow oracle.
    ``ops``/``boundaries`` may be passed precomputed when sweeping many crash
    points of the same seed.
    """
    if ops is None:
        ops = make_ops(seed)
    if boundaries is None:
        boundaries = shadow_fingerprints(ops)
    wal_path = os.path.join(scratch_dir, "crash.wal")
    hook, crashed = run_with_crash(wal_path, ops, crash_after)
    if not crashed:
        return []
    failures: List[str] = []
    label = hook.labels[-1]
    rng = random.Random((seed << 20) ^ crash_after)
    images = stage_crash_state(wal_path, hook.bytes_fsynced, scratch_dir, rng)
    expected = {
        "full": [boundaries[hook.appended]],
        "fsynced": [boundaries[hook.durable]],
        "torn": [boundaries[hook.durable], boundaries[hook.appended]],
    }
    for mode, image in images.items():
        got = recover_hash(image)
        if got not in expected[mode]:
            failures.append(
                f"seed={seed} crash_after={crash_after} label={label} "
                f"mode={mode}: recovered state is not the oracle's "
                f"boundary (appended={hook.appended}, durable={hook.durable})"
            )
    return failures


def count_events(seed: int, scratch_dir: str) -> int:
    """Events of a crash-free run of the seeded stream (the sweep range)."""
    ops = make_ops(seed)
    wal_path = os.path.join(scratch_dir, "count.wal")
    hook, crashed = run_with_crash(wal_path, ops, None)
    assert not crashed
    return hook.events


# --------------------------------------------------------------------------- #
# SIGKILL child
# --------------------------------------------------------------------------- #


def child_ops(seed: int, length: int) -> List[Tuple]:
    """The SIGKILL child's stream: autocommit-only, every op durable.

    Autocommit DML fsyncs per statement, so after each op the child can
    truthfully report "boundary k is durable" through the progress file.
    """
    rng = random.Random(seed)
    ops: List[Tuple] = [
        ("execute", "CREATE TABLE t (id INTEGER PRIMARY KEY, g INTEGER, x FLOAT, s TEXT)", ()),
        ("execute", "CREATE INDEX t_x ON t (x) ORDERED", ()),
    ]
    next_id = iter(range(1, 1_000_000))
    for _ in range(length):
        if rng.random() < 0.85:
            rows = [
                (next(next_id), rng.randint(0, 5), round(rng.uniform(0, 10), 3), "r")
                for _ in range(rng.randint(1, 4))
            ]
            ops.append(("executemany", "INSERT INTO t (id, g, x, s) VALUES (?, ?, ?, ?)", rows))
        else:
            ops.append(("execute", "DELETE FROM t WHERE g = ?", [rng.randint(0, 5)]))
    return ops


def child_shadow_fingerprints(seed: int, length: int) -> List[str]:
    return shadow_fingerprints(child_ops(seed, length))


def _child_main(wal_path: str, progress_path: str, seed: int, length: int) -> None:
    """Run the child stream, reporting durable progress after every boundary."""
    database = Database(name="child", wal_path=wal_path,
                        wal_autocheckpoint=None)
    executor = RecordingExecutor(database, record_hashes=False,
                                 progress_path=progress_path)
    for op in child_ops(seed, length):
        if op[0] == "executemany":
            executor.executemany(op[1], op[2])
        else:
            executor.execute(op[1], op[2])
    database.close()


# --------------------------------------------------------------------------- #
# E6-dataset SIGKILL smoke
# --------------------------------------------------------------------------- #


def e6_scenario():
    """A reduced, deterministic E6-style scenario for the recovery smoke.

    ``SimulationConfig`` seeds every random draw from a fixed seed, so the
    parent process and the SIGKILL child build byte-identical repositories
    and issue byte-identical loader statement streams.  The scalable workload
    is sized to yield a few thousand rows — enough batches (and enough
    per-batch fsyncs) that the parent usually lands its SIGKILL mid-load.
    """
    from repro.bench.scenarios import build_scenario

    return build_scenario(
        "scalable", pe_counts=(1, 2, 4, 8),
        functions=10, regions_per_function=6, calls_per_region=2,
    )


def e6_load(database: Database, executor_kwargs: Dict[str, Any]) -> RecordingExecutor:
    """Load the reduced E6 repository through a recording executor."""
    from repro.compiler import load_repository

    scenario = e6_scenario()
    executor = RecordingExecutor(database, **executor_kwargs)
    load_repository(scenario.repository, scenario.mapping, executor,
                    batch_size=64)
    return executor


def e6_boundary_hashes() -> List[str]:
    """The clean run's fingerprint hash after every durable load boundary."""
    database = Database(name="e6")
    try:
        return e6_load(database, {"record_hashes": True}).hashes
    finally:
        database.close()


def _child_e6_main(wal_path: str, progress_path: str) -> None:
    database = Database(name="e6", wal_path=wal_path,
                        wal_autocheckpoint=None)
    e6_load(database, {"record_hashes": False, "progress_path": progress_path})
    database.close()


if __name__ == "__main__":
    if len(sys.argv) == 6 and sys.argv[1] == "--child":
        _child_main(sys.argv[2], sys.argv[3], int(sys.argv[4]), int(sys.argv[5]))
    elif len(sys.argv) == 4 and sys.argv[1] == "--child-e6":
        _child_e6_main(sys.argv[2], sys.argv[3])
    else:  # pragma: no cover - manual use
        raise SystemExit(
            "usage: python tests/faultinject.py --child <wal> <progress> <seed> <n_ops>\n"
            "       python tests/faultinject.py --child-e6 <wal> <progress>"
        )
