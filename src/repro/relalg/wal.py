"""Write-ahead logging: crash durability for the in-memory engine.

The log is **append-only JSONL**, one self-describing record per line, in
the order the database applied the work (the engine is single-session, so
the stream is strictly serial):

* ``{"t": "log", "gen": G}`` — header, first line of every (re)initialised
  log; ``G`` is the checkpoint generation the log continues from.
* ``{"t": "begin", "x": N}`` / ``{"t": "commit", "x": N}`` /
  ``{"t": "abort", "x": N}`` — explicit-transaction markers.
* ``{"t": "ins"|"del", "x": N, "tb": name, "rows": [...]}`` — logical
  row-images of one DML statement (validated inserts / deleted rows in
  deletion order).  ``x = 0`` marks an autocommit statement — an implicit
  single-statement transaction, durable once its own line is fsynced.
* ``{"t": "create_table" | "create_index" | "drop_table", ...}`` — DDL
  (always autocommit; DDL inside a transaction is refused upstream).

**Durability contract**: the log is fsynced when — and only when — a commit
point passes (explicit ``COMMIT``, autocommit DML, DDL); row-images inside
an open transaction are buffered by the OS until then.  Recovery-on-open
(:meth:`Database._recover_wal <repro.relalg.database.Database>`) replays the
committed prefix through the real transaction machinery (so deferred
compaction lands at the same points as in the original run — recovered
state is *byte-identical*, tombstones and statistics included), discards
uncommitted tails and torn final lines by truncating the file at the last
effective record, and refuses logs whose generation cannot be reconciled
with the checkpoint (:class:`~repro.relalg.errors.RecoveryError`).

**Checkpointing** bounds the log: the whole catalog is serialised to
``<wal_path>.ckpt`` (raw row lists with tombstones, secondary-index
definitions, the mutations counter — everything the byte-identical contract
needs), written atomically (tmp + fsync + rename + directory fsync) under
the *next* generation number, then the log is truncated and re-headed with
that generation.  A crash between the rename and the truncate leaves a log
one generation behind its checkpoint; recovery recognises the stale log and
discards it (its contents are inside the checkpoint).

**Fault-injection seam**: every write-path step — each line append, each
fsync, and each checkpoint file operation — reports to an optional ``hook``
callable *after* the step completes, with a label and a running event
count.  The crash harness (``tests/faultinject.py``) raises from the hook
to simulate dying at the ``n``-th write; because the log file is opened
unbuffered, "what the file contains at the crash point" is exactly what a
SIGKILL at the same point would leave behind.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import json
import os
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.relalg.errors import RecoveryError

__all__ = [
    "WriteAheadLog",
    "decode_row",
    "encode_row",
    "fingerprint_hash",
    "require_one_row_list",
    "restore_state",
    "row_key",
    "snapshot_state",
    "state_fingerprint",
]

#: ``hook(label, count)`` — called after every write-path event.
WalHook = Callable[[str, int], None]


# --------------------------------------------------------------------------- #
# value encoding
# --------------------------------------------------------------------------- #
#
# Row values are the engine's storage scalars: str, int, float, bool, None
# and datetime.  Everything but datetime is JSON-native (NaN/Infinity use
# Python's non-strict JSON tokens; the log is produced and consumed by this
# module only); datetimes are tagged so they survive the round trip exactly
# (isoformat keeps microseconds and UTC offsets).


def _encode_value(value: Any) -> Any:
    if isinstance(value, _dt.datetime):
        return {"$dt": value.isoformat()}
    return value


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict):
        return _dt.datetime.fromisoformat(value["$dt"])
    return value


def encode_row(row: Any) -> List[Any]:
    """Encode one row (any sequence of storage scalars) for the log."""
    return [_encode_value(value) for value in row]


def decode_row(row: List[Any]) -> Tuple[Any, ...]:
    """Decode one logged row back to the storage tuple."""
    return tuple(_decode_value(value) for value in row)


def row_key(row: Tuple[Any, ...]) -> Tuple[Tuple[str, str], ...]:
    """A canonical, hashable identity of one row image.

    Replaying a logged DELETE must match the *exact* stored rows the
    original run deleted — including ``NaN`` (never ``==`` itself) and
    ``-0.0`` (``==`` ``0.0`` but a different byte pattern) — so matching
    goes through ``repr`` per value rather than ``==``: by induction the
    replayed table holds bit-identical values to the original run, making
    repr-identity both exact and strictly stronger than equality.
    """
    return tuple((type(value).__name__, repr(value)) for value in row)


def _dump_record(record: Dict[str, Any]) -> bytes:
    return (json.dumps(record, separators=(",", ":")) + "\n").encode("utf-8")


# --------------------------------------------------------------------------- #
# the log file
# --------------------------------------------------------------------------- #


class WriteAheadLog:
    """The append-only log file plus its checkpoint sidecar.

    File management only — *what* to log and how to replay it is the
    database's job.  The file handle is unbuffered (``buffering=0``): every
    :meth:`append` is a write syscall, so the on-disk state at any hook
    event equals what an abrupt process death at that event would leave.
    """

    def __init__(self, path: str, hook: Optional[WalHook] = None) -> None:
        self.path = os.fspath(path)
        self.checkpoint_path = self.path + ".ckpt"
        self.hook = hook
        #: Write-path events so far (appends, fsyncs, checkpoint steps).
        self.events = 0
        #: Bytes of the current log generation, and how many are fsynced.
        self.size = 0
        self.bytes_fsynced = 0
        self._file: Optional[Any] = None

    # -- hook -------------------------------------------------------------------

    def _event(self, label: str) -> None:
        self.events += 1
        if self.hook is not None:
            self.hook(label, self.events)

    # -- appending --------------------------------------------------------------

    def open_for_append(self) -> None:
        self._file = open(self.path, "ab", buffering=0)
        self.size = self._file.seek(0, os.SEEK_END)
        self.bytes_fsynced = self.size

    def append(self, record: Dict[str, Any], label: str) -> None:
        """Append one record (one write syscall), then fire the hook."""
        if self._file is None:
            raise RecoveryError(f"write-ahead log {self.path!r} is not open")
        payload = _dump_record(record)
        self._file.write(payload)
        self.size += len(payload)
        self._event(f"append:{label}")

    def sync(self, label: str) -> None:
        """fsync the log — the durability point — then fire the hook."""
        if self._file is None:
            raise RecoveryError(f"write-ahead log {self.path!r} is not open")
        os.fsync(self._file.fileno())
        self.bytes_fsynced = self.size
        self._event(f"fsync:{label}")

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    # -- scanning ---------------------------------------------------------------

    def scan(self) -> Iterator[Tuple[Dict[str, Any], int]]:
        """Yield ``(record, end_offset)`` for every parseable line.

        Stops (without raising) at the first torn line — a trailing partial
        write from a crash; the caller truncates there.
        """
        if not os.path.exists(self.path):
            return
        offset = 0
        with open(self.path, "rb") as handle:
            for line in handle:
                if not line.endswith(b"\n"):
                    return
                try:
                    record = json.loads(line.decode("utf-8"))
                except (ValueError, UnicodeDecodeError):
                    return
                if not isinstance(record, dict) or "t" not in record:
                    return
                offset += len(line)
                yield record, offset

    def truncate(self, offset: int) -> None:
        """Discard everything after ``offset`` (uncommitted/torn tail)."""
        if os.path.exists(self.path) and os.path.getsize(self.path) > offset:
            with open(self.path, "rb+") as handle:
                handle.truncate(offset)

    # -- generations ------------------------------------------------------------

    def reset(self, generation: int) -> None:
        """Truncate the log and start a fresh generation (post-checkpoint)."""
        if self._file is not None:
            self._file.close()
        self._file = open(self.path, "wb", buffering=0)
        self.size = 0
        self.bytes_fsynced = 0
        self._event("truncate:log")
        self.append({"t": "log", "gen": generation}, "header")
        self.sync("header")

    # -- checkpoint sidecar -----------------------------------------------------

    def write_checkpoint(self, payload: Dict[str, Any]) -> None:
        """Atomically replace the checkpoint sidecar (tmp+fsync+rename)."""
        tmp = self.checkpoint_path + ".tmp"
        data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        with open(tmp, "wb", buffering=0) as handle:
            handle.write(data)
            self._event("append:ckpt-tmp")
            os.fsync(handle.fileno())
            self._event("fsync:ckpt-tmp")
        os.replace(tmp, self.checkpoint_path)
        self._event("rename:ckpt")
        directory = os.path.dirname(os.path.abspath(self.checkpoint_path))
        fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
        self._event("fsync:ckpt-dir")

    def load_checkpoint(self) -> Optional[Dict[str, Any]]:
        """The checkpoint payload, or ``None`` when none exists."""
        if not os.path.exists(self.checkpoint_path):
            return None
        with open(self.checkpoint_path, "rb") as handle:
            data = handle.read()
        try:
            payload = json.loads(data.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise RecoveryError(
                f"checkpoint {self.checkpoint_path!r} is unreadable: {exc}"
            ) from None
        if not isinstance(payload, dict) or "gen" not in payload:
            raise RecoveryError(
                f"checkpoint {self.checkpoint_path!r} has no generation marker"
            )
        return payload


# --------------------------------------------------------------------------- #
# catalog snapshots (checkpoint payloads)
# --------------------------------------------------------------------------- #


def snapshot_state(database, generation: int) -> Dict[str, Any]:
    """Serialise the whole catalog for a checkpoint.

    Raw row lists are kept **with tombstones** and the mutations counter is
    recorded, so a restore reproduces the storage layout — positions, index
    buckets, statistics — byte-for-byte, not merely the logical contents.
    """
    tables = []
    for table in database.tables.values():
        tables.append(
            {
                "name": table.schema.name,
                "columns": [
                    [c.name, c.type.value, c.nullable, c.primary_key]
                    for c in table.schema.columns
                ],
                "mutations": table.mutations,
                "indexes": [
                    [index.name, index.column, index.ordered]
                    for index in table.indexes.values()
                    if index is not table.primary_index
                ],
                "rows": [
                    None if row is None else encode_row(row)
                    for row in table.rows
                ],
            }
        )
    return {"gen": generation, "tables": tables}


#: The field in which older engines recorded a table's hash-partition count
#: (in its ``create_table`` log record and its checkpoint entry).
LEGACY_PARTITION_COUNT = "n_partitions"


def require_one_row_list(spec: Dict[str, Any], table: str, source: str) -> None:
    """Refuse a table that an older engine stored in hash partitions.

    ``spec`` is the table's ``create_table`` log record or checkpoint entry,
    ``source`` names the file it came from.  A partitioned table's row
    positions were partition-local, so neither its checkpointed row lists
    nor the rows its logged deletes consumed map onto one row list.  A
    table written with one partition opens as usual.
    """
    count = spec.get(LEGACY_PARTITION_COUNT, 1)
    if count != 1:
        raise RecoveryError(
            f"{source}: table {table!r} was written with {count} hash "
            f"partitions; this engine stores every table as one row list "
            f"and cannot restore it"
        )


def restore_state(database, payload: Dict[str, Any]) -> None:
    """Rebuild the catalog of an (empty) database from a checkpoint payload.

    Index buckets are not stored — they are fully determined by the raw row
    lists (buckets hold ascending positions of live rows) and rebuilt here.
    A checkpoint of a table with more than one hash partition raises
    :class:`RecoveryError` (see :func:`require_one_row_list`); one with a
    single partition restores from its one partition's row list.
    """
    from repro.relalg.schema import Column, ColumnType, TableSchema

    if database.tables:
        raise RecoveryError(
            "checkpoint restore requires an empty catalog; the database "
            f"already has tables {sorted(database.tables)}"
        )
    for spec in payload["tables"]:
        require_one_row_list(spec, spec["name"], "checkpoint")
        schema = TableSchema(
            name=spec["name"],
            columns=[
                Column(
                    name=name,
                    type=ColumnType(type_name),
                    nullable=nullable,
                    primary_key=primary_key,
                )
                for name, type_name, nullable, primary_key in spec["columns"]
            ],
        )
        table = database.create_table(schema)
        for entry in spec["indexes"]:
            # Pre-ordered-index checkpoints carry 2-element entries.
            index_name, column = entry[0], entry[1]
            ordered = entry[2] if len(entry) > 2 else False
            table.create_index(index_name, column, ordered=ordered)
        raw_rows = spec["rows"] if "rows" in spec else spec["partitions"][0]
        table.rows = rows = [
            None if row is None else decode_row(row) for row in raw_rows
        ]
        table.live_count = sum(1 for row in rows if row is not None)
        for index in table.indexes.values():
            column_index = index.column_index
            for position, row in enumerate(rows):
                if row is not None:
                    index.add(row[column_index], position)
        table.mutations = spec["mutations"]


# --------------------------------------------------------------------------- #
# state fingerprints (the byte-identical contract, made checkable)
# --------------------------------------------------------------------------- #


def state_fingerprint(database) -> Dict[str, Any]:
    """The complete logical+physical state of a database, as plain data.

    Covers everything the durability contract promises byte-for-byte: table
    schemas, raw row lists *including tombstone layout*, live counts, every
    index's buckets (keys sorted canonically — bucket *dict* order is
    unobservable, intra-bucket position order is observable and kept), and
    the :class:`TableStatistics` snapshot with the mutations counter.  The
    execution summary is deliberately excluded: it describes the session,
    not the data.
    """
    tables: Dict[str, Any] = {}
    for key in sorted(database.tables):
        table = database.tables[key]
        statistics = table.statistics()
        tables[key] = {
            "schema": table.schema.sql(),
            "rows": [
                None if row is None else encode_row(row)
                for row in table.rows
            ],
            "live_count": table.live_count,
            "indexes": {
                index_key: sorted(
                    (repr(value), list(positions))
                    for value, positions in index._buckets.items()
                )
                for index_key, index in sorted(table.indexes.items())
            },
            "statistics": {
                "row_count": statistics.row_count,
                "index_distinct": dict(sorted(statistics.index_distinct.items())),
                "mutations": statistics.mutations,
            },
        }
    return {"tables": tables}


def fingerprint_hash(fingerprint: Dict[str, Any]) -> str:
    """A stable hash of :func:`state_fingerprint` output (for set membership)."""
    canonical = json.dumps(fingerprint, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
