"""The bulk-ingest path: parse an export, build the repository, load it.

Covers the per-row shortcuts of that path against the general code they
bypass:

* the run / (run, type) key sets behind ``Region.add_total_timing``,
  ``Region.add_typed_timing`` and ``FunctionCall.add_call_timing``;
* the exact-type fast path of ``TableSchema.validate_row`` and the by-index
  binding of all-placeholder INSERT rows, against ``ColumnType.validate``
  and the per-value binder;
* the statement stream of a repository load, which the virtual cost model
  charges per statement and per row.
"""

import collections
import datetime as dt
import enum
import hashlib
import math

import pytest

from repro.apprentice import ApprenticeExport, ApprenticeParser
from repro.asl.specs import cosy_specification
from repro.bench import build_scenario, load_into_backend
from repro.compiler import load_repository
from repro.datamodel import (
    CallTiming,
    DataModelError,
    Function,
    FunctionCall,
    Region,
    TestRun as Run,
    TimingType,
    TotalTiming,
    TypedTiming,
)
from repro.relalg import (
    Column,
    ColumnType,
    Database,
    ExecutionError,
    IntegrityError,
    NativeClient,
    SchemaError,
    TableSchema,
)
from repro.relalg.wal import state_fingerprint


# --------------------------------------------------------------------------- #
# duplicate checks of the timing lists
# --------------------------------------------------------------------------- #


def _run(nope=4):
    return Run(Start=dt.datetime(2000, 1, 1), NoPe=nope, Clockspeed=300)


def _total(run):
    return TotalTiming(Run=run, Excl=1.0, Incl=2.0, Ovhd=0.5)


def _typed(run, timing_type=TimingType.Barrier):
    return TypedTiming(Run=run, Type=timing_type, Time=1.0)


def _call_timing(run):
    return CallTiming(
        Run=run, MinCalls=1, MaxCalls=2, MeanCalls=1.5, StdevCalls=0.5,
        MinTime=1.0, MaxTime=2.0, MeanTime=1.5, StdevTime=0.5,
    )


def _call():
    return FunctionCall(Caller=Function(Name="f"), CallingReg=Region(name="r"))


class TestTimingKeyIndex:
    def test_duplicate_total_timing_run_is_rejected(self):
        region, run = Region(name="r"), _run()
        region.add_total_timing(_total(run))
        region.add_total_timing(_total(_run(8)))
        with pytest.raises(DataModelError, match="already has a TotalTiming"):
            region.add_total_timing(_total(run))
        assert len(region.TotTimes) == 2

    def test_duplicate_typed_timing_run_and_type_is_rejected(self):
        region, run = Region(name="r"), _run()
        region.add_typed_timing(_typed(run, TimingType.Barrier))
        with pytest.raises(DataModelError, match="already has a TypedTiming"):
            region.add_typed_timing(_typed(run, TimingType.Barrier))
        assert len(region.TypTimes) == 1

    def test_same_run_with_another_type_is_accepted(self):
        region, run = Region(name="r"), _run()
        region.add_typed_timing(_typed(run, TimingType.Barrier))
        region.add_typed_timing(_typed(run, TimingType.IORead))
        region.add_typed_timing(_typed(_run(8), TimingType.Barrier))
        assert len(region.TypTimes) == 3

    def test_duplicate_call_timing_run_is_rejected(self):
        call, run = _call(), _run()
        call.add_call_timing(_call_timing(run))
        with pytest.raises(DataModelError, match="already has a CallTiming"):
            call.add_call_timing(_call_timing(run))
        call.add_call_timing(_call_timing(_run(8)))
        assert len(call.Sums) == 2

    def test_direct_appends_are_seen(self):
        region, call = Region(name="r"), _call()
        first, second = _run(), _run(8)
        region.add_total_timing(_total(first))
        region.add_typed_timing(_typed(first))
        call.add_call_timing(_call_timing(first))
        # Appended around the add_* methods, after their key sets exist.
        region.TotTimes.append(_total(second))
        region.TypTimes.append(_typed(second))
        call.Sums.append(_call_timing(second))
        with pytest.raises(DataModelError):
            region.add_total_timing(_total(second))
        with pytest.raises(DataModelError):
            region.add_typed_timing(_typed(second))
        with pytest.raises(DataModelError):
            call.add_call_timing(_call_timing(second))
        region.add_typed_timing(_typed(second, TimingType.IORead))
        assert len(region.TypTimes) == 3

    def test_direct_append_before_any_add_is_seen(self):
        region, run = Region(name="r"), _run()
        region.TotTimes.append(_total(run))
        with pytest.raises(DataModelError):
            region.add_total_timing(_total(run))


# --------------------------------------------------------------------------- #
# insert parity: the exact-type and by-index shortcuts vs. the general path
# --------------------------------------------------------------------------- #


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Label(str):
    """A ``str`` subclass: a VARCHAR value that is not exactly a ``str``."""


_COLUMNS = [
    Column("id", ColumnType.INTEGER, primary_key=True),
    Column("i", ColumnType.INTEGER),
    Column("f", ColumnType.FLOAT),
    Column("s", ColumnType.VARCHAR, nullable=False),
    Column("b", ColumnType.BOOLEAN),
    Column("ts", ColumnType.TIMESTAMP),
]
_NAMES = [column.name for column in _COLUMNS]
_DEFAULTS = {
    "i": 1, "f": 1.5, "s": "x", "b": True, "ts": dt.datetime(2000, 1, 1)
}
_INSERT = f"INSERT INTO t ({', '.join(_NAMES)}) VALUES ({', '.join('?' * len(_NAMES))})"

#: (column, value): every value whose type is not exactly the column's
#: Python type, next to values that are.
_CASES = [
    ("i", True), ("i", 3.0), ("i", 3.5), ("i", 7), ("i", Level.HIGH),
    ("i", "7"), ("i", math.nan),
    ("f", 2), ("f", 2.5), ("f", True), ("f", Level.LOW), ("f", math.nan),
    ("f", "2.5"),
    ("s", 7), ("s", "seven"), ("s", Label("seven")), ("s", Level.LOW),
    ("s", None),
    ("b", 1), ("b", 2), ("b", True), ("b", "true"),
    ("ts", "2000-01-02T03:04:05"), ("ts", "not a time"), ("ts", 5),
    ("id", None), ("id", 4.0), ("id", Level.HIGH),
]


def _table_schema():
    return TableSchema(name="t", columns=list(_COLUMNS))


def _row(row_id, column, value):
    row = dict(_DEFAULTS, id=row_id)
    row[column] = value
    return tuple(row[name] for name in _NAMES)


def _reference(values):
    """What the general path makes of a row: ``ColumnType.validate`` on every
    value plus the NULL check, as ``("row", row)`` or ``("error", type,
    message)``."""
    validated = []
    for column, value in zip(_COLUMNS, values):
        try:
            coerced = column.type.validate(value)
        except SchemaError as error:
            return ("error", type(error), str(error))
        if coerced is None and (column.primary_key or not column.nullable):
            return (
                "error",
                IntegrityError,
                f"column {column.name!r} of table 't' must not be NULL",
            )
        validated.append(coerced)
    return ("row", tuple(validated))


def _same_value(left, right):
    if type(left) is not type(right):
        return False
    if isinstance(left, float) and math.isnan(left):
        return math.isnan(right)
    return left == right


def _insert_outcome(insert):
    """``("row", stored row)`` or ``("error", type, message)`` of ``insert``,
    which inserts one row into a fresh table and returns the database."""
    try:
        database = insert()
    except (SchemaError, IntegrityError) as error:
        return ("error", type(error), str(error))
    (stored,) = list(database.table("t").scan())
    return ("row", stored)


def _fresh():
    database = Database()
    database.create_table(_table_schema())
    return database


def _via_execute(values):
    database = _fresh()
    database.execute(_INSERT, values)
    return database


def _via_executemany(values):
    database = _fresh()
    database.executemany(_INSERT, [values])
    return database


def _via_insert(values):
    database = _fresh()
    database.table("t").insert(values)
    return database


def _via_insert_many(values):
    database = _fresh()
    database.table("t").insert_many([values])
    return database


class TestInsertParity:
    @pytest.mark.parametrize(
        "insert", [_via_execute, _via_executemany, _via_insert, _via_insert_many],
        ids=["execute", "executemany", "insert", "insert_many"],
    )
    @pytest.mark.parametrize("column, value", _CASES, ids=repr)
    def test_value_is_stored_or_rejected_like_validate(self, insert, column, value):
        values = _row(1, column, value)
        expected = _reference(values)
        outcome = _insert_outcome(lambda: insert(values))
        assert outcome[0] == expected[0], (outcome, expected)
        if expected[0] == "error":
            assert outcome[1:] == expected[1:]
        else:
            assert len(outcome[1]) == len(expected[1])
            assert all(map(_same_value, outcome[1], expected[1])), (outcome, expected)

    def test_exact_values_are_stored_as_the_same_objects(self):
        database = _fresh()
        values = (1, 10**30, 0.1, "text", False, dt.datetime(2000, 1, 1))
        database.executemany(_INSERT, [values])
        (stored,) = list(database.table("t").scan())
        assert all(a is b for a, b in zip(stored[:4], values[:4]))

    @pytest.mark.parametrize(
        "bad_row",
        [
            _row(2, "id", None),
            _row(1, "i", 1),  # duplicate primary key of a stored row
            _row(3, "f", "nope"),
            _row(3, "s", None),
        ],
        ids=["null-pk", "duplicate-pk", "bad-float", "not-null"],
    )
    def test_failing_batch_leaves_table_unchanged(self, bad_row):
        database = _fresh()
        database.execute("CREATE INDEX idx_t_i ON t (i)")
        database.executemany(_INSERT, [_row(1, "i", 5)])
        table = database.table("t")
        before = state_fingerprint(database)
        mutations = table.mutations
        batch = [_row(10, "i", 6), _row(11, "f", 2), bad_row, _row(12, "s", "y")]
        with pytest.raises((SchemaError, IntegrityError)):
            database.executemany(_INSERT, batch)
        with pytest.raises((SchemaError, IntegrityError)):
            table.insert_many(batch)
        assert table.mutations == mutations
        assert state_fingerprint(database) == before

    def test_short_parameter_row_raises_the_per_value_error(self):
        database = _fresh()
        rows = [_row(1, "i", 5), _row(2, "i", 6)[:4]]
        with pytest.raises(ExecutionError) as raised:
            database.executemany(_INSERT, rows)
        assert str(raised.value) == (
            "INSERT uses parameter 5 but only 4 parameter(s) were supplied"
        )
        assert database.total_rows() == 0

    def test_short_parameter_row_of_a_partial_column_list(self):
        database = _fresh()
        with pytest.raises(ExecutionError) as raised:
            database.executemany(
                "INSERT INTO t (s, id) VALUES (?, ?), (?, ?)", [("a", 1, "b")]
            )
        assert str(raised.value) == (
            "INSERT uses parameter 4 but only 3 parameter(s) were supplied"
        )
        database.executemany(
            "INSERT INTO t (s, id) VALUES (?, ?), (?, ?)", [("a", 1, "b", 2, "extra")]
        )
        assert list(database.table("t").scan()) == [
            (1, None, None, "a", None, None),
            (2, None, None, "b", None, None),
        ]


# --------------------------------------------------------------------------- #
# the statement stream of a repository load
# --------------------------------------------------------------------------- #


class RecordingClient(NativeClient):
    """A native client that records every statement and its row count."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.statements = []

    def execute(self, sql, params=()):
        self.statements.append((sql, 1))
        return super().execute(sql, params)

    def executemany(self, sql, param_rows):
        param_rows = list(param_rows)
        self.statements.append((sql, len(param_rows)))
        return super().executemany(sql, param_rows)


#: Rows per INSERT batch and table when the E1 medium scenario loads in
#: batches of 100.
_MEDIUM_BATCHES = {
    "dual": [1],
    "Program": [1],
    "ProgVersion": [1],
    "TestRun": [3],
    "Function": [8],
    "Region": [56],
    "FunctionCall": [96],
    "TotalTiming": [100, 68],
    "TypedTiming": [100] * 13 + [61],
    "CallTiming": [100, 100, 88],
}


@pytest.fixture(scope="module")
def medium_scenario():
    return build_scenario(
        "scalable", pe_counts=(1, 4, 16), specification=cosy_specification(),
        functions=8, regions_per_function=6, calls_per_region=2,
    )


def _insert_batches(statements):
    batches = collections.defaultdict(list)
    for sql, rows in statements:
        if sql.startswith("INSERT INTO "):
            batches[sql.split()[2]].append(rows)
    return dict(batches)


class TestLoadStatementStream:
    @pytest.mark.parametrize("backend_name", ["oracle7", "ms_access"])
    def test_batched_load(self, medium_scenario, backend_name):
        client, _ = load_into_backend(
            medium_scenario, backend_name, client_factory=RecordingClient
        )
        assert len(client.statements) == 50
        assert _insert_batches(client.statements) == _MEDIUM_BATCHES
        assert client.backend.rows_inserted == 1983

    @pytest.mark.parametrize("backend_name", ["oracle7", "ms_access"])
    def test_row_at_a_time_load(self, medium_scenario, backend_name):
        client, _ = load_into_backend(
            medium_scenario, backend_name, client_factory=RecordingClient,
            batch_size=None,
        )
        assert len(client.statements) == 2007
        batches = _insert_batches(client.statements)
        assert {table: len(rows) for table, rows in batches.items()} == {
            table: sum(rows) for table, rows in _MEDIUM_BATCHES.items()
        }
        assert client.backend.rows_inserted == 1983

    @pytest.mark.parametrize("source", ["simulated", "export-parsed"])
    @pytest.mark.parametrize("load, batch_size, atomic", [
        ("batched", 100, False),
        ("row-at-a-time", None, False),
        ("atomic", 7, True),
    ])
    def test_whole_stream_is_pinned(
        self, medium_scenario, source, load, batch_size, atomic
    ):
        # Every executor call of the load, schema DDL included: its method,
        # SQL text and parameter rows, in order.  The rows hold row ids only,
        # never entity uids, which depend on what the process built before.
        repository = medium_scenario.repository
        if source == "export-parsed":
            repository = ApprenticeParser().loads(
                ApprenticeExport(repository).dumps()
            )
        executor = _DigestingExecutor()
        ids = load_repository(
            repository, medium_scenario.mapping, executor,
            batch_size=batch_size, atomic=atomic,
        )
        assert executor.digest.hexdigest() == _STREAM_DIGESTS[load, source]
        assert executor.calls == _STREAM_CALLS[load]
        assert ids.total() == 1982


class _DigestingExecutor:
    """An executor that hashes every call and forwards it to a database."""

    def __init__(self):
        self.database = Database()
        self.digest = hashlib.sha256()
        self.calls = 0

    def _record(self, method, sql, rows):
        self.digest.update(repr((method, sql, rows)).encode())
        self.calls += 1

    def execute(self, sql, params=()):
        self._record("execute", sql, [list(params)])
        return self.database.execute(sql, params)

    def executemany(self, sql, param_rows):
        param_rows = [list(params) for params in param_rows]
        self._record("executemany", sql, param_rows)
        return self.database.executemany(sql, param_rows)


#: The sha256 of the load statement stream of the E1 medium scenario, by
#: load and repository source (the export rounds floats to 12 digits), and
#: the load's number of executor calls.
_STREAM_DIGESTS = {
    ("batched", "simulated"):
        "eb32c5ed2b57b2496065bbbba5af900340e9989b40c912ec97d5c2be57700f2a",
    ("batched", "export-parsed"):
        "518e9fda221a85d6608ec359c86b04c8328018037b907ea8ec9e632098133a63",
    ("row-at-a-time", "simulated"):
        "aa1b368033c96d4e861ec58ae73a852068247c746ed5154c023b88254f0232ea",
    ("row-at-a-time", "export-parsed"):
        "3892ef632548af68833cf27602862680435f8dac56b3e3dbd2a0c9d05cce2491",
    ("atomic", "simulated"):
        "964802398d1c11d9967c0230b1109cae0e4356cd31f0d13b38441fa63ed5ec51",
    ("atomic", "export-parsed"):
        "91163705b15a4ba97c6469cfed9203a0f1c1d291ea8727c1c5168c9c428b8570",
}
_STREAM_CALLS = {"batched": 50, "row-at-a-time": 2007, "atomic": 315}
