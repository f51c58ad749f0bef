"""Simulated database backends (Section 5 of the paper).

The paper reports experiments with four database systems — Oracle 7, MS Access,
MS SQL Server and Postgres — where all but MS Access ran "in a distributed
fashion", i.e. the performance data were transferred over the network to the
database server.  The observations were:

* query processing on Oracle was about a factor of **2 slower** than on
  MS SQL Server and Postgres;
* the local **MS Access outperformed** all the server-based systems;
* bulk **insertion** of performance data into MS Access was about a factor of
  **20 faster** than into the Oracle server;
* fetching a single record from the Oracle server took about **1 ms**.

The original systems are not available (nor would their year-2000 network
setup be reproducible), so this module models each backend as the in-process
relational engine (:class:`repro.relalg.database.Database`) plus a *virtual
cost model*: every executed statement advances a virtual clock by the
network round trip, the per-row server processing time and the per-row
transfer time of the backend profile.  The constants are calibrated so that
the single-record fetch and the relative factors quoted above are reproduced;
the E1/E2 benchmarks then measure whether the *relative ordering and rough
factors* match the paper.

The backend measures each **wire statement** — one round trip to the
simulated server: a single statement, one DML batch of ``executemany`` or one
SELECT of it — exactly once (:meth:`SimulatedBackend._measure`) and charges
that cost to a serial :class:`VirtualClock`, one statement after the other;
:meth:`SimulatedBackend.executemany` is the only place the batching rule
lives.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Optional, Sequence, Tuple, Union

from repro.records import FrozenRecord, slot_setters
from repro.relalg.database import Database
from repro.relalg.errors import ExecutionError
from repro.relalg.rowset import ResultSet

__all__ = [
    "BackendProfile",
    "BACKEND_PROFILES",
    "DEFAULT_BATCH_SIZE",
    "VirtualClock",
    "SimulatedBackend",
    "backend",
]

#: Parameter rows shipped per ``executemany`` round trip unless overridden.
DEFAULT_BATCH_SIZE = 100


class BackendProfile(FrozenRecord):
    """Virtual cost model of one database backend."""

    __slots__ = (
        "name", "description", "remote", "connect_latency", "round_trip",
        "per_insert_statement", "per_insert_row", "per_fetch_row",
        "per_scanned_row",
    )

    def __init__(
        self,
        name: str,
        description: str,
        remote: bool,
        connect_latency: float,
        round_trip: float,
        per_insert_statement: float,
        per_insert_row: float,
        per_fetch_row: float,
        per_scanned_row: float,
    ) -> None:
        #: Short identifier, e.g. ``oracle7``.
        _profile_name(self, name)
        #: Human-readable description for reports.
        _profile_description(self, description)
        #: Whether the backend runs on a remote server (adds network round trips).
        _profile_remote(self, remote)
        #: One-time connection establishment latency (seconds).
        _profile_connect_latency(self, connect_latency)
        #: Latency of one statement round trip client → server → client (seconds).
        _profile_round_trip(self, round_trip)
        #: Server-side per-INSERT-statement overhead (parse, constraint setup,
        #: logging, commit) — charged once per statement, so a batched
        #: ``executemany`` amortises it over the whole batch (seconds).
        _profile_per_insert_statement(self, per_insert_statement)
        #: Server-side cost of inserting one row (seconds).
        _profile_per_insert_row(self, per_insert_row)
        #: Cost of returning one result row to the client (seconds).
        _profile_per_fetch_row(self, per_fetch_row)
        #: Server-side cost of scanning/joining one stored row (seconds).
        _profile_per_scanned_row(self, per_scanned_row)

    def statement_cost(
        self,
        rows_inserted: int = 0,
        rows_returned: int = 0,
        rows_scanned: int = 0,
    ) -> float:
        """Virtual elapsed time of one statement with the given row counts.

        A statement inserting N rows (a row-at-a-time INSERT has N = 1, one
        ``executemany`` batch has N = batch size) pays the per-statement
        insert overhead once plus the per-row cost N times — this is the cost
        asymmetry behind the paper's bulk-load observation.
        """
        cost = (
            self.round_trip
            + rows_inserted * self.per_insert_row
            + rows_returned * self.per_fetch_row
            + rows_scanned * self.per_scanned_row
        )
        if rows_inserted:
            cost += self.per_insert_statement
        return cost


(
    _profile_name, _profile_description, _profile_remote, _profile_connect_latency,
    _profile_round_trip, _profile_per_insert_statement, _profile_per_insert_row,
    _profile_per_fetch_row, _profile_per_scanned_row,
) = slot_setters(BackendProfile)


#: The four backends compared in the paper.  The absolute values are synthetic;
#: the *ratios* reproduce the published observations (see the module docstring).
BACKEND_PROFILES: Dict[str, BackendProfile] = {
    "oracle7": BackendProfile(
        name="oracle7",
        description="Oracle 7 server reached over the network",
        remote=True,
        connect_latency=0.050,
        round_trip=6.0e-4,
        per_insert_statement=1.14e-3,
        per_insert_row=2.6e-4,
        per_fetch_row=4.0e-4,
        per_scanned_row=2.0e-6,
    ),
    "ms_sql_server": BackendProfile(
        name="ms_sql_server",
        description="MS SQL Server reached over the network",
        remote=True,
        connect_latency=0.030,
        round_trip=3.0e-4,
        per_insert_statement=6.0e-4,
        per_insert_row=1.0e-4,
        per_fetch_row=2.0e-4,
        per_scanned_row=1.5e-6,
    ),
    "postgres": BackendProfile(
        name="postgres",
        description="Postgres server reached over the network",
        remote=True,
        connect_latency=0.030,
        round_trip=3.2e-4,
        per_insert_statement=6.4e-4,
        per_insert_row=1.1e-4,
        per_fetch_row=2.1e-4,
        per_scanned_row=1.6e-6,
    ),
    "ms_access": BackendProfile(
        name="ms_access",
        description="local MS Access database (no network)",
        remote=False,
        connect_latency=0.002,
        round_trip=2.0e-5,
        per_insert_statement=6.5e-5,
        per_insert_row=1.5e-5,
        per_fetch_row=5.0e-5,
        per_scanned_row=1.0e-6,
    ),
}


class VirtualClock:
    """Virtual elapsed time of everything charged, one charge after another.

    Each :meth:`advance` is one float addition, so a total depends only on
    the charges and their order.
    """

    def __init__(self) -> None:
        self._elapsed = 0.0

    def advance(self, seconds: float) -> None:
        """Charge ``seconds`` after everything charged so far."""
        if seconds < 0:
            raise ValueError(f"cannot advance the clock by {seconds}")
        self._elapsed += seconds

    @property
    def elapsed(self) -> float:
        return self._elapsed

    def reset(self) -> None:
        self._elapsed = 0.0


class SimulatedBackend:
    """A relational database with the virtual cost model of one backend.

    All statements are really executed by the in-process engine; the virtual
    clock additionally charges the backend-profile costs so that experiments
    can compare "how long would this have taken on Oracle vs. MS Access"
    without the original installations.
    """

    def __init__(
        self,
        profile: BackendProfile,
        database: Optional[Database] = None,
        engine: str = "compiled",
        batch_size: int = DEFAULT_BATCH_SIZE,
        wal_path: Optional[str] = None,
        wal_autocheckpoint: Optional[int] = 4_000_000,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.profile = profile
        self.batch_size = batch_size
        self.database = database or Database(
            name=profile.name,
            engine=engine,
            wal_path=wal_path,
            wal_autocheckpoint=wal_autocheckpoint,
        )
        self.clock = VirtualClock()
        #: Wire statements executed, the parameters they bound, and the rows
        #: they inserted and returned: the client stack charges its
        #: marshalling from deltas of these.
        self.statements_executed = 0
        self.params_shipped = 0
        self.rows_inserted = 0
        self.rows_fetched = 0
        self._connected = False

    # ------------------------------------------------------------------ #

    def connect(self) -> None:
        """Establish the (virtual) connection; charged only once."""
        if not self._connected:
            self.clock.advance(self.profile.connect_latency)
            self._connected = True

    def _measure(
        self,
        run: Callable[[str, Any], Any],
        sql: str,
        arg: Any,
        shipped: int,
    ) -> Tuple[Any, float]:
        """Send one wire statement — ``run(sql, arg)`` on the engine — and
        measure its virtual cost without charging it.

        The cost is :meth:`BackendProfile.statement_cost` of the deltas of
        the engine's summary counters: the rows the statement inserted,
        returned and read.  A statement that raises is not counted: the
        backend's counters, ``shipped`` parameters included, describe only
        the wire statements that executed.
        """
        summary = self.database.summary
        stats = summary.select_stats
        scanned_before = stats.rows_scanned
        returned_before = stats.rows_returned
        inserted_before = summary.rows_inserted
        value = run(sql, arg)
        inserted = summary.rows_inserted - inserted_before
        returned = stats.rows_returned - returned_before
        self.statements_executed += 1
        self.params_shipped += shipped
        self.rows_inserted += inserted
        self.rows_fetched += returned
        return value, self.profile.statement_cost(
            rows_inserted=inserted,
            rows_returned=returned,
            rows_scanned=stats.rows_scanned - scanned_before,
        )

    def execute(self, sql: str, params: Sequence[Any] = ()) -> Union[ResultSet, int]:
        """Execute one statement, charging the backend's virtual costs.

        The engine's statement-level plan cache makes *client-side* repeated
        execution cheap; the virtual cost model still charges the full
        per-statement round trip and per-row work, because the simulated
        server would perform it regardless of how the client prepared the
        statement.
        """
        self.connect()
        result, cost = self._measure(self.database.execute, sql, params, len(params))
        self.clock.advance(cost)
        return result

    def executemany(
        self,
        sql: str,
        param_rows: Iterable[Sequence[Any]],
        batch_size: Optional[int] = None,
    ) -> int:
        """Execute a parametrised statement over many rows, batched.

        The one place the batching rule lives.  DML parameter rows ship in
        batches of ``batch_size`` (default: the backend's configured size),
        one wire statement per batch: **one round trip per DML batch** plus
        the per-row server work of every row in it — row-at-a-time
        submission pays the round trip and the per-insert statement overhead
        per row, which is exactly the gap the paper's bulk MS-Access-vs-Oracle
        load observation comes from.  SELECTs cannot be batched on the wire
        (the era's client APIs batch updates only — a result set needs its
        own round trip), so they ship one wire statement per parameter row.

        Each wire statement's cost is charged as it completes, in order.
        The batch size and the statement kind are checked before the first
        wire statement ships.  Each batch commits atomically (see
        :meth:`Database.executemany`); a failing batch leaves earlier
        batches applied and charged.  Returns the affected rows (DML) or the
        returned rows (SELECT).
        """
        size = self.batch_size if batch_size is None else batch_size
        if size < 1:
            raise ValueError(f"batch_size must be positive, got {size}")
        rows = list(param_rows)
        if rows and self.database.is_select(sql):
            size = 1
        total = 0
        for start in range(0, len(rows), size):
            batch = rows[start:start + size]
            self.connect()
            count, cost = self._measure(
                self.database.executemany, sql, batch, sum(map(len, batch))
            )
            self.clock.advance(cost)
            total += count
        return total

    def query(self, sql: str, params: Sequence[Any] = ()) -> ResultSet:
        """Execute a statement that must be a SELECT."""
        result = self.execute(sql, params)
        if not isinstance(result, ResultSet):
            raise ExecutionError("query() requires a SELECT statement")
        return result

    def explain(self, sql: str) -> str:
        """EXPLAIN a SELECT against the underlying engine.

        Planning introspection only: the virtual clock is not advanced (the
        era's EXPLAIN facilities ran in the client's catalog, not against
        the data path).  Non-SELECT statements and non-string input raise
        the engine's typed :class:`ExecutionError`, mirrored unchanged.
        """
        return self.database.explain(sql)

    # ------------------------------------------------------------------ #

    @property
    def elapsed(self) -> float:
        """Virtual elapsed time (seconds) of all statements so far."""
        return self.clock.elapsed

    def plan_cache_info(self) -> Dict[str, int]:
        """Plan-cache counters of the underlying engine (see `Database`)."""
        return self.database.plan_cache_info()

    def reset_clock(self) -> None:
        """Reset the virtual clock (keeps the data and the connection)."""
        self.clock.reset()
        self.statements_executed = 0
        self.params_shipped = 0
        self.rows_inserted = 0
        self.rows_fetched = 0

    def close(self) -> None:
        """Close the underlying :class:`Database` (idempotent): an open
        transaction rolls back and the write-ahead log, if any, is closed."""
        self.database.close()

    def __enter__(self) -> "SimulatedBackend":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SimulatedBackend({self.profile.name!r}, "
            f"elapsed={self.clock.elapsed:.6f}s)"
        )


def backend(
    name: str,
    database: Optional[Database] = None,
    engine: str = "compiled",
    batch_size: int = DEFAULT_BATCH_SIZE,
    wal_path: Optional[str] = None,
    wal_autocheckpoint: Optional[int] = 4_000_000,
) -> SimulatedBackend:
    """Create a simulated backend by profile name (e.g. ``'oracle7'``).

    ``engine`` selects the in-process execution engine ("compiled" plans or
    the seed "interpreted" AST walker) when no database is supplied;
    ``batch_size`` sets how many ``executemany`` parameter rows share one
    virtual round trip.  ``wal_path`` attaches a
    write-ahead log to the backend's database (ignored when ``database`` is
    supplied), making its commits crash-durable; ``wal_autocheckpoint``
    bounds that log.
    """
    try:
        profile = BACKEND_PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown backend {name!r}; available: {sorted(BACKEND_PROFILES)}"
        ) from None
    return SimulatedBackend(
        profile,
        database,
        engine=engine,
        batch_size=batch_size,
        wal_path=wal_path,
        wal_autocheckpoint=wal_autocheckpoint,
    )
