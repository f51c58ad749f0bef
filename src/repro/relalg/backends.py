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
SELECT of it — exactly once, as a :class:`StatementCost`
(:meth:`SimulatedBackend.wire_statements` is the only place the batching rule
lives).  Two places turn that cost into virtual time: the serial clock, which
:meth:`SimulatedBackend.execute` / :meth:`~SimulatedBackend.executemany`
advance by ``cost.total`` per wire statement, and the overlap-aware
:class:`PipelinedTimeline`, which schedules up to ``window`` in-flight
statements whose round-trip components overlap and whose server-side work
serializes — the model behind the ``AsyncClient`` pipelining layer and the E8
overlap benchmark.  The :class:`VirtualClock` itself keeps only its
completion frontier.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.records import FrozenRecord, Record, slot_setters
from repro.relalg.database import Database
from repro.relalg.errors import ExecutionError
from repro.relalg.rowset import ResultSet

__all__ = [
    "BackendProfile",
    "BACKEND_PROFILES",
    "DEFAULT_BATCH_SIZE",
    "VirtualClock",
    "StatementCost",
    "PipelineSlot",
    "PipelinedTimeline",
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
    """Virtual elapsed time: the completion frontier of everything charged.

    Serial charging (:meth:`advance`) adds to the frontier with one float
    addition per charge, so a total depends only on the charges and their
    order.  The overlap scheduler (:class:`PipelinedTimeline`) computes its
    own schedule and moves the frontier forward with :meth:`advance_to`.
    """

    def __init__(self) -> None:
        self._elapsed = 0.0

    def advance(self, seconds: float) -> None:
        """Charge ``seconds`` serially, starting at the completion frontier."""
        if seconds < 0:
            raise ValueError(f"cannot advance the clock by {seconds}")
        self._elapsed += seconds

    def advance_to(self, instant: float) -> None:
        """Move the completion frontier forward to ``instant``.

        Used by the overlap scheduler after committing a window: the frontier
        becomes the completion of the last in-flight statement.  An instant
        behind the frontier is a no-op — time never runs backwards.
        """
        if instant > self._elapsed:
            self._elapsed = instant

    @property
    def elapsed(self) -> float:
        return self._elapsed

    def reset(self) -> None:
        self._elapsed = 0.0


class StatementCost(Record):
    """Virtual cost breakdown of one executed statement (a value object;
    treat as immutable — created once per statement, on the hot path).

    :attr:`total` reproduces :meth:`BackendProfile.statement_cost` exactly
    (same expression, same floats), so serial charging through a cost object
    is byte-identical to the historical scalar clock.  The overlap-aware
    timeline instead splits the statement into the components that behave
    differently under pipelining:

    * the **request** and **response** halves of the network round trip plus
      the per-row result transfer — wire time that overlaps across in-flight
      statements;
    * the **server** work (scan/join/insert processing) — serialized on the
      simulated server.
    """

    __slots__ = ("profile", "rows_inserted", "rows_returned", "rows_scanned")

    def __init__(
        self,
        profile: BackendProfile,
        rows_inserted: int,
        rows_returned: int,
        rows_scanned: int,
    ) -> None:
        self.profile = profile
        self.rows_inserted = rows_inserted
        self.rows_returned = rows_returned
        self.rows_scanned = rows_scanned

    @property
    def total(self) -> float:
        """Serial charge of the statement (the historical scalar arithmetic)."""
        return self.profile.statement_cost(
            rows_inserted=self.rows_inserted,
            rows_returned=self.rows_returned,
            rows_scanned=self.rows_scanned,
        )

    @property
    def server_seconds(self) -> float:
        """Server-side processing time (serializes across statements)."""
        cost = (
            self.rows_inserted * self.profile.per_insert_row
            + self.rows_scanned * self.profile.per_scanned_row
        )
        if self.rows_inserted:
            cost += self.profile.per_insert_statement
        return cost

    @property
    def request_seconds(self) -> float:
        """Wire time of the request (client → server half of the round trip)."""
        return self.profile.round_trip / 2

    @property
    def response_seconds(self) -> float:
        """Wire time of the response (server → client half plus row transfer)."""
        return (
            self.profile.round_trip
            - self.profile.round_trip / 2
            + self.rows_returned * self.profile.per_fetch_row
        )


class PipelineSlot(Record):
    """The scheduled lifecycle of one overlapped statement (virtual seconds;
    a value object — treat as immutable)."""

    __slots__ = (
        "submitted", "dispatched", "server_start", "server_end", "responded",
        "completed",
    )

    def __init__(
        self,
        submitted: float,
        dispatched: float,
        server_start: float,
        server_end: float,
        responded: float,
        completed: float,
    ) -> None:
        #: When the client began dispatching the statement.
        self.submitted = submitted
        #: When the request left the client (dispatch marshalling done).
        self.dispatched = dispatched
        #: When the server started / finished processing the statement.
        self.server_start = server_start
        self.server_end = server_end
        #: When the full response reached the client.
        self.responded = responded
        #: When the client finished receiving/unmarshalling the response.
        self.completed = completed

    @property
    def server_seconds(self) -> float:
        return self.server_end - self.server_start

    @property
    def latency(self) -> float:
        """Submit-to-complete latency of this statement."""
        return self.completed - self.submitted


class PipelinedTimeline:
    """Overlap-aware scheduler over a :class:`VirtualClock`.

    Models a client that keeps up to ``window`` statements in flight on one
    pipelined connection.  Per statement *i*:

    * ``submitted_i = max(client dispatch channel free, completed_{i-window})``
      — the client dispatches serially and holds at most ``window``
      uncompleted statements in flight;
    * the request travels for :attr:`StatementCost.request_seconds`;
    * the server serializes: ``server_start_i = max(request arrival, server
      free)`` — server work never overlaps other server work;
    * the response travels back for :attr:`StatementCost.response_seconds`;
    * responses complete in submission order (pipelined connections preserve
      ordering): ``completed_i = max(response arrival, completed_{i-1}) +
      client receive work``.

    The client is modeled **full-duplex** (think a driver with a send and a
    receive thread): dispatch marshalling serializes along the send path,
    receive marshalling serializes along the in-order receive path, and the
    two paths do not contend with each other.  The elapsed-time floor of a
    deeply pipelined workload is therefore the *longest* serialized chain —
    ``max(send marshalling, server work, receive marshalling)`` plus one
    round-trip latency — not the sum of all client and server work.

    Round-trip components of concurrent statements therefore overlap while
    server work accumulates serially, so a round-trip-bound workload
    approaches that serialized-chain floor as the window grows and a
    CPU-bound workload stays flat.  :meth:`drain` moves the clock's
    completion frontier to the last scheduled completion.
    """

    def __init__(self, clock: VirtualClock, window: int) -> None:
        if window < 1:
            raise ValueError(f"window must be positive, got {window}")
        self.clock = clock
        self.window = window
        self._completions: List[float] = []
        self._base: Optional[float] = None
        self._client_free = 0.0
        self._server_free = 0.0
        self._last_completion = 0.0

    @property
    def pending(self) -> int:
        """Scheduled but not yet drained statements."""
        return len(self._completions)

    def submit(
        self,
        cost: StatementCost,
        dispatch_seconds: float = 0.0,
        receive_seconds: float = 0.0,
    ) -> PipelineSlot:
        """Schedule one statement; returns its slot.

        ``dispatch_seconds`` / ``receive_seconds`` are the client-side
        marshalling costs on the request and response side (both serialize on
        the client).
        """
        if self._base is None:
            self._base = self.clock.elapsed
            self._client_free = self._base
            self._server_free = self._base
            self._last_completion = self._base
        position = len(self._completions)
        earliest = (
            self._base
            if position < self.window
            else self._completions[position - self.window]
        )
        submitted = max(self._client_free, earliest)
        dispatched = submitted + dispatch_seconds
        self._client_free = dispatched
        arrival = dispatched + cost.request_seconds
        server_start = max(arrival, self._server_free)
        server_end = server_start + cost.server_seconds
        self._server_free = server_end
        responded = server_end + cost.response_seconds
        completed = max(responded, self._last_completion) + receive_seconds
        self._last_completion = completed
        self._completions.append(completed)
        return PipelineSlot(
            submitted=submitted,
            dispatched=dispatched,
            server_start=server_start,
            server_end=server_end,
            responded=responded,
            completed=completed,
        )

    def drain(self) -> float:
        """Commit every scheduled statement to the clock; returns the new
        elapsed.

        Moves the completion frontier to the last completion.  Idempotent
        when nothing is pending; the next :meth:`submit` starts a fresh
        window from the (possibly advanced) frontier.
        """
        if self._base is None:
            return self.clock.elapsed
        self.clock.advance_to(self._last_completion)
        self._completions.clear()
        self._base = None
        return self.clock.elapsed


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
    ) -> Tuple[Any, StatementCost]:
        """Send one wire statement — ``run(sql, arg)`` on the engine — and
        measure its cost without charging it.

        The cost comes from deltas of the engine's summary counters: the rows
        the statement returned, inserted and read.  A statement that raises is not counted: the backend's
        counters, ``shipped`` parameters included, describe only the wire
        statements that executed.
        """
        summary = self.database.summary
        stats = summary.select_stats
        scanned_before = stats.rows_scanned
        returned_before = stats.rows_returned
        inserted_before = summary.rows_inserted
        value = run(sql, arg)
        cost = StatementCost(
            self.profile,
            summary.rows_inserted - inserted_before,
            stats.rows_returned - returned_before,
            stats.rows_scanned - scanned_before,
        )
        self.statements_executed += 1
        self.params_shipped += shipped
        self.rows_inserted += cost.rows_inserted
        self.rows_fetched += cost.rows_returned
        return value, cost

    def send(
        self, sql: str, params: Sequence[Any] = ()
    ) -> Tuple[Union[ResultSet, int], StatementCost]:
        """Execute one statement *without* advancing the virtual clock.

        The engine runs (and the statement/row counters update) immediately;
        the returned :class:`StatementCost` carries the component breakdown
        so an overlap-aware caller (:class:`PipelinedTimeline` via
        ``AsyncClient``) owns the timing instead of the serial clock.
        """
        self.connect()
        return self._measure(self.database.execute, sql, params, len(params))

    def execute(self, sql: str, params: Sequence[Any] = ()) -> Union[ResultSet, int]:
        """Execute one statement, charging the backend's virtual costs.

        The engine's statement-level plan cache makes *client-side* repeated
        execution cheap; the virtual cost model still charges the full
        per-statement round trip and per-row work, because the simulated
        server would perform it regardless of how the client prepared the
        statement.
        """
        result, cost = self.send(sql, params)
        self.clock.advance(cost.total)
        return result

    def executemany(
        self,
        sql: str,
        param_rows: Iterable[Sequence[Any]],
        batch_size: Optional[int] = None,
    ) -> int:
        """Execute a parametrised statement over many rows, batched.

        Charges ``cost.total`` per wire statement of :meth:`wire_statements`,
        in order: **one round trip per DML batch** plus the per-row server
        work of every row in it — row-at-a-time submission pays the round
        trip and the per-insert statement overhead per row, which is exactly
        the gap the paper's bulk MS-Access-vs-Oracle load observation comes
        from — and one round trip per SELECT parameter row.  Each batch
        commits atomically (see :meth:`Database.executemany`); a failing
        batch leaves earlier batches applied and charged.  Returns the
        affected rows (DML) or the returned rows (SELECT).
        """
        total = 0
        for count, cost, _shipped in self.wire_statements(
            sql, param_rows, batch_size
        ):
            self.clock.advance(cost.total)
            total += count
        return total

    def wire_statements(
        self,
        sql: str,
        param_rows: Iterable[Sequence[Any]],
        batch_size: Optional[int] = None,
    ) -> Iterator[Tuple[int, StatementCost, int]]:
        """Send ``sql`` over ``param_rows`` as the wire carries it, uncharged.

        The one place the batching rule lives.  DML parameter rows ship in
        batches of ``batch_size`` (default: the backend's configured size),
        one wire statement per batch.  SELECTs cannot be batched on the wire
        (the era's client APIs batch updates only — a result set needs its
        own round trip), so they ship one wire statement per parameter row.

        Yields ``(count, cost, params_shipped)`` per wire statement, after
        running it: the affected rows (DML) or returned rows (SELECT), its
        :class:`StatementCost` and the number of parameters it bound.  The
        caller turns the cost into virtual time — the serial clock
        (:meth:`executemany`) or the overlap timeline (``AsyncClient``).
        The batch size and the statement kind are checked when this is
        called, so a malformed statement raises before the first wire
        statement is requested.
        """
        size = self.batch_size if batch_size is None else batch_size
        if size < 1:
            raise ValueError(f"batch_size must be positive, got {size}")
        rows = list(param_rows)
        if rows and self.database.is_select(sql):
            size = 1
        return self._ship(sql, rows, size)

    def _ship(
        self, sql: str, rows: List[Sequence[Any]], size: int
    ) -> Iterator[Tuple[int, StatementCost, int]]:
        for start in range(0, len(rows), size):
            batch = rows[start:start + size]
            shipped = sum(map(len, batch))
            self.connect()
            count, cost = self._measure(
                self.database.executemany, sql, batch, shipped
            )
            yield count, cost, shipped

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
