"""Client API layers: "native" (C-like) vs. "bridged" (JDBC-like) access.

COSY is implemented in Java and accesses the database through JDBC; the paper
notes that *"accessing the database via JDBC is a factor of two to four slower
than C-based implementations"* but that fetching a record from the Oracle
server still only takes about 1 ms, so the portability is worth the cost.

This module models the two client stacks on top of a
:class:`~repro.relalg.backends.SimulatedBackend`:

* :class:`NativeClient` — a thin, C-like driver with minimal per-call and
  per-row marshalling cost;
* :class:`BridgedClient` — a JDBC-like driver whose per-call and per-row
  costs are a configurable factor (default 3×) higher, modelling the
  additional object creation and type conversion of the bridge.

The E2 benchmark fetches records through both clients and reports the
slowdown factor, which should land in the paper's 2–4× band.

Both stacks charge their marshalling through one formula
(:meth:`ClientCosts.dispatch_seconds` + :meth:`ClientCosts.receive_seconds`)
applied to what the backend actually shipped: its statement, parameter and
fetched-row counters.  The batching rule itself lives only in the backend
(:meth:`~repro.relalg.backends.SimulatedBackend.wire_statements`).

On top of either stack, :class:`AsyncClient` adds the era's standard
mitigation for round-trip-bound workloads: **request pipelining**.  Its
submit/gather API keeps up to ``window`` statements in flight; the network
round trips of concurrent statements overlap on the virtual timeline while
the server-side work still serializes (see
:class:`~repro.relalg.backends.PipelinedTimeline`).  It schedules the same
per-wire-statement measurements the serial path charges, so with
``window=1`` it degenerates to the serial client byte for byte — the E8
benchmark measures how the overlap closes the gap to the serialized-work
floor.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence, Tuple, Union

from repro.records import FrozenRecord, slot_setters
from repro.relalg.backends import (
    PipelinedTimeline,
    SimulatedBackend,
    StatementCost,
)
from repro.relalg.errors import ExecutionError
from repro.relalg.rowset import ResultSet

__all__ = [
    "ClientCosts",
    "DatabaseClient",
    "NativeClient",
    "BridgedClient",
    "PendingResult",
    "AsyncClient",
]


class ClientCosts(FrozenRecord):
    """Marshalling costs of one client API stack (seconds)."""

    __slots__ = ("per_call", "per_row", "per_param")

    def __init__(self, per_call: float, per_row: float, per_param: float) -> None:
        #: Fixed cost per executed statement (statement preparation, call setup).
        _costs_per_call(self, per_call)
        #: Cost per fetched result row (cursor advance, type conversion).
        _costs_per_row(self, per_row)
        #: Cost per bound parameter.
        _costs_per_param(self, per_param)

    def dispatch_seconds(self, statements: int, params: int) -> float:
        """Send-side marshalling of ``statements`` wire statements binding
        ``params`` parameters in total."""
        return self.per_call * statements + self.per_param * params

    def receive_seconds(self, rows: int) -> float:
        """Receive-side marshalling of ``rows`` fetched result rows."""
        return self.per_row * rows


_costs_per_call, _costs_per_row, _costs_per_param = slot_setters(ClientCosts)


class DatabaseClient:
    """Base class of the two client API layers."""

    #: Human-readable name of the API stack.
    api_name = "abstract"

    def __init__(self, backend: SimulatedBackend, costs: ClientCosts) -> None:
        self.backend = backend
        self.costs = costs
        self.client_time = 0.0
        self.calls = 0
        self.rows_fetched = 0

    # ------------------------------------------------------------------ #

    def execute(self, sql: str, params: Sequence[Any] = ()) -> Union[ResultSet, int]:
        """Execute one statement through this client stack."""
        result = self.backend.execute(sql, params)
        rows = len(result.rows) if isinstance(result, ResultSet) else 0
        self._charge(1, len(params), rows)
        return result

    def executemany(self, sql: str, param_rows: Iterable[Sequence[Any]]) -> int:
        """Execute a parametrised statement over many rows, batched.

        The rows are handed to the backend's batched ``executemany`` (one
        virtual round trip per backend DML batch; SELECTs execute per row —
        they cannot be batched on the wire); the client stack charges its
        marshalling for the wire statements the backend executed — per-call
        once per statement, the binding cost of every parameter they shipped
        and the fetch cost of every returned row — in one charge after the
        backend's.
        """
        backend = self.backend
        statements = backend.statements_executed
        params = backend.params_shipped
        fetched = backend.rows_fetched
        try:
            return backend.executemany(sql, param_rows)
        finally:
            # Also on a failure: the wire statements before it executed and
            # advanced the clock, so their marshalling is charged too.
            self._charge(
                backend.statements_executed - statements,
                backend.params_shipped - params,
                backend.rows_fetched - fetched,
            )

    def _charge(self, statements: int, params: int, rows: int) -> None:
        """Charge the marshalling of executed wire statements serially."""
        overhead = (
            self.costs.dispatch_seconds(statements, params)
            + self.costs.receive_seconds(rows)
        )
        self.client_time += overhead
        self.backend.clock.advance(overhead)
        self.calls += statements
        self.rows_fetched += rows

    def query(self, sql: str, params: Sequence[Any] = ()) -> ResultSet:
        """Execute a statement that must be a SELECT."""
        result = self.execute(sql, params)
        if not isinstance(result, ResultSet):
            raise ExecutionError("query() requires a SELECT statement")
        return result

    def begin(self) -> None:
        """Open a transaction (a normal ``execute``: round trip + marshalling
        charged like any other statement)."""
        self.execute("BEGIN")

    def commit(self) -> None:
        """Commit the open transaction (charged like any other statement)."""
        self.execute("COMMIT")

    def rollback(self) -> None:
        """Roll back the open transaction (charged like any other statement)."""
        self.execute("ROLLBACK")

    def explain(self, sql: str) -> str:
        """EXPLAIN a SELECT through this client (planning introspection only;
        no marshalling or backend costs are charged).  Non-SELECT statements
        raise the engine's typed :class:`ExecutionError`, mirrored unchanged
        through the backend passthrough."""
        return self.backend.explain(sql)

    def fetch_record(self, sql: str, params: Sequence[Any] = ()) -> Tuple[Any, ...]:
        """Fetch exactly one record (the paper's 1 ms-per-record microbenchmark)."""
        result = self.query(sql, params)
        if not result.rows:
            raise LookupError("fetch_record: query returned no rows")
        return result.rows[0]

    def close(self) -> None:
        """Release the backend's engine resources (idempotent)."""
        self.backend.close()

    def __enter__(self) -> "DatabaseClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    @property
    def elapsed(self) -> float:
        """Total virtual time including backend and client overhead."""
        return self.backend.elapsed

    def plan_cache_info(self) -> dict:
        """Plan-cache counters of the engine this client ultimately drives.

        Repeated statements (the pushdown strategy re-runs every compiled
        property query per analysis context) are parsed and planned once;
        re-executions only bind fresh parameters.
        """
        return self.backend.plan_cache_info()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(backend={self.backend.profile.name!r})"


class NativeClient(DatabaseClient):
    """A thin, C-like database driver."""

    api_name = "native"
    #: Marshalling costs of the native stack; :class:`BridgedClient` scales
    #: them.
    COSTS = ClientCosts(per_call=1.5e-5, per_row=2.0e-6, per_param=5.0e-7)

    def __init__(self, backend: SimulatedBackend) -> None:
        super().__init__(backend, self.COSTS)


class PendingResult:
    """Handle to a statement submitted through :class:`AsyncClient`.

    The in-process engine executes eagerly at submit time (results are
    therefore identical to serial execution, in submission order); the handle
    withholds the value until the pipeline is gathered, so that a caller can
    never observe data whose virtual completion time has not been charged
    yet.  ``window=1`` statements complete at submit time (serial execution).
    """

    __slots__ = ("sql", "slot", "_value", "_done")

    def __init__(self, sql: str, value: Any, slot: Any = None, done: bool = False) -> None:
        self.sql = sql
        self.slot = slot
        self._value = value
        self._done = done

    @property
    def done(self) -> bool:
        return self._done

    def result(self) -> Any:
        """The statement's result; raises until the pipeline is gathered."""
        if not self._done:
            raise ExecutionError(
                "statement is still in flight; gather() the pipeline first"
            )
        return self._value

    def _complete(self) -> Any:
        self._done = True
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "done" if self._done else "in flight"
        return f"PendingResult({self.sql[:40]!r}, {state})"


class AsyncClient:
    """Pipelined submit/gather wrapper over a :class:`DatabaseClient`.

    ``submit`` hands a statement to the underlying client stack and returns a
    :class:`PendingResult`; ``gather`` completes everything in flight and
    commits the overlap-aware timing to the backend's virtual clock.  Up to
    ``window`` statements are in flight at once — their network round trips
    overlap, their server-side work serializes, and the client's own
    marshalling stays serial on the dispatch/receive paths.

    ``window=1`` routes every statement through the serial client layer
    directly, so its virtual totals are byte-identical to un-pipelined
    execution — the parity anchor of the E8 benchmark and the overlap-clock
    tests.
    """

    def __init__(self, client: DatabaseClient, window: int = 1) -> None:
        if window < 1:
            raise ValueError(f"window must be positive, got {window}")
        self.client = client
        self.window = window
        self.timeline: Optional[PipelinedTimeline] = (
            PipelinedTimeline(client.backend.clock, window) if window > 1 else None
        )
        self._pending: List[PendingResult] = []

    # ------------------------------------------------------------------ #

    def submit(self, sql: str, params: Sequence[Any] = ()) -> PendingResult:
        """Execute one statement, scheduling its cost on the overlap timeline.

        With ``window=1`` the statement is charged serially and the returned
        handle is already complete; otherwise the handle resolves at the next
        :meth:`gather`.
        """
        if self.timeline is None:
            value = self.client.execute(sql, params)
            pending = PendingResult(sql, value, done=True)
            self._pending.append(pending)
            return pending
        value, cost = self.client.backend.send(sql, params)
        return self._schedule(sql, value, cost, len(params))

    def _schedule(
        self, sql: str, value: Any, cost: StatementCost, shipped: int
    ) -> PendingResult:
        """Schedule one executed wire statement on the overlap timeline and
        charge the client-side marshalling of its ``shipped`` parameters and
        fetched rows."""
        costs = self.client.costs
        fetched = cost.rows_returned
        dispatch = costs.dispatch_seconds(1, shipped)
        receive = costs.receive_seconds(fetched)
        slot = self.timeline.submit(
            cost, dispatch_seconds=dispatch, receive_seconds=receive
        )
        self.client.client_time += dispatch + receive
        self.client.calls += 1
        self.client.rows_fetched += fetched
        pending = PendingResult(sql, value, slot=slot)
        self._pending.append(pending)
        return pending

    def gather(self) -> List[Any]:
        """Complete every in-flight statement; returns results in submit order.

        Commits the scheduled overlap timeline to the backend clock (the
        completion frontier moves to the last statement's completion) and
        resolves every pending handle.
        """
        if self.timeline is not None:
            self.timeline.drain()
        results = [pending._complete() for pending in self._pending]
        self._pending.clear()
        return results

    # ------------------------------------------------------------------ #
    # serial conveniences (submit + gather one statement)
    # ------------------------------------------------------------------ #

    def execute(self, sql: str, params: Sequence[Any] = ()) -> Union[ResultSet, int]:
        """Submit one statement and gather the whole pipeline.

        Anything already in flight completes too — an ``execute`` is a
        synchronization point, exactly like a blocking call on a pipelined
        connection.
        """
        pending = self.submit(sql, params)
        self.gather()
        return pending.result()

    def executemany(self, sql: str, param_rows: Iterable[Sequence[Any]]) -> int:
        """Pipelined counterpart of :meth:`DatabaseClient.executemany`.

        Each wire statement of the backend's batching rule (one per DML
        batch, one per SELECT parameter row) joins the in-flight window.
        Gathers the pipeline before returning — also on a mid-batch failure,
        so the clock always accounts for the batches that did commit.  With
        ``window=1`` this is the serial client's ``executemany`` verbatim.
        """
        rows = list(param_rows)
        if not rows:
            return 0
        if self.timeline is None:
            return self.client.executemany(sql, rows)
        statements = self.client.backend.wire_statements(sql, rows)
        total = 0
        try:
            for count, cost, shipped in statements:
                self._schedule(sql, count, cost, shipped)
                total += count
        finally:
            self.gather()
        return total

    def query(self, sql: str, params: Sequence[Any] = ()) -> ResultSet:
        """Execute a statement that must be a SELECT (a sync point)."""
        result = self.execute(sql, params)
        if not isinstance(result, ResultSet):
            raise ExecutionError("query() requires a SELECT statement")
        return result

    def fetch_record(self, sql: str, params: Sequence[Any] = ()) -> Tuple[Any, ...]:
        """Fetch exactly one record (the paper's per-record microbenchmark)."""
        result = self.query(sql, params)
        if not result.rows:
            raise LookupError("fetch_record: query returned no rows")
        return result.rows[0]

    def begin(self) -> None:
        """Open a transaction (a sync point: gathers the pipeline first, so
        in-flight autocommit statements never land inside the transaction)."""
        self.execute("BEGIN")

    def commit(self) -> None:
        """Commit the open transaction (a sync point)."""
        self.execute("COMMIT")

    def rollback(self) -> None:
        """Roll back the open transaction (a sync point)."""
        self.execute("ROLLBACK")

    def explain(self, sql: str) -> str:
        """EXPLAIN through the wrapped client (introspection; never charged)."""
        return self.client.explain(sql)

    # ------------------------------------------------------------------ #

    @property
    def backend(self) -> SimulatedBackend:
        return self.client.backend

    @property
    def costs(self) -> ClientCosts:
        return self.client.costs

    @property
    def elapsed(self) -> float:
        """Committed virtual time; in-flight statements are not charged yet."""
        return self.client.elapsed

    @property
    def client_time(self) -> float:
        return self.client.client_time

    @property
    def calls(self) -> int:
        return self.client.calls

    @property
    def rows_fetched(self) -> int:
        return self.client.rows_fetched

    @property
    def in_flight(self) -> int:
        """Statements submitted but not yet gathered."""
        return len(self._pending)

    def plan_cache_info(self) -> dict:
        return self.client.plan_cache_info()

    def close(self) -> None:
        """Release the wrapped client's engine resources (idempotent)."""
        self.client.close()

    def __enter__(self) -> "AsyncClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AsyncClient({type(self.client).__name__}, window={self.window}, "
            f"in_flight={len(self._pending)})"
        )


class BridgedClient(DatabaseClient):
    """A JDBC-like bridged driver with higher marshalling costs.

    ``slowdown`` scales the native costs; the paper quotes a factor of two to
    four, the default of 3 sits in the middle of that band.
    """

    api_name = "bridged"

    def __init__(self, backend: SimulatedBackend, slowdown: float = 3.0) -> None:
        if slowdown <= 1.0:
            raise ValueError("the bridged client must be slower than the native one")
        native = NativeClient.COSTS
        super().__init__(
            backend,
            ClientCosts(
                per_call=native.per_call * slowdown,
                per_row=native.per_row * slowdown,
                per_param=native.per_param * slowdown,
            ),
        )
        self.slowdown = slowdown
