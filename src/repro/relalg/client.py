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

On top of either stack, :class:`AsyncClient` adds the era's standard
mitigation for round-trip-bound workloads: **request pipelining**.  Its
submit/gather API keeps up to ``window`` statements in flight; the network
round trips of concurrent statements overlap on the virtual timeline while
the server-side work still serializes (see
:class:`~repro.relalg.backends.PipelinedTimeline`).  With ``window=1`` it
degenerates to the serial client byte for byte — the E8 benchmark measures
how the overlap closes the gap to the serialized-work floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, List, Optional, Sequence, Tuple, Union

from repro.relalg.backends import PipelinedTimeline, SimulatedBackend
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


@dataclass(frozen=True)
class ClientCosts:
    """Marshalling costs of one client API stack (seconds)."""

    #: Fixed cost per executed statement (statement preparation, call setup).
    per_call: float
    #: Cost per fetched result row (cursor advance, type conversion).
    per_row: float
    #: Cost per bound parameter.
    per_param: float


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
        overhead = (
            self.costs.per_call
            + self.costs.per_param * len(params)
            + self.costs.per_row * rows
        )
        self.client_time += overhead
        self.backend.clock.advance(overhead, kind="client")
        self.calls += 1
        self.rows_fetched += rows
        return result

    def executemany(self, sql: str, param_rows: Iterable[Sequence[Any]]) -> int:
        """Execute a parametrised statement over many rows, batched.

        The rows are handed to the backend's batched ``executemany`` (one
        virtual round trip per backend DML batch; SELECTs execute per row —
        they cannot be batched on the wire); the client stack charges its
        per-call marshalling once per backend statement — one per batch for
        DML, one per row for SELECT — plus the per-parameter binding cost and
        the per-row fetch cost of every returned row.
        """
        rows = list(param_rows)
        if not rows:
            return 0
        fetched_before = self.backend.rows_fetched
        statements_before = self.backend.statements_executed
        try:
            total = self.backend.executemany(sql, rows)
        finally:
            # Charge the marshalling of whatever the backend actually
            # applied — on a mid-batch failure earlier sub-batches have
            # committed and advanced the clock, so the client must account
            # for them too.
            fetched = self.backend.rows_fetched - fetched_before
            statements = self.backend.statements_executed - statements_before
            if statements == 0:
                # Nothing executed (e.g. the statement failed to parse):
                # nothing was shipped, and ``sql`` may not even be valid, so
                # don't re-parse it to classify the statement kind.
                shipped: List[Sequence[Any]] = []
            elif self.backend.database.is_select(sql):
                # SELECTs execute per parameter row — one backend statement
                # ships exactly one parameter row, so a mid-run failure must
                # not charge the binding cost of rows that never went out.
                shipped = rows[:statements]
            else:
                # DML ships one backend-sized batch per statement.
                shipped = rows[: statements * self.backend.batch_size]
            overhead = (
                self.costs.per_call * statements
                + self.costs.per_param * sum(len(params) for params in shipped)
                + self.costs.per_row * fetched
            )
            self.client_time += overhead
            self.backend.clock.advance(overhead, kind="client")
            self.calls += statements
            self.rows_fetched += fetched
        return total

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

    def __init__(self, backend: SimulatedBackend) -> None:
        super().__init__(
            backend,
            ClientCosts(per_call=1.5e-5, per_row=2.0e-6, per_param=5.0e-7),
        )


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
    overlap, their server-side work serializes (or follows the per-partition
    makespan when the backend models ``parallelism`` scan workers), and the
    client's own marshalling stays serial on the dispatch/receive paths.

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
        value, cost = self.client.backend.execute_pipelined(sql, params)
        rows = len(value.rows) if isinstance(value, ResultSet) else 0
        return self._schedule(sql, value, cost, len(params), rows)

    def _schedule(self, sql, value, cost, bound_params, fetched_rows) -> PendingResult:
        """Schedule one executed statement on the overlap timeline and charge
        the client-side marshalling (shared by submit and executemany so both
        paths always account under the same rule)."""
        dispatch = (
            self.client.costs.per_call
            + self.client.costs.per_param * bound_params
        )
        receive = self.client.costs.per_row * fetched_rows
        slot = self.timeline.submit(
            cost, dispatch_seconds=dispatch, receive_seconds=receive,
            label=sql[:60],
        )
        self.client.client_time += dispatch + receive
        self.client.calls += 1
        self.client.rows_fetched += fetched_rows
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

        DML parameter rows are split into backend-sized batches and each
        batch's round trip joins the in-flight window; SELECT statements
        (which execute per parameter row) are pipelined row by row.  Gathers
        the pipeline before returning — also on a mid-batch failure, so the
        clock always accounts for the batches that did commit.  With
        ``window=1`` this is the serial client's ``executemany`` verbatim.
        """
        rows = list(param_rows)
        if not rows:
            return 0
        if self.timeline is None:
            return self.client.executemany(sql, rows)
        backend = self.client.backend
        if backend.database.is_select(sql):
            submitted: List[PendingResult] = []
            try:
                for params in rows:
                    submitted.append(self.submit(sql, params))
            finally:
                self.gather()
            return sum(len(pending.result().rows) for pending in submitted)
        total = 0
        try:
            for start in range(0, len(rows), backend.batch_size):
                batch = rows[start:start + backend.batch_size]
                affected, cost = backend.executemany_pipelined(sql, batch)
                total += affected
                self._schedule(
                    sql, affected, cost,
                    sum(len(params) for params in batch), cost.rows_returned,
                )
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
        native = ClientCosts(per_call=1.5e-5, per_row=2.0e-6, per_param=5.0e-7)
        super().__init__(
            backend,
            ClientCosts(
                per_call=native.per_call * slowdown,
                per_row=native.per_row * slowdown,
                per_param=native.per_param * slowdown,
            ),
        )
        self.slowdown = slowdown
