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
fetched-row counters.  The charge lands on the backend's serial virtual
clock right after the backend's own.  The batching rule itself lives only in
the backend (:meth:`~repro.relalg.backends.SimulatedBackend.executemany`).
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence, Tuple, Union

from repro.records import FrozenRecord, slot_setters
from repro.relalg.backends import SimulatedBackend
from repro.relalg.errors import ExecutionError
from repro.relalg.rowset import ResultSet

__all__ = [
    "ClientCosts",
    "DatabaseClient",
    "NativeClient",
    "BridgedClient",
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

    def reset_clock(self) -> None:
        """Reset the backend's clock and counters together with this stack's
        ``client_time``, ``calls`` and ``rows_fetched``, so ``client_time``
        stays the part of ``elapsed`` this stack charged (keeps the data and
        the connection)."""
        self.backend.reset_clock()
        self.client_time = 0.0
        self.calls = 0
        self.rows_fetched = 0

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
