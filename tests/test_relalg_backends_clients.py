"""Tests of the simulated backend cost models and the client API layers."""

import pytest

from repro.bench import identical_table_contents
from repro.relalg import (
    BACKEND_PROFILES,
    AsyncClient,
    BridgedClient,
    ExecutionError,
    IntegrityError,
    NativeClient,
    SimulatedBackend,
    SqlSyntaxError,
    VirtualClock,
    backend,
)


def prepare(simulated: SimulatedBackend, rows: int = 50) -> None:
    simulated.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, x FLOAT)")
    simulated.executemany(
        "INSERT INTO t (id, x) VALUES (?, ?)", [(i + 1, float(i)) for i in range(rows)]
    )


class TestVirtualClock:
    def test_advance_and_reset(self):
        clock = VirtualClock()
        clock.advance(0.5)
        clock.advance(0.25)
        assert clock.elapsed == pytest.approx(0.75)
        clock.reset()
        assert clock.elapsed == 0.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1.0)


class TestBackendProfiles:
    def test_the_four_paper_backends_exist(self):
        assert set(BACKEND_PROFILES) == {
            "oracle7", "ms_sql_server", "postgres", "ms_access",
        }

    def test_only_ms_access_is_local(self):
        assert not BACKEND_PROFILES["ms_access"].remote
        assert BACKEND_PROFILES["oracle7"].remote

    def test_single_record_fetch_from_oracle_is_about_one_millisecond(self):
        # Paper: "fetching a record from the Oracle server takes about 1 ms".
        cost = BACKEND_PROFILES["oracle7"].statement_cost(rows_returned=1)
        assert 0.5e-3 <= cost <= 1.5e-3

    def test_oracle_queries_are_about_twice_as_slow_as_sql_server_and_postgres(self):
        oracle = BACKEND_PROFILES["oracle7"].statement_cost(rows_returned=1)
        mssql = BACKEND_PROFILES["ms_sql_server"].statement_cost(rows_returned=1)
        postgres = BACKEND_PROFILES["postgres"].statement_cost(rows_returned=1)
        assert 1.5 <= oracle / mssql <= 2.5
        assert 1.5 <= oracle / postgres <= 2.5

    def test_ms_access_outperforms_the_server_backends(self):
        access = BACKEND_PROFILES["ms_access"].statement_cost(rows_returned=1)
        for name in ("oracle7", "ms_sql_server", "postgres"):
            assert access < BACKEND_PROFILES[name].statement_cost(rows_returned=1)

    def test_insertion_into_access_is_about_twenty_times_faster_than_oracle(self):
        oracle = BACKEND_PROFILES["oracle7"].statement_cost(rows_inserted=1)
        access = BACKEND_PROFILES["ms_access"].statement_cost(rows_inserted=1)
        assert 10 <= oracle / access <= 30

    def test_unknown_backend_name(self):
        with pytest.raises(KeyError, match="unknown backend"):
            backend("db2")


class TestSimulatedBackend:
    def test_statements_advance_the_virtual_clock(self):
        simulated = backend("oracle7")
        prepare(simulated, rows=10)
        elapsed_after_insert = simulated.elapsed
        assert elapsed_after_insert > 0
        simulated.query("SELECT * FROM t")
        assert simulated.elapsed > elapsed_after_insert

    def test_connection_latency_charged_once(self):
        simulated = backend("oracle7")
        simulated.connect()
        first = simulated.elapsed
        simulated.connect()
        assert simulated.elapsed == first

    def test_bulk_insert_is_cheaper_on_access_than_on_oracle(self):
        oracle = backend("oracle7")
        access = backend("ms_access")
        prepare(oracle, rows=200)
        prepare(access, rows=200)
        # Subtract the one-time connection latencies before comparing.
        oracle_time = oracle.elapsed - oracle.profile.connect_latency
        access_time = access.elapsed - access.profile.connect_latency
        assert 10 <= oracle_time / access_time <= 30

    def test_counters(self):
        simulated = backend("postgres")
        prepare(simulated, rows=5)
        simulated.query("SELECT * FROM t")
        assert simulated.rows_inserted == 5
        assert simulated.rows_fetched == 5
        # create + one executemany insert batch + select
        assert simulated.statements_executed == 3
        simulated.reset_clock()
        assert simulated.elapsed == 0.0
        assert simulated.statements_executed == 0

    def test_results_are_identical_across_backends(self):
        results = {}
        for name in BACKEND_PROFILES:
            simulated = backend(name)
            prepare(simulated, rows=20)
            results[name] = simulated.query("SELECT SUM(x) FROM t").scalar()
        assert len(set(results.values())) == 1


class TestClientLayers:
    def test_bridged_client_is_two_to_four_times_slower(self):
        # Paper: JDBC access is a factor of two to four slower than C.
        native = NativeClient(backend("oracle7"))
        bridged = BridgedClient(backend("oracle7"))
        for client in (native, bridged):
            prepare(client.backend, rows=1)
            client.backend.reset_clock()
            for i in range(100):
                client.fetch_record("SELECT x FROM t WHERE id = ?", [1])
        assert bridged.client_time / native.client_time == pytest.approx(3.0, rel=0.01)
        assert 2.0 <= bridged.slowdown <= 4.0

    def test_fetch_record_requires_a_row(self):
        client = NativeClient(backend("ms_access"))
        prepare(client.backend, rows=1)
        with pytest.raises(LookupError):
            client.fetch_record("SELECT x FROM t WHERE id = ?", [999])

    def test_client_overhead_is_added_to_the_backend_clock(self):
        client = NativeClient(backend("ms_access"))
        prepare(client.backend, rows=1)
        before = client.backend.elapsed
        client.query("SELECT * FROM t")
        assert client.backend.elapsed > before
        assert client.calls == 1
        assert client.rows_fetched == 1

    def test_executemany_counts_affected_rows(self):
        client = NativeClient(backend("ms_access"))
        client.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, x FLOAT)")
        affected = client.executemany(
            "INSERT INTO t (id, x) VALUES (?, ?)", [(1, 1.0), (2, 2.0)]
        )
        assert affected == 2

    def test_bridged_slowdown_must_exceed_one(self):
        with pytest.raises(ValueError):
            BridgedClient(backend("ms_access"), slowdown=0.5)


class TestExecutemanyAccounting:
    """Regression pins for the client-side executemany marshalling charge.

    ``executemany`` over a SELECT executes one backend statement *per
    parameter row* (result sets cannot be batched on the wire), so the
    per-parameter binding charge must follow the per-row statement count —
    not the DML batch size, which used to over-slice the shipped rows on a
    mid-run failure.
    """

    def _client(self, rows=10):
        client = NativeClient(backend("oracle7"))
        prepare(client.backend, rows=rows)
        client.backend.reset_clock()
        client.client_time = 0.0
        client.calls = 0
        client.rows_fetched = 0
        return client

    def test_select_executemany_charges_one_row_per_statement(self):
        client = self._client()
        param_rows = [(1,), (2,), (999,)]
        total = client.executemany("SELECT x FROM t WHERE id = ?", param_rows)
        assert total == 2  # id 999 matches nothing
        assert client.calls == 3
        expected = (
            client.costs.per_call * 3
            + client.costs.per_param * 3
            + client.costs.per_row * 2
        )
        assert client.client_time == expected

    def test_select_mid_run_failure_charges_only_shipped_rows(self):
        client = self._client()
        # The third parameter row is missing its binding: the first two
        # statements execute (and are charged), the rest never ship.
        with pytest.raises(ExecutionError):
            client.executemany(
                "SELECT x FROM t WHERE id = ?", [(1,), (2,), (), (4,), (5,)]
            )
        assert client.calls == 2
        expected = (
            client.costs.per_call * 2
            + client.costs.per_param * 2
            + client.costs.per_row * 2
        )
        assert client.client_time == expected

    def test_dml_mid_batch_failure_charges_committed_batches(self):
        client = NativeClient(backend("oracle7"))
        client.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, x FLOAT)")
        client.client_time = 0.0
        client.calls = 0
        rows = [(i + 1, float(i)) for i in range(120)]
        rows.append((1, 0.0))  # duplicate key in the second batch
        from repro.relalg import IntegrityError

        with pytest.raises(IntegrityError):
            client.executemany("INSERT INTO t (id, x) VALUES (?, ?)", rows)
        # One full batch of batch_size rows committed and is charged.
        assert client.calls == 1
        size = client.backend.batch_size
        expected = client.costs.per_call + client.costs.per_param * 2 * size
        assert client.client_time == expected

    def test_parse_failure_ships_and_charges_nothing(self):
        client = self._client()
        with pytest.raises(SqlSyntaxError):
            client.executemany("SELEC x FROM t", [(1,), (2,)])
        assert client.calls == 0
        assert client.client_time == 0.0


# --------------------------------------------------------------------------- #
# the client stack charges what was shipped: serial ≡ depth-1 pipeline
# --------------------------------------------------------------------------- #

_INSERT = "INSERT INTO t (id, x) VALUES (?, ?)"


def _execute(client):
    for key in (3, 17, 42, 999):
        client.execute("SELECT x FROM t WHERE id = ?", [key])
    client.execute(_INSERT, [1000, 1.0])
    client.execute("DELETE FROM t WHERE x > ?", [45.5])


def _dml_executemany(client):
    # 30 rows at batch size 7: batches of 7, 7, 7, 7 and 2 rows.
    assert client.executemany(
        _INSERT, [(100 + i, float(i)) for i in range(30)]
    ) == 30


def _select_executemany(client):
    assert client.executemany(
        "SELECT x FROM t WHERE id > ?", [(0,), (10,), (45,), (60,)]
    ) == 50 + 40 + 5


def _duplicate_in_third_batch(client):
    rows = [(100 + i, float(i)) for i in range(20)]
    rows[16] = (3, 0.0)  # a stored key, inside the third batch (rows 14-20)
    with pytest.raises(IntegrityError):
        client.executemany(_INSERT, rows)


def _select_fails_on_fourth_row(client):
    with pytest.raises(ExecutionError):
        client.executemany(
            "SELECT x FROM t WHERE id = ?", [(1,), (2,), (3,), (), (5,)]
        )


_SCENARIOS = [
    pytest.param(_execute, id="execute"),
    pytest.param(_dml_executemany, id="dml-executemany"),
    pytest.param(_select_executemany, id="select-executemany"),
    pytest.param(_duplicate_in_third_batch, id="duplicate-in-third-batch"),
    pytest.param(_select_fails_on_fourth_row, id="select-fails-on-fourth-row"),
]


def _run(factory, scenario, window=None):
    client = factory(SimulatedBackend(BACKEND_PROFILES["oracle7"], batch_size=7))
    layer = client if window is None else AsyncClient(client, window=window)
    layer.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, x FLOAT)")
    layer.executemany(_INSERT, [(i + 1, float(i)) for i in range(50)])
    scenario(layer)
    return layer


class TestClientStackChargesWhatWasShipped:
    """``DatabaseClient`` and ``AsyncClient`` schedule the same per-wire-
    statement measurements: at window 1 every virtual time is bit for bit
    the serial one, and at window 8 the work done is the same."""

    @pytest.mark.parametrize("factory", [NativeClient, BridgedClient])
    @pytest.mark.parametrize("scenario", _SCENARIOS)
    def test_depth_one_pipeline_is_bit_identical(self, factory, scenario):
        serial = _run(factory, scenario)
        piped = _run(factory, scenario, window=1)
        assert piped.elapsed.hex() == serial.elapsed.hex()
        assert piped.client_time.hex() == serial.client_time.hex()
        assert (piped.calls, piped.rows_fetched) == (
            serial.calls, serial.rows_fetched
        )

    @pytest.mark.parametrize("factory", [NativeClient, BridgedClient])
    @pytest.mark.parametrize("scenario", _SCENARIOS)
    def test_deep_pipeline_ships_the_same_work(self, factory, scenario):
        serial = _run(factory, scenario)
        piped = _run(factory, scenario, window=8)
        assert piped.in_flight == 0
        assert (piped.calls, piped.rows_fetched) == (
            serial.calls, serial.rows_fetched
        )
        assert piped.backend.params_shipped == serial.backend.params_shipped
        assert identical_table_contents(
            serial.backend.database, piped.backend.database
        )

    def test_executemany_charges_the_shipped_parameters(self):
        serial = _run(NativeClient, _duplicate_in_third_batch)
        # Setup: CREATE (0 parameters) and 50 rows in 8 batches; then two
        # full batches of the failing run committed before the third raised.
        assert serial.backend.statements_executed == 1 + 8 + 2
        assert serial.backend.params_shipped == 2 * (50 + 14)
