"""Tests of the simulated backend cost models and the client API layers."""

import random

import pytest

from repro.bench import PerEntryPushdownStrategy, build_scenario, load_into_backend
from repro.cosy import ClientSideStrategy, PushdownStrategy
from repro.relalg import (
    BACKEND_PROFILES,
    BridgedClient,
    Database,
    ExecutionError,
    IntegrityError,
    NativeClient,
    SimulatedBackend,
    SqlSyntaxError,
    VirtualClock,
    backend,
)

from test_property_based import _random_databases, _random_select


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

    def test_serial_totals_match_the_scalar_arithmetic(self):
        # The clock accumulates with `elapsed += seconds`, one float addition
        # per charge, exactly like a scalar accumulator.
        clock = VirtualClock()
        scalar = 0.0
        for seconds in (0.1, 0.07, 1.3e-4, 2.9e-7):
            clock.advance(seconds)
            scalar += seconds
        assert clock.elapsed == scalar


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
            client.reset_clock()
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

    @pytest.mark.parametrize("factory", [NativeClient, BridgedClient])
    def test_reset_clock_resets_the_client_counters_with_the_backend(self, factory):
        client = factory(backend("oracle7"))
        client.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, x FLOAT)")
        client.executemany(
            "INSERT INTO t (id, x) VALUES (?, ?)", [(i, float(i)) for i in range(10)]
        )
        client.query("SELECT x FROM t")
        assert client.client_time > 0 and client.calls and client.rows_fetched
        client.reset_clock()
        assert client.client_time == client.elapsed == 0.0
        assert client.calls == client.rows_fetched == 0
        assert client.backend.statements_executed == client.backend.rows_fetched == 0
        # The data stays, and the clock restarts from zero with both parts.
        assert client.query("SELECT COUNT(*) FROM t").scalar() == 10
        assert 0 < client.client_time < client.elapsed
        assert client.calls == client.rows_fetched == 1

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
        client.reset_clock()
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
        client.reset_clock()
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
# the client stack charges what was shipped, on a serial clock pinned bit for bit
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


def _run(client, scenario):
    client.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, x FLOAT)")
    client.executemany(_INSERT, [(i + 1, float(i)) for i in range(50)])
    scenario(client)
    return client


_PROFILES = list(BACKEND_PROFILES)


def _clock(client):
    return client.elapsed.hex(), client.client_time.hex()


#: ``float.hex()`` of ``(elapsed, client_time)`` after each scenario, per
#: backend profile and client stack.  A virtual time is a sum of floats, so
#: it keeps these bits only while every charge keeps its value and its
#: place: ``execute`` charges the statement's cost, then the client's
#: marshalling; ``executemany`` charges one cost per wire statement in
#: order, then one aggregated marshalling charge, also when a later batch
#: raises; the connection is charged once.
_PINNED_SCENARIO_CLOCKS = {
    ("oracle7", "native", "execute"): ("0x1.5886594af4f0fp-4", "0x1.2a51e321a2e80p-12"),
    ("oracle7", "native", "dml_executemany"): ("0x1.824b33daf8df5p-4", "0x1.30164840e171ap-12"),
    ("oracle7", "native", "select_executemany"): ("0x1.e66dbd72bcb5fp-4", "0x1.ca3a4b5568e82p-12"),
    ("oracle7", "native", "duplicate_in_third_batch"): ("0x1.5b9f98b71b8a9p-4", "0x1.e03f705857b00p-13"),
    ("oracle7", "native", "select_fails_on_fourth_row"): ("0x1.4aceaaf35e311p-4", "0x1.f212d77318fc6p-13"),
    ("oracle7", "bridged", "execute"): ("0x1.5adafd113836bp-4", "0x1.bf7ad4b2745c0p-11"),
    ("oracle7", "bridged", "dml_executemany"): ("0x1.84ab606b7aa23p-4", "0x1.c8216c61522a8p-11"),
    ("oracle7", "bridged", "select_executemany"): ("0x1.ea0232096787dp-4", "0x1.57abb8800eae2p-10"),
    ("oracle7", "bridged", "duplicate_in_third_batch"): ("0x1.5d7fd82773e23p-4", "0x1.682f944241c40p-11"),
    ("oracle7", "bridged", "select_fails_on_fourth_row"): ("0x1.4cc0bdcad14a1p-4", "0x1.758e219652bd4p-11"),
    ("ms_sql_server", "native", "execute"): ("0x1.788ca3e7d1350p-5", "0x1.2a51e321a2e80p-12"),
    ("ms_sql_server", "native", "dml_executemany"): ("0x1.9bf9c62a1b5c4p-5", "0x1.30164840e171ap-12"),
    ("ms_sql_server", "native", "select_executemany"): ("0x1.03d68405b39e2p-4", "0x1.ca3a4b5568e82p-12"),
    ("ms_sql_server", "native", "duplicate_in_third_batch"): ("0x1.7840181e03f6ep-5", "0x1.e03f705857b00p-13"),
    ("ms_sql_server", "native", "select_fails_on_fourth_row"): ("0x1.6a6e32e3821aep-5", "0x1.f212d77318fc6p-13"),
    ("ms_sql_server", "bridged", "execute"): ("0x1.7d35eb7457c08p-5", "0x1.bf7ad4b2745c0p-11"),
    ("ms_sql_server", "bridged", "dml_executemany"): ("0x1.a0ba1f4b1ee20p-5", "0x1.c8216c61522a8p-11"),
    ("ms_sql_server", "bridged", "select_executemany"): ("0x1.076af89c5e6ffp-4", "0x1.57abb8800eae2p-10"),
    ("ms_sql_server", "bridged", "duplicate_in_third_batch"): ("0x1.7c0096feb4a63p-5", "0x1.682f944241c40p-11"),
    ("ms_sql_server", "bridged", "select_fails_on_fourth_row"): ("0x1.6e525892684cdp-5", "0x1.758e219652bd4p-11"),
    ("postgres", "native", "execute"): ("0x1.826c8c1a55160p-5", "0x1.2a51e321a2e80p-12"),
    ("postgres", "native", "dml_executemany"): ("0x1.a915379fa97e5p-5", "0x1.30164840e171ap-12"),
    ("postgres", "native", "select_executemany"): ("0x1.0c3c18b502abdp-4", "0x1.ca3a4b5568e82p-12"),
    ("postgres", "native", "duplicate_in_third_batch"): ("0x1.8292817763e4ep-5", "0x1.e03f705857b00p-13"),
    ("postgres", "native", "select_fails_on_fourth_row"): ("0x1.735cb93e7a8f3p-5", "0x1.f212d77318fc6p-13"),
    ("postgres", "bridged", "execute"): ("0x1.8715d3a6dba18p-5", "0x1.bf7ad4b2745c0p-11"),
    ("postgres", "bridged", "dml_executemany"): ("0x1.add590c0ad041p-5", "0x1.c8216c61522a8p-11"),
    ("postgres", "bridged", "select_executemany"): ("0x1.0fd08d4bad7d9p-4", "0x1.57abb8800eae2p-10"),
    ("postgres", "bridged", "duplicate_in_third_batch"): ("0x1.8653005814943p-5", "0x1.682f944241c40p-11"),
    ("postgres", "bridged", "select_fails_on_fourth_row"): ("0x1.7740deed60c12p-5", "0x1.758e219652bd4p-11"),
    ("ms_access", "native", "execute"): ("0x1.0f3882278d0cdp-8", "0x1.2a51e321a2e80p-12"),
    ("ms_access", "native", "dml_executemany"): ("0x1.2e72da122fad7p-8", "0x1.30164840e171ap-12"),
    ("ms_access", "native", "select_executemany"): ("0x1.243137b07075dp-7", "0x1.ca3a4b5568e82p-12"),
    ("ms_access", "native", "duplicate_in_third_batch"): ("0x1.0a02b841248d8p-8", "0x1.e03f705857b00p-13"),
    ("ms_access", "native", "select_fails_on_fourth_row"): ("0x1.ff3f0fe047d3dp-9", "0x1.f212d77318fc6p-13"),
    ("ms_access", "bridged", "execute"): ("0x1.3482be8bc169ap-8", "0x1.bf7ad4b2745c0p-11"),
    ("ms_access", "bridged", "dml_executemany"): ("0x1.5475a31a4bdbap-8", "0x1.c8216c61522a8p-11"),
    ("ms_access", "bridged", "select_executemany"): ("0x1.40d4dc65c7044p-7", "0x1.57abb8800eae2p-10"),
    ("ms_access", "bridged", "duplicate_in_third_batch"): ("0x1.2806af46aa088p-8", "0x1.682f944241c40p-11"),
    ("ms_access", "bridged", "select_fails_on_fourth_row"): ("0x1.1ec0b5675579ap-8", "0x1.758e219652bd4p-11"),
}

#: ``(elapsed, client_time)`` after loading the ``mixed`` scenario on 1, 2,
#: 4 and 8 PEs, then after the per-entry pushdown analysis of its 8-PE run
#: (108 statements: every entry, folded or not, is one statement).
_PINNED_ANALYSIS_CLOCKS = {
    ("oracle7", "native"): (("0x1.54a05dd8f92b4p-3", "0x1.845dc83233590p-10"), ("0x1.1d992428d434bp-2", "0x1.c4c9c90c4deb9p-9")),
    ("oracle7", "bridged"): (("0x1.5ab1d4f9c1f8bp-3", "0x1.23465625a682bp-8"), ("0x1.24ac4b4d056cbp-2", "0x1.539756c93a718p-7")),
    ("ms_sql_server", "native"): (("0x1.480389f83be6bp-4", "0x1.845dc83233590p-10"), ("0x1.1aa60913a4f8ap-3", "0x1.c4c9c90c4deb9p-9")),
    ("ms_sql_server", "bridged"): (("0x1.54267839cd819p-4", "0x1.23465625a682bp-8"), ("0x1.28cc575c07677p-3", "0x1.539756c93a718p-7")),
    ("postgres", "native"): (("0x1.59767903211cfp-4", "0x1.845dc83233590p-10"), ("0x1.2a469d7342ed7p-3", "0x1.c4c9c90c4deb9p-9")),
    ("postgres", "bridged"): (("0x1.65996744b2b7ep-4", "0x1.23465625a682bp-8"), ("0x1.386cebbba55d2p-3", "0x1.539756c93a718p-7")),
    ("ms_access", "native"): (("0x1.39a38fbca1058p-7", "0x1.845dc83233590p-10"), ("0x1.4e63a5c1c6096p-6", "0x1.c4c9c90c4deb9p-9")),
    ("ms_access", "bridged"): (("0x1.9abb01c92ddbcp-7", "0x1.23465625a682bp-8"), ("0x1.bf961804d983ap-6", "0x1.539756c93a718p-7")),
}

#: ``(elapsed, client_time)`` after the same load and the pushdown analysis
#: with folded entries (69 statements: the translator folds the 39 entries
#: that read no data, ``CONFIDENCE: 1`` and FrequentBarrier's ``0.8``).
_PINNED_FOLDED_ANALYSIS_CLOCKS = {
    ("oracle7", "native"): ("0x1.e9ce8d972cd7ap-3", "0x1.6de33269df96cp-9"),
    ("oracle7", "bridged"): ("0x1.f53da72a7bd4cp-3", "0x1.126a65cf67b1dp-7"),
    ("ms_sql_server", "native"): ("0x1.e2784a9478ca7p-4", "0x1.6de33269df96cp-9"),
    ("ms_sql_server", "bridged"): ("0x1.f9567dbb16c2ep-4", "0x1.126a65cf67b1dp-7"),
    ("postgres", "native"): ("0x1.fcea86f1f72a7p-4", "0x1.6de33269df96cp-9"),
    ("postgres", "bridged"): ("0x1.09e45d0c4a919p-3", "0x1.126a65cf67b1dp-7"),
    ("ms_access", "native"): ("0x1.1628cbd1244a9p-6", "0x1.6de33269df96cp-9"),
    ("ms_access", "bridged"): ("0x1.71a1986b9c2ffp-6", "0x1.126a65cf67b1dp-7"),
}

#: ``(elapsed, client_time)`` after the same load and the client-side
#: analysis that fetches each context's data components (204 statements: a
#: region's TotalTiming and TypedTiming rows, a call site's CallTiming rows,
#: a test run's own row).
_PINNED_FETCH_ANALYSIS_CLOCKS = {
    ("oracle7", "native"): ("0x1.f3cb790fb6544p+0", "0x1.a582dbe7f2c1ep-7"),
    ("oracle7", "bridged"): ("0x1.fa61847f56213p+0", "0x1.3c2224edf6129p-5"),
    ("ms_sql_server", "native"): ("0x1.f62f2734f8303p-1", "0x1.a582dbe7f2c1ep-7"),
    ("ms_sql_server", "bridged"): ("0x1.01ad9f0a1be36p+0", "0x1.3c2224edf6129p-5"),
    ("postgres", "native"): ("0x1.07da9c99285a1p+0", "0x1.a582dbe7f2c1ep-7"),
    ("postgres", "bridged"): ("0x1.0e70a808c8259p+0", "0x1.3c2224edf6129p-5"),
    ("ms_access", "native"): ("0x1.e08cc575c0788p-3", "0x1.a582dbe7f2c1ep-7"),
    ("ms_access", "bridged"): ("0x1.0a9e90795f685p-2", "0x1.3c2224edf6129p-5"),
}

#: ``(elapsed, client_time)`` of E6's batched and row-at-a-time loads of its
#: medium scenario (``benchmarks/run_bench.py``).
_PINNED_E6_LOAD_CLOCKS = {
    ("oracle7", "batched"): ("0x1.43c17a893319fp-1", "0x1.d25247cb70ac3p-8"),
    ("oracle7", "row-at-a-time"): ("0x1.04479b34a432fp+2", "0x1.2ac42e9899bedp-5"),
    ("ms_sql_server", "batched"): ("0x1.10665e02ea960p-2", "0x1.d25247cb70ac3p-8"),
    ("ms_sql_server", "row-at-a-time"): ("0x1.0740fa9c12e34p+1", "0x1.2ac42e9899bedp-5"),
    ("postgres", "batched"): ("0x1.26cb74ddf86e2p-2", "0x1.d25247cb70ac3p-8"),
    ("postgres", "row-at-a-time"): ("0x1.19153bd16757bp+1", "0x1.2ac42e9899bedp-5"),
    ("ms_access", "batched"): ("0x1.5461b6d43d03bp-5", "0x1.d25247cb70ac3p-8"),
    ("ms_access", "row-at-a-time"): ("0x1.e5e39713ad507p-3", "0x1.2ac42e9899bedp-5"),
}


@pytest.fixture(scope="module")
def mixed_scenario(cosy_spec):
    return build_scenario("mixed", pe_counts=(1, 2, 4, 8), specification=cosy_spec)


@pytest.fixture(scope="module")
def e6_scenario(cosy_spec):
    """The medium scenario E6 loads."""
    return build_scenario(
        "scalable", pe_counts=(1, 4, 16), specification=cosy_spec,
        functions=8, regions_per_function=6, calls_per_region=2,
    )


class TestSerialClockIsPinned:
    """Every virtual time of the serial cost path, bit for bit: a moved,
    merged or split charge changes the last bits of E3, A1, E6 and
    perfbench's ``virtual_db_ms``, and fails here first."""

    @pytest.mark.parametrize("backend_name", _PROFILES)
    @pytest.mark.parametrize("factory", [NativeClient, BridgedClient])
    @pytest.mark.parametrize("scenario", _SCENARIOS)
    def test_client_stack_scenario(self, backend_name, factory, scenario):
        client = factory(
            SimulatedBackend(BACKEND_PROFILES[backend_name], batch_size=7)
        )
        _run(client, scenario)
        key = (backend_name, factory.api_name, scenario.__name__.lstrip("_"))
        assert _clock(client) == _PINNED_SCENARIO_CLOCKS[key]

    @pytest.mark.parametrize("backend_name", _PROFILES)
    @pytest.mark.parametrize("factory", [NativeClient, BridgedClient])
    def test_pushdown_analysis(self, mixed_scenario, backend_name, factory):
        key = backend_name, factory.api_name
        for strategy_class, statements, expected in (
            (PerEntryPushdownStrategy, 108, _PINNED_ANALYSIS_CLOCKS[key]),
            (PushdownStrategy, 69, (
                _PINNED_ANALYSIS_CLOCKS[key][0], _PINNED_FOLDED_ANALYSIS_CLOCKS[key]
            )),
        ):
            client, ids = load_into_backend(
                mixed_scenario, backend_name, client_factory=factory
            )
            loaded = _clock(client)
            strategy = strategy_class(
                mixed_scenario.specification, mixed_scenario.mapping, client, ids
            )
            mixed_scenario.analyzer.analyze(strategy=strategy)
            assert strategy.statements_issued == statements, strategy_class
            assert (loaded, _clock(client)) == expected, strategy_class

    @pytest.mark.parametrize("backend_name", _PROFILES)
    @pytest.mark.parametrize("factory", [NativeClient, BridgedClient])
    def test_client_side_fetch_analysis(self, mixed_scenario, backend_name, factory):
        key = backend_name, factory.api_name
        client, ids = load_into_backend(
            mixed_scenario, backend_name, client_factory=factory
        )
        loaded = _clock(client)
        strategy = ClientSideStrategy(
            mixed_scenario.specification, client=client, ids=ids
        )
        mixed_scenario.analyzer.analyze(strategy=strategy)
        assert strategy.statements_issued == 204
        assert (loaded, _clock(client)) == (
            _PINNED_ANALYSIS_CLOCKS[key][0], _PINNED_FETCH_ANALYSIS_CLOCKS[key]
        )

    @pytest.mark.parametrize("backend_name", _PROFILES)
    @pytest.mark.parametrize(
        "load, batch_size", [("batched", 100), ("row-at-a-time", None)]
    )
    def test_e6_load(self, e6_scenario, backend_name, load, batch_size):
        client, _ = load_into_backend(
            e6_scenario, backend_name, batch_size=batch_size
        )
        assert _clock(client) == _PINNED_E6_LOAD_CLOCKS[backend_name, load]


class TestClientStackChargesWhatWasShipped:
    def test_executemany_charges_the_shipped_parameters(self):
        serial = _run(
            NativeClient(SimulatedBackend(BACKEND_PROFILES["oracle7"], batch_size=7)),
            _duplicate_in_third_batch,
        )
        # Setup: CREATE (0 parameters) and 50 rows in 8 batches; then two
        # full batches of the failing run committed before the third raised.
        assert serial.backend.statements_executed == 1 + 8 + 2
        assert serial.backend.params_shipped == 2 * (50 + 14)


class TestFuzzerReplayThroughClient:
    """The engine fuzzer's seeded SELECTs return the interpreter's rows
    through client → backend → engine."""

    @pytest.mark.parametrize("factory", [NativeClient, BridgedClient])
    @pytest.mark.parametrize("seed", range(0, 42, 7))
    def test_fuzzer_seeds_replayed_identically(self, seed, factory):
        rng = random.Random(seed)
        compiled, _rowwise, interpreted = _random_databases(rng)
        selects = [_random_select(rng) for _ in range(4)]
        client = factory(
            SimulatedBackend(BACKEND_PROFILES["oracle7"], database=compiled)
        )
        for sql, params in selects:
            expected = interpreted.query(sql, params)
            got = client.query(sql, params)
            assert got.columns == expected.columns, sql
            assert got.rows == expected.rows, sql


class TestExplainTypedErrors:
    def test_non_string_input_raises_execution_error(self):
        with pytest.raises(ExecutionError, match="SQL text"):
            Database().explain(None)

    def test_interpreted_engine_refuses_explain(self):
        db = Database(engine="interpreted")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        with pytest.raises(ExecutionError, match="compiled engine"):
            db.explain("SELECT * FROM t")
        # The refusal must not have cached a plan the engine never runs.
        assert db.plan_cache_info()["size"] == 0

    def test_non_select_raises_through_every_layer(self):
        client = NativeClient(backend("ms_access"))
        client.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        for layer in (client.backend.database, client.backend, client):
            with pytest.raises(ExecutionError, match="SELECT"):
                layer.explain("DELETE FROM t")
            with pytest.raises(ExecutionError, match="SQL text"):
                layer.explain(42)
