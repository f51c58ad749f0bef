"""Tests of the overlap-aware virtual clock and the pipelined client layer.

Covers the PR-4 contract:

* the serial clock keeps only its completion frontier, whose totals are
  byte-identical to the historical scalar accumulator;
* ``AsyncClient`` at ``window=1`` is byte-identical to the serial client
  stack (the E2 fetch loop and the E6 bulk load are the anchors);
* at ``window>1`` round trips overlap but the reported elapsed time never
  drops below the serialized server work;
* results through the pipeline are identical to serial execution —
  including a replay of the engine differential fuzzer's seeded cases.
"""

import random

import pytest

from repro.bench import identical_table_contents
from repro.relalg import (
    BACKEND_PROFILES,
    AsyncClient,
    BridgedClient,
    Database,
    ExecutionError,
    IntegrityError,
    NativeClient,
    PipelinedTimeline,
    SimulatedBackend,
    StatementCost,
    VirtualClock,
    backend,
)

from test_property_based import _random_databases, _random_select


def prepare(client, rows=64):
    client.execute("CREATE TABLE probe (id INTEGER PRIMARY KEY, x FLOAT)")
    client.executemany(
        "INSERT INTO probe (id, x) VALUES (?, ?)",
        [(i + 1, float(i)) for i in range(rows)],
    )
    client.backend.reset_clock()
    client.client_time = 0.0
    return client


def fetch_ids(count, table_rows=64):
    return [(i * 37) % table_rows + 1 for i in range(count)]


class TestTimelineClock:
    def test_serial_totals_match_the_scalar_arithmetic(self):
        # The frontier accumulates with `elapsed += seconds`, exactly like
        # the pre-timeline scalar clock.
        clock = VirtualClock()
        scalar = 0.0
        for seconds in (0.1, 0.07, 1.3e-4, 2.9e-7):
            clock.advance(seconds)
            scalar += seconds
        assert clock.elapsed == scalar

    def test_advance_to_is_monotone(self):
        clock = VirtualClock()
        clock.advance(1.0)
        clock.advance_to(0.5)  # behind the frontier: no-op
        assert clock.elapsed == 1.0
        clock.advance_to(2.5)
        assert clock.elapsed == 2.5

    def test_reset_clears_the_timeline(self):
        clock = VirtualClock()
        clock.advance(1.0)
        clock.reset()
        assert clock.elapsed == 0.0


class TestStatementCost:
    def test_total_reproduces_the_profile_arithmetic(self):
        profile = BACKEND_PROFILES["oracle7"]
        cost = StatementCost(profile, rows_inserted=3, rows_returned=2, rows_scanned=7)
        assert cost.total == profile.statement_cost(
            rows_inserted=3, rows_returned=2, rows_scanned=7
        )

    def test_component_split_covers_the_round_trip(self):
        profile = BACKEND_PROFILES["postgres"]
        cost = StatementCost(profile, 0, 5, 100)
        wire = cost.request_seconds + cost.response_seconds
        assert wire == pytest.approx(profile.round_trip + 5 * profile.per_fetch_row)
        assert cost.server_seconds == pytest.approx(100 * profile.per_scanned_row)

    def test_insert_statement_overhead_is_server_side(self):
        profile = BACKEND_PROFILES["ms_access"]
        none = StatementCost(profile, 0, 0, 0)
        some = StatementCost(profile, 10, 0, 0)
        assert none.server_seconds == 0.0
        assert some.server_seconds == pytest.approx(
            10 * profile.per_insert_row + profile.per_insert_statement
        )


class TestPipelinedTimeline:
    profile = BACKEND_PROFILES["oracle7"]

    def _cost(self, scanned=1, returned=1):
        return StatementCost(self.profile, 0, returned, scanned)

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            PipelinedTimeline(VirtualClock(), 0)

    def test_window_one_serializes_submissions(self):
        timeline = PipelinedTimeline(VirtualClock(), window=1)
        first = timeline.submit(self._cost())
        second = timeline.submit(self._cost())
        assert second.submitted == first.completed

    def test_window_bounds_the_in_flight_statements(self):
        timeline = PipelinedTimeline(VirtualClock(), window=2)
        slots = [timeline.submit(self._cost()) for _ in range(4)]
        # Statement 2 may not leave the client before statement 0 completed.
        assert slots[2].submitted >= slots[0].completed
        assert slots[3].submitted >= slots[1].completed

    def test_server_work_serializes(self):
        timeline = PipelinedTimeline(VirtualClock(), window=8)
        slots = [timeline.submit(self._cost(scanned=500)) for _ in range(6)]
        for previous, current in zip(slots, slots[1:]):
            assert current.server_start >= previous.server_end
        elapsed = timeline.drain()
        assert elapsed >= sum(slot.server_seconds for slot in slots)

    def test_round_trips_overlap_inside_the_window(self):
        timeline = PipelinedTimeline(VirtualClock(), window=8)
        slots = [timeline.submit(self._cost()) for _ in range(8)]
        # The second statement is dispatched long before the first completes.
        assert slots[1].submitted < slots[0].completed

    def test_drain_commits_events_and_is_idempotent(self):
        clock = VirtualClock()
        timeline = PipelinedTimeline(clock, window=4)
        for _ in range(3):
            timeline.submit(self._cost())
        elapsed = timeline.drain()
        assert clock.elapsed == elapsed
        assert timeline.pending == 0
        assert timeline.drain() == elapsed

    def test_completions_stay_in_submission_order(self):
        timeline = PipelinedTimeline(VirtualClock(), window=8)
        light = timeline.submit(self._cost(scanned=1000))
        heavy = timeline.submit(self._cost(scanned=1))
        assert heavy.completed >= light.completed


class TestAsyncClientSerialParity:
    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            AsyncClient(NativeClient(backend("ms_access")), window=0)

    @pytest.mark.parametrize("factory", [NativeClient, BridgedClient])
    def test_fetch_loop_at_window_one_is_byte_identical(self, factory):
        serial = prepare(factory(backend("oracle7")))
        for fid in fetch_ids(50):
            serial.fetch_record("SELECT x FROM probe WHERE id = ?", [fid])

        piped = prepare(factory(backend("oracle7")))
        async_client = AsyncClient(piped, window=1)
        for fid in fetch_ids(50):
            async_client.submit("SELECT x FROM probe WHERE id = ?", [fid])
        async_client.gather()

        assert async_client.elapsed == serial.elapsed
        assert async_client.client_time == serial.client_time
        assert async_client.calls == serial.calls

    def test_bulk_load_at_window_one_is_byte_identical(self):
        rows = [(i + 1, float(i)) for i in range(230)]
        serial = NativeClient(backend("oracle7"))
        serial.execute("CREATE TABLE probe (id INTEGER PRIMARY KEY, x FLOAT)")
        serial.executemany("INSERT INTO probe (id, x) VALUES (?, ?)", rows)

        piped = AsyncClient(NativeClient(backend("oracle7")), window=1)
        piped.execute("CREATE TABLE probe (id INTEGER PRIMARY KEY, x FLOAT)")
        affected = piped.executemany("INSERT INTO probe (id, x) VALUES (?, ?)", rows)

        assert affected == len(rows)
        assert piped.elapsed == serial.elapsed

    def test_window_one_results_complete_at_submit(self):
        client = prepare(NativeClient(backend("ms_access")))
        pending = AsyncClient(client, window=1).submit(
            "SELECT x FROM probe WHERE id = ?", [3]
        )
        assert pending.done
        assert pending.result().rows == [(2.0,)]


class TestAsyncClientOverlap:
    def test_pipelining_overlaps_round_trips(self):
        serial = prepare(NativeClient(backend("oracle7")))
        for fid in fetch_ids(60):
            serial.fetch_record("SELECT x FROM probe WHERE id = ?", [fid])

        times = {}
        for window in (1, 2, 8):
            client = prepare(NativeClient(backend("oracle7")))
            async_client = AsyncClient(client, window=window)
            for fid in fetch_ids(60):
                async_client.submit("SELECT x FROM probe WHERE id = ?", [fid])
            async_client.gather()
            times[window] = async_client.elapsed

        assert times[1] == serial.elapsed
        assert times[8] < times[2] < times[1]
        assert times[1] / times[8] >= 2.0

    def test_elapsed_never_below_serialized_server_work(self):
        client = prepare(NativeClient(backend("oracle7")), rows=400)
        async_client = AsyncClient(client, window=16)
        pendings = [
            async_client.submit("SELECT SUM(x) FROM probe") for _ in range(10)
        ]
        async_client.gather()
        server_work = sum(p.slot.server_seconds for p in pendings)
        assert async_client.elapsed >= server_work

    def test_cpu_bound_workload_stays_flat(self):
        times = {}
        for window in (1, 8):
            client = prepare(NativeClient(backend("oracle7")), rows=2000)
            async_client = AsyncClient(client, window=window)
            for _ in range(15):
                async_client.submit("SELECT SUM(x) FROM probe")
            async_client.gather()
            times[window] = async_client.elapsed
        speedup = times[1] / times[8]
        assert 1.0 <= speedup < 1.5

    def test_results_identical_to_serial_execution(self):
        serial = prepare(NativeClient(backend("ms_sql_server")))
        expected = [
            serial.query("SELECT x FROM probe WHERE id = ?", [fid]).rows
            for fid in fetch_ids(30)
        ]
        async_client = AsyncClient(
            prepare(NativeClient(backend("ms_sql_server"))), window=6
        )
        pendings = [
            async_client.submit("SELECT x FROM probe WHERE id = ?", [fid])
            for fid in fetch_ids(30)
        ]
        results = async_client.gather()
        assert [r.rows for r in results] == expected
        assert [p.result().rows for p in pendings] == expected

    def test_pending_result_raises_until_gathered(self):
        client = prepare(NativeClient(backend("oracle7")))
        async_client = AsyncClient(client, window=4)
        pending = async_client.submit("SELECT x FROM probe WHERE id = ?", [1])
        assert not pending.done
        with pytest.raises(ExecutionError, match="in flight"):
            pending.result()
        async_client.gather()
        assert pending.result().rows == [(0.0,)]

    def test_failed_submit_leaves_earlier_statements_gatherable(self):
        client = prepare(NativeClient(backend("oracle7")))
        async_client = AsyncClient(client, window=4)
        earlier = async_client.submit("SELECT x FROM probe WHERE id = ?", [1])
        with pytest.raises(Exception):
            async_client.submit("SELECT x FROM missing_table")
        async_client.gather()
        assert earlier.result().rows == [(0.0,)]
        # The executed statement's overlap timing is committed.
        assert async_client.elapsed > 0.0
        assert async_client.in_flight == 0

    def test_execute_is_a_synchronization_point(self):
        client = prepare(NativeClient(backend("oracle7")))
        async_client = AsyncClient(client, window=4)
        earlier = async_client.submit("SELECT x FROM probe WHERE id = ?", [1])
        async_client.execute("SELECT x FROM probe WHERE id = ?", [2])
        assert earlier.done
        assert async_client.in_flight == 0

    def test_pipelined_bulk_load_matches_serial_contents(self):
        rows = [(i + 1, float(i)) for i in range(350)]
        serial = NativeClient(backend("oracle7"))
        serial.execute("CREATE TABLE probe (id INTEGER PRIMARY KEY, x FLOAT)")
        serial.executemany("INSERT INTO probe (id, x) VALUES (?, ?)", rows)

        piped = AsyncClient(NativeClient(backend("oracle7")), window=8)
        piped.execute("CREATE TABLE probe (id INTEGER PRIMARY KEY, x FLOAT)")
        affected = piped.executemany("INSERT INTO probe (id, x) VALUES (?, ?)", rows)

        assert affected == len(rows)
        assert identical_table_contents(
            serial.backend.database, piped.backend.database
        )
        # Batch round trips overlap, so pipelined loading is never slower.
        assert piped.elapsed <= serial.elapsed

    def test_pipelined_select_executemany_counts_fetched_rows(self):
        serial = prepare(NativeClient(backend("ms_access")))
        expected = serial.executemany(
            "SELECT x FROM probe WHERE id = ?", [(1,), (2,), (999,)]
        )
        piped = AsyncClient(prepare(NativeClient(backend("ms_access"))), window=4)
        total = piped.executemany(
            "SELECT x FROM probe WHERE id = ?", [(1,), (2,), (999,)]
        )
        assert total == expected == 2

    def test_mid_batch_failure_still_charges_committed_batches(self):
        piped = AsyncClient(NativeClient(backend("oracle7")), window=4)
        piped.execute("CREATE TABLE probe (id INTEGER PRIMARY KEY, x FLOAT)")
        before = piped.elapsed
        rows = [(i + 1, float(i)) for i in range(150)]
        rows.append((1, 0.0))  # duplicate primary key in the final batch
        with pytest.raises(IntegrityError):
            piped.executemany("INSERT INTO probe (id, x) VALUES (?, ?)", rows)
        # The first full batch committed: its rows exist and its time is
        # charged (the failure path gathers the pipeline).
        assert piped.backend.database.table("probe").row_count == 100
        assert piped.elapsed > before
        assert piped.in_flight == 0


class TestFuzzerReplayThroughAsyncClient:
    @pytest.mark.parametrize("seed", range(0, 42, 7))
    def test_fuzzer_seeds_replayed_identically(self, seed):
        rng = random.Random(seed)
        compiled, _rowwise, interpreted = _random_databases(rng)
        selects = [_random_select(rng) for _ in range(4)]
        async_client = AsyncClient(
            NativeClient(
                SimulatedBackend(BACKEND_PROFILES["oracle7"], database=compiled)
            ),
            window=5,
        )
        pendings = [async_client.submit(sql, params) for sql, params in selects]
        async_client.gather()
        for (sql, params), pending in zip(selects, pendings):
            expected = interpreted.query(sql, params)
            got = pending.result()
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
        async_client = AsyncClient(client, window=4)
        for layer in (client.backend.database, client.backend, client, async_client):
            with pytest.raises(ExecutionError, match="SELECT"):
                layer.explain("DELETE FROM t")
            with pytest.raises(ExecutionError, match="SQL text"):
                layer.explain(42)
