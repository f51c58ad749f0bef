"""E2 — Section 5: client API overhead and per-record fetch latency.

Paper observations to reproduce:

* fetching a record from the Oracle server takes about 1 ms;
* accessing the database through the bridged (JDBC-like) client stack is a
  factor of two to four slower than through the native (C-like) stack —
  measured on the API marshalling overhead that the bridge adds.
"""

from __future__ import annotations

import pytest

from repro.relalg import BridgedClient, NativeClient, backend


def prepare(client):
    client.execute("CREATE TABLE probe (id INTEGER PRIMARY KEY, x FLOAT)")
    client.executemany(
        "INSERT INTO probe (id, x) VALUES (?, ?)", [(i + 1, float(i)) for i in range(64)]
    )
    client.reset_clock()
    return client


class TestE2RecordFetch:
    @pytest.mark.parametrize("api", ["native", "bridged"])
    def test_fetch_record_through_each_client_stack(self, benchmark, api):
        """Wall-clock cost of a single-record fetch through each client stack."""
        factory = NativeClient if api == "native" else BridgedClient
        client = prepare(factory(backend("oracle7")))

        def fetch():
            return client.fetch_record("SELECT x FROM probe WHERE id = ?", [7])

        row = benchmark(fetch)
        assert row == (6.0,)
        per_record_virtual = client.elapsed / max(client.calls, 1)
        benchmark.extra_info["virtual_ms_per_record"] = per_record_virtual * 1e3

    def test_oracle_record_fetch_is_about_one_millisecond(self, benchmark):
        client = prepare(NativeClient(backend("oracle7")))

        def fetch_many():
            for _ in range(100):
                client.fetch_record("SELECT x FROM probe WHERE id = ?", [3])
            return client.elapsed / client.calls

        per_record = benchmark.pedantic(fetch_many, rounds=1, iterations=1)
        benchmark.extra_info["virtual_ms_per_record"] = per_record * 1e3
        # Paper: "fetching a record from the Oracle server takes about 1 ms".
        assert 0.5e-3 <= per_record <= 2.0e-3

    def test_bridged_stack_is_two_to_four_times_slower_than_native(self, benchmark):
        def measure():
            overheads = {}
            for factory in (NativeClient, BridgedClient):
                client = prepare(factory(backend("oracle7")))
                for _ in range(500):
                    client.fetch_record("SELECT x FROM probe WHERE id = ?", [5])
                overheads[client.api_name] = client.client_time / client.calls
            return overheads

        overheads = benchmark.pedantic(measure, rounds=1, iterations=1)
        ratio = overheads["bridged"] / overheads["native"]
        benchmark.extra_info["bridged_over_native_ratio"] = ratio
        assert 2.0 <= ratio <= 4.0  # paper: "a factor of two to four"
