"""E1 — Section 5: comparison of the four database backends.

Paper observations to reproduce (shape, not absolute numbers):

* bulk insertion of the performance data into the local MS Access database is
  about a factor of 20 faster than into the Oracle server;
* Oracle query processing is about a factor of 2 slower than MS SQL Server and
  Postgres;
* the local MS Access backend outperforms all server-based systems.

The wall-clock benchmark measures the in-process engine doing the actual work;
the *virtual* backend times (network round trips + per-row costs) are reported
via ``benchmark.extra_info`` and asserted against the paper's factors.
"""

from __future__ import annotations

import pytest

from repro.bench import load_into_backend
from repro.cosy import PushdownStrategy
from repro.relalg import BACKEND_PROFILES

BACKENDS = tuple(BACKEND_PROFILES)


def _load(scenario, backend_name):
    # Row-at-a-time loading (batch_size=None): the paper's bulk-insert
    # observation was measured submitting one record per statement — the
    # batched pipeline's gain over this path is E6's experiment.
    client, ids = load_into_backend(scenario, backend_name, batch_size=None)
    return client, ids


class TestE1BulkInsertion:
    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_bulk_insert_per_backend(self, benchmark, medium_scenario, backend_name):
        """Transfer the whole Apprentice data set into one backend."""

        def run():
            return _load(medium_scenario, backend_name)

        client, ids = benchmark(run)
        benchmark.extra_info["virtual_insert_seconds"] = client.elapsed
        benchmark.extra_info["rows_inserted"] = client.backend.rows_inserted
        assert ids.total() == client.backend.rows_inserted - 1  # minus the dual row

    def test_access_insertion_is_about_twenty_times_faster_than_oracle(
        self, benchmark, medium_scenario
    ):
        def measure():
            times = {}
            for name in ("oracle7", "ms_access"):
                client, _ = _load(medium_scenario, name)
                times[name] = client.elapsed - client.backend.profile.connect_latency
            return times

        times = benchmark.pedantic(measure, rounds=1, iterations=1)
        ratio = times["oracle7"] / times["ms_access"]
        benchmark.extra_info["oracle_over_access_insert_ratio"] = ratio
        assert 10 <= ratio <= 30  # paper: "a factor of 20"


class TestE1QueryProcessing:
    def _query_time(self, scenario, backend_name):
        client, ids = _load(scenario, backend_name)
        client.reset_clock()
        strategy = PushdownStrategy(scenario.specification, scenario.mapping, client, ids)
        scenario.analyzer.analyze(strategy=strategy)
        return client.elapsed

    def test_property_queries_per_backend(self, benchmark, medium_scenario):
        """Evaluate the full COSY property set on every backend (virtual time)."""

        def measure():
            return {
                name: self._query_time(medium_scenario, name) for name in BACKENDS
            }

        times = benchmark.pedantic(measure, rounds=1, iterations=1)
        for name, seconds in times.items():
            benchmark.extra_info[f"virtual_query_seconds[{name}]"] = seconds
        # Oracle ≈ 2x slower than MS SQL Server / Postgres.
        assert 1.4 <= times["oracle7"] / times["ms_sql_server"] <= 2.6
        assert 1.4 <= times["oracle7"] / times["postgres"] <= 2.6
        # The local MS Access backend outperforms every server backend.
        assert times["ms_access"] < min(
            times["oracle7"], times["ms_sql_server"], times["postgres"]
        )
