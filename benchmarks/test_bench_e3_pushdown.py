"""E3 — Section 5: work distribution between the client and the database.

Paper observation to reproduce: *"It is a significant advantage to translate
the conditions of performance properties entirely into SQL queries instead of
first accessing the data components and evaluating the expressions in the
analysis tool."*

Both strategies are run against the same Oracle-like backend; the virtual
elapsed time (round trips + transferred rows) and the number of issued
statements are compared.  The advantage must grow with the database size.
"""

from __future__ import annotations

import pytest

from repro.asl.specs import cosy_specification
from repro.bench import build_scenario, load_into_backend
from repro.cosy import ClientSideStrategy, PushdownStrategy


def evaluate(scenario, strategy_name, backend_name="oracle7"):
    client, ids = load_into_backend(scenario, backend_name)
    client.reset_clock()
    if strategy_name == "pushdown":
        strategy = PushdownStrategy(scenario.specification, scenario.mapping, client, ids)
    else:
        strategy = ClientSideStrategy(scenario.specification, client=client, ids=ids)
    result = scenario.analyzer.analyze(strategy=strategy)
    return result, client


class TestE3Pushdown:
    @pytest.mark.parametrize("strategy_name", ["pushdown", "client"])
    def test_full_property_evaluation_per_strategy(
        self, benchmark, medium_scenario, strategy_name
    ):
        """Wall-clock and virtual cost of one full COSY analysis per strategy."""

        def run():
            return evaluate(medium_scenario, strategy_name)

        result, client = benchmark.pedantic(run, rounds=1, iterations=1)
        assert result.instances
        benchmark.extra_info["virtual_seconds"] = client.elapsed
        benchmark.extra_info["rows_transferred"] = client.rows_fetched

    def test_pushdown_beats_client_side_evaluation(self, benchmark, medium_scenario):
        def measure():
            _, push_client = evaluate(medium_scenario, "pushdown")
            _, fetch_client = evaluate(medium_scenario, "client")
            return push_client, fetch_client

        push_client, fetch_client = benchmark.pedantic(measure, rounds=1, iterations=1)
        advantage = fetch_client.elapsed / push_client.elapsed
        benchmark.extra_info["client_over_pushdown_ratio"] = advantage
        benchmark.extra_info["rows_transferred_pushdown"] = push_client.rows_fetched
        benchmark.extra_info["rows_transferred_client"] = fetch_client.rows_fetched
        # The pushdown strategy ships only scalar results over the (virtual)
        # network; the fetch-and-evaluate strategy ships whole data components.
        assert push_client.rows_fetched < fetch_client.rows_fetched
        assert advantage > 1.0

    def test_pushdown_advantage_grows_with_database_size(self, benchmark, cosy_spec):
        sizes = (2, 6)

        def measure():
            ratios = {}
            for functions in sizes:
                scenario = build_scenario(
                    "scalable",
                    pe_counts=(1, 4, 16),
                    specification=cosy_spec,
                    functions=functions,
                    regions_per_function=6,
                )
                _, push_client = evaluate(scenario, "pushdown")
                _, fetch_client = evaluate(scenario, "client")
                ratios[functions] = fetch_client.elapsed / push_client.elapsed
            return ratios

        ratios = benchmark.pedantic(measure, rounds=1, iterations=1)
        for functions, ratio in ratios.items():
            benchmark.extra_info[f"advantage_at_{functions}_functions"] = ratio
        assert ratios[sizes[-1]] >= ratios[sizes[0]] * 0.9
        assert all(ratio > 1.0 for ratio in ratios.values())
