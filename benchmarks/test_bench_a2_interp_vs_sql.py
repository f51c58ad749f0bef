"""A2 — ablation: ASL reference interpreter vs. generated SQL.

The same property set is evaluated twice over identical data: once by the ASL
reference evaluator walking the object repository, once through the SQL
queries generated by the compiler and executed by the in-process engine
(wall-clock time, no virtual backend costs).  Both must produce identical
severities; the benchmark records the cost of each path and of the one-time
compilation."""

from __future__ import annotations

import pytest

from repro.bench import load_into_backend
from repro.compiler import PropertyCompiler
from repro.cosy import ClientSideStrategy, PushdownStrategy


class TestA2InterpreterVsSql:
    def test_interpreter_evaluation(self, benchmark, small_scenario):
        strategy = ClientSideStrategy(small_scenario.specification)

        def run():
            return small_scenario.analyzer.analyze(strategy=strategy)

        result = benchmark(run)
        benchmark.extra_info["instances"] = len(result.instances)

    def test_generated_sql_evaluation(self, benchmark, small_scenario):
        client, ids = load_into_backend(small_scenario, "ms_access")
        strategy = PushdownStrategy(
            small_scenario.specification, small_scenario.mapping, client, ids
        )
        # Compile once up front so the benchmark measures query execution.
        for name in small_scenario.specification.index.properties:
            strategy.compiled(name)

        def run():
            return small_scenario.analyzer.analyze(strategy=strategy)

        result = benchmark(run)
        assert strategy.fallbacks == 0
        benchmark.extra_info["statements_issued"] = strategy.statements_issued

    def test_property_compilation_cost(self, benchmark, small_scenario):
        def compile_all():
            compiler = PropertyCompiler(
                small_scenario.specification, small_scenario.mapping
            )
            return compiler.compile_all()

        compiled = benchmark(compile_all)
        benchmark.extra_info["properties"] = len(compiled)
        benchmark.extra_info["queries"] = sum(
            len(prop.entries()) for prop in compiled.values()
        )

    def test_both_paths_produce_identical_severities(self, benchmark, small_scenario):
        def measure():
            client, ids = load_into_backend(small_scenario, "ms_access")
            push = small_scenario.analyzer.analyze(
                strategy=PushdownStrategy(
                    small_scenario.specification, small_scenario.mapping, client, ids
                )
            )
            interp = small_scenario.analyzer.analyze(
                strategy=ClientSideStrategy(small_scenario.specification)
            )
            return push, interp

        push, interp = benchmark.pedantic(measure, rounds=1, iterations=1)
        push_map = {(i.property_name, i.subject): i.severity for i in push.instances}
        interp_map = {(i.property_name, i.subject): i.severity for i in interp.instances}
        assert set(push_map) == set(interp_map)
        for key, severity in push_map.items():
            assert severity == pytest.approx(interp_map[key], rel=1e-9, abs=1e-12), key
