"""End-to-end integration tests: the full COSY data flow and the CLI."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.apprentice import (
    ApprenticeExport,
    ApprenticeParser,
    ExecutionSimulator,
    SimulationConfig,
    WORKLOAD_FACTORIES,
    synthetic_workload,
)
from repro.asl import parse_asl, unparse
from repro.asl.specs import COSY_DATA_MODEL, COSY_PROPERTIES
from repro.bench import build_scenario, load_into_backend, speedup_series
from repro.cosy import ClientSideStrategy, CosyAnalyzer, PushdownStrategy
from repro.cosy.cli import build_parser, main

REPO_ROOT = Path(__file__).resolve().parents[1]


class TestFullPipeline:
    """Simulate → export summary file → parse → database → analyse (the paper's
    complete data flow from Section 3)."""

    def test_summary_file_to_ranked_report(self, cosy_spec, tmp_path):
        # 1. "Measurement": simulate the application on several PE counts.
        workload = synthetic_workload("imbalanced", imbalance=0.7)
        repository = ExecutionSimulator(
            workload, SimulationConfig(pe_counts=(1, 4, 16))
        ).run()
        # 2. Apprentice writes its summary file ...
        summary_path = tmp_path / "apprentice.sum"
        ApprenticeExport(repository).dump_path(str(summary_path))
        # 3. ... which is transferred into the (object) database ...
        reloaded = ApprenticeParser().load_path(str(summary_path))
        # 4. ... and analysed by COSY.
        analyzer = CosyAnalyzer(reloaded, specification=cosy_spec)
        result = analyzer.analyze()
        assert result.run_pes == 16
        bottleneck = result.bottleneck()
        assert bottleneck is not None
        assert bottleneck.property_name == "SublinearSpeedup"
        # The injected load imbalance must surface through the refinement chain.
        assert result.severity_of("SyncCost", "particle_push") > 0.05
        assert any(
            "particle_push" in i.subject for i in result.by_property("LoadImbalance")
        )

    def test_pushdown_and_client_agree_on_every_workload(self, cosy_spec):
        for kind in ("stencil", "io_bound", "comm_bound"):
            scenario = build_scenario(kind, pe_counts=(1, 4), specification=cosy_spec)
            client, ids = load_into_backend(scenario, "ms_access")
            push_result = scenario.analyzer.analyze(
                strategy=PushdownStrategy(
                    scenario.specification, scenario.mapping, client, ids
                )
            )
            client_result = scenario.analyzer.analyze(
                strategy=ClientSideStrategy(scenario.specification)
            )
            push = {
                (i.property_name, i.subject): round(i.severity, 9)
                for i in push_result.instances
            }
            ref = {
                (i.property_name, i.subject): round(i.severity, 9)
                for i in client_result.instances
            }
            assert push == ref, kind

    def test_speedup_series_is_monotone_in_cost(self):
        scenario = build_scenario("mixed", pe_counts=(1, 2, 4, 8))
        series = speedup_series(scenario)
        assert [row["pes"] for row in series] == [1.0, 2.0, 4.0, 8.0]
        costs = [row["total_cost"] for row in series]
        assert costs == sorted(costs)
        assert series[0]["total_cost"] == pytest.approx(0.0)
        assert all(row["speedup"] >= 0.99 for row in series)

    def test_bundled_documents_round_trip_through_the_pretty_printer(self, cosy_spec):
        merged_source = COSY_DATA_MODEL + "\n" + COSY_PROPERTIES
        reparsed = parse_asl(unparse(parse_asl(merged_source)))
        assert {d.name for d in reparsed.properties} == set(
            cosy_spec.index.properties
        )


class TestCommandLineInterface:
    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.workload == "mixed"
        assert args.strategy == "client"

    def test_client_strategy_run(self, capsys):
        exit_code = main(
            ["--workload", "imbalanced", "--pes", "1", "4", "--threshold", "0.05"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "KOJAK Cost Analyzer" in output
        assert "Bottleneck" in output
        assert "SublinearSpeedup" in output

    def test_pushdown_strategy_run(self, capsys):
        exit_code = main(
            [
                "--workload", "stencil",
                "--pes", "1", "4",
                "--strategy", "pushdown",
                "--db-backend", "ms_access",
                "--top", "5",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "strategy       : pushdown" in output

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--pes", "0"], "--pes values must be >= 1"),
            (["--pes", "1", "-4"], "--pes values must be >= 1"),
            (["--analyze-pes", "3"], "--analyze-pes 3 is not one of --pes"),
            (["--top", "-2"], "--top must be >= 0"),
            (["--workload", "nosuch"], "invalid choice: 'nosuch'"),
            (["--show-sql", "--workload", "nosuch"], "invalid choice: 'nosuch'"),
            # Every severity > nan is false: the run would report nothing.
            (["--pes", "1", "2", "--threshold", "nan"],
             "--threshold must be a number, got nan"),
        ],
        ids=[
            "pes-0", "pes-negative",
            "analyze-pes-not-simulated", "top-negative",
            "unknown-workload", "show-sql-unknown-workload", "threshold-nan",
        ],
    )
    def test_out_of_range_options_are_usage_errors(self, args, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(args)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["--pes", "1", "4", "--top", "0"],
            ["--pes", "4", "4"],
            ["--pes", "1", "4", "--analyze-pes", "1"],
        ],
        ids=["top-0", "duplicate-pes", "analyze-smallest-pes"],
    )
    def test_boundary_values_are_accepted(self, args, capsys):
        assert main(["--workload", "stencil", *args]) == 0
        assert "KOJAK Cost Analyzer" in capsys.readouterr().out

    def test_show_sql(self, capsys):
        exit_code = main(["--show-sql"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "-- property SublinearSpeedup" in output
        assert "SELECT" in output
        assert "FROM dual" in output

    def test_show_sql_matches_the_pinned_translation(self, capsys):
        """The translator's text for every entry, byte for byte.  A change to
        the generated SQL fails here; when it is meant, re-record the pin
        with ``python -m repro.cosy.cli --show-sql >
        tests/corpus/show_sql.txt``."""
        assert main(["--show-sql"]) == 0
        pinned = (REPO_ROOT / "tests" / "corpus" / "show_sql.txt").read_text()
        assert capsys.readouterr().out == pinned

    def test_show_sql_lists_every_statement_the_pushdown_strategy_runs(
        self, capsys
    ):
        scenario = build_scenario("mixed", pe_counts=(1, 4))
        client, ids = load_into_backend(scenario, "ms_access")
        executed = set()
        execute = client.execute

        def recording(sql, params=()):
            executed.add(sql)
            return execute(sql, params)

        client.execute = recording
        strategy = PushdownStrategy(
            scenario.specification, scenario.mapping, client, ids
        )
        scenario.analyzer.analyze(pes=4, strategy=strategy)
        client.close()
        assert executed
        assert main(["--show-sql"]) == 0
        output = capsys.readouterr().out
        assert "confidence (unguarded)" in output
        missing = sorted(sql for sql in executed if sql not in output)
        assert missing == []


class TestCommandLineProcess:
    """``python -m repro.cosy.cli`` in a child process: the ``__main__`` block
    (which freezes the heap before the interpreter exits) changes neither
    the output nor the exit status of :func:`main`."""

    ARGS = [
        "--workload", "stencil",
        "--pes", "1", "4",
        "--strategy", "pushdown",
        "--db-backend", "oracle7",
        "--top", "5",
    ]

    def _run(self, args):
        path = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        return subprocess.run(
            [sys.executable, "-m", "repro.cosy.cli", *args],
            cwd=REPO_ROOT,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
            capture_output=True,
            text=True,
            timeout=120,
        )

    def test_prints_what_main_prints_and_exits_0(self, capsys):
        assert main(self.ARGS) == 0
        expected = capsys.readouterr().out
        done = self._run(self.ARGS)
        assert done.returncode == 0, done.stderr
        assert done.stdout == expected
        assert done.stderr == ""

    def test_usage_error_exits_2_with_its_message_on_stderr(self):
        done = self._run(["--strategy", "pipelined"])
        assert done.returncode == 2
        assert "invalid choice: 'pipelined'" in done.stderr
        assert done.stdout == ""

    def test_out_of_range_option_exits_2_without_a_traceback(self):
        done = self._run(["--strategy", "pushdown", "--pes", "0"])
        assert done.returncode == 2
        assert "--pes values must be >= 1" in done.stderr
        assert "Traceback" not in done.stderr
        assert done.stdout == ""

    @pytest.mark.parametrize(
        "args",
        [["--workload", "nosuch"], ["--show-sql", "--workload", "nosuch"]],
        ids=["run", "show-sql"],
    )
    def test_unknown_workload_exits_2_listing_the_kinds(self, args):
        done = self._run(args)
        assert done.returncode == 2
        assert "invalid choice: 'nosuch'" in done.stderr
        assert all(f"'{kind}'" in done.stderr for kind in WORKLOAD_FACTORIES)
        assert "Traceback" not in done.stderr
        assert done.stdout == ""
