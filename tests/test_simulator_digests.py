"""The simulator reproduces the recorded repositories and traces byte for byte.

``tests/corpus/simulator_digests.json`` holds SHA-256 digests of simulated
Apprentice repositories and event traces, recorded with the numpy-based
simulator before it was replaced by the pure-Python generator of
:mod:`repro.apprentice.rng`.  Each case carries its own parameters (workload
kind and arguments, processor counts, simulator configuration), so this
module recomputes every digest with the current code and fails on any byte
that differs.

Two digests are kept per repository: one of ``ApprenticeExport.dumps()``
(12 significant digits, the format the tools exchange) and one of the exact
bits of every stored timing (``float.hex``), which catches a difference in
the last place that the export would round away.  Entity ids are drawn from a
process-wide counter, so each case restarts it at 1.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from pathlib import Path

import pytest

from repro.apprentice import (
    ApprenticeExport,
    ExecutionSimulator,
    SimulationConfig,
    synthetic_workload,
)
from repro.datamodel import entities
from repro.traces import generate_trace

CORPUS = Path(__file__).parent / "corpus" / "simulator_digests.json"


def _sha256(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def simulate_case(case: dict):
    """The repository of one export case, with entity ids starting at 1."""
    workload = synthetic_workload(case["kind"], **case["workload"])
    config = SimulationConfig(pe_counts=tuple(case["pes"]), **case["config"])
    saved = entities._id_counter
    entities._id_counter = itertools.count(1)
    try:
        return ExecutionSimulator(workload, config).run()
    finally:
        entities._id_counter = saved


def _timing_values(repository):
    for program in repository.programs:
        for version in program.Versions:
            for function in version.Functions:
                for region in function.Regions:
                    for total in region.TotTimes:
                        yield total.Excl, total.Incl, total.Ovhd
                    for typed in region.TypTimes:
                        yield (typed.Time,)
                for call in function.Calls:
                    for t in call.Sums:
                        yield (
                            t.MinCalls, t.MaxCalls, t.MeanCalls, t.StdevCalls,
                            t.MinTime, t.MaxTime, t.MeanTime, t.StdevTime,
                        )


def export_digests(case: dict) -> dict:
    """``{"export": ..., "values": ...}`` digests of one export case."""
    repository = simulate_case(case)
    return {
        "export": _sha256([ApprenticeExport(repository).dumps()]),
        "values": _sha256(
            " ".join(float(v).hex() for v in values)
            for values in _timing_values(repository)
        ),
    }


def trace_digest(case: dict) -> str:
    """Digest of every event of one trace case, times to the last bit."""
    workload = synthetic_workload(case["kind"], **case["workload"])
    trace = generate_trace(workload, case["pes"], seed=case["seed"])
    return _sha256(
        [str(trace.pes)]
        + [
            f"{float(e.time).hex()} {e.pe} {e.kind.value} {e.region} "
            f"{e.partner} {e.size}"
            for e in trace
        ]
    )


def _corpus() -> dict:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def _case_id(case: dict) -> str:
    arguments = ",".join(f"{k}={v}" for k, v in sorted(case["workload"].items()))
    settings = ",".join(f"{k}={v}" for k, v in sorted(case.get("config", {}).items()))
    pes = case["pes"]
    pes = "-".join(map(str, pes)) if isinstance(pes, list) else str(pes)
    return f"{case['kind']}({arguments})@{pes}[{settings}]"


class TestSimulatorDigests:
    def test_corpus_covers_every_workload_kind(self):
        corpus = _corpus()
        kinds = {case["kind"] for case in corpus["exports"]}
        assert kinds == {"stencil", "imbalanced", "io_bound", "comm_bound",
                         "mixed", "scalable"}
        assert len(corpus["exports"]) > 100 and len(corpus["traces"]) > 100

    def test_every_simulated_repository_is_byte_identical(self):
        mismatched = [
            _case_id(case)
            for case in _corpus()["exports"]
            if export_digests(case) != case["digests"]
        ]
        assert mismatched == []

    def test_every_trace_is_byte_identical(self):
        mismatched = [
            _case_id(case)
            for case in _corpus()["traces"]
            if trace_digest(case) != case["digest"]
        ]
        assert mismatched == []

    def test_a_changed_draw_changes_the_digest(self):
        case = dict(_corpus()["exports"][0])
        case["config"] = dict(case["config"], seed=case["config"].get("seed", 0) + 1)
        assert export_digests(case) != _corpus()["exports"][0]["digests"]


@pytest.fixture(autouse=True)
def _no_numpy_needed(monkeypatch):
    """The simulator must run with numpy unimportable."""
    monkeypatch.setitem(sys.modules, "numpy", None)
