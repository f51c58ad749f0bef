"""E10 — write-ahead durability: load overhead, checkpointing, recovery.

Every earlier scenario treats the database as a process-lifetime object; E10
pins the durability leg added in PR 6: the E6 bulk load with a write-ahead
log attached must (a) evolve byte-identical state to the pure in-memory
load, (b) recover that exact state from the log alone after the process is
gone, and (c) keep recovering it when size-triggered checkpoints have
truncated the log mid-load.  The wall-clock ratios (fsync cost per durable
batch) are recorded as benchmark info, not asserted — fsync latency varies
by orders of magnitude across CI disks; the persistent baseline in
``BENCH_relalg.json`` tracks the real overheads.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.compiler import DatabaseLoader
from repro.relalg import Database, fingerprint_hash, state_fingerprint


def _load(scenario, database: Database) -> int:
    loader = DatabaseLoader(scenario.mapping, database)
    loader.create_schema()
    loader.load(scenario.repository)
    return loader.rows_inserted


def _state(database: Database) -> str:
    return fingerprint_hash(state_fingerprint(database))


class TestE10Durability:
    def test_wal_backed_load_matches_in_memory_load(self, medium_scenario, tmp_path):
        with Database() as plain:
            rows = _load(medium_scenario, plain)
            reference = _state(plain)
        assert rows > 1000, "the medium scenario must load a real data set"
        wal_path = tmp_path / "e10.wal"
        with Database(wal_path=str(wal_path),
                      wal_autocheckpoint=None) as walled:
            _load(medium_scenario, walled)
            assert _state(walled) == reference
        assert wal_path.stat().st_size > 0
        with Database(wal_path=str(wal_path)) as recovered:
            assert _state(recovered) == reference

    def test_checkpointed_load_truncates_and_recovers(self, medium_scenario, tmp_path):
        full_path = tmp_path / "full.wal"
        with Database(wal_path=str(full_path),
                      wal_autocheckpoint=None) as walled:
            _load(medium_scenario, walled)
            reference = _state(walled)
        full_bytes = full_path.stat().st_size

        ckpt_path = tmp_path / "ckpt.wal"
        threshold = max(16_000, full_bytes // 4)
        with Database(wal_path=str(ckpt_path),
                      wal_autocheckpoint=threshold) as checkpointed:
            _load(medium_scenario, checkpointed)
            assert _state(checkpointed) == reference
        assert (tmp_path / "ckpt.wal.ckpt").exists(), \
            "the size-triggered checkpoint must fire during the load"
        assert ckpt_path.stat().st_size < full_bytes
        with Database(wal_path=str(ckpt_path),
                      wal_autocheckpoint=threshold) as recovered:
            assert _state(recovered) == reference

    def test_durability_overheads_recorded(self, benchmark, medium_scenario, tmp_path):
        """Wall-clock load at the three durability levels (info, not gates)."""
        def timed(**db_kwargs) -> float:
            start = time.perf_counter()
            with Database(**db_kwargs) as database:
                _load(medium_scenario, database)
                fingerprint = _state(database)
            return time.perf_counter() - start, fingerprint

        def measure():
            off_s, reference = timed()
            on_s, on_print = timed(
                wal_path=str(tmp_path / "on.wal"), wal_autocheckpoint=None
            )
            full_bytes = os.path.getsize(tmp_path / "on.wal")
            ckpt_s, ckpt_print = timed(
                wal_path=str(tmp_path / "ckpt.wal"),
                wal_autocheckpoint=max(16_000, full_bytes // 4),
            )
            assert on_print == reference and ckpt_print == reference
            return off_s, on_s, ckpt_s, full_bytes

        off_s, on_s, ckpt_s, full_bytes = benchmark.pedantic(
            measure, rounds=1, iterations=1
        )
        benchmark.extra_info["wal_off_s"] = round(off_s, 6)
        benchmark.extra_info["wal_on_s"] = round(on_s, 6)
        benchmark.extra_info["wal_on_checkpoint_s"] = round(ckpt_s, 6)
        benchmark.extra_info["log_bytes"] = full_bytes
        benchmark.extra_info["wal_overhead"] = round(on_s / off_s, 3)
        assert full_bytes > 0
