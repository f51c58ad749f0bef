"""Crash-recovery differential tests for the write-ahead log.

Every test compares *recovered* state against a shadow run that never
crashed, using the oracle of :mod:`tests.faultinject`: a crash at WAL event
``k`` must recover to exactly the durable boundary the log's content
predicts — the last appended durable record for an in-process death, the
last fsynced one for a power loss, and either of the two for a torn tail.

Three layers, in increasing realism:

* **corpus replay** — recorded seeds sweep first, failing fast by seed;
* **crash-point sweep fuzzer** — for each exploration seed, the seeded
  operation stream is run once to count its WAL events, then crashed at
  *every* event, and each of the three crash images is recovered and
  checked (seeds whose sweep diverges are appended to the corpus);
* **SIGKILL subprocesses** — a child process is killed for real mid-stream
  (and mid-E6-bulk-load) and its recovered state must land on a clean-run
  boundary at or past the durable progress the child had advertised.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import faultinject as fi

_CORPUS_PATH = Path(__file__).resolve().parent / "corpus" / "crash_seeds.json"

#: Exploration seeds for the full crash-point sweep.  Four seeds yield
#: roughly 230 crash points (each recovered in up to three images), well
#: past the 100-case acceptance floor; seeds 1, 3 and 7 include mid-stream
#: checkpoints, 5 is checkpoint-free.
_SWEEP_SEEDS = (1, 3, 5, 7)


def _corpus_seeds():
    data = json.loads(_CORPUS_PATH.read_text())
    seeds = [entry["seed"] for entry in data["seeds"]]
    assert seeds == sorted(set(seeds)), "corpus seeds must be unique and sorted"
    return seeds


def _persist_counterexample(seed: int, note: str) -> None:
    """Pin a diverging seed in the replay corpus (idempotent)."""
    data = json.loads(_CORPUS_PATH.read_text())
    if all(entry["seed"] != seed for entry in data["seeds"]):
        data["seeds"].append({"seed": seed, "note": note})
        data["seeds"].sort(key=lambda entry: entry["seed"])
        _CORPUS_PATH.write_text(json.dumps(data, indent=2) + "\n")


def _run_crash_sweep(seed, tmp_path, persist=False):
    """Crash the seeded stream at every WAL event and check every recovery."""
    ops = fi.make_ops(seed)
    boundaries = fi.shadow_fingerprints(ops)
    n_events = fi.count_events(seed, str(tmp_path))
    assert n_events > 0
    failures = []
    for point in range(1, n_events + 1):
        case_dir = tmp_path / f"point{point}"
        case_dir.mkdir()
        failures.extend(
            fi.run_crash_case(seed, point, str(case_dir), ops, boundaries)
        )
    if failures and persist:
        _persist_counterexample(seed, failures[0])
    assert not failures, "\n".join(failures)


# --------------------------------------------------------------------------- #
# Seed corpus: previously recorded fuzzer seeds replay before exploration
# --------------------------------------------------------------------------- #


class TestCrashSeedCorpus:
    """Deterministic replay of the recorded crash-seed corpus.

    These run before (and independently of) the random exploration below: a
    regression on a recovery path the corpus pins fails fast, by seed, with
    the note recorded in ``tests/corpus/crash_seeds.json``.
    """

    @pytest.mark.parametrize("seed", _corpus_seeds())
    def test_corpus_crash_sweep(self, seed, tmp_path):
        _run_crash_sweep(seed, tmp_path)


class TestCrashPointFuzzer:
    @pytest.mark.parametrize("seed", _SWEEP_SEEDS)
    def test_every_crash_point_recovers_to_a_boundary(self, seed, tmp_path):
        _run_crash_sweep(seed, tmp_path, persist=True)

    def test_sweep_covers_the_acceptance_floor(self, tmp_path):
        """The sweep seeds alone span >= 100 distinct crash points."""
        total = 0
        for index, seed in enumerate(_SWEEP_SEEDS):
            seed_dir = tmp_path / f"seed{index}"
            seed_dir.mkdir()
            total += fi.count_events(seed, str(seed_dir))
        assert total >= 100

    def test_crash_during_database_open_recovers_empty(self, tmp_path):
        """Dying inside ``Database.__init__`` (fresh-log reset) loses nothing."""
        failures = fi.run_crash_case(3, 1, str(tmp_path))
        assert not failures


# --------------------------------------------------------------------------- #
# SIGKILL subprocess variants: a real kill, not a simulated one
# --------------------------------------------------------------------------- #

_CHILD_SCRIPT = str(Path(fi.__file__).resolve())


def _spawn(args):
    return subprocess.Popen([sys.executable, _CHILD_SCRIPT, *args])


def _read_progress(progress_path):
    try:
        text = Path(progress_path).read_text().strip()
        return int(text) if text else 0
    except (FileNotFoundError, ValueError):
        # Nothing reported yet (the child renames each report into place).
        return 0


def _kill_after_progress(proc, progress_path, threshold, timeout_s=60):
    """SIGKILL ``proc`` once it reports ``threshold`` durable boundaries.

    If the child finishes the whole stream first that is fine too — the
    recovery assertion below covers both outcomes.
    """
    deadline = time.time() + timeout_s
    while time.time() < deadline:
        if _read_progress(progress_path) >= threshold or proc.poll() is not None:
            break
        time.sleep(0.005)
    proc.send_signal(signal.SIGKILL)
    proc.wait()
    return _read_progress(progress_path)


def _assert_recovers_reported_progress(wal_path, reported, clean_hashes):
    recovered = fi.recover_hash(str(wal_path))
    matches = [k for k, h in enumerate(clean_hashes) if h == recovered]
    assert matches, "recovered state is not any clean-run boundary"
    assert matches[0] >= reported, (
        f"recovery lost durable work: child reported boundary {reported} "
        f"as fsynced, recovered state is boundary {matches[0]}"
    )


class TestSigkillRecovery:
    @pytest.mark.parametrize("seed,kill_at", [(7, 12), (9, 35)])
    def test_sigkill_mid_stream_recovers_durable_prefix(
        self, seed, kill_at, tmp_path
    ):
        n_ops = 80
        clean_hashes = fi.child_shadow_fingerprints(seed, n_ops)
        wal_path = tmp_path / "child.wal"
        progress_path = tmp_path / "progress"
        proc = _spawn(
            ["--child", str(wal_path), str(progress_path), str(seed), str(n_ops)]
        )
        reported = _kill_after_progress(proc, progress_path, kill_at)
        assert reported > 0, "child was killed before reporting any progress"
        _assert_recovers_reported_progress(wal_path, reported, clean_hashes)

    def test_sigkill_mid_e6_bulk_load_recovers_durable_prefix(self, tmp_path):
        """The E6-style data set, killed mid-load, recovers a load prefix.

        The parent replays the identical loader statement stream against a
        WAL-less database, records the state fingerprint at every durable
        boundary, and the killed child's recovered state must be one of
        those boundaries at or past the progress the child had fsynced.
        """
        clean_hashes = fi.e6_boundary_hashes()
        wal_path = tmp_path / "e6.wal"
        progress_path = tmp_path / "progress"
        proc = _spawn(["--child-e6", str(wal_path), str(progress_path)])
        reported = _kill_after_progress(proc, progress_path, threshold=25)
        assert reported > 0, "child was killed before reporting any progress"
        _assert_recovers_reported_progress(wal_path, reported, clean_hashes)
