"""The program never imports numpy, and runs the same without it.

numpy is a test-only oracle (``tests/test_rng_oracles.py``).  A fresh
interpreter imports the package, the COSY command line and the trace
generator, runs a whole ``cosy`` pushdown analysis, and must not have loaded
numpy at any point; with numpy made unimportable first, the same run must
print byte-identical output.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"

_CHILD = """
import json, sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None
loaded = {}
import repro
loaded["repro"] = "numpy" in sys.modules
import repro.cosy.cli
loaded["repro.cosy.cli"] = "numpy" in sys.modules
import repro.traces
loaded["repro.traces"] = "numpy" in sys.modules
code = repro.cosy.cli.main(sys.argv[2:])
loaded["cosy run"] = "numpy" in sys.modules
sys.stdout.flush()
sys.stderr.write(json.dumps(loaded))
sys.exit(code)
"""

_COSY_ARGS = ["--workload", "mixed", "--pes", "1", "2", "4", "8", "16",
              "--strategy", "pushdown"]


def _run(mode: str):
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, mode, *_COSY_ARGS],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout, json.loads(done.stderr.splitlines()[-1])


class TestNoNumpyAtRuntime:
    def test_numpy_is_never_imported_and_is_not_needed(self):
        stdout, loaded = _run("default")
        assert loaded == {
            "repro": False,
            "repro.cosy.cli": False,
            "repro.traces": False,
            "cosy run": False,
        }
        assert "SublinearSpeedup" in stdout
        blocked_stdout, _ = _run("blocked")
        assert blocked_stdout == stdout
