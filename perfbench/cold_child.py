"""One traced run of the ``cosy`` command in a fresh interpreter.

Usage (with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/cold_child.py <cosy arguments>

Prints the command's report, then one JSON line with the run's span totals
(:meth:`spans.Tracer.summary`) plus the clock readings ``start_ns`` (when
:func:`main` began) and ``exit_ns`` (when the output began).  The import of
the program is the ``import`` span and the command itself the ``cli`` span;
the parent adds the ``startup`` and ``exit`` spans from the two readings.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

from spans import Tracer, install


def main() -> int:
    start_ns = time.perf_counter_ns()
    tracer = Tracer()
    tracer.begin_op()
    with tracer.span("import"):
        from repro.cosy import cli
    install(tracer)
    report = io.StringIO()
    with tracer.span("cli"), contextlib.redirect_stdout(report):
        code = cli.main(sys.argv[1:])
    tracer.end_op()
    sys.stdout.write(report.getvalue())
    summary = tracer.summary()
    summary.update(start_ns=start_ns, exit_ns=time.perf_counter_ns())
    print(json.dumps(summary))
    return code


if __name__ == "__main__":
    sys.exit(main())
