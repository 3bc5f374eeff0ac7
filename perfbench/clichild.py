"""A traced ``wgames`` process: ``clichild.py SUMMARY ARGS...``.

Times the import of ``wgames.cli``, wraps the layers (see ``spans.py``),
runs the CLI on ARGS with the usual stdout, stderr and exit code, and
writes the layer summary and the spans to SUMMARY as JSON.
"""

import json
import sys
import time

start = time.perf_counter()
import wgames.cli  # noqa: E402

import_ms = (time.perf_counter() - start) * 1000
import spans  # noqa: E402

tracer = spans.Tracer()
tracer.install()
code = 0
try:
    tracer.call("cli.main", wgames.cli.main, sys.argv[2:], prog_name="wgames")
except SystemExit as exc:
    code = exc.code
finally:
    summary = tracer.summary()
    summary["import_ms"] = import_ms
    summary["spans"] = list(tracer.dump_rows())
    with open(sys.argv[1], "w", encoding="utf-8") as f:
        json.dump(summary, f)
sys.exit(code)
