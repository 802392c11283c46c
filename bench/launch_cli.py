"""Run one ``cfx`` command with the tracing wrappers installed.

    python bench/launch_cli.py SPAWN_NS TRACE_FILE OP_ID CLI_ARGS...

SPAWN_NS is the monotonic clock (``time.perf_counter_ns``) read by the
parent just before it started this process, so the import time includes
interpreter start-up.  The command's output and exit code are those of
``cfx.cli.main``; the spans go to TRACE_FILE.
"""

import json
import sys
import time

import cfx.cli

import_ms = (time.perf_counter_ns() - int(sys.argv[1])) / 1e6

import tracing  # noqa: E402  (imported after cfx so it is not in import_ms)

tracer = tracing.Tracer()
tracer.install()
tracer.op = int(sys.argv[3])
try:
    code = cfx.cli.main(sys.argv[4:])
finally:
    tracer.uninstall()
    with open(sys.argv[2], "w") as fh:
        json.dump(dict(tracer.dump(), import_ms=import_ms), fh)
sys.exit(code)
