"""One traced CLI call, run as a fresh process by the traced benchmark.

    python3 perfbench/cli_child.py factor --poly 1,0,1 --prime 5

Imports the CLI, wraps every layer, runs ``adelic.cli.main`` on the
arguments with its output captured, and prints one JSON object: the exit
code, the CLI's standard output and the recorded trace.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import adelic.cli

import tracing


def main(argv) -> int:
    tracer = tracing.Tracer()
    tracing.install(tracer)
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        rc = adelic.cli.main(argv)
    print(json.dumps({"rc": rc, "stdout": captured.getvalue(), "trace": tracer.dump()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
