"""Run one rdpopt CLI call like `python -m rdpopt`, timing its phases and layers.

Usage: cli_shim.py SPAWN_TIME SUBCOMMAND [FLAGS...]

SPAWN_TIME is the parent's time.perf_counter() just before it started this
process (CLOCK_MONOTONIC on Linux, shared by all processes).  The shim
records when the interpreter reached its first line, how long importing
rdpopt.cli took, and how long main() ran, with the library's layers traced
during main().  It appends one marker line with those times, spans and
counts to stderr, after whatever the CLI itself wrote there.
"""

import time

_start = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

_t0 = time.perf_counter()
import rdpopt.cli as _cli  # noqa: E402

_t1 = time.perf_counter()

import tracer  # noqa: E402


def main() -> int:
    trace = tracer.Tracer()
    trace.install()
    t2 = time.perf_counter()
    try:
        code = _cli.main(sys.argv[2:])
    finally:
        t3 = time.perf_counter()
        sys.stdout.flush()
        times = {"start": _start, "import": [_t0, _t1], "main": [t2, t3]}
        sys.stderr.write(tracer.SHIM_MARKER + tracer.dumps_child(trace, {"times": times}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
