"""Start ``repro serve`` with the benchmark's span wrappers installed.

    python3 perfbench/serve_traced.py --trace-out SPANS.json -- \\
        --data-dir DIR --port 0 [other `repro serve` options]

Spans stay in memory and are written to SPANS.json as
``{"pid": ..., "spans": [[name, start, end, id, parent, extra], ...]}``
when the server exits, and on SIGUSR1 (so a client can collect them
before it kills the server).  ``server.dispatch`` spans carry the
protocol request id, which keys every other span of that request: a
span belongs to the request whose dispatch interval contains its start
(one client, closed loop — background seals and merges that start
between requests belong to none).
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import signal
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

from tracing import Tracer  # noqa: E402


def dump(tracer: Tracer, path: Path) -> None:
    temporary = path.with_suffix(".tmp")
    with open(temporary, "w") as handle:
        json.dump({"pid": os.getpid(), "spans": list(tracer.spans)}, handle)
    os.replace(temporary, path)


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", required=True, type=Path)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]

    import repro.cli
    import repro.server  # noqa: F401  (patched modules load first)

    tracer = Tracer().install()
    signal.signal(signal.SIGUSR1,
                  lambda _signum, _frame: dump(tracer, args.trace_out))
    atexit.register(dump, tracer, args.trace_out)
    return repro.cli.serve_main(serve_args, sys.stdout)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
