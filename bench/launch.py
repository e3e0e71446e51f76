"""Run the ``gdruin`` command line from this checkout's sources.

    python3 bench/launch.py [--trace-out spans.json] -- tables --out results/

Equivalent to the installed ``gdruin`` entry point.  With ``--trace-out`` the
outside-in wrappers are installed before ``gdruin.cli.main`` is called and
the spans are written to that file when the command ends, however it ends.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]

    import gdruin.cli

    if trace_out is None:
        return gdruin.cli.main(argv)

    sys.path.insert(0, str(BENCH))
    import tracer as tracing

    tracer = tracing.Tracer()
    tracer.install()
    tracer.op = 0
    try:
        return gdruin.cli.main(argv)
    finally:
        Path(trace_out).write_text(json.dumps(tracer.dump()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
