"""``repro serve`` with the benchmark's span wrappers, for traced runs.

    python perfbench/server.py --spans OUT.json --armed MARKER -- serve --checkpoint ... --http 0

Set-up wrappers are installed at start.  SIGUSR1 installs the
request-path wrappers and then creates ``MARKER``, so the caller can
measure an untraced phase first and a traced one after it in the same
server.  The spans are written to ``OUT.json`` when the server exits.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

import spans as spans_mod


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True)
    parser.add_argument("--armed", required=True)
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    from repro.cli import main as repro_main

    tracer = spans_mod.Tracer()
    spans_mod.install(tracer, spans_mod.SETUP_TARGETS)

    def arm(signum, frame):
        spans_mod.install(tracer, spans_mod.REQUEST_TARGETS)
        with open(args.armed, "w", encoding="ascii") as fh:
            fh.write("armed\n")

    signal.signal(signal.SIGUSR1, arm)
    try:
        return repro_main(cli_args)
    finally:
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
