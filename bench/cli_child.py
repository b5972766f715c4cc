"""One laserplasma CLI request with layer spans, for the traced cli_requests run.

    python3 bench/cli_child.py SPANS_OUT CLI_ARG...

Imports the CLI (recorded as a ``cli.import`` span), installs the same
wrappers as the in-process runs, calls ``laserplasma.cli.main`` with the
remaining arguments, writes the spans (absolute clock times) to SPANS_OUT
and exits with the CLI's exit code.  The caller puts the checkout's
``src`` on PYTHONPATH.
"""

import json
import sys
import time

import spans

_START = time.perf_counter()
import laserplasma.cli  # noqa: E402

_IMPORTED = time.perf_counter()


def main():
    spans_out, cli_args = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.task = 0
    tracer.spans.append(["cli.import", _START, _IMPORTED, -1, 0, None])
    spans.install(tracer)
    code = laserplasma.cli.main(cli_args)
    sys.stdout.flush()
    with open(spans_out, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
