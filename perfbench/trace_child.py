"""Run one ghzverify CLI invocation with tracing installed.

Usage: python perfbench/trace_child.py SPANS_OUT INVOCATION_ID ARGV...

The CLI's output goes to stdout as usual; the spans go to SPANS_OUT as
JSON when the invocation ends.  The exit code is the CLI's.
"""

from __future__ import annotations

import json
import sys

import tracer


def main() -> int:
    spans_out, invocation, *argv = sys.argv[1:]
    trace = tracer.Tracer(int(invocation))
    cli_main = tracer.install(trace)
    code = 1
    try:
        code = cli_main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        with open(spans_out, "w") as fh:
            json.dump(trace.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
