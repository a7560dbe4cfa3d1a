"""Run one `boscids` CLI command in process with the span recorder installed.

Usage: python3 perfbench/traced_cli.py SPANS_JSON COMMAND [ARGS...]

The spans, counts and the command's in-process wall and CPU time are
written to SPANS_JSON after the command returns; the exit status is the
command's own.
"""

import sys
import time

from spans import SpanRecorder


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    rec = SpanRecorder()
    rec.install()
    from boscids import cli

    t0, c0 = time.perf_counter(), time.process_time()
    status = cli.main(argv)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    rec.dump(out, command=argv[0], exit=status, wall_s=wall, cpu_s=cpu)
    return status


if __name__ == "__main__":
    sys.exit(main())
