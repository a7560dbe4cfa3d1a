"""Starts the benchmark's child processes from a small process of its own.

On Linux a child's ru_maxrss starts from the resident size of the process
that forked it. The benchmark process grows while it checks outputs, so it
hands every child to this launcher, which stays small, to keep each
reported peak RSS the child's own.

Protocol: one JSON request per stdin line, {"argv", "cwd", "env", "stdout",
"stderr", "timeout"}; one JSON reply per stdout line, {"exit", "wall_s",
"cpu_s", "maxrss_kb"}. The launcher exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                stdout=out, stderr=err)
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    return {"exit": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime, "maxrss_kb": usage.ru_maxrss}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
