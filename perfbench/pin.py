#!/usr/bin/env python3
"""Record the sha256 of every CLI output, and TPR/FPR, for pinned seeds.

    python3 perfbench/pin.py --seeds 0-19 [--workload NAME ...]

For each workload and seed this runs the set-up and one pipeline
iteration, accepts the outputs only if every independent check in
perfbench/oracle.py and every workload premise passes, and writes them to
perfbench/pins.json. run.py then requires byte-identical outputs for those
seeds. Re-pin only for a change that alters outputs on purpose.
"""

import argparse
import json
import os
import shutil
import sys

import run
from workloads import WORKLOADS


def pin_one(name: str, seed: int) -> dict:
    work = run.WORK / f"pin-{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = run.Runner(work)
    try:
        wl = run.Workload(name, seed, 1.0, runner)
        wl.pins = None
        wl.setup(1)
        calls = wl.iterate()
        if runner.failed or wl.premise_errors:
            raise SystemExit(f"{name} seed {seed}: checks failed: "
                             f"{runner.problems + wl.premise_errors}")
        return {**wl.digests(calls), "tpr": wl.outcome["tpr"], "fpr": wl.outcome["fpr"]}
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-19")
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    pins = json.loads(run.PINS.read_text()) if run.PINS.is_file() else {}
    for name in args.workload or sorted(WORKLOADS):
        for seed in seeds:
            pins.setdefault(name, {})[str(seed)] = pin_one(name, seed)
            print(f"pinned {name} seed {seed}", flush=True)
            run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
