#!/usr/bin/env python3
"""boscids benchmark: drive the real `boscids` CLI on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is imported from
`src/` through PYTHONPATH, so there is nothing to build. Work files go to
`.perfbench_work/` in the checkout and are removed at the end.

Each run makes the workload's inputs from the seed with `boscids gen`
(set-up, repeated SETUP_REPS times and checked to be identical), renders one
generated trace as strace text, then repeats the measured pipeline (ingest,
train, detect, eval; one child process per command, one at a time) for
about S seconds. Throughputs are the run's total work over the time it took,
pipeline_s is the mean iteration, set-up time and peak RSS are medians.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json: wall-time
throughputs, each command's peak RSS from os.wait4, TPR and TNR (1 - FPR),
and the share of CLI calls that behaved as expected. --trace 1 runs each
command instead under perfbench/traced_cli.py, which wraps the package's
functions from outside, and prints the per-layer metrics: self time per
`<command>.<module>.<function>`, counts taken at those calls, the import
time, the children's CPU time and the tracing overhead (traced minus
untraced pipeline wall time).

Every CLI call is checked: its exit status, the byte-exact trace and count
files ingest writes against the rendered names, the model and reports
against an independent recount (perfbench/oracle.py), eval's counts, the
sha256 of every output against perfbench/pins.json where the seed is pinned,
and each workload's premise (which bag-coding path, how little of the
capture training uses). The last line of stdout is one JSON object with
keys correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle
from spans import self_times
from strace_render import render_file
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PINS = HERE / "pins.json"

SETUP_REPS = 3
MIN_ITERATIONS = 3
IMPORT_REPS = 5
CHILD_TIMEOUT_S = 150.0
DEADLINE_S = 140.0  # no new iteration starts after this much of the run
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


@dataclass
class Call:
    """One finished child process."""

    argv: tuple[str, ...]
    exit: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str


class Runner:
    """Starts CLI children one at a time in the work directory, through
    perfbench/launcher.py, and counts the calls that did not behave as
    expected."""

    def __init__(self, work: Path):
        self.work = work
        self.env = {k: v for k, v in os.environ.items() if k != "BOSCIDS_CONFIG"}
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._launcher = subprocess.Popen([sys.executable, str(HERE / "launcher.py")],
                                          stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def close(self) -> None:
        self._launcher.stdin.close()
        try:
            self._launcher.wait(timeout=CHILD_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self._launcher.kill()
            self._launcher.wait()

    def import_probe(self) -> Call:
        return self.spawn([sys.executable, "-c", "import boscids.cli"], ("import", "boscids.cli"))

    def run(self, argv, traced_to: Path | None = None) -> Call:
        if traced_to is None:
            cmd = [sys.executable, "-m", "boscids.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(traced_to), *argv]
        return self.spawn(cmd, argv)

    def spawn(self, cmd, argv) -> Call:
        out_path, err_path = self.work / ".stdout", self.work / ".stderr"
        request = {"argv": list(cmd), "cwd": str(self.work), "env": self.env,
                   "stdout": str(out_path), "stderr": str(err_path), "timeout": CHILD_TIMEOUT_S}
        self._launcher.stdin.write(json.dumps(request) + "\n")
        self._launcher.stdin.flush()
        reply = json.loads(self._launcher.stdout.readline())
        return Call(tuple(argv), reply["exit"], reply["wall_s"], reply["cpu_s"],
                    reply["maxrss_kb"] / 1024.0,
                    out_path.read_text(encoding="utf-8", errors="replace"),
                    err_path.read_text(encoding="utf-8", errors="replace"))

    def judge(self, call: Call, errors: list[str]) -> None:
        """Count one CLI call; it failed if errors is not empty."""
        self.attempted += 1
        if errors:
            self.failed += 1
            tail = call.stderr.strip().splitlines()[-1:]
            self.problems.append(f"{' '.join(call.argv[:2])}: {'; '.join(errors + tail)}")


def _median(values) -> float:
    return float(statistics.median(values))


def _arg_after(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


def split_reports(stdout: str, traces) -> dict[str, str]:
    """Cut multi-trace detect output (`== path` headers) into one report per
    trace."""
    parts: dict[str, list[str]] = {}
    current = None
    for line in stdout.splitlines(keepends=True):
        if line.startswith("== "):
            current = line[3:].strip()
            parts[current] = []
        elif current is not None:
            parts[current].append(line)
    return {t: "".join(parts.get(t, [])) for t in traces}


class Workload:
    """A plan plus what its first checked iteration established."""

    def __init__(self, name, seed, scale, runner: Runner):
        self.plan = WORKLOADS[name](seed, scale)
        self.seed = seed
        self.scale = scale
        self.runner = runner
        self.work = runner.work
        pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
        self.pins = pins.get(name, {}).get(str(seed)) if scale == 1.0 else None
        self.reference: dict[str, str] | None = None
        self.outcome: dict[str, float] = {}
        self.premise_errors: list[str] = []
        self.capture_lines = 0

    # ----- set-up -------------------------------------------------------
    def setup(self, reps: int, traced: bool = False) -> list[float]:
        """Run the gen calls reps times; returns the wall time of each rep."""
        walls, first = [], None
        for rep in range(reps):
            total, digests = 0.0, {}
            for i, argv in enumerate(self.plan.gens):
                call = self.runner.run(argv, self.work / f"gen{i}.spans" if traced else None)
                total += call.wall_s
                outs = [p for p in (_arg_after(argv, "--out"), _arg_after(argv, "--labels")) if p]
                errors = [] if call.exit == 0 else [f"exit {call.exit}, expected 0"]
                if not errors:
                    digests.update({p: oracle.sha256_file(self.work / p) for p in outs})
                    if first is not None and any(first.get(p) != digests[p] for p in outs):
                        errors.append("output differs from the first set-up")
                self.runner.judge(call, errors)
            first = first or digests
            walls.append(total)
        self.capture_lines = render_file(self.work / self.plan.capture_names,
                                         self.work / self.plan.capture, self.seed)
        return walls

    # ----- one pipeline iteration --------------------------------------
    def iterate(self, traced: bool = False) -> dict[str, Call]:
        calls: dict[str, Call] = {}
        for step in self.plan.steps:
            spans = self.work / f"{step.cmd}.spans" if traced else None
            calls[step.cmd] = self.runner.run(step.argv, spans)
            if step.cmd == "detect" and len(self.plan.detect_traces) > 1:
                texts = split_reports(calls["detect"].stdout, self.plan.detect_traces)
                for trace, report in zip(self.plan.detect_traces, self.plan.reports):
                    (self.work / report).write_text(texts[trace], encoding="ascii")
        self.check(calls)
        return calls

    def digests(self, calls) -> dict[str, str]:
        p, w = self.plan, self.work
        d = {"ingest.trace": oracle.sha256_file(w / _arg_after(p.steps[0].argv, "--trace-out")),
             "ingest.counts": oracle.sha256_file(w / _arg_after(p.steps[0].argv, "--count-out")),
             "train.model": oracle.sha256_file(w / _arg_after(p.steps[1].argv, "--model"))}
        for report in p.reports:
            d[f"detect.{report}"] = oracle.sha256_file(w / report)
        d["eval.stdout"] = hashlib.sha256(calls["eval"].stdout.encode()).hexdigest()
        return d

    def check(self, calls: dict[str, Call]) -> None:
        """Judge every call of one iteration: exit status, then outputs
        against the oracle (first iteration) or the first iteration's
        digests (later ones)."""
        errors = {s.cmd: ([] if calls[s.cmd].exit == s.expect_exit
                          else [f"exit {calls[s.cmd].exit}, expected {s.expect_exit}"])
                  for s in self.plan.steps}
        try:
            digests = self.digests(calls)
        except OSError as e:
            digests = {}
            for errs in errors.values():
                errs.append(f"missing output: {e}")
        if digests and self.reference is None:
            self.reference = digests
            for cmd, errs in self.verify(calls).items():
                errors[cmd].extend(errs)
            if self.pins is not None:
                for key, value in digests.items():
                    if self.pins.get(key) != value:
                        errors[key.split(".")[0]].append(f"{key} sha256 differs from the pin")
        elif digests:
            for key, value in digests.items():
                if self.reference.get(key) != value:
                    errors[key.split(".")[0]].append(f"{key} differs from the first iteration")
        for step in self.plan.steps:
            self.runner.judge(calls[step.cmd], errors[step.cmd])

    def verify(self, calls) -> dict[str, list[str]]:
        """Independent recount of every output of one iteration."""
        p, w = self.plan, self.work
        errs: dict[str, list[str]] = {s.cmd: [] for s in p.steps}
        names = oracle.read_names(w / p.capture_names)
        ingest = p.steps[0].argv
        if (w / _arg_after(ingest, "--trace-out")).read_bytes() != (w / p.capture_names).read_bytes():
            errs["ingest"].append("trace file differs from the rendered names")
        expect_counts = oracle.count_file_bytes(oracle.count_entries(names))
        if (w / _arg_after(ingest, "--count-out")).read_bytes() != expect_counts:
            errs["ingest"].append("count file differs from the recount")
        try:
            model = oracle.parse_model(w / _arg_after(p.steps[1].argv, "--model"))
        except (ValueError, IndexError) as e:
            errs["train"].append(str(e))
            return errs
        train_names = oracle.read_names(w / p.train_trace)
        errs["train"].extend(oracle.check_model(model, train_names))
        rows = []
        for trace, report in zip(p.detect_traces, p.reports):
            rows.append(oracle.report_rows(model, oracle.read_names(w / trace)))
            errs["detect"].extend(oracle.check_report((w / report).read_text(), rows[-1]))
        got = oracle.parse_eval(calls["eval"].stdout)
        want = oracle.eval_counts(rows, [oracle.read_labels(w / lab) for lab in p.labels])
        for key, value in want.items():
            if got.get(key) != str(value):
                errs["eval"].append(f"eval {key}={got.get(key)}, expected {value}")
        tpr = want["tp"] / want["malicious"] if want["malicious"] else None
        fpr = want["fp"] / want["normal"] if want["normal"] else None
        for key, value in (("tpr", tpr), ("fpr", fpr)):
            if value is None:
                errs["eval"].append(f"{key} undefined")
            elif self.pins is not None and self.pins.get(key) != value:
                errs["eval"].append(f"{key}={value}, pinned {self.pins.get(key)}")
        # Facts the workload was chosen for; a seed must not move them.
        n_s = len(model.slots) + 1
        used = (len(model.history) + 1) * model.S / max(1, len(train_names))
        self.outcome = {"tpr": tpr or 0.0, "fpr": fpr or 0.0, "n_s": n_s, "calls_used_ratio": used}
        if self.scale == 1.0:
            pr = p.premise
            if "n_s_max" in pr and n_s > pr["n_s_max"]:
                self.premise_errors.append(f"n_s={n_s} above {pr['n_s_max']}")
            if "n_s_min" in pr and n_s < pr["n_s_min"]:
                self.premise_errors.append(f"n_s={n_s} below {pr['n_s_min']}")
            if "calls_used_ratio_max" in pr and used >= pr["calls_used_ratio_max"]:
                self.premise_errors.append(f"calls_used_ratio={used:.4f} not below "
                                           f"{pr['calls_used_ratio_max']}")
        return errs

    # ----- metrics -----------------------------------------------------
    def train_calls(self) -> int:
        return len(oracle.read_names(self.work / self.plan.train_trace))

    def detect_calls(self) -> int:
        return sum(len(oracle.read_names(self.work / t)) for t in self.plan.detect_traces)


def measure(loop_seconds: float, started: float, body) -> list:
    """Call body() repeatedly for about loop_seconds: at least MIN_ITERATIONS
    times unless the run deadline comes first."""
    out, t0 = [], time.perf_counter()
    while True:
        t = time.perf_counter()
        out.append(body())
        last = time.perf_counter() - t
        now = time.perf_counter()
        if now - started + last > DEADLINE_S:
            break
        if len(out) >= MIN_ITERATIONS and now - t0 + last > loop_seconds:
            break
    return out


def end_to_end(wl: Workload, setup_walls, iterations) -> dict[str, float]:
    """Throughputs are the work of all iterations over the time they took,
    and pipeline_s the mean iteration: on a shared host other tenants slow
    the process in episodes of seconds, and a run-level total moves less with
    the share of a run they cover than a median, which jumps between the fast
    and the slow level. Peak RSS does not depend on timing; it is a median."""
    n_train, n_detect = wl.train_calls(), wl.detect_calls()

    def rate(work: int, cmd: str) -> float:
        return work * len(iterations) / sum(it[cmd].wall_s for it in iterations)

    def med(f):
        return _median([f(it) for it in iterations])

    return {
        "setup_s": _median(setup_walls),
        "ingest_lines_per_s": rate(wl.capture_lines, "ingest"),
        "train_calls_per_s": rate(n_train, "train"),
        "detect_calls_per_s": rate(n_detect, "detect"),
        "pipeline_s": statistics.fmean(sum(c.wall_s for c in it.values()) for it in iterations),
        "ingest_peak_rss_mb": med(lambda it: it["ingest"].rss_mb),
        "train_peak_rss_mb": med(lambda it: it["train"].rss_mb),
        "detect_peak_rss_mb": med(lambda it: it["detect"].rss_mb),
        "tpr": wl.outcome.get("tpr", 0.0),
        "tnr": 1.0 - wl.outcome.get("fpr", 1.0),
    }


# Per-layer metrics whose span is not `<module>.<function>` of the name.
SPAN_OF = {"train.trainer.self_s": ("train", "trainer.train"),
           "detect.detector.lookup_s": ("detect", "detector.scan_epoch")}


def load_spans(path: Path) -> dict:
    data = json.loads(path.read_text())
    data["self"], data["by_thread"] = self_times(data["spans"])
    return data


def per_layer(wl: Workload, names, gen_spans, untraced, iterations, import_s) -> dict[str, float]:
    """Per-layer metrics from the traced iterations (medians)."""
    def span_metric(name, it):
        cmd, span = SPAN_OF.get(name) or (name.split(".")[0], name.split(".", 1)[1][:-2])
        if cmd == "gen":
            return sum(g["self"].get(span, 0.0) for g in gen_spans)
        return it[cmd]["self"].get(span, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    def counts(it):
        tr, de = it["train"]["counts"], it["detect"]["counts"]
        return {
            "catalog.n_s": tr.get("n_s", 0),
            "catalog.other_share": ratio(tr.get("other", 0), tr.get("resolved", 0)),
            "bosc.windows": tr.get("windows", 0),
            "bosc.unique_bags": tr.get("unique_bags", 0),
            "bosc.dedup_ratio": ratio(tr.get("unique_bags", 0), tr.get("windows", 0)),
            "trainer.epochs_trained": tr.get("epochs_trained", 0),
            "trainer.db_entries": tr.get("db_entries", 0),
            "trainer.model_bytes": tr.get("model_bytes", 0),
            "trainer.calls_used_ratio": ratio(tr.get("epochs_trained", 0) * tr.get("epoch_size", 0),
                                              tr.get("calls_read", 0)),
            "detector.mismatches": de.get("mismatches", 0),
            "detector.hit_ratio": 1.0 - ratio(de.get("mismatches", 0), de.get("windows_scanned", 0)),
            "tracer.spans_found": len(it["train"]["found"]),
        }

    traced_pipeline = _median([sum(s["parent_wall_s"] for s in it.values()) for it in iterations])
    untraced_pipeline = sum(c.wall_s for c in untraced.values())
    fixed = {
        "cli.import_s": import_s,
        "cli.train.cpu_s": untraced["train"].cpu_s,
        "cli.detect.cpu_s": untraced["detect"].cpu_s,
        "tracing_overhead_s": traced_pipeline - untraced_pipeline,
    }
    tallies = [counts(it) for it in iterations]
    out = {}
    for name in names:
        if name in fixed:
            out[name] = fixed[name]
        elif name in tallies[0]:
            out[name] = _median([t[name] for t in tallies])
        else:
            out[name] = _median([span_metric(name, it) for it in iterations])
    return out


def environment() -> dict:
    commit = "unknown"
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        if got.returncode == 0:
            commit = got.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "thread_env": {k: os.environ[k] for k in THREAD_ENV if k in os.environ},
    }


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="shrink the workload sizes (smoke tests); premises and pins apply at 1")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or not 0 < args.scale <= 1:
        ap.error("--seed must be >= 0, --seconds > 0 and --scale in (0, 1]")
    return args


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "boscids" / "cli.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no boscids sources under {SRC} or no {spec_path.name}; "
              "run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(work)
    try:
        return run(args, spec, runner, started)
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def run_untraced(args, wl: Workload, runner: Runner, started: float):
    """End-to-end metrics; returns (metrics, extra printed metrics)."""
    setup_walls = wl.setup(SETUP_REPS)
    iterations = measure(args.seconds, started, wl.iterate)
    metrics = end_to_end(wl, setup_walls, iterations)
    metrics["ok_ops_ratio"] = 1.0 - runner.failed / runner.attempted
    print("outcome " + json.dumps(wl.outcome, sort_keys=True))
    for cmd in iterations[0]:
        walls = [it[cmd].wall_s for it in iterations]
        print(f"summary {cmd} n={len(walls)} wall_s median={_median(walls):.4f} "
              f"mean={statistics.fmean(walls):.4f} min={min(walls):.4f} max={max(walls):.4f} "
              f"cpu_s mean={statistics.fmean(it[cmd].cpu_s for it in iterations):.4f}")
    for i, it in enumerate(iterations, 1):
        print(f"iter {i} " + " ".join(
            f"{cmd}:wall_s={c.wall_s:.3f},cpu_s={c.cpu_s:.3f},rss_mb={c.rss_mb:.1f},exit={c.exit}"
            for cmd, c in it.items()))
    # The contract forbids metrics that can read 0, so the result line
    # carries tnr and ok_ops_ratio; their complements are printed here.
    extra = {"fpr": (wl.outcome.get("fpr", 0.0), "ratio"),
             "failed_ops_ratio": (runner.failed / runner.attempted, "ratio")}
    return metrics, extra


def run_traced(args, wl: Workload, runner: Runner, started: float, names):
    """Per-layer metrics from a traced run; returns (metrics, {})."""
    import_s = _median([runner.import_probe().wall_s for _ in range(IMPORT_REPS)])
    wl.setup(1, traced=True)
    gen_spans = [load_spans(runner.work / f"gen{i}.spans") for i in range(len(wl.plan.gens))]
    untraced = wl.iterate()

    def traced_iteration():
        calls = wl.iterate(traced=True)
        it = {}
        for cmd, call in calls.items():
            data = load_spans(runner.work / f"{cmd}.spans")
            data["parent_wall_s"] = call.wall_s
            for tid, busy in data["by_thread"].items():
                if busy > data["wall_s"] + 1e-6:
                    runner.problems.append(f"{cmd}: thread {tid} self time {busy:.6f} s "
                                           f"exceeds wall {data['wall_s']:.6f} s")
            it[cmd] = data
        return it

    iterations = measure(args.seconds, started, traced_iteration)
    metrics = per_layer(wl, names, gen_spans, untraced, iterations, import_s)
    last = iterations[-1]
    print("spans_found " + " ".join(last["train"]["found"]))
    print("spans_missing " + (" ".join(last["train"]["missing"]) or "-"))
    for cmd, data in last.items():
        if data["hook_errors"]:
            print(f"hook_errors {cmd}: {data['hook_errors']}")
        print(f"traced {cmd}: wall_s={data['wall_s']:.3f} cpu_s={data['cpu_s']:.3f} "
              f"threads={len(data['by_thread'])}")
    for cmd, c in untraced.items():
        print(f"untraced {cmd}: wall_s={c.wall_s:.3f} cpu_s={c.cpu_s:.3f} rss_mb={c.rss_mb:.1f}")
    return metrics, {}


def run(args, spec, runner: Runner, started) -> int:
    probe = runner.import_probe()
    if probe.exit != 0:
        print(f"perfbench: cannot import boscids.cli:\n{probe.stderr}", file=sys.stderr)
        return 2
    wl = Workload(args.workload, args.seed, args.scale, runner)
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} scale={args.scale:g}")
    print("env " + json.dumps(environment(), sort_keys=True))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        metrics, extra = run_traced(args, wl, runner, started, [m["name"] for m in wanted])
    else:
        metrics, extra = run_untraced(args, wl, runner, started)
    for m in wanted:
        print(f"metric {m['name']} = {metrics[m['name']]!r} {m['unit']}")
    for name, (value, unit) in extra.items():
        print(f"metric {name} = {value!r} {unit}")
    for problem in runner.problems:
        print(f"problem {problem}", file=sys.stderr)
    for problem in wl.premise_errors:
        print(f"premise {problem}", file=sys.stderr)
    result = {
        "correct": runner.failed == 0 and not wl.premise_errors and not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
