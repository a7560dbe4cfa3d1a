"""Command-line entry point wiring the pipeline: ingest, train, detect, eval,
gen.

Exit statuses: 0 success/clean, 2 anomaly detected (detect), 3 training did
not converge (train), 1 operational error. Defaults follow the standard
parameterization (window 10, epoch 5000, train threshold 0.99, detection
threshold 10% of the epoch).
"""

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

from . import detector, evaluator, synth, trace_ingest, trainer
from .bosc import Config

CONFIG_ENV_VAR = "BOSCIDS_CONFIG"

# Flags a config file may set, by long name. A subcommand takes those it has
# and ignores the rest, so one file can serve every subcommand.
CONFIG_KEYS = frozenset({
    "window", "epoch-size", "train-threshold", "detect-fraction", "seed", "jobs",
    "granularity", "alphabet-size", "zipf-s", "intensity", "inject-mode",
})


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; 2 is reserved for anomalies.
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    p = Path(path)
    if not p.is_file():
        raise CliError(f"config: file not found: {path}")
    try:
        # LF only: str.splitlines would also end a line at \x0c, \x1c or
        # U+2028, and so read keys hidden inside one line.
        lines = trace_ingest.read_text(p, "utf-8").split("\n")
    except ValueError as e:
        raise CliError(f"config: {e}") from None
    for i, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise CliError(f"config: {p}: line {i}: expected key=value, got {line!r}")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise CliError(f"config: unknown field {key!r}")
        values[key.replace("-", "_")] = value.strip()
    return values


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The boscids parser and its subcommand parsers by name."""
    parser = _Parser(prog="boscids",
                     description="Bag-of-system-calls anomaly detection over syscall traces.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND",
                              parser_class=_Parser)
    config = _Parser(add_help=False)
    config.add_argument("--config", metavar="PATH",
                        help=f"key=value config file; ${CONFIG_ENV_VAR} names a default (flags win)")

    p = sub.add_parser("ingest",
                       help="parse tracer output into trace and count files",
                       description="Parse strace-format text into a name-per-line trace file and a tab-separated count file.")
    p.add_argument("input", metavar="STRACE_FILE", help="captured tracer output")
    p.add_argument("--trace-out", metavar="PATH",
                   help="trace file to write (default: INPUT.trace)")
    p.add_argument("--count-out", metavar="PATH",
                   help="count file to write (default: INPUT.counts)")

    p = sub.add_parser("train", parents=[config],
                       help="learn a normal-behavior model from a trace file",
                       description="Train on a name-per-line trace file; prints per-epoch similarity and writes the model. Exit 3 if training does not converge.")
    p.add_argument("trace", metavar="TRACE_FILE", help="name-per-line trace file")
    p.add_argument("--model", required=True, metavar="PATH", help="model file to write")
    p.add_argument("--counts", metavar="PATH",
                   help="count file from ingest (default: recomputed from the trace)")
    p.add_argument("--window", type=int, default=10, metavar="W",
                   help="sliding window size in calls (default: 10)")
    p.add_argument("--epoch-size", type=int, default=5000, metavar="S",
                   help="epoch size in calls (default: 5000)")
    p.add_argument("--train-threshold", type=float, default=0.99, metavar="T",
                   help="cosine similarity needed for two consecutive epochs to stop training (default: 0.99)")
    p.add_argument("--detect-fraction", type=float, default=0.10, metavar="F",
                   help="mismatch threshold as a fraction of epoch length (default: 0.10)")

    p = sub.add_parser("detect", parents=[config],
                       help="scan trace files against a trained model",
                       description="Scan one or more name-per-line trace files; exit 2 when any epoch is anomalous.")
    p.add_argument("traces", nargs="+", metavar="TRACE_FILE", help="name-per-line trace file(s)")
    p.add_argument("--model", required=True, metavar="PATH", help="trained model file")
    p.add_argument("--report", metavar="PATH",
                   help="write the report here instead of stdout (single trace only)")
    p.add_argument("--detect-fraction", type=float, metavar="F",
                   help="override the model's mismatch threshold fraction (default: the model's own)")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="scan multiple traces on N threads (default: 1)")

    p = sub.add_parser("eval", parents=[config],
                       help="compute TPR/FPR from reports and label files",
                       description="Pair detection reports with ground-truth label files and compute TPR/FPR.")
    p.add_argument("--report", action="append", required=True, metavar="PATH",
                   help="detection report file (repeatable)")
    p.add_argument("--labels", action="append", required=True, metavar="PATH",
                   help="label file matching the report given in the same position (repeatable)")
    # argparse checks choices on flags only; compute_metrics rejects a bad
    # value from a config file.
    p.add_argument("--granularity", choices=evaluator.GRANULARITIES, default="epoch",
                   help="count epochs or windows (default: epoch)")

    p = sub.add_parser("gen", parents=[config],
                       help="generate a deterministic synthetic trace",
                       description="Generate a seeded synthetic workload trace, optionally with labeled injected epochs.")
    p.add_argument("--calls", type=int, required=True, metavar="N", help="trace length in calls")
    p.add_argument("--out", required=True, metavar="PATH", help="trace file to write")
    p.add_argument("--seed", type=int, default=42, metavar="SEED", help="generator seed (default: 42)")
    p.add_argument("--alphabet-size", type=int, default=64, metavar="N",
                   help="distinct syscall names in the source (default: 64)")
    p.add_argument("--zipf-s", type=float, default=1.2, metavar="S",
                   help="stationary frequency skew, 0 = uniform (default: 1.2)")
    p.add_argument("--labels", metavar="PATH", help="write per-epoch labels here")
    p.add_argument("--inject-epochs", metavar="E1,E2,...",
                   help="comma-separated epoch indices to corrupt")
    # As for --granularity, InjectionSpec rejects a bad value from a config file.
    p.add_argument("--inject-mode", choices=synth.INJECTION_MODES, default="novel_names",
                   help="corruption mode (default: novel_names)")
    p.add_argument("--intensity", type=float, default=0.5, metavar="F",
                   help="fraction of each target epoch replaced (default: 0.5)")
    p.add_argument("--epoch-size", type=int, default=5000, metavar="S",
                   help="epoch size for labels/injection (default: 5000)")

    return parser, sub.choices


def _cmd_ingest(args) -> int:
    src = Path(args.input)
    if not src.is_file():
        raise CliError(f"input: file not found: {src}")
    trace = trace_ingest.ingest_file(src)
    table = trace_ingest.count_table(trace)
    trace_out = Path(args.trace_out) if args.trace_out else src.with_name(src.name + ".trace")
    count_out = Path(args.count_out) if args.count_out else src.with_name(src.name + ".counts")
    trace_ingest.write_trace_file(trace, trace_out)
    trace_ingest.write_count_file(table, count_out)
    print(f"{trace.source_meta}; {len(trace.calls)} calls, {len(table)} distinct")
    print(f"trace: {trace_out}")
    print(f"counts: {count_out}")
    return 0


def _cmd_train(args) -> int:
    config = Config(
        window_size=args.window,
        epoch_size=args.epoch_size,
        train_threshold=args.train_threshold,
        detect_threshold_fraction=args.detect_fraction,
    )
    trace = trace_ingest.read_trace_file(args.trace)
    counts = trace_ingest.read_count_file(args.counts) if args.counts else None
    model = trainer.train(trace, counts=counts, config=config)
    for k, cos in enumerate(model.history, start=2):
        print(f"epoch {k} cos={cos:.9f}")
    trainer.save_model(model, args.model)
    status = "converged" if model.converged else "did NOT converge"
    print(
        f"{status} after {model.epochs_trained} epochs; "
        f"db entries={len(model.db)} retained={len(model.index.slots)} ns={model.index.n_s}"
    )
    print(f"model: {args.model}")
    return 0 if model.converged else 3


def _cmd_detect(args) -> int:
    if args.jobs < 1:
        raise CliError("jobs: must be a positive integer")
    if args.report and len(args.traces) > 1:
        raise CliError("report: --report accepts a single input trace")
    model = trainer.load_model(args.model)
    if args.detect_fraction is not None:
        model.config = replace(model.config, detect_threshold_fraction=args.detect_fraction)

    def scan(path: str) -> detector.DetectionReport:
        return detector.detect(model, trace_ingest.read_trace_file(path))

    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        reports = list(pool.map(scan, args.traces))

    empty = False
    for path, report in zip(args.traces, reports):
        if not report.verdicts:
            print(f"{path}: empty trace, nothing scanned", file=sys.stderr)
            empty = True
            continue
        if args.report:
            detector.write_report_file(report, args.report)
            print(f"report: {args.report}")
        else:
            if len(args.traces) > 1:
                print(f"== {path}")
            print(detector.format_report(report), end="")
    if empty:
        return 1
    return 2 if any(r.trace_anomalous for r in reports) else 0


def _cmd_eval(args) -> int:
    if len(args.report) != len(args.labels):
        raise CliError("labels: need exactly one label file per report")
    reports = {}
    pairs = []
    # Keyed by the path as given: reports in two directories may share a stem.
    for rpath, lpath in zip(args.report, args.labels):
        reports[rpath] = detector.read_report_file(rpath)
        pairs.append((rpath, evaluator.read_labels(lpath)))
    corpus = evaluator.LabeledCorpus.from_pairs(pairs)
    metrics = evaluator.compute_metrics(reports, corpus, args.granularity)
    print(evaluator.format_metrics(metrics), end="")
    return 0


def _cmd_gen(args) -> int:
    spec = synth.make_source(n_names=args.alphabet_size, zipf_s=args.zipf_s, seed=args.seed)
    if args.inject_epochs:
        try:
            targets = frozenset(int(tok) for tok in args.inject_epochs.split(","))
        except ValueError:
            raise CliError(f"inject-epochs: expected comma-separated integers, got {args.inject_epochs!r}") from None
        inj = synth.InjectionSpec(targets, args.inject_mode, args.intensity)
        trace, labels = synth.gen_anomalous(spec, args.calls, inj, args.epoch_size)
    else:
        trace = synth.gen_normal(spec, args.calls)
        if args.labels:
            if args.calls % args.epoch_size:
                raise CliError("calls: must be a multiple of epoch-size when labels are requested")
            labels = ["normal"] * (args.calls // args.epoch_size)
    trace_ingest.write_trace_file(trace, args.out)
    print(f"{trace.source_meta}")
    print(f"trace: {args.out}")
    if args.labels:
        evaluator.write_labels(labels, args.labels)
        print(f"labels: {args.labels}")
    return 0


_COMMANDS = {
    "ingest": _cmd_ingest,
    "train": _cmd_train,
    "detect": _cmd_detect,
    "eval": _cmd_eval,
    "gen": _cmd_gen,
}


def main(argv=None) -> int:
    parser, commands = build_parser()
    try:
        args = parser.parse_args(argv)
        path = "config" in args and (args.config or os.environ.get(CONFIG_ENV_VAR))
        if path:
            # The file's values become the chosen subcommand's defaults, so
            # flags still win and argparse converts them like flag values.
            commands[args.command].set_defaults(**_load_config_file(path))
            args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as e:
        return int(e.code or 0)
    except (CliError, ValueError, OSError) as e:
        print(f"boscids {args.command}: error: {e}", file=sys.stderr)
        return 1


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
