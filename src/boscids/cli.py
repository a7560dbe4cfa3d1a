"""Command-line entry point wiring the pipeline: ingest, train, detect, eval,
gen.

Exit statuses: 0 success/clean, 2 anomaly detected (detect), 3 training did
not converge (train), 1 operational error. Defaults follow the standard
parameterization (window 10, epoch 5000, train threshold 0.99, detection
threshold 10% of the epoch).

Only the parser and `ingest` use the modules imported here; every other
command imports its own, so `ingest` and `--help` start without numpy.
"""

import argparse
import itertools
import os
import sys
from contextlib import closing, contextmanager
from dataclasses import replace
from pathlib import Path

from . import trace_ingest

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
        lines = list(trace_ingest.read_lines(p, "utf-8"))
    except ValueError as e:
        raise CliError(f"config: {e}") from None
    for i, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise CliError(f"config: {p}: line {i}: expected key=value, got {trace_ingest.quoted(line)}")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise CliError(f"config: {p}: line {i}: unknown field {trace_ingest.quoted(key)}")
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
                   help="count file from ingest; the trace is then read an epoch at a time, "
                        "and not past the epoch where training converges "
                        "(default: counted in a first pass over the whole trace)")
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
                   help="ignored, and to be removed: traces are scanned one after another (default: 1)")

    p = sub.add_parser("eval", parents=[config],
                       help="compute TPR/FPR from reports and label files",
                       description="Pair detection reports with ground-truth label files and compute TPR/FPR.")
    p.add_argument("--report", action="append", required=True, metavar="PATH",
                   help="detection report file (repeatable)")
    p.add_argument("--labels", action="append", required=True, metavar="PATH",
                   help="label file matching the report given in the same position (repeatable)")
    # compute_metrics checks the value, from a flag or a config file.
    p.add_argument("--granularity", default="epoch", metavar="UNIT",
                   help="what to count: epoch or window (default: epoch)")

    p = sub.add_parser("gen", parents=[config],
                       help="generate a deterministic synthetic trace",
                       description="Generate a seeded synthetic workload trace, optionally with labeled injected epochs.")
    p.add_argument("--calls", type=int, required=True, metavar="N", help="trace length in calls")
    p.add_argument("--out", required=True, metavar="PATH", help="trace file to write")
    p.add_argument("--seed", type=int, default=42, metavar="SEED", help="generator seed (default: 42)")
    p.add_argument("--alphabet-size", type=int, default=64, metavar="N",
                   help="distinct syscall names in the source, 1 to 1024 (default: 64)")
    p.add_argument("--zipf-s", type=float, default=1.2, metavar="S",
                   help="stationary frequency skew, 0 = uniform (default: 1.2)")
    p.add_argument("--labels", metavar="PATH", help="write per-epoch labels here")
    p.add_argument("--inject-epochs", metavar="E1,E2,...",
                   help="comma-separated epoch indices to corrupt")
    # As for --granularity, InjectionSpec checks the value.
    p.add_argument("--inject-mode", default="novel_names", metavar="MODE",
                   help="corruption mode: novel_names, shuffled_transitions or burst_repeat (default: novel_names)")
    p.add_argument("--intensity", type=float, default=0.5, metavar="F",
                   help="fraction of each target epoch replaced (default: 0.5)")
    p.add_argument("--epoch-size", type=int, default=5000, metavar="S",
                   help="epoch size for labels/injection (default: 5000)")

    return parser, sub.choices


def _new_beside(path: Path) -> Path:
    """A new empty file in path's directory, named after path; an error names
    path."""
    for n in itertools.count():
        new = path.with_name(f".{path.name}.{os.getpid()}-{n}.tmp")
        try:
            os.close(os.open(new, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
            return new
        except FileExistsError:
            continue
        except OSError as e:
            raise OSError(e.errno, e.strerror, str(path)) from None


@contextmanager
def _written_whole(*paths: Path):
    """Files for a block to write the content of paths to: new files beside
    them, which replace them only when the block exits cleanly and are
    removed when it fails. So no path gets partial output, and a path may
    name a file the block reads. A symlink keeps pointing at its file; a
    path that names something other than a regular file, such as /dev/null,
    is written in place. Two paths that name one file fail before any file
    is made."""
    # The file each path replaces; None for one written in place.
    targets = [None if path.exists() and not path.is_file() else Path(os.path.realpath(path))
               for path in paths]
    named: dict[Path, Path] = {}  # target -> the first path naming it
    for path, target in zip(paths, targets):
        if target in named:
            raise CliError(f"outputs {named[target]} and {path} name the same file")
        if target is not None:
            named[target] = path
    moves: list[tuple[Path, Path]] = []  # (new file, the file it replaces)
    try:
        files = []
        for path, target in zip(paths, targets):
            if target is None:
                files.append(path)
                continue
            moves.append((_new_beside(target), target))
            files.append(moves[-1][0])
        yield files
        for new, target in moves:
            os.replace(new, target)
    finally:
        for new, _ in moves:  # those not moved yet
            new.unlink(missing_ok=True)


def _cmd_ingest(args) -> int:
    src = Path(args.input)
    if not src.is_file():
        raise CliError(f"input: file not found: {src}")
    trace_out = Path(args.trace_out) if args.trace_out else src.with_name(src.name + ".trace")
    count_out = Path(args.count_out) if args.count_out else src.with_name(src.name + ".counts")
    # One pass over the capture, a block at a time; the outputs appear only
    # once it has been read in full, so either may name it.
    with _written_whole(trace_out, count_out) as (trace_new, count_new):
        source_meta, table = trace_ingest.ingest_file_to(src, trace_new)
        trace_ingest.write_count_file(table, count_new)
    print(f"{source_meta}; {sum(n for _, n in table)} calls, {len(table)} distinct")
    print(f"trace: {trace_out}")
    print(f"counts: {count_out}")
    return 0


def _cmd_train(args) -> int:
    from . import trainer
    from .bosc import Config

    config = Config(
        window_size=args.window,
        epoch_size=args.epoch_size,
        train_threshold=args.train_threshold,
        detect_threshold_fraction=args.detect_fraction,
    )
    if args.counts:
        counts = trace_ingest.read_count_file(args.counts)
    else:  # a counting pass over the whole file, then the training pass
        trace = Path(args.trace)
        if trace.exists() and not trace.is_file():  # a pipe would block or read empty the second time
            raise CliError(f"trace: {trace} is not a regular file; train reads it twice, or once with --counts")
        counts = trace_ingest.count_table(trace_ingest.read_trace_chunks(trace, config.epoch_size))
    # Epochs are read as training pulls them, and none after it converges.
    with closing(trace_ingest.read_trace_chunks(args.trace, config.epoch_size)) as epochs:
        model = trainer.train(epochs, counts=counts, config=config)
    for k, cos in enumerate(model.history, start=2):
        print(f"epoch {k} cos={cos:.9f}")
    with _written_whole(Path(args.model)) as (model_new,):
        trainer.save_model(model, model_new)
    status = "converged" if model.converged else "did NOT converge"
    print(
        f"{status} after {model.epochs_trained} epochs; "
        f"db entries={len(model.db)} retained={len(model.index.slots)} ns={model.index.n_s}"
    )
    if args.counts and model.converged:
        print(f"read {model.epochs_trained * config.epoch_size} calls of {args.trace}; "
              "the rest of the file, if any, was neither read nor checked")
    print(f"model: {args.model}")
    return 0 if model.converged else 3


def _cmd_detect(args) -> int:
    from . import detector, trainer

    if args.jobs < 1:
        raise CliError("jobs: must be a positive integer")
    if args.report and len(args.traces) > 1:
        raise CliError("report: --report accepts a single input trace")
    model = trainer.load_model(args.model)
    if args.detect_fraction is not None:
        model.config = replace(model.config, detect_threshold_fraction=args.detect_fraction)

    reports = [detector.detect(model, trace_ingest.read_trace_chunks(path, model.config.epoch_size))
               for path in args.traces]

    empty = False
    for path, report in zip(args.traces, reports):
        if not report.verdicts:
            n, w = report.dropped_tail_calls, model.config.window_size
            why = f"{n} calls, fewer than the window of {w};" if n else "empty trace,"
            print(f"{path}: {why} nothing scanned", file=sys.stderr)
            empty = True
            continue
        if args.report:
            with _written_whole(Path(args.report)) as (report_new,):
                detector.write_report_file(report, report_new)
            print(f"report: {args.report}")
        else:
            if len(args.traces) > 1:
                print(f"== {path}")
            print(detector.format_report(report), end="")
    if empty:
        return 1
    return 2 if any(r.trace_anomalous for r in reports) else 0


def _cmd_eval(args) -> int:
    from . import detector, evaluator

    if len(args.report) != len(args.labels):
        raise CliError("labels: need exactly one label file per report")
    named: dict[str, str] = {}  # the file each report names -> the first path naming it
    for rpath in args.report:
        target = os.path.realpath(rpath)
        if target in named:
            raise CliError(f"reports {named[target]} and {rpath} name the same file")
        named[target] = rpath
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
    from . import evaluator, synth

    spec = synth.make_source(n_names=args.alphabet_size, zipf_s=args.zipf_s, seed=args.seed)
    epochs = args.inject_epochs.split(",") if args.inject_epochs else []
    try:
        targets = frozenset(map(int, epochs))
    except ValueError:
        raise CliError(f"inject-epochs: expected comma-separated integers, got {args.inject_epochs!r}") from None
    # Built even with no targets, so a bad --inject-mode or --intensity fails.
    inj = synth.InjectionSpec(targets, args.inject_mode, args.intensity)
    if targets:
        trace, labels = synth.gen_anomalous(spec, args.calls, inj, args.epoch_size)
    else:
        trace = synth.gen_normal(spec, args.calls)
        if args.labels:
            if args.epoch_size < 1:
                raise CliError("epoch-size: must be positive when labels are requested")
            if args.calls % args.epoch_size:
                raise CliError("calls: must be a multiple of epoch-size when labels are requested")
            labels = ["normal"] * (args.calls // args.epoch_size)
    outs = [Path(args.out)] + ([Path(args.labels)] if args.labels else [])
    with _written_whole(*outs) as files:
        trace_ingest.write_trace_file(trace, files[0])
        if args.labels:
            evaluator.write_labels(labels, files[1])
    print(f"{trace.source_meta}")
    print(f"trace: {args.out}")
    if args.labels:
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
