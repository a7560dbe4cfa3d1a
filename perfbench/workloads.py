"""The benchmark's workloads: which `boscids` invocations each one makes.

A workload is a plan built from the seed: the `gen` calls that make its
inputs (set-up), the strace capture the benchmark renders from one of the
generated name files, and the pipeline steps (ingest, train, detect, eval)
that one measured iteration runs, each with the exit status it must give.

Sizes are counted in epochs of the CLI's default 5000 calls. `scale`
shrinks them for smoke tests; the workload premises and pinned digests only
hold at scale 1.
"""

import random
from dataclasses import dataclass, field

EPOCH = 5000


@dataclass(frozen=True)
class Step:
    """One CLI invocation of the measured pipeline."""

    cmd: str
    argv: tuple[str, ...]
    expect_exit: int


@dataclass
class Plan:
    gens: list[tuple[str, ...]]
    capture_names: str          # gen output rendered as strace text
    capture: str                # the rendered strace file that ingest reads
    steps: list[Step]
    train_trace: str            # file the train step reads
    detect_traces: list[str]    # files the detect step scans, in order
    reports: list[str]          # report files, one per detect trace
    labels: list[str]           # label files, one per detect trace
    # Facts a seed must not change; checked at scale 1 only.
    premise: dict = field(default_factory=dict)


def _epochs(n: int, scale: float, least: int) -> int:
    return max(least, round(n * scale))


def _targets(rng: random.Random, n_epochs: int, k: int) -> str:
    k = max(1, min(k, n_epochs // 2))
    return ",".join(str(e) for e in sorted(rng.sample(range(n_epochs), k)))


def _gen(calls_epochs: int, seed: int, out: str, *extra: str) -> tuple[str, ...]:
    return ("gen", "--calls", str(calls_epochs * EPOCH), "--seed", str(seed),
            "--out", out, *extra)


def narrow_full(seed: int, scale: float) -> Plan:
    """Alphabet 64 (n_s at most 65, so the packed-code path); every epoch
    is trained."""
    rng = random.Random(f"narrow-full:{seed}")
    n_train, n_sus = _epochs(30, scale, 2), _epochs(10, scale, 2)
    inject = _targets(rng, n_sus, 4)
    return Plan(
        gens=[
            _gen(n_train, seed, "train.trace"),
            _gen(n_sus, seed + 7919, "suspect.names", "--labels", "suspect.labels",
                 "--inject-epochs", inject, "--inject-mode", "novel_names",
                 "--intensity", "0.5"),
        ],
        capture_names="suspect.names",
        capture="suspect.strace",
        steps=[
            Step("ingest", ("ingest", "suspect.strace", "--trace-out", "suspect.trace",
                            "--count-out", "suspect.counts"), 0),
            Step("train", ("train", "train.trace", "--model", "train.model",
                           "--train-threshold", "1.0"), 3),
            Step("detect", ("detect", "suspect.trace", "--model", "train.model",
                            "--report", "suspect.report"), 2),
            Step("eval", ("eval", "--report", "suspect.report", "--labels",
                          "suspect.labels"), 0),
        ],
        train_trace="train.trace",
        detect_traces=["suspect.trace"],
        reports=["suspect.report"],
        labels=["suspect.labels"],
        premise={"n_s_max": 78},
    )


def wide_fallback(seed: int, scale: float) -> Plan:
    """Alphabet 100 with uniform excursion entry, so n_s is above the 78 the
    packed code covers at w=10 and bag coding takes the row-uniquing path."""
    rng = random.Random(f"wide-fallback:{seed}")
    n_train, n_sus = _epochs(20, scale, 2), _epochs(5, scale, 2)
    inject = _targets(rng, n_sus, 2)
    src = ("--alphabet-size", "100", "--zipf-s", "0")
    return Plan(
        gens=[
            _gen(n_train, seed, "train.trace", *src),
            _gen(n_sus, seed + 7919, "suspect.names", *src, "--labels", "suspect.labels",
                 "--inject-epochs", inject, "--inject-mode", "shuffled_transitions",
                 "--intensity", "0.5"),
        ],
        capture_names="suspect.names",
        capture="suspect.strace",
        steps=[
            Step("ingest", ("ingest", "suspect.strace", "--trace-out", "suspect.trace",
                            "--count-out", "suspect.counts"), 0),
            Step("train", ("train", "train.trace", "--model", "train.model",
                           "--train-threshold", "1.0"), 3),
            Step("detect", ("detect", "suspect.trace", "--model", "train.model",
                            "--report", "suspect.report"), 2),
            Step("eval", ("eval", "--report", "suspect.report", "--labels",
                          "suspect.labels"), 0),
        ],
        train_trace="train.trace",
        detect_traces=["suspect.trace"],
        reports=["suspect.report"],
        labels=["suspect.labels"],
        premise={"n_s_min": 79},
    )


def strace_early_stop(seed: int, scale: float) -> Plan:
    """A large strace capture that training abandons after a few epochs at the
    default threshold, then a two-trace scan with --jobs 2."""
    rng = random.Random(f"strace-early-stop:{seed}")
    n_cap, n_scan = _epochs(64, scale, 4), _epochs(10, scale, 2)
    inject = _targets(rng, n_scan, 2)
    return Plan(
        gens=[
            _gen(n_cap, seed, "capture.names"),
            _gen(n_scan, seed + 7919, "clean.trace", "--labels", "clean.labels"),
            _gen(n_scan, seed + 15838, "dirty.trace", "--labels", "dirty.labels",
                 "--inject-epochs", inject, "--inject-mode", "novel_names",
                 "--intensity", "0.5"),
        ],
        capture_names="capture.names",
        capture="capture.strace",
        steps=[
            Step("ingest", ("ingest", "capture.strace", "--trace-out", "capture.trace",
                            "--count-out", "capture.counts"), 0),
            Step("train", ("train", "capture.trace", "--counts", "capture.counts",
                           "--model", "capture.model"), 0),
            Step("detect", ("detect", "clean.trace", "dirty.trace", "--model",
                            "capture.model", "--jobs", "2"), 2),
            Step("eval", ("eval", "--report", "clean.report", "--labels", "clean.labels",
                          "--report", "dirty.report", "--labels", "dirty.labels"), 0),
        ],
        train_trace="capture.trace",
        detect_traces=["clean.trace", "dirty.trace"],
        reports=["clean.report", "dirty.report"],
        labels=["clean.labels", "dirty.labels"],
        premise={"calls_used_ratio_max": 0.05},
    )


WORKLOADS = {
    "narrow-full": narrow_full,
    "wide-fallback": wide_fallback,
    "strace-early-stop": strace_early_stop,
}
