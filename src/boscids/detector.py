"""Scan traces against a frozen model and flag epochs with too many unknown
bags."""

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bosc import unique_window_bags
from .trace_ingest import read_lines
from .trainer import TrainedModel

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class EpochVerdict:
    epoch_index: int
    windows_scanned: int
    mismatches: int
    threshold_used: float
    anomalous: bool


@dataclass
class DetectionReport:
    verdicts: list[EpochVerdict]
    trace_anomalous: bool
    totals: dict[str, int]


def scan_epoch(model: TrainedModel, epoch, epoch_index: int = 0,
               threshold_fraction: float | None = None) -> EpochVerdict:
    """Slide the window over one epoch's slot stream and count bags absent
    from the db.

    The threshold scales with the epoch's actual length, so partial final
    epochs are judged proportionally. Comparison is strict: exactly hitting
    the threshold is still normal. An epoch shorter than the window has no
    windows and so no mismatches. Never mutates the model.
    """
    frac = model.config.detect_threshold_fraction if threshold_fraction is None else threshold_fraction
    w = model.config.window_size
    slots = np.asarray(epoch, dtype=np.int64)
    n = int(slots.shape[0])
    threshold = frac * n
    bags, mult = unique_window_bags(slots, w, model.index.n_s)
    mismatches = int(mult[model.db.positions(bags) < 0].sum())
    return EpochVerdict(epoch_index, max(n - w + 1, 0), mismatches, threshold, mismatches > threshold)


def detect(model: TrainedModel, trace, threshold_fraction: float | None = None) -> DetectionReport:
    """Partition a trace (a RawTrace or a sequence of syscall names) into
    epochs and scan each against the frozen model.

    The trailing partial epoch is scanned when it is at least one window
    long; anything shorter is dropped with a note in the totals. Unknown
    syscall names resolve to the OTHER slot, never failing.
    """
    slots = model.index.resolve_stream(trace)
    S = model.config.epoch_size
    w = model.config.window_size
    n = int(slots.shape[0])
    verdicts: list[EpochVerdict] = []
    full, rem = divmod(n, S)
    for e in range(full):
        verdicts.append(scan_epoch(model, slots[e * S : (e + 1) * S], e, threshold_fraction))
    dropped = 0
    if rem >= w:
        verdicts.append(scan_epoch(model, slots[full * S :], full, threshold_fraction))
    elif rem:
        dropped = rem
        log.warning("dropping trailing %d calls (shorter than window %d)", rem, w)
    return _report_of(verdicts, dropped)


def _report_of(verdicts: list[EpochVerdict], dropped_tail_calls: int) -> DetectionReport:
    totals = {
        "epochs": len(verdicts),
        "windows": sum(v.windows_scanned for v in verdicts),
        "mismatches": sum(v.mismatches for v in verdicts),
        "anomalous_epochs": sum(v.anomalous for v in verdicts),
        "dropped_tail_calls": dropped_tail_calls,
    }
    return DetectionReport(verdicts, any(v.anomalous for v in verdicts), totals)


def format_report(report: DetectionReport) -> str:
    """Line-oriented report: one row per epoch, then a summary line.

    Row fields: epoch_index windows mismatches threshold anomalous(0/1).
    """
    rows = [
        f"{v.epoch_index} {v.windows_scanned} {v.mismatches} {v.threshold_used!r} {int(v.anomalous)}"
        for v in report.verdicts
    ]
    t = report.totals
    total = (
        "total epochs={epochs} windows={windows} mismatches={mismatches} "
        "anomalous_epochs={anomalous_epochs} trace_anomalous={flag}".format(
            flag=int(report.trace_anomalous), **{k: t[k] for k in
            ("epochs", "windows", "mismatches", "anomalous_epochs")}
        )
    )
    # Only a trace that ends in a partial window carries the field, so reports
    # of whole-epoch traces keep the bytes they had before it existed.
    if t["dropped_tail_calls"]:
        total += f" dropped_tail_calls={t['dropped_tail_calls']}"
    rows.append(total)
    return "\n".join(rows) + "\n"


def write_report_file(report: DetectionReport, path) -> None:
    Path(path).write_bytes(format_report(report).encode("ascii"))


def read_report_file(path) -> DetectionReport:
    """Read a report written by write_report_file. Each row must hold five
    numbers with a 0/1 flag; the summary must be the last line, and each
    total it states must equal the one recomputed from the rows."""
    p = Path(path)
    lines = read_lines(p)
    if not lines or not lines[-1].startswith("total "):
        raise ValueError(f"{p}: missing summary line")
    verdicts = []
    for i, line in enumerate(lines[:-1], start=1):
        parts = line.split()
        if len(parts) != 5:
            raise ValueError(f"{p}: line {i}: expected 5 fields, got {len(parts)}")
        idx, windows, mism, thr, flag = parts
        if flag not in ("0", "1"):
            raise ValueError(f"{p}: line {i}: anomalous flag must be 0 or 1, got {flag!r}")
        try:
            verdicts.append(EpochVerdict(int(idx), int(windows), int(mism), float(thr), flag == "1"))
        except ValueError:
            raise ValueError(f"{p}: line {i}: bad number in {line!r}") from None
    n = len(lines)
    stated = dict(field.partition("=")[::2] for field in lines[-1].split()[1:])
    dropped = stated.get("dropped_tail_calls", "0")
    if not dropped.isdigit():
        raise ValueError(f"{p}: line {n}: bad dropped_tail_calls {dropped!r}")
    report = _report_of(verdicts, int(dropped))
    recomputed = dict(report.totals, trace_anomalous=int(report.trace_anomalous))
    for key, value in stated.items():
        if key in recomputed and value != str(recomputed[key]):
            raise ValueError(f"{p}: line {n}: summary says {key}={value}, the rows give {recomputed[key]}")
    return report
