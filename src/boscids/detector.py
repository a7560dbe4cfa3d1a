"""Scan traces against a frozen model and flag epochs with too many unknown
bags."""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .bosc import unique_window_bags
from .trace_ingest import epochs_of, quoted, read_lines, to_int

if TYPE_CHECKING:  # for annotations only: eval reads reports without the trainer
    from .trainer import TrainedModel

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class EpochVerdict:
    windows_scanned: int
    mismatches: int
    threshold_used: float

    @property
    def anomalous(self) -> bool:
        """The paper's signal: more mismatches than the threshold."""
        return self.mismatches > self.threshold_used


@dataclass
class DetectionReport:
    """Epoch verdicts in trace order, so an epoch's number is its position."""

    verdicts: list[EpochVerdict]
    dropped_tail_calls: int = 0

    @property
    def trace_anomalous(self) -> bool:
        return any(v.anomalous for v in self.verdicts)

    @property
    def totals(self) -> dict[str, int]:
        return {
            "epochs": len(self.verdicts),
            "windows": sum(v.windows_scanned for v in self.verdicts),
            "mismatches": sum(v.mismatches for v in self.verdicts),
            "anomalous_epochs": sum(v.anomalous for v in self.verdicts),
            "dropped_tail_calls": self.dropped_tail_calls,
        }


def scan_epoch(model: TrainedModel, epoch) -> EpochVerdict:
    """Slide the window over one epoch's slot stream and count bags absent
    from the db.

    The threshold is the model's detection fraction of the epoch's actual
    length, so partial final epochs are judged proportionally. Comparison is
    strict: exactly hitting the threshold is still normal. An epoch shorter
    than the window has no windows and so no mismatches. Never mutates the
    model.
    """
    w = model.config.window_size
    n = len(epoch)
    bags, mult = unique_window_bags(epoch, w, model.index.n_s)
    mismatches = int(mult[model.db.positions(bags) < 0].sum())
    return EpochVerdict(max(n - w + 1, 0), mismatches, model.config.detect_threshold_fraction * n)


def detect(model: TrainedModel, trace) -> DetectionReport:
    """Partition a trace (a RawTrace, syscall names, or the epoch-sized
    RawTrace chunks of one stream, see epochs_of) into epochs and scan each
    against the frozen model as it arrives.

    The trailing partial epoch is scanned when it is at least one window
    long; anything shorter is dropped and counted in the report. Unknown
    syscall names resolve to the OTHER slot, never failing.
    """
    w = model.config.window_size
    verdicts, dropped = [], 0
    for epoch in epochs_of(trace, model.config.epoch_size):
        if len(epoch.calls) >= w:  # every full epoch, as S >= w
            verdicts.append(scan_epoch(model, model.index.resolve_stream(epoch)))
        else:
            dropped = len(epoch.calls)
            log.warning("dropping trailing %d calls (shorter than window %d)", dropped, w)
    return DetectionReport(verdicts, dropped)


def format_report(report: DetectionReport) -> str:
    """Line-oriented report: one row per epoch, then a summary line.

    Row fields: epoch number (from 0) windows mismatches threshold
    anomalous(0/1).
    """
    rows = [
        f"{i} {v.windows_scanned} {v.mismatches} {v.threshold_used!r} {int(v.anomalous)}"
        for i, v in enumerate(report.verdicts)
    ]
    t = report.totals
    total = (
        "total epochs={epochs} windows={windows} mismatches={mismatches} "
        "anomalous_epochs={anomalous_epochs} trace_anomalous={flag}".format(
            flag=int(report.trace_anomalous), **t)
    )
    # Only a trace that ends in a partial window carries the field, so reports
    # of whole-epoch traces keep the bytes they had before it existed.
    if t["dropped_tail_calls"]:
        total += f" dropped_tail_calls={t['dropped_tail_calls']}"
    rows.append(total)
    return "\n".join(rows) + "\n"


def write_report_file(report: DetectionReport, path) -> None:
    Path(path).write_bytes(format_report(report).encode("ascii"))


# Epoch number, windows and mismatches in unsigned decimal, an unsigned
# float threshold, the 0/1 flag. float() parses every threshold it matches.
_ROW_RE = re.compile(r"[0-9]+ ([0-9]+) ([0-9]+) ([0-9]+(?:\.[0-9]+)?(?:e[+-][0-9]+)?) [01]\n")


def read_report_file(path) -> DetectionReport:
    """Read a report written by write_report_file.

    The numbers come from each row and from the summary's dropped_tail_calls;
    then every line, with its LF, must be the line format_report writes for
    them. So a row out of order, a flag or total its numbers contradict, and
    any other spelling of the same numbers are rejected, naming the line."""
    p = Path(path)
    lines = list(read_lines(p))
    if not lines or not lines[-1].startswith("total "):
        raise ValueError(f"{p}: line {max(len(lines), 1)}: missing summary line")
    verdicts = []
    for i, line in enumerate(lines[:-1], start=1):
        m = _ROW_RE.fullmatch(line)
        if m is None:
            raise ValueError(f"{p}: line {i}: expected `epoch windows mismatches threshold 0|1`, got {quoted(line)}")
        verdicts.append(EpochVerdict(to_int(m[1], p, i, "windows"), to_int(m[2], p, i, "mismatches"), float(m[3])))
    dropped = re.search(r" dropped_tail_calls=([0-9]+)\n", lines[-1])
    report = DetectionReport(verdicts, to_int(dropped[1], p, len(lines), "dropped_tail_calls") if dropped else 0)
    for i, (line, written) in enumerate(zip(lines, format_report(report).splitlines(keepends=True)), start=1):
        if line != written:
            raise ValueError(f"{p}: line {i}: {quoted(line, 120)} should read {written!r}")
    return report
