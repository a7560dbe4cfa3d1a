"""True/false positive rates from detection reports plus ground-truth labels,
at epoch or window granularity."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

from .trace_ingest import quoted, read_lines

if TYPE_CHECKING:  # for annotations only: gen writes labels without the detector
    from .detector import DetectionReport

LABEL_NORMAL = "normal"
LABEL_MALICIOUS = "malicious"
GRANULARITIES = ("epoch", "window")


@dataclass(frozen=True)
class LabeledCorpus:
    """Per-trace, per-epoch ground-truth labels keyed by trace id."""

    items: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self):
        for trace_id, labels in self.items:
            for lab in labels:
                if lab not in (LABEL_NORMAL, LABEL_MALICIOUS):
                    raise ValueError(f"trace {trace_id!r}: unknown label {quoted(lab)}")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, Iterable[str]]]) -> "LabeledCorpus":
        return cls(tuple((tid, tuple(labels)) for tid, labels in pairs))


@dataclass(frozen=True)
class Metrics:
    """TPR/FPR aggregates. A rate with a zero denominator is None (undefined),
    never silently 0."""

    granularity: str
    n_tp: int
    n_fp: int
    n_malicious: int
    n_normal: int

    @property
    def tpr(self) -> float | None:
        return self.n_tp / self.n_malicious if self.n_malicious else None

    @property
    def fpr(self) -> float | None:
        return self.n_fp / self.n_normal if self.n_normal else None


def compute_metrics(reports: Mapping[str, DetectionReport], corpus: LabeledCorpus,
                    granularity: str = "epoch") -> Metrics:
    """Count hits against labels.

    Epoch granularity scores each epoch verdict against its label. Window
    granularity counts mismatched windows: those inside malicious epochs are
    true positives, those inside normal epochs false positives, with window
    totals as denominators.
    """
    if granularity not in GRANULARITIES:
        raise ValueError(f"granularity must be one of {GRANULARITIES}")
    n_tp = n_fp = n_malicious = n_normal = 0
    for trace_id, labels in corpus.items:
        report = reports.get(trace_id)
        if report is None:
            raise ValueError(f"no detection report for trace {trace_id!r}")
        if len(labels) != len(report.verdicts):
            raise ValueError(
                f"trace {trace_id!r}: {len(labels)} labels but {len(report.verdicts)} epochs"
            )
        for label, verdict in zip(labels, report.verdicts):
            if granularity == "epoch":
                hits, total = int(verdict.anomalous), 1
            else:
                hits, total = verdict.mismatches, verdict.windows_scanned
            if label == LABEL_MALICIOUS:
                n_tp += hits
                n_malicious += total
            else:
                n_fp += hits
                n_normal += total
    return Metrics(granularity, n_tp, n_fp, n_malicious, n_normal)


def _rate(value: float | None) -> str:
    return "undefined" if value is None else f"{value:.6f}"


def format_metrics(m: Metrics) -> str:
    """One machine-readable row followed by a human summary."""
    row = (
        f"granularity={m.granularity} tp={m.n_tp} fp={m.n_fp} "
        f"malicious={m.n_malicious} normal={m.n_normal} "
        f"tpr={_rate(m.tpr)} fpr={_rate(m.fpr)}"
    )
    tpr_h = "undefined" if m.tpr is None else f"{100 * m.tpr:.2f}%"
    fpr_h = "undefined" if m.fpr is None else f"{100 * m.fpr:.2f}%"
    human = (
        f"TPR {tpr_h} ({m.n_tp}/{m.n_malicious})  "
        f"FPR {fpr_h} ({m.n_fp}/{m.n_normal})  [{m.granularity} granularity]"
    )
    return row + "\n" + human + "\n"


def write_labels(labels: Iterable[str], path) -> None:
    """Sidecar label file: `epoch_index<TAB>label` per line."""
    Path(path).write_bytes(
        "".join(f"{i}\t{lab}\n" for i, lab in enumerate(labels)).encode("ascii")
    )


def read_labels(path) -> tuple[str, ...]:
    """Read a label file; every line is `epoch_index<TAB>label` and an LF,
    as write_labels writes it."""
    p = Path(path)
    labels = []
    for i, line in enumerate(read_lines(p)):
        head = line.splitlines(keepends=True)[0]  # the line up to its first line break of any kind
        if head != line or not line.endswith("\n"):
            raise ValueError(f"{p}: line {i + 1}: {quoted(head)} does not end in LF")
        parts = line[:-1].split("\t")
        if len(parts) != 2:
            raise ValueError(f"{p}: line {i + 1}: expected `epoch_index<TAB>label`")
        idx, lab = parts
        if idx != str(i):
            raise ValueError(f"{p}: line {i + 1}: epoch index {quoted(idx)} out of order, expected {i}")
        if lab not in (LABEL_NORMAL, LABEL_MALICIOUS):
            raise ValueError(f"{p}: line {i + 1}: unknown label {quoted(lab)}")
        labels.append(lab)
    return tuple(labels)
