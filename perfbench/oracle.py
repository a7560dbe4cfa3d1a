"""Independent checks of what the CLI writes.

Nothing here imports `boscids`: the expected trace and count files, slot
index, behaviour db, report rows and TPR/FPR are recomputed from the
documented formats and rules with the benchmark's own code, so a fast path
in the program that drifts from the specification shows up as a failed
check rather than as a faster number.
"""

import hashlib
import re
import zlib
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

OTHER = "other"
MODEL_HEADER = "boscids-model v1"


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def read_names(path) -> list[str]:
    return Path(path).read_text(encoding="ascii").splitlines()


def count_entries(names) -> list[tuple[str, int]]:
    """Distinct names with counts, by count descending then name."""
    return sorted(Counter(names).items(), key=lambda kv: (-kv[1], kv[0]))


def count_file_bytes(entries) -> bytes:
    return "".join(f"{n}\t{c}\n" for n, c in entries).encode("ascii")


def index_slots(entries) -> list[str]:
    """Names that keep their own slot: count at least the number of
    distinct names."""
    t_o = len(entries)
    return [n for n, c in entries if c >= t_o and n != OTHER]


@dataclass
class Model:
    w: int
    S: int
    train_threshold: float
    detect_fraction: float
    slots: list[str]
    bags: list[bytes]       # count vectors as one byte per slot, file order
    freqs: list[int]
    history: list[tuple[int, float]]


def parse_model(path) -> Model:
    """Read a v1 model file; raises ValueError on any structural fault."""
    data = Path(path).read_bytes()
    body, sep, trailer = data.rpartition(b"crc32=")
    if not sep or int(trailer.strip(), 16) != zlib.crc32(body) & 0xFFFFFFFF:
        raise ValueError("model: bad crc32 trailer")
    lines = body.decode("ascii").splitlines()
    if lines[0] != MODEL_HEADER:
        raise ValueError("model: bad header")
    m = re.fullmatch(r"w=(\d+) S=(\d+) Tt=(\S+) TdFrac=(\S+)", lines[1])
    sizes = re.fullmatch(r"ns=(\d+) retained=(\d+)", lines[2])
    if m is None or sizes is None:
        raise ValueError("model: bad parameter lines")
    n_s, retained = int(sizes.group(1)), int(sizes.group(2))
    slots = lines[3 : 3 + retained]
    pos = 3 + retained
    if lines[pos] != "@" + OTHER or n_s != retained + 1:
        raise ValueError("model: bad index section")
    n_entries = int(lines[pos + 1].removeprefix("entries="))
    bags, freqs = [], []
    for line in lines[pos + 2 : pos + 2 + n_entries]:
        counts, _, freq = line.rpartition(" : ")
        bags.append(bytes(int(t) for t in counts.split()))
        freqs.append(int(freq))
    pos += 2 + n_entries
    n_hist = int(lines[pos].removeprefix("history="))
    history = [(int(k), float(c)) for k, c in (ln.split() for ln in lines[pos + 1 : pos + 1 + n_hist])]
    if pos + 1 + n_hist != len(lines):
        raise ValueError("model: trailing content")
    return Model(int(m.group(1)), int(m.group(2)), float(m.group(3)), float(m.group(4)),
                 slots, bags, freqs, history)


def slot_stream(names, slots) -> np.ndarray:
    slot_of = {n: i for i, n in enumerate(slots)}
    other = len(slots)
    return np.array([slot_of.get(n, other) for n in names], dtype=np.int64)


def window_bags(slots: np.ndarray, w: int, n_s: int) -> tuple[list[bytes], np.ndarray]:
    """Distinct bags of all stride-1 windows of one epoch, in lexicographic
    count-vector order, plus how many windows gave each."""
    nwin = slots.shape[0] - w + 1
    m = np.zeros((nwin, n_s), dtype=np.uint8)
    rows = np.arange(nwin)
    for j in range(w):
        m[rows, slots[j : j + nwin]] += 1
    uniq, counts = np.unique(m.view(np.dtype((np.void, n_s))).ravel(), return_counts=True)
    return [u.tobytes() for u in uniq], counts


def check_model(model: Model, names) -> list[str]:
    """Recount the behaviour db the model should hold from the training
    names; returns the differences found."""
    errors = []
    expect_slots = index_slots(count_entries(names))
    if model.slots != expect_slots:
        return [f"model: slot index differs ({len(model.slots)} vs {len(expect_slots)} slots)"]
    n_s, w, S = len(model.slots) + 1, model.w, model.S
    epochs = len(model.history) + 1
    stream = slot_stream(names, model.slots)
    freq: dict[bytes, int] = {}
    order: list[bytes] = []
    for k in range(epochs):
        bags, counts = window_bags(stream[k * S : (k + 1) * S], w, n_s)
        for bag, c in zip(bags, counts.tolist()):
            if bag not in freq:
                order.append(bag)
                freq[bag] = 0
            freq[bag] += c
    if order != model.bags:
        errors.append(f"model: {len(model.bags)} bags in file, {len(order)} recounted, or order differs")
    elif [freq[b] for b in order] != model.freqs:
        errors.append("model: bag frequencies differ from the recount")
    return errors


def report_rows(model: Model, names) -> list[str]:
    """The per-epoch rows `epoch windows mismatches threshold anomalous`
    a scan of `names` against `model` must give."""
    n_s, w, S, frac = len(model.slots) + 1, model.w, model.S, model.detect_fraction
    stream = slot_stream(names, model.slots)
    known = set(model.bags)
    rows = []
    n = stream.shape[0]
    starts = list(range(0, n - n % S, S))
    if n % S >= w:
        starts.append(n - n % S)
    for e, lo in enumerate(starts):
        epoch = stream[lo : lo + S]
        bags, counts = window_bags(epoch, w, n_s)
        mism = sum(c for b, c in zip(bags, counts.tolist()) if b not in known)
        thr = frac * epoch.shape[0]
        rows.append(f"{e} {epoch.shape[0] - w + 1} {mism} {thr!r} {int(mism > thr)}")
    return rows


def check_report(text: str, rows: list[str]) -> list[str]:
    lines = text.splitlines()
    if not lines or not lines[-1].startswith("total "):
        return ["report: missing summary line"]
    errors = []
    if lines[:-1] != rows:
        bad = sum(a != b for a, b in zip(lines[:-1], rows)) + abs(len(lines) - 1 - len(rows))
        errors.append(f"report: {bad} epoch rows differ from the recount")
    fields = dict(tok.split("=", 1) for tok in lines[-1].split()[1:])
    parts = [r.split() for r in rows]
    expect = {
        "epochs": len(rows),
        "windows": sum(int(p[1]) for p in parts),
        "mismatches": sum(int(p[2]) for p in parts),
        "anomalous_epochs": sum(int(p[4]) for p in parts),
        "trace_anomalous": int(any(p[4] == "1" for p in parts)),
    }
    for key, value in expect.items():
        if fields.get(key) != str(value):
            errors.append(f"report: summary {key}={fields.get(key)}, expected {value}")
    return errors


def read_labels(path) -> list[str]:
    return [line.split("\t")[1] for line in read_names(path)]


def eval_counts(report_rows_per_trace, labels_per_trace) -> dict[str, int]:
    """Epoch-granularity tp/fp/malicious/normal over all traces."""
    out = {"tp": 0, "fp": 0, "malicious": 0, "normal": 0}
    for rows, labels in zip(report_rows_per_trace, labels_per_trace):
        for row, label in zip(rows, labels):
            hit = row.split()[4] == "1"
            if label == "malicious":
                out["malicious"] += 1
                out["tp"] += hit
            else:
                out["normal"] += 1
                out["fp"] += hit
    return out


def parse_eval(stdout: str) -> dict[str, str]:
    """The key=value fields of eval's machine-readable first line."""
    first = stdout.splitlines()[0] if stdout else ""
    return dict(tok.split("=", 1) for tok in first.split() if "=" in tok)
