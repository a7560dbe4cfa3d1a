"""Train the normal-behavior db epoch by epoch until the per-epoch frequency
changes stabilize, then persist the whole model as a versioned text file."""

import logging
import math
import re
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bosc import CHUNK, Bags, BehaviorDb, Config, unique_window_bags
from .catalog import OTHER_NAME, SyscallIndex, build_index
from .trace_ingest import SYSCALL_NAME_RE, CountTable, RawTrace, count_table

log = logging.getLogger(__name__)

MODEL_HEADER = "boscids-model v1"


@dataclass
class TrainedModel:
    """A slot index, its frozen db, and the training history: history[k-2] is
    the cosine similarity between epoch k's change vector and epoch k-1's."""

    index: SyscallIndex
    db: BehaviorDb
    config: Config
    history: list[float]

    @property
    def epochs_trained(self) -> int:
        return len(self.history) + 1

    @property
    def converged(self) -> bool:
        """The stopping rule: the last two similarities reach the threshold."""
        return len(self.history) >= 2 and min(self.history[-2:]) >= self.config.train_threshold


class ModelFormatError(ValueError):
    """Model file rejected; carries the section that failed."""

    def __init__(self, section: str, message: str):
        super().__init__(f"{section}: {message}")
        self.section = section


def cosine_similarity(a, b) -> float:
    """Cosine of the angle between change vector a and the shorter, earlier
    vector b, zero-extended to a's length.

    Conventions for degenerate norms: both zero means two perfectly
    stationary epochs (1.0); exactly one zero means change appeared from
    nothing (0.0).
    """
    va = np.asarray(a, dtype=np.float64)
    vb = np.asarray(b, dtype=np.float64)
    if vb.shape[0] > va.shape[0]:
        raise ValueError("earlier change vector is longer than the later one")
    if vb.shape[0] < va.shape[0]:
        vb = np.concatenate([vb, np.zeros(va.shape[0] - vb.shape[0])])
    na = math.sqrt(float(va @ va))
    nb = math.sqrt(float(vb @ vb))
    if na == 0.0 and nb == 0.0:
        return 1.0
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(va @ vb) / (na * nb)


def train(trace, counts: CountTable | None = None, config: Config | None = None) -> TrainedModel:
    """Learn normal behavior from a trace (a RawTrace or syscall names) of full epochs.

    After each epoch k>1 the change vector is compared to the previous one;
    training stops once the similarity stays at or above the threshold for
    two consecutive epochs. Exhausting the trace without that happening
    returns a model flagged as non-converged rather than failing: the
    operator can inspect the history and re-run with more data.
    """
    if config is None:
        config = Config()
    trace = RawTrace.from_names(trace)
    if counts is None:
        counts = count_table(trace)
    index = build_index(counts)
    slots = index.resolve_stream(trace)
    S = config.epoch_size
    w = config.window_size
    n_epochs = len(slots) // S
    if n_epochs < 2:
        raise ValueError(
            f"training needs at least 2 full epochs of {S} calls; got {len(slots)} calls"
        )
    if len(slots) % S:
        log.info("discarding trailing partial epoch of %d calls", len(slots) % S)

    model = TrainedModel(index, BehaviorDb(), config, [])
    change_prev: np.ndarray | None = None
    for e in range(n_epochs):
        bags, mult = unique_window_bags(slots[e * S : (e + 1) * S], w, index.n_s)
        change = model.db.insert_many(bags, mult)
        if change_prev is not None:
            model.history.append(cosine_similarity(change, change_prev))
            if model.converged:
                break
        change_prev = change
    model.db.freeze()
    if not model.converged:
        log.warning("training did not converge after %d epochs", model.epochs_trained)
    return model


def save_model(model: TrainedModel, path) -> None:
    """Write the versioned line-oriented model file with a crc32 trailer."""
    c = model.config
    lines = [
        MODEL_HEADER,
        f"w={c.window_size} S={c.epoch_size} Tt={c.train_threshold!r} TdFrac={c.detect_threshold_fraction!r}",
        f"ns={model.index.n_s} retained={len(model.index.slots)}",
    ]
    lines.extend(model.index.slots)
    lines.append("@" + OTHER_NAME)
    lines.append(f"entries={len(model.db)}")
    for bag, freq in model.db.items():
        lines.append(" ".join(map(str, bag)) + " : " + str(freq))
    lines.append(f"history={len(model.history)}")
    for k, cos in enumerate(model.history, start=2):
        lines.append(f"{k} {cos:.9f}")
    blob = ("\n".join(lines) + "\n").encode("ascii")
    crc = zlib.crc32(blob) & 0xFFFFFFFF
    Path(path).write_bytes(blob + f"crc32={crc:08x}\n".encode("ascii"))


class _LineReader:
    def __init__(self, lines: list[str]):
        self._lines = lines
        self._pos = 0

    def next(self, section: str) -> str:
        if self._pos >= len(self._lines):
            raise ModelFormatError(section, "file truncated")
        line = self._lines[self._pos]
        self._pos += 1
        return line

    def exhausted(self) -> bool:
        return self._pos >= len(self._lines)


def load_model(path) -> TrainedModel:
    """Read a model file written by save_model, verifying version, structure,
    and checksum; failures name the offending section."""
    data = Path(path).read_bytes()
    newline = data.find(b"\n")
    first = data[:newline] if newline >= 0 else data
    if first != MODEL_HEADER.encode("ascii"):
        raise ModelFormatError("version", f"expected {MODEL_HEADER!r} header")

    marker = data.rfind(b"crc32=")
    if marker < 0 or (marker > 0 and data[marker - 1 : marker] != b"\n"):
        raise ModelFormatError("checksum", "missing crc32 trailer")
    trailer = data[marker:].decode("ascii", errors="replace").strip()
    try:
        declared = int(trailer.removeprefix("crc32="), 16)
    except ValueError:
        raise ModelFormatError("checksum", f"unparseable trailer {trailer!r}") from None
    if zlib.crc32(data[:marker]) & 0xFFFFFFFF != declared:
        raise ModelFormatError("checksum", "crc32 mismatch; file corrupted")

    try:
        body = data[:marker].decode("ascii").split("\n")
    except UnicodeDecodeError as e:
        raise ModelFormatError("structure", f"non-ASCII byte at offset {e.start}") from None
    if body and body[-1] == "":
        body.pop()
    rd = _LineReader(body)
    rd.next("version")

    params = rd.next("params")
    m = re.fullmatch(
        r"w=(\d+) S=(\d+) Tt=([0-9.eE+-]+) TdFrac=([0-9.eE+-]+)", params
    )
    if m is None:
        raise ModelFormatError("params", f"bad parameter line {params!r}")
    try:
        config = Config(
            window_size=int(m.group(1)),
            epoch_size=int(m.group(2)),
            train_threshold=float(m.group(3)),
            detect_threshold_fraction=float(m.group(4)),
        )
    except ValueError as e:
        raise ModelFormatError("params", str(e)) from None

    sizes = rd.next("index")
    m = re.fullmatch(r"ns=(\d+) retained=(\d+)", sizes)
    if m is None:
        raise ModelFormatError("index", f"bad size line {sizes!r}")
    n_s, retained = int(m.group(1)), int(m.group(2))
    if n_s != retained + 1:
        raise ModelFormatError("index", f"ns={n_s} does not equal retained+1={retained + 1}")
    slots = []
    for _ in range(retained):
        name = rd.next("index")
        if not SYSCALL_NAME_RE.fullmatch(name) or name == OTHER_NAME:
            raise ModelFormatError("index", f"bad slot name {name!r}")
        slots.append(name)
    sentinel = rd.next("index")
    if sentinel != "@" + OTHER_NAME:
        raise ModelFormatError("index", f"missing @{OTHER_NAME} sentinel, got {sentinel!r}")
    index = SyscallIndex(tuple(slots))

    header = rd.next("entries")
    m = re.fullmatch(r"entries=(\d+)", header)
    if m is None:
        raise ModelFormatError("entries", f"bad entry header {header!r}")
    n_entries = int(m.group(1))
    w = config.window_size
    key_chunks = []
    # Bounded memory: at most one entry per line, one chunk of tuples at a time.
    freqs = np.zeros(min(n_entries, len(body)), dtype=np.int64)
    for lo in range(0, n_entries, CHUNK):
        rows = []
        for i in range(lo, min(lo + CHUNK, n_entries)):
            line = rd.next("entries")
            counts_part, sep, freq_part = line.rpartition(":")
            if not sep:
                raise ModelFormatError("entries", f"entry {i}: missing ':' separator")
            try:
                bag = tuple(map(int, counts_part.split()))
                freqs[i] = int(freq_part)
            except (ValueError, OverflowError):
                raise ModelFormatError("entries", f"entry {i}: unparseable {line!r}") from None
            if len(bag) != n_s:
                raise ModelFormatError("entries", f"entry {i}: {len(bag)} counts, expected {n_s}")
            if freqs[i] < 1 or min(bag) < 0:
                raise ModelFormatError("entries", f"entry {i}: negative value")
            if sum(bag) != w:
                raise ModelFormatError("entries", f"entry {i}: counts sum to {sum(bag)}, expected w={w}")
            rows.append(bag)
        key_chunks.append(Bags.from_counts(rows).keys)
    db = BehaviorDb()
    if n_entries:
        keys = np.concatenate(key_chunks)
        db.insert_many(Bags(keys, n_s), freqs)
        if len(db) != n_entries:
            _, first = np.unique(keys, return_index=True)
            dup = int(np.setdiff1d(np.arange(n_entries), first)[0])
            raise ModelFormatError("entries", f"entry {dup}: duplicate bag")
    db.freeze()

    header = rd.next("history")
    m = re.fullmatch(r"history=(\d+)", header)
    if m is None:
        raise ModelFormatError("history", f"bad history header {header!r}")
    history = []
    for i in range(int(m.group(1))):
        line = rd.next("history")
        try:
            k_str, cos_str = line.split()
            k, cos = int(k_str), float(cos_str)
        except ValueError:
            raise ModelFormatError("history", f"record {i}: unparseable {line!r}") from None
        if k != i + 2:
            raise ModelFormatError("history", f"record {i}: epoch {k}, expected {i + 2}")
        history.append(cos)
    if not rd.exhausted():
        raise ModelFormatError("structure", "unexpected trailing content before checksum")
    return TrainedModel(index, db, config, history)
