"""Train the normal-behavior db epoch by epoch until the per-epoch frequency
changes stabilize, then persist the whole model as a versioned text file."""

import errno
import functools
import itertools
import logging
import math
import re
import zlib
from array import array
from dataclasses import dataclass

import numpy as np

from .bosc import CHUNK, Bags, BehaviorDb, Config, unique_window_bags
from .catalog import OTHER_NAME, SyscallIndex, build_index
from .trace_ingest import BLOCK, SYSCALL_NAME_RE, CountTable, RawTrace, count_table, epochs_of, quoted

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
    """Learn normal behavior from a trace of full epochs: a RawTrace, syscall
    names, or the epoch-sized RawTrace chunks of one stream (see epochs_of),
    which need counts.

    Epochs are pulled one at a time. After each epoch k>1 the change vector
    is compared to the previous one; training stops once the similarity stays
    at or above the threshold for two consecutive epochs, and pulls no more.
    Exhausting the trace without that happening returns a model flagged as
    non-converged rather than failing: the operator can inspect the history
    and re-run with more data.
    """
    if config is None:
        config = Config()
    if counts is None:  # counting needs the whole trace
        trace = RawTrace.from_names(trace)
        counts = count_table(trace)
    index = build_index(counts)
    S = config.epoch_size
    model = TrainedModel(index, BehaviorDb(), config, [])
    lut = array("q")  # slots of the stream's names, grown as they appear
    change_prev: np.ndarray | None = None
    n_calls = 0
    for epoch in epochs_of(trace, S):
        n_calls += len(epoch.calls)
        if len(epoch.calls) < S:  # the trailing partial epoch
            continue
        slots = index.resolve_stream(epoch, lut)
        bags, mult = unique_window_bags(slots, config.window_size, index.n_s)
        change = model.db.insert_many(bags, mult)
        if change_prev is not None:
            model.history.append(cosine_similarity(change, change_prev))
            if model.converged:
                break
        change_prev = change
    if not model.history:
        raise ValueError(
            f"training needs at least 2 full epochs of {S} calls; got {n_calls} calls"
        )
    if n_calls % S:
        log.info("discarding trailing partial epoch of %d calls", n_calls % S)
    model.db.freeze()
    if not model.converged:
        log.warning("training did not converge after %d epochs", model.epochs_trained)
    return model


def _head_lines(index: SyscallIndex, c: Config, n_entries: int) -> list[str]:
    """The lines of a model file before its entries, as save_model writes them."""
    return [
        MODEL_HEADER,
        f"w={c.window_size} S={c.epoch_size} Tt={c.train_threshold!r} TdFrac={c.detect_threshold_fraction!r}",
        f"ns={index.n_s} retained={len(index.slots)}",
        *index.slots,
        "@" + OTHER_NAME,
        f"entries={n_entries}",
    ]


def _tail_lines(history: list[float]) -> list[str]:
    """The lines of a model file after its entries, before the crc32 trailer."""
    return [f"history={len(history)}", *(f"{k} {cos:.9f}" for k, cos in enumerate(history, start=2))]


def _decimal(values: np.ndarray, tail: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Non-negative integers as fixed-width ASCII digits followed by tail: uint8
    cells of shape values.shape + (width + len(tail),), and the mask that drops
    each value's leading zeros."""
    v = values.astype(np.min_scalar_type(values.max()), copy=False)
    width = len(str(v.max()))
    cells = np.empty(v.shape + (width + len(tail),), dtype=np.uint8)
    keep = np.ones(cells.shape, dtype=bool)
    for p in range(width):  # digit positions, most significant first
        scale = 10 ** (width - 1 - p)
        cells[..., p] = v // scale % 10 + ord("0")
        if scale > 1:
            keep[..., p] = v >= scale
    cells[..., width:] = np.frombuffer(tail, dtype=np.uint8)
    return cells, keep


def _entry_text(counts: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """The entry lines "c_0 ... c_{ns-1} : freq" of an (m, ns) count matrix and
    m frequencies, all non-negative and m >= 1, as one uint8 array of text."""
    m = len(freqs)
    c_cells, c_keep = _decimal(counts, b" ")
    f_cells, f_keep = _decimal(freqs, b"\n")
    colon = np.broadcast_to(np.frombuffer(b": ", dtype=np.uint8), (m, 2))
    cells = np.concatenate([c_cells.reshape(m, -1), colon, f_cells], axis=1)
    keep = np.concatenate([c_keep.reshape(m, -1), np.ones((m, 2), dtype=bool), f_keep], axis=1)
    return cells[keep]


def save_model(model: TrainedModel, path) -> None:
    """Write the versioned line-oriented model file with a crc32 trailer."""
    head = _head_lines(model.index, model.config, len(model.db))
    tail = _tail_lines(model.history)
    parts = itertools.chain(
        ["".join(f"{line}\n" for line in head).encode("ascii")],
        itertools.starmap(_entry_text, model.db.chunks()),  # one chunk at a time
        ["".join(f"{line}\n" for line in tail).encode("ascii")],
    )
    crc = 0
    with open(path, "wb") as f:
        for part in parts:
            crc = zlib.crc32(part, crc)
            f.write(part)
        f.write(f"crc32={crc:08x}\n".encode("ascii"))


class _LineReader:
    """The LF-terminated lines of the first end bytes of file f, read in
    order from where f stands, and the crc32 of the text handed out. next()
    keeps each (section, line) it reads in got."""

    def __init__(self, f, end: int):
        self._f = f
        self._end = end
        self.crc = 0
        self.got: list[tuple[str, str]] = []

    def take(self, n: int) -> bytes:
        """The next n lines (fewer if the body runs out), each with its LF."""
        block = b"".join(itertools.islice(iter(self._f.readline, b""), n))
        block = block[: len(block) - max(self._f.tell() - self._end, 0)]  # never a line at or after end
        self.crc = zlib.crc32(block, self.crc)
        return block

    def next(self, section: str) -> str:
        line = self.take(1)
        if not line:
            raise ModelFormatError(section, "file truncated")
        self.got.append((section, line[:-1].decode("ascii")))
        return self.got[-1][1]

    def fields(self, section: str, what: str, pattern: str) -> re.Match:
        """The next line, parsed loosely by pattern; the exact text is checked
        later, against the line save_model writes."""
        line = self.next(section)
        m = re.fullmatch(pattern, line)
        if m is None:
            raise ModelFormatError(section, f"bad {what} {quoted(line)}")
        return m

    def check(self, written: list[str], first: int) -> None:
        """Fail at the first line in got, numbered from first in the file, that
        is not the line save_model writes there; then empty got."""
        for i, ((section, line), want) in enumerate(zip(self.got, written), start=first):
            if line != want:
                raise ModelFormatError(section, f"line {i}: {quoted(line, 120)} should read {want!r}")
        self.got.clear()

    def exhausted(self) -> bool:
        return self._f.tell() >= self._end


_TRAILER_RE = re.compile(rb"crc32=[0-9a-f]{8}\n")  # exactly as save_model writes it
_TRAILER = len("crc32=00000000\n")
_SHOWN = 40  # characters of a bad trailer quoted in its error


def _check_file(f) -> tuple[int, int]:
    """Read the model file f to its end a block at a time, checking its
    version header, crc32 trailer and checksum, then that its body is ASCII,
    with the errors a check of the whole text in that order gives. Returns
    the body's length and crc32.

    The trailer starts at the file's last "crc32=", so the state is the last
    _TRAILER bytes read (not yet in crc), the last marker seen and its first
    _SHOWN bytes."""
    header = MODEL_HEADER.encode("ascii")
    block = f.read(BLOCK)
    # The first line is the header; a block shorter than BLOCK is the whole file.
    if block[: len(header) + 1] not in (header + b"\n", header):
        raise ModelFormatError("version", f"expected {MODEL_HEADER!r} header")
    crc = size = 0  # crc32 of the bytes read before tail; bytes read
    tail = b""
    marker, after_lf, shown = -1, False, b""
    non_ascii = -1  # offset of the first byte above 127
    while block:
        if non_ascii < 0 and not block.isascii():
            non_ascii = size + re.search(rb"[\x80-\xff]", block).start()
        buf = tail + block  # buf[i] is at offset size - len(tail) + i
        i = buf.rfind(b"crc32=", max(len(tail) - 5, 0))  # a marker not wholly in tail, so not seen yet
        if i >= 0:
            marker = size - len(tail) + i
            after_lf = marker == 0 or buf[i - 1] == ord("\n")
            shown = buf[i : i + _SHOWN]
        elif marker >= 0:
            shown += block[: _SHOWN - len(shown)]
        crc = zlib.crc32(memoryview(buf)[:-_TRAILER], crc)
        tail = buf[-_TRAILER:]
        size += len(block)
        block = f.read(BLOCK)

    if marker < 0 or not after_lf:
        raise ModelFormatError("checksum", "missing crc32 trailer")
    if size - marker != _TRAILER or _TRAILER_RE.fullmatch(tail) is None:
        trailer = quoted(shown.decode("latin-1"), _SHOWN, length=size - marker)
        raise ModelFormatError("checksum", f"unparseable trailer {trailer}")
    if crc != int(tail[6:14], 16):
        raise ModelFormatError("checksum", "crc32 mismatch; file corrupted")
    # The trailer parsed, so a non-ASCII byte lies in the body.
    if non_ascii >= 0:
        raise ModelFormatError("structure", f"non-ASCII byte at offset {non_ascii}")
    return marker, crc


_INT64_MAX = np.iinfo(np.int64).max
_SIZE = "([0-9]{1,19})"  # digits int() converts; the line check rejects other spellings
_FLOAT = r"(-?[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?)"  # float() converts each match


@functools.cache
def _entry_lines(n_s: int) -> re.Pattern:
    """A run of entry lines exactly as _entry_text writes them (possessive:
    a line matches in one way only, so backtracking could not help)."""
    return re.compile(rb"(?:(?:0 |[1-9][0-9]*+ ){%d}+: [1-9][0-9]*+\n)*+" % n_s)


def _entry_error(line: str, n_s: int, w: int) -> str:
    """Why an entry line is rejected: the first check it fails."""
    if ":" not in line:
        return "missing ':' separator"
    m = re.fullmatch(r"((?:-?[0-9]+ )+): (-?[0-9]+)", line)
    if m is None:
        return f"unparseable {quoted(line, 120)}"
    try:
        counts, freq = [int(t) for t in m.group(1).split()], int(m.group(2))
    except ValueError:  # more digits than int() converts
        return "a number has too many digits"
    if freq > _INT64_MAX:
        return f"unparseable {quoted(line, 120)}"
    if len(counts) != n_s:
        return f"{len(counts)} counts, expected {n_s}"
    if freq < 1 or min(counts) < 0:
        return "negative value"
    if sum(counts) != w:
        return f"counts sum to {sum(counts)}, expected w={w}"
    return f"unparseable {quoted(line, 120)}"  # leading zeros, "-0" and the like


def _parse_entries(block: bytes, n_s: int, w: int, first: int) -> tuple[np.ndarray, np.ndarray]:
    """The (m, ns) counts and m frequencies of a block of m LF-terminated entry
    lines. Only the text _entry_text writes is accepted; an error names the
    first bad entry, numbered from first, and the first check it fails."""
    ok = _entry_lines(n_s).match(block).end()  # the canonical lines before the first other
    n_ok = block.count(b"\n", 0, ok)
    # Canonical digits only, so fromstring reads ns + 1 values a line; it
    # saturates a value beyond uint64, which the row checks reject.
    rows = np.fromstring(block[:ok].replace(b":", b" "), dtype=np.uint64, sep=" ").reshape(n_ok, n_s + 1)
    counts, freqs = rows[:, :n_s], rows[:, n_s]
    bad = (counts > w).any(axis=1)  # bounds the sum below
    bad |= counts.sum(axis=1) != w
    bad |= freqs > _INT64_MAX
    i = int(np.argmax(bad)) if bad.any() else n_ok
    if i == n_ok and ok == len(block):
        return counts.astype(np.min_scalar_type(w)), freqs.astype(np.int64)
    line = block.split(b"\n")[i].decode("ascii")
    raise ModelFormatError("entries", f"entry {first + i}: {_entry_error(line, n_s, w)}")


def load_model(path) -> TrainedModel:
    """Read a model file written by save_model, verifying version, structure,
    and checksum; failures name the offending section. The head and history
    are parsed loosely, then each line must be the one save_model writes for
    what was parsed, and entries must be its text too; so saving a loaded
    model reproduces its file byte for byte.

    The file is read twice, a block at a time: once to check it whole
    (_check_file), then from its start to parse it, each chunk of entries
    going into the db as it is parsed. So memory beyond the model is one
    block of text and one chunk of entries, and path must name a file that
    can be read again from its start: a pipe fails. If the text parsed is
    not the text checked, the file changed in between, and the load fails."""
    with open(path, "rb") as f:
        if not f.seekable():
            raise OSError(errno.ESPIPE, "a model file is read twice, so it cannot be a pipe", str(path))
        end, crc = _check_file(f)
        f.seek(0)
        return _parse_model(_LineReader(f, end), crc)


def _parse_model(rd: _LineReader, crc: int) -> TrainedModel:
    """The model in the lines rd reads, which must have the crc32 crc."""
    rd.next("version")
    m = rd.fields("params", "parameter line", f"w={_SIZE} S={_SIZE} Tt={_FLOAT} TdFrac={_FLOAT}")
    try:
        config = Config(int(m[1]), int(m[2]), float(m[3]), float(m[4]))
    except ValueError as e:
        raise ModelFormatError("params", str(e)) from None
    retained = int(rd.fields("index", "size line", rf"ns=\S* retained={_SIZE}")[1])
    slots = tuple(rd.fields("index", "slot name", SYSCALL_NAME_RE.pattern)[0] for _ in range(retained))
    rd.next("index")  # the @other sentinel, checked with the rest of the head
    try:
        index = SyscallIndex(slots)
    except ValueError as e:  # a repeated name, or "other"
        raise ModelFormatError("index", str(e)) from None
    n_entries = int(rd.fields("entries", "entry header", f"entries={_SIZE}")[1])
    tail_at = len(rd.got) + n_entries + 1  # the tail's first line number
    rd.check(_head_lines(index, config, n_entries), 1)
    n_s = index.n_s
    db = BehaviorDb()
    dup = -1  # the first entry whose bag an earlier entry holds
    # Bounded memory: one chunk of entry lines at a time, and a forged
    # entries= count fails at the first chunk the file cannot fill. A
    # repeated bag is named once every entry has parsed.
    for lo in range(0, n_entries, CHUNK):
        want = min(CHUNK, n_entries - lo)
        counts, freqs = _parse_entries(rd.take(want), n_s, config.window_size, lo)
        if len(freqs) < want:
            raise ModelFormatError("entries", "file truncated")
        pos = db.add(Bags.from_counts(counts), freqs)
        if dup < 0 and len(db) < lo + want:  # the first repeat is the first entry not at its own position
            dup = lo + int(np.argmax(pos != np.arange(lo, lo + want)))
    if dup >= 0:
        raise ModelFormatError("entries", f"entry {dup}: duplicate bag")
    db.freeze()

    n_history = int(rd.fields("history", "history header", f"history={_SIZE}")[1])
    history = [float(rd.fields("history", "history record", rf"\S+ {_FLOAT}")[1]) for _ in range(n_history)]
    rd.check(_tail_lines(history), tail_at)
    for i, cos in enumerate(history, start=tail_at + 1):
        # A cosine of two non-negative change vectors; save_model writes no sign.
        if not 0.0 <= cos <= 1.0 or math.copysign(1.0, cos) < 0:
            raise ModelFormatError("history", f"line {i}: cosine {cos!r} is signed or outside [0, 1]")
    if not rd.exhausted():
        raise ModelFormatError("structure", "unexpected trailing content before checksum")
    if rd.crc != crc:
        raise ModelFormatError("checksum", "file changed while it was read")
    return TrainedModel(index, db, config, history)
