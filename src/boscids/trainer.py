"""Train the normal-behavior db epoch by epoch until the per-epoch frequency
changes stabilize, then persist the whole model as a versioned text file."""

import functools
import itertools
import logging
import math
import re
import zlib
from dataclasses import dataclass

import numpy as np

from .bosc import CHUNK, Bags, BehaviorDb, Config, DuplicateBagError, unique_window_bags
from .catalog import OTHER_NAME, SyscallIndex, build_index
from .trace_ingest import MAX_LINE, SYSCALL_NAME_RE, CountTable, RawTrace, count_table, epochs_of, quoted

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
    return _cosine(float(va @ vb), float(va @ va), float(vb @ vb))


def change_cosine(a, b) -> float:
    """cosine_similarity of two epochs' change vectors, each given as the
    (positions, multiplicities) of its bags that BehaviorDb.add took, with
    distinct positions: a dot product over the positions both share.

    The sums are int64 and exact. They are at most (S - w + 1)**2, so they
    convert to float64 exactly, and this equals the dense float64
    cosine_similarity bit for bit, while S - w + 1 <= 9.49e7, the square
    root of 2**53. MAX_EPOCH_SLOTS admits S up to 2**27 at w=1; above the
    bound only the int64 sums stay exact.
    """
    (pa, ma), (pb, mb) = a, b
    _, ia, ib = np.intersect1d(pa, pb, assume_unique=True, return_indices=True)
    return _cosine(float(ma[ia] @ mb[ib]), float(ma @ ma), float(mb @ mb))


def _cosine(dot: float, aa: float, bb: float) -> float:
    """The cosine of two vectors a and b from a @ b, a @ a and b @ b."""
    na = math.sqrt(aa)
    nb = math.sqrt(bb)
    if na == 0.0 and nb == 0.0:
        return 1.0
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


def train(trace, counts: CountTable | None = None, config: Config | None = None) -> TrainedModel:
    """Learn normal behavior from a trace of full epochs: a RawTrace, syscall
    names, or the epoch-sized RawTrace chunks of one stream (see epochs_of),
    which need counts.

    Epochs are pulled one at a time. Each epoch's change is kept sparse, as
    the db positions of its bags and their multiplicities, so an epoch costs
    time in its own bags, not in the db. After each epoch k>1 the change is
    compared to the previous one by change_cosine; training stops once the
    similarity stays at or above the threshold for two consecutive epochs,
    and pulls no more.
    Exhausting the trace without that happening returns a model flagged as
    non-converged rather than failing: the operator can inspect the history
    and re-run with more data.
    """
    if config is None:
        config = Config()
    if counts is None:  # counting needs the whole trace
        if not isinstance(trace, RawTrace):
            items = iter(trace)
            head = list(itertools.islice(items, 1))
            if head and isinstance(head[0], RawTrace):  # a stream, which is read once
                raise ValueError("training on a stream of chunks needs its counts")
            trace = RawTrace.from_names(itertools.chain(head, items))
        counts = count_table(trace)
    index = build_index(counts)
    S = config.epoch_size
    model = TrainedModel(index, BehaviorDb(), config, [])
    change_prev: tuple[np.ndarray, np.ndarray] | None = None
    n_calls = 0
    for epoch in epochs_of(trace, S):
        n_calls += len(epoch.calls)
        if len(epoch.calls) < S:  # the trailing partial epoch
            continue
        slots = index.resolve_stream(epoch)
        bags, mult = unique_window_bags(slots, config.window_size, index.n_s)
        change = model.db.add(bags, mult), mult
        if change_prev is not None:
            model.history.append(change_cosine(change, change_prev))
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
    top = values.max()
    v = values.astype(np.min_scalar_type(top), copy=False)
    width = len(str(top))
    cells = np.empty(v.shape + (width + len(tail),), dtype=np.uint8)
    keep = np.ones(cells.shape, dtype=bool)
    for p in range(width):  # digit positions, most significant first
        scale = 10 ** (width - 1 - p)
        digit = v // scale if scale > 1 else v
        cells[..., p] = (digit % 10 if p else digit) + ord("0")  # the first is below 10
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
    """Write the versioned line-oriented model file with a crc32 trailer.
    Raises ValueError before creating it if a head or history line, or an
    entry line (ns counts of at most w, ": " and a 19-digit frequency, so at
    most ns * (len(str(w)) + 1) + 21 bytes), could be longer than MAX_LINE."""
    head = _head_lines(model.index, model.config, len(model.db))
    tail = _tail_lines(model.history)
    longest = max(*map(len, head + tail), model.index.n_s * (len(str(model.config.window_size)) + 1) + 21)
    if longest > MAX_LINE:
        raise ValueError(f"a model line could be {longest} bytes, longer than {MAX_LINE} bytes")
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


class _Unreadable(ModelFormatError):
    """A model file rejected as it is read, whatever its parse would give."""


_TRAILER_RE = re.compile(rb"crc32=[0-9a-f]{8}\n")  # exactly as save_model writes it


class _LineReader:
    """The LF-terminated lines of model file f, read once from its start. take()
    and next() hand out all but its last line, the trailer; next() keeps each
    (section, line) it reads in got. Reads are checked as a check of the whole
    text would: version and line cap at once, the rest in finish()."""

    def __init__(self, f):
        self._f = f
        self.got: list[tuple[str, str]] = []
        self._lines = self._size = self._crc = 0  # lines and bytes read; crc32 of the lines handed out
        self._non_ascii = -1  # offset of the first byte above 127
        self._last = b""  # the file's last line, once read

    def take(self, n: int) -> bytes:
        """The next n lines (fewer if the body runs out), each with its LF."""
        lines = []
        for line in itertools.islice(iter(functools.partial(self._f.readline, MAX_LINE + 1), b""), n):
            lines.append(line)
            if len(line) > MAX_LINE and line[-1] != 10:  # no LF in MAX_LINE + 1 bytes
                break
        block = b"".join(lines)
        if not self._size and block.partition(b"\n")[0] != MODEL_HEADER.encode("ascii"):
            raise _Unreadable("version", f"expected {MODEL_HEADER!r} header")
        self._lines += len(lines)
        if lines and len(lines[-1]) > MAX_LINE and lines[-1][-1] != 10:
            raise _Unreadable("structure", f"line {self._lines}: longer than {MAX_LINE} bytes")
        if lines and not self._f.peek(1):  # at the end of the file
            self._last = lines[-1]
        if self._non_ascii < 0 and not block.isascii():
            self._non_ascii = self._size + re.search(rb"[\x80-\xff]", block).start()
        self._size += len(block)
        body = block[: len(block) - len(self._last)]  # never the last line; blocks after it are empty
        self._crc = zlib.crc32(body, self._crc)
        return body

    def next(self, section: str) -> str:
        line = self.take(1)
        if not line:
            raise ModelFormatError(section, "file truncated")
        self.got.append((section, line[:-1].decode("latin-1")))  # a non-ASCII byte fails in finish()
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

    def finish(self) -> None:
        """Read the rest of the file a line at a time, then make the trailer,
        checksum and ASCII checks, in that order: the last line must be the
        trailer save_model writes, crc32 of all the lines before it."""
        while self.take(1):
            pass
        if _TRAILER_RE.fullmatch(self._last) is None:
            raise ModelFormatError("checksum", f"last line {quoted(self._last.decode('latin-1'))} is not the crc32 trailer")
        if self._crc != int(self._last[6:14], 16):
            raise ModelFormatError("checksum", "crc32 mismatch; file corrupted")
        if self._non_ascii >= 0:
            raise ModelFormatError("structure", f"non-ASCII byte at offset {self._non_ascii}")


_INT64_MAX = np.iinfo(np.int64).max
_SIZE = "([0-9]{1,19})"  # digits int() converts; the line check rejects other spellings
_FLOAT = r"(-?[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?)"  # float() converts each match


def _digits(buf: np.ndarray, ends: np.ndarray, lens: np.ndarray, width: int, dtype) -> np.ndarray:
    """The decimal values of the tokens of buf that end before ends and are
    lens long, at most width, in dtype: one pass a digit place. An empty
    token, or one of other bytes than digits, gets some value (it may wrap)
    that the text check rejects."""
    v = (buf[ends - 1] - ord("0")).astype(dtype, copy=False)
    for p in range(1, width):
        v += np.where(lens > p, buf[ends - 1 - p] - ord("0"), 0).astype(dtype, copy=False) * 10**p
    return v


def _entry_values(block: bytes, n_s: int, w: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The (m, ns) counts and m frequencies of a block of m LF-terminated entry
    lines, or None unless every value is in bounds and _entry_text writes
    exactly the block for them."""
    buf = np.frombuffer(block, dtype=np.uint8)
    # Each line is ns + 2 tokens (the counts, ":" and the frequency), each
    # ending at a space or LF; any other byte below 33 ends one too, and
    # fails the text check, as does a block of other than m lines.
    ends = np.flatnonzero(buf <= 32).astype(np.int32)
    k = n_s + 2
    m, rest = divmod(len(ends), k)
    if rest or not m:
        return None
    lens = np.empty_like(ends)
    lens[0] = ends[0]
    np.subtract(ends[1:], ends[:-1] + 1, out=lens[1:])
    ends, lens = ends.reshape(m, k), lens.reshape(m, k)
    # More digits than a count up to w or a frequency below 2**63 has; this
    # also keeps each digit place within the dtypes below.
    count_width, freq_width = int(lens[:, :n_s].max()), int(lens[:, -1].max())
    if count_width > len(str(w)) or freq_width > 19:
        return None
    # Unsigned counts that sum to w are each at most w.
    counts = _digits(buf, ends[:, :n_s], lens[:, :n_s], count_width, np.min_scalar_type(w))
    if (counts.sum(axis=1, dtype=np.int64) != w).any():
        return None
    freqs = _digits(buf, ends[:, -1], lens[:, -1], freq_width, np.uint64)
    if ((freqs < 1) | (freqs > _INT64_MAX)).any():
        return None
    if not np.array_equal(_entry_text(counts, freqs), buf):
        return None
    return counts, freqs.astype(np.int64)


def _parse_entries(block: bytes, n_s: int, w: int, first: int) -> tuple[np.ndarray, np.ndarray]:
    """The (m, ns) counts and m frequencies of a block of m LF-terminated entry
    lines. Only the text _entry_text writes is accepted; an error names the
    first bad entry, numbered from first, quotes it and states the rule."""
    if not block:
        return np.zeros((0, n_s), dtype=np.min_scalar_type(w)), np.zeros(0, dtype=np.int64)
    rows = _entry_values(block, n_s, w)
    if rows is not None:
        return rows
    # A block is accepted exactly when each of its lines is, so one line fails.
    lines = block.split(b"\n")[:-1]
    i = next(i for i, line in enumerate(lines) if _entry_values(line + b"\n", n_s, w) is None)
    raise ModelFormatError("entries", f"entry {first + i}: {quoted(lines[i].decode('latin-1'), 120)} is not {n_s} "
                                      f"counts summing to {w}, ' : ' and a frequency from 1 to {_INT64_MAX}")


def load_model(path) -> TrainedModel:
    """Read a model file written by save_model, verifying version, structure,
    and checksum; failures name the offending section. The head and history
    are parsed loosely, then each line must be the one save_model writes for
    what was parsed, and entries must be its text too; so saving a loaded
    model reproduces its file byte for byte.

    The file is read once, so path may be a pipe; memory beyond the model is
    one chunk of entry lines of at most MAX_LINE bytes. A parse error is
    raised only if the file passes its trailer, checksum and ASCII checks."""
    with open(path, "rb") as f:
        rd = _LineReader(f)
        try:
            model, error = _parse_model(rd), None
        except _Unreadable:
            raise
        except ModelFormatError as e:
            model, error = None, e
        rd.finish()
    if error is not None:
        raise error
    return model


def _parse_model(rd: _LineReader) -> TrainedModel:
    """The model in the lines rd reads."""
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

    def entries():
        # Bounded memory: one chunk of entry lines at a time, and a forged
        # entries= count fails at the first chunk the file cannot fill.
        for lo in range(0, n_entries, CHUNK):
            want = min(CHUNK, n_entries - lo)
            counts, freqs = _parse_entries(rd.take(want), n_s, config.window_size, lo)
            if len(freqs) < want:
                raise ModelFormatError("entries", "file truncated")
            yield Bags.from_counts(counts), freqs

    try:  # a repeated bag is named once every entry has parsed
        db = BehaviorDb.from_entries(entries())
    except DuplicateBagError as e:
        raise ModelFormatError("entries", f"entry {e.position}: duplicate bag") from None

    n_history = int(rd.fields("history", "history header", f"history={_SIZE}")[1])
    history = [float(rd.fields("history", "history record", rf"\S+ {_FLOAT}")[1]) for _ in range(n_history)]
    rd.check(_tail_lines(history), tail_at)
    for i, cos in enumerate(history, start=tail_at + 1):
        # A cosine of two non-negative change vectors; save_model writes no sign.
        if not 0.0 <= cos <= 1.0 or math.copysign(1.0, cos) < 0:
            raise ModelFormatError("history", f"line {i}: cosine {cos!r} is signed or outside [0, 1]")
    if rd.take(1):
        raise ModelFormatError("structure", "unexpected trailing content before checksum")
    return TrainedModel(index, db, config, history)
