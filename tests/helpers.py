"""Independent brute-force oracles the engine-path tests compare against.

Everything here recounts from scratch, with plain Python loops or with
count-matrix rows; none of it shares code with the bag-key, coded-trace or
block-ingest paths under test. The exceptions are insert_counts, a fixture
builder, first_uniforms, which the generator's known-answer pin is checked
through, and the entry and model-file oracles' messages, which quote a line
through trace_ingest.quoted as the loader does.
"""

import hashlib
import math
import re
import zlib
from collections import Counter
from pathlib import Path

import numpy as np

from boscids.bosc import Bags
from boscids.trace_ingest import MAX_LINE, parse_line, quoted
from boscids.trainer import MODEL_HEADER, ModelFormatError


def insert_counts(db, bags, multiplicities=None):
    """Insert count-tuple bags into a BehaviorDb (each once by default) and
    return the change vector."""
    mult = [1] * len(bags) if multiplicities is None else multiplicities
    return db.insert_many(Bags.from_counts(bags), mult)


class DictDb:
    """The behaviour db as a dict from count tuples to insertion positions,
    with the frequencies in a list by position: bags new to it take the next
    positions in the order they first appear."""

    def __init__(self):
        self.pos = {}
        self.freq = []

    def add(self, bags, multiplicities):
        """Add each count tuple's multiplicity; return each one's position."""
        out = []
        for bag, m in zip(bags, multiplicities):
            p = self.pos.setdefault(bag, len(self.pos))
            if p == len(self.freq):
                self.freq.append(0)
            self.freq[p] += m
            out.append(p)
        return out

    def positions(self, bags):
        return [self.pos.get(bag, -1) for bag in bags]

    def items(self):
        return list(zip(self.pos, self.freq))

    def chunks(self, size):
        """(int64 count matrix, int64 frequencies) of size bags at a time."""
        bags = list(self.pos)
        return [(np.array(bags[lo : lo + size], dtype=np.int64), np.array(self.freq[lo : lo + size], dtype=np.int64))
                for lo in range(0, len(bags), size)]


def counter_table_entries(names):
    """Count-table entries of a name sequence, by Counter: count descending,
    then name ascending."""
    return tuple(sorted(Counter(names).items(), key=lambda kv: (-kv[1], kv[0])))


def first_uniforms(seed, count=4):
    """The leading uniform doubles of the generator's PCG64 stream."""
    return np.random.Generator(np.random.PCG64(seed)).random(count).tolist()


def trace_digest(trace):
    """sha256 of a coded trace's file bytes: one name per call, LF-terminated."""
    return hashlib.sha256("".join(f"{trace.names[c]}\n" for c in trace.calls).encode("ascii")).hexdigest()


def call_names(trace):
    """The name of each call of a coded trace, decoded one by one."""
    return [trace.names[c] for c in trace.calls]


def resolve_each(index, names):
    """Slots of a name sequence, one index.resolve call per name."""
    return [index.resolve(n) for n in names]


def ingest_line_by_line(lines, source="<stream>"):
    """(call names, source_meta) of tracer lines, each classified by parse_line."""
    names = []
    n_lines = n_garbage = 0
    for line in lines:
        n_lines += 1
        parsed = parse_line(line)
        if parsed.kind in ("call", "unfinished"):
            names.append(parsed.name)
        elif parsed.kind == "garbage":
            n_garbage += 1
    return names, f"{source}: {n_lines} lines, {n_garbage} garbage"


def ingest_file_line_by_line(path):
    """ingest_line_by_line over a tracer file read in text mode, line by line."""
    p = Path(path)
    with p.open("r", encoding="utf-8", errors="replace") as fh:
        return ingest_line_by_line(fh, p.name)


def capped_text_lines(data, cap):
    """The lines of file bytes as text-mode reading splits them, each cut to
    its first cap bytes, then decoded."""
    lines = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n").split(b"\n")
    if lines[-1] == b"":
        del lines[-1]  # the text after the last line end
    return [line[:cap].decode("utf-8", "replace") for line in lines]


def trace_text(names):
    """Trace-file bytes of a name sequence, written name by name."""
    return "".join(f"{n}\n" for n in names).encode("ascii")


def reference_keys(rows, n_s):
    """Bag keys of (m, w) slot rows sorted ascending, coded through a new
    big-endian copy of the complements, 1, 2 or 4 bytes a slot as n_s - 1
    fits in 8, 16 or 32 bits."""
    width = next(b for b in (1, 2, 4) if n_s - 1 < 2 ** (8 * b))
    c = np.ascontiguousarray(n_s - 1 - np.asarray(rows, dtype=np.int64), dtype=f">u{width}")
    return c.view(np.dtype((np.void, width * c.shape[1]))).ravel()


def brute_force_bag(window, n_s):
    counts = [0] * n_s
    for s in window:
        counts[s] += 1
    return tuple(counts)


def brute_force_epoch_bags(epoch, w, n_s):
    """Every window's bag, one by one, stride 1, within a single epoch."""
    return [brute_force_bag(epoch[i : i + w], n_s) for i in range(len(epoch) - w + 1)]


def epoch_bag_matrix(slots, w, n_s):
    """All window bags of one epoch as an (n_windows, n_s) count matrix."""
    arr = np.asarray(slots, dtype=np.int64)
    n = arr.shape[0]
    if n < w:
        return np.zeros((0, n_s), dtype=np.int64)
    nwin = n - w + 1
    win = np.lib.stride_tricks.sliding_window_view(arr, w)
    flat = (win + np.arange(nwin, dtype=np.int64)[:, None] * n_s).ravel()
    return np.bincount(flat, minlength=nwin * n_s).reshape(nwin, n_s)


def unique_bags(bag_matrix):
    """Distinct rows of a bag matrix, ascending, plus multiplicities."""
    if bag_matrix.shape[0] == 0:
        return [], np.zeros(0, dtype=np.int64)
    uniq, counts = np.unique(bag_matrix, axis=0, return_counts=True)
    return [tuple(row) for row in uniq.tolist()], counts


def brute_force_db(slot_stream, S, w, n_s):
    """From-scratch recount of the whole training db over full epochs."""
    freq = Counter()
    n_full = len(slot_stream) // S
    for e in range(n_full):
        epoch = slot_stream[e * S : (e + 1) * S]
        for bag in brute_force_epoch_bags(epoch, w, n_s):
            freq[bag] += 1
    return dict(freq)


def brute_force_mismatches(epoch, w, n_s, known_bags):
    return sum(1 for bag in brute_force_epoch_bags(epoch, w, n_s) if bag not in known_bags)


def reference_cosine(a, b):
    """Textbook cosine over two equal-length sequences."""
    dot = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(y * y for y in b))
    if na == 0.0 and nb == 0.0:
        return 1.0
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


def one_char_edit(text, k, edit, char):
    """text with char in place of its k-th character (replace), char put
    before it (insert), or that character deleted."""
    return text[:k] + ("" if edit == "delete" else char) + text[k + (edit != "insert") :]


def entry_line(bag, freq):
    """One model-file entry line, written token by token."""
    return " ".join(map(str, bag)) + " : " + str(freq)


_ENTRY_SHAPE = re.compile(r"-?[0-9]+( -?[0-9]+)* : -?[0-9]+")


def parse_entry_line(line, n_s, w):
    """(bag, freq) of one entry line, parsed token by token, or ValueError with
    the loader's message. Only entry_line's own text is accepted."""
    bad = ValueError(f"{quoted(line, 120)} is not {n_s} counts summing to {w}, "
                     f"' : ' and a frequency from 1 to {2**63 - 1}")
    counts_part, sep, freq_part = line.rpartition(":")
    if not sep or not _ENTRY_SHAPE.fullmatch(line):
        raise bad
    try:
        bag, freq = tuple(map(int, counts_part.split())), int(freq_part)
    except ValueError:  # more digits than int() converts
        raise bad from None
    if freq > 2**63 - 1:  # the frequency is an int64
        raise bad
    if len(bag) != n_s or freq < 1 or min(bag) < 0 or sum(bag) != w:
        raise bad
    if entry_line(bag, freq) != line:
        raise bad
    return bag, freq


def parse_entry_section(lines, n_entries, n_s, w):
    """The (bag, freq) entries a model body's lines after `entries=` hold,
    line by line, or ValueError with the loader's message for the first bad one."""
    entries = []
    for i, line in enumerate(lines[:n_entries]):
        try:
            entries.append(parse_entry_line(line, n_s, w))
        except ValueError as e:
            raise ValueError(f"entry {i}: {e}") from None
    if len(entries) < n_entries:
        raise ValueError("file truncated")
    seen = set()
    for i, (bag, _) in enumerate(entries):
        if bag in seen:
            raise ValueError(f"entry {i}: duplicate bag")
        seen.add(bag)
    return entries


def whole_file_checks(data):
    """The model loader's version, line-length, trailer, checksum and ASCII
    checks, made on a whole file's bytes held at once: ModelFormatError with
    the loader's section and message for the first that fails."""
    newline = data.find(b"\n")
    first = data[:newline] if newline >= 0 else data
    if first != MODEL_HEADER.encode("ascii"):
        raise ModelFormatError("version", f"expected {MODEL_HEADER!r} header")
    for i, line in enumerate(data.split(b"\n"), start=1):
        if len(line) > MAX_LINE:
            raise ModelFormatError("structure", f"line {i}: longer than {MAX_LINE} bytes")
    last = data.rfind(b"\n", 0, len(data) - 1) + 1  # where the last line starts
    trailer = data[last:]
    if re.fullmatch(rb"crc32=[0-9a-f]{8}\n", trailer) is None:
        raise ModelFormatError("checksum", f"last line {quoted(trailer.decode('latin-1'))} is not the crc32 trailer")
    if zlib.crc32(data[:last]) != int(trailer[6:14], 16):
        raise ModelFormatError("checksum", "crc32 mismatch; file corrupted")
    if not data.isascii():
        offset = int(np.argmax(np.frombuffer(data, dtype=np.uint8) > 127))
        raise ModelFormatError("structure", f"non-ASCII byte at offset {offset}")
