"""Independent brute-force oracles the engine-path tests compare against.

Everything here recounts from scratch, with plain Python loops or with
count-matrix rows; none of it shares code with the bag-key, coded-trace or
block-ingest paths under test. The exceptions are insert_counts, a fixture
builder, and first_uniforms and trace_digest, which the generator's
known-answer pins are checked through.
"""

import hashlib
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np

from boscids.bosc import Bags
from boscids.trace_ingest import parse_line


def insert_counts(db, bags, multiplicities=None):
    """Insert count-tuple bags into a BehaviorDb (each once by default) and
    return the change vector."""
    mult = [1] * len(bags) if multiplicities is None else multiplicities
    return db.insert_many(Bags.from_counts(bags), mult)


def counter_table_entries(names):
    """Count-table entries of a name sequence, by Counter: count descending,
    then name ascending."""
    return tuple(sorted(Counter(names).items(), key=lambda kv: (-kv[1], kv[0])))


def first_uniforms(seed, count=4):
    """The leading uniform doubles of the generator's PCG64 stream."""
    return np.random.Generator(np.random.PCG64(seed)).random(count).tolist()


def trace_digest(trace):
    """sha256 of a coded trace's file bytes."""
    return hashlib.sha256(b"".join(trace.file_chunks())).hexdigest()


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


def trace_text(names):
    """Trace-file bytes of a name sequence, written name by name."""
    return "".join(f"{n}\n" for n in names).encode("ascii")


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


def entry_line(bag, freq):
    """One model-file entry line, written token by token."""
    return " ".join(map(str, bag)) + " : " + str(freq)


_ENTRY_SHAPE = re.compile(r"-?[0-9]+( -?[0-9]+)* : -?[0-9]+")


def parse_entry_line(line, n_s, w):
    """(bag, freq) of one entry line, parsed token by token, or ValueError with
    the loader's reason. Only entry_line's own text is accepted."""
    counts_part, sep, freq_part = line.rpartition(":")
    if not sep:
        raise ValueError("missing ':' separator")
    if not _ENTRY_SHAPE.fullmatch(line):
        raise ValueError(f"unparseable {line!r}")
    bag = tuple(map(int, counts_part.split()))
    freq = int(freq_part)
    if freq > 2**63 - 1:  # the frequency is an int64
        raise ValueError(f"unparseable {line!r}")
    if len(bag) != n_s:
        raise ValueError(f"{len(bag)} counts, expected {n_s}")
    if freq < 1 or min(bag) < 0:
        raise ValueError("negative value")
    if sum(bag) != w:
        raise ValueError(f"counts sum to {sum(bag)}, expected w={w}")
    if entry_line(bag, freq) != line:
        raise ValueError(f"unparseable {line!r}")
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
