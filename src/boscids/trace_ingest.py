"""Turn raw strace text into a clean stream of syscall names plus a count table.

The tracer writes one event per line: ordinary calls, `<unfinished ...>` /
`<... name resumed>` splits, signal notices (`--- SIG... ---`), and process
exit notices (`+++ exited ... +++`). Only the syscall names survive here;
arguments, return values, and PIDs are stripped.

Files are read in text mode as latin-1, one character per byte, BLOCK
characters at a time, and each block is cut after its last line end; so
memory holds one block and the coded calls, never the whole text. A capture
can become its trace file and name counts a block at a time
(ingest_file_to), with no codes at all; and a trace file can be read a
chunk of calls at a time (read_trace_chunks), so train and detect hold one
epoch's codes and read no further than they need.
Text mode reads CR and CRLF as LF, and only LF ends a line; a capture's
lines are then UTF-8 with undecodable bytes replaced. Most tracer lines are settled by one
anchored pattern, a call or unfinished line with an optional pid prefix;
every other line, and any line holding `<...`, goes whole to parse_line,
which classifies every line shape and never raises.

A line longer than MAX_LINE bytes is classified by its first MAX_LINE bytes
in a capture and fails every other file (trace, count, report, label and
config files), so memory stays bounded on input with no line ends.

A trace is dictionary-coded, like Arrow's DictionaryArray or pandas'
Categorical: distinct names plus one int32 code per call, in an
array('i') that numpy views without a copy. _coded is the one place a name
sequence becomes a trace, whole or in chunks; it checks each distinct name
once and names a trace file's over-long line. Each chunk carries only the
names its calls use, as an Arrow record batch may carry its own dictionary,
so reading is linear in the trace. This module imports no numpy
(count_table imports it when called), so `boscids ingest` starts without it.
"""

import re
import reprlib
import sys
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import partial
from itertools import chain, count, islice
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

SYSCALL_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

_PID_BRACKET_RE = re.compile(r"\[pid\s+(\d+)\]\s*")
_PID_LEADING_RE = re.compile(r"(\d+)\s+")
_RESUMED_RE = re.compile(r"<\.\.\.\s+([A-Za-z_][A-Za-z0-9_]*)\s+resumed>")
_NAME_BEFORE_PAREN_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\(\Z")
# A line this matches, and that holds no `<...`, is one parse_line reads as a
# call or unfinished line of the same name: its stripped text starts with the
# pid prefix parse_line removes, then the name and the first `(`.
_CALL_RE = re.compile(r"[ \t]*(?:\[pid +[0-9]+\] *|[0-9]+ +)?([A-Za-z_][A-Za-z0-9_]*)\(")

# Characters (latin-1 bytes) of a file read at a time. A reader holds one
# block's line strings, and larger blocks (64 KiB measured) read no faster.
BLOCK = 1 << 14
MAX_LINE = 1 << 20  # bytes of a line kept


@dataclass(frozen=True)
class RawTraceLine:
    """One classified tracer line. kind is call, unfinished, resumed, signal,
    exit, or garbage; name is set only for call/unfinished/resumed."""

    kind: str
    pid: int | None = None
    name: str | None = None


def quoted(text: str, limit: int = 40) -> str:
    """repr of text, non-ASCII escaped; a longer text shows its first limit
    characters and its length."""
    shown = repr(text[:limit].encode("ascii", "backslashreplace").decode("ascii"))
    return shown if len(text) <= limit else f"{shown}... ({len(text)} characters)"


class SyscallNameError(ValueError):
    """An invalid syscall name, the item first called at index position."""

    def __init__(self, name: object, position: int):
        shown = quoted(name) if isinstance(name, str) else reprlib.repr(name)
        super().__init__(f"invalid syscall name {shown}")
        self.item = name
        self.position = position


@dataclass(eq=False)
class RawTrace:
    """One trace: calls[i] is the int32 code of call i into names, in an
    array('i'); np.frombuffer(calls, np.int32) views it. from_names lists
    names in first-appearance order; gen's names may go unused."""

    names: tuple[str, ...]
    calls: array
    source_meta: str = ""

    @classmethod
    def from_names(cls, seq: "RawTrace | Iterable[str]") -> "RawTrace":
        """Code a sequence of syscall names, checking each distinct name
        once; any item that is not a str, bytes and ints included, raises
        SyscallNameError. A RawTrace passes through unchanged."""
        if isinstance(seq, RawTrace):
            return seq
        # One chunk holds every call; an empty sequence gives none.
        return next(_coded(iter(seq), None), None) or cls((), array("i"))

    def split(self, size: int) -> Iterator["RawTrace"]:
        """The trace size calls at a time, each chunk sharing these names."""
        step = _chunk_limit(size)
        for lo in range(0, len(self.calls), step):
            yield RawTrace(self.names, self.calls[lo : lo + step])


def _chunk_limit(size: int | None) -> int:
    """The calls a chunk of size calls holds, every call when size is None;
    a size below 1 raises ValueError."""
    if size is None:
        return sys.maxsize
    if size < 1:
        raise ValueError(f"size must be a positive integer, got {size}")
    return size


def _coded(items: Iterator, size: int | None) -> Iterator[RawTrace]:
    """items coded as RawTrace chunks of size calls (all in one chunk when
    size is None), the last possibly shorter; no chunk when items is empty.

    Each chunk is coded with its own dictionary: its names are exactly the
    names its calls use, in first-appearance order. Each distinct name is
    checked once per stream, before the chunk it first appears in is
    yielded; an item that is not a valid name raises SyscallNameError at its
    position in items. Items after the last chunk yielded are not pulled."""
    limit = _chunk_limit(size)
    checked: set = set()  # names of earlier chunks, all valid
    done = 0  # calls in earlier chunks
    while True:
        # A new name's code is the count of names seen before it; map loops
        # in C. (A factory bound to the dict itself would make a cycle that
        # keeps each chunk's names alive until the garbage collector runs.)
        code_of = defaultdict(count().__next__)
        codes = map(code_of.__getitem__, items)
        calls = array("i")
        # Lists of up to 4,096 codes: the array grows once per list, not per call.
        while (room := limit - len(calls)) and (batch := list(islice(codes, min(room, 1 << 12)))):
            calls.fromlist(batch)
        if not calls:
            return
        names = tuple(code_of)
        for code, name in enumerate(names):
            if name not in checked:
                if not (isinstance(name, str) and SYSCALL_NAME_RE.fullmatch(name)):
                    raise SyscallNameError(name, done + calls.index(code))
                checked.add(name)
        yield RawTrace(names, calls)
        if len(calls) < limit:
            return
        done += len(calls)


@dataclass(frozen=True)
class CountTable:
    """Distinct syscall names with occurrence counts, sorted by count
    descending then name ascending."""

    entries: tuple[tuple[str, int], ...]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    @classmethod
    def from_counts(cls, counts: dict[str, int]) -> "CountTable":
        return cls(tuple(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))))


def parse_line(line: str) -> RawTraceLine:
    """Classify one tracer line and pull out the syscall name if it has one.

    Unrecognized input degrades to kind="garbage"; this never raises.
    """
    s = line.strip()
    pid = None
    m = _PID_BRACKET_RE.match(s)
    if m is None:
        m = _PID_LEADING_RE.match(s)
    if m is not None:
        pid = int(m.group(1))
        s = s[m.end():]

    if len(s) >= 7 and s.startswith("---") and s.endswith("---") and "SIG" in s:
        return RawTraceLine("signal", pid)
    if len(s) >= 7 and s.startswith("+++") and s.endswith("+++"):
        return RawTraceLine("exit", pid)
    m = _RESUMED_RE.search(s)
    if m is not None:
        return RawTraceLine("resumed", pid, m.group(1))
    paren = s.find("(")
    if paren > 0:
        m = _NAME_BEFORE_PAREN_RE.search(s[: paren + 1])
        if m is not None:
            kind = "unfinished" if "<unfinished" in s else "call"
            return RawTraceLine(kind, pid, m.group(1))
    return RawTraceLine("garbage", pid)


def _settle(lines: list[str], tally: list[int]) -> list[str]:
    """The name of each call or unfinished line of a batch, in order; adds
    the batch's line and garbage counts to tally."""
    names: list[str] = []
    keep = names.append
    match = _CALL_RE.match
    n_garbage = 0
    for line in lines:
        m = match(line)
        if m is not None and "<..." not in line:
            keep(m[1])
            continue
        parsed = parse_line(line)
        if parsed.kind in ("call", "unfinished"):
            keep(parsed.name)
        elif parsed.kind == "garbage":
            n_garbage += 1
    tally[0] += len(lines)
    tally[1] += n_garbage
    return names


def _source_meta(source: str, tally: list[int]) -> str:
    return f"{source}: {tally[0]} lines, {tally[1]} garbage"


def _ingested(blocks: Iterable[list[str]], source: str, tally: list[int]) -> RawTrace:
    """The trace of blocks of names that _settle adds to tally."""
    trace = RawTrace.from_names(chain.from_iterable(blocks))
    trace.source_meta = _source_meta(source, tally)
    return trace


def ingest(lines: Iterable[str], source: str = "<stream>") -> RawTrace:
    """Extract syscall names from tracer lines, in input order.

    An interrupted call is counted once, at its `unfinished` line; the
    matching `resumed` line contributes nothing. Signal/exit notices and
    garbage are skipped, with garbage tallied in source_meta.
    """
    # Lines go through in lists, as a capture's blocks do, so the classifier
    # loops over a list instead of resuming a generator per line.
    it = iter(lines)
    tally = [0, 0]
    batches = iter(lambda: list(islice(it, 4096)), [])
    return _ingested((_settle(b, tally) for b in batches), source, tally)


def _pieces(path: Path, cap: int) -> Iterator[str]:
    """The file's text, about BLOCK characters at a time, each piece ending
    in an LF. Latin-1 reads one character per byte, and text mode reads CR
    and CRLF as LF; a last line with no line end gets one. A line keeps its
    first cap characters; only a piece's first line, begun in an earlier
    block, can be longer than BLOCK, so only it is cut."""
    assert BLOCK <= MAX_LINE
    with path.open(encoding="latin-1", newline=None) as fh:
        head = ""  # the kept start of the line begun after the last cut
        while block := fh.read(BLOCK):
            cut = block.rfind("\n") + 1
            if cut:
                end = block.index("\n")
                yield (head + block[:end])[:cap] + block[end:cut]
                head = block[cut:]
            elif len(head) < cap:
                head += block[: cap - len(head)]
        if head:
            yield head + "\n"


def _lines(piece: str) -> list[str]:
    """A piece's lines, without their LFs."""
    lines = piece.split("\n")
    del lines[-1]  # the empty text after the piece's last LF
    return lines


def _capture_names(path: Path, tally: list[int]) -> Iterator[list[str]]:
    """The call names of each block of a tracer text file, in order; adds
    each block's line and garbage counts to tally."""
    for piece in _pieces(path, MAX_LINE):
        yield _settle(_lines(piece.encode("latin-1").decode("utf-8", "replace")), tally)


def ingest_file(path) -> RawTrace:
    """ingest over the lines of a tracer text file, read a block at a time;
    a line is UTF-8 with undecodable bytes replaced."""
    p = Path(path)
    tally = [0, 0]
    return _ingested(_capture_names(p, tally), p.name, tally)


def ingest_file_to(path, trace_out) -> tuple[str, CountTable]:
    """Write the trace file of a tracer text file a block at a time, the
    bytes write_trace_file(ingest_file(path), trace_out) writes, holding no
    call codes; returns that trace's source_meta and count_table. trace_out
    is opened before path is read, so it must not be path."""
    p = Path(path)
    tally = [0, 0]
    counts: Counter = Counter()
    with Path(trace_out).open("wb") as fh:
        for names in _capture_names(p, tally):
            counts.update(names)
            _write_names(fh, names)
    return _source_meta(p.name, tally), CountTable.from_counts(counts)


def count_table(trace) -> CountTable:
    """Count each name's calls; names no call uses are left out. trace is a
    RawTrace, syscall names, or the RawTrace chunks of one stream (see
    epochs_of), which is read once, a chunk at a time."""
    import numpy as np  # here, so that importing this module loads no numpy

    counts: Counter = Counter()
    for chunk in epochs_of(trace, None):
        n = np.bincount(np.frombuffer(chunk.calls, np.int32), minlength=len(chunk.names))
        counts.update(dict(zip(chunk.names, n.tolist())))
    return CountTable.from_counts({n: c for n, c in counts.items() if c})


def _write_names(fh, names: Sequence[str]) -> None:
    """Write names to trace file fh, one per line, LF-terminated: the one
    writer of trace file text."""
    if names:
        fh.write("\n".join(names).encode("ascii"))
        fh.write(b"\n")


def write_trace_file(trace: RawTrace, path) -> None:
    """One syscall name per line, LF-terminated."""
    with Path(path).open("wb") as fh:
        # itemgetter looks a chunk's names up in one call, faster than a map
        # over its codes; it gives a tuple, or the name itself for one call.
        for chunk in trace.split(1 << 12):
            names = itemgetter(*chunk.calls)(trace.names)
            _write_names(fh, names if len(chunk.calls) > 1 else [names])


def write_count_file(table: CountTable, path) -> None:
    """`name<TAB>count` per line in table order, LF-terminated."""
    Path(path).write_bytes(
        "".join(f"{name}\t{count}\n" for name, count in table.entries).encode("ascii")
    )


_LONG_LINE = object()  # the item a trace line longer than MAX_LINE becomes


def read_trace_chunks(path, size: int | None = None) -> Iterator[RawTrace]:
    """A trace file's calls as RawTrace chunks of size calls (all in one
    chunk when size is None), the last possibly shorter; an empty file gives
    none. _coded gives each chunk its own names and checks the lines: an
    error names the first invalid line, one that is not a syscall name or is
    longer than MAX_LINE bytes; lines after the last chunk yielded are not
    checked."""
    p = Path(path)

    def lines() -> Iterator[list]:  # a piece's lines at a time
        for piece in _pieces(p, MAX_LINE + 1):
            if piece.index("\n") > MAX_LINE:  # only a piece's first line can be that long
                yield [_LONG_LINE]  # not a name: _coded fails there
                return
            yield _lines(piece)

    try:
        yield from _coded(chain.from_iterable(lines()), size)
    except SyscallNameError as e:
        why = f"longer than {MAX_LINE} bytes" if e.item is _LONG_LINE else e
        raise ValueError(f"{p}: line {e.position + 1}: {why}") from None


def read_trace_file(path) -> RawTrace:
    """Read a whole trace file as one trace (read_trace_chunks' one chunk)."""
    p = Path(path)
    chunks = list(read_trace_chunks(p))
    trace = chunks[0] if chunks else RawTrace((), array("i"))
    trace.source_meta = f"{p.name}: {len(trace.calls)} lines, 0 garbage"
    return trace


def epochs_of(trace, size: int | None) -> Iterator[RawTrace]:
    """A trace as chunks of size calls, only the last shorter. trace is a
    RawTrace, syscall names, coded a chunk at a time by _coded, or the
    RawTrace chunks of one stream, such as read_trace_chunks(path, size)
    yields; chunks are checked lazily to hold size calls each but the last.
    When size is None, a RawTrace is its own one chunk, names are coded in
    one chunk, and a stream's chunks pass through unchecked. A size below 1
    raises ValueError before trace is read."""
    limit = _chunk_limit(size)
    if isinstance(trace, RawTrace):
        yield from trace.split(size) if size is not None else [trace]
        return
    items = iter(trace)
    for first in items:  # the first item tells chunks from names
        if not isinstance(first, RawTrace):
            yield from _coded(chain([first], items), size)
            return
        last = limit
        for chunk in chain([first], items):
            if size is not None and (last < limit or len(chunk.calls) > limit):
                raise ValueError(f"chunks must hold {size} calls each, only the last fewer")
            last = len(chunk.calls)
            yield chunk
        return


def read_lines(path, encoding: str = "ascii") -> Iterator[str]:
    """A text file's lines, each with its LF (a last line may lack one); only
    LF ends a line. A line longer than MAX_LINE bytes, or a byte that does not
    decode, fails naming file and line, and no later line is read."""
    p = Path(path)
    with p.open("rb") as fh:
        for i, raw in enumerate(iter(partial(fh.readline, MAX_LINE + 1), b""), start=1):
            if len(raw) - raw.endswith(b"\n") > MAX_LINE:
                raise ValueError(f"{p}: line {i}: longer than {MAX_LINE} bytes")
            try:
                line = raw.decode(encoding)
            except UnicodeDecodeError as e:
                raise ValueError(f"{p}: line {i}: byte {raw[e.start]:#04x} is not {encoding}") from None
            yield line


def to_int(digits: str, path: Path, line: int, what: str) -> int:
    """int(digits); more digits than int() converts fail, naming file and line."""
    try:
        return int(digits)
    except ValueError:
        raise ValueError(f"{path}: line {line}: {what} has too many digits") from None


def read_count_file(path) -> CountTable:
    """Read a count file; a count is ASCII digits only."""
    p = Path(path)
    counts: dict[str, int] = {}
    for i, line in enumerate(chain.from_iterable(map(_lines, _pieces(p, MAX_LINE + 1))), start=1):
        if len(line) > MAX_LINE:
            raise ValueError(f"{p}: line {i}: longer than {MAX_LINE} bytes")
        # Non-ASCII characters fail both the name and the count check.
        parts = line.split("\t")
        if len(parts) != 2 or not SYSCALL_NAME_RE.fullmatch(parts[0]):
            raise ValueError(f"{p}: line {i}: expected `name<TAB>count`")
        name, raw = parts
        if name in counts:
            raise ValueError(f"{p}: line {i}: duplicate name {quoted(name)}")
        if not (raw.isascii() and raw.isdigit()):
            raise ValueError(f"{p}: line {i}: count {quoted(raw)} is not an integer")
        count = to_int(raw, p, i, "count")
        if count < 1:
            raise ValueError(f"{p}: line {i}: count must be positive")
        counts[name] = count
    return CountTable.from_counts(counts)
