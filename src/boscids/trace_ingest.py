"""Turn raw strace text into a clean stream of syscall names plus a count table.

The tracer writes one event per line: ordinary calls, `<unfinished ...>` /
`<... name resumed>` splits, signal notices (`--- SIG... ---`), and process
exit notices (`+++ exited ... +++`). Only the syscall names survive here;
arguments, return values, and PIDs are stripped.

Files are read in blocks of BLOCK bytes, each cut after its last line end,
so memory holds one block and the coded calls, never the whole text. Lines
follow text-mode reading: UTF-8 with undecodable bytes replaced, CR and CRLF
read as LF, and only LF ending a line. Most tracer lines are settled by one
anchored pattern, a call or unfinished line with an optional pid prefix;
every other line, and any line holding `<...`, goes whole to parse_line,
which classifies every line shape and never raises.

A line longer than MAX_LINE bytes is classified by its first MAX_LINE bytes
in a capture and fails a trace file, so memory stays bounded on input with
no line ends.

A trace is dictionary-coded, like Arrow's DictionaryArray or pandas'
Categorical: distinct names plus one int32 code per call, in an
array('i') that numpy views without a copy. RawTrace.from_names is the one
place a name sequence becomes a trace and checks each distinct name once.
This module imports no numpy, so `boscids ingest` starts without it.
"""

import re
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator

SYSCALL_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

_PID_BRACKET_RE = re.compile(r"\[pid\s+(\d+)\]\s*")
_PID_LEADING_RE = re.compile(r"(\d+)\s+")
_RESUMED_RE = re.compile(r"<\.\.\.\s+([A-Za-z_][A-Za-z0-9_]*)\s+resumed>")
_NAME_BEFORE_PAREN_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\(\Z")
# A line this matches, and that holds no `<...`, is one parse_line reads as a
# call or unfinished line of the same name: its stripped text starts with the
# pid prefix parse_line removes, then the name and the first `(`.
_CALL_RE = re.compile(r"[ \t]*(?:\[pid +[0-9]+\] *|[0-9]+ +)?([A-Za-z_][A-Za-z0-9_]*)\(")

BLOCK = 1 << 16  # bytes of a file read at a time
MAX_LINE = 1 << 20  # bytes of a line kept


@dataclass(frozen=True)
class RawTraceLine:
    """One classified tracer line. kind is call, unfinished, resumed, signal,
    exit, or garbage; name is set only for call/unfinished/resumed."""

    kind: str
    pid: int | None = None
    name: str | None = None


class SyscallNameError(ValueError):
    """An invalid syscall name, first called at index position."""

    def __init__(self, name: object, position: int):
        super().__init__(f"invalid syscall name {name!r}")
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
    def from_names(cls, seq: "RawTrace | Iterable[str | bytes]") -> "RawTrace":
        """Code a sequence of syscall names (str, or ASCII bytes), checking
        each distinct name once; any other item, an int included, raises
        SyscallNameError. A RawTrace passes through unchanged."""
        if isinstance(seq, RawTrace):
            return seq
        # A new name's code is the dict's size when first seen; map loops in C.
        code_of = defaultdict()
        code_of.default_factory = code_of.__len__
        codes = map(code_of.__getitem__, seq)
        # Lists of 4,096 codes: the array grows once per list, not per call.
        calls = array("i")
        while chunk := list(islice(codes, 1 << 12)):
            calls.fromlist(chunk)
        names = []
        for code, raw in enumerate(code_of):
            name = raw.decode("ascii", "backslashreplace") if isinstance(raw, bytes) else raw
            if not (isinstance(name, str) and SYSCALL_NAME_RE.fullmatch(name)):
                raise SyscallNameError(name, calls.index(code))
            names.append(name)
        return cls(tuple(names), calls)

    def file_chunks(self) -> Iterator[bytes]:
        """The trace file's content, a chunk of calls at a time: one name
        per call, LF-terminated."""
        lines = [f"{n}\n".encode("ascii") for n in self.names]
        # bytes.join holds an 80-byte buffer per item: 4,096 calls at the
        # default BLOCK keep that near 320 KiB.
        step = max(1, BLOCK // 16)
        for start in range(0, len(self.calls), step):
            yield b"".join(map(lines.__getitem__, self.calls[start : start + step]))


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


def _ingest_batches(batches: Iterable[list[str]], source: str) -> RawTrace:
    tally = [0, 0]
    trace = RawTrace.from_names(chain.from_iterable(_settle(b, tally) for b in batches))
    trace.source_meta = f"{source}: {tally[0]} lines, {tally[1]} garbage"
    return trace


def ingest(lines: Iterable[str], source: str = "<stream>") -> RawTrace:
    """Extract syscall names from tracer lines, in input order.

    An interrupted call is counted once, at its `unfinished` line; the
    matching `resumed` line contributes nothing. Signal/exit notices and
    garbage are skipped, with garbage tallied in source_meta.
    """
    # Lines go through in lists, as ingest_file's blocks do, so the classifier
    # loops over a list instead of resuming a generator per line.
    it = iter(lines)
    return _ingest_batches(iter(lambda: list(islice(it, 4096)), []), source)


class _LineTooLong(Exception):
    """A line longer than MAX_LINE bytes, in a file read strictly."""


def _blocks(path: Path, strict: bool = False) -> Iterator[bytes]:
    """The file's bytes, about BLOCK at a time, each piece ending at a line
    end: LF, CR or CRLF; a CRLF that two reads split keeps only its CR. A
    last line with no line end gets an LF. A line
    longer than MAX_LINE bytes raises _LineTooLong if strict; otherwise its
    first MAX_LINE bytes are kept and the rest is skipped as it streams past.

    Only the line begun in an earlier block and the unfinished tail are
    measured: with BLOCK <= MAX_LINE, a line inside one block cannot be long."""
    assert BLOCK <= MAX_LINE
    with path.open("rb") as fh:
        head: list[bytes] = []  # the kept bytes of the line begun after the last cut
        room = MAX_LINE  # bytes of that line still to keep
        after_cr = False
        while block := fh.read(BLOCK):
            if after_cr and block.startswith(b"\n"):
                block = block[1:]  # the LF of a CRLF whose CR ended the last block
            after_cr = block.endswith(b"\r")
            cut = max(block.rfind(b"\n"), block.rfind(b"\r")) + 1
            if cut:
                end = 0
                if cut > room:  # the line head began may end past MAX_LINE
                    end = min(i for i in (block.find(b"\n"), block.find(b"\r")) if i >= 0)
                if end > room:
                    if strict:
                        raise _LineTooLong
                    head += (block[:room], block[end:cut])
                else:
                    head.append(block[:cut])
                piece, head, room = b"".join(head), [], MAX_LINE
                yield piece
            if strict and len(block) - cut > room:
                raise _LineTooLong
            if rest := block[cut : cut + room]:
                head.append(rest)
                room -= len(rest)
        if head:
            head.append(b"\n")
            piece, head = b"".join(head), []
            yield piece


def _text_lines(piece: bytes) -> list[str]:
    """A block's lines, as text-mode reading gives them, without line ends."""
    if b"\r" in piece:
        piece = piece.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    lines = piece.decode("utf-8", "replace").split("\n")
    del lines[-1]  # the empty text after the block's last LF
    return lines


def ingest_file(path) -> RawTrace:
    """ingest over the lines of a tracer text file, read a block at a time."""
    p = Path(path)
    return _ingest_batches(map(_text_lines, _blocks(p)), p.name)


def count_table(trace: RawTrace | Iterable[str]) -> CountTable:
    """Count each name's calls; names no call uses are left out."""
    trace = RawTrace.from_names(trace)
    counts = Counter(trace.calls)
    return CountTable.from_counts({n: counts[c] for c, n in enumerate(trace.names) if counts[c]})


def write_trace_file(trace: RawTrace, path) -> None:
    """One syscall name per line, LF-terminated."""
    with Path(path).open("wb") as fh:
        fh.writelines(trace.file_chunks())


def write_count_file(table: CountTable, path) -> None:
    """`name<TAB>count` per line in table order, LF-terminated."""
    Path(path).write_bytes(
        "".join(f"{name}\t{count}\n" for name, count in table.entries).encode("ascii")
    )


def read_trace_file(path) -> RawTrace:
    """Read a trace file; an error names the first invalid line, a line that
    is not a syscall name or is longer than MAX_LINE bytes."""
    p = Path(path)
    too_long = False

    def pieces() -> Iterator[bytes]:
        nonlocal too_long
        try:
            yield from _blocks(p, strict=True)
        except _LineTooLong:
            too_long = True  # the lines before it are still checked

    # bytes.splitlines splits on \n, \r and \r\n, as text-mode reading does.
    lines = chain.from_iterable(map(bytes.splitlines, pieces()))
    try:
        trace = RawTrace.from_names(lines)
    except SyscallNameError as e:
        raise ValueError(f"{p}: line {e.position + 1}: {e}") from None
    if too_long:
        raise ValueError(f"{p}: line {len(trace.calls) + 1}: longer than {MAX_LINE} bytes")
    trace.source_meta = f"{p.name}: {len(trace.calls)} lines, 0 garbage"
    return trace


def read_text(path, encoding: str = "ascii") -> str:
    """A text file's contents; a byte that does not decode fails naming file and line."""
    p = Path(path)
    data = p.read_bytes()
    try:
        return data.decode(encoding)
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise ValueError(f"{p}: line {line}: byte {data[e.start]:#04x} is not {encoding}") from None


def read_count_file(path) -> CountTable:
    """Read a count file; a count is ASCII digits only."""
    p = Path(path)
    counts: dict[str, int] = {}
    for i, line in enumerate(p.read_bytes().splitlines(), start=1):
        # Escaped non-ASCII bytes fail both the name and the count check.
        parts = line.decode("ascii", "backslashreplace").split("\t")
        if len(parts) != 2 or not SYSCALL_NAME_RE.fullmatch(parts[0]):
            raise ValueError(f"{p}: line {i}: expected `name<TAB>count`")
        name, raw = parts
        if name in counts:
            raise ValueError(f"{p}: line {i}: duplicate name {name!r}")
        if not raw.isdigit():
            raise ValueError(f"{p}: line {i}: count {raw!r} is not an integer")
        count = int(raw)
        if count < 1:
            raise ValueError(f"{p}: line {i}: count must be positive")
        counts[name] = count
    return CountTable.from_counts(counts)
