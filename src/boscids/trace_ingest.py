"""Turn raw strace text into a clean stream of syscall names plus a count table.

The tracer writes one event per line: ordinary calls, `<unfinished ...>` /
`<... name resumed>` splits, signal notices (`--- SIG... ---`), and process
exit notices (`+++ exited ... +++`). Only the syscall names survive here;
arguments, return values, and PIDs are stripped.
"""

import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

SYSCALL_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

_PID_BRACKET_RE = re.compile(r"\[pid\s+(\d+)\]\s*")
_PID_LEADING_RE = re.compile(r"(\d+)\s+")
_RESUMED_RE = re.compile(r"<\.\.\.\s+([A-Za-z_][A-Za-z0-9_]*)\s+resumed>")
_NAME_BEFORE_PAREN_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\(\Z")


@dataclass(frozen=True)
class RawTraceLine:
    """One classified tracer line. kind is call, unfinished, resumed, signal,
    exit, or garbage; name is set only for call/unfinished/resumed."""

    kind: str
    pid: int | None = None
    name: str | None = None


@dataclass
class RawTrace:
    """Ordered syscall names extracted from one tracer stream."""

    calls: list[str]
    source_meta: str = ""


@dataclass(frozen=True)
class CountTable:
    """Distinct syscall names with occurrence counts, sorted by count
    descending then name ascending."""

    entries: tuple[tuple[str, int], ...]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def total(self) -> int:
        return sum(c for _, c in self.entries)

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


def ingest(lines: Iterable[str], source: str = "<stream>") -> RawTrace:
    """Extract syscall names from tracer lines, in input order.

    An interrupted call is counted once, at its `unfinished` line; the
    matching `resumed` line contributes nothing. Signal/exit notices and
    garbage are skipped, with garbage tallied in source_meta.
    """
    calls: list[str] = []
    n_lines = 0
    n_garbage = 0
    for line in lines:
        n_lines += 1
        parsed = parse_line(line)
        if parsed.kind in ("call", "unfinished"):
            calls.append(parsed.name)
        elif parsed.kind == "garbage":
            n_garbage += 1
    return RawTrace(calls, f"{source}: {n_lines} lines, {n_garbage} garbage")


def ingest_file(path) -> RawTrace:
    p = Path(path)
    with p.open("r", encoding="utf-8", errors="replace") as fh:
        return ingest(fh, source=p.name)


def count_table(trace: RawTrace | Iterable[str]) -> CountTable:
    calls = trace.calls if isinstance(trace, RawTrace) else trace
    return CountTable.from_counts(Counter(calls))


def write_trace_file(trace: RawTrace, path) -> None:
    """One syscall name per line, LF-terminated."""
    Path(path).write_bytes("".join(f"{n}\n" for n in trace.calls).encode("ascii"))


def write_count_file(table: CountTable, path) -> None:
    """`name<TAB>count` per line in table order, LF-terminated."""
    Path(path).write_bytes(
        "".join(f"{name}\t{count}\n" for name, count in table.entries).encode("ascii")
    )


def read_trace_file(path) -> RawTrace:
    p = Path(path)
    calls = []
    with p.open("r", encoding="ascii") as fh:
        for i, line in enumerate(fh, start=1):
            name = line.rstrip("\n")
            if not SYSCALL_NAME_RE.fullmatch(name):
                raise ValueError(f"{p}: line {i}: invalid syscall name {name!r}")
            calls.append(name)
    return RawTrace(calls, f"{p.name}: {len(calls)} lines, 0 garbage")


def read_count_file(path) -> CountTable:
    p = Path(path)
    counts: dict[str, int] = {}
    with p.open("r", encoding="ascii") as fh:
        for i, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 2 or not SYSCALL_NAME_RE.fullmatch(parts[0]):
                raise ValueError(f"{p}: line {i}: expected `name<TAB>count`")
            name, raw = parts
            if name in counts:
                raise ValueError(f"{p}: line {i}: duplicate name {name!r}")
            try:
                count = int(raw)
            except ValueError:
                raise ValueError(f"{p}: line {i}: count {raw!r} is not an integer") from None
            if count < 1:
                raise ValueError(f"{p}: line {i}: count must be positive")
            counts[name] = count
    return CountTable.from_counts(counts)
