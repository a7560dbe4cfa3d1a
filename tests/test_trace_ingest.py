import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boscids import trace_ingest as ti
from boscids.catalog import SyscallIndex
from helpers import call_names, counter_table_entries, resolve_each, trace_text

FIXTURES = Path(__file__).parent / "fixtures"


def test_parse_plain_call():
    line = 'read(3, "x"..., 1024) = 512'
    assert ti.parse_line(line) == ti.RawTraceLine("call", None, "read")


def test_parse_pid_prefixed_call():
    line = "[pid  1234] futex(0x7f..., FUTEX_WAIT) = -1 EAGAIN"
    parsed = ti.parse_line(line)
    assert parsed.kind == "call"
    assert parsed.pid == 1234
    assert parsed.name == "futex"


def test_parse_leading_integer_pid():
    parsed = ti.parse_line('4242  openat(AT_FDCWD, "/etc", O_RDONLY) = 3')
    assert parsed == ti.RawTraceLine("call", 4242, "openat")


def test_parse_resumed():
    assert ti.parse_line("<... read resumed> ) = 0") == ti.RawTraceLine("resumed", None, "read")


def test_parse_signal():
    assert ti.parse_line("--- SIGCHLD {si_signo=SIGCHLD} ---") == ti.RawTraceLine("signal")


def test_parse_exit_lines():
    assert ti.parse_line("+++ exited with 0 +++").kind == "exit"
    assert ti.parse_line("[pid  4101] +++ killed by SIGKILL +++").kind == "exit"


def test_parse_unfinished():
    parsed = ti.parse_line("read(5,  <unfinished ...>")
    assert parsed.kind == "unfinished"
    assert parsed.name == "read"


@pytest.mark.parametrize("line", ["", "strace: Process 17 attached", ")= 0", "@@@", "1234"])
def test_parse_garbage_never_raises(line):
    parsed = ti.parse_line(line)
    assert parsed.kind == "garbage"
    assert parsed.name is None


# line shapes seen in the wild, including timestamp (-t/-ttt) and timing (-T)
# decorations, forked-child prefixes, and truncation artifacts
REAL_SHAPES = [
    ('execve("/bin/ls", ["ls", "/"], 0x7ffd1f1d1e58 /* 12 vars */) = 0', "call", "execve"),
    ("brk(NULL) = 0x55cb7a1f2000", "call", "brk"),
    ('openat(AT_FDCWD, "/etc/ld.so.cache", O_RDONLY|O_CLOEXEC) = 3', "call", "openat"),
    ("ioctl(1, TIOCGWINSZ, {ws_row=24, ws_col=80}) = 0", "call", "ioctl"),
    ("rt_sigaction(SIGINT, {sa_handler=SIG_DFL}, NULL, 8) = 0", "call", "rt_sigaction"),
    ("wait4(-1, 0x7ffcb0b2a6d8, WNOHANG, NULL) = -1 ECHILD (No child processes)", "call", "wait4"),
    ("12345 close(3)                    = 0", "call", "close"),
    ('12345 15:31:56.190216 read(0, "", 1) = 0', "call", "read"),
    ('12345 1371472360.671434 write(1, "x", 1) = 1 <0.000011>', "call", "write"),
    ("[pid 12346] clone(child_stack=NULL, flags=SIGCHLD) = 12347", "call", "clone"),
    ("select(5, [4], NULL, NULL, NULL)  = 1 (in [4])", "call", "select"),
    ("accept(3,  <unfinished ...>", "unfinished", "accept"),
    ("nanosleep({tv_sec=1, tv_nsec=0},  <unfinished ... exit status 0>", "unfinished", "nanosleep"),
    ("<... accept resumed> {sa_family=AF_INET, sin_port=htons(42572)}, [16]) = 4", "resumed", "accept"),
    ("12346 <... poll resumed> )        = 1 ([{fd=10, revents=POLLIN}])", "resumed", "poll"),
    ("--- SIGSEGV {si_signo=SIGSEGV, si_code=SEGV_MAPERR, si_addr=0x0} ---", "signal", None),
    ("--- stopped by SIGTTOU ---", "signal", None),
    ("+++ exited with 1 +++", "exit", None),
    ("+++ killed by SIGKILL (core dumped) +++", "exit", None),
    ("12345 +++ exited with 0 +++", "exit", None),
    ("strace: Process 12346 attached", "garbage", None),
    ("restart_syscall(<... resuming interrupted nanosleep ...>) = 0", "call", "restart_syscall"),
    ("?? ()  = -1 ENOSYS", "garbage", None),
]


@pytest.mark.parametrize("line,kind,name", REAL_SHAPES)
def test_parse_real_world_line_shapes(line, kind, name):
    parsed = ti.parse_line(line)
    assert parsed.kind == kind
    assert parsed.name == name


def test_ingest_counts_interrupted_call_once():
    lines = [
        "open(...)=3",
        "read(3,  <unfinished ...>",
        "<... read resumed> )=1",
        "close(3)=0",
    ]
    trace = ti.ingest(lines)
    assert call_names(trace) == ["open", "read", "close"]


def test_ingest_empty_stream():
    trace = ti.ingest([])
    assert call_names(trace) == []
    assert "0 lines" in trace.source_meta


def test_ingest_reports_garbage_count():
    trace = ti.ingest(["read(3)=0", "junk", "more junk", "write(1)=1"])
    assert call_names(trace) == ["read", "write"]
    assert "2 garbage" in trace.source_meta


def test_ingest_mixed_fixture_has_195_names():
    trace = ti.ingest_file(FIXTURES / "mixed.strace")
    assert len(trace.calls) == 195
    assert "200 lines" in trace.source_meta


def test_ingest_call_count_invariant():
    # names out = call lines + unfinished lines, for arbitrary input
    raw = (FIXTURES / "messy.strace").read_text().splitlines()
    kinds = [ti.parse_line(l).kind for l in raw]
    expected = kinds.count("call") + kinds.count("unfinished")
    assert len(ti.ingest(raw).calls) == expected


def test_ingest_deterministic():
    raw = (FIXTURES / "mixed.strace").read_text().splitlines()
    a = ti.ingest(raw)
    b = ti.ingest(raw)
    assert call_names(a) == call_names(b)
    assert ti.count_table(a).entries == ti.count_table(b).entries


def test_count_table_basic():
    assert ti.count_table(["a", "b", "a"]).entries == (("a", 2), ("b", 1))


def test_count_table_empty():
    assert ti.count_table([]).entries == ()


def test_count_table_tie_breaks_by_name():
    assert ti.count_table(["x", "y", "y", "x"]).entries == (("x", 2), ("y", 2))


def test_count_table_sums_to_trace_length():
    trace = ti.ingest_file(FIXTURES / "mixed.strace")
    assert ti.count_table(trace).total() == len(trace.calls)


def test_trace_file_round_trip(tmp_path):
    trace = ti.RawTrace.from_names(["read", "write", "read"])
    path = tmp_path / "t.trace"
    ti.write_trace_file(trace, path)
    assert path.read_bytes() == b"read\nwrite\nread\n"
    assert call_names(ti.read_trace_file(path)) == call_names(trace)


def test_count_file_round_trip(tmp_path):
    table = ti.count_table(["read", "write", "read"])
    path = tmp_path / "t.counts"
    ti.write_count_file(table, path)
    assert path.read_bytes() == b"read\t2\nwrite\t1\n"
    assert ti.read_count_file(path).entries == table.entries


def test_read_trace_file_rejects_bad_names(tmp_path):
    path = tmp_path / "bad.trace"
    cases = [
        (b"read\nnot a name\n", 2, "'not a name'"),
        (b"read\nwr\xc3\xa9te\n", 2, r"'wr\\xc3\\xa9te'"),
        # two different bad names, the first one repeated after the second
        (b"read\nx-y\nwrite\n9lives\nx-y\n", 2, "'x-y'"),
        (b"read\r\nwrite\r\n\r\n", 3, "''"),
    ]
    for text, line, name in cases:
        path.write_bytes(text)
        message = f"{path}: line {line}: invalid syscall name {name}"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            ti.read_trace_file(path)


def test_read_count_file_rejects_duplicates(tmp_path):
    path = tmp_path / "bad.counts"
    path.write_text("read\t2\nread\t1\n")
    with pytest.raises(ValueError, match="duplicate"):
        ti.read_count_file(path)


@pytest.mark.parametrize("count", [b"x", b"1.5", b"", b"1_0", b" 7", b"7\xc3\xa9"],
                         ids=["letter", "decimal", "empty", "underscore", "space", "non-ascii"])
def test_read_count_file_rejects_non_integer_count(tmp_path, count):
    path = tmp_path / "t.counts"
    path.write_bytes(b"read\t9\nwrite\t" + count + b"\n")
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: line 2: count")):
        ti.read_count_file(path)


_NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}", fullmatch=True)


def _coded_case(names, codes, slots):
    trace = ti.RawTrace(tuple(names), np.array(codes, dtype=np.int32))
    return trace, [names[c] for c in codes], SyscallIndex(tuple(n for n in slots if n != "other"))


@st.composite
def coded_traces(draw):
    """A coded trace the way gen builds one (names may go unused, calls
    repeat them heavily), the name of each call, and an index."""
    names = draw(st.lists(_NAMES, min_size=1, max_size=12, unique=True))
    codes = draw(st.lists(st.integers(0, len(names) - 1), max_size=300))
    slots = draw(st.lists(st.sampled_from(names + ["unseen"]), unique=True))
    return _coded_case(names, codes, slots)


@settings(max_examples=80, deadline=None)
@given(coded_traces())
@example(_coded_case(["read"], [], ["read"]))  # empty trace, unused name
@example(_coded_case(["read", "write", "brk"], [1] * 250 + [0] * 3, ["write"]))  # heavy repeats
def test_coded_trace_paths_equal_name_by_name_oracles(case):
    trace, names, index = case
    for t in (trace, ti.RawTrace.from_names(names)):
        assert ti.count_table(t).entries == counter_table_entries(names)
        assert index.resolve_stream(t).tolist() == resolve_each(index, names)
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "t.trace"
            ti.write_trace_file(t, path)
            assert path.read_bytes() == trace_text(names)
            assert call_names(ti.read_trace_file(path)) == names
