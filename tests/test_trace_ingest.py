import contextlib
import gc
import io
import re
import tempfile
import tracemalloc
import zlib
from array import array
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boscids import trace_ingest as ti
from boscids.bosc import Bags, BehaviorDb, Config
from boscids.catalog import SyscallIndex
from boscids.cli import CliError, _load_config_file, main
from boscids.detector import read_report_file
from boscids.evaluator import LabeledCorpus, read_labels, write_labels
from boscids.trainer import TrainedModel, load_model, save_model
from helpers import (
    call_names,
    capped_text_lines,
    counter_table_entries,
    ingest_file_line_by_line,
    ingest_line_by_line,
    one_char_edit,
    resolve_each,
    trace_text,
)

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
    assert sum(c for _, c in ti.count_table(trace)) == len(trace.calls)


def test_trace_file_round_trip(tmp_path):
    trace = ti.RawTrace.from_names(["read", "write", "read"])
    path = tmp_path / "t.trace"
    ti.write_trace_file(trace, path)
    assert path.read_bytes() == b"read\nwrite\nread\n"
    assert call_names(ti.read_trace_file(path)) == call_names(trace)


@pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 8193])
def test_trace_file_is_one_name_a_call_across_write_blocks(tmp_path, n):
    # Blocks of 4,096 calls; 4097 and 8193 end in a block of one call.
    names = [("read", "write", "openat")[i % 3] for i in range(n)]
    path = tmp_path / "t.trace"
    ti.write_trace_file(ti.RawTrace.from_names(names), path)
    assert path.read_bytes() == "".join(f"{name}\n" for name in names).encode("ascii")


def test_count_file_round_trip(tmp_path):
    table = ti.count_table(["read", "write", "read"])
    path = tmp_path / "t.counts"
    ti.write_count_file(table, path)
    assert path.read_bytes() == b"read\t2\nwrite\t1\n"
    assert ti.read_count_file(path).entries == table.entries


def test_count_file_reads_any_line_order_and_leading_zeros(tmp_path):
    # Count files are lenient on purpose, like CR and CRLF line ends: the
    # table, and so the index built from it, is the same either way.
    path, again = tmp_path / "t.counts", tmp_path / "again.counts"
    for text, written in [(b"read\t2\nwrite\t5\n", b"write\t5\nread\t2\n"),
                          (b"read\t05\nwrite\t2\n", b"read\t5\nwrite\t2\n")]:
        path.write_bytes(text)
        ti.write_count_file(ti.read_count_file(path), again)
        assert again.read_bytes() == written


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


def test_a_long_invalid_name_is_quoted_short(tmp_path):
    # The message shows an escaped prefix and the length, never the whole name.
    path = tmp_path / "t.trace"
    path.write_bytes(b"read\n" + b"x y" * 300_000 + b"\n")
    message = f"{path}: line 2: invalid syscall name {'x y' * 13 + 'x'!r}... (900000 characters)"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$") as exc:
        ti.read_trace_file(path)
    assert len(str(exc.value).encode()) < 200
    # A name given to the library is quoted the same way, non-ASCII escaped.
    with pytest.raises(ti.SyscallNameError, match=re.escape(r"invalid syscall name 'wr\\xe9te'") + "$"):
        ti.RawTrace.from_names(["read", "wr\xe9te"])


LONG = b"x" * 1_000_000  # a line of 1 MB, within MAX_LINE


def _long_line_inputs(tmp_path):
    """By case: a reader whose message quotes user text, and the bytes of a
    file that gives it a 1 MB line to quote."""
    db = BehaviorDb()
    db.insert_many(Bags.from_counts([(1, 1, 0)]), [9])
    db.freeze()
    model = tmp_path / "fixture.model"
    save_model(TrainedModel(SyscallIndex(("read", "write")), db, Config(2, 4), [1.0]), model)
    data = model.read_bytes()
    body = data[: data.rfind(b"crc32=")]

    def sealed(old, new):
        edited = body.replace(old, new)
        return edited + f"crc32={zlib.crc32(edited):08x}\n".encode("ascii")

    return {
        "entry": (load_model, sealed(b"\n1 1 0 : 9\n", b"\n" + LONG + b" : 9\n")),
        "slot-name": (load_model, sealed(b"\nread\n", b"\n" + LONG + b"!\n")),
        "sentinel": (load_model, sealed(b"\n@other\n", b"\n@" + LONG + b"\n")),
        "trailer": (load_model, body + b"crc32=" + LONG + b"\n"),
        "label-no-lf": (read_labels, b"0\tnormal\n1\t" + LONG),
        "label-index": (read_labels, LONG + b"\tnormal\n"),
        "label": (read_labels, b"0\t" + LONG + b"\n"),
        "corpus-label": (lambda _: LabeledCorpus.from_pairs([("t", [LONG.decode()])]), b""),
        "config-line": (_load_config_file, LONG + b"\n"),
        "config-key": (_load_config_file, LONG + b"=1\n"),
        "report": (read_report_file, b"0 " + LONG + b"\ntotal epochs=1\n"),
    }


@pytest.mark.parametrize("case", ["entry", "slot-name", "sentinel", "trailer", "label-no-lf", "label-index",
                                  "label", "corpus-label", "config-line", "config-key", "report"])
def test_a_long_line_is_quoted_short(tmp_path, case):
    read, data = _long_line_inputs(tmp_path)[case]
    path = tmp_path / "long.input"
    path.write_bytes(data)
    with pytest.raises((ValueError, CliError)) as exc:
        read(path)
    message = str(exc.value)
    assert "characters)" in message, message[:300]
    assert len(message.encode()) < 300


def test_read_count_file_rejects_duplicates(tmp_path):
    path = tmp_path / "bad.counts"
    path.write_text("read\t2\nread\t1\n")
    with pytest.raises(ValueError, match="duplicate"):
        ti.read_count_file(path)


@pytest.mark.parametrize("count", [b"x", b"1.5", b"", b"1_0", b" 7", b"7\xc3\xa9", b"9" * 5000],
                         ids=["letter", "decimal", "empty", "underscore", "space", "non-ascii",
                              "5000-digits"])
def test_read_count_file_rejects_non_integer_count(tmp_path, count):
    path = tmp_path / "t.counts"
    path.write_bytes(b"read\t9\nwrite\t" + count + b"\n")
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: line 2: count")):
        ti.read_count_file(path)


_NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}", fullmatch=True)


def _write_config(values, path):
    """A config file of the values _load_config_file returns (the program
    writes none)."""
    path.write_text("".join(f"{key.replace('_', '-')}={value}\n" for key, value in values.items()))


# By format: the objects to write, the writer, the reader, and whether the
# format is strict (it reads back only as written) or lenient (CR, CRLF, a
# missing last LF, count lines in any order or with leading zeros, config
# comments and blanks all read; writing what was read reads back the same).
_LINE_FORMATS = {
    "labels": (st.lists(st.sampled_from(["normal", "malicious"]), max_size=4), write_labels, read_labels, True),
    "trace": (st.lists(_NAMES, max_size=6).map(ti.RawTrace.from_names), ti.write_trace_file,
              ti.read_trace_file, False),
    "count": (st.dictionaries(_NAMES, st.integers(1, 10**6), max_size=4).map(ti.CountTable.from_counts),
              ti.write_count_file, ti.read_count_file, False),
    "config": (st.dictionaries(st.sampled_from(["window", "epoch_size", "seed", "jobs"]),
                               st.from_regex(r"[0-9a-z.]{1,4}", fullmatch=True), max_size=4),
               _write_config, _load_config_file, False),
}


@pytest.mark.parametrize("fmt", list(_LINE_FORMATS))
@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(0, 2**16), st.sampled_from(["replace", "insert", "delete"]),
       st.sampled_from("0123456789\t\n\r =#-_anx\xe9\x0c"))
def test_an_edited_line_file_reads_by_its_format_law(tmp_path_factory, fmt, data, pos, edit, char):
    objects, write, read, strict = _LINE_FORMATS[fmt]
    d = tmp_path_factory.mktemp(fmt)
    path, again = d / "edited", d / "again"
    write(data.draw(objects), path)
    text = path.read_bytes().decode("latin-1")
    edited = one_char_edit(text, pos % (len(text) + 1), edit, char).encode("latin-1")
    path.write_bytes(edited)
    try:
        first = read(path)
    except (ValueError, CliError) as e:
        assert re.match(f"(config: )?{re.escape(str(path))}: line [0-9]+: ", str(e)), str(e)
        return
    write(first, again)
    if strict:
        assert again.read_bytes() == edited
    elif fmt == "trace":
        assert call_names(read(again)) == call_names(first)
    else:
        assert read(again) == first


def _coded_case(names, codes, slots):
    trace = ti.RawTrace(tuple(names), array("i", codes))
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
@given(coded_traces(), st.integers(1, 9))
@example(_coded_case(["read"], [], ["read"]), 1)  # empty trace, unused name
@example(_coded_case(["read", "write", "brk"], [1] * 250 + [0] * 3, ["write"]), 4)  # heavy repeats
def test_coded_trace_paths_equal_name_by_name_oracles(case, size):
    trace, names, index = case
    for t in (trace, ti.RawTrace.from_names(names)):
        assert ti.count_table(t).entries == counter_table_entries(names)
        assert index.resolve_stream(t).tolist() == resolve_each(index, names)
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "t.trace"
            ti.write_trace_file(t, path)
            assert path.read_bytes() == trace_text(names)
            assert call_names(ti.read_trace_file(path)) == names
            assert ti.count_table(ti.read_trace_chunks(path, size)).entries == counter_table_entries(names)


@settings(max_examples=80, deadline=None)
@given(coded_traces(), st.integers(1, 9))
def test_chunks_resolve_each_on_their_own(case, size):
    # Resolved last chunk first, so no chunk can lean on one resolved before.
    trace, names, index = case
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "t.trace"
        ti.write_trace_file(trace, path)
        chunks = list(ti.read_trace_chunks(path, size))
    slots = [index.resolve_stream(c).tolist() for c in reversed(chunks)]
    assert sum(reversed(slots), []) == resolve_each(index, names)


# Pieces of tracer text plus what text-mode reading treats specially: CR,
# CRLF, NEL, form feed and other non-LF line breaks, a no-break space,
# Arabic-Indic digits, and bytes that are not UTF-8.
_TRACER_PIECES = [
    b"read(", b"x_1(", b"[pid  12] ", b"[pid 7]", b"4242 ", b"4242\t", b"9", b" ", b"\t",
    b"<unfinished ...>", b"<... read resumed>", b"<...", b" resumed>", b"(", b")", b" = 0",
    b"--- SIGCHLD ---", b"+++ exited with 0 +++", b"---", b"+++", b"SIG",
    b"\n", b"\r", b"\r\n", b"\x0b", b"\x0c", b"\x1c", "\x85".encode(), "\u2028".encode(),
    "\xa0".encode(), "\u0663\u0664".encode(), "[pid \u0663] ".encode(),
    b"\x85", b"\xff", b"\xe2\x82", b"\xc3",
]
_TRACER_BYTES = st.lists(
    st.one_of(st.sampled_from(_TRACER_PIECES), st.binary(max_size=3)), max_size=40
).map(b"".join)
_TRACER_TEXT = _TRACER_BYTES.map(lambda b: b.decode("utf-8", "replace"))
# A line the one-pattern path settles: its prefix, a name, `(`, then anything.
_CALL_LINES = st.builds(
    "".join,
    st.tuples(
        st.sampled_from(["", " ", "\t ", "[pid 7] ", "[pid  12]", "4242 ", "12  "]),
        _NAMES,
        st.just("("),
        st.one_of(st.text(), _TRACER_TEXT),
    ),
)


@settings(max_examples=300, deadline=None)
@given(_TRACER_BYTES, st.integers(1, 8))
@example(b"", 1)  # the empty file
@example(b"read(0)\r\nwrite(1)\n", 8)  # a CRLF across a block boundary
@example(b"read(0)\rwrite(1)\n", 8)  # a lone CR at a block's end
@example(b"read(0)\r", 8)  # a lone CR ends the file
@example(b"[pid 1] read(\n\x85brk(\x0cx", 3)  # no final LF
def test_ingest_file_equals_line_by_line_oracle(data, block):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "t.strace"
        path.write_bytes(data)
        expected = ingest_file_line_by_line(path)
        with mock.patch.object(ti, "BLOCK", block):
            trace = ti.ingest_file(path)
    assert (call_names(trace), trace.source_meta) == expected


@settings(max_examples=100, deadline=None)
@given(_TRACER_BYTES)
@example(b"")  # the empty capture: empty trace and count files
@example(b"read(0\r\n<unfinished ...>\r[pid 7] <... read resumed>) = 0\rwrite(1)")
@example(b"brk(" + b"x" * 200 + b")\r\nmmap(0)\n" + b"y" * 100)  # lines longer than a block
def test_cli_ingest_equals_the_in_memory_path(data):
    with tempfile.TemporaryDirectory() as d:
        path, trace_out, count_out = Path(d) / "t.strace", Path(d) / "out.trace", Path(d) / "out.counts"
        path.write_bytes(data)
        for block in (1, 7, 64, ti.BLOCK):
            with mock.patch.object(ti, "BLOCK", block):
                trace = ti.ingest_file(path)
                with contextlib.redirect_stdout(io.StringIO()) as out:
                    assert main(["ingest", str(path), "--trace-out", str(trace_out),
                                 "--count-out", str(count_out)]) == 0
            table = ti.count_table(trace)
            ti.write_trace_file(trace, Path(d) / "want.trace")
            ti.write_count_file(table, Path(d) / "want.counts")
            assert trace_out.read_bytes() == (Path(d) / "want.trace").read_bytes()
            assert count_out.read_bytes() == (Path(d) / "want.counts").read_bytes()
            summary = f"{trace.source_meta}; {len(trace.calls)} calls, {len(table)} distinct\n"
            assert out.getvalue().startswith(summary)


def _block_and_max_line(top):
    """BLOCK and MAX_LINE pairs that _pieces accepts: BLOCK <= MAX_LINE."""
    return st.integers(1, 8).flatmap(lambda block: st.tuples(st.just(block), st.integers(block, top)))


@settings(max_examples=300, deadline=None)
@given(_TRACER_BYTES, _block_and_max_line(12))
@example(b"read(0)\r\nwrite(1)\n", (3, 7))  # a line of exactly MAX_LINE bytes, then a CRLF
@example(b"read(0)\r\nwrite(1)\n", (4, 4))  # a long line ends in a CRLF across blocks
def test_ingest_file_keeps_the_first_max_line_bytes_of_a_line(data, sizes):
    block, max_line = sizes
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "t.strace"
        path.write_bytes(data)
        with mock.patch.object(ti, "BLOCK", block), mock.patch.object(ti, "MAX_LINE", max_line):
            trace = ti.ingest_file(path)
    expected = ingest_line_by_line(capped_text_lines(data, max_line), path.name)
    assert (call_names(trace), trace.source_meta) == expected


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.text(), _CALL_LINES, _TRACER_TEXT)))
@example(["read(3, <... write resumed>) = 0", "4242 x-y(", "\x0cbrk(", "[pid \u0663] brk("])
def test_ingest_equals_line_by_line_oracle(lines):
    # The oracle runs parse_line on every line: it never raises.
    trace = ti.ingest(lines, source="s")
    assert (call_names(trace), trace.source_meta) == ingest_line_by_line(lines, "s")


@pytest.mark.parametrize("stem", ["mixed", "messy"])
def test_ingest_equals_line_by_line_oracle_on_fixtures(stem):
    path = FIXTURES / f"{stem}.strace"
    expected = ingest_file_line_by_line(path)
    for block in (1, 7, 64, ti.BLOCK):
        with mock.patch.object(ti, "BLOCK", block):
            trace = ti.ingest_file(path)
        assert (call_names(trace), trace.source_meta) == expected
    lines = path.read_text().splitlines() * 25  # more lines than one batch
    trace = ti.ingest(lines)
    assert (call_names(trace), trace.source_meta) == ingest_line_by_line(lines)


@settings(max_examples=100, deadline=None)
@given(coded_traces(), st.integers(1, 40))
def test_trace_file_round_trip_across_blocks(case, block):
    trace, names, _ = case
    with tempfile.TemporaryDirectory() as d, mock.patch.object(ti, "BLOCK", block):
        path = Path(d) / "t.trace"
        ti.write_trace_file(trace, path)
        assert path.read_bytes() == trace_text(names)
        back = ti.read_trace_file(path)
    assert call_names(back) == names
    assert back.source_meta == f"t.trace: {len(names)} lines, 0 garbage"


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(
        st.one_of(_NAMES.map(str.encode), st.sampled_from([b"", b"x-y", b"wr\xc3\xa9te"])),
        st.sampled_from([b"\n", b"\r", b"\r\n"]),
    )),
    st.booleans(),
    _block_and_max_line(10),
)
def test_read_trace_file_across_blocks(lines, final_line_end, sizes):
    block, max_line = sizes
    data = b"".join(name + end for name, end in lines)
    if lines and not final_line_end:
        data = data[: -len(lines[-1][1])]
    # The whole file split at once, as text-mode reading splits it. The read
    # stops at a long line, so it fails there unless a bad name comes first.
    names = data.splitlines()
    long = [i for i, n in enumerate(names) if len(n) > max_line]
    names_read = names[: long[0]] if long else names
    bad = [i for i, n in enumerate(names_read) if not re.fullmatch(rb"[A-Za-z_][A-Za-z0-9_]*", n)]
    with tempfile.TemporaryDirectory() as d, \
            mock.patch.object(ti, "BLOCK", block), mock.patch.object(ti, "MAX_LINE", max_line):
        path = Path(d) / "t.trace"
        path.write_bytes(data)
        if bad:
            with pytest.raises(ValueError, match="^" + re.escape(f"{path}: line {bad[0] + 1}: invalid")):
                ti.read_trace_file(path)
        elif long:
            message = f"{path}: line {long[0] + 1}: longer than {max_line} bytes"
            with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
                ti.read_trace_file(path)
        else:
            assert call_names(ti.read_trace_file(path)) == [n.decode() for n in names]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(
        st.one_of(_NAMES.map(str.encode), st.sampled_from([b"", b"x-y", b"wr\xc3\xa9te"])),
        st.sampled_from([b"\n", b"\r", b"\r\n"]),
    )),
    _block_and_max_line(10),
    st.integers(1, 6),
)
def test_read_trace_chunks_equal_the_whole_read(lines, sizes, size):
    # Read size calls at a time, a trace file gives the calls and names of
    # the whole read, or fails as it does, at the same line.
    block, max_line = sizes

    def chunked(path):
        joined = []
        for chunk in ti.read_trace_chunks(path, size):
            # Only the last chunk is short, and its codes are exactly
            # 0..len(names)-1, first appearing in increasing order.
            assert len(joined) % size == 0 and 0 < len(chunk.calls) <= size
            assert list(dict.fromkeys(chunk.calls)) == list(range(len(chunk.names)))
            joined += call_names(chunk)
        return ti.RawTrace.from_names(joined)

    def outcome(read, path):
        try:
            trace = read(path)
        except ValueError as e:
            return str(e)
        return trace.names, call_names(trace)

    with tempfile.TemporaryDirectory() as d, \
            mock.patch.object(ti, "BLOCK", block), mock.patch.object(ti, "MAX_LINE", max_line):
        path = Path(d) / "t.trace"
        path.write_bytes(b"".join(name + end for name, end in lines))
        assert outcome(chunked, path) == outcome(ti.read_trace_file, path)


_COUNT_LINES = st.one_of(
    st.tuples(_NAMES, st.integers(0, 10**6)).map(lambda nc: f"{nc[0]}\t{nc[1]}".encode()),
    # Not a count line: empty, a bad name, no count, a non-ASCII name or
    # count (\xb2 is a superscript two in latin-1), a third field.
    st.sampled_from([b"", b"x-y\t1", b"read\t", b"wr\xc3\xa9te\t3", b"read\t\xb2", b"read\t1\t2"]),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(_COUNT_LINES, st.sampled_from([b"\n", b"\r", b"\r\n"]))),
    st.booleans(),
    st.integers(1, 8),
)
@example([(b"read\t3", b"\r\n"), (b"write\t1", b"\n")], True, 7)  # a CRLF across a block boundary
def test_read_count_file_across_blocks(lines, final_line_end, block):
    data = b"".join(line + end for line, end in lines)
    if lines and not final_line_end:
        data = data[: -len(lines[-1][1])]
    # The whole file split at once, as text-mode reading splits it; the
    # first bad line fails, for the first of these reasons that applies.
    counts, bad = {}, None
    for i, line in enumerate(data.splitlines(), start=1):
        name, tab, count = line.partition(b"\t")
        if not (tab and re.fullmatch(rb"[A-Za-z_][A-Za-z0-9_]*", name)) or b"\t" in count:
            bad = (i, "expected `name<TAB>count`")
        elif name.decode() in counts:
            bad = (i, "duplicate name")
        elif not re.fullmatch(rb"[0-9]+", count):
            bad = (i, "is not an integer")
        elif int(count) < 1:
            bad = (i, "count must be positive")
        else:
            counts[name.decode()] = int(count)
            continue
        break
    with tempfile.TemporaryDirectory() as d, mock.patch.object(ti, "BLOCK", block):
        path = Path(d) / "t.counts"
        path.write_bytes(data)
        if bad:
            with pytest.raises(ValueError, match="^" + re.escape(f"{path}: line {bad[0]}: ") + ".*" + re.escape(bad[1])):
                ti.read_count_file(path)
        else:
            entries = ti.read_count_file(path).entries
    if not bad:
        assert entries == tuple(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))


def test_ingest_and_read_memory_is_bounded_by_the_calls(tmp_path):
    # Peaks count the coded calls (the array may hold two copies while it
    # grows) plus a few blocks, never a line of text per call.
    line = b'[pid  4242] openat(AT_FDCWD, "/usr/lib/libc.so", O_RDONLY|O_CLOEXEC) = 3\n'
    strace = tmp_path / "big.strace"
    strace.write_bytes(line * 100_000)  # 7.3 MB
    names = tmp_path / "big.trace"
    names.write_bytes(b"read\nwrite\n" * 250_000)
    for path, read in ((strace, ti.ingest_file), (names, ti.read_trace_file)):
        tracemalloc.start()
        try:
            trace = read(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * memoryview(trace.calls).nbytes + 2 * 2**20, (path.name, peak)


@pytest.mark.parametrize("n_names, bound", [(3, 2**19), (676, 2**20)])
def test_a_trace_read_in_chunks_holds_one_piece_of_lines(tmp_path, n_names, bound):
    # 40,000 two-byte names, 1,000 calls a chunk: the reader holds the line
    # strings of one BLOCK-character piece, about 5,500 of them here (a
    # 64 KiB piece peaked at 1.5 MB), and a chunk's names go with the chunk,
    # however many distinct names each chunk has.
    names = [b"%c%c" % (97 + i % 26, 97 + i // 26) for i in range(n_names)]
    path = tmp_path / "t.trace"
    path.write_bytes(b"".join(names[i % n_names] + b"\n" for i in range(40_000)))
    gc.collect()
    tracemalloc.start()
    try:
        n_calls = sum(len(chunk.calls) for chunk in ti.read_trace_chunks(path, 1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n_calls == 40_000 and peak < bound, peak


def test_a_line_with_no_end_is_read_in_bounded_memory(tmp_path):
    # 64 MiB with no line end: ingest keeps the line's first MAX_LINE bytes
    # and every other reader fails at it, each holding at most about two
    # lines of MAX_LINE bytes and a block.
    strace, names, counts = tmp_path / "long.strace", tmp_path / "long.trace", tmp_path / "long.counts"
    report, labels, config = tmp_path / "long.report", tmp_path / "long.labels", tmp_path / "long.conf"
    for path, start in ((strace, b"write(1) = 1\nread("), (names, b"write\nread"),
                        (counts, b"write\t1\nread\t"), (report, b"0 3 0 0.4 0\n"),
                        (labels, b"0\tnormal\n"), (config, b"window=2\n")):
        with path.open("wb") as fh:
            fh.write(start)
            for _ in range(64):
                fh.write(b"x" * 2**20)
    bound = 2 * ti.MAX_LINE + ti.BLOCK + 2 * 2**20
    tracemalloc.start()
    try:
        trace = ti.ingest_file(strace)
        assert tracemalloc.get_traced_memory()[1] < bound
        tracemalloc.reset_peak()
        message = f"{names}: line 2: longer than {ti.MAX_LINE} bytes"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            ti.read_trace_file(names)
        assert tracemalloc.get_traced_memory()[1] < bound
        tracemalloc.reset_peak()
        message = f"{counts}: line 2: longer than {ti.MAX_LINE} bytes"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            ti.read_count_file(counts)
        assert tracemalloc.get_traced_memory()[1] < bound
        for path, read in ((report, read_report_file), (labels, read_labels), (config, _load_config_file)):
            tracemalloc.reset_peak()
            message = f"{path}: line 2: longer than {ti.MAX_LINE} bytes"
            with pytest.raises((ValueError, CliError), match=re.escape(message) + "$"):
                read(path)
            assert tracemalloc.get_traced_memory()[1] < bound, path.name
    finally:
        tracemalloc.stop()
    assert call_names(trace) == ["write", "read"]
    assert trace.source_meta == "long.strace: 2 lines, 0 garbage"


def test_a_long_line_that_starts_a_chunk_fails_at_its_line(tmp_path):
    # The chunk size divides the lines before the long one, so the long line
    # is alone in its chunk; the full chunks before it are still yielded.
    path = tmp_path / "t.trace"
    path.write_bytes(b"read\nwrite\nbrk\nmmap\n" + b"x" * 11 + b"\nnot-a-name\n")
    with mock.patch.object(ti, "BLOCK", 8), mock.patch.object(ti, "MAX_LINE", 10):
        for size in (1, 2, 4):
            chunks = ti.read_trace_chunks(path, size)
            got = [call_names(next(chunks)) for _ in range(4 // size)]
            assert sum(got, []) == ["read", "write", "brk", "mmap"]
            message = f"{path}: line 5: longer than 10 bytes"
            with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
                next(chunks)
        # A bad name before the long line, in its chunk, comes first.
        path.write_bytes(b"read\nwr-ite\n" + b"x" * 11 + b"\n")
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: line 2: invalid syscall name")):
            list(ti.read_trace_chunks(path, 4))


def test_chunks_of_new_names_carry_only_their_own(tmp_path):
    # Every line a new name: if a chunk listed the names of earlier chunks,
    # the chunks' names would sum to about calls**2 / (2 * size).
    path = tmp_path / "t.trace"
    path.write_bytes(b"".join(b"n%d\n" % i for i in range(1000)))
    chunks = list(ti.read_trace_chunks(path, 7))
    assert sum(len(c.names) for c in chunks) == 1000
    assert sum(map(call_names, chunks), []) == [f"n{i}" for i in range(1000)]


def test_each_distinct_name_is_checked_once_per_stream(monkeypatch):
    real, checked = ti.SYSCALL_NAME_RE, []

    class Counted:
        def fullmatch(self, name):
            checked.append(name)
            return real.fullmatch(name)

    monkeypatch.setattr(ti, "SYSCALL_NAME_RE", Counted())
    names = ["read", "write", "brk"] * 10 + ["mmap"] + ["read", "brk"] * 5
    chunks = list(ti.epochs_of(iter(names), 4))
    assert len(chunks) == 11 and sum(map(call_names, chunks), []) == names
    assert checked == ["read", "write", "brk", "mmap"]


def test_epochs_of_codes_names_an_epoch_at_a_time():
    def names():  # a one-shot stream that fails past its first epoch
        yield from ["read", "write", "read"]
        raise RuntimeError("read past the first epoch")

    epochs = ti.epochs_of(names(), 3)
    assert call_names(next(epochs)) == ["read", "write", "read"]
    with pytest.raises(RuntimeError, match="past the first epoch"):
        next(epochs)


def test_epochs_of_splits_traces_and_checks_chunk_sizes():
    trace = ti.RawTrace.from_names(["a", "b", "c"] * 3 + ["a"])
    for given in (trace, call_names(trace), trace.split(3)):
        chunks = list(ti.epochs_of(given, 3))
        assert [call_names(c) for c in chunks] == [["a", "b", "c"]] * 3 + [["a"]]
    assert list(ti.epochs_of([], 3)) == []
    for sizes in ([2, 3], [3, 4], [3, 1, 1]):  # a short chunk not last, or a long one
        chunks = [ti.RawTrace(trace.names, array("i", [0] * n)) for n in sizes]
        with pytest.raises(ValueError, match="^chunks must hold 3 calls each, only the last fewer$"):
            list(ti.epochs_of(chunks, 3))
