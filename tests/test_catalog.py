from array import array

import numpy as np
import pytest

from boscids.catalog import SyscallIndex, build_index
from boscids.trace_ingest import CountTable, RawTrace, count_table


def test_build_index_drops_below_threshold():
    counts = CountTable((("read", 100), ("write", 80), ("futex", 2)))
    index = build_index(counts)  # 3 distinct names -> rarity threshold 3
    assert index.slots == ("read", "write")
    assert index.n_s == 3
    # a count equal to the threshold keeps its slot
    at_threshold = CountTable((("read", 100), ("write", 80), ("futex", 3)))
    assert build_index(at_threshold).slots == ("read", "write", "futex")


def test_build_index_empty():
    index = build_index(CountTable(()))
    assert index.slots == ()
    assert index.n_s == 1  # the OTHER slot always exists


def test_build_index_42_names_all_frequent():
    # 42 distinct names, every count >= 42 -> all retained, n_s = 43
    entries = tuple((f"sc_{i:02d}", 100 - i) for i in range(42))
    index = build_index(CountTable(entries))
    assert len(index.slots) == 42
    assert index.n_s == 43


def test_build_index_slot_order_follows_count_table():
    counts = count_table(["b"] * 5 + ["a"] * 5 + ["c"] * 7)
    index = build_index(counts)
    assert index.slots == ("c", "a", "b")


def test_resolve_known_and_unknown():
    index = build_index(CountTable((("read", 10), ("write", 5))))
    assert index.resolve("read") == 0
    assert index.resolve("write") == 1
    assert index.resolve("ptrace") == 2  # OTHER


def test_resolve_total_over_many_names():
    index = build_index(CountTable((("read", 10), ("write", 5))))
    for name in ("read", "write", "mmap", "a", "_x9", "Zz_1"):
        slot = index.resolve(name)
        assert 0 <= slot < index.n_s


def test_build_index_deterministic():
    counts = count_table(["read", "write", "read", "close"])
    a = build_index(counts)
    b = build_index(counts)
    assert a == b


def test_reserved_other_name_never_becomes_slot():
    counts = CountTable((("other", 50), ("read", 10)))
    index = build_index(counts)
    assert "other" not in index.slots
    assert index.resolve("other") == len(index.slots)


def test_index_rejects_duplicate_slots():
    with pytest.raises(ValueError):
        SyscallIndex(("read", "read"))


def test_rebuild_from_serialized_count_table_is_identical(tmp_path):
    from boscids.trace_ingest import read_count_file, write_count_file

    counts = count_table(["read"] * 9 + ["write"] * 9 + ["mmap"] * 3 + ["brk"])
    first = build_index(counts)
    path = tmp_path / "t.counts"
    write_count_file(counts, path)
    rebuilt = build_index(read_count_file(path))
    assert rebuilt == first


def test_resolve_stream_matches_scalar_resolve():
    index = build_index(CountTable((("read", 10), ("write", 5))))
    names = ["read", "mystery", "write", "write", "read"]
    assert index.resolve_stream(names).tolist() == [index.resolve(n) for n in names]


def test_resolve_stream_takes_a_trace_or_names():
    index = build_index(CountTable((("read", 10), ("write", 5))))
    names = ["write", "mystery", "read"]
    assert index.resolve_stream(names).tolist() == [1, 2, 0]
    assert index.resolve_stream(RawTrace.from_names(names)).tolist() == [1, 2, 0]
    # a generated trace's names may hold names no call uses
    gen_shaped = RawTrace(("read", "unused", "write"), array("i", [2, 0, 0]))
    slots = index.resolve_stream(gen_shaped)
    assert slots.tolist() == [1, 0, 0]
    assert slots.dtype == np.int64


def test_resolve_stream_looks_up_only_the_names_its_calls_use(monkeypatch):
    # A RawTrace.split chunk lists every name of its whole trace, so a trace
    # of many distinct names would cost each chunk a lookup per name.
    index = build_index(CountTable((("read", 10), ("write", 5))))
    looked_up = []
    resolve = SyscallIndex.resolve

    def counted(self, name):
        looked_up.append(name)
        return resolve(self, name)

    monkeypatch.setattr(SyscallIndex, "resolve", counted)
    names = tuple(f"n{i}" for i in range(1000)) + ("read", "write")
    trace = RawTrace(names, array("i", [1000, 5, 1001, 1000]))
    assert index.resolve_stream(trace).tolist() == [0, 2, 1, 0]
    assert sorted(looked_up) == ["n5", "read", "write"]


@pytest.mark.parametrize("slots, message", [
    (("read", "read"), "slot names must be unique"),
    (("read", "other"), "'other' is reserved for the fallback slot"),
])
def test_bad_slot_names_are_refused(slots, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        SyscallIndex(slots)


def test_resolve_stream_rejects_int_streams():
    index = build_index(CountTable((("read", 10),)))
    for stream in ([0, 2], np.array([1, 1], dtype=np.int32), [b"read"]):
        with pytest.raises(ValueError, match="invalid syscall name"):
            index.resolve_stream(stream)
