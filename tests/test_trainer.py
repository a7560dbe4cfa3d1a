import contextlib
import functools
import gc
import itertools
import logging
import math
import os
import random
import re
import tempfile
import threading
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boscids.bosc import CHUNK, MAX_WINDOW, Bags, BehaviorDb, Config, FrozenDbError, unique_window_bags
from boscids.catalog import SyscallIndex
from boscids.trace_ingest import BLOCK, MAX_LINE, RawTrace, count_table
from boscids.trainer import (
    ModelFormatError,
    TrainedModel,
    change_cosine,
    cosine_similarity,
    load_model,
    save_model,
    train,
)
from helpers import (
    brute_force_bag,
    entry_line,
    insert_counts,
    one_char_edit,
    parse_entry_line,
    parse_entry_section,
    reference_cosine,
    whole_file_checks,
)

logging.getLogger("boscids").setLevel(logging.ERROR)


def cv(values):
    return np.array(values, dtype=np.int64)


def test_cosine_identical_vectors():
    assert cosine_similarity(cv([3]), cv([3])) == 1.0


def test_cosine_zero_extension_hand_case():
    # [1,1] against [2] zero-extended to [2,0]: (1*2) / (sqrt(2)*2) = 1/sqrt(2)
    got = cosine_similarity(cv([1, 1]), cv([2]))
    assert abs(got - 1.0 / math.sqrt(2.0)) < 1e-9


def test_cosine_both_zero_convention():
    assert cosine_similarity(cv([0, 0]), cv([0])) == 1.0


def test_cosine_one_zero_convention():
    assert cosine_similarity(cv([1, 0]), cv([0])) == 0.0


def test_cosine_rejects_longer_earlier_vector():
    with pytest.raises(ValueError):
        cosine_similarity(cv([1]), cv([1, 2]))


def test_cosine_matches_reference_after_extension():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 12)
        m = rng.randint(1, n)
        a = [rng.randint(0, 9) for _ in range(n)]
        b = [rng.randint(0, 9) for _ in range(m)]
        padded = b + [0] * (n - m)
        assert abs(cosine_similarity(cv(a), cv(b)) - reference_cosine(a, padded)) < 1e-9


def test_cosine_scale_invariance():
    rng = random.Random(6)
    for _ in range(100):
        n = rng.randint(1, 10)
        a = np.array([rng.randint(0, 20) for _ in range(n)], dtype=np.float64)
        b = np.array([rng.randint(0, 20) for _ in range(n)], dtype=np.float64)
        alpha = rng.uniform(0.1, 50.0)
        assert abs(cosine_similarity(alpha * a, b) - cosine_similarity(a, b)) < 1e-9


_BAGS_3_OF_4 = [brute_force_bag(c, 4) for c in itertools.combinations_with_replacement(range(4), 3)]  # 20 bags


@st.composite
def epoch_changes(draw):
    """Epochs as (distinct bags, multiplicities), as unique_window_bags gives
    them, drawn from 20 bags of w=3 over n_s=4."""
    epochs = draw(st.lists(st.lists(st.sampled_from(_BAGS_3_OF_4), min_size=1, max_size=12, unique=True),
                           min_size=2, max_size=8))
    return [(bags, draw(st.lists(st.integers(1, 10**6), min_size=len(bags), max_size=len(bags))))
            for bags in epochs]


@settings(max_examples=200, deadline=None)
@given(epoch_changes())
@example([(_BAGS_3_OF_4[:5], [3, 1, 4, 1, 5]), (_BAGS_3_OF_4[3:1:-1], [9, 2])])  # no new bag
@example([(_BAGS_3_OF_4[:4], [1, 2, 3, 4]), (_BAGS_3_OF_4[4:9], [5, 6, 7, 8, 9])])  # disjoint bags
def test_sparse_cosine_equals_the_dense_one_exactly(epochs):
    dense_db, sparse_db = BehaviorDb(), BehaviorDb()
    prev = None
    for bags, mult in epochs:
        dense = dense_db.insert_many(Bags.from_counts(bags), mult)
        sparse = sparse_db.add(Bags.from_counts(bags), mult), np.array(mult, dtype=np.int64)
        if prev is not None:
            assert change_cosine(sparse, prev[1]) == cosine_similarity(dense, prev[0])
        prev = dense, sparse


def ab_trace(epochs=4):
    return RawTrace.from_names(["a", "b"] * (2 * epochs))


def test_train_ab_micro_fixture_stops_after_epoch_3():
    cfg = Config(window_size=2, epoch_size=4, train_threshold=0.99)
    model = train(ab_trace(4), config=cfg)
    assert model.converged
    assert model.epochs_trained == 3
    assert len(model.db) == 1
    assert model.history == [1.0, 1.0]  # epochs 2 and 3


def test_train_without_a_config_uses_the_default_config():
    rng = random.Random(11)
    names = [rng.choice("abcdefgh") for _ in range(3 * Config().epoch_size)]
    default, explicit = train(names), train(names, config=Config())
    assert default.config == explicit.config == Config()
    assert default.history == explicit.history
    assert list(default.db.items()) == list(explicit.db.items())


def test_train_history_length_invariant():
    cfg = Config(window_size=2, epoch_size=4, train_threshold=0.99)
    model = train(ab_trace(5), config=cfg)
    assert len(model.history) == model.epochs_trained - 1


def test_train_needs_two_full_epochs():
    cfg = Config(window_size=2, epoch_size=4)
    with pytest.raises(ValueError, match="2 full epochs"):
        train(RawTrace.from_names(["a", "b", "a", "b", "a"]), config=cfg)


def non_converged_fixture():
    # threshold 1.0 with a noisy source never sees two exact-1.0 epochs
    rng = random.Random(8)
    names = [rng.choice("abcdefgh") for _ in range(400)]
    return train(RawTrace.from_names(names), config=Config(window_size=3, epoch_size=50, train_threshold=1.0))


def test_train_non_convergence_flagged_not_fatal():
    model = non_converged_fixture()
    assert not model.converged
    assert model.epochs_trained == 8
    with pytest.raises(FrozenDbError):
        insert_counts(model.db, [(1, 1, 1, 0, 0, 0, 0, 0, 0)])


def test_train_history_values_in_unit_interval():
    rng = random.Random(9)
    names = [rng.choice("abcd") for _ in range(600)]
    model = train(RawTrace.from_names(names), config=Config(window_size=3, epoch_size=60, train_threshold=1.0))
    assert all(0.0 <= cos <= 1.0 for cos in model.history)


def test_train_db_is_frozen_and_counts_add_up():
    cfg = Config(window_size=2, epoch_size=4, train_threshold=0.99)
    model = train(ab_trace(4), config=cfg)
    windows_per_epoch = 4 - 2 + 1
    assert sum(freq for _, freq in model.db.items()) == windows_per_epoch * model.epochs_trained


def test_train_rejects_int_stream():
    cfg = Config(window_size=2, epoch_size=4)
    slots = np.array([0, 1] * 8, dtype=np.int64)
    for counts in (None, count_table(["a", "b"] * 8)):
        with pytest.raises(ValueError, match="invalid syscall name"):
            train(slots, counts=counts, config=cfg)


def test_train_on_chunks_without_counts_fails_with_a_short_message():
    # Counting would read the stream a second time: train asks for counts,
    # having pulled only the chunk that shows it is a stream.
    chunks = RawTrace.from_names(["a", "b"] * 4000).split(4)
    with pytest.raises(ValueError, match="^training on a stream of chunks needs its counts$"):
        train(chunks, config=Config(window_size=2, epoch_size=4))
    assert len(list(chunks)) == 1999


def test_train_discards_trailing_partial_epoch():
    cfg = Config(window_size=2, epoch_size=4, train_threshold=0.99)
    full = train(ab_trace(4), config=cfg)
    ragged = train(RawTrace.from_names(["a", "b"] * 8 + ["a"]), config=cfg)
    assert dict(full.db.items()) == dict(ragged.db.items())


def test_raising_threshold_never_trains_fewer_epochs():
    rng = random.Random(10)
    names = []
    # mildly drifting source so mid thresholds converge at different times
    for block in range(20):
        vocab = "abcdef"[: 3 + (block % 3)]
        names.extend(rng.choice(vocab) for _ in range(100))
    trace = RawTrace.from_names(names)
    prev_epochs = 0
    for tt in (0.90, 0.95, 0.99, 0.995):
        model = train(trace, config=Config(window_size=4, epoch_size=100, train_threshold=tt))
        assert model.epochs_trained >= prev_epochs
        prev_epochs = model.epochs_trained


def model_fixture():
    cfg = Config(window_size=2, epoch_size=4, train_threshold=0.99)
    return train(ab_trace(4), config=cfg)


def test_save_load_round_trip_identity(tmp_path):
    model = model_fixture()
    p1 = tmp_path / "m1.model"
    p2 = tmp_path / "m2.model"
    save_model(model, p1)
    loaded = load_model(p1)
    save_model(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert loaded.index.slots == model.index.slots
    assert list(loaded.db.items()) == list(model.db.items())  # same order too
    assert loaded.config == model.config
    assert loaded.epochs_trained == model.epochs_trained
    assert loaded.converged == model.converged
    assert [round(cos, 9) for cos in loaded.history] == [round(cos, 9) for cos in model.history]


@pytest.mark.parametrize("fixture, converged", [(model_fixture, True), (non_converged_fixture, False)])
def test_loaded_model_keeps_stopping_state(tmp_path, fixture, converged):
    model = fixture()
    p = tmp_path / "m.model"
    save_model(model, p)
    loaded = load_model(p)
    assert model.converged is converged
    assert loaded.converged == model.converged
    assert loaded.epochs_trained == model.epochs_trained == len(model.history) + 1


def test_save_is_deterministic(tmp_path):
    model = model_fixture()
    p1 = tmp_path / "a.model"
    p2 = tmp_path / "b.model"
    save_model(model, p1)
    save_model(model, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_empty_file_is_version_error(tmp_path):
    p = tmp_path / "empty.model"
    p.write_bytes(b"")
    with pytest.raises(ModelFormatError) as exc:
        load_model(p)
    assert exc.value.section == "version"


def test_load_rejects_wrong_version(tmp_path):
    p = tmp_path / "v2.model"
    p.write_bytes(b"boscids-model v2\n")
    with pytest.raises(ModelFormatError) as exc:
        load_model(p)
    assert exc.value.section == "version"


def test_load_detects_tampering(tmp_path):
    model = model_fixture()
    p = tmp_path / "m.model"
    save_model(model, p)
    tampered = p.read_bytes().replace(b"entries=1", b"entries=9")
    p.write_bytes(tampered)
    with pytest.raises(ModelFormatError) as exc:
        load_model(p)
    assert exc.value.section == "checksum"


@pytest.mark.parametrize(
    "spelling, last",
    [("crc32={:08X}\n", None), ("crc32={:#010x}  \n\n", "\n"), ("crc32={:08x}", None),
     ("crc32=+00{:08x}\t", None), ("crc32={:08x}\nextra\n", "extra\n")],
    ids=["upper-case", "0x-and-blanks", "no-final-lf", "sign-and-tab", "line-after-trailer"],
)
def test_load_accepts_only_the_trailer_save_writes(tmp_path, spelling, last):
    # Each spells the right crc32, and the first four were accepted once;
    # saving the loaded model then gave other bytes. The error quotes the
    # file's last line (None: the whole respelt trailer).
    p = tmp_path / "m.model"
    save_model(model_fixture(), p)
    body = p.read_bytes()[: p.read_bytes().rfind(b"crc32=")]
    trailer = spelling.format(zlib.crc32(body))
    p.write_bytes(body + trailer.encode("ascii"))
    with pytest.raises(ModelFormatError) as exc:
        load_model(p)
    assert str(exc.value) == f"checksum: last line {last or trailer!r} is not the crc32 trailer"


def test_load_detects_truncation(tmp_path):
    model = model_fixture()
    p = tmp_path / "m.model"
    save_model(model, p)
    data = p.read_bytes()
    p.write_bytes(data[: len(data) // 2])
    with pytest.raises(ModelFormatError) as exc:
        load_model(p)
    # The cut leaves "e" of "entries=1" as the last line.
    assert (exc.value.section, str(exc.value)) == ("checksum", "checksum: last line 'e' is not the crc32 trailer")


def reseal(path, old: bytes, new: bytes):
    """Edit a saved model's body and recompute its crc32 trailer."""
    data = path.read_bytes()
    body = data[: data.rfind(b"crc32=")].replace(old, new)
    path.write_bytes(body + f"crc32={zlib.crc32(body) & 0xFFFFFFFF:08x}\n".encode("ascii"))


# The fixture's one entry is "1 1 0 : 9" (w=2, ns=3). Each case gives the
# entry named and the line quoted.
@pytest.mark.parametrize(
    "old, new, entry, shown",
    [
        (b"\n1 1 0 : 9\n", b"\n1 1 0 9\n", 0, "'1 1 0 9'"),
        (b"\n1 1 0 : 9\n", b"\n1 x 0 : 9\n", 0, "'1 x 0 : 9'"),
        (b"\n1 1 0 : 9\n", b"\n1 1 0 0 : 9\n", 0, "'1 1 0 0 : 9'"),
        (b"\n1 1 0 : 9\n", b"\n2 1 -1 : 9\n", 0, "'2 1 -1 : 9'"),
        (b"\n1 1 0 : 9\n", b"\n1 1 0 : 0\n", 0, "'1 1 0 : 0'"),
        (b"\n1 1 0 : 9\n", b"\n5 0 0 : 9\n", 0, "'5 0 0 : 9'"),
        (b"\n1 1 0 : 9\n", b"\n1 1 0 : 9223372036854775808\n", 0, "'1 1 0 : 9223372036854775808'"),
        # Sums that wrap around in 64 bits, to w itself in the first.
        (b"\n1 1 0 : 9\n", b"\n9223372036854775553 9223372036854775553 512 : 9\n", 0,
         "'9223372036854775553 9223372036854775553 512 : 9'"),
        (b"\n1 1 0 : 9\n", b"\n18446744073709551617 1 0 : 9\n", 0, "'18446744073709551617 1 0 : 9'"),
        (b"entries=1\n1 1 0 : 9\n", b"entries=2\n1 1 0 : 9\n0 2 0 : 0\n", 1, "'0 2 0 : 0'"),
        # Accepted before entries had to be the text save_model writes.
        (b"\n1 1 0 : 9\n", b"\n01 1 0 : 9\n", 0, "'01 1 0 : 9'"),
        (b"\n1 1 0 : 9\n", b"\n+1 1 0 : 9\n", 0, "'+1 1 0 : 9'"),
        (b"\n1 1 0 : 9\n", b"\n1 1 0 : 1_0\n", 0, "'1 1 0 : 1_0'"),
        (b"\n1 1 0 : 9\n", b"\n1  1 0 : 9\n", 0, "'1  1 0 : 9'"),
        (b"\n1 1 0 : 9\n", b"\n1 1 0 : " + b"9" * 5000 + b"\n", 0,
         "'1 1 0 : " + "9" * 112 + "'... (5008 characters)"),
    ],
    ids=["missing-colon", "unparseable", "count", "negative", "freq-0", "sum", "freq-beyond-int64",
         "sum-wraps-to-w", "count-beyond-uint64",
         "second-entry", "leading-zero", "plus-sign", "underscore", "double-space",
         "freq-5000-digits"],
)
def test_load_rejects_bad_entry(tmp_path, old, new, entry, shown):
    p = tmp_path / "m.model"
    save_model(model_fixture(), p)
    reseal(p, old, new)
    with pytest.raises(ModelFormatError) as exc:
        load_model(p)
    assert exc.value.section == "entries"
    assert str(exc.value) == (f"entries: entry {entry}: {shown} is not 3 counts summing to 2, "
                              "' : ' and a frequency from 1 to 9223372036854775807")


# Each was accepted before a loaded model had to save back to the same bytes.
@pytest.mark.parametrize(
    "old, new, section",
    [
        (b"\nw=2 S=4 ", b"\nw=02 S=4 ", "params"),
        (b" Tt=0.99 ", b" Tt=0.990 ", "params"),
        (b"\nns=3 retained=2\n", b"\nns=03 retained=2\n", "index"),
        (b"\nentries=1\n", b"\nentries=01\n", "entries"),
        (b"\nhistory=2\n", b"\nhistory=02\n", "history"),
        (b"\n2 1.000000000\n", b"\n2 1.0000000000\n", "history"),
        (b"\n2 1.000000000\n", b"\n2  1.000000000\n", "history"),
        (b"\nw=2 S=4 ", b"\nw=" + b"2" * 5000 + b" S=4 ", "params"),
        (b"\nentries=1\n", b"\nentries=" + b"9" * 5000 + b"\n", "entries"),
        (b"\nhistory=2\n", b"\nhistory=" + b"9" * 5000 + b"\n", "history"),
    ],
    ids=["w-leading-zero", "Tt-trailing-zero", "ns-leading-zero", "entries-leading-zero",
         "history-leading-zero", "cos-tenth-digit", "record-double-space",
         "w-5000-digits", "entries-5000-digits", "history-5000-digits"],
)
def test_load_rejects_non_canonical_header(tmp_path, old, new, section):
    p = tmp_path / "m.model"
    save_model(model_fixture(), p)
    reseal(p, old, new)
    with pytest.raises(ModelFormatError) as exc:
        load_model(p)
    assert exc.value.section == section


def model_of(n_s, w, rows, freqs):
    """A model over slots s0, s1, ... whose db holds rows with freqs, in order."""
    db = BehaviorDb()
    db.insert_many(Bags.from_counts(rows), np.array(freqs, dtype=np.int64))
    db.freeze()
    index = SyscallIndex(tuple(f"s{i}" for i in range(n_s - 1)))
    return TrainedModel(index, db, Config(window_size=w, epoch_size=max(w, 50)), [0.5, 1.0])


@st.composite
def entry_tables(draw, max_freq=2**63 - 1):
    """(n_s, w, distinct bags in insertion order, their frequencies)."""
    n_s = draw(st.integers(1, 8))
    w = draw(st.integers(1, 14))
    windows = draw(st.lists(st.lists(st.integers(0, n_s - 1), min_size=w, max_size=w),
                            min_size=1, max_size=30))
    rows = list(dict.fromkeys(brute_force_bag(win, n_s) for win in windows))
    freqs = draw(st.lists(st.integers(1, max_freq), min_size=len(rows), max_size=len(rows)))
    return n_s, w, rows, freqs


def _many_entries(n_s=12, w=10, n=CHUNK + 5):
    rng = np.random.default_rng(41)
    drawn = rng.multinomial(w, [1 / n_s] * n_s, size=3 * n).tolist()
    rows = list(dict.fromkeys(map(tuple, drawn)))[:n]
    return n_s, w, rows, rng.integers(1, 10**12, size=len(rows)).tolist()


def entry_lines(data: bytes):
    """The body lines after a model file's `entries=` line, and its entry count."""
    lines = data[: data.rfind(b"crc32=")].decode("ascii").split("\n")
    at = next(i for i, line in enumerate(lines) if line.startswith("entries="))
    return lines[at + 1 :], int(lines[at].removeprefix("entries="))


@settings(max_examples=60, deadline=None)
@given(entry_tables())
@example((1, 12, [(12,)], [7]))  # one slot: a count of 12 under a single-syscall window
@example((3, 10, [(10, 0, 0), (0, 3, 7)], [123456789, 1]))
@example(_many_entries())  # more than one chunk
def test_model_entries_equal_line_by_line_oracles(tmp_path_factory, case):
    n_s, w, rows, freqs = case
    p = tmp_path_factory.mktemp("m") / "m.model"
    save_model(model_of(n_s, w, rows, freqs), p)
    data = p.read_bytes()
    lines, n_entries = entry_lines(data)
    assert n_entries == len(rows)
    assert lines[:n_entries] == [entry_line(bag, freq) for bag, freq in zip(rows, freqs)]
    loaded = load_model(p)
    assert list(loaded.db.items()) == parse_entry_section(lines, n_entries, n_s, w)
    save_model(loaded, p)
    assert p.read_bytes() == data


def edited_entry(data, line, n_s, w):
    """line after one edit drawn from data: a character replaced, inserted or
    deleted, a count or the frequency near where 64 bits wrap or saturate, two
    counts grown by 2**64 in all, or a frequency at or past its bounds."""
    edit = data.draw(st.sampled_from(["replace", "insert", "delete", "big", "freq"] + ["wrap"] * (n_s > 1)))
    tokens = line.split(" ")  # ns counts, ":", the frequency
    if edit == "big":  # a count or the frequency near where 64 bits wrap or saturate
        k = data.draw(st.sampled_from([*range(n_s), n_s + 1]))
        tokens[k] = str(data.draw(st.sampled_from([2**63, 2**64])) + data.draw(st.integers(-2 * w, 2 * w)))
    elif edit == "wrap":  # two counts grown by 2**64 in all, so a 64-bit sum is still w
        a, b = data.draw(st.lists(st.integers(0, n_s - 1), min_size=2, max_size=2, unique=True))
        d = data.draw(st.integers(-w, w))
        tokens[a] = str(int(tokens[a]) + 2**63 + d)
        tokens[b] = str(int(tokens[b]) + 2**63 - d)
    elif edit == "freq":  # the int64 bounds, and 20 digits
        tokens[-1] = str(data.draw(st.sampled_from([0, 1, 2**63 - 1, 2**63]) | st.integers(10**19, 10**20 - 1)))
    else:
        k = data.draw(st.integers(0, len(line)))
        char = data.draw(st.sampled_from("0123456789 :-+_x\n"))
        return one_char_edit(line, k, edit, char)
    return " ".join(tokens)


def reseal_entries(p, edits):
    """Replace the entry lines of saved model p, edits mapping entry number to
    its new text, and recompute the crc32 trailer."""
    data = p.read_bytes()
    lines = data[: data.rfind(b"crc32=")].decode("ascii").split("\n")
    at = next(i for i, line in enumerate(lines) if line.startswith("entries=")) + 1
    for j, text in edits.items():
        lines[at + j] = text
    p.write_bytes(_sealed("\n".join(lines).encode("ascii")))


def load_as_the_oracle_does(p, n_s, w, split):
    """Assert load_model(p) gives the line-by-line oracle's entries, or its
    error; a split line (an LF put into an entry) leaves its rest to fail as
    the history header. Returns the oracle's error, or None."""
    lines, n_entries = entry_lines(p.read_bytes())
    try:
        expected = parse_entry_section(lines, n_entries, n_s, w)
    except ValueError as e:
        with pytest.raises(ModelFormatError) as exc:
            load_model(p)
        assert str(exc.value) == f"entries: {e}"
        return str(e)
    if split:
        with pytest.raises(ModelFormatError, match="^history: bad history header"):
            load_model(p)
    else:
        assert list(load_model(p).db.items()) == expected
    return None


@settings(max_examples=200, deadline=None)
@given(entry_tables(max_freq=10**15), st.data())
def test_load_rejects_an_edited_entry_as_the_oracle_does(tmp_path_factory, case, data):
    n_s, w, rows, freqs = case
    p = tmp_path_factory.mktemp("m") / "m.model"
    save_model(model_of(n_s, w, rows, freqs), p)
    j = data.draw(st.integers(0, len(rows) - 1))
    edited = edited_entry(data, entry_line(rows[j], freqs[j]), n_s, w)
    reseal_entries(p, {j: edited})
    load_as_the_oracle_does(p, n_s, w, "\n" in edited)


@st.composite
def wide_count_tables(draw):
    """(n_s, w, distinct bags, frequencies): 1 to 3 slots, w up to 1,000, so
    counts of 1 to 4 digits, and frequencies at the int64 bounds or anywhere
    between."""
    n_s = draw(st.integers(1, 3))
    w = draw(st.integers(1, 1000))
    cuts = st.lists(st.integers(0, w), min_size=n_s - 1, max_size=n_s - 1).map(sorted)
    rows = list(dict.fromkeys(
        tuple(b - a for a, b in zip([0, *c], [*c, w])) for c in draw(st.lists(cuts, min_size=1, max_size=20))))
    freq = st.sampled_from([1, 2**63 - 1]) | st.integers(1, 2**63 - 1)
    freqs = draw(st.lists(freq, min_size=len(rows), max_size=len(rows)))
    return n_s, w, rows, freqs


@settings(max_examples=150, deadline=None)
@given(wide_count_tables(), st.data())
@example((1, 1000, [(1000,)], [2**63 - 1]), None)
@example((3, 999, [(999, 0, 0), (0, 9, 990), (100, 899, 0)], [1, 2**63 - 1, 10**18]), None)
def test_load_reads_counts_of_many_digits_as_the_oracle_does(tmp_path_factory, case, data):
    # Saved as is, the entries load back to the same bytes; one edited entry
    # loads, or fails, as the oracle says.
    n_s, w, rows, freqs = case
    p = tmp_path_factory.mktemp("m") / "m.model"
    save_model(model_of(n_s, w, rows, freqs), p)
    saved = p.read_bytes()
    assert list(load_model(p).db.items()) == list(zip(rows, freqs))
    save_model(load_model(p), p)
    assert p.read_bytes() == saved
    if data is None:
        return
    j = data.draw(st.integers(0, len(rows) - 1))
    edited = edited_entry(data, entry_line(rows[j], freqs[j]), n_s, w)
    reseal_entries(p, {j: edited})
    load_as_the_oracle_does(p, n_s, w, "\n" in edited)


@settings(max_examples=60, deadline=None)
@given(st.integers(2 * CHUNK + 1, 3 * CHUNK), st.data())
def test_load_names_the_first_of_two_edited_entries_across_chunks(tmp_path_factory, n, data):
    # More than two chunks, one entry edited anywhere and a second one after
    # it: the earlier edit is the one named, if it is bad on its own.
    n_s, w, rows, freqs = _many_entries(n=n)
    p = tmp_path_factory.mktemp("m") / "m.model"
    save_model(model_of(n_s, w, rows, freqs), p)
    j = data.draw(st.integers(0, n - 2))
    j2 = data.draw(st.integers(j + 1, n - 1))
    first, second = (edited_entry(data, entry_line(rows[i], freqs[i]), n_s, w) for i in (j, j2))
    reseal_entries(p, {j: first, j2: second})
    error = load_as_the_oracle_does(p, n_s, w, "\n" in first + second)
    try:
        parse_entry_line(first, n_s, w)
    except ValueError as e:
        if "\n" not in first:
            assert error == f"entry {j}: {e}"


@settings(max_examples=300, deadline=None)
@given(entry_tables(max_freq=10**6), st.integers(0, 2**16), st.sampled_from(["replace", "insert", "delete"]),
       st.sampled_from("0123456789 .e+-=_\n\rs@o\xe9"))
@example((3, 2, [(2, 0, 0)], [5]), 65, "replace", "0")  # slot "s1" becomes a second "s0"
def test_load_reads_an_edited_head_or_tail_only_as_written(tmp_path_factory, case, pos, edit, char):
    # One edit to the header, index, history or trailer, and a new crc32 for
    # any edit before the trailer: load_model fails with ModelFormatError or
    # returns a model that saves back to exactly the edited bytes.
    p = tmp_path_factory.mktemp("m") / "m.model"
    save_model(model_of(*case), p)
    text = p.read_bytes().decode("ascii")
    entries = text.index("\n", text.index("\nentries=") + 1) + 1  # the first entry line
    trailer = text.rindex("crc32=")
    places = [*range(entries), *range(text.index("\nhistory=") + 1, len(text) + 1)]
    k = places[pos % len(places)]
    edited = one_char_edit(text, k, edit, char)
    if k < trailer:
        body = edited[: len(edited) - (len(text) - trailer)].encode("latin-1")
        edited = body.decode("latin-1") + f"crc32={zlib.crc32(body):08x}\n"
    p.write_bytes(edited.encode("latin-1"))
    try:
        loaded = load_model(p)
    except ModelFormatError:
        return
    save_model(loaded, p)
    assert p.read_bytes() == edited.encode("latin-1")


def test_load_numbers_entries_across_chunks(tmp_path):
    n_s, w, rows, freqs = _many_entries()
    p = tmp_path / "m.model"
    save_model(model_of(n_s, w, rows, freqs), p)
    j = CHUNK + 3
    line = entry_line(rows[j], freqs[j])
    reseal(p, f"\n{line}\n".encode("ascii"), f"\n0{line}\n".encode("ascii"))  # a leading zero
    with pytest.raises(ModelFormatError, match=f"^entries: entry {j}: '0{line}' is not {n_s} counts summing to {w},"):
        load_model(p)


def test_load_rejects_duplicate_entry(tmp_path):
    p = tmp_path / "m.model"
    save_model(model_fixture(), p)
    reseal(p, b"entries=1\n1 1 0 : ", b"entries=2\n1 1 0 : 1\n1 1 0 : ")
    with pytest.raises(ModelFormatError, match="entry 1: duplicate") as exc:
        load_model(p)
    assert exc.value.section == "entries"
    # Entry 1,500 repeats entry 3, in a later chunk.
    n_s, w, rows, freqs = _many_entries(n=1600)
    save_model(model_of(n_s, w, rows, freqs), p)
    reseal(p, f"\n{entry_line(rows[1500], freqs[1500])}\n".encode("ascii"),
           f"\n{entry_line(rows[3], freqs[1500])}\n".encode("ascii"))
    with pytest.raises(ModelFormatError, match="^entries: entry 1500: duplicate bag$"):
        load_model(p)
    # Entries 1,200 and 1,500 repeat entry 3, and entry 1,300 entry 40: the
    # error names the first entry that repeats an earlier one.
    save_model(model_of(n_s, w, rows, freqs), p)
    reseal_entries(p, {1200: entry_line(rows[3], freqs[1200]), 1300: entry_line(rows[40], freqs[1300]),
                       1500: entry_line(rows[3], freqs[1500])})
    with pytest.raises(ModelFormatError, match="^entries: entry 1200: duplicate bag$"):
        load_model(p)


def test_load_rejects_inflated_entry_count(tmp_path):
    p = tmp_path / "m.model"
    save_model(model_fixture(), p)
    reseal(p, b"entries=1\n", b"entries=999999999999\n")
    with pytest.raises(ModelFormatError) as exc:
        load_model(p)
    assert exc.value.section == "entries"


def test_load_rejects_params_that_fail_config(tmp_path):
    p = tmp_path / "m.model"
    for old, new, needle in ((b"\nw=2 ", b"\nw=0 ", "window_size"),
                             (b" Tt=0.99 ", b" Tt=1.5 ", "train_threshold"),
                             (b"\nw=2 S=4 ", b"\nw=50000 S=100000 ", "2500050000 window slots")):
        save_model(model_fixture(), p)
        reseal(p, old, new)
        with pytest.raises(ModelFormatError, match=needle) as exc:
            load_model(p)
        assert exc.value.section == "params"


def test_load_rejects_a_window_beyond_the_bound_in_little_memory(tmp_path):
    # A crc-valid model whose one entry is a window of 10**9 calls, a bag key
    # of 4 GB: it fails at its parameter line, before an entry is read.
    p = tmp_path / "m.model"
    save_model(model_fixture(), p)  # w=2, S=4, the one entry "1 1 0 : 9"
    reseal(p, b"\nw=2 S=4 ", b"\nw=1000000000 S=1000000000 ")
    reseal(p, b"\n1 1 0 : 9\n", b"\n1000000000 0 0 : 1\n")
    gc.collect()
    tracemalloc.start()
    try:
        with pytest.raises(ModelFormatError, match=f"^params: window_size must be at most {MAX_WINDOW}$"):
            load_model(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_window_bound_keeps_a_bag_key_within_a_model_line(tmp_path):
    assert 4 * MAX_WINDOW <= MAX_LINE
    with pytest.raises(ValueError, match=f"^window_size must be at most {MAX_WINDOW}$"):
        Config(window_size=MAX_WINDOW + 1, epoch_size=MAX_WINDOW + 1)
    p = tmp_path / "m.model"
    save_model(_wide_model(["a"], MAX_WINDOW), p)  # the one entry "262144 0 : 3"
    data = p.read_bytes()
    save_model(load_model(p), p)
    assert p.read_bytes() == data


def test_load_rejects_history_record_with_wrong_epoch(tmp_path):
    p = tmp_path / "m.model"
    save_model(model_fixture(), p)  # history "2 1.000000000", "3 1.000000000"
    reseal(p, b"\n3 1.000000000\n", b"\n4 1.000000000\n")
    with pytest.raises(ModelFormatError, match="^history: line 11: '4 1.000000000' should read '3 1.000000000'$") as exc:
        load_model(p)
    assert exc.value.section == "history"


@pytest.mark.parametrize("records, line, shown", [
    (b"\n2 5.000000000\n3 -7.000000000\n", 10, "5.0"),
    (b"\n2 1.000000000\n3 -7.000000000\n", 11, "-7.0"),
    (b"\n2 -0.000000000\n", 10, "-0.0"),
], ids=["above-one", "negative", "negative-zero"])
def test_load_rejects_history_values_no_training_writes(tmp_path, records, line, shown):
    # Each record is the line save_model writes for its value, but a cosine
    # of two non-negative change vectors lies in [0, 1] and is written unsigned.
    p = tmp_path / "m.model"
    save_model(model_fixture(), p)  # history "2 1.000000000", "3 1.000000000"
    header = f"history={records.count(b' ')}".encode("ascii")
    reseal(p, b"\nhistory=2\n2 1.000000000\n3 1.000000000\n", b"\n" + header + records)
    with pytest.raises(ModelFormatError, match=f"^history: line {line}: cosine {re.escape(shown)} is signed or outside") as exc:
        load_model(p)
    assert exc.value.section == "history"


def test_load_rejects_a_repeated_slot(tmp_path):
    p = tmp_path / "m.model"
    save_model(model_fixture(), p)  # slots "a", "b"
    reseal(p, b"\na\nb\n", b"\na\na\n")
    with pytest.raises(ModelFormatError, match="^index: slot names must be unique$"):
        load_model(p)


def test_load_rejects_non_ascii_body(tmp_path):
    p = tmp_path / "m.model"
    save_model(model_fixture(), p)  # slots "a", "b"
    reseal(p, b"\na\nb\n", "\n\u00e4\nb\n".encode("utf-8"))
    with pytest.raises(ModelFormatError, match="non-ASCII") as exc:
        load_model(p)
    assert exc.value.section == "structure"


def random_model(n, n_s=40, w=10):
    """A model of about n entries: the bags of n uniform random windows."""
    rng = np.random.default_rng(n)
    db = BehaviorDb()
    db.insert_many(*unique_window_bags(rng.integers(0, n_s, n + w - 1), w, n_s))
    db.freeze()
    index = SyscallIndex(tuple(f"s{i}" for i in range(n_s - 1)))
    return TrainedModel(index, db, Config(window_size=w, epoch_size=5000), [0.5, 1.0])


def test_load_model_memory_is_flat_in_model_size(tmp_path):
    # Beyond the model it returns, load_model holds one block of the file and
    # one chunk of entries: about 2k, 20k and 100k entries peak within 64 KiB
    # of each other above what the model retains, where the whole text of the
    # 20k file alone is 1.8 MB. The model retains a record of 18 bytes and a
    # frequency of 8 an entry, plus the slack of the buffers they grow in.
    excess, retained = {}, {}
    for n in (2_000, 20_000, 100_000):
        p = tmp_path / f"{n}.model"
        save_model(random_model(n), p)
        gc.collect()
        tracemalloc.start()
        try:
            model = load_model(p)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(model.db) > 0.9 * n
        excess[n], retained[n] = peak - current, current / len(model.db)
    assert abs(excess[20_000] - excess[2_000]) < 64 * 1024, excess
    assert abs(excess[100_000] - excess[2_000]) < 64 * 1024, excess
    assert retained[20_000] <= 40, retained


@functools.cache
def saved_bytes(n):
    """The bytes of a saved model: the fixture's (n=0), or random_model(n)'s."""
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "m.model"
        save_model(random_model(n) if n else model_fixture(), p)
        return p.read_bytes()


def _near_blocks(size):
    """Offsets within 16 bytes of each block boundary of a size-byte file."""
    return [b + d for b in range(BLOCK, size + 1, BLOCK) for d in range(-16, 17) if 0 <= b + d <= size]


def _sealed(body):
    return body + f"crc32={zlib.crc32(body):08x}\n".encode("ascii")


_FRAGMENTS = st.one_of(
    st.binary(max_size=50),
    st.sampled_from([b"crc32=", b"\ncrc32=", b"\ncrc32=0123abcd\n", b"\xff", b"\n", b"boscids-model v1\n"]),
)
_TRAILERS = st.one_of(
    st.binary(max_size=60),
    st.builds(lambda digits, end: b"crc32=" + digits.encode("ascii") + end,
              st.text("0123456789abcdefABCDEFxz\n", max_size=60), st.sampled_from([b"\n", b"", b"\n\n", b"\r\n"])),
)


@st.composite
def edited_model_files(draw):
    """A saved model's bytes after one edit: a bit flip, a cut, bytes appended
    or inserted, a respelt trailer, a last "crc32=" moved into the body, or a
    non-ASCII byte. Edits land anywhere, near the end, or near a block
    boundary; a flip, cut or insert may get a new crc32 trailer, so the
    later checks are reached too."""
    base = saved_bytes(draw(st.sampled_from([0, 1600])))  # 1,600 entries span three blocks
    size = len(base)
    at = draw(st.one_of(st.integers(0, size), st.integers(max(size - 60, 0), size),
                        st.sampled_from(_near_blocks(size) or [0])))
    kind = draw(st.sampled_from(["flip", "cut", "append", "insert", "trailer", "marker", "non-ascii"]))
    if kind == "flip":
        k = min(at, size - 1)
        data = base[:k] + bytes([base[k] ^ 1 << draw(st.integers(0, 7))]) + base[k + 1 :]
    elif kind == "cut":
        data = base[:at]
    elif kind == "append":
        data = base + draw(_FRAGMENTS)
    elif kind == "insert":
        data = base[:at] + draw(_FRAGMENTS) + base[at:]
    elif kind == "trailer":
        data = base[:-15] + draw(_TRAILERS)
    elif kind == "marker":  # the last marker before a run of body bytes
        k = min(at, size - 15)
        data = base[:k] + draw(st.sampled_from([b"\n", b"x", b""])) + b"crc32=" + base[k : k + draw(st.integers(0, 80))]
    else:
        k = min(at, size - 16)
        body = base[:k] + bytes([draw(st.integers(128, 255))]) + base[k + 1 : -15]
        return _sealed(body)
    if kind in ("flip", "cut", "insert") and draw(st.booleans()):
        marker = data.rfind(b"crc32=")
        data = _sealed(data[:marker] if marker >= 0 else data)
    return data


_TRUNCATED_HISTORY = _sealed(saved_bytes(0)[:-15].replace(b"\n3 1.000000000\n", b"\n"))
_LONG_SLOT = saved_bytes(0).replace(b"\na\n", b"\n" + b"a" * (MAX_LINE + 1) + b"\n")  # crc32 left stale


@settings(max_examples=400, deadline=None)
@given(edited_model_files())
@example(b"boscids-model v1")  # the header alone, with no line end
@example(b"crc32=00000000\n")
@example(saved_bytes(0)[:-15] + b"crc32=" + b"0" * 60 + b"\n")  # a long trailer
@example(saved_bytes(0)[:-1])  # a trailer with no final LF
@example(_LONG_SLOT)  # a long line and a bad crc32: the long line fails first
@example(_TRUNCATED_HISTORY)  # a history record short, so the next line is the trailer
def test_streamed_file_checks_fail_as_whole_file_checks_do(tmp_path_factory, data):
    # load_model checks the file as it parses it, with the errors of checking
    # the whole text first; a file that passes loads or fails its parse, and
    # a loaded model saves back to the same bytes.
    p = tmp_path_factory.mktemp("m") / "m.model"
    p.write_bytes(data)
    try:
        whole_file_checks(data)
    except ModelFormatError as e:
        with pytest.raises(ModelFormatError) as exc:
            load_model(p)
        assert (exc.value.section, str(exc.value)) == (e.section, str(e))
        return
    try:
        loaded = load_model(p)
    except ModelFormatError:  # the parse may reject a resealed edit
        return
    save_model(loaded, p)
    assert p.read_bytes() == data


@pytest.mark.parametrize("data, message", [
    (_LONG_SLOT, f"structure: line 4: longer than {MAX_LINE} bytes"),
    (_TRUNCATED_HISTORY, "history: file truncated"),  # the trailer is never parsed as a record
], ids=["long-line-and-bad-crc", "truncated-history"])
def test_load_names_the_first_fault_of_edge_files(tmp_path, data, message):
    p = tmp_path / "m.model"
    p.write_bytes(data)
    with pytest.raises(ModelFormatError, match=f"^{re.escape(message)}$"):
        load_model(p)


@pytest.mark.parametrize("old, new, line", [
    (b"\na\n", b"\n{long}\n", 4),  # a valid syscall name
    (b"\nentries=1\n1 1 0 : 9\n", b"\nentries=300\n1 1 0 : {long}\n", 8),
], ids=["slot-name", "entry-in-a-chunk"])
def test_a_long_model_line_fails_at_once_in_bounded_memory(tmp_path, old, new, line):
    # A crc-valid model with a line of 20,000,000 bytes: the read stops at
    # the cap, not at the line end, also amid a chunk of entry lines.
    p = tmp_path / "m.model"
    save_model(model_fixture(), p)  # slots "a", "b"
    reseal(p, old, new.replace(b"{long}", b"x" * 20_000_000))
    gc.collect()
    tracemalloc.start()
    try:
        with pytest.raises(ModelFormatError, match=f"^structure: line {line}: longer than {MAX_LINE} bytes$"):
            load_model(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


def _load_through_a_fifo(tmp_path, data):
    """load_model of a fifo that a thread writes data into."""
    fifo = tmp_path / "m.fifo"
    os.mkfifo(fifo)

    def feed():  # opening blocks until the fifo is opened for reading
        with contextlib.suppress(BrokenPipeError), open(fifo, "wb") as f:
            f.write(data)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        return load_model(fifo)
    finally:
        os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))  # frees a writer still waiting
        writer.join()
        fifo.unlink()


def test_load_model_reads_a_pipe(tmp_path):
    data = saved_bytes(1600)
    save_model(_load_through_a_fifo(tmp_path, data), tmp_path / "resaved.model")
    assert (tmp_path / "resaved.model").read_bytes() == data
    flipped = data[:5000] + bytes([data[5000] ^ 4]) + data[5001:]
    with pytest.raises(ModelFormatError) as oracle:
        whole_file_checks(flipped)
    with pytest.raises(ModelFormatError) as exc:
        _load_through_a_fifo(tmp_path, flipped)
    assert str(exc.value) == str(oracle.value) == "checksum: crc32 mismatch; file corrupted"


def _wide_model(names, w):
    """A model over slots names whose one entry puts all w calls in slot 0."""
    db = BehaviorDb()
    db.insert_many(Bags.from_counts([(w,) + (0,) * len(names)]), [3])
    db.freeze()
    return TrainedModel(SyscallIndex(tuple(names)), db, Config(window_size=w, epoch_size=w), [1.0])


# An entry line is bounded by n_s * (len(str(w)) + 1) + 21 bytes: at w =
# 100,000 and n_s = 149,793 that is 1,048,572, within MAX_LINE, and one slot
# more makes it 1,048,579.
@pytest.mark.parametrize("names, w", [
    (lambda more: ["x" * (MAX_LINE + more)], 2),
    (lambda more: [f"s{i}" for i in range(149_792 + more)], 100_000),
], ids=["slot-name", "entry-line"])
def test_save_model_writes_no_line_load_model_refuses(tmp_path, names, w):
    p = tmp_path / "m.model"
    save_model(_wide_model(names(0), w), p)
    data = p.read_bytes()
    save_model(load_model(p), p)
    assert p.read_bytes() == data
    p.unlink()
    with pytest.raises(ValueError, match=f"longer than {MAX_LINE} bytes"):
        save_model(_wide_model(names(1), w), p)
    assert not p.exists()
