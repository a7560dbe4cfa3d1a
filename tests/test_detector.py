import logging
import random
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boscids.bosc import BehaviorDb, Config, FrozenDbError, bag_of, epoch_windows
from boscids.catalog import SyscallIndex
from boscids.detector import (
    DetectionReport,
    EpochVerdict,
    detect,
    format_report,
    read_report_file,
    scan_epoch,
    write_report_file,
)
from boscids.trace_ingest import RawTrace
from boscids.trainer import TrainedModel, train
from helpers import brute_force_mismatches, insert_counts

logging.getLogger("boscids").setLevel(logging.ERROR)


def tiny_model(bags, slots=("a", "b"), w=2, S=4, frac=0.10):
    db = BehaviorDb()
    insert_counts(db, bags)
    db.freeze()
    cfg = Config(window_size=w, epoch_size=S, detect_threshold_fraction=frac)
    return TrainedModel(SyscallIndex(tuple(slots)), db, cfg, [])


def test_scan_epoch_counts_absent_bags():
    # db holds only the a,b window bag; epoch a a b b has two unknown bags
    model = tiny_model([(1, 1, 0)])
    verdict = scan_epoch(model, [0, 0, 1, 1])
    assert verdict.windows_scanned == 3
    assert verdict.mismatches == 2
    assert verdict.threshold_used == pytest.approx(0.4)
    assert verdict.anomalous


def test_scan_epoch_from_training_data_has_zero_mismatches():
    rng = random.Random(21)
    epoch = [rng.randrange(2) for _ in range(50)]
    db = BehaviorDb()
    insert_counts(db, [bag_of(window, 3) for window in epoch_windows(epoch, 2)])
    db.freeze()
    model = TrainedModel(SyscallIndex(("a", "b")), db, Config(2, 50), [])
    verdict = scan_epoch(model, epoch)
    assert verdict.mismatches == 0
    assert not verdict.anomalous


def test_scan_epoch_threshold_comparison_is_strict():
    # exactly at the threshold stays normal: 1 mismatch of 10 calls, frac 0.1
    model = tiny_model([(1, 1, 0)], w=2, S=10)
    epoch = [0, 1] * 5
    epoch[0] = 1  # one (b,b) window
    verdict = scan_epoch(model, epoch)
    assert verdict.mismatches == 1
    assert verdict.threshold_used == pytest.approx(1.0)
    assert not verdict.anomalous


def test_scan_epoch_shorter_than_window():
    model = tiny_model([(1, 1, 0)], w=4, S=8)
    verdict = scan_epoch(model, [0, 1])
    assert verdict.windows_scanned == 0
    assert verdict.mismatches == 0
    assert not verdict.anomalous


def test_scan_matches_brute_force():
    rng = random.Random(22)
    for _ in range(20):
        n_s = rng.randint(2, 8)
        w = rng.randint(2, 5)
        known = {bag_of([rng.randrange(n_s) for _ in range(w)], n_s) for _ in range(30)}
        db = BehaviorDb()
        insert_counts(db, sorted(known))
        db.freeze()
        model = TrainedModel(SyscallIndex(tuple(f"s{i}" for i in range(n_s - 1))), db, Config(w, 64), [])
        epoch = [rng.randrange(n_s) for _ in range(64)]
        verdict = scan_epoch(model, epoch)
        assert verdict.mismatches == brute_force_mismatches(epoch, w, n_s, known)


def test_detection_does_not_mutate_model():
    model = tiny_model([(1, 1, 0)])
    before = dict(model.db.items())
    detect(model, RawTrace.from_names(["a", "a", "b", "b"] * 3))
    assert dict(model.db.items()) == before
    with pytest.raises(FrozenDbError):
        insert_counts(model.db, [(1, 1, 0)])


def test_bag_invariant_under_swap_within_window():
    # swapping two adjacent calls inside one window span leaves that
    # window's bag unchanged (bags ignore order)
    epoch = [0, 1, 2, 1, 0, 2]
    swapped = list(epoch)
    swapped[2], swapped[3] = swapped[3], swapped[2]
    assert bag_of(epoch[1:5], 3) == bag_of(swapped[1:5], 3)


def test_adding_db_entries_never_increases_mismatches():
    rng = random.Random(23)
    epoch = [rng.randrange(3) for _ in range(60)]
    small = tiny_model([(1, 1, 0)], slots=("a", "b"), w=2, S=60)
    grown_db = BehaviorDb()
    insert_counts(grown_db, [(1, 1, 0), (2, 0, 0), (0, 2, 0), (0, 1, 1)])
    grown_db.freeze()
    grown = TrainedModel(small.index, grown_db, small.config, [])
    assert scan_epoch(grown, epoch).mismatches <= scan_epoch(small, epoch).mismatches


def test_detect_partitions_and_aggregates():
    model = tiny_model([(1, 1, 0)], S=4)
    # two clean epochs then one corrupt epoch
    trace = RawTrace.from_names(["a", "b"] * 4 + ["b", "b", "b", "b"])
    report = detect(model, trace)
    assert [v.anomalous for v in report.verdicts] == [False, False, True]
    assert report.trace_anomalous
    assert report.totals["epochs"] == 3
    assert report.totals["anomalous_epochs"] == 1


def test_detect_trace_anomalous_is_or_of_verdicts():
    model = tiny_model([(1, 1, 0)], S=4)
    clean = detect(model, RawTrace.from_names(["a", "b"] * 4))
    assert not clean.trace_anomalous
    assert clean.totals["anomalous_epochs"] == 0


def test_detect_scans_partial_tail_with_scaled_threshold():
    model = tiny_model([(1, 1, 0)], S=4)
    trace = RawTrace.from_names(["a", "b"] * 2 + ["a", "b", "a"])  # 4 + 3 calls
    report = detect(model, trace)
    assert len(report.verdicts) == 2
    tail = report.verdicts[1]
    assert tail.windows_scanned == 2
    assert tail.threshold_used == pytest.approx(0.1 * 3)


def test_detect_drops_tail_shorter_than_window():
    model = tiny_model([(1, 1, 0)], S=4)
    trace = RawTrace.from_names(["a", "b"] * 2 + ["a"])  # tail of 1 < w=2
    report = detect(model, trace)
    assert len(report.verdicts) == 1
    assert report.totals["dropped_tail_calls"] == 1


def test_detect_empty_trace_gives_empty_report():
    model = tiny_model([(1, 1, 0)])
    report = detect(model, RawTrace.from_names([]))
    assert report.verdicts == []
    assert not report.trace_anomalous


def test_detect_unknown_names_go_to_other_slot():
    model = tiny_model([(1, 1, 0)], S=4)
    report = detect(model, RawTrace.from_names(["ptrace", "bpf"] * 2))
    assert report.verdicts[0].mismatches == 3  # every bag is (0,0,2), unseen


def test_detect_threshold_fraction_override():
    model = tiny_model([(1, 1, 0)], S=4)
    trace = RawTrace.from_names(["a", "a", "b", "b"])
    assert detect(model, trace).verdicts[0].anomalous
    # with the loosest threshold nothing gets flagged
    loose = detect(replace(model, config=replace(model.config, detect_threshold_fraction=1.0)), trace)
    assert not loose.verdicts[0].anomalous


def test_report_round_trip(tmp_path):
    model = tiny_model([(1, 1, 0)], S=4)
    path = tmp_path / "r.report"
    # whole epochs, then a 1-call tail shorter than w=2
    for calls, dropped in ((["a", "b"] * 4 + ["b"] * 4, 0), (["a", "b", "a", "b", "a"], 1)):
        report = detect(model, RawTrace.from_names(calls))
        write_report_file(report, path)
        loaded = read_report_file(path)
        assert loaded.verdicts == report.verdicts
        assert loaded.trace_anomalous == report.trace_anomalous
        assert loaded.totals == report.totals
        assert loaded.totals["dropped_tail_calls"] == dropped
        assert format_report(loaded) == path.read_text()
        assert ("dropped_tail_calls" in path.read_text()) == bool(dropped)


def test_format_report_rows():
    model = tiny_model([(1, 1, 0)], S=4)
    text = format_report(detect(model, RawTrace.from_names(["a", "b"] * 2)))
    lines = text.splitlines()
    assert lines[0].split() == ["0", "3", "0", "0.4", "0"]
    assert lines[-1].startswith("total ")


@pytest.mark.parametrize(
    "text, match",
    [
        # totals that disagree with the single row above them
        ("0 3 0 0.4 0\ntotal epochs=9 windows=999 mismatches=0 anomalous_epochs=0 trace_anomalous=0\n",
         "line 2: 'total epochs=9 .* should read 'total epochs=1 windows=3 "),
        ("0 3 2 0.4 1\ntotal epochs=1 windows=3 mismatches=2 anomalous_epochs=1 trace_anomalous=0\n",
         "line 2: .* should read '.* anomalous_epochs=1 trace_anomalous=1"),
        ("0 3 2 0.4 7\ntotal epochs=1 windows=3 mismatches=2 anomalous_epochs=0 trace_anomalous=0\n",
         "line 1: expected `epoch windows mismatches threshold 0.1`, got '0 3 2 0.4 7"),
        ("0 x 2 0.4 0\ntotal epochs=1 windows=3 mismatches=2 anomalous_epochs=0 trace_anomalous=0\n",
         "line 1: expected .*, got '0 x 2 0.4 0"),
        ("0 3 2 0.4 0\n", "line 1: missing summary line"),
        ("0 3 0 0.4 0\ntotal epochs=1 windows=3 mismatches=0 anomalous_epochs=0 trace_anomalous=0 caf\xc3\xa9\n",
         "line 2: byte 0xc3 is not ascii"),
        ("1 3 0 0.4 0\n0 3 0 0.4 0\ntotal epochs=2 windows=6 mismatches=0 anomalous_epochs=0 trace_anomalous=0\n",
         "line 1: '1 3 0 0.4 0.* should read '0 3 0 0.4 0"),
        # a flag its numbers contradict: eval would score TPR 50%, not 100%
        ("0 4991 371 500.0 0\n1 4991 4212 500.0 1\n2 4991 4659 500.0 0\n"
         "total epochs=3 windows=14973 mismatches=9242 anomalous_epochs=1 trace_anomalous=1\n",
         "line 3: '2 4991 4659 500.0 0.* should read '2 4991 4659 500.0 1"),
        ("0 -4996 0 500.0 0\ntotal epochs=1 windows=-4996 mismatches=0 anomalous_epochs=0 trace_anomalous=0\n",
         "line 1: expected .*, got '0 -4996 0 500.0 0"),
        ("0 3 0 0.4 0\ntotal epochs=1\n", "line 2: 'total epochs=1.* should read 'total epochs=1 windows=3 "),
    ],
    ids=["totals", "trace_anomalous", "flag", "number", "no-summary", "non-ascii",
         "swapped-rows", "contradicted-flag", "negative-windows", "short-summary"],
)
def test_read_report_rejects_inconsistent_file(tmp_path, text, match):
    path = tmp_path / "r.report"
    path.write_bytes(text.encode("latin-1"))  # one byte per character
    with pytest.raises(ValueError, match=match) as exc:
        read_report_file(path)
    assert str(exc.value).startswith(f"{path}: ")


@st.composite
def reports(draw):
    """Detection reports with any numbers a report can hold, with and
    without a dropped tail."""
    verdicts = draw(st.lists(st.builds(
        EpochVerdict, st.integers(0, 2**70), st.integers(0, 2**70),
        st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    ), max_size=6))
    return DetectionReport(verdicts, draw(st.sampled_from([0, 1, 9, 12345])))


@settings(max_examples=300, deadline=None)
@given(reports(), st.data())
def test_report_reads_back_only_as_written(tmp_path_factory, report, data):
    path = tmp_path_factory.mktemp("r") / "r.report"
    write_report_file(report, path)
    text = path.read_bytes().decode("ascii")
    loaded = read_report_file(path)
    assert (loaded.verdicts, loaded.dropped_tail_calls) == (report.verdicts, report.dropped_tail_calls)
    assert format_report(loaded) == text

    # one character replaced, inserted or deleted, often at a line's end
    ends = [i for i, c in enumerate(text) if c == "\n"]
    k = data.draw(st.one_of(st.integers(0, len(text) - 1), st.sampled_from(ends)))
    char = data.draw(st.sampled_from("0123456789 .e+-=_\n\rtx\xe9"))
    edit = data.draw(st.sampled_from(["replace", "insert", "delete"]))
    edited = text[:k] + ("" if edit == "delete" else char) + text[k + (edit != "insert"):]
    path.write_bytes(edited.encode("latin-1"))
    try:
        again = read_report_file(path)
    except ValueError as e:
        assert re.match(rf"{re.escape(str(path))}: line [0-9]+: ", str(e)), str(e)
    else:
        assert format_report(again) == edited
