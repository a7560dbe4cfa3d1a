import pytest

from boscids.detector import DetectionReport, EpochVerdict
from boscids.evaluator import (
    LabeledCorpus,
    compute_metrics,
    format_metrics,
    read_labels,
    write_labels,
)


def report(flags, windows=100, mismatches_per_flagged=60):
    # threshold 0.1 * windows = 10: a flagged epoch's 60 mismatches are above
    # it, a clean epoch's 2 below
    return DetectionReport([
        EpochVerdict(windows, mismatches_per_flagged if f else 2, 0.1 * windows)
        for f in flags
    ])


def test_perfect_detection_epoch_granularity():
    # 5 malicious epochs all flagged, 340 normal epochs clean
    flags = [True] * 5 + [False] * 340
    labels = ["malicious"] * 5 + ["normal"] * 340
    corpus = LabeledCorpus.from_pairs([("t", labels)])
    m = compute_metrics({"t": report(flags)}, corpus, "epoch")
    assert m.n_tp == 5 and m.n_malicious == 5
    assert m.n_fp == 0 and m.n_normal == 340
    assert m.tpr == 1.0
    assert m.fpr == 0.0


def test_window_granularity_counts_mismatched_windows():
    flags = [True, False]
    labels = ["malicious", "normal"]
    corpus = LabeledCorpus.from_pairs([("t", labels)])
    m = compute_metrics({"t": report(flags)}, corpus, "window")
    assert m.granularity == "window"
    assert m.n_malicious == 100 and m.n_normal == 100
    assert m.n_tp == 60  # mismatches inside the malicious epoch
    assert m.n_fp == 2  # mismatches inside the normal epoch
    assert m.tpr == pytest.approx(0.60)
    assert m.fpr == pytest.approx(0.02)


def test_bounds_invariants():
    flags = [True, True, False, False]
    labels = ["malicious", "normal", "malicious", "normal"]
    corpus = LabeledCorpus.from_pairs([("t", labels)])
    for g in ("epoch", "window"):
        m = compute_metrics({"t": report(flags)}, corpus, g)
        assert 0 <= m.n_tp <= m.n_malicious
        assert 0 <= m.n_fp <= m.n_normal


def test_misaligned_label_count_is_hard_error():
    corpus = LabeledCorpus.from_pairs([("t", ["normal"] * 3)])
    with pytest.raises(ValueError, match="3 labels but 2 epochs"):
        compute_metrics({"t": report([False, False])}, corpus)


def test_missing_report_is_hard_error():
    corpus = LabeledCorpus.from_pairs([("t", ["normal"])])
    with pytest.raises(ValueError, match="no detection report"):
        compute_metrics({}, corpus)


def test_zero_denominator_is_undefined_not_zero():
    corpus = LabeledCorpus.from_pairs([("t", ["normal", "normal"])])
    m = compute_metrics({"t": report([False, False])}, corpus, "epoch")
    assert m.tpr is None
    assert m.fpr == 0.0
    assert "tpr=undefined" in format_metrics(m)


def test_metrics_invariant_under_trace_reordering():
    flags_a, labels_a = [True, False], ["malicious", "normal"]
    flags_b, labels_b = [False, True], ["normal", "malicious"]
    reports = {"a": report(flags_a), "b": report(flags_b)}
    m1 = compute_metrics(reports, LabeledCorpus.from_pairs([("a", labels_a), ("b", labels_b)]))
    m2 = compute_metrics(reports, LabeledCorpus.from_pairs([("b", labels_b), ("a", labels_a)]))
    assert m1 == m2


def test_corpus_rejects_unknown_labels():
    with pytest.raises(ValueError, match="unknown label"):
        LabeledCorpus.from_pairs([("t", ["benign"])])


def test_unknown_granularity_rejected():
    corpus = LabeledCorpus.from_pairs([("t", ["normal"])])
    with pytest.raises(ValueError, match="granularity"):
        compute_metrics({"t": report([False])}, corpus, "trace")


def test_lowering_detect_fraction_is_monotone():
    # rescoring the same mismatch counts with lower thresholds can only
    # flag more epochs, raising (or keeping) both rates
    labels = ["malicious"] * 3 + ["normal"] * 5
    mism = [55, 30, 8, 12, 3, 1, 0, 9]
    windows = 100
    prev_tpr, prev_fpr = 0.0, 0.0
    for frac in (0.5, 0.25, 0.1, 0.05, 0.005):
        rep = DetectionReport([EpochVerdict(windows, m, frac * windows) for m in mism])
        m = compute_metrics({"t": rep}, LabeledCorpus.from_pairs([("t", labels)]))
        assert m.tpr >= prev_tpr and m.fpr >= prev_fpr
        prev_tpr, prev_fpr = m.tpr, m.fpr


def test_labels_file_round_trip(tmp_path):
    labels = ["normal", "malicious", "normal"]
    path = tmp_path / "x.labels"
    write_labels(labels, path)
    assert path.read_bytes() == b"0\tnormal\n1\tmalicious\n2\tnormal\n"
    assert read_labels(path) == tuple(labels)


def test_labels_file_rejects_out_of_order(tmp_path):
    path = tmp_path / "bad.labels"
    path.write_text("1\tnormal\n0\tnormal\n")
    with pytest.raises(ValueError, match="out of order"):
        read_labels(path)


@pytest.mark.parametrize("index", ["x", "1.0", ""], ids=["letter", "decimal", "empty"])
def test_labels_file_rejects_non_integer_index(tmp_path, index):
    path = tmp_path / "bad.labels"
    path.write_text(f"0\tnormal\n{index}\tnormal\n")
    with pytest.raises(ValueError) as exc:
        read_labels(path)
    assert str(exc.value).startswith(f"{path}: line 2: epoch index")


def test_labels_file_rejects_non_ascii_label(tmp_path):
    path = tmp_path / "bad.labels"
    path.write_bytes(b"0\tnorm\xc3\xa9l\n")
    with pytest.raises(ValueError) as exc:
        read_labels(path)
    assert str(exc.value) == f"{path}: line 1: byte 0xc3 is not ascii"
