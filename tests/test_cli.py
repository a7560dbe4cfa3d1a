import contextlib
import errno
import importlib
import io
import os
import stat
import subprocess
import sys
import threading
import tracemalloc
import zlib
from pathlib import Path

import pytest

import boscids
from boscids.bosc import MAX_WINDOW
from boscids.cli import main
from boscids.evaluator import write_labels

FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_ab_trace(path, epochs=4):
    path.write_text("".join("a\nb\n" * (2 * epochs)))


def test_ingest_fixture_byte_exact(tmp_path, capsys):
    trace_out = tmp_path / "out.trace"
    count_out = tmp_path / "out.counts"
    code, out, _ = run(
        capsys, "ingest", str(FIXTURES / "mixed.strace"),
        "--trace-out", str(trace_out), "--count-out", str(count_out),
    )
    assert code == 0
    assert trace_out.read_bytes() == (FIXTURES / "mixed.expected.trace").read_bytes()
    assert count_out.read_bytes() == (FIXTURES / "mixed.expected.counts").read_bytes()
    assert "195 calls" in out


def test_ingest_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "ingest", str(tmp_path / "nope.strace"))
    assert code == 1
    assert "error" in err and "input" in err


def test_train_ab_fixture(tmp_path, capsys):
    trace = tmp_path / "ab.trace"
    write_ab_trace(trace)
    model = tmp_path / "ab.model"
    code, out, _ = run(
        capsys, "train", str(trace), "--model", str(model),
        "--epoch-size", "4", "--window", "2",
    )
    assert code == 0
    assert "converged after 3 epochs" in out
    assert "db entries=1" in out
    assert model.is_file()


def test_train_too_short_trace_errors(tmp_path, capsys):
    trace = tmp_path / "short.trace"
    trace.write_text("a\nb\na\n")
    code, _, err = run(capsys, "train", str(trace), "--model", str(tmp_path / "m"),
                       "--epoch-size", "4", "--window", "2")
    assert code == 1
    assert "2 full epochs" in err


def test_train_refuses_a_window_beyond_the_bound(tmp_path, capsys):
    trace = tmp_path / "ab.trace"
    write_ab_trace(trace)
    model = tmp_path / "m"
    code, _, err = run(capsys, "train", str(trace), "--model", str(model),
                       "--epoch-size", str(MAX_WINDOW + 1), "--window", str(MAX_WINDOW + 1))
    assert code == 1
    assert err == f"boscids train: error: window_size must be at most {MAX_WINDOW}\n"
    assert not model.exists()


def test_detect_names_a_model_window_beyond_the_bound(tmp_path, capsys):
    trace = tmp_path / "ab.trace"
    write_ab_trace(trace)
    model = tmp_path / "ab.model"
    run(capsys, "train", str(trace), "--model", str(model), "--epoch-size", "4", "--window", "2")
    data = model.read_bytes()
    body = data[: data.rfind(b"crc32=")].replace(b"\nw=2 S=4 ", b"\nw=1000000000 S=1000000000 ")
    model.write_bytes(body + f"crc32={zlib.crc32(body):08x}\n".encode("ascii"))
    code, out, err = run(capsys, "detect", str(trace), "--model", str(model))
    assert code == 1
    assert out == "" and f"params: window_size must be at most {MAX_WINDOW}" in err
    assert "Traceback" not in err


def test_detect_clean_exits_0(tmp_path, capsys):
    trace = tmp_path / "ab.trace"
    write_ab_trace(trace)
    model = tmp_path / "ab.model"
    run(capsys, "train", str(trace), "--model", str(model),
        "--epoch-size", "4", "--window", "2")
    code, out, _ = run(capsys, "detect", str(trace), "--model", str(model))
    assert code == 0
    assert "trace_anomalous=0" in out


def test_detect_anomalous_exits_2(tmp_path, capsys):
    trace = tmp_path / "ab.trace"
    write_ab_trace(trace)
    model = tmp_path / "ab.model"
    run(capsys, "train", str(trace), "--model", str(model),
        "--epoch-size", "4", "--window", "2")
    bad = tmp_path / "bad.trace"
    bad.write_text("b\nb\nb\nb\n")
    code, out, _ = run(capsys, "detect", str(bad), "--model", str(model))
    assert code == 2
    assert "trace_anomalous=1" in out


def test_detect_empty_trace_exits_1(tmp_path, capsys):
    trace = tmp_path / "ab.trace"
    write_ab_trace(trace)
    model = tmp_path / "ab.model"
    run(capsys, "train", str(trace), "--model", str(model),
        "--epoch-size", "4", "--window", "2")
    empty = tmp_path / "empty.trace"
    empty.write_text("")
    code, _, err = run(capsys, "detect", str(empty), "--model", str(model))
    assert code == 1
    assert err == f"{empty}: empty trace, nothing scanned\n"


def test_detect_names_a_trace_shorter_than_the_window(tmp_path, capsys):
    model, _ = ab_model_and_bad_trace(tmp_path, capsys)  # w=2
    one = tmp_path / "one.trace"
    one.write_text("a\n")
    code, out, err = run(capsys, "detect", str(one), "--model", str(model))
    assert code == 1 and out == ""
    assert err == f"{one}: 1 calls, fewer than the window of 2; nothing scanned\n"


def test_unknown_flag_exits_1(capsys):
    code, _, err = run(capsys, "train", "x.trace", "--model", "m", "--bogus")
    assert code == 1
    assert "error" in err


def test_unknown_subcommand_exits_1(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1


def test_help_exits_0_and_lists_defaults(capsys):
    code, out, _ = run(capsys, "train", "--help")
    assert code == 0
    for needle in ("--window", "default: 10", "--epoch-size", "default: 5000",
                   "--train-threshold", "default: 0.99", "--detect-fraction",
                   "default: 0.10", "--config"):
        assert needle in out


def test_help_names_every_value_the_library_accepts(capsys):
    # The parser has no choices= for these flags; its help is their list.
    from boscids.evaluator import GRANULARITIES
    from boscids.synth import INJECTION_MODES

    for command, values in (("gen", INJECTION_MODES), ("eval", GRANULARITIES)):
        code, out, _ = run(capsys, command, "--help")
        assert code == 0
        for value in values:
            assert value in out, (command, value)


def test_gen_deterministic_and_train_byte_identical(tmp_path, capsys):
    t1, t2 = tmp_path / "a.trace", tmp_path / "b.trace"
    for t in (t1, t2):
        code, _, _ = run(capsys, "gen", "--calls", "4000", "--seed", "11",
                         "--alphabet-size", "16", "--out", str(t))
        assert code == 0
    assert t1.read_bytes() == t2.read_bytes()
    m1, m2 = tmp_path / "a.model", tmp_path / "b.model"
    for t, m in ((t1, m1), (t2, m2)):
        code, _, _ = run(capsys, "train", str(t), "--model", str(m),
                         "--epoch-size", "500")
        assert code in (0, 3)
    assert m1.read_bytes() == m2.read_bytes()


def test_gen_labels_and_eval_round_trip(tmp_path, capsys):
    trace = tmp_path / "synth.trace"
    labels = tmp_path / "synth.labels"
    code, _, _ = run(
        capsys, "gen", "--calls", "10000", "--seed", "7", "--out", str(trace),
        "--labels", str(labels), "--epoch-size", "500",
        "--inject-epochs", "3,9,15", "--inject-mode", "novel_names",
        "--intensity", "0.5",
    )
    assert code == 0
    assert labels.read_text().count("malicious") == 3

    clean = tmp_path / "clean.trace"
    run(capsys, "gen", "--calls", "15000", "--seed", "7", "--out", str(clean),
        "--epoch-size", "500")
    model = tmp_path / "m.model"
    code, _, _ = run(capsys, "train", str(clean), "--model", str(model),
                     "--epoch-size", "500", "--train-threshold", "1.0")
    assert code == 3  # full pass over the noisy source never hits exactly 1.0

    report = tmp_path / "synth.report"
    code, out, _ = run(capsys, "detect", str(trace), "--model", str(model),
                       "--report", str(report))
    assert code == 2
    loaded = report.read_text().splitlines()
    flagged = [l.split()[0] for l in loaded if not l.startswith("total") and l.split()[4] == "1"]
    assert flagged == ["3", "9", "15"]

    code, out, _ = run(capsys, "eval", "--report", str(report),
                       "--labels", str(labels), "--granularity", "epoch")
    assert code == 0
    assert "tpr=1.000000" in out
    assert "fpr=0.000000" in out


def test_eval_misaligned_pairs_exit_1(tmp_path, capsys):
    report = tmp_path / "r.report"
    report.write_text("0 10 0 1.0 0\ntotal epochs=1\n")
    code, _, err = run(capsys, "eval", "--report", str(report))
    assert code == 1


def test_eval_pairs_reports_sharing_a_stem_with_their_own_labels(tmp_path, capsys):
    # a/x.report flags both of its injected epochs; b/x.report is clean
    rows = {"a": ("0 9 0 1.0 0", "1 9 8 1.0 1", "2 9 7 1.0 1"),
            "b": ("0 9 0 1.0 0", "1 9 0 1.0 0", "2 9 0 1.0 0")}
    totals = {"a": "epochs=3 windows=27 mismatches=15 anomalous_epochs=2 trace_anomalous=1",
              "b": "epochs=3 windows=27 mismatches=0 anomalous_epochs=0 trace_anomalous=0"}
    labels = {"a": ["normal", "malicious", "malicious"], "b": ["normal"] * 3}
    argv = []
    for d in ("a", "b"):
        (tmp_path / d).mkdir()
        report = tmp_path / d / "x.report"
        report.write_text("".join(r + "\n" for r in rows[d]) + f"total {totals[d]}\n")
        write_labels(labels[d], tmp_path / f"{d}.labels")
        argv += ["--report", str(report), "--labels", str(tmp_path / f"{d}.labels")]
    code, out, _ = run(capsys, "eval", *argv)
    assert code == 0
    assert out.startswith("granularity=epoch tp=2 fp=0 malicious=2 normal=4 tpr=1.000000 fpr=0.000000\n")


def test_eval_refuses_one_report_named_twice(tmp_path, capsys, monkeypatch):
    # Named once it scores tp=1 fp=2; named twice it would count every epoch twice.
    monkeypatch.chdir(tmp_path)
    Path("s.report").write_text("0 9 0 1.0 0\n1 9 8 1.0 1\n2 9 7 1.0 1\n3 9 6 1.0 1\n4 9 0 1.0 0\n"
                                "total epochs=5 windows=45 mismatches=21 anomalous_epochs=3 trace_anomalous=1\n")
    write_labels(["normal", "malicious", "normal", "normal", "normal"], Path("s.labels"))
    code, out, _ = run(capsys, "eval", "--report", "s.report", "--labels", "s.labels")
    assert code == 0
    assert out.startswith("granularity=epoch tp=1 fp=2 malicious=1 normal=4 ")
    for a, b in (("s.report", "./s.report"), ("s.report", "s.report")):
        code, out, err = run(capsys, "eval", "--report", a, "--labels", "s.labels", "--report", b, "--labels", "s.labels")
        assert (code, out) == (1, "")
        assert err == f"boscids eval: error: reports {a} and {b} name the same file\n"


def test_detect_fraction_override_flag(tmp_path, capsys):
    trace = tmp_path / "ab.trace"
    write_ab_trace(trace)
    model = tmp_path / "ab.model"
    run(capsys, "train", str(trace), "--model", str(model),
        "--epoch-size", "4", "--window", "2")
    bad = tmp_path / "bad.trace"
    bad.write_text("b\nb\nb\nb\n")
    code, _, _ = run(capsys, "detect", str(bad), "--model", str(model),
                     "--detect-fraction", "1.0")
    assert code == 0  # loosest threshold flags nothing
    code, _, err = run(capsys, "detect", str(bad), "--model", str(model),
                       "--detect-fraction", "1.5")
    assert code == 1
    assert "detect_threshold_fraction must be in (0, 1]" in err


def test_config_file_supplies_defaults(tmp_path, capsys):
    trace = tmp_path / "ab.trace"
    write_ab_trace(trace)
    cfg = tmp_path / "boscids.conf"
    cfg.write_text("epoch-size=4\nwindow=2\n")
    model = tmp_path / "ab.model"
    code, out, _ = run(capsys, "train", str(trace), "--model", str(model),
                       "--config", str(cfg))
    assert code == 0
    assert "converged after 3 epochs" in out


def test_flags_override_config_file(tmp_path, capsys):
    trace = tmp_path / "ab.trace"
    write_ab_trace(trace, epochs=8)
    cfg = tmp_path / "boscids.conf"
    cfg.write_text("epoch-size=9999\nwindow=2\n")
    model = tmp_path / "ab.model"
    code, out, _ = run(capsys, "train", str(trace), "--model", str(model),
                       "--config", str(cfg), "--epoch-size", "4")
    assert code == 0


def test_config_env_var(tmp_path, capsys, monkeypatch):
    trace = tmp_path / "ab.trace"
    write_ab_trace(trace)
    cfg = tmp_path / "env.conf"
    cfg.write_text("epoch-size=4\nwindow=2\n")
    monkeypatch.setenv("BOSCIDS_CONFIG", str(cfg))
    model = tmp_path / "ab.model"
    code, _, _ = run(capsys, "train", str(trace), "--model", str(model))
    assert code == 0


def test_config_unknown_field_exits_1(tmp_path, capsys):
    trace = tmp_path / "ab.trace"
    write_ab_trace(trace)
    cfg = tmp_path / "bad.conf"
    cfg.write_text("windowsize=2\n")
    code, _, err = run(capsys, "train", str(trace), "--model", str(tmp_path / "m"),
                       "--config", str(cfg))
    assert code == 1
    assert "windowsize" in err


def test_invalid_config_value_names_field(tmp_path, capsys):
    trace = tmp_path / "ab.trace"
    write_ab_trace(trace)
    code, _, err = run(capsys, "train", str(trace), "--model", str(tmp_path / "m"),
                       "--epoch-size", "4", "--window", "2",
                       "--train-threshold", "7")
    assert code == 1
    assert "train_threshold" in err


def test_ingest_idempotent(tmp_path, capsys):
    outs = []
    for i in (1, 2):
        trace_out = tmp_path / f"t{i}.trace"
        count_out = tmp_path / f"c{i}.counts"
        run(capsys, "ingest", str(FIXTURES / "messy.strace"),
            "--trace-out", str(trace_out), "--count-out", str(count_out))
        outs.append((trace_out.read_bytes(), count_out.read_bytes()))
    assert outs[0] == outs[1]


def test_detect_multiple_traces_with_jobs(tmp_path, capsys):
    trace = tmp_path / "ab.trace"
    write_ab_trace(trace)
    model = tmp_path / "ab.model"
    run(capsys, "train", str(trace), "--model", str(model),
        "--epoch-size", "4", "--window", "2")
    bad = tmp_path / "bad.trace"
    bad.write_text("b\nb\nb\nb\n")
    code, out, _ = run(capsys, "detect", str(trace), str(bad),
                       "--model", str(model), "--jobs", "2")
    assert code == 2
    assert str(trace) in out and str(bad) in out


def test_detect_scans_traces_in_turn_on_the_main_thread(tmp_path, capsys, monkeypatch):
    from boscids import detector, trace_ingest

    model, bad = ab_model_and_bad_trace(tmp_path, capsys)
    traces = [str(bad), str(tmp_path / "ab.trace"), str(bad)]
    events = []
    read, detect = trace_ingest.read_trace_chunks, detector.detect

    def logged_read(path, size):
        events.append(path)
        return read(path, size)

    def logged_detect(*args, **kwargs):
        events.append(threading.current_thread())
        return detect(*args, **kwargs)

    monkeypatch.setattr(trace_ingest, "read_trace_chunks", logged_read)
    monkeypatch.setattr(detector, "detect", logged_detect)
    outs = {}
    for jobs in ("1", "2"):
        events.clear()
        code, outs[jobs], _ = run(capsys, "detect", *traces, "--model", str(model), "--jobs", jobs)
        assert code == 2
        assert events == [x for path in traces for x in (path, threading.main_thread())]
    assert outs["2"] == outs["1"]


def test_detect_of_several_traces_loads_no_thread_pool(tmp_path, capsys):
    model, bad = ab_model_and_bad_trace(tmp_path, capsys)
    argv = ["detect", str(bad), str(tmp_path / "ab.trace"), "--model", str(model), "--jobs", "2"]
    probe = f"import sys; from boscids import cli; code = cli.main({argv!r}); print(code, 'concurrent.futures' in sys.modules)"
    assert _probe(probe).endswith("\n2 False\n")


def ab_model_and_bad_trace(tmp_path, capsys, *train_flags):
    trace = tmp_path / "ab.trace"
    write_ab_trace(trace)
    model = tmp_path / "ab.model"
    run(capsys, "train", str(trace), "--model", str(model),
        "--epoch-size", "4", "--window", "2", *train_flags)
    bad = tmp_path / "bad.trace"
    bad.write_text("b\nb\nb\nb\n")  # 3 unknown windows of 3
    return model, bad


def test_detect_fraction_from_config_file(tmp_path, capsys):
    model, bad = ab_model_and_bad_trace(tmp_path, capsys)
    cfg = tmp_path / "loose.conf"
    cfg.write_text("detect-fraction=1.0\n")
    code, _, _ = run(capsys, "detect", str(bad), "--model", str(model), "--config", str(cfg))
    assert code == 0
    code, _, _ = run(capsys, "detect", str(bad), "--model", str(model), "--config", str(cfg),
                     "--detect-fraction", "0.10")
    assert code == 2  # the flag beats the file


def test_detect_fraction_defaults_to_the_models_own(tmp_path, capsys):
    model, bad = ab_model_and_bad_trace(tmp_path, capsys, "--detect-fraction", "1.0")
    code, out, _ = run(capsys, "detect", str(bad), "--model", str(model))
    assert code == 0
    assert " 4.0 0\n" in out  # threshold 1.0 * 4 calls, not the built-in 0.10


def test_invalid_config_values_exit_1_naming_the_flag(tmp_path, capsys):
    trace = tmp_path / "ab.trace"
    write_ab_trace(trace)
    cases = [
        ("train", ["train", str(trace), "--model", str(tmp_path / "m")], "window=two\n", "window"),
        ("gen", ["gen", "--calls", "100", "--out", str(tmp_path / "g.trace")], "zipf-s=steep\n", "zipf"),
        ("gen", ["gen", "--calls", "10000", "--out", str(tmp_path / "g.trace"), "--epoch-size", "500",
                 "--inject-epochs", "1"], "inject-mode=sideways\n", "mode"),
    ]
    for name, argv, text, needle in cases:
        cfg = tmp_path / f"{name}.conf"
        cfg.write_text(text)
        code, _, err = run(capsys, *argv, "--config", str(cfg))
        assert code == 1, text
        assert needle in err, err


def test_invalid_flag_values_exit_1_naming_the_field(tmp_path, capsys):
    # The library checks each value; the parser has no list of its own.
    report = tmp_path / "r.report"
    report.write_text("0 10 0 1.0 0\ntotal epochs=1 windows=10 mismatches=0 anomalous_epochs=0 trace_anomalous=0\n")
    labels = tmp_path / "r.labels"
    labels.write_text("0\tnormal\n")
    cases = [
        (["eval", "--report", str(report), "--labels", str(labels), "--granularity", "hourly"],
         "granularity"),
        (["gen", "--calls", "100", "--out", str(tmp_path / "g.trace"), "--inject-mode", "sideways"],
         "mode"),
        *((["gen", "--calls", "100", "--out", str(tmp_path / "g.trace"), "--labels", str(tmp_path / "g.labels"),
            "--epoch-size", size], "epoch-size") for size in ("0", "-5")),
    ]
    for argv, needle in cases:
        code, _, err = run(capsys, *argv)
        assert code == 1, argv
        assert needle in err, err
    assert not (tmp_path / "g.trace").exists()
    assert not (tmp_path / "g.labels").exists()


def test_config_file_with_crlf_line_ends(tmp_path, capsys):
    trace = tmp_path / "ab.trace"
    write_ab_trace(trace)
    cfg = tmp_path / "crlf.conf"
    cfg.write_bytes(b"epoch-size=4\r\nwindow=2\r\n")
    code, out, _ = run(capsys, "train", str(trace), "--model", str(tmp_path / "m"),
                       "--config", str(cfg))
    assert code == 0
    assert "converged after 3 epochs" in out


@pytest.mark.parametrize("sep", ["\x0c", "\x1c", "\x85", "\u2028"])
def test_config_lines_end_at_lf_only(tmp_path, capsys, sep):
    # str.splitlines would end the line at sep and set epoch-size=100 too.
    trace = tmp_path / "ab.trace"
    write_ab_trace(trace)
    cfg = tmp_path / "one-line.conf"
    cfg.write_bytes(f"window=5{sep}epoch-size=100\n".encode())
    code, _, err = run(capsys, "train", str(trace), "--model", str(tmp_path / "m"),
                       "--config", str(cfg))
    assert code == 1
    assert "--window" in err


def test_undecodable_config_file_names_file_and_line(tmp_path, capsys):
    trace = tmp_path / "ab.trace"
    write_ab_trace(trace)
    cfg = tmp_path / "latin1.conf"
    cfg.write_bytes(b"epoch-size=4\nwindow=\xff\n")
    code, _, err = run(capsys, "train", str(trace), "--model", str(tmp_path / "m"),
                       "--config", str(cfg))
    assert code == 1
    assert f"config: {cfg}: line 2: byte 0xff is not utf-8" in err


def test_invalid_config_granularity_exits_1(tmp_path, capsys):
    report = tmp_path / "r.report"
    report.write_text("0 10 0 1.0 0\ntotal epochs=1 windows=10 mismatches=0 anomalous_epochs=0 trace_anomalous=0\n")
    labels = tmp_path / "r.labels"
    labels.write_text("0\tnormal\n")
    cfg = tmp_path / "bad.conf"
    cfg.write_text("granularity=hourly\n")
    code, _, err = run(capsys, "eval", "--report", str(report), "--labels", str(labels),
                       "--config", str(cfg))
    assert code == 1
    assert "granularity" in err


def test_config_key_of_another_subcommand_is_ignored(tmp_path, capsys):
    trace = tmp_path / "ab.trace"
    write_ab_trace(trace)
    cfg = tmp_path / "mixed.conf"
    cfg.write_text("epoch-size=4\nwindow=2\nseed=5\njobs=3\ngranularity=window\n")
    code, out, _ = run(capsys, "train", str(trace), "--model", str(tmp_path / "m"),
                       "--config", str(cfg))
    assert code == 0
    assert "converged after 3 epochs" in out


def test_ingest_ignores_broken_config_env(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "broken.conf"
    cfg.write_text("no equals sign here\nbogus=1\n")
    monkeypatch.setenv("BOSCIDS_CONFIG", str(cfg))
    code, _, _ = run(capsys, "ingest", str(FIXTURES / "mixed.strace"),
                     "--trace-out", str(tmp_path / "t"), "--count-out", str(tmp_path / "c"))
    assert code == 0


def test_detect_jobs_must_be_positive(tmp_path, capsys):
    model, bad = ab_model_and_bad_trace(tmp_path, capsys)
    code, _, err = run(capsys, "detect", str(bad), str(bad), "--model", str(model), "--jobs", "0")
    assert code == 1
    assert "jobs" in err


@pytest.mark.parametrize("argv, message", [
    (["gen", "--calls", "10", "--out", "t.trace", "--config", "nope.conf"], "config: file not found: nope.conf"),
    (["detect", "a.trace", "b.trace", "--model", "m.model", "--report", "r.report"],
     "report: --report accepts a single input trace"),
    (["eval", "--report", "a.report", "--report", "b.report", "--labels", "a.labels"],
     "labels: need exactly one label file per report"),
    (["gen", "--calls", "10", "--out", "t.trace", "--inject-epochs", "1,,2"],
     "inject-epochs: expected comma-separated integers, got '1,,2'"),
    (["gen", "--calls", "10", "--out", "t.trace", "--labels", "t.labels", "--epoch-size", "3"],
     "calls: must be a multiple of epoch-size when labels are requested"),
    (["gen", "--calls", "10", "--out", "t.trace", "--alphabet-size", "1025"], "n_names must be at most 1024"),
    (["train", "t.trace", "--model", "m.model", "--window", "50000", "--epoch-size", "100000"],
     "epoch_size 100000 at window_size 50000 gives 2500050000 window slots an epoch, more than 134217728"),
])
def test_refused_runs_name_the_field_and_write_nothing(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"boscids {argv[0]}: error: {message}\n")
    assert list(tmp_path.iterdir()) == []


def _probe(code):
    """What a fresh interpreter with the package on its path prints for code."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_cli_leaves_generator_and_hashlib_unloaded():
    # Only gen needs numpy.random, and only gen, train, detect and eval need
    # numpy; the other commands should not pay its import time and memory.
    probe = "import sys, boscids.cli; print(sorted({'numpy', 'numpy.random', 'hashlib'} & set(sys.modules)))"
    assert _probe(probe) == "[]\n"


def test_ingest_runs_without_numpy(tmp_path):
    trace_out, count_out = tmp_path / "out.trace", tmp_path / "out.counts"
    argv = ["ingest", str(FIXTURES / "mixed.strace"), "--trace-out", str(trace_out), "--count-out", str(count_out)]
    probe = f"import sys; from boscids import cli; code = cli.main({argv!r}); print(code, 'numpy' in sys.modules)"
    assert _probe(probe).endswith("\n0 False\n")
    assert trace_out.read_bytes() == (FIXTURES / "mixed.expected.trace").read_bytes()
    assert count_out.read_bytes() == (FIXTURES / "mixed.expected.counts").read_bytes()


@pytest.mark.parametrize("command, loaded", [
    ("gen", ["boscids.cli", "boscids.evaluator", "boscids.synth", "boscids.trace_ingest"]),
    ("eval", ["boscids.bosc", "boscids.cli", "boscids.detector", "boscids.evaluator", "boscids.trace_ingest"]),
])
def test_gen_and_eval_load_only_the_modules_they_run(tmp_path, command, loaded):
    # The evaluator names DetectionReport, and the detector TrainedModel, in
    # annotations only: gen loads no detector, eval no trainer or catalog.
    report, labels = tmp_path / "r.report", tmp_path / "r.labels"
    report.write_text("0 7 0 0.5 0\ntotal epochs=1 windows=7 mismatches=0 anomalous_epochs=0 trace_anomalous=0\n")
    labels.write_text("0\tnormal\n")
    argv = {"gen": ["gen", "--calls", "8", "--epoch-size", "8", "--out", str(tmp_path / "g.trace"),
                    "--labels", str(tmp_path / "g.labels")],
            "eval": ["eval", "--report", str(report), "--labels", str(labels)]}[command]
    probe = (f"import sys; from boscids import cli; code = cli.main({argv!r}); "
             "print(code, sorted(m for m in sys.modules if m.startswith('boscids.')))")
    assert _probe(probe).endswith(f"\n0 {loaded}\n")


def test_reading_a_trace_leaves_numpy_unloaded(tmp_path):
    # count_table imports numpy when called; reading a trace needs none.
    path = tmp_path / "t.trace"
    path.write_text("read\nwrite\nread\n")
    probe = ("import sys; from boscids import trace_ingest as ti; "
             f"print([len(c.calls) for c in ti.read_trace_chunks({str(path)!r}, 2)], 'numpy' in sys.modules)")
    assert _probe(probe) == "[2, 1] False\n"


def test_package_exports_resolve_to_their_modules_objects():
    for name, module in boscids._EXPORTS.items():
        assert getattr(boscids, name) is getattr(importlib.import_module(f"boscids.{module}"), name)
    assert set(boscids._EXPORTS) <= set(dir(boscids))
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        boscids.nope


def test_train_counts_reads_no_line_after_convergence(tmp_path, capsys):
    # The ab trace converges at epoch 3 (w=2, S=4), so its first 12 lines are
    # read and checked; a bad name at line 18, in epoch 5, is never read.
    trace, counts = tmp_path / "ab.trace", tmp_path / "ab.counts"
    counts.write_text("a\t20\nb\t20\n")
    for line, want in ((18, 0), (10, 1)):
        names = ["a", "b"] * 20
        names[line - 1] = "x-y"
        trace.write_text("".join(f"{n}\n" for n in names))
        code, out, err = run(capsys, "train", str(trace), "--counts", str(counts), "--model",
                             str(tmp_path / "m"), "--epoch-size", "4", "--window", "2")
        assert code == want
        if want == 0:
            assert "converged after 3 epochs" in out
            assert f"read 12 calls of {trace}; the rest of the file, if any, was neither read nor checked\n" in out
        else:
            assert err == f"boscids train: error: {trace}: line 10: invalid syscall name 'x-y'\n"


def test_train_without_counts_reads_and_checks_the_whole_file(tmp_path, capsys):
    trace = tmp_path / "ab.trace"
    names = ["a", "b"] * 20
    names[17] = "x-y"
    trace.write_text("".join(f"{n}\n" for n in names))
    code, out, err = run(capsys, "train", str(trace), "--model", str(tmp_path / "m"),
                         "--epoch-size", "4", "--window", "2")
    assert code == 1
    assert err == f"boscids train: error: {trace}: line 18: invalid syscall name 'x-y'\n"


def _traced_peak(argv):
    """Exit status and tracemalloc peak of one in-process CLI run."""
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([str(a) for a in argv])
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _cycle_trace(path, epochs, S=5000):
    # One 20-call cycle over 8 names: every epoch holds the same bags. Even 4
    # epochs fill more than one block of the reader, whose lines peak alike.
    cycle = [f"syscall_number_{i % 8}" for i in range(20)]
    path.write_text("".join(f"{cycle[i % 20]}\n" for i in range(epochs * S)))


def test_train_counts_and_detect_memory_is_flat_in_trace_length(tmp_path):
    # All hold one epoch at a time, train without --counts in its counting
    # pass too: 40 epochs of 5,000 calls peak within 64 KiB of 4 epochs,
    # where a whole trace of int32 codes and int64 slots would add about 2 MiB.
    counts = tmp_path / "t.counts"
    counts.write_text("".join(f"syscall_number_{i}\t1000\n" for i in range(8)))
    peaks = {}
    for epochs in (4, 40):
        trace, model = tmp_path / f"{epochs}.trace", tmp_path / f"{epochs}.model"
        _cycle_trace(trace, epochs)
        code, peaks["train", epochs] = _traced_peak(["train", trace, "--counts", counts, "--model", model])
        assert code == 0  # converged at epoch 3
        code, peaks["train, counting", epochs] = _traced_peak(["train", trace, "--model", model])
        assert code == 0
        code, peaks["detect", epochs] = _traced_peak(["detect", trace, "--model", tmp_path / "4.model",
                                                       "--report", tmp_path / "r"])
        assert code == 0
    for cmd in ("train", "train, counting", "detect"):
        assert peaks[cmd, 40] < peaks[cmd, 4] + 64 * 1024, peaks


def test_train_without_counts_refuses_a_pipe_before_reading_it(tmp_path):
    # The counting pass and the training pass each open the trace, and a
    # pipe's second open would block. Run apart, so a blocked open times out.
    fifo, model = tmp_path / "t.trace", tmp_path / "m.model"
    os.mkfifo(fifo)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-m", "boscids.cli", "train", str(fifo), "--model", str(model)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == (f"boscids train: error: trace: {fifo} is not a regular file; "
                           "train reads it twice, or once with --counts\n")
    assert [f.name for f in tmp_path.iterdir()] == ["t.trace"]


def test_ingest_memory_is_flat_in_capture_length(tmp_path):
    # ingest holds one block and the distinct names: 40,000 lines peak within
    # 64 KiB of 4,000, where an int32 code per call would add about 156 KiB.
    names = ["openat", "read", "mmap", "close", "futex", "epoll_wait", "write", "brk"]
    peaks = {}
    for n in (4_000, 40_000):
        capture = tmp_path / f"{n}.strace"
        capture.write_text("".join(f'[pid  4242] {names[i % 8]}(AT_FDCWD, "/usr/lib/libc.so", 3) = 3\n'
                                   for i in range(n)))
        code, peaks[n] = _traced_peak(["ingest", capture, "--trace-out", tmp_path / "t",
                                       "--count-out", tmp_path / "c"])
        assert code == 0
    assert peaks[40_000] < peaks[4_000] + 64 * 1024, peaks


def test_ingest_trace_out_may_name_its_input(tmp_path, capsys, monkeypatch):
    # The outputs replace their paths only after the whole capture is read,
    # so a small BLOCK, which has ingest write while it reads, truncates nothing.
    monkeypatch.setattr(boscids.trace_ingest, "BLOCK", 7)
    capture = tmp_path / "cap.strace"
    capture.write_bytes((FIXTURES / "mixed.strace").read_bytes())
    code, out, _ = run(capsys, "ingest", str(capture), "--trace-out", str(capture),
                       "--count-out", str(tmp_path / "cap.counts"))
    assert code == 0 and "195 calls, 20 distinct" in out
    assert capture.read_bytes() == (FIXTURES / "mixed.expected.trace").read_bytes()
    assert (tmp_path / "cap.counts").read_bytes() == (FIXTURES / "mixed.expected.counts").read_bytes()
    assert sorted(f.name for f in tmp_path.iterdir()) == ["cap.counts", "cap.strace"]


def test_ingest_failure_leaves_no_output(tmp_path, capsys):
    capture = tmp_path / "s.strace"
    capture.write_bytes((FIXTURES / "mixed.strace").read_bytes())
    code, _, err = run(capsys, "ingest", str(capture), "--trace-out", str(tmp_path / "t.trace"),
                       "--count-out", str(tmp_path / "nodir" / "c.counts"))
    assert code == 1
    assert err == (f"boscids ingest: error: [Errno 2] No such file or directory: "
                   f"'{tmp_path / 'nodir' / 'c.counts'}'\n")
    assert [f.name for f in tmp_path.iterdir()] == ["s.strace"]


def _fails_after_writing(path, *args):
    """A writer that leaves partial output, then fails as a full disk does."""
    Path(path).write_bytes(b"partial")
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_train_failure_leaves_the_old_model(tmp_path, capsys, monkeypatch):
    from boscids import trainer

    model, _ = ab_model_and_bad_trace(tmp_path, capsys)
    before = model.read_bytes()
    monkeypatch.setattr(trainer, "save_model", lambda m, path: _fails_after_writing(path))
    code, out, err = run(capsys, "train", str(tmp_path / "ab.trace"), "--model", str(model),
                         "--epoch-size", "4", "--window", "2")
    assert code == 1 and "No space left on device" in err
    assert "model:" not in out
    assert model.read_bytes() == before
    assert sorted(f.name for f in tmp_path.iterdir()) == ["ab.model", "ab.trace", "bad.trace"]
    code, _, _ = run(capsys, "train", str(tmp_path / "ab.trace"), "--model", str(tmp_path / "nodir" / "m"),
                     "--epoch-size", "4", "--window", "2")
    assert code == 1 and not (tmp_path / "nodir").exists()


def test_detect_report_failure_leaves_the_old_report(tmp_path, capsys, monkeypatch):
    from boscids import detector

    model, bad = ab_model_and_bad_trace(tmp_path, capsys)
    report = tmp_path / "bad.report"
    assert run(capsys, "detect", str(bad), "--model", str(model), "--report", str(report))[0] == 2
    before = report.read_bytes()
    monkeypatch.setattr(detector, "write_report_file", lambda r, path: _fails_after_writing(path))
    code, out, err = run(capsys, "detect", str(bad), "--model", str(model), "--report", str(report))
    assert code == 1 and "No space left on device" in err
    assert "report:" not in out
    assert report.read_bytes() == before
    assert sorted(f.name for f in tmp_path.iterdir()) == ["ab.model", "ab.trace", "bad.report", "bad.trace"]


def test_gen_failure_leaves_no_output(tmp_path, capsys, monkeypatch):
    from boscids import evaluator

    out_path = tmp_path / "g.trace"
    out_path.write_bytes(b"old\n")
    gen = ("gen", "--calls", "10000", "--out", str(out_path))
    code, out, err = run(capsys, *gen, "--labels", str(tmp_path / "nodir" / "l.labels"))
    assert code == 1
    assert err == (f"boscids gen: error: [Errno 2] No such file or directory: "
                   f"'{tmp_path / 'nodir' / 'l.labels'}'\n")
    assert out == ""
    labels = tmp_path / "g.labels"
    monkeypatch.setattr(evaluator, "write_labels", lambda labs, path: _fails_after_writing(path))
    code, out, _ = run(capsys, *gen, "--labels", str(labels))
    assert code == 1 and out == ""
    assert out_path.read_bytes() == b"old\n"
    assert [f.name for f in tmp_path.iterdir()] == ["g.trace"]


def test_a_model_being_loaded_is_read_whole_while_train_replaces_it(tmp_path, capsys, monkeypatch):
    # train puts a new file in place, so a load it overtakes goes on reading
    # the file it opened.
    from boscids import trainer

    model, _ = ab_model_and_bad_trace(tmp_path, capsys)
    before = model.read_bytes()
    parse_model = trainer._parse_model

    def retrain_then_parse(rd):
        code, _, _ = run(capsys, "train", str(tmp_path / "ab.trace"), "--model", str(model),
                         "--epoch-size", "4", "--window", "2", "--detect-fraction", "0.5")
        assert code == 0
        return parse_model(rd)

    monkeypatch.setattr(trainer, "_parse_model", retrain_then_parse)
    assert trainer.load_model(model).config.detect_threshold_fraction == 0.1
    assert model.read_bytes() != before


def test_ingest_writes_through_links_pipes_and_stale_files(tmp_path, capsys):
    # A symlink keeps pointing at its file, a pipe is written in place, and a
    # leftover of a killed run under the first new-file name is left alone.
    capture = FIXTURES / "mixed.strace"
    link, real, fifo = tmp_path / "link.trace", tmp_path / "real.trace", tmp_path / "fifo"
    link.symlink_to(real)
    os.mkfifo(fifo)
    stale = tmp_path / f".real.trace.{os.getpid()}-0.tmp"
    stale.write_bytes(b"stale")
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        code, _, _ = run(capsys, "ingest", str(capture), "--trace-out", str(link), "--count-out", str(fifo))
        assert code == 0
        assert stat.S_ISFIFO(fifo.lstat().st_mode)
        assert os.read(reader, 1 << 16) == (FIXTURES / "mixed.expected.counts").read_bytes()
    finally:
        os.close(reader)
    assert link.is_symlink() and real.read_bytes() == (FIXTURES / "mixed.expected.trace").read_bytes()
    assert stale.read_bytes() == b"stale"
    assert sorted(f.name for f in tmp_path.iterdir()) == [stale.name, "fifo", "link.trace", "real.trace"]


def test_two_outputs_that_name_one_file_are_refused(tmp_path, capsys):
    # Checked before any file is made; a symlink names its file, and an
    # output that is not a regular file may still be written twice.
    capture = tmp_path / "cap.txt"
    capture.write_bytes((FIXTURES / "mixed.strace").read_bytes())
    same, alias = tmp_path / "same.out", tmp_path / "alias.out"
    alias.symlink_to(same.name)
    gen = ("gen", "--calls", "10", "--epoch-size", "5")
    for a, b in ((same, same), (same, alias), (alias, same)):
        for before in (None, b"old\n"):
            if before is not None:
                same.write_bytes(before)
            for name, argv in (("ingest", ("ingest", str(capture), "--trace-out", str(a), "--count-out", str(b))),
                               ("gen", (*gen, "--out", str(a), "--labels", str(b)))):
                code, out, err = run(capsys, *argv)
                assert code == 1 and out == ""
                assert err == f"boscids {name}: error: outputs {a} and {b} name the same file\n"
                assert sorted(f.name for f in tmp_path.iterdir()) == sorted(
                    ["cap.txt", "alias.out"] + (["same.out"] if before else []))
                if before is not None:
                    assert same.read_bytes() == before
            same.unlink(missing_ok=True)
    code, _, _ = run(capsys, "ingest", str(capture), "--trace-out", os.devnull, "--count-out", os.devnull)
    assert code == 0
    assert run(capsys, *gen, "--out", os.devnull, "--labels", os.devnull)[0] == 0


def test_gen_refuses_a_nan_skew_and_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "g.trace"
    for flag, value, message in (("--zipf-s", "nan", "zipf_s must be non-negative"),
                                 ("--seed", "-1", "seed must be a non-negative integer")):
        code, stdout, err = run(capsys, "gen", "--calls", "20", "--out", str(out), flag, value)
        assert code == 1 and stdout == ""
        assert err == f"boscids gen: error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_detect_scans_one_trace_on_the_calling_thread(tmp_path, capsys, monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    model, bad = ab_model_and_bad_trace(tmp_path, capsys)
    code, out, _ = run(capsys, "detect", str(bad), "--model", str(model), "--jobs", "2")
    assert code == 2 and "anomalous_epochs=1" in out
