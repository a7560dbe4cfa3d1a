import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    assert "empty trace" in err


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


def test_import_cli_leaves_generator_and_hashlib_unloaded():
    # Only gen needs numpy.random; ingest, train, detect and eval should not
    # pay its import time and memory.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    probe = "import sys, boscids.cli; print(sorted({'numpy.random', 'hashlib'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
