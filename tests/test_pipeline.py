"""The whole CLI pipeline against the benchmark's independent oracle.

gen writes a training trace, which is rendered as strace text and ingested;
train learns from the ingested trace; detect scans a second, injected gen
trace; eval scores the report against gen's labels. Every output is checked
against perfbench/oracle.py, which recomputes it from the documented formats
without importing boscids. The epoch-streaming commands, `train` (with and
without `--counts`) and `detect`, are also checked against the library run
on the whole trace.
"""

import importlib.util
import io
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from boscids.bosc import Config
from boscids.cli import main
from boscids.detector import detect, write_report_file
from boscids.trace_ingest import CountTable, read_count_file, read_trace_file, write_count_file
from boscids.trainer import load_model, save_model, train

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _load("oracle")
strace_render = _load("strace_render")


def test_benchmark_hooks_resolve_but_the_two_deleted():
    # The benchmark times functions it looks up by name; a renamed one would
    # silently drop its per-layer metric. Only the two spans removed with the
    # snapshot/db_diff path are known to be gone.
    spans = _load("spans")
    missing = []
    for module_name, attr, _ in spans.TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert missing == ["boscids.bosc.BehaviorDb.snapshot", "boscids.trainer.db_diff"]


def run(*argv):
    with redirect_stdout(io.StringIO()) as out:
        code = main([str(a) for a in argv])
    return code, out.getvalue()


@st.composite
def pipelines(draw):
    w = draw(st.integers(2, 6))
    S = draw(st.integers(w, 60))
    n_test = draw(st.integers(1, 6))
    return {
        "w": w,
        "S": S,
        "alphabet": draw(st.integers(2, 24)),
        "zipf_s": draw(st.sampled_from([0.0, 0.5, 1.2, 2.5])),
        "seed": draw(st.integers(0, 2**16)),
        "n_train": draw(st.integers(2, 8)),
        "n_test": n_test,
        "inject": draw(st.sets(st.integers(0, n_test - 1))),
        "mode": draw(st.sampled_from(["novel_names", "shuffled_transitions", "burst_repeat"])),
        "counts": draw(st.booleans()),
    }


@settings(max_examples=20, deadline=None)
@given(p=pipelines())
def test_pipeline_matches_oracle(p):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        source = ["--alphabet-size", p["alphabet"], "--zipf-s", p["zipf_s"], "--epoch-size", p["S"]]
        assert run("gen", "--calls", p["n_train"] * p["S"], "--out", d / "normal.trace",
                   "--seed", p["seed"], *source)[0] == 0
        inject = ["--inject-epochs", ",".join(map(str, sorted(p["inject"]))),
                  "--inject-mode", p["mode"]] if p["inject"] else []
        assert run("gen", "--calls", p["n_test"] * p["S"], "--out", d / "test.trace",
                   "--labels", d / "test.labels", "--seed", p["seed"] + 1, *source, *inject)[0] == 0

        strace_render.render_file(d / "normal.trace", d / "normal.strace", p["seed"])
        assert run("ingest", d / "normal.strace", "--trace-out", d / "train.trace",
                   "--count-out", d / "train.counts")[0] == 0
        names = oracle.read_names(d / "normal.trace")
        assert (d / "train.trace").read_bytes() == (d / "normal.trace").read_bytes()
        assert (d / "train.counts").read_bytes() == oracle.count_file_bytes(oracle.count_entries(names))

        counts = ["--counts", d / "train.counts"] if p["counts"] else []
        code, _ = run("train", d / "train.trace", "--model", d / "m.model",
                      "--window", p["w"], "--epoch-size", p["S"], *counts)
        assert code in (0, 3)  # 3: not converged, the model is still written
        model = oracle.parse_model(d / "m.model")
        assert oracle.check_model(model, names) == []

        assert run("detect", d / "test.trace", "--model", d / "m.model",
                   "--report", d / "test.report")[0] in (0, 2)
        rows = oracle.report_rows(model, oracle.read_names(d / "test.trace"))
        assert oracle.check_report((d / "test.report").read_text(), rows) == []

        code, out = run("eval", "--report", d / "test.report", "--labels", d / "test.labels")
        assert code == 0
        want = oracle.eval_counts([rows], [oracle.read_labels(d / "test.labels")])
        got = oracle.parse_eval(out)
        assert {k: got.get(k) for k in want} == {k: str(v) for k, v in want.items()}


@st.composite
def streams(draw):
    """A training trace whose later epochs bring new names, a count table
    that may lack some of its names, and a suspect trace with names the table
    lacks; an epoch's edge may fall anywhere in a window."""
    w = draw(st.integers(1, 6))
    S = draw(st.integers(w, 40))
    base, grow = draw(st.integers(1, 6)), draw(st.integers(0, 3))

    def names(n, extra):  # epoch e draws from the first base + extra + grow * e names
        raw = draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n))
        return [f"n{x % (base + extra + grow * (i // S))}" for i, x in enumerate(raw)]

    train_names = names(draw(st.integers(2, 8)) * S + draw(st.integers(0, S - 1)), 0)
    # Names without a slot (count below the number of distinct names) may be
    # swapped for names the trace lacks, with a count of 1: the slots stay
    # the same, and the swapped names resolve to OTHER through their absence.
    entries = oracle.count_entries(train_names)
    rare = [n for n, c in entries if c < len(entries)]
    gone = draw(st.sets(st.sampled_from(rare))) if rare else set()
    counts = {n: c for n, c in entries if n not in gone} | {f"z{i}": 1 for i in range(len(gone))}
    return {
        "w": w, "S": S, "train": train_names, "counts": counts,
        "suspect": names(draw(st.integers(w, 6 * S)), 2),
        "tt": draw(st.floats(0.05, 1.0)), "frac": draw(st.floats(0.01, 1.0)),
    }


@settings(max_examples=40, deadline=None)
@given(s=streams())
def test_streamed_train_and_detect_equal_the_whole_trace_and_the_oracle(s):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for name, calls in (("train", s["train"]), ("suspect", s["suspect"])):
            (d / f"{name}.trace").write_text("".join(f"{n}\n" for n in calls), encoding="ascii")
        write_count_file(CountTable.from_counts(s["counts"]), d / "train.counts")
        config = Config(s["w"], s["S"], s["tt"], s["frac"])
        flags = ["--window", s["w"], "--epoch-size", s["S"], "--train-threshold", s["tt"],
                 "--detect-fraction", s["frac"]]

        code, out = run("train", d / "train.trace", "--counts", d / "train.counts",
                        "--model", d / "stream.model", *flags)
        assert code in (0, 3)
        assert ("neither read nor checked" in out) == (code == 0)
        whole = train(read_trace_file(d / "train.trace"), read_count_file(d / "train.counts"), config)
        save_model(whole, d / "whole.model")
        assert (d / "stream.model").read_bytes() == (d / "whole.model").read_bytes()
        # Without --counts, a counting pass reads every line first.
        code, out = run("train", d / "train.trace", "--model", d / "counted.model", *flags)
        assert code in (0, 3) and "neither read nor checked" not in out
        save_model(train(read_trace_file(d / "train.trace"), config=config), d / "whole.model")
        assert (d / "counted.model").read_bytes() == (d / "whole.model").read_bytes()
        model = oracle.parse_model(d / "stream.model")
        assert oracle.check_model(model, s["train"]) == []

        assert run("detect", d / "suspect.trace", "--model", d / "stream.model",
                   "--report", d / "stream.report")[0] in (0, 2)
        write_report_file(detect(load_model(d / "stream.model"), read_trace_file(d / "suspect.trace")),
                          d / "whole.report")
        text = (d / "stream.report").read_text()
        assert text == (d / "whole.report").read_text()
        assert oracle.check_report(text, oracle.report_rows(model, s["suspect"])) == []
