"""The whole CLI pipeline against the benchmark's independent oracle.

gen writes a training trace, which is rendered as strace text and ingested;
train learns from the ingested trace; detect scans a second, injected gen
trace; eval scores the report against gen's labels. Every output is checked
against perfbench/oracle.py, which recomputes it from the documented formats
without importing boscids.
"""

import importlib.util
import io
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from boscids.cli import main

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
