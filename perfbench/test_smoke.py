"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload at --scale 0.05 and checks the output contract: each
end-to-end metric of BENCHMARK.json is printed with its unit, the result
line is well formed and correct, and in the traced run no thread's summed
span self time exceeds its command's wall time.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
from spans import self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(workload: str, trace: int) -> tuple[list[str], dict]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "0.05"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], out.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    return lines, result


def assert_printed(lines, metrics, result):
    for m in metrics:
        name, unit = m["name"], m["unit"]
        got = result["metrics"][name]
        assert got["unit"] == unit and isinstance(got["value"], (int, float)), name
        assert any(ln.startswith(f"metric {name} = ") and ln.endswith(f" {unit}") for ln in lines), name


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_metrics_printed_with_units(workload):
    lines, result = bench(workload, 0)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert_printed(lines, SPEC["end_to_end"], result)
    for name in ("fpr", "failed_ops_ratio"):
        assert any(ln.startswith(f"metric {name} = ") for ln in lines)
    assert result["metrics"]["ok_ops_ratio"]["value"] == 1.0


def test_traced_run_prints_per_layer_metrics():
    lines, result = bench("strace-early-stop", 1)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert_printed(lines, SPEC["per_layer"], result)
    assert any(ln == "spans_missing -" for ln in lines)


def test_span_self_times_within_command_wall(tmp_path):
    """Scans on --jobs 2 worker threads and load_model's nested insert_many
    calls must keep every thread's self-time sum within the command's wall."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def cli(*argv, spans=None):
        cmd = ([sys.executable, str(HERE / "traced_cli.py"), str(spans)] if spans
               else [sys.executable, "-m", "boscids.cli"])
        return subprocess.run(cmd + list(argv), cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=120).returncode

    assert cli("gen", "--calls", "20000", "--seed", "1", "--out", "n.trace") == 0
    assert cli("gen", "--calls", "10000", "--seed", "2", "--out", "a.trace") == 0
    assert cli("gen", "--calls", "10000", "--seed", "3", "--out", "b.trace") == 0
    for argv in (("train", "n.trace", "--model", "m", "--train-threshold", "1.0"),
                 ("detect", "a.trace", "b.trace", "--model", "m", "--jobs", "2")):
        spans = tmp_path / f"{argv[0]}.spans"
        cli(*argv, spans=spans)
        data = json.loads(spans.read_text())
        by_name, by_thread = self_times(data["spans"])
        assert by_name and not data["missing"] and not data["hook_errors"]
        for tid, busy in by_thread.items():
            assert 0 <= busy <= data["wall_s"], (argv[0], tid, busy, data["wall_s"])
        if argv[0] == "detect":
            main_thread = next(s[3] for s in data["spans"] if s[1] == "trainer.load_model")
            scan_threads = {s[3] for s in data["spans"] if s[1] == "detector.detect"}
            assert scan_threads and main_thread not in scan_threads
