"""Each narrative script under demos/ runs to completion and prints what it
printed when its digest was pinned."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout. A change that alters what a demo prints
# re-pins its digest and says why.
STDOUT_SHA256 = {
    "01_ingest_strace.py": "c8fe1fefe763a20f77f826598700eb689b8e33d585201f42afab1fc6ae91159d",
    "02_bags_and_windows.py": "036a3ab79c34b8dfc47951cc9baa567811da08c843752cb47a8bb1ab329e382f",
    "03_train_and_detect.py": "0cbff2ace90f2b80965e39af07df8866619d8728b63d76fd03cb5608b6c73ce6",
    "04_threshold_tradeoff.py": "612df642335c5593d22a711b6f78d1a9cfd7567719cf269704fbab0bf8422391",
}


def test_demos_found():
    assert DEMOS, "no demos/*.py next to tests/"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_0(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == STDOUT_SHA256[demo.name]
