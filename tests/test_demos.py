"""Each demo prints exactly its recorded output.

``data/demos/<name>.txt`` holds the stdout of ``demos/<name>.py``; a change
that alters a demo's output on purpose records it again with

    PYTHONPATH=src python3 demos/<name>.py > tests/data/demos/<name>.txt
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDED = ROOT / "tests" / "data" / "demos"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_recorded():
    assert [d.stem for d in DEMOS] == sorted(r.stem for r in RECORDED.glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, env=env, timeout=60, check=False
    )
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout == (RECORDED / f"{demo.stem}.txt").read_bytes()
