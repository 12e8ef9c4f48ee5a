"""Golden CLI outputs: exit code and stdout of fixed requests, byte for byte.

The expected outputs live in ``tests/data/golden_cli.json``.  Rebuild them
only when a change of output is intended:

    PYTHONPATH=src python3 tests/test_golden_cli.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from functools import lru_cache
from pathlib import Path

from qaffpbw.cli import run

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_cli.json"

# (affine type, Q-datum heights, a reduced word of w0 other than the adapted one)
QDATA = (
    ("A2^1", (0, 1), "2,1,2"),
    ("A2^1", (0, -1), "1,2,1"),
    ("A3^1", (0, 1, 0), "1,2,1,3,2,1"),
    ("A3^1", (0, -1, -2), "2,1,2,3,2,1"),
    ("A4^1", (0, 1, 0, 1), "1,2,1,3,2,1,4,3,2,1"),
    ("A4^1", (0, 1, 2, 3), "4,3,4,2,3,4,1,2,3,4"),
)
D4_QDATA = ((0, 1, 0, 0), (0, -1, -2, 0), (0, 1, 2, 2))


def _q(heights) -> str:
    return json.dumps({"xi": {str(i): h for i, h in enumerate(heights, start=1)}})


def requests() -> list[list[str]]:
    out: list[list[str]] = []
    for fin, words in (
        ("A2", ("1,2,1", "1,2", "1,1")),
        ("A3", ("1,2,1,3,2,1", "2,1,3,2", "1,2,2")),
        ("A4", ("1,2,1,3,2,1,4,3,2,1", "4,3,2,1", "1,2,1,2")),
        ("D4", ("1,2,1,3,2,1,4,2,1,3,2,4", "2,1,3,4", "2,2")),
    ):
        out.append(["roots", "--fin", fin])
        out += [["roots", "--fin", fin, "--word", w] for w in words]
    for typ, heights, other in QDATA:
        q = _q(heights)
        out.append(["adapted", "--type", typ, "--q", q])
        out.append(["adapted", "--type", typ, "--q", q, "--word", other])
        out.append(["phi", "--type", typ, "--q", q])
        out.append(["datum-from-q", "--type", typ, "--q", q])
        for node in (1, 2):
            out.append(["reflect", "--type", typ, "--q", q, "--node", str(node), "--times", "3"])
        out.append(
            ["reflect", "--type", typ, "--q", q, "--node", "1", "--inverse", "--times", "3"]
        )
        out.append(["cuspidal", "--type", typ, "--q", q, "--word", other, "--range=-6..12"])
    for heights in D4_QDATA:
        q = _q(heights)
        out.append(["adapted", "--type", "D4^1", "--q", q])
        out.append(["phi", "--type", "D4^1", "--q", q])
    for typ, members in (
        ("A2^1", {"1": [1, 0], "2": [1, 2]}),
        ("A2^1", {"1": [1, 0], "2": [1, 4]}),
        ("A3^1", {"1": [1, 0], "2": [2, 3], "3": [3, 0]}),
        ("A3^1", {"1": [1, 4], "2": [2, 3], "3": [3, 0]}),
        ("A4^1", {"1": [1, 0], "2": [2, 3], "3": [3, 2], "4": [4, 5]}),
    ):
        datum = {"affine": typ, "members": {i: {"fund": p} for i, p in members.items()}}
        out.append(["check-strong", "--type", typ, "--datum", json.dumps(datum)])
    return out


def invoke(argv) -> dict:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = run(list(argv))
    return {"argv": list(argv), "code": code, "stdout": stdout.getvalue()}


@lru_cache(maxsize=None)
def _golden() -> tuple[dict, ...]:
    return tuple(json.loads(GOLDEN.read_text())["calls"])


REQUESTS = requests()


def test_golden_requests_are_recorded():
    assert [entry["argv"] for entry in _golden()] == REQUESTS


if __name__ == "__main__":
    calls = [invoke(argv) for argv in REQUESTS]
    GOLDEN.write_text(json.dumps({"calls": calls}, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(calls)} calls to {GOLDEN}", file=sys.stderr)
else:  # only this test needs pytest, so the recording above runs without it
    import pytest

    @pytest.mark.parametrize(
        "n", range(len(REQUESTS)), ids=[f"{n}-{argv[0]}" for n, argv in enumerate(REQUESTS)]
    )
    def test_golden_cli_output(n):
        assert invoke(REQUESTS[n]) == _golden()[n]
