"""The parse of ``cli.run`` against argparse's full parse.

A plain call of a subcommand, every string after the name an exact long
option given once, is read straight from that subcommand's option table;
any other call naming a subcommand goes to that subcommand's parser.  The
reference is ``build_parser().parse_args(argv)``, in which the top-level
parser scans the strings and its subparser action then runs the same
subcommand parser on them.  Each case runs ``cli.run`` both ways and
compares exit code, stdout and stderr.  The cases are the golden CLI calls,
the recorded cli-session calls of the benchmark (read only), the seeded
corpus of ``test_cli_fuzz.py`` and hand cases around help, unknown names,
abbreviations, repeats, values starting with ``-``, ``--``, leftover
strings, conversions and choices.

Every golden and recorded call that argparse parses without help or a usage
error must also be read plain, with no ``parse_known_args`` call and the
namespace argparse gives, so a change that quietly sends such calls back
through argparse fails here.

argparse's handling of these cases has changed between Python releases, so
the module also runs without pytest, on any supported Python:

    PYTHONPATH=src python3 tests/test_cli_parse_differential.py
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from test_cli_fuzz import corpus

from qaffpbw import affine, cli

ROOT = Path(__file__).resolve().parents[1]
ONE_PASS = cli._parse

Q_A2 = '{"xi":{"1":0,"2":1}}'
REFLECT = ["reflect", "--type", "A2^1", "--q", Q_A2, "--node", "1"]
INVARIANT = ["invariant", "--type", "A2^1", "--kind", "d", "--y", "1,2"]
HAND_CASES = [
    [],
    ["-h"],
    ["--help"],
    ["no-such-command"],
    ["no-such-command", "--fin", "A2"],
    ["-x", "roots"],
    ["-x", "roots", "--fin", "A2"],
    ["--fin", "A2", "roots"],
    ["-h", "roots"],
    ["--", "roots", "--fin", "A2"],
    ["roots"],
    ["roots", "-h"],
    ["roots", "--help"],
    ["roots", "--fin", "A2", "-h"],
    ["roots", "--fin", "A2", "junk"],
    ["roots", "--fin", "A2", "junk", "--word", "1,2,1", "more"],
    ["roots", "--fin", "A2", "--no-such-flag", "1"],
    ["roots", "--fin", "A2", "--"],
    ["roots", "--", "--fin", "A2"],
    ["roots", "--fin", "A2", "--", "junk"],
    ["roots", "--fin", "A2", "--", "--word", "1,2,1"],
    ["phi", "--type", "A2^1", "--q", Q_A2, "--", "--word", "1,2,1"],
    ["roots", "--fi", "A2"],
    ["roots", "--f", "A2"],
    ["cuspidal", "--type", "A2^1", "--d", "{}", "--word", "1", "--range", "1..1"],
    ["roots", "--fin=A2"],
    ["roots", "--fi=A2", "--wo=1,2,1"],
    ["roots", "--fin", "A2", "--fin", "A3"],
    ["reflect", "--type", "A2^1", "--q", Q_A2, "--node", "1", "--inverse", "--inverse"],
    ["sigma-quiver", "--type", "A2^1", "--window", "0..3", "--format", "dot", "--format", "json"],
    INVARIANT + ["--x", "-1,0"],
    INVARIANT + ["--x=-1,0"],
    INVARIANT + ["--x", "1,0", "--format", "text", "--format"],
    ["invariant", "--kind", "nope"],
    ["reflect", "--type", "A2^1", "--q", Q_A2, "--node", "1", "--times", "x"],
    ["verify-examples", "extra"],
    ["verify-examples", "-h"],
    ["roots,", "--fin", "A2"],
    ["Roots", "--fin", "A2"],
    ["root", "--fin", "A2"],
    REFLECT + ["--inverse=1"],
    REFLECT + ["--times", "99999"],
    REFLECT + ["--times", " 2"],
    REFLECT[:-1] + [" 1"],
    REFLECT[:-1] + ["-1"],
    ["roots", "--fin="],
    ["roots", "--fin", ""],
    ["roots", "--fin", "A2", "--word"],
    ["phi", "--type", "A2^1", f"--q={Q_A2}", "--word=1,2,1"],
    ["invariant", "--type", "A2^1", "--kind=nope", "--x", "1,0", "--y", "1,2"],
    ["roots", "--fin=A2", "--fin", "A3"],
    ["roots", "--fin", "-A2"],
    ["roots", "--fin", "A2", "--word", "-1"],
]


def golden_calls() -> list[list[str]]:
    calls = json.loads((ROOT / "tests" / "data" / "golden_cli.json").read_text())["calls"]
    return [call["argv"] for call in calls]


def session_calls() -> list[list[str]]:
    calls = json.loads((ROOT / "bench" / "data" / "cli_session.json").read_text())["calls"]
    return [call["argv"] for call in calls]


def fuzz_calls() -> list[list[str]]:
    return [argv for _, argv, _ in corpus()]


# name: (cases, expected count); the count guards against a corpus that shrank
CASE_SETS = {
    "golden": (golden_calls, 75),
    "cli-session": (session_calls, 159),
    "fuzz": (fuzz_calls, 2400),
    "hand": (lambda: HAND_CASES, 53),
}
# name: how many of its calls argparse parses without help or a usage error
ACCEPTED = {"golden": 75, "cli-session": 157}


def _full_parse(argv):
    return cli.build_parser().parse_args(argv)


def outcome(argv, parse) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``cli.run(argv)`` with ``parse`` as its
    parse step, from the denominator tables registered before the call."""
    saved = dict(affine._EXTERNAL_TABLES)
    out, err = io.StringIO(), io.StringIO()
    cli._parse = parse
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(list(argv))
    finally:
        cli._parse = ONE_PASS
        affine._EXTERNAL_TABLES.clear()
        affine._EXTERNAL_TABLES.update(saved)
    return code, out.getvalue(), err.getvalue()


def differences(cases) -> list[tuple[list[str], tuple, tuple]]:
    found = []
    for argv in cases:
        got, expected = outcome(argv, ONE_PASS), outcome(argv, _full_parse)
        if got != expected:
            found.append((argv, got, expected))
    return found


def not_read_plain(cases) -> tuple[int, list[list[str]]]:
    """How many calls argparse parses without help or a usage error, and
    those of them that ``cli._parse`` reads otherwise than plain: through a
    ``parse_known_args`` call or into another namespace."""
    accepted, found, reached = 0, [], []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        reached.append(self)
        return parse_known_args(self, *args, **kwargs)

    for argv in cases:
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                expected = _full_parse(list(argv))
        except SystemExit:
            continue
        accepted += 1
        reached.clear()
        argparse.ArgumentParser.parse_known_args = counted
        try:
            got = ONE_PASS(list(argv))
        finally:
            argparse.ArgumentParser.parse_known_args = parse_known_args
        if reached or got != expected:
            found.append(argv)
    return accepted, found


def _check(name: str) -> None:
    cases, count = CASE_SETS[name]
    argvs = cases()
    assert len(argvs) == count
    assert differences(argvs) == []


def test_every_call_argparse_accepts_is_read_plain():
    for name, count in ACCEPTED.items():
        assert not_read_plain(CASE_SETS[name][0]()) == (count, [])


def test_golden_calls_parse_alike():
    _check("golden")


def test_recorded_session_calls_parse_alike():
    _check("cli-session")


def test_fuzz_corpus_parses_alike():
    _check("fuzz")


def test_hand_cases_parse_alike():
    _check("hand")


if __name__ == "__main__":
    failed = False
    for name, (cases, count) in CASE_SETS.items():
        argvs = cases()
        found = differences(argvs)
        print(f"{name}: {len(argvs)} cases (expected {count}), {len(found)} differ")
        for argv, got, expected in found:
            print(f"  {argv!r}\n    one pass: {got!r}\n    full:     {expected!r}")
        failed |= bool(found) or len(argvs) != count
        if name in ACCEPTED:
            accepted, slow = not_read_plain(argvs)
            print(f"  {accepted} parse (expected {ACCEPTED[name]}), {len(slow)} not read plain")
            for argv in slow:
                print(f"  not read plain: {argv!r}")
            failed |= bool(slow) or accepted != ACCEPTED[name]
    print(f"Python {sys.version.split()[0]}: {'FAIL' if failed else 'ok'}")
    sys.exit(1 if failed else 0)
