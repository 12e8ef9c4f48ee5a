"""The parse of ``cli.run`` against a reference argparse parse.

A call takes one of two routes: a plain call of a subcommand, every string
after the name an exact long option given once, is read straight from the
table ``cli._COMMANDS``; every other call goes to argparse's full parse,
``cli.build_parser().parse_args(argv)``.  The reference is
``reference_parser()`` below, the parser as it was built before that table
existed, with one ``add_argument`` call per flag, so the table is checked
against independent code and not against itself.  Each case runs
``cli.run`` both ways and compares exit code, stdout and stderr.  The cases
are the golden CLI calls, the recorded cli-session calls of the benchmark
(read only), the seeded corpus of ``test_cli_fuzz.py`` and hand cases
around help, unknown names, abbreviations, repeats, values starting with
``-``, ``--``, leftover strings, conversions and choices.  The help text of
the top-level parser and of each subcommand's parser must also match the
reference's byte for byte, at a fixed terminal width.

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
import functools
import io
import json
import os
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


# The shared flags as ``cli`` once declared them.
SHARED_FLAGS = {
    "--type": {"required": True, "help": "affine type, e.g. A2^1"},
    "--q": {"help": 'Q-datum JSON, e.g. {"xi":{"1":0,"2":1}}'},
    "--datum": {"help": "datum JSON (inline or @file); its affine type must be --type"},
    "--denoms": {"help": "denominator table JSON (inline or @file)"},
    "--facts": {"help": "fusion facts JSON (inline or @file)"},
}


@functools.cache
def reference_parser() -> argparse.ArgumentParser:
    """The argument parser of every subcommand, built call by call with
    ``add_argument`` as ``cli.build_parser`` once built it."""
    parser = argparse.ArgumentParser(
        prog="qaffpbw",
        description="label-level PBW combinatorics for quantum affine algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text, *shared):
        p = sub.add_parser(name, help=help_text)
        for flag in shared:
            p.add_argument(flag, **SHARED_FLAGS[flag])
        p.set_defaults(func=func)
        return p

    p = command("roots", cli._cmd_roots, "beta sequences and w0 data of a finite type")
    p.add_argument("--fin", required=True, help="finite type, e.g. A3")
    p.add_argument("--word", help="comma-separated reduced word")

    p = command("adapted", cli._cmd_adapted, "check or enumerate adapted words", "--type", "--q")
    p.add_argument("--word", help="word to check; omit to enumerate")

    p = command(
        "phi", cli._cmd_phi, "label map of a Q-datum along an adapted word", "--type", "--q"
    )
    p.add_argument("--word", help="adapted word; omit for the canonical one")

    command(
        "datum-from-q", cli._cmd_datum_from_q, "canonical duality datum of a Q-datum",
        "--type", "--q", "--denoms",
    )

    p = command(
        "reflect", cli._cmd_reflect, "apply a reflection to a duality datum",
        "--type", "--q", "--datum", "--denoms", "--facts",
    )
    p.add_argument("--node", type=int, required=True)
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--times", type=cli._times, default=1)

    p = command(
        "cuspidal", cli._cmd_cuspidal, "materialize a cuspidal sequence window",
        "--type", "--q", "--datum", "--denoms", "--facts",
    )
    p.add_argument("--word", required=True)
    p.add_argument("--range", required=True, help="e.g. 1..6")

    p = command(
        "invariant", cli._cmd_invariant, "pairing invariants between labels", "--type", "--denoms"
    )
    p.add_argument("--kind", choices=sorted(cli._INVARIANT_KINDS), required=True)
    p.add_argument("--x", required=True, help="label i,p")
    p.add_argument("--y", required=True, help="label i,p")
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = command(
        "decompose", cli._cmd_decompose, "cuspidal decomposition of a multiset", "--type", "--q"
    )
    p.add_argument("--word", help="adapted word; omit for the canonical one")
    p.add_argument("--multiset", required=True, help="[[i,p],...] (inline or @file)")

    p = command("compare", cli._cmd_compare, "bi-lexicographic comparison")
    p.add_argument("--a", required=True, help="exponent vector JSON")
    p.add_argument("--b", required=True, help="exponent vector JSON")

    p = command(
        "sigma-quiver", cli._cmd_sigma_quiver, "the quiver on sigma0 in a window",
        "--type", "--denoms",
    )
    p.add_argument("--window", required=True, help="e.g. 0..6")
    p.add_argument("--format", choices=("json", "dot"), default="json")

    p = command(
        "check-strong", cli._cmd_check_strong, "verify the strong-datum axioms",
        "--type", "--denoms",
    )
    p.add_argument("--datum", required=True, help=SHARED_FLAGS["--datum"]["help"])

    command("verify-examples", cli._cmd_verify_examples, "run the built-in example corpus")
    return parser


def _full_parse(argv):
    return reference_parser().parse_args(argv)


def help_texts(parser: argparse.ArgumentParser) -> dict[str, str]:
    """The help text of ``parser`` and of each of its subcommands, by name
    ("" for the top level), at a fixed terminal width."""
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        texts = {"": parser.format_help()}
        texts.update((name, p.format_help()) for name, p in commands.choices.items())
    finally:
        if saved is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved
    return texts


def help_differences() -> list[str]:
    """The parsers, by subcommand name ("" for the top level), whose help text
    differs between ``cli.build_parser()`` and the reference."""
    got, expected = help_texts(cli.build_parser()), help_texts(reference_parser())
    assert len(expected) == 13
    names = got.keys() | expected.keys()
    return sorted(name for name in names if got.get(name) != expected.get(name))


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


def test_help_texts_match_the_reference():
    assert help_differences() == []


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
    helps = help_differences()
    print(f"help: 13 parsers, {len(helps)} differ")
    for name in helps:
        print(f"  help differs: {name or 'top level'}")
    failed |= bool(helps)
    print(f"Python {sys.version.split()[0]}: {'FAIL' if failed else 'ok'}")
    sys.exit(1 if failed else 0)
