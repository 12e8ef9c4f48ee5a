"""Seeded fuzz of the CLI contract: exit 0, 1 or 2 and never a traceback.

Each case takes one base request (all twelve subcommands are covered) and
applies one or two mutations: truncate a flag value, swap in a junk JSON
scalar, list or object, replace a field nested inside a JSON payload, or
drop a flag.  An exit 1 must put a JSON ``{"error": ...}`` on stderr, except
for ``check-strong``, whose failing report goes to stdout.  Stdout stays empty
on exit 2 and on every other exit 1, and an exit 0 prints one line of JSON
unless the call asks for text (``--format text|dot``, ``verify-examples``).
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

from qaffpbw import affine, cli

SEED = 20201
CASES = 2400

Q_A2 = '{"xi":{"1":0,"2":1}}'
Q_A3 = '{"xi":{"1":0,"2":1,"3":2}}'
DATUM_A2 = '{"affine":"A2^1","members":{"1":{"fund":[1,0]},"2":{"fund":[1,2]}}}'
FACTS_A2 = '{"type":"A2^1","facts":[{"head":[[1,0],[1,2]],"eq":[2,1]}]}'
DENOMS_D4 = '{"type":"D4^1","zeros":{"1,1":[2,6],"1,2":[3,5],"2,1":[3,5],"2,2":[2,4,6]}}'

# (subcommand, [(flag, value or None for a switch), ...])
BASE_CALLS = [
    ("roots", [("--fin", "A3")]),
    ("roots", [("--fin", "D4"), ("--word", "1,2,3,4")]),
    ("adapted", [("--type", "A2^1"), ("--q", Q_A2)]),
    ("adapted", [("--type", "A3^1"), ("--q", Q_A3), ("--word", "1,2,1,3,2,1")]),
    ("phi", [("--type", "A2^1"), ("--q", Q_A2), ("--word", "1,2,1")]),
    ("datum-from-q", [("--type", "A3^1"), ("--q", Q_A3)]),
    ("reflect", [("--type", "A2^1"), ("--q", Q_A2), ("--node", "1"), ("--times", "2")]),
    (
        "reflect",
        [("--type", "A2^1"), ("--datum", DATUM_A2), ("--node", "2"), ("--inverse", None),
         ("--facts", FACTS_A2)],
    ),
    (
        "cuspidal",
        [("--type", "A2^1"), ("--q", Q_A2), ("--word", "1,2,1"), ("--range", "-3..6"),
         ("--facts", FACTS_A2)],
    ),
    ("cuspidal", [("--type", "A2^1"), ("--datum", DATUM_A2), ("--word", "2,1,2"), ("--range", "1..3")]),
    ("invariant", [("--type", "A2^1"), ("--kind", "lambda"), ("--x", "1,0"), ("--y", "2,3")]),
    (
        "invariant",
        [("--type", "D4^1"), ("--kind", "d"), ("--x", "1,0"), ("--y", "1,2"), ("--denoms", DENOMS_D4)],
    ),
    (
        "decompose",
        [("--type", "A2^1"), ("--q", Q_A2), ("--word", "1,2,1"), ("--multiset", "[[1,0],[1,0],[2,3]]")],
    ),
    ("compare", [("--a", '{"support":{"1":1}}'), ("--b", '{"support":{"0":1,"2":1}}')]),
    ("sigma-quiver", [("--type", "A3^1"), ("--window", "-2..6"), ("--format", "dot")]),
    ("sigma-quiver", [("--type", "D4^1"), ("--window", "0..8"), ("--denoms", DENOMS_D4)]),
    ("check-strong", [("--type", "A2^1"), ("--datum", DATUM_A2)]),
    ("verify-examples", []),
]

# the calls that print a text; every other call prints one line of JSON
TEXT_FORMATS = {"--format=text", "--format=dot"}

JUNK = [
    "0", "-1", "7", "1.5", "1e400", "true", "null", '""', '"x"', '"1..2"',
    "[]", "[1]", "[[1,0]]", '["a",null]', "{}", '{"a":1}', '{"1":{}}', "NaN", "",
]


def _nested(rng: random.Random, text: str) -> str | None:
    """The JSON payload with one nested field replaced by junk, or None."""
    try:
        doc = json.loads(text)
    except ValueError:
        return None
    if not isinstance(doc, (dict, list)) or not doc:
        return None
    node = doc
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            return None
        key = rng.choice(keys)
        child = node[key]
        if isinstance(child, (dict, list)) and child and rng.random() < 0.6:
            node = child
            continue
        junk = rng.choice(JUNK)
        node[key] = json.loads(junk) if junk else junk
        return json.dumps(doc)


def _mutate(rng: random.Random, flags: list) -> bool:
    valued = [n for n, (_, value) in enumerate(flags) if value is not None]
    kind = rng.choice(("truncate", "junk", "nested", "drop"))
    if kind == "drop" and flags:
        del flags[rng.randrange(len(flags))]
        return True
    if not valued:
        return False
    n = rng.choice(valued)
    flag, value = flags[n]
    if kind == "truncate" and value:
        flags[n] = (flag, value[: rng.randrange(len(value))])
    elif kind == "nested" and (changed := _nested(rng, value)) is not None:
        flags[n] = (flag, changed)
    else:
        flags[n] = (flag, rng.choice(JUNK))
    return True


def _argv(command: str, flags: list) -> list[str]:
    return [command] + [flag if value is None else f"{flag}={value}" for flag, value in flags]


def corpus() -> list[tuple[str, list[str], int]]:
    """The seeded cases: (subcommand, argv, mutations applied) for each."""
    rng = random.Random(SEED)
    cases = []
    for _ in range(CASES):
        command, base = rng.choice(BASE_CALLS)
        flags = list(base)
        applied = sum(_mutate(rng, flags) for _ in range(rng.choice((1, 1, 2))))
        cases.append((command, _argv(command, flags), applied))
    return cases


def test_mutated_calls_keep_the_exit_contract(restored_tables):
    mutations = 0
    commands = set()
    for command, argv, applied in corpus():
        mutations += applied > 0
        commands.add(command)
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.run(argv)
        except (Exception, SystemExit) as exc:  # any escape breaks the contract
            raise AssertionError(f"{argv!r} raised {type(exc).__name__}: {exc}") from None
        assert code in (0, 1, 2), argv
        printed = out.getvalue()
        if code == 2 or (code == 1 and command != "check-strong"):
            assert printed == "", argv
        if code == 1 and not (command == "check-strong" and not err.getvalue()):
            assert "error" in json.loads(err.getvalue()), argv
        elif code == 1:
            assert json.loads(printed)["overall"] == "fail", argv
        elif code == 0 and command != "verify-examples" and not TEXT_FORMATS & set(argv):
            assert printed.endswith("\n") and printed.count("\n") == 1, argv
            json.loads(printed)
    assert mutations >= 2000
    assert len(commands) == 12
