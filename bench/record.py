"""Rebuild the reference data in bench/data from the library as checked out.

    python3 bench/record.py

The files hold inputs and the outputs the library gave for them when they
were recorded; the benchmark checks every later commit against them.  Run
this only for a change that is meant to alter outputs, and say so in it.
The corpora come from fixed seeds, so re-running at the same commit
reproduces the files byte for byte.  It takes about fifteen seconds.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from run import import_library  # noqa: E402
from workloads import (  # noqa: E402
    CUSPIDAL_WORDS,
    DATA,
    a_fusion_facts,
    heights_key,
    invoke_cli,
)

LABEL_TYPES = ("A2^1", "A4^1", "A6^1")
SHIFTED_RANKS = (3, 4)
LABEL_DEPTHS = range(1, 7)
PAIRS_PER_DEPTH = 3
CLI_RANKS = (2, 3, 4)
CLI_VARIANTS = 4


def write(name: str, doc) -> None:
    (DATA / name).write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"wrote {DATA / name}", file=sys.stderr)


def record_cuspidal(lib) -> None:
    """Greedy-longest-word cuspidal labels for every normalized Q-datum."""
    m = lib.modexpr
    doc = {}
    for n in (n for n, _, words in CUSPIDAL_WORDS if "greedy" in words):
        info = lib.affine.type_info(f"A{n}^1")
        facts = m.FusionTable.from_json(info, a_fusion_facts(n))
        word = lib.rootsys.RootSystem("A", n).longest_word()
        table = {}
        for h in sorted(lib.qdata.all_height_functions("A", n)):
            datum = lib.duality.from_q_datum(info, lib.qdata.QDatum("A", n, h))
            seq = lib.cuspidal.CuspidalSeq(datum, word, facts)
            table[heights_key(h)] = [m.expr_to_json(e) for e in seq.range(1, len(word))]
        doc[f"A{n}"] = table
        print(f"A{n}: {len(table)} Q-data", file=sys.stderr)
    write("cuspidal_greedy.json", doc)


def random_expr(lib, rng: random.Random, points, depth: int):
    """The acceptance suite's criterion-10 expression generator."""
    m = lib.modexpr
    if depth == 0 or rng.random() < 0.4:
        return m.Fund(rng.choice(points))
    if rng.random() < 0.15:
        return m.Dual(rng.choice((-2, -1, 1, 2)), random_expr(lib, rng, points, depth - 1))
    width = rng.randint(2, 3)
    return m.Head(tuple(random_expr(lib, rng, points, depth - 1) for _ in range(width)))


def record_labels(lib) -> None:
    """Random criterion-10 pairs per type and depth, with their verdicts."""
    m = lib.modexpr
    rng = random.Random("label-compare-corpus")
    pairs = []
    for name in LABEL_TYPES:
        info = lib.affine.type_info(name)
        facts = m.FusionTable.builtin(info)
        points = info.sigma0_points(-6, 8)
        for depth in LABEL_DEPTHS:
            for _ in range(PAIRS_PER_DEPTH):
                a = random_expr(lib, rng, points, depth)
                b = random_expr(lib, rng, points, depth)
                pairs.append(
                    {
                        "type": name,
                        "depth": depth,
                        "a": m.expr_to_json(a),
                        "b": m.expr_to_json(b),
                        "verdict": m.equal(info, a, b, facts).value,
                    }
                )
    shifted = {}
    for n in SHIFTED_RANKS:
        info = lib.affine.type_info(f"A{n}^1")
        facts = m.FusionTable.builtin(info)
        shifted[str(n)] = []
        for h in sorted(lib.qdata.all_height_functions("A", n)):
            q = lib.qdata.QDatum("A", n, h)
            datum = lib.duality.from_q_datum(info, q)
            word = lib.qdata.some_adapted_word(q)
            _, failures = lib.cuspidal.refl_shift_check(datum, word, facts)
            shifted[str(n)].append({"heights": list(h), "ks": [f[0] for f in failures]})
    write(
        "label_compare.json",
        {"types": list(LABEL_TYPES), "pairs": pairs, "shifted": shifted},
    )


def _q_json(heights) -> str:
    return json.dumps({"xi": {str(i + 1): h for i, h in enumerate(heights)}})


def _word(word) -> str:
    return ",".join(str(i) for i in word)


def _cli_requests(lib, rng: random.Random):
    """argv for every subcommand at ranks 2-4, CLI_VARIANTS each."""
    for n in CLI_RANKS:
        t = f"A{n}^1"
        info = lib.affine.type_info(t)
        rs = lib.rootsys.RootSystem("A", n)
        heights = sorted(lib.qdata.all_height_functions("A", n))
        points = info.sigma0_points(-6, 12)
        for v in range(CLI_VARIANTS):
            h = rng.choice(heights)
            q = lib.qdata.QDatum("A", n, h)
            qj = _q_json(h)
            adapted = lib.qdata.some_adapted_word(q)
            words = (adapted, rs.longest_word())
            word = words[v % 2]
            yield ["roots", "--fin", f"A{n}"] + (
                ["--word", _word(word)] if v else []
            )
            yield ["adapted", "--type", t, "--q", qj]
            yield ["adapted", "--type", t, "--q", qj, "--word", _word(word)]
            yield ["phi", "--type", t, "--q", qj]
            yield ["datum-from-q", "--type", t, "--q", qj]
            node = rng.randint(1, n)
            yield ["reflect", "--type", t, "--q", qj, "--node", str(node)] + (
                ["--inverse"] if v % 2 else []
            ) + ["--times", str(1 + v % 2)]
            lo = rng.randint(-6, 0)
            yield [
                "cuspidal", "--type", t, "--q", qj, "--word", _word(word),
                f"--range={lo}..{lo + 12}",
            ]
            kind = ("d", "lambda", "lambda-inf", "de-tilde", "zero-c", "pairing-e")[
                rng.randrange(6)
            ]
            x, y = rng.choice(points), rng.choice(points)
            yield [
                "invariant", "--type", t, "--kind", kind,
                "--x", f"{x.node},{x.power}", "--y", f"{y.node},{y.power}",
            ]
            labels = [[p.node, p.power] for p in rng.choices(points, k=20)]
            yield [
                "decompose", "--type", t, "--q", qj, "--multiset", json.dumps(labels),
            ]
            lo = rng.randint(-6, 0)
            yield [
                "sigma-quiver", "--type", t, f"--window={lo}..{lo + 12}",
            ] + (["--format", "dot"] if v % 2 else [])
            datum = lib.duality.from_q_datum(info, q)
            doc = lib.duality.datum_to_json(datum)
            if v % 2:
                # shift one member off its place: the datum then fails
                doc["members"]["1"] = {"fund": [1, datum.members[0].point.power + 4]}
            yield ["check-strong", "--type", t, "--datum", json.dumps(doc)]
    for size in (5, 20, 50):
        for _ in range(CLI_VARIANTS):
            a, b = (
                {str(k): rng.randint(1, 3) for k in rng.sample(range(-60, 60), size)}
                for _ in range(2)
            )
            yield [
                "compare", "--a", json.dumps({"support": a}), "--b", json.dumps({"support": b}),
            ]
    yield ["verify-examples"]


# malformed requests; each kept the exit-code contract when recorded
_MALFORMED = [
    ["phi", "--type", "A2^1", "--q", '{"xi":{"1":0'],
    ["phi", "--type", "A3^1", "--q", '{"xi":{"1":0,"2":1}}'],
    ["phi", "--type", "A3^1", "--q", '{"xi":{"1":0,"2":1,"3":0}}', "--word", "1,2,3"],
    ["invariant", "--type", "A2^1", "--kind", "d", "--x", "1", "--y", "1,2"],
    ["invariant", "--type", "D4^1", "--kind", "d", "--x", "1,0", "--y", "1,2"],
    ["roots", "--fin", "Z3"],
    ["datum-from-q", "--type", "Q9^1", "--q", '{"xi":{"1":0}}'],
    ["compare", "--a", '{"support":{"1":-1}}', "--b", '{"support":{}}'],
    ["decompose", "--type", "A2^1", "--q", '{"xi":{"1":0,"2":1}}', "--multiset", "[[1,1]]"],
    ["cuspidal", "--type", "A3^1", "--q", '{"xi":{"1":0,"2":1,"3":0}}', "--word", "1,2,3",
     "--range=0..3"],
    ["cuspidal", "--type", "A3^1", "--q", '{"xi":{"1":0,"2":1,"3":0}}', "--word",
     "1,2,1,3,2,1", "--range", "-6..12"],
    ["no-such-command"],
]

# payloads that raised an uncaught AttributeError when recorded; their
# contract is exit 1 with a JSON error, which is what they are checked for
_KNOWN_DEFECTS = [
    ["phi", "--type", "A2^1", "--q", "[1]"],
    ["compare", "--a", '{"support":[1]}', "--b", '{"support":{}}'],
]


def record_cli(lib) -> None:
    rng = random.Random("cli-session-corpus")
    calls = []
    for argv in list(_cli_requests(lib, rng)) + _MALFORMED:
        code, out, _ = invoke_cli(lib, argv)
        calls.append({"argv": argv, "code": code, "stdout": out})
    for argv in _KNOWN_DEFECTS:
        calls.append({"argv": argv, "code": 1, "stdout": "", "known_defect": True})
    write("cli_session.json", {"calls": calls})


def main() -> int:
    lib = import_library()
    record_cuspidal(lib)
    record_labels(lib)
    record_cli(lib)
    return 0


if __name__ == "__main__":
    sys.exit(main())
