from __future__ import annotations

import argparse
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qaffpbw import affine, cli, duality
from qaffpbw.affine import SigmaPoint
from qaffpbw.cli import MAX_RANGE, MAX_TIMES, MAX_WINDOW, build_parser, run
from qaffpbw.cuspidal import CuspidalSeq
from qaffpbw.modexpr import FusionTable
from qaffpbw.rootsys import MAX_RANK

Q_A2 = '{"xi":{"1":0,"2":1}}'
# a Q-datum of D_MAX_RANK: heights alternate along the chain 1 .. n-2, and both
# end nodes sit one above node n-2; nodes beyond the rank are never read
Q_D_MAX = json.dumps({"xi": {str(i): min(i, MAX_RANK - 1) % 2 for i in range(1, MAX_RANK + 1)}})
DATUM_A2 = '{"affine":"A2^1","members":{"1":{"fund":[1,0]},"2":{"fund":[1,2]}}}'
MISMATCHED_DENOMS = '{"type":"E8^1","zeros":{"1,1":[2]}}'  # not the --type of any call
PROVENANCE = DATUM_A2[:-1] + ',"provenance":%s}'
MEMBER_1 = '{"affine":"A2^1","members":{"1":%s,"2":{"fund":[1,2]}}}'
# a member at a node off the A2 diagram
OFF_DIAGRAM = '{"affine":"A2^1","members":{"1":{"fund":[9,0]}}}'


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cuspidal_example(capsys):
    code, out, _ = invoke(
        capsys,
        "cuspidal",
        "--type",
        "A2^1",
        "--q",
        '{"xi":{"1":0,"2":1}}',
        "--word",
        "1,2,1",
        "--range",
        "1..6",
    )
    assert code == 0
    doc = json.loads(out)
    assert [entry["label"]["fund"] for entry in doc] == [
        [1, 0],
        [2, 1],
        [1, 2],
        [2, 3],
        [1, 4],
        [2, 5],
    ]


def test_cuspidal_other_word_has_compound_label(capsys):
    code, out, _ = invoke(
        capsys,
        "cuspidal",
        "--type",
        "A2^1",
        "--q",
        '{"xi":{"1":0,"2":1}}',
        "--word",
        "2,1,2",
        "--range",
        "1..3",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc[1]["label"] == {"head": [{"fund": [1, 2]}, {"fund": [1, 0]}]}


def test_invariant(capsys):
    code, out, _ = invoke(
        capsys,
        "invariant",
        "--type",
        "A2^1",
        "--kind",
        "d",
        "--x",
        "1,0",
        "--y",
        "1,2",
        "--format",
        "text",
    )
    assert code == 0
    assert out.strip() == "1"


def test_verify_examples(capsys):
    code, out, _ = invoke(capsys, "verify-examples")
    assert code == 0
    lines = [line for line in out.strip().splitlines() if line]
    assert len(lines) >= 8
    assert all(line.startswith("PASS") for line in lines)


def test_roots(capsys):
    code, out, _ = invoke(capsys, "roots", "--fin", "A2", "--word", "1,2,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["betas"] == [[1, 0], [1, 1], [0, 1]]
    assert doc["spells_longest"] is True


def test_adapted_enumeration(capsys):
    code, out, _ = invoke(
        capsys, "adapted", "--type", "A2^1", "--q", '{"xi":{"1":0,"2":1}}'
    )
    assert code == 0
    assert json.loads(out) == {"count": 1, "adapted_words": [[1, 2, 1]]}


def test_adapted_enumeration_is_guarded_past_rank_4(capsys):
    q_a5 = '{"xi":{"1":0,"2":1,"3":0,"4":1,"5":0}}'
    code, out, err = invoke(capsys, "adapted", "--type", "A5^1", "--q", q_a5)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "enumeration of adapted words is limited to rank <= 4"}


def test_phi(capsys):
    code, out, _ = invoke(
        capsys, "phi", "--type", "A2^1", "--q", '{"xi":{"1":0,"2":1}}'
    )
    assert code == 0
    doc = json.loads(out)
    assert {"root": [1, 1], "point": [2, 1]} in doc["labels"]


def test_q_may_restate_the_finite_type_of_type(capsys):
    explicit = '{"fin_type":"A","rank":2,"xi":{"1":0,"2":1}}'
    assert invoke(capsys, "phi", "--type", "A2^1", "--q", explicit) == invoke(
        capsys, "phi", "--type", "A2^1", "--q", Q_A2
    )


def test_datum_from_q_and_reflect(capsys):
    code, out, _ = invoke(
        capsys, "datum-from-q", "--type", "A2^1", "--q", '{"xi":{"1":0,"2":1}}'
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["members"] == {"1": {"fund": [1, 0]}, "2": {"fund": [1, 2]}}
    assert doc["strength"] == "verified"

    code, out, _ = invoke(
        capsys,
        "reflect",
        "--type",
        "A2^1",
        "--q",
        '{"xi":{"1":0,"2":1}}',
        "--node",
        "1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["members"] == {"1": {"fund": [2, 3]}, "2": {"fund": [2, 1]}}


@pytest.mark.parametrize(
    "provenance, complete",
    [
        ("from-Q", True),
        ("S1(from-Q)", True),
        ("S2^-1(S1(from-Q))", True),
        ("S1(from-Q", None),
        ("S1(user)", None),
        ("user", None),
    ],
)
def test_reflection_of_a_q_datum_stays_complete_through_json(capsys, provenance, complete):
    datum = DATUM_A2[:-1] + f',"provenance":"{provenance}"}}'
    code, out, err = invoke(capsys, "reflect", "--type", "A2^1", "--datum", datum, "--node", "1")
    assert code == 0, err
    assert json.loads(out)["complete"] is complete


def test_a_chain_of_reflections_round_trips_as_complete(capsys):
    argv = ("reflect", "--type", "A2^1", "--q", Q_A2, "--node", "1")
    for _ in range(2):
        code, out, err = invoke(capsys, *argv)
        assert code == 0, err
        doc = json.loads(out)
        assert doc["complete"] is True
        argv = ("reflect", "--type", "A2^1", "--datum", out, "--node", "2")
    assert doc["provenance"] == "S2(S1(from-Q))"


def test_decompose_and_compare(capsys):
    code, out, _ = invoke(
        capsys,
        "decompose",
        "--type",
        "A2^1",
        "--q",
        '{"xi":{"1":0,"2":1}}',
        "--word",
        "1,2,1",
        "--multiset",
        "[[1,0],[1,0],[2,3]]",
    )
    assert code == 0
    assert json.loads(out) == {"support": {"1": 2, "4": 1}}

    code, out, _ = invoke(
        capsys,
        "compare",
        "--a",
        '{"support":{"1":1}}',
        "--b",
        '{"support":{"0":1,"2":1}}',
    )
    assert code == 0
    assert json.loads(out)["bilex"] == "less"


def test_sigma_quiver_dot(capsys):
    code, out, _ = invoke(
        capsys,
        "sigma-quiver",
        "--type",
        "A1^1",
        "--window",
        "0..2",
        "--format",
        "dot",
    )
    assert code == 0
    assert '"1_0" -> "1_2";' in out


def test_check_strong(capsys):
    datum = '{"affine":"A2^1","members":{"1":{"fund":[1,0]},"2":{"fund":[1,2]}}}'
    code, out, _ = invoke(capsys, "check-strong", "--type", "A2^1", "--datum", datum)
    assert code == 0
    doc = json.loads(out)
    assert doc["overall"] == "pass"
    assert doc["cartan_type"] == ["A2"]

    bad = '{"affine":"A2^1","members":{"1":{"fund":[1,0]},"2":{"fund":[1,4]}}}'
    code, out, _ = invoke(capsys, "check-strong", "--type", "A2^1", "--datum", bad)
    assert code == 1
    assert json.loads(out)["overall"] == "fail"


def test_domain_error_exit_code(capsys):
    code, _, err = invoke(
        capsys, "invariant", "--type", "D4^1", "--kind", "d", "--x", "1,0", "--y", "1,2"
    )
    assert code == 1
    assert "error" in json.loads(err)


@pytest.mark.parametrize(
    "argv, field",
    [
        (("phi", "--type", "A2^1", "--q", "[1]"), "--q"),
        (("compare", "--a", '{"support":[1]}', "--b", '{"support":{}}'), "support"),
        (("phi", "--type", "A2^1", "--q", '{"xi":[0,1]}'), "xi"),
        (("check-strong", "--type", "A2^1", "--datum", "[]"), "datum"),
        (
            ("check-strong", "--type", "A2^1", "--datum", '{"affine":"A2^1","members":{"1":5}}'),
            "members",
        ),
        (("decompose", "--type", "A2^1", "--q", Q_A2, "--multiset", "[1]"), "multiset"),
        (("sigma-quiver", "--type", "A2^1", "--window", "0..4", "--denoms", "[1]"), "denominator"),
        (("phi", "--type", "A2^1", "--q", '{"xi":{"1":[0],"2":1}}'), "xi"),
        (("reflect", "--type", "A2^1", "--q", Q_A2, "--node", "1", "--facts", "[1]"), "facts"),
        (
            (
                "cuspidal", "--type", "A2^1", "--q", Q_A2, "--word", "1,2,1", "--range", "1..3",
                "--facts", '{"facts":[{"head":[[1,0],[1]],"eq":[2,1]}]}',
            ),
            "head",
        ),
        (("compare", "--a", '{"support":{"1":[1]}}', "--b", '{"support":{"1":1}}'), "support"),
        (("compare", "--a", '{"support":{"1":1.5}}', "--b", '{"support":{"1":1}}'), "support"),
        (("compare", "--a", '{"support":{"1":true}}', "--b", '{"support":{"1":1}}'), "support"),
        (("compare", "--a", '{"support":{"x":1}}', "--b", '{"support":{"1":1}}'), "support"),
        (("phi", "--type", "A2^1", "--q", '{"xi":{"1":0,"2":true}}'), "xi"),
        (("decompose", "--type", "A2^1", "--q", Q_A2, "--multiset", "[[1,0.5]]"), "multiset"),
        (("decompose", "--type", "A2^1", "--q", Q_A2, "--multiset", "[[1,Infinity]]"), "multiset"),
        (("phi", "--type", "A2^1"), "--q"),
        (("adapted", "--type", "A2^1"), "--q"),
        (("datum-from-q", "--type", "A2^1"), "--q"),
        (("decompose", "--type", "A2^1", "--multiset", "[[1,0]]"), "--q"),
        (("reflect", "--type", "A2^1", "--node", "1"), "--q or --datum"),
        (("reflect", "--type", "A2^1", "--node", "1", "--datum", ""), "--q or --datum"),
        (("cuspidal", "--type", "A2^1", "--word", "1,2,1", "--range", "1..3"), "--q or --datum"),
        (("roots", "--fin", ""), "--fin"),
        (("roots", "--fin", "A"), "--fin"),
        (("compare", "--a", '{"support":{"1":1,"01":2}}', "--b", '{"support":{"1":2}}'), "support"),
        (("check-strong", "--type", "A3^1", "--datum", DATUM_A2), "--datum"),
        (("reflect", "--type", "A3^1", "--datum", DATUM_A2, "--node", "1"), "--datum"),
        (
            (
                "cuspidal", "--type", "A3^1", "--datum", DATUM_A2, "--word", "1,2,1",
                "--range", "1..3",
            ),
            "--datum",
        ),
        (
            (
                "reflect", "--type", "A2^1", "--q", Q_A2, "--node", "1", "--facts",
                '{"facts":[{"head":[[1,4],[1,6]],"eq":[2,5],"shift_equivariant":"false"}]}',
            ),
            "shift_equivariant",
        ),
        (("phi", "--type", "A2^1", "--q", ""), "--q"),
        (("compare", "--a", '{"support":', "--b", "{}"), "--a"),
        (("reflect", "--type", "A2^1", "--node", "1", "--datum", "@/nonexistent"), "--datum"),
        (("invariant", "--type", "A2^1", "--kind", "d", "--x", "1", "--y", "1,2"), "--x"),
        (("cuspidal", "--type", "A2^1", "--q", Q_A2, "--word", "1,x", "--range=1..3"), "--word"),
        (("cuspidal", "--type", "A2^1", "--q", Q_A2, "--word", "1,2,1", "--range=1-3"), "--range"),
        (("sigma-quiver", "--type", "A2^1", "--window", "0"), "--window"),
        (("compare", "--a", "[" * 100000 + "]" * 100000, "--b", "{}"), "--a"),
        (
            (
                "invariant", "--type", "A2^1", "--kind", "d", "--x", "1,0", "--y", "1,2",
                "--denoms", MISMATCHED_DENOMS,
            ),
            "--denoms",
        ),
        (("phi", "--type", "A2^1", "--q", "{}"), "Q-datum field 'xi'"),
        (("check-strong", "--type", "A2^1", "--datum", '{"affine":"A2^1"}'), "datum field 'members'"),
        (("phi", "--type", "A2^1", "--q", '{"rank":3,"xi":{"1":0,"2":1,"3":0}}'), "--q"),
        (("phi", "--type", "A2^1", "--q", '{"fin_type":"D","xi":{"1":0,"2":1}}'), "--q"),
        (("phi", "--type", "A2^1", "--q", '{"rank":"x","xi":{"1":0,"2":1}}'), "--q"),
        (
            (
                "invariant", "--type", "A2^1", "--kind", "d", "--x", "1,0", "--y", "1,2",
                "--denoms", '{"type":"zz","zeros":{}}',
            ),
            "--denoms",
        ),
        (("reflect", "--type", "A2^1", "--datum", PROVENANCE % "[1]", "--node", "1"), "'provenance'"),
        (("reflect", "--type", "A2^1", "--datum", PROVENANCE % "null", "--node", "1"), "'provenance'"),
        (("check-strong", "--type", "A2^1", "--datum", PROVENANCE % "7"), "'provenance'"),
        (
            (
                "cuspidal", "--type", "A2^1", "--q", Q_A2, "--word", "1,2,1", "--range", "1..3",
                "--facts", '{"type":"A3^1","facts":[]}',
            ),
            "--facts is for A3^1, not --type A2^1",
        ),
        (
            (
                "reflect", "--type", "A2^1", "--q", Q_A2, "--node", "1",
                "--facts", '{"facts":[{"head":[[1,0],[1,2]],"eq":[7,1]}]}',
            ),
            "fusion fact field 'eq' has node 7",
        ),
        (
            (
                "reflect", "--type", "A2^1", "--q", Q_A2, "--node", "1",
                "--facts", '{"type":"zz","facts":[]}',
            ),
            "--facts: cannot parse affine type name 'zz'",
        ),
        (
            (
                "reflect", "--type", "A2^1", "--q", Q_A2, "--node", "1",
                "--facts", '{"type":"A100000000^1","facts":[]}',
            ),
            f"--facts: affine type 'A100000000^1' exceeds the rank limit {MAX_RANK}",
        ),
        (
            ("datum-from-q", "--type", "A" + "9" * 5000 + "^1", "--q", Q_A2),
            "--type: affine type 'A9999",
        ),
        (
            ("check-strong", "--type", "A2^1", "--datum", MEMBER_1 % '{"dual":3}'),
            "'dual' must be an object with 'k' and 'of', got 3",
        ),
        (
            ("check-strong", "--type", "A2^1", "--datum", MEMBER_1 % '{"head":3}'),
            "'head' must be a list of factors, got 3",
        ),
        (
            ("check-strong", "--type", "A2^1", "--datum", MEMBER_1 % "{}"),
            "not an expression document: {}",
        ),
        (
            (
                "check-strong", "--type", "A2^1", "--datum",
                '{"affine":"A2^1","members":{"1":{"fund":[1,0]},"3":{"fund":[1,2]}}}',
            ),
            "datum field 'members' has no member 2",
        ),
        (
            ("phi", "--type", "A2^1", "--q", '{"xi":{"1":0,"2":1},"automorphism":"x"}'),
            "Q-datum field 'automorphism' must be a list, got 'x'",
        ),
        (
            (
                "sigma-quiver", "--type", "D4^1", "--denoms",
                '{"type":"D4^1","zeros":{"1,5":[2]}}', "--window", "0..3",
            ),
            "node pair (1, 5) out of range for D4^1",
        ),
        (
            ("cuspidal", "--type", "A2^1", "--datum", OFF_DIAGRAM, "--word", "1", "--range", "1..1"),
            "node 9 out of range for A2^1",
        ),
        (
            ("cuspidal", "--type", "A2^1", "--datum", OFF_DIAGRAM, "--word", "1", "--range", "3..3"),
            "node 9 out of range for A2^1",
        ),
    ],
)
def test_malformed_payload_is_a_domain_error(capsys, argv, field):
    code, out, err = invoke(capsys, *argv)
    assert code == 1
    assert out == ""
    assert field in json.loads(err)["error"]


@pytest.mark.parametrize("facts", ["[]", '[{"head":[[1,0],[1,2]],"eq":[2,1]}]'])
def test_facts_type_compares_by_parsed_name(capsys, facts):
    outputs = []
    for name in ("A2^1", "A2^(1)"):
        payload = f'{{"type":"{name}","facts":{facts}}}'
        code, out, err = invoke(
            capsys, "reflect", "--type", "A2^1", "--q", Q_A2, "--node", "1", "--facts", payload
        )
        assert (code, err) == (0, "")
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_mismatched_denoms_registers_nothing(capsys):
    saved = dict(affine._EXTERNAL_TABLES)
    code, _, _ = invoke(
        capsys, "sigma-quiver", "--type", "A2^1", "--window", "0..4", "--denoms", MISMATCHED_DENOMS
    )
    assert code == 1
    assert affine._EXTERNAL_TABLES == saved


def _sized(flag: str, size: int) -> tuple[str, ...]:
    span = f"-5..{size - 6}"
    if flag == "--range":
        return ("cuspidal", "--type", "A2^1", "--q", Q_A2, "--word", "1,2,1", f"--range={span}")
    if flag == "--window":
        return ("sigma-quiver", "--type", "A2^1", f"--window={span}")
    if flag == "--fin":
        return ("roots", "--fin", f"D{size}")
    if flag == "--type":
        return ("datum-from-q", "--type", f"D{size}^1", "--q", Q_D_MAX)
    return ("reflect", "--type", "A2^1", "--q", Q_A2, "--node", "1", "--times", str(size))


@pytest.mark.parametrize(
    "flag, limit",
    [
        ("--range", MAX_RANGE),
        ("--window", MAX_WINDOW),
        ("--times", MAX_TIMES),
        ("--fin", MAX_RANK),
        ("--type", MAX_RANK),
    ],
)
def test_oversized_requests_fail_at_once(capsys, flag, limit):
    code, out, _ = invoke(capsys, *_sized(flag, limit))
    assert code == 0 and out
    for size in (limit + 1, 10**8):
        start = time.perf_counter()
        code, out, err = invoke(capsys, *_sized(flag, size))
        assert (code, out) == (1, "")
        assert flag in json.loads(err)["error"]
        assert time.perf_counter() - start < 1.0
    if flag == "--fin":
        # past int()'s 4,300-digit limit the rank limit still answers
        code, out, err = invoke(capsys, "roots", "--fin", "A" + "9" * 5000)
        assert (code, out) == (1, "")
        error = json.loads(err)["error"]
        assert error.startswith(flag) and error.endswith(f"exceeds the limit {limit}")


NINES = "9" * 5000  # past int()'s 4,300-digit limit


def _numbered(flag: str, number: str) -> tuple[str, ...]:
    """A call whose --range/--window upper bound, or whose --times, is `number`."""
    if flag == "--times":
        return ("reflect", "--type", "A2^1", "--q", Q_A2, "--node", "1", "--times", number)
    return _sized(flag, 6)[:-1] + (f"{flag}=-5..{number}",)


@pytest.mark.parametrize(
    "flag, limit", [("--range", MAX_RANGE), ("--window", MAX_WINDOW), ("--times", MAX_TIMES)]
)
def test_numbers_past_the_int_digit_limit_meet_the_cap(capsys, flag, limit):
    for number in (NINES, "-" + NINES, "+" + NINES, f" {NINES} ", "9_" + NINES):
        start = time.perf_counter()
        code, out, err = invoke(capsys, *_numbered(flag, number))
        assert (code, out) == (1, ""), number[:3]
        error = json.loads(err)["error"]
        assert error.startswith(flag) and str(limit) in error
        assert time.perf_counter() - start < 1.0
    # leading zeros are not significant digits
    short = invoke(capsys, *_numbered(flag, "3"))
    assert short[0] == 0 and invoke(capsys, *_numbered(flag, "0" * 5000 + "3")) == short


@pytest.mark.parametrize("flag", ["--range", "--window"])
def test_bounds_past_the_int_digit_limit_are_refused(capsys, flag):
    code, out, err = invoke(capsys, *_numbered(flag, "")[:-1], f"{flag}=-{NINES}..-{NINES}")
    assert (code, out) == (1, "")
    assert json.loads(err)["error"].startswith(flag)
    for text in (f"1..{NINES}x", f"1..--{NINES}", "1..9__9", "1..0x10"):
        code, out, err = invoke(capsys, *_numbered(flag, "")[:-1], f"{flag}={text}")
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == f"{flag} must be lo..hi, got {text!r}"


def test_a_negative_times_is_refused(capsys):
    code, out, err = invoke(capsys, *_numbered("--times", "-1"))
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "--times must be in 0..100"}
    # zero reflections stay allowed: the datum comes back as given
    code, out, _ = invoke(capsys, *_numbered("--times", "0"))
    assert code == 0 and json.loads(out)["provenance"] == "from-Q"


@pytest.mark.parametrize("node", ["99", "0"])
def test_reflect_checks_the_node_before_any_reflection(capsys, node):
    for times in ("0", "1"):
        argv = ("reflect", "--type", "A2^1", "--q", Q_A2, "--node", node, "--times", times)
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, ""), times
        assert json.loads(err) == {"error": f"node {node} out of range"}


def test_bounds_are_refused_before_any_payload_loads(capsys, restored_tables):
    affine._EXTERNAL_TABLES.pop("D4^1", None)
    denoms = json.dumps({"type": "D4^1", "zeros": {"1,1": [2, 6], "2,2": [2, 4, 6]}})
    code, out, err = invoke(
        capsys, "sigma-quiver", "--type", "D4^1", "--denoms", denoms, "--window", "0..5000"
    )
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "--window 0..5000 spans 5001 values; the limit is 200"}
    assert "D4^1" not in affine._EXTERNAL_TABLES


def _nested(kind: str, depth: int) -> dict:
    """A member `depth` levels deep: duals whose shifts cancel in pairs, or
    heads of one factor; either normalizes to one fundamental."""
    member = {"fund": [1, 0]}
    for level in range(depth):
        if kind == "dual":
            member = {"dual": {"k": 1 - 2 * (level % 2), "of": member}}
        else:
            member = {"head": [member]}
    return member


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


TOO_DEEP = "datum field 'members' entry 1: heads and duals nest more than 200 levels deep"


def _nested_calls(capsys, kind: str, depth: int) -> list[tuple[int, str, str]]:
    datum = json.dumps({"affine": "A1^1", "members": {"1": _nested(kind, depth)}})
    calls = [
        ("reflect", "--type", "A1^1", "--datum", datum, "--node", "1"),
        ("check-strong", "--type", "A1^1", "--datum", datum),
        ("cuspidal", "--type", "A1^1", "--datum", datum, "--word", "1", "--range", "1..3"),
    ]
    return [invoke(capsys, *argv) for argv in calls]


# With this many frames above the test, each member once decoded on Python
# 3.10-3.13 and then sent reflect and cuspidal past the recursion limit; it is
# now refused while it is decoded, below that limit, by the nesting cap.
@pytest.mark.parametrize("kind, depth, headroom", [("dual", 330, 850), ("head", 270, 700)])
def test_a_deeply_nested_member_is_a_domain_error(capsys, kind, depth, headroom):
    datum = json.dumps({"affine": "A1^1", "members": {"1": _nested(kind, depth)}})
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + headroom)
    try:
        with pytest.raises(duality.DualityError) as refused:
            duality.datum_from_json(datum)
        results = _nested_calls(capsys, kind, depth)
    finally:
        sys.setrecursionlimit(limit)
    assert str(refused.value) == TOO_DEEP
    for code, out, err in results:
        assert (code, out, json.loads(err)) == (1, "", {"error": TOO_DEEP})


@pytest.mark.parametrize("kind", ["dual", "head"])
def test_a_member_nested_to_the_cap_runs_and_one_level_more_is_refused(capsys, kind):
    plain = _nested_calls(capsys, kind, 0)
    assert [code for code, _, _ in plain] == [0, 0, 0]
    assert _nested_calls(capsys, kind, 200) == plain
    for code, out, err in _nested_calls(capsys, kind, 201):
        assert (code, out, json.loads(err)) == (1, "", {"error": TOO_DEEP})


# {"fund": [1, 0]} spelled as a one-factor head and with cancelling duals
FUND_1_0_SPELLINGS = [
    {"head": [{"fund": [1, 0]}]},
    {"dual": {"k": 1, "of": {"dual": {"k": -1, "of": {"fund": [1, 0]}}}}},
]


@pytest.mark.parametrize("member", FUND_1_0_SPELLINGS)
def test_a_member_that_normalizes_to_a_fundamental_counts_as_one(capsys, member):
    def call(command, first, *flags):
        datum = {"affine": "A2^1", "members": {"1": first, "2": {"fund": [1, 2]}}}
        return invoke(capsys, command, "--type", "A2^1", "--datum", json.dumps(datum), *flags)

    for command, flags in [("reflect", ("--node", "1")), ("check-strong", ())]:
        plain = call(command, {"fund": [1, 0]}, *flags)
        assert plain[0] == 0
        assert call(command, member, *flags) == plain


@pytest.mark.parametrize("member", FUND_1_0_SPELLINGS)
def test_cuspidal_reads_each_member_in_normal_form(capsys, member):
    def window(first):
        datum = {"affine": "A2^1", "members": {"1": first, "2": {"fund": [1, 2]}}}
        flags = ("--word", "1,2,1", "--range=-2..6")
        out = invoke(capsys, "cuspidal", "--type", "A2^1", "--datum", json.dumps(datum), *flags)
        info = affine.type_info("A2^1")
        seq = CuspidalSeq(duality.datum_from_json(datum), (1, 2, 1), FusionTable.builtin(info))
        return out, seq

    plain, plain_seq = window({"fund": [1, 0]})
    assert plain[0] == 0
    out, seq = window(member)
    assert out == plain
    assert seq.label(1) == SigmaPoint(1, 0)
    points = [plain_seq.label(k) for k in range(-2, 7)]
    assert [seq.index_of(p) for p in points] == [plain_seq.index_of(p) for p in points]
    assert [seq.index_of(p) for p in points] == list(range(-2, 7))


@pytest.mark.parametrize("times", ["x", "1.5", "+-5", "--5", "9__9", NINES + "x", "0x10"])
def test_a_non_integer_times_stays_a_usage_error(capsys, times):
    code, out, _ = invoke(capsys, *_numbered("--times", times))
    assert (code, out) == (2, "")


def _python_m(module, *argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )


@pytest.mark.parametrize("module", ["qaffpbw", "qaffpbw.cli"])
def test_python_m_runs_the_cli(module):
    proc = _python_m(module, "verify-examples")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines and all(line.startswith("PASS") for line in lines)


@pytest.mark.parametrize("argv, code", [([], 2), (["--help"], 0)])
def test_python_m_reads_sys_argv(argv, code):
    proc = _python_m("qaffpbw", *argv)
    assert proc.returncode == code, proc.stderr
    if code == 2:
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage: qaffpbw")
    else:
        # each subcommand heads a line of the listing under "positional arguments"
        listed = {line.split()[0] for line in proc.stdout.splitlines() if line.startswith("    ")}
        assert set(SURFACE) <= listed


def test_usage_error_exit_code(capsys):
    code, _, _ = invoke(capsys, "no-such-command")
    assert code == 2


def test_deterministic_output(capsys):
    args = (
        "cuspidal",
        "--type",
        "A2^1",
        "--q",
        '{"xi":{"1":0,"2":1}}',
        "--word",
        "1,2,1",
        "--range",
        "-3..9",
    )
    _, first, _ = invoke(capsys, *args)
    _, second, _ = invoke(capsys, *args)
    assert first == second


def test_external_provider_flow(tmp_path, capsys):
    table = {
        "type": "D4^1",
        "zeros": {"1,1": [2, 6], "2,2": [2, 4, 6]},
    }
    path = tmp_path / "denoms.json"
    path.write_text(json.dumps(table))
    code, out, _ = invoke(
        capsys,
        "invariant",
        "--type",
        "D4^1",
        "--kind",
        "d",
        "--x",
        "1,0",
        "--y",
        "1,2",
        "--denoms",
        f"@{path}",
    )
    assert code == 0
    assert json.loads(out)["value"] == 1
    from qaffpbw import affine

    affine._EXTERNAL_TABLES.pop("D4^1", None)


def test_datum_from_q_reads_denoms(capsys):
    zeros = {"1,1": [2, 6], "1,2": [3, 5], "1,3": [4], "1,4": [4], "2,2": [2, 4, 4, 6],
             "2,3": [3, 5], "2,4": [3, 5], "3,3": [2, 6], "3,4": [4], "4,4": [2, 6]}
    denoms = json.dumps({"type": "D4^1", "zeros": zeros})
    q = '{"xi":{"1":0,"2":1,"3":0,"4":0}}'
    try:
        code, out, _ = invoke(
            capsys, "datum-from-q", "--type", "D4^1", "--q", q, "--denoms", denoms
        )
    finally:
        affine._EXTERNAL_TABLES.pop("D4^1", None)
    assert code == 0
    assert json.loads(out)["strength"] == "verified"


def _q_json(heights) -> str:
    return json.dumps({"xi": {str(i): h for i, h in enumerate(heights, start=1)}})


# w0 has length 1035 at A45 and 1056 at D33, past the default recursion limit
@pytest.mark.parametrize(
    "argv, field, size",
    [
        (("datum-from-q", "--type", "A45^1", "--q", _q_json(i % 2 for i in range(45))),
         "members", 45),
        (("phi", "--type", "D33^1", "--q", _q_json([i % 2 for i in range(32)] + [1])),
         "labels", 1056),
    ],
    ids=["datum-from-q-A45", "phi-D33"],
)
def test_words_of_w0_longer_than_the_recursion_limit(capsys, argv, field, size):
    code, out, err = invoke(capsys, *argv)
    assert code == 0, err
    assert len(json.loads(out)[field]) == size


# Each subcommand takes exactly the flags its handler reads.
SURFACE = {
    "roots": {"--fin", "--word"},
    "adapted": {"--type", "--q", "--word"},
    "phi": {"--type", "--q", "--word"},
    "datum-from-q": {"--type", "--q", "--denoms"},
    "reflect": {
        "--type", "--q", "--datum", "--denoms", "--facts", "--node", "--inverse", "--times"
    },
    "cuspidal": {"--type", "--q", "--datum", "--denoms", "--facts", "--word", "--range"},
    "invariant": {"--type", "--denoms", "--kind", "--x", "--y", "--format"},
    "decompose": {"--type", "--q", "--word", "--multiset"},
    "compare": {"--a", "--b"},
    "sigma-quiver": {"--type", "--denoms", "--window", "--format"},
    "check-strong": {"--type", "--denoms", "--datum"},
    "verify-examples": set(),
}


def test_parser_surface():
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    flags, formats = {}, {}
    for name, sub in commands.choices.items():
        options = {a.option_strings[-1]: a for a in sub._actions if "-h" not in a.option_strings}
        flags[name] = set(options)
        if "--format" in options:
            formats[name] = tuple(options["--format"].choices)
    assert flags == SURFACE
    assert sum(map(len, flags.values())) == 45
    assert formats == {"invariant": ("json", "text"), "sigma-quiver": ("json", "dot")}


GOLDEN_Q_A2 = json.dumps({"xi": {"1": 0, "2": 1}})  # Q_A2 as the golden calls spell it
REFLECT = ("reflect", "--type", "A2^1", "--q", GOLDEN_Q_A2, "--node", "1", "--times", "3")
INVERSE = REFLECT[:-2] + ("--inverse",) + REFLECT[-2:]
CUSPIDAL = ("cuspidal", "--type", "A2^1", "--q", GOLDEN_Q_A2, "--word", "2,1,2", "--range=-6..12")
INVARIANT = ("invariant", "--type", "A2^1", "--kind", "d", "--x", "1,0", "--y", "1,2")
SIGMA_QUIVER = ("sigma-quiver", "--type", "A2^1", "--window", "0..3")

# (argv, exit code): each flag set on one call is absent on the next
REUSE_CALLS = [
    (INVERSE, 0),
    (REFLECT, 0),
    (INVARIANT + ("--format", "text"), 0),
    (INVARIANT, 0),
    (SIGMA_QUIVER + ("--format", "dot"), 0),
    (SIGMA_QUIVER, 0),
    (CUSPIDAL + ("--facts", '{"type":"A3^1","facts":[]}'), 1),
    (CUSPIDAL, 0),
    (INVERSE + ("--no-such-flag",), 2),
    (REFLECT, 0),
]


def _parsed(capsys, parse, argv):
    try:
        args = parse(list(argv))
    except SystemExit as exc:
        args = exc.code
    return args, capsys.readouterr()


def test_shared_parser_carries_nothing_between_calls(capsys):
    assert build_parser() is build_parser()
    golden_path = Path(__file__).resolve().parent / "data" / "golden_cli.json"
    golden = {tuple(c["argv"]): c for c in json.loads(golden_path.read_text())["calls"]}
    assert {REFLECT, INVERSE, CUSPIDAL} <= golden.keys()
    for argv, expected in REUSE_CALLS:
        code, out, err = invoke(capsys, *argv)
        assert code == expected, (argv, err)
        if code == 2:
            assert out == ""
        if argv in golden:
            assert (code, out) == (golden[argv]["code"], golden[argv]["stdout"])
        fresh = _parsed(capsys, build_parser.__wrapped__().parse_args, argv)
        assert _parsed(capsys, build_parser().parse_args, argv) == fresh
        assert _parsed(capsys, cli._parse, argv) == fresh


def test_a_named_subcommand_is_parsed_once(monkeypatch, capsys):
    parsers = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        parsers.append(self)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    top = build_parser()
    (commands,) = [a for a in top._actions if isinstance(a, argparse._SubParsersAction)]
    # a plain call is read from the subcommand's option table, without argparse
    for argv in [REFLECT, SIGMA_QUIVER + ("--format", "dot")]:
        parsers.clear()
        assert invoke(capsys, *argv)[0] == 0
        assert parsers == []
    # any other call naming a subcommand takes the full parse: the top-level
    # parser, whose subparser action then runs that subcommand's parser once
    for argv, code in [
        (INVERSE + ("--no-such-flag",), 2),
        (("roots", "-h"), 0),
        (("roots",), 2),
    ]:
        parsers.clear()
        assert invoke(capsys, *argv)[0] == code
        assert parsers == [top, commands.choices[argv[0]]]
    # the top-level parser alone prints the top-level usage and help
    for argv, code in [((), 2), (("--help",), 0), (("no-such-command",), 2)]:
        parsers.clear()
        status, out, err = invoke(capsys, *argv)
        assert status == code
        assert parsers == [top]
        assert (out if code == 0 else err).startswith("usage: qaffpbw [-h]")


def _readme_commands() -> list[list[str]]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("qaffpbw ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[0])
def test_readme_commands_run(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 0, err
    assert out
