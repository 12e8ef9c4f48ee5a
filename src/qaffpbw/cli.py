"""Command-line front end.

All mathematics flows through the library; ``run`` parses flags, loads JSON
payloads and prints what a subcommand returns, a deterministic document
(sorted keys, no timestamps) or a text.  Exit codes: 0 success, 1 domain
error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from pathlib import Path

from . import affine, cuspidal, duality, invariants, modexpr, pbw, qdata, rootsys
from .affine import SigmaPoint, json_int, type_info
from .cuspidal import CuspidalSeq, FundamentalCuspidalSeq
from .modexpr import Fund, FusionTable, Head, Verdict
from .qdata import QDatum

# Largest requests accepted, so that an oversized one fails at once instead of
# running for minutes; the cost of all three grows linearly with the request.
MAX_RANGE = 1000  # labels in a cuspidal --range
MAX_WINDOW = 200  # exponents in a sigma-quiver --window
MAX_TIMES = 100  # reflections by --times
INT_DIGITS = 4300  # int() refuses integer literals of more digits by default
_INTEGER = re.compile(r"\s*([+-]?)(\d+(?:_\d+)*)\s*")

_INVARIANT_KINDS = {
    "d": invariants.d_fund,
    "lambda": invariants.lambda_fund,
    "lambda-inf": invariants.lambda_inf_fund,
    "de-tilde": invariants.de_tilde_fund,
    "zero-c": invariants.zero_c_fund,
    "pairing-e": invariants.pairing_E,
}


def _payload(text: str, flag: str):
    """The JSON value of a flag, either inline or @file."""
    try:
        return json.loads(Path(text[1:]).read_text() if text.startswith("@") else text)
    except (OSError, ValueError, RecursionError) as err:  # RecursionError: deep nesting
        raise ValueError(f"{flag}: {err}") from err


def _point(text: str, flag: str) -> SigmaPoint:
    try:
        i, p = (int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} must be a label i,p, got {text!r}") from None
    return SigmaPoint(i, p)


def _fin(text: str) -> rootsys.RootSystem:
    if len(text) < 2 or not text[1:].isdecimal():
        raise ValueError(f"--fin must be a finite type such as A3, got {text!r}")
    try:
        return rootsys.RootSystem(text[0], rootsys.rank_from_digits(text[1:]))
    except rootsys.RootSystemError as err:
        raise ValueError(f"--fin: {err}") from err


def _type(name: str, flag: str) -> affine.AffineTypeInfo:
    try:
        return type_info(name)
    except affine.AffineTypeError as err:
        raise affine.AffineTypeError(f"{flag}: {err}") from err


def _word(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"--word must be comma-separated nodes, got {text!r}") from None


def _int(text: str, digits: int) -> int | None:
    """int(text), or None past `digits` significant digits; they are counted
    first, since int() refuses a few thousand digits."""
    match = _INTEGER.fullmatch(text)
    if not match:
        raise ValueError(f"invalid integer {text!r}")
    significant = match[2].replace("_", "").lstrip("0") or "0"
    return None if len(significant) > digits else int(match[1] + significant)


def _times(text: str) -> int | None:
    return _int(text, len(str(MAX_TIMES)))


def _range(text: str, flag: str, limit: int) -> tuple[int, int]:
    try:
        lo, hi = (_int(x, INT_DIGITS) for x in text.split(".."))
    except ValueError:
        raise ValueError(f"{flag} must be lo..hi, got {text!r}") from None
    if lo is None or hi is None:
        raise ValueError(f"{flag} has a bound past {INT_DIGITS} digits; the limit is {limit}")
    if hi - lo + 1 > limit:
        raise ValueError(f"{flag} {text} spans {hi - lo + 1} values; the limit is {limit}")
    return lo, hi


def _load_facts(info, text: str | None) -> FusionTable:
    table = FusionTable.builtin(info)
    if text:
        data = _payload(text, "--facts")
        _check_type(info, data, "--facts")
        table = FusionTable(info, table.facts + FusionTable.from_json(info, data).facts)
    return table


def _load_datum(info, args) -> QDatum | duality.DualityDatum:
    """The duality datum of --datum, else the Q-datum of --q; a subcommand that
    takes both flags reads --q as the canonical duality datum of its Q-datum."""
    takes = vars(args)
    if takes.get("datum") or "q" not in takes:
        datum = duality.datum_from_json(_payload(args.datum, "--datum"))
        if datum.info.name != info.name:
            raise duality.DualityError(f"--datum is for {datum.info.name}, not --type {info.name}")
        return datum
    if args.q is None:
        required = "--q or --datum" if "datum" in takes else "--q"
        raise qdata.QDatumError(f"{required} is required")
    data = _payload(args.q, "--q")
    if not isinstance(data, dict):
        raise qdata.QDatumError(f"--q must be a JSON object, got {data!r}")
    letter, rank = info.fin_type
    given = data.get("fin_type", letter), json_int(data.get("rank", rank), "--q field 'rank'")
    if given != (letter, rank):
        raise qdata.QDatumError(
            f"--q is for {given[0]}{given[1]}, not {letter}{rank} of --type {info.name}"
        )
    q = qdata.qdatum_from_json({**data, "fin_type": letter, "rank": rank})
    return duality.from_q_datum(info, q) if "datum" in takes else q


def _load_denoms(info, text: str | None) -> None:
    if text:
        data = _payload(text, "--denoms")
        _check_type(info, data, "--denoms")
        affine.load_denominator_json(data)


def _check_type(info, data, flag: str) -> None:
    """Refuse a payload whose ``type`` names another affine type than --type;
    names compare by the type they parse to, so ``A2^(1)`` is ``A2^1``."""
    name = data.get("type") if isinstance(data, dict) else None
    if isinstance(name, str):
        if _type(name, flag).name != info.name:
            raise affine.AffineTypeError(f"{flag} is for {name}, not --type {info.name}")


# ---------------------------------------------------------------------------
# subcommands: each returns its result, a JSON document or a text


def _cmd_roots(args) -> dict:
    rs = _fin(args.fin)
    if args.word:
        word = _word(args.word)
        doc = {
            "fin_type": args.fin,
            "word": list(word),
            "reduced": rs.is_reduced(word),
        }
        if doc["reduced"]:
            doc["betas"] = [list(b) for b in rs.beta_sequence(word)]
            doc["spells_longest"] = rs.spells_longest(word)
        return doc
    return {
        "fin_type": args.fin,
        "longest_word": list(rs.longest_word()),
        "positive_roots": [list(b) for b in rs.positive_roots()],
        "star": {str(i): rs.star(i) for i in rs.nodes},
    }


def _cmd_adapted(args, info, q) -> dict:
    if args.word:
        word = _word(args.word)
        return {"word": list(word), "adapted": qdata.is_adapted(q, word)}
    words = [list(w) for w in qdata.adapted_words(q)]
    return {"count": len(words), "adapted_words": words}


def _cmd_phi(args, info, q) -> dict:
    word = _word(args.word) if args.word else qdata.some_adapted_word(q)
    mapping = qdata.phi(q, word)
    return {
        "word": list(word),
        "labels": [
            {"root": list(beta), "point": [pt.node, pt.power]}
            for beta, pt in mapping.items()
        ],
    }


def _datum_doc(datum: duality.DualityDatum) -> dict:
    return {**duality.datum_to_json(datum), "strength": datum.strength, "complete": datum.complete}


def _cmd_datum_from_q(args, info, q) -> dict:
    return _datum_doc(duality.from_q_datum(info, q))


def _cmd_reflect(args, info, facts, datum) -> dict:
    if not 1 <= args.node <= datum.size:  # also when --times is 0
        raise duality.DualityError(f"node {args.node} out of range")
    op = duality.reflect_inv if args.inverse else duality.reflect
    for _ in range(args.times):
        datum = op(datum, args.node, facts)
    return _datum_doc(datum)


def _cmd_cuspidal(args, info, facts, datum, span) -> list:
    lo, hi = span
    seq = CuspidalSeq(datum, _word(args.word), facts)
    return [{"k": k, "label": modexpr.expr_to_json(seq.materialize(k))} for k in range(lo, hi + 1)]


def _cmd_invariant(args, info) -> dict | str:
    value = _INVARIANT_KINDS[args.kind](info, _point(args.x, "--x"), _point(args.y, "--y"))
    return str(value) if args.format == "text" else {"kind": args.kind, "value": value}


def _cmd_decompose(args, info, q) -> dict:
    word = _word(args.word) if args.word else qdata.some_adapted_word(q)
    seq = FundamentalCuspidalSeq(info, q, word)
    multiset = pbw.multiset_from_json(_payload(args.multiset, "--multiset"))
    return pbw.expvec_to_json(pbw.decompose(multiset, seq))


def _cmd_compare(args) -> dict:
    a = pbw.expvec_from_json(_payload(args.a, "--a"))
    b = pbw.expvec_from_json(_payload(args.b, "--b"))
    return {
        "bilex": pbw.cmp_bilex(a, b).value,
        "left": pbw.cmp_left(a, b),
        "right": pbw.cmp_right(a, b),
    }


def _cmd_sigma_quiver(args, info, span) -> dict | str:
    vertices, arrows = affine.sigma_quiver(info, *span)
    if args.format == "dot":
        lines = ["digraph sigma0 {"]
        for v in vertices:
            lines.append(f'  "{v.node}_{v.power}";')
        for src, dst, mult in arrows:
            for _ in range(mult):
                lines.append(
                    f'  "{src.node}_{src.power}" -> "{dst.node}_{dst.power}";'
                )
        lines.append("}")
        return "\n".join(lines)
    return {
        "vertices": [[v.node, v.power] for v in vertices],
        "arrows": [
            {"from": [a.node, a.power], "to": [b.node, b.power], "mult": m}
            for a, b, m in arrows
        ],
    }


def _cmd_check_strong(args, info, datum) -> dict:
    report = duality.check_strong(datum)
    doc = {
        "overall": report.overall,
        "pairs": {f"{i},{j}": v for (i, j), v in report.pair_verdicts},
        "root_modules": {str(i): v for i, v in report.root_verdicts},
    }
    if report.cartan is not None:
        doc["cartan"] = [list(r) for r in report.cartan]
        doc["cartan_type"] = [
            f"{letter}{rank}" for letter, rank in duality.classify_cartan(report.cartan)
        ]
    return doc


def _cmd_verify_examples(args) -> str:
    info = type_info("A2^1")
    facts = FusionTable.builtin(info)
    P = SigmaPoint
    datum = duality.from_q_datum(info, QDatum("A", 2, (0, 1)))
    head = Head((Fund(P(1, 2)), Fund(P(1, 0))))
    s1 = duality.reflect(datum, 1, facts)
    s2 = duality.reflect(datum, 2, facts)
    checks = [
        (
            "cuspidal sequence of the base datum, word 1,2,1",
            CuspidalSeq(datum, (1, 2, 1), facts).range(1, 6)
            == [Fund(P(i, p)) for i, p in ((1, 0), (2, 1), (1, 2), (2, 3), (1, 4), (2, 5))],
        ),
        (
            "cuspidal sequence of the base datum, word 2,1,2",
            CuspidalSeq(datum, (2, 1, 2), facts).range(1, 3)
            == [Fund(P(1, 2)), head, Fund(P(1, 0))],
        ),
        ("first reflection", s1.members == (Fund(P(2, 3)), Fund(P(2, 1)))),
        ("second reflection", s2.members == (head, Fund(P(2, 5)))),
        (
            "cancellation rewrite",
            modexpr.normalize(info, Head((head, Fund(P(2, 5))))) == Fund(P(1, 0)),
        ),
    ]
    for word in ("1,2,1", "2,1,2"):
        ok, _ = cuspidal.refl_shift_check(datum, _word(word), facts)
        checks.append((f"reflection shifts the cuspidal sequence, word {word}", ok))
    back = duality.reflect_inv(s2, 2, facts)
    restored = duality.datum_equal(back, datum, facts) is Verdict.EQUAL
    checks.append(("inverse reflection restores the datum", restored))
    return "\n".join(f"{'PASS' if ok else 'FAIL'}  {name}" for name, ok in checks)


# The subcommands whose printed result can fail the call, which then exits 1.
_FAILED = {
    "check-strong": lambda doc: doc["overall"] != "pass",
    "verify-examples": lambda text: any(line.startswith("FAIL") for line in text.splitlines()),
}


# Flags that several subcommands take, read by ``run``; each subcommand names its own.
_SHARED_FLAGS = {
    "--type": {"required": True, "help": "affine type, e.g. A2^1"},
    "--q": {"help": 'Q-datum JSON, e.g. {"xi":{"1":0,"2":1}}'},
    "--datum": {"help": "datum JSON (inline or @file); its affine type must be --type"},
    "--denoms": {"help": "denominator table JSON (inline or @file)"},
    "--facts": {"help": "fusion facts JSON (inline or @file)"},
}


def _shared(*flags: str) -> dict[str, dict]:
    return {flag: _SHARED_FLAGS[flag] for flag in flags}


# Every subcommand, in help order: its function, its help and its long options,
# each with the keyword arguments of its ``add_argument`` call.  ``build_parser``
# and ``_plain`` both read this table.
_COMMANDS = {
    "roots": (_cmd_roots, "beta sequences and w0 data of a finite type", {
        "--fin": {"required": True, "help": "finite type, e.g. A3"},
        "--word": {"help": "comma-separated reduced word"}}),
    "adapted": (_cmd_adapted, "check or enumerate adapted words", {
        **_shared("--type", "--q"),
        "--word": {"help": "word to check; omit to enumerate"}}),
    "phi": (_cmd_phi, "label map of a Q-datum along an adapted word", {
        **_shared("--type", "--q"),
        "--word": {"help": "adapted word; omit for the canonical one"}}),
    "datum-from-q": (_cmd_datum_from_q, "canonical duality datum of a Q-datum", {
        **_shared("--type", "--q", "--denoms")}),
    "reflect": (_cmd_reflect, "apply a reflection to a duality datum", {
        **_shared("--type", "--q", "--datum", "--denoms", "--facts"),
        "--node": {"type": int, "required": True},
        "--inverse": {"action": "store_true"},
        "--times": {"type": _times, "default": 1}}),
    "cuspidal": (_cmd_cuspidal, "materialize a cuspidal sequence window", {
        **_shared("--type", "--q", "--datum", "--denoms", "--facts"),
        "--word": {"required": True},
        "--range": {"required": True, "help": "e.g. 1..6"}}),
    "invariant": (_cmd_invariant, "pairing invariants between labels", {
        **_shared("--type", "--denoms"),
        "--kind": {"choices": sorted(_INVARIANT_KINDS), "required": True},
        "--x": {"required": True, "help": "label i,p"},
        "--y": {"required": True, "help": "label i,p"},
        "--format": {"choices": ("json", "text"), "default": "json"}}),
    "decompose": (_cmd_decompose, "cuspidal decomposition of a multiset", {
        **_shared("--type", "--q"),
        "--word": {"help": "adapted word; omit for the canonical one"},
        "--multiset": {"required": True, "help": "[[i,p],...] (inline or @file)"}}),
    "compare": (_cmd_compare, "bi-lexicographic comparison", {
        "--a": {"required": True, "help": "exponent vector JSON"},
        "--b": {"required": True, "help": "exponent vector JSON"}}),
    "sigma-quiver": (_cmd_sigma_quiver, "the quiver on sigma0 in a window", {
        **_shared("--type", "--denoms"),
        "--window": {"required": True, "help": "e.g. 0..6"},
        "--format": {"choices": ("json", "dot"), "default": "json"}}),
    "check-strong": (_cmd_check_strong, "verify the strong-datum axioms", {
        **_shared("--type", "--denoms"),
        "--datum": {**_SHARED_FLAGS["--datum"], "required": True}}),
    "verify-examples": (_cmd_verify_examples, "run the built-in example corpus", {}),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of every subcommand of ``_COMMANDS``, built once
    per process.

    The returned parser is shared by all callers and must not be mutated.
    """
    parser = argparse.ArgumentParser(
        prog="qaffpbw",
        description="label-level PBW combinatorics for quantum affine algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag, spec in flags.items():
            command.add_argument(flag, **spec)
        command.set_defaults(func=func)
    return parser


def _plain(name: str, strings: list[str]) -> argparse.Namespace | None:
    """The namespace argparse gives a plain call of subcommand ``name``, else
    None.  Plain: each string is an exact long option of ``_COMMANDS[name]``
    given once, as ``--flag value`` (value not starting with ``-``),
    ``--flag=value`` or a bare store_true flag, every value converts to one
    of its choices, and every required flag is given."""
    func, _, flags = _COMMANDS[name]
    given, rest = {}, iter(strings)
    for string in rest:
        flag, eq, value = string.partition("=")
        spec = flags.get(flag)
        if spec is None or flag in given:
            return None
        if spec.get("action") == "store_true":
            if eq:
                return None
            value = True
        else:
            if not eq:
                value = next(rest, None)
                if value is None or value.startswith("-"):
                    return None
            try:
                value = spec.get("type", str)(value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
            if "choices" in spec and value not in spec["choices"]:
                return None
        given[flag] = value
    args = {"command": name, "func": func}
    for flag, spec in flags.items():
        if flag not in given and spec.get("required"):
            return None
        store_true = spec.get("action") == "store_true"
        args[flag[2:]] = given.get(flag, spec.get("default", False if store_true else None))
    return argparse.Namespace(**args)


def _parse(argv: list[str]) -> argparse.Namespace:
    """The namespace of one call; raises SystemExit on a usage error or help.

    A plain call of a subcommand (see ``_plain``) is read straight from
    ``_COMMANDS``.  Every other call goes to the full argparse parse, which
    alone prints help, usage and error text.
    """
    parser = build_parser()
    args = _plain(argv[0], argv[1:]) if argv and argv[0] in _COMMANDS else None
    return parser.parse_args(argv) if args is None else args


def run(argv=None) -> int:
    """Run one call of the command line (``sys.argv[1:]`` when argv is None)
    and return its exit code.

    A plain call of a subcommand is read from ``_COMMANDS`` and every other
    call by argparse, which alone prints usage and help (``_parse``).  Flags
    are then read in one order, the bounds (--range, --window, --times)
    first, then --type, --denoms, --facts and --q or --datum, so a refused
    call has read no later payload.  The subcommand gets their objects
    (``span``, ``info``, ``facts``, ``q`` or ``datum``).
    """
    try:
        args = _parse(list(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    given, ready = vars(args), {}
    try:
        for flag, limit in (("range", MAX_RANGE), ("window", MAX_WINDOW)):
            if flag in given:
                ready["span"] = _range(given[flag], f"--{flag}", limit)
        if "times" in given and (args.times is None or not 0 <= args.times <= MAX_TIMES):
            raise ValueError(f"--times must be in 0..{MAX_TIMES}")
        if "type" in given:
            info = ready["info"] = _type(args.type, "--type")
            _load_denoms(info, given.get("denoms"))
            if "facts" in given:
                ready["facts"] = _load_facts(info, args.facts)
            if "q" in given or "datum" in given:  # a subcommand taking --datum gets a datum
                ready["datum" if "datum" in given else "q"] = _load_datum(info, args)
        result = args.func(args, **ready)
    except (ValueError, KeyError, OSError, RecursionError) as err:
        # the library raises ValueErrors; RecursionError: an input past the recursion limit
        print(json.dumps({"error": str(err)}), file=sys.stderr)
        return 1
    print(result if isinstance(result, str) else json.dumps(result, sort_keys=True))
    failed = _FAILED.get(args.command)
    return 1 if failed and failed(result) else 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
