"""The four benchmark workloads and the input generators they share.

A run calls a workload in three steps:

- ``reference(lib, seed)`` makes the run's inputs from the seed, together
  with every expected output that needs the library, as plain data (ints,
  tuples, JSON documents).  It runs once per run, on an import of its own.
- ``prepare(lib, ref)`` turns that data into the library objects of one
  pass, on a fresh import of the library.  It only builds inputs: it calls
  nothing that an operation computes, so that no cache an operation could
  use is filled before the operation runs.
- ``operations(state, p)`` is a generator over the operations of pass
  ``p``.  It yields one ``Op`` per timed library call and receives the
  call's result back (or ``FAILED``), so later operations can use earlier
  results.  Everything the generator does between two ``yield``s, such as
  building the objects the next call needs, runs outside the timed region.

Every pass repeats the same operations under the same keys, each pass on a
fresh import, so that nothing an earlier pass computed is reused; the
runner keeps the median repetition of each operation.  Within a pass,
inputs share work as a session's would: label-compare compares each
recorded expression twice, cuspidal-build runs the longest word on two
Q-data per rank, and cli-session sends several requests per Q-datum.
pbw-order gives each multiset and each pair to one decomposition or
comparison only.

Only type A_n^(1) is used: it is the only family with built-in denominator
tables.
"""

from __future__ import annotations

import contextlib
import io
import json
import operator
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Hashable

DATA = Path(__file__).resolve().parent / "data"

# Sent back into a generator for an operation that raised or failed its
# check; operations that need its result are skipped.
FAILED = object()


@dataclass
class Op:
    """One timed library call.

    ``key`` names the operation across passes and ``size`` is its size
    class.  ``check`` runs outside the timed region.  ``known_defect`` marks
    a call that already failed when the data was recorded, a documented
    defect: it counts in ``error_rate``, but not in the result's ``failed``.
    """

    key: Hashable
    size: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    known_defect: bool = False


def rng_for(seed: int, *tags) -> random.Random:
    """An independent stream for each (seed, tag...) combination."""
    return random.Random(":".join(str(t) for t in (seed,) + tags))


def load(name: str):
    return json.loads((DATA / name).read_text())


def heights_key(heights) -> str:
    return ",".join(str(h) for h in heights)


def a_fusion_facts(n: int) -> dict:
    """The A_n^(1) fusion family V(i)_p * V(j)_{p+i+j} = V(i+j)_{p+j}.

    With these facts the minimal-pair recursion along an adapted word
    reduces every cuspidal label to the fundamental that the Q-datum label
    map gives, which is the independent route cuspidal-build checks.
    """
    facts = [
        {"head": [[i, 0], [j, i + j]], "eq": [i + j, j]}
        for i in range(1, n)
        for j in range(1, n + 1 - i)
    ]
    return {"type": f"A{n}^1", "facts": facts}


# ---------------------------------------------------------------------------
# cuspidal-build

# (rank, Q-data, words run on each): 126 operations a pass of about 3 s on
# a 2-vCPU x86 VM (Python 3.11), so that a run holds several passes and an
# operation's median pass is steady; A7 would take 4 s a pass by itself.
# Q-data are drawn from the seed, two per rank, except at A6: the cost of an
# A6 sequence varies by up to half between Q-data, A6 takes over a third of a
# pass and its operations make up the 90th percentile, so the seed would
# move both metrics.  A6 runs one fixed Q-datum, as pbw-order does.
CUSPIDAL_WORDS = (
    (4, 2, ("adapted", "greedy")),
    (5, 2, ("adapted", "greedy")),
    (6, (0, 1, 0, 1, 0, 1), ("adapted",)),
)


class CuspidalBuild:
    name = "cuspidal-build"
    why = (
        "Q-datum duality data and minimal-pair cuspidal sequences at A4-A6: "
        "almost all rootsys/qdata with real duality and cuspidal work, no pbw"
    )

    def reference(self, lib, seed: int):
        m = lib.modexpr
        recorded = load("cuspidal_greedy.json")
        rng = rng_for(seed, self.name)
        entries = []
        for n, qdata, words in CUSPIDAL_WORDS:
            info = lib.affine.type_info(f"A{n}^1")
            rs = lib.rootsys.RootSystem("A", n)
            if isinstance(qdata, int):
                qdata = rng.sample(sorted(lib.qdata.all_height_functions("A", n)), qdata)
            else:
                qdata = [qdata]
            for j, h in enumerate(qdata):
                q = lib.qdata.QDatum("A", n, h)
                word = lib.qdata.some_adapted_word(q)
                label_map = lib.cuspidal.FundamentalCuspidalSeq(info, q, word)
                betas = rs.beta_sequence(word)
                simple = [betas.index(rs.simple_root(i)) + 1 for i in rs.nodes]
                # the adapted word is checked against the Q-datum label map,
                # the greedy word against labels recorded in data/
                runs = []
                if "adapted" in words:
                    labels = [m.expr_to_json(e) for e in label_map.range(1, len(word))]
                    runs.append(("adapted", tuple(word), labels))
                if "greedy" in words:
                    greedy = recorded[f"A{n}"][heights_key(h)]
                    runs.append(("greedy", tuple(rs.longest_word()), greedy))
                entries.append(
                    {
                        "key": (n, j),
                        "n": n,
                        "heights": tuple(h),
                        "members": [m.expr_to_json(label_map.materialize(k)) for k in simple],
                        "cartan": tuple(
                            tuple(2 if r == c else -(abs(r - c) == 1) for c in range(n))
                            for r in range(n)
                        ),
                        "words": runs,
                    }
                )
        return {"entries": entries}

    def prepare(self, lib, ref):
        inputs = []
        for e in ref["entries"]:
            n = e["n"]
            info = lib.affine.type_info(f"A{n}^1")
            inputs.append(
                {
                    **e,
                    "info": info,
                    "q": lib.qdata.QDatum("A", n, e["heights"]),
                    "facts": lib.modexpr.FusionTable.from_json(info, a_fusion_facts(n)),
                }
            )
        return {"lib": lib, "entries": inputs}

    def operations(self, st, p: int):
        lib = st["lib"]
        for e in st["entries"]:
            size = f"A{e['n']}"
            datum = yield Op(
                e["key"] + ("datum",),
                size,
                partial(lib.duality.from_q_datum, e["info"], e["q"]),
                partial(_datum_ok, lib, e),
            )
            if datum is FAILED:
                continue
            for kind, word, expected in e["words"]:
                seq = lib.cuspidal.CuspidalSeq(datum, word, e["facts"])
                for k in range(1, len(word) + 1):
                    yield Op(
                        e["key"] + (kind, k),
                        size,
                        partial(seq.materialize, k),
                        partial(_json_is, lib, expected[k - 1]),
                    )


def _json_is(lib, expected, expr) -> bool:
    return lib.modexpr.expr_to_json(expr) == expected


def _datum_ok(lib, entry, datum) -> bool:
    return (
        datum.strength == "verified"
        and datum.complete is True
        and datum.cartan == entry["cartan"]
        and [lib.modexpr.expr_to_json(r) for r in datum.members] == entry["members"]
    )


# ---------------------------------------------------------------------------
# label-compare

# Shifted-sequence pairs: per rank, SHIFTED_QDATA Q-data drawn from those
# with at least SHIFTED_PAIRS pairs that were not EQUAL when recorded,
# and SHIFTED_PAIRS of those pairs each, so every seed gets the same count.
SHIFTED_QDATA = 2
SHIFTED_PAIRS = 3


class LabelCompare:
    name = "label-compare"
    why = (
        "modexpr.equal on random, equal-by-construction and shifted-sequence "
        "pairs at A2/A4/A6, depth 1-6: modexpr/invariants/affine, no rootsys"
    )

    def reference(self, lib, seed: int):
        m = lib.modexpr
        rng = rng_for(seed, self.name)
        corpus = load("label_compare.json")
        pairs = []
        for entry in corpus["pairs"]:
            info = lib.affine.type_info(entry["type"])
            facts = m.FusionTable.builtin(info)
            a = m.expr_from_json(entry["a"])
            twin = _equal_twin(lib, rng, info, a, len(pairs) % 3)
            # normal forms must not depend on the rewrite schedule
            schedule = rng_for(seed, "schedule", len(pairs))
            stable = m.normalize(info, a, facts, rng=schedule) == m.normalize(info, a, facts)
            pairs.append({**entry, "twin": m.expr_to_json(twin), "stable": stable})
        shifted = []
        for n, recorded in sorted(corpus["shifted"].items()):
            info = lib.affine.type_info(f"A{n}^1")
            facts = m.FusionTable.builtin(info)
            eligible = [e for e in recorded if len(e["ks"]) >= SHIFTED_PAIRS]
            for e in rng.sample(eligible, SHIFTED_QDATA):
                q = lib.qdata.QDatum("A", int(n), tuple(e["heights"]))
                ks = rng.sample(e["ks"], SHIFTED_PAIRS)
                for a, b in _shifted_pairs(lib, info, facts, q, ks):
                    shifted.append((f"A{n}^1", m.expr_to_json(a), m.expr_to_json(b)))
        tally = {"decided": 0, "verdicts": 0}
        return {"seed": seed, "pairs": pairs, "shifted": shifted, "tally": tally}

    def prepare(self, lib, ref):
        m = lib.modexpr
        items = []
        for entry in ref["pairs"]:
            info = lib.affine.type_info(entry["type"])
            facts = m.FusionTable.builtin(info)
            a = m.expr_from_json(entry["a"])
            size = f"depth{entry['depth']}"
            b, twin = m.expr_from_json(entry["b"]), m.expr_from_json(entry["twin"])
            items.append(("random", size, info, facts, a, b, entry["verdict"], True))
            items.append(("equal", size, info, facts, a, twin, None, entry["stable"]))
        for name, a, b in ref["shifted"]:
            info = lib.affine.type_info(name)
            facts = m.FusionTable.builtin(info)
            a, b = m.expr_from_json(a), m.expr_from_json(b)
            items.append(("shifted", f"shifted-{name[:-2]}", info, facts, a, b, None, True))
        return {"lib": lib, "seed": ref["seed"], "items": items, "tally": ref["tally"]}

    def operations(self, st, p: int):
        lib = st["lib"]
        order = list(enumerate(st["items"]))
        rng_for(st["seed"], self.name, "order", p).shuffle(order)
        for key, (kind, size, info, facts, a, b, reference, stable) in order:
            yield Op(
                key,
                size,
                partial(lib.modexpr.equal, info, a, b, facts),
                partial(_verdict_ok, st["tally"], kind, reference, stable),
            )


def _equal_twin(lib, rng: random.Random, info, expr, choice: int):
    """An expression denoting the same label, by sound rewrites only.

    ``choice`` picks the rewrite; it goes by position rather than by the
    seed, so that every seed has the same mix of the three kinds.
    """
    m = lib.modexpr
    if choice == 0:
        k = rng.choice((-2, -1, 1, 2))
        return m.Dual(-k, m.Dual(k, expr))
    if choice == 1:
        x = rng.choice(info.sigma0_points(-6, 8))
        return m.Head((m.Fund(x), expr, m.Fund(lib.affine.dual_point(info, x, 1))))
    return m.Head((expr, m.One)) if rng.random() < 0.5 else m.Head((m.One, expr))


def _shifted_pairs(lib, info, facts, q, ks):
    """(S'_k, S_{k+1}) as cuspidal.refl_shift_check forms them, for k in ks.

    S is the sequence of the Q-datum's duality datum along its adapted word,
    S' that of the datum reflected at the word's first letter along the
    rotated word; the two labels are equal by the reflection shift theorem.
    """
    datum = lib.duality.from_q_datum(info, q)
    word = lib.qdata.some_adapted_word(q)
    seq = lib.cuspidal.CuspidalSeq(datum, word, facts)
    rotated = tuple(word[1:]) + (seq.rs.extend_letter(word, seq.ell + 1),)
    reflected = lib.duality.reflect(datum, word[0], facts)
    shifted = lib.cuspidal.CuspidalSeq(reflected, rotated, facts)
    return [(shifted.materialize(k), seq.materialize(k + 1)) for k in ks]


def _verdict_ok(tally, kind: str, reference, stable: bool, verdict) -> bool:
    value = verdict.value
    tally["verdicts"] += 1
    tally["decided"] += value != "unknown"
    if not stable:
        return False
    if kind != "random":
        # equal by construction, or by the reflection shift theorem
        return value != "distinct"
    # a decided verdict may replace a reference UNKNOWN, never the reverse
    return value == reference or reference == "unknown"


# ---------------------------------------------------------------------------
# pbw-order

PBW_TYPES = (4, 8)
# support size -> (multisets per type, bilex comparisons): 120 operations a
# pass of about 2 s on a 2-vCPU x86 VM (Python 3.11), so a run holds several
# passes.  Operation costs form clusters several-fold apart, and a
# percentile at the edge of a cluster jumps between runs; with these counts
# the 90th percentile falls inside the 12 A8 decompositions at support 1000,
# below the 4 comparisons at support 1000, which take most of a pass.
PBW_SIZES = {10: (5, 10), 100: (6, 4), 1000: (6, 4)}


class PbwOrder:
    name = "pbw-order"
    why = (
        "decompose/compose/cmp_bilex at support 10/100/1000 over A4 and A8 "
        "label maps: pbw and index_of only, bypasses rootsys and modexpr"
    )

    def reference(self, lib, seed: int):
        # every input is generated afresh in prepare; the checks need no
        # recorded data
        return {"seed": seed}

    def prepare(self, lib, ref):
        rng = rng_for(ref["seed"], self.name)
        seqs = []
        for n in PBW_TYPES:
            # one fixed Q-datum per type: index_of's cost depends on it, and
            # the seed is meant to vary the multisets only
            info = lib.affine.type_info(f"A{n}^1")
            q = lib.qdata.QDatum("A", n, tuple((i - 1) % 2 for i in range(1, n + 1)))
            seqs.append(
                lib.cuspidal.FundamentalCuspidalSeq(info, q, lib.qdata.some_adapted_word(q))
            )
        cases = {
            (seq.ell, s): [_pbw_case(lib, rng, seq, s) for _ in range(count)]
            for seq in seqs
            for s, (count, _) in PBW_SIZES.items()
        }
        pairs = {
            s: [(_random_vec(lib, rng, s), _random_vec(lib, rng, s)) for _ in range(count)]
            for s, (_, count) in PBW_SIZES.items()
        }
        return {"lib": lib, "seqs": seqs, "cases": cases, "pairs": pairs}

    def operations(self, st, p: int):
        pbw = st["lib"].pbw
        for s in PBW_SIZES:
            size = f"support{s}"
            for seq in st["seqs"]:
                for i, c in enumerate(st["cases"][seq.ell, s]):
                    key = (seq.ell, s, i)
                    vec = yield Op(
                        key + ("decompose",),
                        size,
                        partial(pbw.decompose, c["multiset"], seq),
                        partial(operator.eq, c["vec"]),
                    )
                    if vec is not FAILED:
                        yield Op(
                            key + ("compose",),
                            size,
                            partial(pbw.compose, vec, seq),
                            partial(operator.eq, c["sorted"]),
                        )
                    # decompose commutes with the dual shift
                    yield Op(
                        key + ("shifted",),
                        size,
                        partial(pbw.decompose, c["shifted"], seq),
                        partial(_shift_ok, pbw, c["vec"], seq.ell),
                    )
            for i, (a, b) in enumerate(st["pairs"][s]):
                yield Op(
                    (s, i, "bilex"),
                    size,
                    partial(pbw.cmp_bilex, a, b),
                    partial(_bilex_ok, a, b),
                )


def _shift_ok(pbw, vec, ell: int, shifted) -> bool:
    return shifted == pbw.dshift(vec, 1, ell)


def _random_vec(lib, rng: random.Random, support: int):
    span = 3 * support
    return lib.pbw.ExpVec.from_dict(
        {k: rng.randint(1, 3) for k in rng.sample(range(-span, span), support)}
    )


def _pbw_case(lib, rng: random.Random, seq, support: int) -> dict:
    vec = _random_vec(lib, rng, support)
    multiset = [seq.label(k) for k, v in vec.entries for _ in range(v)]
    rng.shuffle(multiset)
    return {
        "multiset": multiset,
        "sorted": sorted(multiset),
        "shifted": [seq.label(k + seq.ell) for k, v in vec.entries for _ in range(v)],
        "vec": vec,
    }


def _bilex_ok(a, b, result) -> bool:
    """Independent bi-lexicographic comparison by one pass over the entries."""
    da, db = dict(a.entries), dict(b.entries)
    diffs = [k for k in sorted(da.keys() | db.keys()) if da.get(k, 0) != db.get(k, 0)]
    if not diffs:
        return result.value == "equal"
    left = da.get(diffs[0], 0) < db.get(diffs[0], 0)
    right = da.get(diffs[-1], 0) < db.get(diffs[-1], 0)
    if left != right:
        return result.value == "incomparable"
    return result.value == ("less" if left else "greater")


# ---------------------------------------------------------------------------
# cli-session

class CliSession:
    name = "cli-session"
    why = (
        "seeded in-process cli.run calls over all 12 subcommands at A2-A4 plus "
        "malformed payloads: per-call parsing and JSON, not kernels"
    )

    def reference(self, lib, seed: int):
        # every recorded request runs in every pass; the seed orders them
        return {"seed": seed, "script": load("cli_session.json")["calls"]}

    def prepare(self, lib, ref):
        return {"lib": lib, **ref}

    def operations(self, st, p: int):
        order = list(enumerate(st["script"]))
        rng_for(st["seed"], self.name, "order", p).shuffle(order)
        for key, entry in order:
            yield Op(
                key,
                entry["argv"][0],
                partial(invoke_cli, st["lib"], entry["argv"]),
                partial(_cli_ok, entry),
                known_defect=entry.get("known_defect", False),
            )


def invoke_cli(lib, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.run(list(argv))
    return code, out.getvalue(), err.getvalue()


def _cli_ok(entry, result) -> bool:
    """The exit-code contract, plus the stdout bytes recorded in data/.

    Exit 1 carries either a JSON error on stderr or, for check-strong, the
    failing verdict document on stdout; exit 2 is an argparse usage error.
    """
    code, out, err = result
    if code != entry["code"]:
        return False
    if code == 2:
        return not out and "Traceback" not in err
    if out != entry["stdout"]:
        return False
    if code == 1 and err:
        try:
            doc = json.loads(err)
        except ValueError:
            return False
        return isinstance(doc, dict) and "error" in doc
    return code == 0 or bool(out)


WORKLOADS = {w.name: w for w in (CuspidalBuild(), LabelCompare(), PbwOrder(), CliSession())}
