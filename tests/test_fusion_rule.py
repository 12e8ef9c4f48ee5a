"""Fusion facts as one equivariant rule, against the scan it replaced.

``FusionTable.lookup`` is one read of a dict keyed by (node, node, gap)
that holds each fact and then its star mirror.  The reference is the
former lookup, verbatim: a scan over the facts in table order that tries
each fact directly, then under the star mirror, and translates the result.
Its non-equivariant branch never fires, since every fact is equivariant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

from qaffpbw.affine import AffineTypeError, SigmaPoint, type_info
from qaffpbw.modexpr import FusionFact, FusionTable

P = SigmaPoint
SEED = 20260419


@dataclass(frozen=True)
class ScanFact:
    left: SigmaPoint
    right: SigmaPoint
    result: SigmaPoint
    shift_equivariant: bool = True


def reference_lookup(info, facts, a, b):
    """The former ``FusionTable.lookup``, with ``self.facts`` as ``facts``."""
    star = info.star
    for fact in facts:
        if not fact.shift_equivariant:
            if (a, b) == (fact.left, fact.right):
                return fact.result
            continue
        if b.power - a.power != fact.right.power - fact.left.power:
            continue
        shift = a.power - fact.left.power
        if (a.node, b.node) == (fact.left.node, fact.right.node):
            return SigmaPoint(fact.result.node, fact.result.power + shift)
        if (a.node, b.node) == (star(fact.left.node), star(fact.right.node)):
            return SigmaPoint(star(fact.result.node), fact.result.power + shift)
    return None


def _random_facts(rng, n):
    """Up to 8 facts on few nodes and gaps, so that keys collide: some facts
    are translated copies of an earlier one with another result, and on odd
    n the middle node is its own star."""
    facts = []
    for _ in range(rng.randint(0, 8)):
        if facts and rng.random() < 0.3:
            left, right, _ = rng.choice(facts)
            t = rng.randint(-4, 4)
            left, right = P(left.node, left.power + t), P(right.node, right.power + t)
        else:
            p = rng.randint(-3, 3)
            left = P(rng.randint(1, n), p)
            right = P(rng.randint(1, n), p + rng.randint(-2, 2))
        facts.append(FusionFact(left, right, P(rng.randint(1, n), rng.randint(-5, 5))))
    return facts


@pytest.mark.parametrize("n", range(1, 7))
def test_lookup_agrees_with_the_scan(n):
    info = type_info(f"A{n}^1")
    rng = random.Random(SEED + n)
    hits = 0
    for _ in range(50):
        facts = _random_facts(rng, n)
        table = FusionTable(info, facts)
        scanned = [ScanFact(*f) for f in facts]
        for _ in range(300):
            if facts and rng.random() < 0.5:  # a fact, translated and maybe starred
                left, right, _ = rng.choice(facts)
                i, j = left.node, right.node
                if rng.random() < 0.5:
                    i, j = info.star(i), info.star(j)
                t = rng.randint(-6, 6)
                a, b = P(i, left.power + t), P(j, right.power + t)
            else:  # anywhere, nodes 0 and n + 1 outside the type included
                p = rng.randint(-8, 8)
                a = P(rng.randint(0, n + 1), p)
                b = P(rng.randint(0, n + 1), p + rng.randint(-3, 3))
            expected = reference_lookup(info, scanned, a, b)
            assert table.lookup(a, b) == expected, (facts, a, b)
            hits += expected is not None
    assert hits > 5000  # of 15,000: the lookups reach the facts, not only misses


def test_the_first_fact_for_a_key_wins():
    info = type_info("A3^1")  # star: 1 <-> 3, 2 <-> 2
    first = FusionFact(P(1, 0), P(2, 1), P(3, 0))
    translate = FusionFact(P(1, 2), P(2, 3), P(1, 9))  # keyed as first
    mirrored = FusionFact(P(3, 5), P(2, 6), P(2, 0))  # keyed as first's mirror
    cases = [
        ([first, translate, mirrored], P(1, 4), P(3, 4)),  # first, read directly
        ([first, translate, mirrored], P(3, 4), P(1, 4)),  # first's mirror, not mirrored
        ([mirrored, first], P(1, 4), P(2, -1)),  # mirrored's mirror, not first
        ([mirrored, first], P(3, 4), P(2, -1)),  # mirrored, read directly
    ]
    for facts, a, expected in cases:
        b = P(2, a.power + 1)
        assert FusionTable(info, facts).lookup(a, b) == expected
        assert reference_lookup(info, [ScanFact(*f) for f in facts], a, b) == expected


@pytest.mark.parametrize(
    "fact",
    [
        FusionFact(P(3, 0), P(1, 2), P(2, 1)),
        FusionFact(P(1, 0), P(0, 2), P(2, 1)),
        FusionFact(P(1, 0), P(1, 2), P(3, 1)),
    ],
    ids=["left", "right", "result"],
)
def test_a_node_outside_the_type_is_refused_when_the_table_is_built(fact):
    with pytest.raises(AffineTypeError, match="out of range for A2\\^1"):
        FusionTable(type_info("A2^1"), [fact])


def test_shift_equivariant_may_only_be_true():
    info = type_info("A2^1")
    fact = {"head": [[1, 0], [1, 2]], "eq": [2, 1]}
    absent = FusionTable.from_json(info, {"facts": [fact]})
    true = FusionTable.from_json(info, {"facts": [{**fact, "shift_equivariant": True}]})
    assert absent == true and hash(absent) == hash(true)
    assert absent.facts == true.facts == (FusionFact(P(1, 0), P(1, 2), P(2, 1)),)
    assert absent == FusionTable.builtin(info)
    for value in (False, "false", 0, 1, None):
        with pytest.raises(ValueError, match="'shift_equivariant' must be true") as err:
            FusionTable.from_json(info, {"facts": [{**fact, "shift_equivariant": value}]})
        assert str(err.value).endswith(f"got {value!r}")
