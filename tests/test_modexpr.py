from __future__ import annotations

import random

import pytest

from qaffpbw import modexpr as me
from qaffpbw.affine import SigmaPoint, type_info
from qaffpbw.modexpr import Dual, Fund, FusionTable, Head, One, Verdict

A2 = type_info("A2^1")
FACTS = FusionTable.builtin(A2)
P = SigmaPoint


def F(i, p):
    return Fund(P(i, p))


def test_dual_on_fund_and_one():
    assert me.dual(A2, F(1, 0), 1) == F(2, 3)
    assert me.dual(A2, One, 5) is One
    assert me.dual(A2, F(1, 0), 0) == F(1, 0)


def test_dual_distributes_over_certified_head():
    e = Head((F(1, 0), F(1, 2)))
    assert me.dual(A2, e, 1) == Head((F(2, 3), F(2, 5)))
    assert me.dual(A2, me.dual(A2, e, 1), -1) == e


def test_dual_distributes_over_reversed_kr_pair():
    # ((1,2),(1,0)) is strongly unmixed, so the dual reaches the leaves
    e = Head((F(1, 2), F(1, 0)))
    assert me.certified_normal(A2, e.factors)
    assert me.dual(A2, e, 1) == Head((F(2, 5), F(2, 3)))


def test_dual_stays_symbolic_without_certificate():
    # d(D^2 (1,0), (1,4)) = 1, so strong unmixedness fails for this pair
    e = Head((F(1, 0), F(1, 4)))
    assert not me.certified_normal(A2, e.factors)
    out = me.dual(A2, e, 1)
    assert out == Dual(1, e)
    assert me.dual(A2, out, -1) == e


def test_head_single_and_empty():
    assert me.head(A2, [F(1, 0)]) == F(1, 0)
    assert me.head(A2, []) is One
    assert me.head(A2, [F(1, 0), One]) == F(1, 0)


def test_head_fusion_fact():
    assert me.head(A2, [F(1, 0), F(1, 2)], FACTS) == F(2, 1)
    # shift and dual images of the shipped fact
    assert me.head(A2, [F(1, 4), F(1, 6)], FACTS) == F(2, 5)
    assert me.head(A2, [F(2, 1), F(2, 3)], FACTS) == F(1, 2)


def test_head_without_fact_stays():
    assert me.head(A2, [F(1, 2), F(1, 0)], FACTS) == Head((F(1, 2), F(1, 0)))


def test_mndm_cancellation():
    nested = Head((Head((F(1, 2), F(1, 0))), F(2, 5)))
    assert me.normalize(A2, nested) == F(1, 0)
    # L * DL collapses to the trivial module
    assert me.head(A2, [F(1, 0), F(2, 3)]) is One
    # right-grouped variant L * (X * DL)
    grouped = Head((F(1, 2), Head((F(1, 0), F(2, 5)))))
    assert me.normalize(A2, grouped) == F(1, 0)


def test_guarded_pair_cancellation_after_commuting_prefix():
    # (1,6) commutes with (1,0); the pair ((1,0),(2,3)) is a dual pair
    e = Head((F(1, 6), F(1, 0), F(2, 3)))
    assert me.normalize(A2, e) == F(1, 6)
    # a blocking prefix keeps the expression intact up to sorting
    blocked = Head((F(1, 2), F(1, 0), F(2, 3)))
    out = me.normalize(A2, blocked)
    assert isinstance(out, Head) and len(out.factors) == 3


def test_outer_cancellation_over_certified_prefix():
    # (1,0) and (2,3) = D(1,0) enclose two middle factors; the prefix
    # [(1,0), (1,2), (1,-2)] is certified normal, so it regroups and cancels
    factors = [F(1, 0), F(1, 2), F(1, -2), F(2, 3)]
    assert me.certified_normal(A2, factors[:-1])
    assert me._rewrites(A2, factors, None) == [factors[1:-1]]
    assert me.normalize(A2, Head(tuple(factors))) == Head((F(1, -2), F(1, 2)))


def test_outer_cancellation_needs_certified_prefix():
    # the same four labels with the middle reversed: [(1,0), (1,-2), (1,2)]
    # is not certified normal, so no rule fires and all four factors stay
    factors = [F(1, 0), F(1, -2), F(1, 2), F(2, 3)]
    assert not me.certified_normal(A2, factors[:-1])
    assert me._rewrites(A2, factors, None) == []
    assert me.normalize(A2, Head(tuple(factors))) == Head(tuple(factors))


def test_blocker_first_keeps_its_place():
    blocker = me.dual(A2, Head((F(1, 0), F(1, 4))), 1)
    assert isinstance(blocker, Dual)
    # (1,6) and (1,0) commute, so they sort, but not past the blocker
    e = Head((blocker, F(1, 6), F(1, 0)))
    assert me.normalize(A2, e) == Head((blocker, F(1, 0), F(1, 6)))
    assert me._trace_canonical(A2, [blocker, F(1, 6), F(1, 0)])[0] == blocker


def test_commuting_factors_sorted():
    e = Head((F(1, 4), F(1, 0)))
    assert me.normalize(A2, e) == Head((F(1, 0), F(1, 4)))
    stuck = Head((F(1, 2), F(1, 0)))  # d = 1, no swap
    assert me.normalize(A2, stuck) == stuck


def test_equal_verdicts():
    assert me.equal(A2, F(1, 0), F(1, 0)) is Verdict.EQUAL
    assert me.equal(A2, F(1, 0), F(2, 1)) is Verdict.DISTINCT
    assert (
        me.equal(A2, Head((F(1, 2), F(1, 0))), Head((F(1, 0), F(1, 2))))
        is Verdict.UNKNOWN
    )
    # with facts one side becomes V(2)_{-q}; the block profile cannot separate
    assert (
        me.equal(A2, Head((F(1, 2), F(1, 0))), Head((F(1, 0), F(1, 2))), FACTS)
        is Verdict.UNKNOWN
    )


def test_equal_separates_by_profile():
    assert me.equal(A2, F(1, 0), One) is Verdict.DISTINCT
    assert (
        me.equal(A2, Head((F(1, 2), F(1, 0))), Head((F(1, 2), F(1, 4))))
        is Verdict.DISTINCT
    )


def test_equal_is_dual_invariant_on_normal_forms():
    e = Head((F(1, 0), F(1, 2)))
    d1 = me.dual(A2, e, 1)
    back = me.dual(A2, d1, -1)
    assert me.equal(A2, e, back) is Verdict.EQUAL


def _random_expr(rng, points, depth):
    if depth == 0 or rng.random() < 0.4:
        return Fund(rng.choice(points))
    if rng.random() < 0.15:
        return Dual(rng.choice((-1, 1)), _random_expr(rng, points, depth - 1))
    width = rng.randint(2, 3)
    return Head(tuple(_random_expr(rng, points, depth - 1) for _ in range(width)))


def test_normalization_terminates_and_is_schedule_insensitive():
    rng = random.Random(99)
    points = A2.sigma0_points(-4, 6)
    for _ in range(400):
        e = _random_expr(rng, points, rng.randint(1, 6))
        reference = me.normalize(A2, e)
        for seed in (1, 2):
            again = me.normalize(A2, e, rng=random.Random(seed))
            assert again == reference


def test_json_roundtrip():
    exprs = [
        One,
        F(1, 0),
        Head((F(1, 2), F(1, 0))),
        Dual(2, Head((F(1, 2), F(1, 0)))),
    ]
    for e in exprs:
        assert me.expr_from_json(me.expr_to_json(e)) == e
    # bare point pairs are accepted inside head lists
    assert me.expr_from_json({"head": [[1, 2], [1, 0]]}) == Head((F(1, 2), F(1, 0)))


def test_fusion_table_json():
    doc = {
        "type": "A2^1",
        "facts": [{"head": [[1, 0], [1, 2]], "eq": [2, 1], "shift_equivariant": True}],
    }
    table = FusionTable.from_json(A2, doc)
    assert table.lookup(P(1, 0), P(1, 2)) == P(2, 1)
    assert table.lookup(P(1, 10), P(1, 12)) == P(2, 11)
    assert table.lookup(P(2, 3), P(2, 5)) == P(1, 4)
    assert table.lookup(P(1, 2), P(1, 0)) is None
    assert FusionTable.from_json(A2, {**doc, "type": "A2^(1)"}).facts == table.facts
    with pytest.raises(ValueError, match="fusion table is for A3\\^1, not A2\\^1"):
        FusionTable.from_json(A2, {**doc, "type": "A3^1"})


@pytest.mark.parametrize(
    "head, eq, field, node",
    [
        ([[1, 0], [1, 2]], [7, 1], "eq", 7),
        ([[0, 0], [1, 2]], [2, 1], "head", 0),
        ([[1, 0], [3, 2]], [2, 1], "head", 3),
        ([[1, 0], [1, 2]], [-1, 1], "eq", -1),
    ],
)
def test_fusion_fact_nodes_must_be_nodes_of_the_type(head, eq, field, node):
    with pytest.raises(ValueError) as info:
        FusionTable.from_json(A2, {"facts": [{"head": head, "eq": eq}]})
    assert str(info.value) == f"fusion fact field '{field}' has node {node}, outside 1..2"
