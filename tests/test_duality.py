from __future__ import annotations

import pytest

from qaffpbw import duality, modexpr
from qaffpbw.affine import SigmaPoint, type_info
from qaffpbw.duality import DualityDatum, DualityError
from qaffpbw.modexpr import Fund, FusionTable, Head, Verdict
from qaffpbw.qdata import QDatum
from qaffpbw.rootsys import cartan

A2 = type_info("A2^1")
FACTS = FusionTable.builtin(A2)
P = SigmaPoint


def F(i, p):
    return Fund(P(i, p))


def ex1_datum():
    return duality.from_q_datum(A2, QDatum("A", 2, (0, 1)))


def test_example_datum_is_strong():
    datum = ex1_datum()
    assert datum.members == (F(1, 0), F(1, 2))
    assert datum.complete is True
    assert datum.strength == "verified"
    report = duality.check_strong(datum)
    assert report.overall == "pass"
    assert duality.induced_cartan(datum) == cartan("A", 2)


def test_widely_separated_pair_fails_strongness():
    # d(R_1, D^-2 R_2) = d((1,0),(1,-2)) = 1, so the k-scan rejects the pair
    datum = DualityDatum(info=A2, members=(F(1, 0), F(1, 4)))
    report = duality.check_strong(datum)
    assert report.overall == "fail"
    assert report.verdict(1, 2) == "fail(k=-2)"


def test_dual_shifted_pair_fails_strongness():
    datum = DualityDatum(info=A2, members=(F(1, 0), F(2, 3)))
    report = duality.check_strong(datum)
    assert report.overall == "fail"
    failing = [v for _, v in report.pair_verdicts if v.startswith("fail")]
    assert failing


def test_induced_cartan_errors():
    singleton = DualityDatum(info=A2, members=(F(1, 0),))
    assert duality.induced_cartan(singleton) == ((2,),)
    compound = DualityDatum(
        info=A2, members=(Head((F(1, 2), F(1, 0))), F(2, 5))
    )
    with pytest.raises(DualityError):
        duality.induced_cartan(compound)


def test_induced_cartan_longer_chain():
    info = type_info("A4^1")
    datum = DualityDatum(
        info=info, members=(F(1, 0), F(1, 2), F(1, 4))
    )
    assert duality.induced_cartan(datum) == cartan("A", 3)


def test_classify_cartan():
    assert duality.classify_cartan(cartan("A", 5)) == (("A", 5),)
    assert duality.classify_cartan(cartan("D", 6)) == (("D", 6),)
    assert duality.classify_cartan(cartan("E", 7)) == (("E", 7),)
    e8 = cartan("E", 8)
    order = (5, 2, 7, 0, 3, 6, 1, 4)
    shuffled = tuple(tuple(e8[i][j] for j in order) for i in order)
    for matrix in (e8, shuffled):
        assert duality.classify_cartan(matrix) == (("E", 8),)
    block = ((2, 0), (0, 2))
    assert duality.classify_cartan(block) == (("A", 1), ("A", 1))


def test_reflect_examples():
    datum = ex1_datum()
    s1 = duality.reflect(datum, 1, FACTS)
    assert s1.members == (F(2, 3), F(2, 1))
    assert s1.strength == "verified"
    assert s1.complete is True

    s2 = duality.reflect(datum, 2, FACTS)
    assert s2.members == (Head((F(1, 2), F(1, 0))), F(2, 5))
    assert s2.strength == "inherited"
    assert duality.induced_cartan(s2) == cartan("A", 2)


def test_check_strong_compound_member():
    # S_2 of the example has the compound member Head[R_2, R_1]: both pairs
    # and its root-module check are undecided, so no matrix is induced
    report = duality.check_strong(duality.reflect(ex1_datum(), 2))
    assert report.pair_verdicts == (((1, 2), "unknown"), ((2, 1), "unknown"))
    assert report.root_verdicts == ((1, "unknown"), (2, "ok"))
    assert report.cartan is None
    assert report.overall == "unknown"


def test_reflect_then_inverse_is_identity():
    datum = ex1_datum()
    for k in (1, 2):
        back = duality.reflect_inv(duality.reflect(datum, k, FACTS), k, FACTS)
        assert duality.datum_equal(back, datum, FACTS) is Verdict.EQUAL
        forth = duality.reflect(duality.reflect_inv(datum, k, FACTS), k, FACTS)
        assert duality.datum_equal(forth, datum, FACTS) is Verdict.EQUAL


def test_reflect_inverse_cancels_heads_without_facts():
    datum = ex1_datum()
    s2 = duality.reflect(datum, 2)
    back = duality.reflect_inv(s2, 2)
    # the cancellation (R_2 * R_1) * D^{-1}... resolves symbolically
    assert duality.datum_equal(back, datum) is Verdict.EQUAL


def test_from_q_datum_passes_check_strong_small_ranks():
    from qaffpbw.qdata import all_height_functions

    for n in (1, 2, 3):
        info = type_info(f"A{n}^1")
        for heights in all_height_functions("A", n):
            datum = duality.from_q_datum(info, QDatum("A", n, heights))
            assert datum.strength == "verified"
            assert duality.induced_cartan(datum) == cartan("A", n)


def test_json_roundtrip():
    datum = ex1_datum()
    doc = duality.datum_to_json(datum)
    assert doc["affine"] == "A2^1"
    back = duality.datum_from_json(doc)
    assert back.members == datum.members
    assert back.complete is True
    user = duality.datum_from_json(
        '{"affine":"A2^1","members":{"1":{"fund":[1,0]},"2":{"fund":[1,2]}}}'
    )
    assert user.complete is None


def braid_check(datum, i, j, facts=None):
    """The braid relation between S_i and S_j, compared member-wise with the
    sound comparator: a test of the data, never an assumed rewrite."""
    r = duality.reflect
    if duality.induced_cartan(datum)[i - 1][j - 1] == 0:
        lhs = r(r(datum, i, facts), j, facts)
        rhs = r(r(datum, j, facts), i, facts)
    else:
        lhs = r(r(r(datum, i, facts), j, facts), i, facts)
        rhs = r(r(r(datum, j, facts), i, facts), j, facts)
    return duality.datum_equal(lhs, rhs, facts)


def test_braid_check_experimental():
    datum = ex1_datum()
    verdict = braid_check(datum, 1, 2, FACTS)
    assert verdict in (Verdict.EQUAL, Verdict.UNKNOWN)


def test_datum_equal_verdicts():
    datum = ex1_datum()
    assert duality.datum_equal(datum, datum) is Verdict.EQUAL
    # another type or another size
    other_type = DualityDatum(info=type_info("A3^1"), members=datum.members)
    assert duality.datum_equal(datum, other_type) is Verdict.DISTINCT
    shorter = DualityDatum(info=A2, members=datum.members[:1])
    assert duality.datum_equal(datum, shorter) is Verdict.DISTINCT
    # two heads that equal leaves open; a DISTINCT member decides anyway
    first, second = Head((F(1, -2), F(1, 0))), Head((F(1, 0), F(1, -2)))
    assert modexpr.equal(A2, first, second) is Verdict.UNKNOWN
    open_pair = DualityDatum(info=A2, members=(first, F(1, 2)))
    same_head = DualityDatum(info=A2, members=(second, F(1, 2)))
    moved = DualityDatum(info=A2, members=(second, F(2, 5)))
    assert duality.datum_equal(open_pair, same_head) is Verdict.UNKNOWN
    assert duality.datum_equal(open_pair, moved) is Verdict.DISTINCT


def test_induced_cartan_recomputed_after_reflection():
    from dataclasses import replace

    datum = ex1_datum()
    s1 = duality.reflect(datum, 1, FACTS)
    # recompute from the reflected fundamentals rather than the cached matrix
    fresh = replace(s1, cartan=None)
    assert duality.induced_cartan(fresh) == cartan("A", 2)


def test_from_q_datum_gates():
    from qaffpbw.affine import type_info as ti
    from qaffpbw.qdata import QDatum as Q

    # folded node maps are refused, never guessed
    with pytest.raises(DualityError):
        duality.from_q_datum(ti("B3^1"), Q("A", 5, (0, 1, 0, 1, 0)))
    with pytest.raises(DualityError):
        duality.from_q_datum(ti("A4^2"), Q("A", 4, (0, 1, 0, 1)))
    # the Q-datum must be of the type's associated finite type
    with pytest.raises(DualityError, match="Q-datum type A2 does not match"):
        duality.from_q_datum(ti("A3^1"), Q("A", 2, (0, 1)))
    # untwisted ADE without a denominator table constructs with unknown strength
    d4 = duality.from_q_datum(ti("D4^1"), Q("D", 4, (0, 1, 0, 0)))
    assert d4.strength == "unknown"
    assert d4.complete is True
    assert len(d4.members) == 4
