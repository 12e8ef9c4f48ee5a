from __future__ import annotations

import random

import pytest
from test_invariants import lambda_inf_word

from qaffpbw import duality, pbw, qdata
from qaffpbw.affine import SigmaPoint, dual_point, type_info
from qaffpbw.cuspidal import CuspidalSeq, FundamentalCuspidalSeq
from qaffpbw.modexpr import Fund, FusionTable
from qaffpbw.pbw import Cmp, ExpVec
from qaffpbw.qdata import QDatum

A2 = type_info("A2^1")
P = SigmaPoint


def ex1_seq():
    q = QDatum("A", 2, (0, 1))
    return FundamentalCuspidalSeq(A2, q, (1, 2, 1), FusionTable.builtin(A2))


def V(data):
    return ExpVec.from_dict(data)


def test_l_r_of():
    a = V({1: 2, 4: 1})
    assert a.l_of() == 4 and a.r_of() == 1
    b = V({-3: 1})
    assert b.l_of() == b.r_of() == -3
    with pytest.raises(ValueError):
        V({}).l_of()
    with pytest.raises(ValueError, match="the zero vector has no support"):
        ExpVec(()).r_of()


def test_getitem_reads_an_entry_or_zero():
    a = V({-4: 3, 0: 1, 2: 5, 7: 2})
    data = dict(a.entries)
    # hits, misses between entries, and indices below and above the support
    for k in range(-10, 12):
        assert a[k] == data.get(k, 0), k
    assert [a[k] for k in (-4, 0, 2, 7)] == [3, 1, 5, 2]
    assert [a[k] for k in (-5, -3, 1, 6, 8)] == [0] * 5
    assert V({})[0] == 0


def test_cmp_bilex_examples():
    a, b = V({1: 1}), V({2: 1})
    assert pbw.cmp_right(a, b) == -1  # larger index 2 decides
    assert pbw.cmp_left(a, b) == 1  # smaller index 1 decides
    assert pbw.cmp_bilex(a, b) is Cmp.INCOMPARABLE

    a, b = V({1: 1}), V({0: 1, 2: 1})
    assert pbw.cmp_bilex(a, b) is Cmp.LESS
    assert pbw.cmp_bilex(b, a) is Cmp.GREATER
    assert pbw.cmp_bilex(a, a) is Cmp.EQUAL


def test_standard_word_examples():
    seq = ex1_seq()
    word = pbw.standard_word(V({1: 2, 4: 1}), seq)
    assert word == [Fund(P(2, 3)), Fund(P(1, 0)), Fund(P(1, 0))]
    assert pbw.standard_word(V({}), seq) == []
    assert pbw.standard_word(V({0: 1}), seq) == [Fund(P(2, -1))]


def test_decompose_examples():
    seq = ex1_seq()
    assert pbw.decompose([P(1, 0), P(1, 0), P(2, 3)], seq) == V({1: 2, 4: 1})
    assert pbw.decompose([], seq) == V({})
    assert pbw.decompose([P(2, -1)], seq) == V({0: 1})


def test_compose_inverse():
    seq = ex1_seq()
    for data in ({1: 2, 4: 1}, {}, {0: 1}, {-2: 1, 3: 2, 7: 1}):
        vec = V(data)
        assert pbw.decompose(pbw.compose(vec, seq), seq) == vec


def test_compose_over_general_sequence():
    # along 2,1,2 the label map gives S_1 = (1,2), S_2 compound, S_3 = (1,0)
    q = QDatum("A", 2, (0, 1))
    facts = FusionTable.builtin(A2)
    seq = CuspidalSeq(duality.from_q_datum(A2, q), (2, 1, 2), facts)
    assert pbw.compose(V({1: 1, 3: 2, 4: 1}), seq) == [P(1, 0), P(1, 0), P(1, 2), P(2, 5)]
    for data in ({2: 1}, {1: 1, 2: 3, 5: 1}):
        with pytest.raises(ValueError) as err:
            pbw.compose(V(data), seq)
        assert str(err.value) == (
            "S_2 is not a fundamental label; the vector is not composable "
            "over this sequence"
        )


def test_decompose_rejects_off_lattice():
    seq = ex1_seq()
    with pytest.raises(Exception):
        pbw.decompose([P(1, 1)], seq)


def test_dshift():
    assert pbw.dshift(V({1: 1}), 1, 3) == V({4: 1})
    vec = V({-2: 3, 5: 1})
    assert pbw.dshift(vec, 0, 3) == vec


def test_in_window():
    assert pbw.in_window(V({1: 2, 4: 1}), 1, 6)
    assert not pbw.in_window(V({0: 1}), 1, 6)
    assert pbw.in_window(V({}), 5, 2)


def test_peel_top_examples():
    seq = ex1_seq()
    report = pbw.peel_top_check([P(1, 0), P(1, 0), P(2, 3)], seq)
    assert report["ok"] and report["top_index"] == 4 and report["pairing_sum"] == 1
    report = pbw.peel_top_check([P(1, 0)], seq)
    assert report["ok"] and report["pairing_sum"] == 1
    assert pbw.peel_top_check([], seq)["ok"]


def _random_vec(rng, lo, hi, max_mult=3):
    support = rng.sample(range(lo, hi + 1), rng.randint(0, min(5, hi - lo)))
    return ExpVec.from_dict({k: rng.randint(1, max_mult) for k in support})


def test_round_trip_randomized():
    rng = random.Random(42)
    for n in (2, 3):
        info = type_info(f"A{n}^1")
        q = QDatum("A", n, tuple((i - 1) % 2 for i in range(1, n + 1)))
        seq = FundamentalCuspidalSeq(info, q, qdata.some_adapted_word(q))
        ell = seq.ell
        for _ in range(150):
            vec = _random_vec(rng, -2 * ell, 2 * ell)
            multiset = pbw.compose(vec, seq)
            assert pbw.decompose(multiset, seq) == vec
            # dual-shift equivariance
            shifted = [dual_point(info, x, 1) for x in multiset]
            assert pbw.decompose(shifted, seq) == pbw.dshift(vec, 1, ell)
            # peeling the top exponent
            assert pbw.peel_top_check(multiset, seq)["ok"]
            # window consistency
            assert pbw.in_window(vec, -2 * ell, 2 * ell)
            if not vec.is_zero():
                assert not pbw.in_window(vec, vec.l_of() + 1, vec.l_of() + 9)


def test_order_laws_randomized():
    rng = random.Random(2025)
    vecs = [_random_vec(rng, -6, 6) for _ in range(120)]
    for a in vecs:
        assert pbw.cmp_bilex(a, a) is Cmp.EQUAL
    for a, b in zip(vecs, vecs[1:]):
        ab, ba = pbw.cmp_bilex(a, b), pbw.cmp_bilex(b, a)
        flip = {
            Cmp.LESS: Cmp.GREATER,
            Cmp.GREATER: Cmp.LESS,
            Cmp.EQUAL: Cmp.EQUAL,
            Cmp.INCOMPARABLE: Cmp.INCOMPARABLE,
        }
        assert ba is flip[ab]
        # conjunction of the two lexicographic orders
        both = pbw.cmp_left(a, b), pbw.cmp_right(a, b)
        assert (ab is Cmp.LESS) == (both == (-1, -1))
    for a, b, c in zip(vecs, vecs[1:], vecs[2:]):
        if pbw.cmp_bilex(a, b) is Cmp.LESS and pbw.cmp_bilex(b, c) is Cmp.LESS:
            assert pbw.cmp_bilex(a, c) is Cmp.LESS


def test_block_constraint_on_standard_words():
    # vectors composing to multisets with the same pairing sums have the
    # same word profile against every probe
    from qaffpbw import invariants

    seq = ex1_seq()
    m1 = [P(1, 0), P(1, 2)]
    m2 = [P(2, 1)]
    probes = A2.sigma0_points(-6, 8)
    prof1 = [pbw_profile(m1, p) for p in probes]
    prof2 = [pbw_profile(m2, p) for p in probes]
    assert prof1 == prof2
    v1, v2 = pbw.decompose(m1, seq), pbw.decompose(m2, seq)
    assert v1 != v2  # distinct vectors in the same block


def pbw_profile(points, probe):
    return lambda_inf_word(A2, points, [probe])


def multiset_to_json(points) -> list:
    return [[p.node, p.power] for p in sorted(points)]


def test_json_roundtrip():
    vec = V({1: 2, 4: 1})
    assert pbw.expvec_from_json(pbw.expvec_to_json(vec)) == vec
    ms = [P(1, 0), P(2, 3)]
    assert pbw.multiset_from_json(multiset_to_json(ms)) == ms
