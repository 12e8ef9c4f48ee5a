"""Acceptance suite: one test per criterion, exact checks throughout.

Each test prints a single PASS line on success (visible with pytest -s);
any failure surfaces as an ordinary assertion with context.
"""

from __future__ import annotations

import random

from conftest import reduced_words_of_longest

from qaffpbw import cuspidal, duality, invariants, modexpr, pbw, qdata
from qaffpbw.affine import SigmaPoint, denom_zeros, dual_point, type_info
from qaffpbw.cuspidal import CuspidalSeq, FundamentalCuspidalSeq
from qaffpbw.modexpr import Dual, Fund, FusionTable, Head, One
from qaffpbw.pbw import Cmp, ExpVec
from qaffpbw.qdata import QDatum
from qaffpbw.rootsys import RootSystem, cartan

A2 = type_info("A2^1")
FACTS = FusionTable.builtin(A2)
P = SigmaPoint


def F(i, p):
    return Fund(P(i, p))


def _ok(number: int, text: str) -> None:
    print(f"criterion {number}: PASS  {text}")


def _base_datum():
    return duality.from_q_datum(A2, QDatum("A", 2, (0, 1)))


def test_criterion_1_example_sequences():
    datum = _base_datum()
    seq = CuspidalSeq(datum, (1, 2, 1), FACTS)
    assert seq.range(1, 6) == [
        F(1, 0), F(2, 1), F(1, 2), F(2, 3), F(1, 4), F(2, 5),
    ]
    other = CuspidalSeq(datum, (2, 1, 2), FACTS)
    assert other.materialize(1) == F(1, 2)
    assert other.materialize(2) == Head((F(1, 2), F(1, 0)))
    assert other.materialize(3) == F(1, 0)
    _ok(1, "cuspidal sequences of both reduced words reproduce the examples")


def test_criterion_2_reflections():
    datum = _base_datum()
    s1 = duality.reflect(datum, 1, FACTS)
    assert s1.members == (F(2, 3), F(2, 1))
    s2 = duality.reflect(datum, 2, FACTS)
    assert s2.members == (Head((F(1, 2), F(1, 0))), F(2, 5))
    nested = Head((Head((F(1, 2), F(1, 0))), F(2, 5)))
    assert modexpr.normalize(A2, nested) == F(1, 0)
    ok1, fail1 = cuspidal.refl_shift_check(datum, (1, 2, 1), FACTS)
    ok2, fail2 = cuspidal.refl_shift_check(datum, (2, 1, 2), FACTS)
    assert ok1, fail1
    assert ok2, fail2
    _ok(2, "both reflections, the cancellation rewrite, and the shift law hold")


def test_criterion_3_strong_data_exhaustive():
    count = 0
    for n in (1, 2, 3, 4):
        info = type_info(f"A{n}^1")
        expected = cartan("A", n)
        for heights in qdata.all_height_functions("A", n):
            datum = duality.from_q_datum(info, QDatum("A", n, heights))
            report = duality.check_strong(datum)
            assert report.overall == "pass", (n, heights, report)
            assert duality.induced_cartan(datum) == expected, (n, heights)
            count += 1
    _ok(3, f"all {count} normalized Q-data at ranks 1..4 give strong data of type A_n")


def test_criterion_4_invariant_identities():
    rng = random.Random(41)
    checked = 0
    for n in (1, 2, 3, 4):
        info = type_info(f"A{n}^1")
        points = info.sigma0_points(-12, 12)
        for _ in range(2600):
            x, y = rng.choice(points), rng.choice(points)
            d = invariants.d_fund(info, x, y)
            lam = invariants.lambda_fund(info, x, y)
            lam_rev = invariants.lambda_fund(info, y, x)
            lam8 = invariants.lambda_inf_fund(info, x, y)
            assert d == invariants.d_fund(info, y, x)
            assert lam8 == invariants.lambda_inf_fund(info, y, x)
            assert invariants.lambda_inf_fund(info, dual_point(info, x, 1), y) == -lam8
            assert lam == invariants.lambda_fund(info, y, dual_point(info, x, 1))
            assert (lam - lam8) % 2 == 0
            assert 2 * d == lam + lam_rev
            checked += 1
        for _ in range(120):
            assert duality.root_verdict(info, rng.choice(points)) == "ok"
    assert checked >= 10_000
    _ok(4, f"{checked} random pairs satisfy every invariant identity exactly")


def test_criterion_5_denominator_nonvanishing():
    words = 0
    for n in (1, 2, 3, 4):
        info = type_info(f"A{n}^1")
        for heights in qdata.all_height_functions("A", n):
            q = QDatum("A", n, heights)
            for word in qdata.adapted_words(q):
                seq = FundamentalCuspidalSeq(info, q, word)
                ell = seq.ell
                labels = {k: seq.label(k) for k in range(1, 3 * ell + 1)}
                for s in range(1, 3 * ell + 1):
                    for t in range(1, s):
                        xs, xt = labels[s], labels[t]
                        assert (
                            xt.power - xs.power
                            not in denom_zeros(info, xs.node, xt.node)
                        ), (n, heights, word, s, t)
                words += 1
    _ok(5, f"denominators never vanish down the order for all {words} adapted words")


def test_criterion_6_weyl_combinatorics():
    rs = RootSystem("A", 3)
    positives = set(rs.positive_roots())
    words = list(reduced_words_of_longest(rs))
    assert len(words) == 16
    ell = len(rs.positive_roots())
    for word in words:
        betas = rs.beta_sequence(word)
        assert set(betas) == positives and len(set(betas)) == ell
        index = {b: i + 1 for i, b in enumerate(betas)}
        for a in range(1, ell + 1):
            for b in range(a + 1, ell + 1):
                total = tuple(x + y for x, y in zip(betas[a - 1], betas[b - 1]))
                if total in index:
                    assert a < index[total] < b, (word, a, b)
        for k in range(1, ell + 1):
            if sum(betas[k - 1]) > 1:
                assert rs.minimal_pairs(word, k), (word, k)
        for k in range(-ell, 2 * ell + 1):
            assert rs.extend_letter(word, k + ell) == rs.star(
                rs.extend_letter(word, k)
            )
    _ok(6, "all 16 reduced words of w0 in A3 pass bijection, convexity, pairing")


def test_criterion_7_pbw_round_trips():
    rng = random.Random(2718)
    rounds = 0
    for n in (2, 3):
        info = type_info(f"A{n}^1")
        q = QDatum("A", n, tuple((i - 1) % 2 for i in range(1, n + 1)))
        seq = FundamentalCuspidalSeq(info, q, qdata.some_adapted_word(q))
        ell = seq.ell
        lo, hi = -2 * ell, 2 * ell  # a window of width 4l
        for _ in range(500):
            size = rng.randint(0, 6)
            ks = [rng.randint(lo, hi) for _ in range(size)]
            multiset = [seq.label(k) for k in ks]
            vec = pbw.decompose(multiset, seq)
            assert sorted(pbw.compose(vec, seq)) == sorted(multiset)
            shifted = [dual_point(info, x, 1) for x in multiset]
            assert pbw.decompose(shifted, seq) == pbw.dshift(vec, 1, ell)
            assert pbw.peel_top_check(multiset, seq)["ok"]
            assert pbw.in_window(vec, lo, hi)
            if not vec.is_zero():
                assert not pbw.in_window(vec, vec.r_of(), vec.l_of() - 1) or (
                    vec.r_of() > vec.l_of() - 1
                )
                assert pbw.in_window(vec, vec.r_of(), vec.l_of())
            rounds += 1
    _ok(7, f"{rounds} random dominant multisets round-trip with shift equivariance")


def _random_vec(rng) -> ExpVec:
    support = rng.sample(range(-6, 7), rng.randint(0, 5))
    return ExpVec.from_dict({k: rng.randint(1, 3) for k in support})


def test_criterion_8_order_laws():
    rng = random.Random(1618)
    flip = {
        Cmp.LESS: Cmp.GREATER,
        Cmp.GREATER: Cmp.LESS,
        Cmp.EQUAL: Cmp.EQUAL,
        Cmp.INCOMPARABLE: Cmp.INCOMPARABLE,
    }
    pairs = 0
    for _ in range(10_000):
        a, b, c = _random_vec(rng), _random_vec(rng), _random_vec(rng)
        assert pbw.cmp_bilex(a, a) is Cmp.EQUAL
        ab = pbw.cmp_bilex(a, b)
        assert pbw.cmp_bilex(b, a) is flip[ab]
        assert (ab is Cmp.LESS) == (
            pbw.cmp_left(a, b) == -1 and pbw.cmp_right(a, b) == -1
        )
        if ab is Cmp.LESS and pbw.cmp_bilex(b, c) is Cmp.LESS:
            assert pbw.cmp_bilex(a, c) is Cmp.LESS
        # the one-sided comparators are total orders
        assert pbw.cmp_left(a, b) == -pbw.cmp_left(b, a)
        assert pbw.cmp_right(a, b) == -pbw.cmp_right(b, a)
        pairs += 1
    _ok(8, f"{pairs} random pairs satisfy the partial-order laws and the conjunction")


def test_criterion_9_block_root_system():
    for n in (1, 2, 3):
        info = type_info(f"A{n}^1")
        h = info.dual_shift_exponent
        q = QDatum("A", n, tuple((i - 1) % 2 for i in range(1, n + 1)))
        basis = [
            m.point for m in duality.from_q_datum(info, QDatum("A", n, q.heights)).members
        ]
        rs = RootSystem("A", n)
        plus = set(rs.positive_roots())
        expected = sorted(list(plus) + [tuple(-c for c in beta) for beta in plus])
        for offset in (0, 1, -4):
            window = info.sigma0_points(offset, offset + 2 * h - 1)
            coords = []
            for x in window:
                assert invariants.pairing_E(info, x, x) == 2
                coords.append(invariants.root_coordinates(info, x, basis))
            assert sorted(coords) == expected, (n, offset)
    _ok(9, "width-2h windows realize exactly the roots +-Delta+ with (E,E)=2")


def _random_expr(rng, points, depth):
    if depth == 0 or rng.random() < 0.4:
        return Fund(rng.choice(points))
    if rng.random() < 0.15:
        return Dual(rng.choice((-2, -1, 1, 2)), _random_expr(rng, points, depth - 1))
    width = rng.randint(2, 3)
    return Head(tuple(_random_expr(rng, points, depth - 1) for _ in range(width)))


def test_criterion_10_rewrite_health():
    rng = random.Random(31415)
    points = A2.sigma0_points(-6, 8)
    runs = 0
    for _ in range(10_000):
        expr = _random_expr(rng, points, rng.randint(1, 6))
        reference = modexpr.normalize(A2, expr)
        schedule = random.Random(rng.getrandbits(32))
        assert modexpr.normalize(A2, expr, rng=schedule) == reference
        # normal form is a fixed point
        assert modexpr.normalize(A2, reference) == reference
        runs += 1
    _ok(10, f"{runs} random expressions normalize identically under random schedules")
