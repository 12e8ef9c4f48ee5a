from __future__ import annotations

from dataclasses import dataclass

import pytest
from conftest import reference_verify_cuspidal_axioms

from qaffpbw import cuspidal, duality
from qaffpbw.affine import AffineTypeError, SigmaPoint, type_info
from qaffpbw.cuspidal import CuspidalSeq, _recursion_step
from qaffpbw.duality import DualityError
from qaffpbw.modexpr import Fund, FusionTable, Head
from qaffpbw.qdata import QDatum
from qaffpbw.rootsys import RootSystem, RootSystemError

A2 = type_info("A2^1")
FACTS = FusionTable.builtin(A2)
P = SigmaPoint


def F(i, p):
    return Fund(P(i, p))


def ex1_datum():
    return duality.from_q_datum(A2, QDatum("A", 2, (0, 1)))


# the formal letter tree of the minimal-pair recursion, a reference for
# materialize: C_k = Letter(j) when beta_k = alpha_j, else Conv(C_a, C_b)


@dataclass(frozen=True)
class Letter:
    node: int

    def __repr__(self) -> str:
        return f"L{self.node}"


@dataclass(frozen=True)
class Conv:
    left: "CuspExpr"
    right: "CuspExpr"

    def __repr__(self) -> str:
        return f"hd({self.left!r}, {self.right!r})"


CuspExpr = Letter | Conv


def cuspidal_expr(rs: RootSystem, word, k: int) -> CuspExpr:
    """Formal letter expression of the k-th cuspidal module, 1 <= k <= l."""
    if not rs.spells_longest(word):
        raise RootSystemError("word does not spell the longest element")
    if not 1 <= k <= len(word):
        raise RootSystemError(f"index {k} outside 1..{len(word)}")
    step = _recursion_step(rs._analysis(word), k)
    if isinstance(step, int):
        return Letter(step)
    a, b = step
    return Conv(cuspidal_expr(rs, word, a), cuspidal_expr(rs, word, b))


def test_cuspidal_expr():
    rs = RootSystem("A", 2)
    assert cuspidal_expr(rs, (1, 2, 1), 2) == Conv(Letter(1), Letter(2))
    assert cuspidal_expr(rs, (2, 1, 2), 2) == Conv(Letter(2), Letter(1))
    assert cuspidal_expr(rs, (1, 2, 1), 1) == Letter(1)
    assert cuspidal_expr(rs, (1, 2, 1), 3) == Letter(2)
    with pytest.raises(RootSystemError):
        cuspidal_expr(rs, (1, 2), 1)


def test_materialize_example_sequence():
    seq = CuspidalSeq(ex1_datum(), (1, 2, 1), FACTS)
    expected = [F(1, 0), F(2, 1), F(1, 2), F(2, 3), F(1, 4), F(2, 5)]
    assert seq.range(1, 6) == expected
    # negative side follows the inverse dual shift
    assert seq.materialize(0) == F(2, -1)
    assert seq.materialize(-2) == F(2, -3)


def test_materialize_other_word():
    seq = CuspidalSeq(ex1_datum(), (2, 1, 2), FACTS)
    assert seq.materialize(1) == F(1, 2)
    assert seq.materialize(2) == Head((F(1, 2), F(1, 0)))
    assert seq.materialize(3) == F(1, 0)
    # the compound label dualizes through its certified factor list
    assert seq.materialize(5) == Head((F(2, 5), F(2, 3)))


def test_label_of_general_sequence():
    # along 2,1,2 every S_k with k = 2 mod 3 is compound and has no label
    seq = CuspidalSeq(ex1_datum(), (2, 1, 2), FACTS)
    assert [seq.label(k) for k in range(-2, 7)] == [
        P(2, -1), None, P(2, -3), P(1, 2), None, P(1, 0), P(2, 5), None, P(2, 3)
    ]
    for k in range(-2, 7):
        value = seq.materialize(k)
        assert seq.label(k) == (value.point if isinstance(value, Fund) else None)


def test_materialize_reflected_datum():
    s2 = duality.reflect(ex1_datum(), 2, FACTS)
    seq = CuspidalSeq(s2, (1, 2, 1), FACTS)
    assert seq.materialize(1) == Head((F(1, 2), F(1, 0)))
    assert seq.materialize(2) == F(1, 0)
    assert seq.materialize(3) == F(2, 5)


def test_dshift_periodicity():
    seq = CuspidalSeq(ex1_datum(), (1, 2, 1), FACTS)
    from qaffpbw import modexpr

    for k in range(-4, 8):
        shifted = modexpr.dual(A2, seq.materialize(k), 1, FACTS)
        assert shifted == seq.materialize(k + 3)


def test_two_construction_paths_agree():
    # minimal-pair recursion vs the label map of the Q-datum; with the
    # shipped A2^1 facts the rank-2 labels match on the nose, and at rank 3
    # unresolved heads must still carry the same block profile
    from qaffpbw import modexpr, qdata
    from qaffpbw.cuspidal import FundamentalCuspidalSeq
    from qaffpbw.modexpr import Verdict

    for n in (2, 3):
        info = type_info(f"A{n}^1")
        facts = FusionTable.builtin(info)
        for heights in qdata.all_height_functions("A", n):
            q = QDatum("A", n, heights)
            word = qdata.some_adapted_word(q)
            labels = FundamentalCuspidalSeq(info, q, word, facts)
            seq = CuspidalSeq(duality.from_q_datum(info, q), word, facts)
            ell = labels.ell
            for k in range(1 - ell, 2 * ell + 1):
                general = seq.materialize(k)
                fund = labels.materialize(k)
                if isinstance(general, Fund):
                    assert general == fund, (n, heights, k)
                else:
                    verdict = modexpr.equal(info, general, fund, facts)
                    assert verdict is not Verdict.DISTINCT, (n, heights, k)
                    probes = info.sigma0_points(-4 * ell, 4 * ell)
                    assert modexpr.block_profile(
                        info, general, probes
                    ) == modexpr.block_profile(info, fund, probes), (n, heights, k)
            if n == 2:
                assert seq.range(1, 2 * ell) == labels.range(1, 2 * ell)


def test_verify_cuspidal_axioms_example():
    seq = CuspidalSeq(ex1_datum(), (1, 2, 1), FACTS)
    report = reference_verify_cuspidal_axioms(seq, -3, 6)
    assert report["overall"] == "pass"


class _StubSeq:
    """Two fundamental labels S_1, S_2 in a window 1..2."""

    info = A2

    def __init__(self, s1, s2):
        self.labels = {1: Fund(s1), 2: Fund(s2)}

    def materialize(self, k):
        return self.labels[k]


def test_verify_cuspidal_axioms_failure_strings():
    # d(D^2 S_2, S_1) = 1 with d(D S_2, S_1) = 0: the first bad shift is m = 2
    report = reference_verify_cuspidal_axioms(_StubSeq(P(2, -1), P(1, -4)), 1, 2)
    assert report["root_module"] == {1: "ok", 2: "ok"}
    assert report["strongly_unmixed"] == {(2, 1): "fail(m=2)"}
    assert report["denominator_nonvanishing"] == {(2, 1): "fail"}
    assert report["overall"] == "fail"
    # the opposite order is strongly unmixed
    report = reference_verify_cuspidal_axioms(_StubSeq(P(1, -4), P(2, -1)), 1, 2)
    assert report["strongly_unmixed"] == {(2, 1): "ok"}
    assert report["overall"] == "pass"


def test_verify_cuspidal_axioms_compound_member():
    # along 2,1,2 the window 1..3 holds S_2 = Head[S_3, S_1]: its pairs are
    # not exact, so they stay unknown and are left out of the denominator check
    seq = CuspidalSeq(ex1_datum(), (2, 1, 2))
    assert seq.materialize(2) == Head((F(1, 2), F(1, 0)))
    report = reference_verify_cuspidal_axioms(seq, 1, 3)
    assert report["root_module"] == {1: "ok", 2: "unknown", 3: "ok"}
    assert report["strongly_unmixed"] == {(2, 1): "unknown", (3, 1): "ok", (3, 2): "unknown"}
    assert report["denominator_nonvanishing"] == {(3, 1): "fail"}
    assert report["overall"] == "fail"


def test_verify_cuspidal_axioms_trivial_window():
    seq = CuspidalSeq(ex1_datum(), (1, 2, 1), FACTS)
    report = reference_verify_cuspidal_axioms(seq, 2, 2)
    assert report["overall"] == "pass"
    assert report["strongly_unmixed"] == {}


def test_verify_cuspidal_axioms_rank3():
    from qaffpbw import qdata
    from qaffpbw.cuspidal import FundamentalCuspidalSeq

    info = type_info("A3^1")
    q = QDatum("A", 3, (0, 1, 2))
    word = qdata.some_adapted_word(q)
    seq = FundamentalCuspidalSeq(info, q, word)
    report = reference_verify_cuspidal_axioms(seq, 1, 2 * seq.ell)
    assert report["overall"] == "pass"


def test_fundamental_seq_index_roundtrip():
    from qaffpbw import qdata
    from qaffpbw.cuspidal import FundamentalCuspidalSeq

    info = type_info("A2^1")
    q = QDatum("A", 2, (0, 1))
    seq = FundamentalCuspidalSeq(info, q, qdata.some_adapted_word(q))
    for k in range(-7, 11):
        assert seq.index_of(seq.label(k)) == k
    # every sigma0 point in a window is hit exactly once
    for point in info.sigma0_points(-9, 9):
        assert seq.label(seq.index_of(point)) == point


def test_refl_shift_check_examples():
    datum = ex1_datum()
    ok, failures = cuspidal.refl_shift_check(datum, (1, 2, 1), FACTS)
    assert ok, failures
    ok, failures = cuspidal.refl_shift_check(datum, (2, 1, 2), FACTS)
    assert ok, failures


def test_refl_shift_check_rank1():
    info = type_info("A1^1")
    datum = duality.from_q_datum(info, QDatum("A", 1, (0,)))
    ok, failures = cuspidal.refl_shift_check(datum, (1,))
    assert ok, failures


def test_word_datum_mismatch():
    datum = ex1_datum()
    with pytest.raises(RootSystemError):
        CuspidalSeq(datum, (1, 2), FACTS)


def test_word_root_system_refusals():
    # two A3 labels with no zero between them: the induced matrix is A1 x A1
    apart = duality.DualityDatum(info=type_info("A3^1"), members=(F(1, 0), F(1, 10)))
    with pytest.raises(DualityError, match="splits as"):
        CuspidalSeq(apart, (1, 2, 1))
    # the A3 datum with its first two members swapped: connected, but node 1
    # is the middle of the chain
    members = duality.from_q_datum(type_info("A3^1"), QDatum("A", 3, (0, 1, 2))).members
    swapped = duality.DualityDatum(info=type_info("A3^1"), members=members[1::-1] + members[2:])
    with pytest.raises(DualityError, match="not in the standard node numbering"):
        CuspidalSeq(swapped, (1, 2, 1, 3, 2, 1))


@pytest.mark.parametrize("bad", [0, 3, 9])
def test_off_diagram_members_are_refused(bad):
    # a datum built in Python, not read from JSON: every window of its
    # sequence raises the error datum_from_json gives for the same member
    datum = duality.DualityDatum(info=type_info("A2^1"), members=(F(bad, 0),))
    for lo, hi in ((1, 1), (2, 2), (3, 3)):
        with pytest.raises(AffineTypeError, match=rf"^node {bad} out of range for A2\^1$"):
            CuspidalSeq(datum, (1,)).range(lo, hi)


def test_minimal_pair_tie_break_independence():
    # evaluating through any minimal pair gives the same label, or at least
    # never a provably different one
    from qaffpbw import modexpr, qdata
    from qaffpbw.modexpr import Verdict

    info = type_info("A3^1")
    q = QDatum("A", 3, (0, 1, 2))
    datum = duality.from_q_datum(info, q)
    word = qdata.some_adapted_word(q)
    seq = CuspidalSeq(datum, word, FusionTable.builtin(info))
    rs = seq.rs
    betas = rs.beta_sequence(word)
    checked = 0
    for k in range(1, len(word) + 1):
        if sum(betas[k - 1]) == 1:
            continue
        pairs = rs.minimal_pairs(word, k)
        values = []
        for a, b in pairs:
            left = seq.materialize(a)
            right = seq.materialize(b)
            values.append(modexpr.head(info, [left, right], seq.facts))
        for other in values[1:]:
            verdict = modexpr.equal(info, values[0], other, seq.facts)
            assert verdict is not Verdict.DISTINCT, (k, pairs, values)
        checked += len(values)
    assert checked >= len(word) - 3


def test_concurrent_materialization():
    from concurrent.futures import ThreadPoolExecutor

    seq = CuspidalSeq(ex1_datum(), (1, 2, 1), FACTS)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(seq.materialize, list(range(-20, 40)) * 4))
    reference = [seq.materialize(k) for k in list(range(-20, 40)) * 4]
    assert results == reference


def _evaluate_letters(seq: CuspidalSeq, expr):
    """The letter tree of cuspidal_expr with heads taken bottom-up: the route
    materialize used before it read its own memo for the two factors."""
    from qaffpbw import modexpr

    if isinstance(expr, Letter):
        return seq.datum.member(expr.node)
    left, right = _evaluate_letters(seq, expr.left), _evaluate_letters(seq, expr.right)
    return modexpr.head(seq.info, [left, right], seq.facts)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_materialize_matches_letter_tree(n):
    from qaffpbw import qdata

    info = type_info(f"A{n}^1")
    for heights in list(qdata.all_height_functions("A", n))[:4]:
        q = QDatum("A", n, heights)
        datum = duality.from_q_datum(info, q)
        for word in (qdata.some_adapted_word(q), q.root_system.longest_word()):
            for facts in (None, FusionTable.builtin(info)):
                seq = CuspidalSeq(datum, word, facts)
                for k in range(1, seq.ell + 1):
                    expected = _evaluate_letters(seq, cuspidal_expr(seq.rs, word, k))
                    assert seq.materialize(k) == expected, (heights, word, k)
