"""``modexpr.equal`` decides from block profiles before it rewrites.

Every rewrite keeps the block profile: a cancellation drops a pair whose
rows cancel, dual pushes and trace reorders keep the leaves, and each
shipped fusion fact is profile-additive.  So comparing the profiles of the
expressions as given first, and normalizing only when they agree, gives the
verdicts of ``reference_equal``, the route it replaced: normal forms first,
then their profiles.  The checks here run on every recorded pair of the
label-compare benchmark with its three kinds of equal twin and on its
shifted-sequence pairs, under the built-in facts and the A_n fusion family,
and on tables where a rewrite moves the profile, where ``equal`` rewrites
first.  They also check that the profile kept for an expression is read
inside later ones, and pin the Lambda8 values a cold probe basis computes.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest
from conftest import ASYMMETRIC_A3
from test_paper_theorems import a_fusion_facts
from test_probe_basis_differential import (
    outcome,
    reference_block_profile,
    reference_window,
    rref,
)

from qaffpbw import affine, cuspidal, duality, invariants, modexpr, qdata
from qaffpbw.affine import SigmaPoint, dual_point, type_info
from qaffpbw.modexpr import Dual, Fund, FusionFact, FusionTable, Head, One, Verdict

P = SigmaPoint
CORPUS = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "data" / "label_compare.json").read_text()
)


def reference_equal(info, e1, e2, facts=None):
    """``equal`` as it was: normal forms first, then their block profiles."""
    n1 = modexpr.normalize(info, e1, facts)
    n2 = modexpr.normalize(info, e2, facts)
    if n1 == n2:
        return Verdict.EQUAL
    if all(n is One or isinstance(n, Fund) for n in (n1, n2)):
        return Verdict.DISTINCT
    probes = modexpr._probe_basis(info)
    if modexpr.block_profile(info, n1, probes) != modexpr.block_profile(info, n2, probes):
        return Verdict.DISTINCT
    return Verdict.UNKNOWN


def tables(info):
    """The built-in facts, and the A_n fusion family at A3-A6."""
    out = [FusionTable.builtin(info)]
    if 3 <= info.rank <= 6:
        out.append(a_fusion_facts(info))
    return out


def twins(rng, info, expr):
    """Three expressions for the label of ``expr``, one of each kind the
    benchmark compares: a dual and its inverse, a factor and its dual around
    it, and a trivial factor."""
    k = rng.choice((-2, -1, 1, 2))
    x = rng.choice(info.sigma0_points(-6, 8))
    one = Head((expr, One)) if rng.random() < 0.5 else Head((One, expr))
    return [
        Dual(-k, Dual(k, expr)),
        Head((Fund(x), expr, Fund(dual_point(info, x, 1)))),
        one,
    ]


def shifted_pairs(info, facts, heights, ks):
    """(S'_k, S_{k+1}) as ``cuspidal.refl_shift_check`` forms them."""
    q = qdata.QDatum("A", info.rank, tuple(heights))
    datum = duality.from_q_datum(info, q)
    word = qdata.some_adapted_word(q)
    seq = cuspidal.CuspidalSeq(datum, word, facts)
    rotated = tuple(word[1:]) + (seq.rs.extend_letter(word, seq.ell + 1),)
    shifted = cuspidal.CuspidalSeq(duality.reflect(datum, word[0], facts), rotated, facts)
    return [(shifted.materialize(k), seq.materialize(k + 1)) for k in ks]


def test_verdicts_match_on_the_label_compare_pairs_and_their_twins():
    rng = random.Random("profile-first-twins")
    seen = {}
    for entry in CORPUS["pairs"]:
        info = type_info(entry["type"])
        a, b = modexpr.expr_from_json(entry["a"]), modexpr.expr_from_json(entry["b"])
        for facts in tables(info):
            for x, y in [(a, b)] + [(a, twin) for twin in twins(rng, info, a)]:
                verdict = modexpr.equal(info, x, y, facts)
                assert verdict is reference_equal(info, x, y, facts), (info.name, x, y)
                seen[verdict] = seen.get(verdict, 0) + 1
    assert set(seen) == set(Verdict), seen


def test_verdicts_match_on_the_shifted_sequence_pairs():
    seen = set()
    for n, recorded in sorted(CORPUS["shifted"].items()):
        info = type_info(f"A{n}^1")
        for facts in tables(info):
            for entry in recorded:
                for a, b in shifted_pairs(info, facts, entry["heights"], entry["ks"]):
                    verdict = modexpr.equal(info, a, b, facts)
                    assert verdict is reference_equal(info, a, b, facts), (info.name, a, b)
                    seen.add(verdict)
    assert Verdict.DISTINCT not in seen and Verdict.EQUAL in seen, seen


@pytest.mark.parametrize("n", range(2, 9))
def test_shipped_facts_are_profile_additive(n):
    info = type_info(f"A{n}^1")
    window = reference_window(info)
    shipped = [a_fusion_facts(info)] + ([FusionTable.builtin(info)] if n == 2 else [])
    for table in shipped:
        assert table.facts
        for left, right, result in table.facts:
            for t in range(2 * info.dual_shift_exponent):
                a, b, c = (Fund(P(x.node, x.power + t)) for x in (left, right, result))
                pair = modexpr.block_profile(info, Head((a, b)), window)
                assert pair == modexpr.block_profile(info, c, window), (info.name, a, b, c)
        # so equal takes the profile route with them
        assert modexpr._keeps_profiles(info, table)


def _pairs(rng, info, count):
    points = [P(i, p) for i in range(1, info.rank + 1) for p in range(-4, 7)]

    def expr(depth):
        if depth == 0 or rng.random() < 0.4:
            return Fund(rng.choice(points))
        if rng.random() < 0.2:
            return Dual(rng.choice((-1, 1)), expr(depth - 1))
        return Head(tuple(expr(depth - 1) for _ in range(rng.randint(2, 3))))

    for _ in range(count):
        a = expr(rng.randint(1, 3))
        yield a, rng.choice([expr(2)] + twins(rng, info, a) + [Dual(1, a)])


def test_profiles_inside_later_expressions_match_the_leaf_sum():
    info = type_info("A4^1")
    window = reference_window(info)
    rng = random.Random("profile-first-kept")
    for x, y in _pairs(rng, info, 150):
        for e in (x, y, Head((y, x)), Dual(1, Head((x, One))), Head((Dual(1, x), x)), Dual(2, y)):
            assert modexpr.block_profile(info, e, window) == reference_block_profile(
                info, e, window
            ), e


def test_the_profile_kept_for_an_expression_is_what_a_later_one_reads():
    info = type_info("A2^1")
    probes = modexpr._probe_basis(info)
    a = Head((Fund(P(1, 0)), Fund(P(2, 3))))
    real = modexpr.block_profile(info, a, probes)
    rows = affine._derived(info)[("profile_rows", probes)]
    rows[a, 0] = planted = tuple(v + 7 for v in real)
    try:
        assert modexpr.block_profile(info, Head((One, a)), probes) == planted
        assert modexpr.block_profile(info, Dual(2, Head((a, One))), probes) == planted
        # it is read only under the parity of the dual shift it was kept under
        assert modexpr.block_profile(info, Dual(1, a), probes) == tuple(-v for v in real)
    finally:
        affine._DERIVED.pop(info.name)


def test_a_fact_that_moves_the_profile_turns_the_route_off():
    info = type_info("A2^1")
    # V(1) * V(1)_2 = V(1)_1 is not profile-additive
    facts = FusionTable(info, [FusionFact(P(1, 0), P(1, 2), P(1, 1))])
    assert modexpr._keeps_profiles(info, facts) is False
    a, b = Head((Fund(P(1, 0)), Fund(P(1, 2)))), Fund(P(1, 1))
    assert modexpr.equal(info, a, b, facts) is Verdict.EQUAL
    # the same leaves, so the same profile as given; the fact fires on one
    # side only and moves its normal form's profile away from the other's
    c = Head((Fund(P(1, 0)), Fund(P(1, 2)), Fund(P(2, 1))))
    d = Head((Fund(P(1, 2)), Fund(P(1, 0)), Fund(P(2, 1))))
    assert modexpr.equal(info, c, d, facts) is Verdict.DISTINCT
    rng = random.Random("profile-first-bad-fact")
    for x, y in _pairs(rng, info, 300):
        assert modexpr.equal(info, x, y, facts) is reference_equal(info, x, y, facts), (x, y)


def test_a_table_off_its_star_image_rewrites_first(restored_tables):
    affine.register_denominator_table("A3^1", ASYMMETRIC_A3)
    info = type_info("A3^1")
    assert not modexpr._star_invariant(info)
    assert modexpr._keeps_profiles(info, None) is False
    # the basis fills the whole Gram matrix there
    window, period = reference_window(info), 2 * info.dual_shift_exponent
    full = {(x.node, y.node, (x.power - y.power) % period) for x in window for y in window}
    assert _cold_lambda_inf_keys(info) == len(full)
    rng = random.Random("profile-first-asymmetric")
    for x, y in _pairs(rng, info, 300):
        assert outcome(lambda: modexpr.equal(info, x, y)) == outcome(
            lambda: reference_equal(info, x, y)
        ), (x, y)


def test_odd_inputs_give_what_rewriting_first_gives():
    info = type_info("A2^1")
    facts = FusionTable.builtin(info)
    cases = [
        (Fund(P(5, 0)), Fund(P(1, 0))),  # a lone leaf off the diagram is not read
        (Dual(0, Fund(P(0, 0))), Head((Fund(P(1, 0)), Fund(P(1, 2))))),
        (Head((Fund(P(1, 0)), Fund(P(5, 0)))), Fund(P(1, 0))),
        (Head((Fund(P(1, 0)), Fund(P(0, 3)), Fund(P(2, 3)))), One),
        (Head([Fund(P(1, 0)), Fund(P(1, 2))]), Fund(P(2, 1))),
        ([Fund(P(1, 0))], Fund(P(1, 0))),
        (Head((Fund(P(1, 0)), "x")), One),
        # rewriting meets the node off the diagram before the part that is no expression
        (Fund(P(1, 0)), Head((Head((Fund(P(1, 0)), Fund(P(5, 0)))), "x"))),
        # rewriting raises its own TypeError on a shift that is no integer
        (Dual("a", Fund(P(1, 0))), Fund(P(1, 0))),
    ]
    for a, b in cases:
        mine = outcome(lambda: modexpr.equal(info, a, b, facts))
        assert mine == outcome(lambda: reference_equal(info, a, b, facts)), (a, b)


def _cold_lambda_inf_keys(info) -> int:
    affine._DERIVED.pop(info.name, None)
    modexpr._probe_basis(info)
    return len(affine._derived(info)["lambda_inf"])


def test_a_cold_basis_computes_the_upper_triangle_only():
    # the full window-by-window fill computed 64, 216, 512 and 1,000 values
    counts = {n: _cold_lambda_inf_keys(type_info(f"A{n}^1")) for n in (4, 6, 8, 10)}
    assert counts == {4: 34, 6: 111, 8: 260, 10: 505}


def test_the_gram_matrix_is_symmetric_exactly_on_a_star_invariant_table(restored_tables):
    for n in range(1, 11):
        info = type_info(f"A{n}^1")
        window = reference_window(info)
        gram = [[invariants.lambda_inf_fund(info, x, y) for y in window] for x in window]
        assert modexpr._star_invariant(info)
        assert gram == [list(col) for col in zip(*gram)], info.name
    affine.register_denominator_table("A3^1", ASYMMETRIC_A3)
    info = type_info("A3^1")
    window = reference_window(info)
    gram = [[invariants.lambda_inf_fund(info, x, y) for y in window] for x in window]
    assert gram != [list(col) for col in zip(*gram)]
    # so the basis comes from the full fill there
    assert modexpr._probe_basis(info) == tuple(window[c] for c in rref(gram)[1])


def test_differing_profiles_decide_before_any_rewriting():
    info = type_info("A4^1")
    facts = FusionTable.builtin(info)
    a = Head((Fund(P(1, 0)), Fund(P(2, 5)), Fund(P(1, 2))))
    b = Head((Fund(P(1, 0)), Fund(P(3, 5))))
    affine._DERIVED.pop(info.name, None)
    assert modexpr.equal(info, a, b, facts) is Verdict.DISTINCT
    assert ("normal", facts) not in affine._derived(info)
    # agreeing profiles are rewritten
    assert modexpr.equal(info, a, Head((a, One)), facts) is Verdict.EQUAL
    assert a in affine._derived(info)[("normal", facts)]
