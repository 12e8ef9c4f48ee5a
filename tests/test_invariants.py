from __future__ import annotations

import random

import pytest

from qaffpbw import invariants as inv
from qaffpbw.affine import SigmaPoint, dual_point, type_info
from qaffpbw.duality import root_verdict

A2 = type_info("A2^1")
P = SigmaPoint


def lambda_inf_word(info, xs, ys) -> int:
    """Lambda8 between tensor words, additive over all factor pairs.

    The value is exact for any simple subquotient of either product.  This
    was ``invariants.lambda_inf_word``; the library sums memo rows instead
    (``modexpr.block_profile``), and the tests keep it as their reference.
    """
    return sum(inv.lambda_inf_fund(info, x, y) for x in xs for y in ys)


def test_d_fund_examples():
    assert inv.d_fund(A2, P(1, 0), P(1, 2)) == 1
    assert inv.d_fund(A2, P(1, 0), P(1, 0)) == 0
    assert inv.d_fund(A2, P(1, 0), P(2, 1)) == 0


def test_lambda_examples():
    assert inv.lambda_fund(A2, P(1, 0), P(1, 2)) == 1
    assert inv.lambda_inf_fund(A2, P(1, 0), P(1, 0)) == -2
    assert inv.lambda_inf_fund(A2, P(1, 0), P(1, 2)) == 1


def test_de_tilde_examples():
    assert inv.de_tilde_fund(A2, P(1, 0), P(1, 2)) == 0
    # the k = -1 term d(x, D^-1 x) = 1 is the only contribution on a diagonal
    for x in A2.sigma0_points(-2, 4):
        assert inv.de_tilde_fund(A2, x, x) == 1
    # halved-difference description
    for x in A2.sigma0_points(0, 3):
        for y in A2.sigma0_points(0, 3):
            lam = inv.lambda_fund(A2, x, y)
            lam8 = inv.lambda_inf_fund(A2, x, y)
            assert lam - lam8 == 2 * inv.de_tilde_fund(A2, x, y)


def test_de_tilde_swapped_argument_identity():
    # de_tilde(x,y) + de_tilde(y,x) = d(x,y) - Lambda8(x,y)
    for x in A2.sigma0_points(-3, 5):
        for y in A2.sigma0_points(-3, 5):
            assert inv.de_tilde_fund(A2, x, y) + inv.de_tilde_fund(A2, y, x) == inv.d_fund(
                A2, x, y
            ) - inv.lambda_inf_fund(A2, x, y)
    # the pair ((2,3),(1,2)) separates the two argument orders
    assert inv.de_tilde_fund(A2, P(2, 3), P(1, 2)) == 0
    assert inv.de_tilde_fund(A2, P(1, 2), P(2, 3)) == 1
    assert inv.d_fund(A2, dual_point(A2, P(2, 3), -1), P(1, 2)) == 1


def test_zero_c_examples():
    assert inv.zero_c_fund(A2, P(1, 0), P(1, 2)) == 1
    assert inv.zero_c_fund(A2, P(1, 0), P(2, 3)) == 1
    assert inv.zero_c_fund(A2, P(1, 0), P(1, 8)) == 0


def test_pairing_examples():
    for x in A2.sigma0_points(0, 5):
        assert inv.pairing_E(A2, x, x) == 2
    assert inv.pairing_E(A2, P(1, 0), P(1, 2)) == -1
    assert inv.pairing_E(A2, P(2, 1), P(1, 0)) == 1


def test_root_coordinates_examples():
    basis = (P(1, 0), P(1, 2))
    assert inv.root_coordinates(A2, P(2, 1), basis) == (1, 1)
    assert inv.root_coordinates(A2, P(1, 0), basis) == (1, 0)
    assert inv.root_coordinates(A2, P(2, 3), basis) == (-1, 0)


def test_root_coordinates_rejects_bad_basis():
    with pytest.raises(ValueError):
        inv.root_coordinates(A2, P(1, 0), (P(1, 0), P(2, 3)))


def test_root_coordinates_off_component_point_pairs_to_zero():
    # labels off the parity component are orthogonal to the whole lattice
    assert inv.root_coordinates(A2, P(1, 1), (P(1, 0), P(1, 2))) == (0, 0)


def test_lambda_inf_word():
    assert lambda_inf_word(A2, [P(1, 0), P(1, 2)], [P(2, 1)]) == -2
    assert lambda_inf_word(A2, [], [P(1, 0)]) == 0
    assert lambda_inf_word(A2, [P(1, 0)], [P(2, 1)]) == inv.lambda_inf_fund(
        A2, P(1, 0), P(2, 1)
    )


def _random_points(info, rng, count, span):
    pts = info.sigma0_points(-span, span)
    return [rng.choice(pts) for _ in range(count)]


def test_identity_suite_randomized():
    rng = random.Random(20240811)
    for n in (1, 2, 3, 4):
        info = type_info(f"A{n}^1")
        xs = _random_points(info, rng, 120, 10)
        ys = _random_points(info, rng, 120, 10)
        for x, y in zip(xs, ys):
            d = inv.d_fund(info, x, y)
            lam_xy = inv.lambda_fund(info, x, y)
            lam_yx = inv.lambda_fund(info, y, x)
            lam8 = inv.lambda_inf_fund(info, x, y)
            assert d == inv.d_fund(info, y, x)
            assert lam8 == inv.lambda_inf_fund(info, y, x)
            assert inv.lambda_inf_fund(info, dual_point(info, x, 1), y) == -lam8
            assert lam_xy == inv.lambda_fund(info, y, dual_point(info, x, 1))
            assert (lam_xy - lam8) % 2 == 0
            assert 2 * d == lam_xy + lam_yx
            assert inv.d_fund(
                info, dual_point(info, x, 1), dual_point(info, y, 1)
            ) == d


def test_root_module_pattern_randomized():
    rng = random.Random(7)
    for n in (1, 2, 3, 4):
        info = type_info(f"A{n}^1")
        for x in _random_points(info, rng, 40, 12):
            assert root_verdict(info, x) == "ok"


def test_between_expressions_exactness_flags():
    from qaffpbw.modexpr import Dual, Fund, Head, block_profile

    assert inv.lambda_fund(A2, P(1, 0), P(1, 2)) == 1
    assert inv.d_fund(A2, P(1, 0), P(1, 2)) == 1

    compound = Head((Fund(P(1, 2)), Fund(P(1, 0))))
    # Lambda8 stays exact on compounds by additivity
    assert block_profile(A2, compound, (P(1, 2),)) == (
        lambda_inf_word(A2, [P(1, 2), P(1, 0)], [P(1, 2)]),
    )
    assert block_profile(A2, Dual(1, compound), (P(1, 2),)) == (
        -lambda_inf_word(A2, [P(1, 2), P(1, 0)], [P(1, 2)]),
    )


def _assert_profiles_match_scan(info, lo, hi, span=12):
    # reference: d over a generous window of dual shifts, zeros dropped
    labels = [P(i, p) for i in range(1, info.rank + 1) for p in range(lo, hi + 1)]
    for x in labels:
        for y in labels:
            scan = {k: inv.d_fund(info, x, dual_point(info, y, k)) for k in range(-span, span + 1)}
            expected = {k: v for k, v in scan.items() if v}
            assert inv.shift_profile(info, x, y) == expected, (info.name, x, y)


def test_shift_profile_matches_scan_a_type():
    for n in range(1, 7):
        _assert_profiles_match_scan(type_info(f"A{n}^1"), -4, 4)


def test_shift_profile_matches_scan_asymmetric_table():
    from qaffpbw import affine

    zeros = {"1,1": [2, 6], "1,2": [3, 5], "2,1": [3, 5], "2,2": [2, 4, 6]}
    zeros["3,4"] = [-1, 7]  # no "4,3" entry, and a negative zero
    info = affine.load_denominator_json({"type": "D4^1", "zeros": zeros})
    try:
        _assert_profiles_match_scan(info, -8, 8)
        assert inv.shift_profile(info, P(3, 0), P(4, 7)) == {0: 1}
        assert inv.shift_profile(info, P(4, 7), P(3, 0)) == {0: 1}
        assert inv.shift_profile(info, P(3, 0), P(4, -13)) == {2: 1}
    finally:
        affine._EXTERNAL_TABLES.pop("D4^1")


def test_lambda_splits_into_tail_sums():
    # Lambda = zero_c + de_tilde: the nonnegative and negative shift tails
    for x in A2.sigma0_points(-4, 6):
        for y in A2.sigma0_points(-4, 6):
            assert inv.lambda_fund(A2, x, y) == inv.zero_c_fund(
                A2, x, y
            ) + inv.de_tilde_fund(A2, x, y)
