"""Lambda8 between fundamentals, read from the per-type memo, against a direct sum.

``invariants.lambda_inf_fund`` computes Lambda8 once per (i, j, gap mod 2h)
and keeps it in ``affine._derived(info)``.  The reference below is the
unmemoized signed sum over the shift profile of the labels themselves, as
``lambda_inf_fund`` computed it before the memo.
"""

from __future__ import annotations

import pytest
from conftest import ASYMMETRIC_D4, DEMO_D4

from qaffpbw import affine, invariants
from qaffpbw.affine import NoProviderError, SigmaPoint, type_info

P = SigmaPoint


def reference_lambda_inf(info, x, y) -> int:
    profile = invariants.shift_profile(info, x, y)
    return sum((-1 if k % 2 else 1) * value for k, value in profile.items())


def _assert_matches_reference(info) -> None:
    # two base exponents per gap, so that translated pairs share a memo entry
    h = info.dual_shift_exponent
    for i in range(1, info.rank + 1):
        for j in range(1, info.rank + 1):
            for gap in range(-3 * h, 3 * h + 1):
                for base in (0, -h - 1):
                    x, y = P(i, base + gap), P(j, base)
                    expected = reference_lambda_inf(info, x, y)
                    assert invariants.lambda_inf_fund(info, x, y) == expected, (info.name, x, y)


@pytest.mark.parametrize("rank", range(1, 9))
def test_memo_matches_reference_on_a_types(rank):
    _assert_matches_reference(type_info(f"A{rank}^1"))


@pytest.mark.parametrize("zeros", [DEMO_D4, ASYMMETRIC_D4], ids=["demo", "asymmetric"])
def test_memo_matches_reference_on_registered_tables(restored_tables, zeros):
    affine.register_denominator_table("D4^1", zeros)
    _assert_matches_reference(type_info("D4^1"))


def test_a_replaced_table_replaces_the_memo(restored_tables):
    info = type_info("D4^1")
    x, y = P(1, 0), P(1, 2)
    affine.register_denominator_table("D4^1", DEMO_D4)
    before = invariants.lambda_inf_fund(info, x, y)
    affine.register_denominator_table("D4^1", {(1, 1): [4]})
    after = invariants.lambda_inf_fund(info, x, y)
    assert (before, after) == (1, -1)
    _assert_matches_reference(info)
    affine._EXTERNAL_TABLES.pop("D4^1")
    with pytest.raises(NoProviderError):
        invariants.lambda_inf_fund(info, x, y)


def test_in_sigma0_follows_a_replaced_table(restored_tables):
    info = type_info("D4^1")
    affine.register_denominator_table("D4^1", DEMO_D4)
    assert info.in_sigma0(P(2, 3)) and not info.in_sigma0(P(3, 1))
    affine.register_denominator_table("D4^1", {(1, 3): [1]})
    assert info.in_sigma0(P(3, 1)) and not info.in_sigma0(P(2, 3))
    affine._EXTERNAL_TABLES.pop("D4^1")
    with pytest.raises(NoProviderError):
        info.in_sigma0(P(1, 0))


def test_no_dual_shift_still_raises():
    with pytest.raises(NoProviderError):
        invariants.lambda_inf_fund(type_info("B2^1"), P(1, 0), P(1, 0))
