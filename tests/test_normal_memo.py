"""The normal-form memo of ``modexpr.normalize`` against the unmemoized rewriter.

Without a schedule, ``normalize`` keeps the normal form of every non-leaf
expression it reaches in ``affine._derived(info)`` under
``("normal", facts)``.  The checks below compare forms read back from the
memo with ``reference_normalize`` (the rewrite engine's differential
reference), and pin what the memo is keyed and dropped by: the table of
zeros, the value of the fusion table, and the seeded schedule, which never
touches it.  With ``rootsys.CACHE_SIZE`` small, the memo and the type's memos
per fusion table and per probe tuple of ``block_profile`` stay bounded.
"""

from __future__ import annotations

import random

import pytest
from conftest import DEMO_D4
from test_lambda_inf_memo import reference_lambda_inf
from test_rewrite_differential import TYPES, _corpus, reference_normalize

from qaffpbw import affine, rootsys
from qaffpbw import modexpr as me
from qaffpbw.affine import NoProviderError, SigmaPoint, type_info
from qaffpbw.modexpr import Dual, Fund, FusionFact, FusionTable, Head, One

P = SigmaPoint


def _memo(info, facts):
    return affine._derived(info).get(("normal", facts))


def _fresh(info):
    """Drop the type's derived values, so that its memo starts empty."""
    affine._DERIVED.pop(info.name, None)


def _subexpressions(expr):
    """Every non-leaf expression inside ``expr``, itself included."""
    out, stack = [], [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, Head):
            out.append(e)
            stack.extend(e.factors)
        elif isinstance(e, Dual):
            out.append(e)
            stack.append(e.inner)
    return out


@pytest.mark.parametrize("name", TYPES)
@pytest.mark.parametrize("builtin", (False, True))
def test_second_normalize_matches_reference(monkeypatch, name, builtin):
    info = type_info(name)
    facts = FusionTable.builtin(info) if builtin else None
    _fresh(info)
    monkeypatch.setattr(rootsys, "CACHE_SIZE", 10**6)  # the whole corpus stays
    corpus = _corpus(name)
    for expr in corpus:
        me.normalize(info, expr, facts)
    memo = _memo(info, facts)
    for index, expr in enumerate(corpus):
        for sub in _subexpressions(expr):
            assert sub in memo, (index, sub)
            assert me.normalize(info, sub, facts) == reference_normalize(info, sub, facts), (
                index,
                sub,
            )


def test_a_replaced_table_never_returns_a_stale_form(restored_tables):
    info = type_info("D4^1")
    # d((1, 2), (1, 0)) counts the zero 2 of d_{1,1} in DEMO_D4, and none of {4}
    expr = Head((Fund(P(1, 2)), Fund(P(1, 0))))
    affine.register_denominator_table("D4^1", DEMO_D4)
    blocked = me.normalize(info, expr)
    assert me.normalize(info, expr) == blocked == expr
    affine.register_denominator_table("D4^1", {(1, 1): [4]})
    assert me.normalize(info, expr) == Head((Fund(P(1, 0)), Fund(P(1, 2))))
    affine.register_denominator_table("D4^1", DEMO_D4)
    assert me.normalize(info, expr) == expr
    affine._EXTERNAL_TABLES.pop("D4^1")
    with pytest.raises(NoProviderError):
        me.normalize(info, expr)


def test_value_equal_tables_share_one_memo():
    info = type_info("A2^1")
    _fresh(info)
    first, second = FusionTable.builtin(info), FusionTable.builtin(info)
    doc = {"type": "A2^1", "facts": [{"head": [[1, 0], [1, 2]], "eq": [2, 1]}]}
    parsed = FusionTable.from_json(info, doc)
    assert first is not second
    assert first == second == parsed and hash(first) == hash(second) == hash(parsed)
    fused = Head((Fund(P(1, 0)), Fund(P(1, 2))))
    assert me.normalize(info, fused, first) == Fund(P(2, 1))
    assert _memo(info, second) is _memo(info, parsed) is _memo(info, first)
    # the A2^1 builtin fact and no table at all rewrite differently
    assert _memo(info, None) is None
    assert me.normalize(info, fused) == fused
    assert _memo(info, None) is not _memo(info, first)
    assert me.normalize(info, fused, second) == Fund(P(2, 1))
    # a table is tied to its type, and an empty one is not the builtin one
    assert FusionTable(type_info("A3^1"), first.facts) != first
    assert FusionTable(info, ()) != first


@pytest.mark.parametrize("name", TYPES)
def test_a_schedule_neither_reads_nor_fills_the_memo(name):
    info = type_info(name)
    facts = FusionTable.builtin(info)
    _fresh(info)
    corpus = _corpus(name)[:300]
    for index, expr in enumerate(corpus):
        mine = me.normalize(info, expr, facts, random.Random(index))
        assert mine == reference_normalize(info, expr, facts, random.Random(index))
    assert _memo(info, facts) is None
    # a planted wrong form is never read on the seeded path
    planted = {e: One for e in corpus}
    affine._derived(info)["normal", facts] = planted
    for index, expr in enumerate(corpus):
        mine = me.normalize(info, expr, facts, random.Random(index))
        assert mine == reference_normalize(info, expr, facts, random.Random(index))
    assert planted == {e: One for e in corpus}
    _fresh(info)


def _keys_of_kind(info, kind):
    return [key for key in affine._derived(info) if isinstance(key, tuple) and key[0] == kind]


@pytest.mark.parametrize("size", (1, 7))
def test_a_full_memo_starts_over(monkeypatch, size):
    info = type_info("A4^1")
    facts = FusionTable.builtin(info)
    _fresh(info)
    monkeypatch.setattr(rootsys, "CACHE_SIZE", size)
    for index, expr in enumerate(_corpus("A4^1")[:300]):
        for _ in range(2):
            assert me.normalize(info, expr, facts) == reference_normalize(info, expr, facts), index
            assert len(_memo(info, facts)) <= size
    # each probe tuple of block_profile and each fusion table keys a memo of
    # its own in the type's memo: many distinct ones leave at most `size`
    points = (P(1, 0), P(2, 3), P(4, 7))
    expr = Head(tuple(Fund(x) for x in points))
    window = me._probe_window(info)
    for n in range(60):
        probes = (window[n % len(window)], P(1 + n % 4, n))
        expected = tuple(sum(reference_lambda_inf(info, x, y) for x in points) for y in probes)
        assert me.block_profile(info, expr, probes) == expected, probes
        assert ("profile_rows", probes) in affine._derived(info)
        assert len(_keys_of_kind(info, "profile_rows")) <= size
        facts = FusionTable(info, [FusionFact(P(1, 0), P(2, 3), P(3, n))])
        assert me.normalize(info, expr, facts) == reference_normalize(info, expr, facts), n
        assert _memo(info, facts) is not None
        assert len(_keys_of_kind(info, "normal")) <= size
    _fresh(info)


def test_unhashable_factor_lists_still_normalize():
    info = type_info("A2^1")
    facts = FusionTable.builtin(info)
    x, dx = P(1, 0), affine.dual_point(info, P(1, 0), 1)
    inner = Head((Fund(P(1, 2)), Fund(x)))
    listed = Head([Fund(x), inner, Fund(dx)])
    expected = me.normalize(info, Head((Fund(x), inner, Fund(dx))), facts)
    for expr in (listed, Dual(2, Dual(-2, listed)), Head((Fund(P(2, 1)), listed))):
        assert me.normalize(info, expr, facts) == reference_normalize(info, expr, facts)
    assert me.normalize(info, listed, facts) == expected
    assert me.normalize(info, Head([Fund(x), Fund(P(1, 2))]), facts) == Fund(P(2, 1))
    # the hashable inner head is still kept
    assert inner in _memo(info, facts)
    with pytest.raises(TypeError, match="not an expression"):
        me.normalize(info, [Fund(x)], facts)
