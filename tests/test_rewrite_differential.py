"""The rewrite engine of ``modexpr`` against the code it replaced.

``_rewrites`` returns the factor list after each applicable rule,
``_trace_canonical`` counts each factor's blockers once and takes a blocker
in front as it stands, the exact steps
of ``_normalize_head`` run inline, and ``d_fund`` counts zeros with
``tuple.count``.  The references below are the replaced code, kept here:
rule instances as ``(name, payload)`` tuples decoded by
``reference_apply_rule``, a trace normal form that filters its movable set
twice through ``reference_sort_key``, ``reference_splice``, and a ``d``
summed from a per-exponent zero order.  ``reference_normalize`` drives them with the same schedule, so a
seeded ``Random`` walks the same path on both sides; on the fixed schedule it
also checks at every step that the library finds the same rewritten lists in
the same order and the same trace normal form.  The trace normal form is also
checked on its own, on seeded lists of up to 12 factors.
"""

from __future__ import annotations

import random
from functools import lru_cache

import pytest
from conftest import DEMO_D4, reference_is_dual_pair

from qaffpbw import affine, invariants
from qaffpbw import modexpr as me
from qaffpbw.affine import SigmaPoint, denom_zeros, dual_point, type_info
from qaffpbw.modexpr import Dual, Fund, FusionTable, Head, One

P = SigmaPoint
EXPRS_PER_TYPE = 2000
TYPES = ("A2^1", "A3^1", "A4^1", "A6^1")
SEEDS = (None, 1, 2)


def reference_zero_order(info, i, j, exponent):
    return sum(1 for m in denom_zeros(info, i, j) if m == exponent)


def reference_d(info, x, y):
    forward = reference_zero_order(info, x.node, y.node, y.power - x.power)
    backward = reference_zero_order(info, y.node, x.node, x.power - y.power)
    return forward + backward


def reference_commute(info, a, b):
    return isinstance(a, Fund) and isinstance(b, Fund) and reference_d(info, a.point, b.point) == 0


def reference_sort_key(e):
    assert isinstance(e, Fund)
    return (e.point.node, e.point.power)


def reference_trace_canonical(info, factors):
    rest = list(factors)
    out = []
    while rest:
        movable = [
            idx
            for idx in range(len(rest))
            if all(reference_commute(info, rest[j], rest[idx]) for j in range(idx))
        ]
        fund_movable = [idx for idx in movable if isinstance(rest[idx], Fund)]
        best = (
            min(fund_movable, key=lambda idx: reference_sort_key(rest[idx]))
            if fund_movable
            else 0
        )
        out.append(rest[best])
        del rest[best]
    return out


def reference_rule_instances(info, factors, facts):
    found = []
    n = len(factors)
    for i in range(n - 1):
        if reference_is_dual_pair(info, factors[i], factors[i + 1]):
            left_ok = all(
                isinstance(factors[j], Fund)
                and reference_d(info, factors[j].point, factors[i].point) == 0
                for j in range(i)
            )
            if left_ok:
                found.append(("cancel_pair", (i,)))
    if n == 3 and reference_is_dual_pair(info, factors[0], factors[-1]):
        found.append(("cancel_outer", ()))
    elif (
        n > 3
        and reference_is_dual_pair(info, factors[0], factors[-1])
        and me.certified_normal(info, factors[:-1])
    ):
        found.append(("cancel_outer", ()))
    if (
        n == 2
        and isinstance(factors[0], Fund)
        and isinstance(factors[1], Head)
        and len(factors[1].factors) == 2
    ):
        inner_x, inner_last = factors[1].factors
        if isinstance(inner_last, Fund) and (
            dual_point(info, factors[0].point, 1) == inner_last.point
        ):
            found.append(("cancel_right_grouped", (inner_x,)))
    if facts is not None and n >= 2:
        a, b = factors[0], factors[1]
        if isinstance(a, Fund) and isinstance(b, Fund):
            hit = facts.lookup(a.point, b.point)
            if hit is not None:
                found.append(("fuse_front", (hit,)))
    return found


def reference_apply_rule(factors, rule, payload):
    if rule == "cancel_pair":
        (i,) = payload
        return factors[:i] + factors[i + 2 :]
    if rule == "cancel_outer":
        return factors[1:-1]
    if rule == "cancel_right_grouped":
        (inner_x,) = payload
        return [inner_x]
    if rule == "fuse_front":
        (hit,) = payload
        return [Fund(hit)] + factors[2:]
    raise AssertionError(rule)


def reference_splice(factors):
    out = []
    changed = False
    for pos, f in enumerate(factors):
        if f is One:
            changed = True
            continue
        if isinstance(f, Head) and not out and pos == 0:
            out.extend(f.factors)
            changed = True
            continue
        out.append(f)
    return out if changed else None


def reference_normalize_head(info, factors, facts, rng):
    work = list(factors)
    while True:
        spliced = reference_splice(work)
        if spliced is not None:
            work = spliced
            continue
        if not work:
            return One
        if len(work) == 1:
            return work[0]
        instances = reference_rule_instances(info, work, facts)
        if rng is None:
            rewritten = [reference_apply_rule(work, rule, p) for rule, p in instances]
            assert me._rewrites(info, work, facts) == rewritten, work
        if instances:
            rule, payload = instances[0] if rng is None else rng.choice(instances)
            work = reference_apply_rule(work, rule, payload)
            continue
        canonical = reference_trace_canonical(info, work)
        if rng is None:
            assert me._trace_canonical(info, work) == canonical, work
        if canonical != work:
            work = canonical
            continue
        return Head(tuple(work))


def reference_push_dual(info, k, body, facts, rng):
    if k == 0:
        return body
    if body is One:
        return One
    if isinstance(body, Fund):
        return Fund(dual_point(info, body.point, k))
    if isinstance(body, Dual):
        return reference_push_dual(info, k + body.shift, body.inner, facts, rng)
    if me.certified_normal(info, body.factors):
        shifted = [Fund(dual_point(info, f.point, k)) for f in body.factors]
        return reference_normalize_head(info, shifted, facts, rng)
    return Dual(k, body)


def reference_normalize(info, expr, facts=None, rng=None):
    if expr is One or isinstance(expr, Fund):
        return expr
    if isinstance(expr, Head):
        inner = [reference_normalize(info, f, facts, rng) for f in expr.factors]
        return reference_normalize_head(info, inner, facts, rng)
    body = reference_normalize(info, expr.inner, facts, rng)
    return reference_push_dual(info, expr.shift, body, facts, rng)


# ---------------------------------------------------------------------------
# seeded corpus


def _random_expr(rng, info, pool, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.4:
        return Fund(rng.choice(pool))
    if roll < 0.55:
        return Dual(rng.choice((-2, -1, 1, 2)), _random_expr(rng, info, pool, depth - 1))
    if roll < 0.6:
        return One
    return _random_head(rng, info, pool, depth)


def _random_head(rng, info, pool, depth):
    """A head of 1-3 random factors, with dual pairs planted next to each
    other or around the factors; the label pool is small so that labels
    commute, cancel and block often."""
    factors = [_random_expr(rng, info, pool, depth - 1) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.4:
        x = rng.choice(pool)
        at = rng.randint(0, len(factors))
        factors[at:at] = [Fund(x), Fund(dual_point(info, x, 1))]
    if rng.random() < 0.25:
        x = rng.choice(pool)
        factors = [Fund(x)] + factors + [Fund(dual_point(info, x, 1))]
    return Head(tuple(factors))


def corpus(info, seed):
    rng = random.Random(seed)
    h = info.dual_shift_exponent
    points = info.sigma0_points(-h, 2 * h)
    out = []
    for _ in range(EXPRS_PER_TYPE):
        pool = rng.sample(points, 3)
        pool += [dual_point(info, x, 1) for x in pool]
        out.append(_random_head(rng, info, pool, rng.randint(1, 6)))
    return out


@lru_cache(maxsize=None)
def _corpus(name):
    info = type_info(name)
    return corpus(info, info.rank)


@pytest.mark.parametrize("name", TYPES)
@pytest.mark.parametrize("builtin", (False, True))
def test_normalize_matches_reference(name, builtin):
    info = type_info(name)
    facts = FusionTable.builtin(info) if builtin else None
    for index, expr in enumerate(_corpus(name)):
        for seed in SEEDS:
            mine = me.normalize(info, expr, facts, None if seed is None else random.Random(seed))
            ref = reference_normalize(
                info, expr, facts, None if seed is None else random.Random(seed)
            )
            assert mine == ref, (index, seed, expr)


def test_corpus_exercises_every_rule_and_blockers():
    seen = set()
    blocker_first = 0
    for name in TYPES:
        info = type_info(name)
        facts = FusionTable.builtin(info)
        for expr in _corpus(name)[:500]:
            stack = [expr]
            while stack:
                e = stack.pop()
                if isinstance(e, Head):
                    factors = [me.normalize(info, f, facts) for f in e.factors]
                    factors = reference_splice(factors) or factors
                    if len(factors) >= 2:
                        seen.update(r for r, _ in reference_rule_instances(info, factors, facts))
                        blocker_first += not isinstance(factors[0], Fund)
                    stack.extend(e.factors)
                elif isinstance(e, Dual):
                    stack.append(e.inner)
    assert seen == {"cancel_pair", "cancel_outer", "cancel_right_grouped", "fuse_front"}
    assert blocker_first > 0


def test_d_fund_matches_reference_on_a_types():
    for rank in range(1, 9):
        info = type_info(f"A{rank}^1")
        labels = [P(i, p) for i in range(1, rank + 1) for p in range(-8, 9)]
        for x in labels:
            for y in labels:
                assert invariants.d_fund(info, x, y) == reference_d(info, x, y), (rank, x, y)


def test_d_fund_matches_reference_on_demo_d4_table():
    saved = dict(affine._EXTERNAL_TABLES)
    try:
        affine.register_denominator_table("D4^1", DEMO_D4)
        info = type_info("D4^1")
        labels = [P(i, p) for i in range(1, 5) for p in range(-8, 9)]
        nonzero = 0
        for x in labels:
            for y in labels:
                value = invariants.d_fund(info, x, y)
                assert value == reference_d(info, x, y), (x, y)
                nonzero += value > 0
        assert nonzero > 0
    finally:
        affine._EXTERNAL_TABLES.clear()
        affine._EXTERNAL_TABLES.update(saved)


# ---------------------------------------------------------------------------
# the trace normal form on its own

TRACE_LISTS = 400
BLOCKERS = (
    Head((Fund(P(1, 2)), Fund(P(1, 0)))),
    Dual(1, Head((Fund(P(1, 0)), Fund(P(1, 4))))),
)


def _trace_list(rng, info):
    """Up to 12 factors: mixed with blockers and repeated labels, pairwise
    commuting, or pairwise blocking."""
    h = info.dual_shift_exponent
    size = rng.randint(0, 12)
    kind = rng.randrange(3)
    if kind == 0:
        pool = rng.sample(info.sigma0_points(-h, 2 * h), 4)
        return [
            rng.choice(BLOCKERS) if rng.random() < 0.15 else Fund(rng.choice(pool))
            for _ in range(size)
        ]
    if kind == 1:
        # every zero lies in 1..h, so exponents h + 1 apart never pair
        return [
            Fund(P(rng.randint(1, info.rank), (h + 1) * rng.randrange(4)))
            for _ in range(size)
        ]
    factors = []
    for _ in range(4 * size):
        f = Fund(P(rng.randint(1, info.rank), rng.randint(-h, h)))
        if len(factors) < size and not any(reference_commute(info, g, f) for g in factors):
            factors.append(f)
    factors += [rng.choice(BLOCKERS) for _ in range(size - len(factors))]
    rng.shuffle(factors)
    return factors


@pytest.mark.parametrize("name", ("A1^1",) + TYPES + ("D4^1",))
def test_trace_canonical_matches_reference(name):
    saved = dict(affine._EXTERNAL_TABLES)
    try:
        affine.register_denominator_table("D4^1", DEMO_D4)
        info = type_info(name)
        rng = random.Random(f"trace-{name}")
        kinds = [0, 0, 0]
        for _ in range(TRACE_LISTS):
            factors = _trace_list(rng, info)
            pairs = [(f, g) for a, f in enumerate(factors) for g in factors[a + 1 :]]
            commuting = sum(reference_commute(info, f, g) for f, g in pairs)
            kinds[0] += len({f for f in factors if isinstance(f, Fund)}) < sum(
                isinstance(f, Fund) for f in factors
            )
            kinds[1] += len(factors) > 2 and commuting == len(pairs)
            kinds[2] += len(factors) > 2 and commuting == 0
            mine = me._trace_canonical(info, factors)
            ref = reference_trace_canonical(info, factors)
            # equal labels keep their order: the same objects come out
            assert [id(f) for f in mine] == [id(f) for f in ref], factors
        assert all(kinds), kinds
    finally:
        affine._EXTERNAL_TABLES.clear()
        affine._EXTERNAL_TABLES.update(saved)
