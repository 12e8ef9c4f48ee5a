"""Hash-once expression nodes and the dense zero table, against what they replaced.

``Head`` and ``Dual`` keep their hash after the first call; the reference is
a mirror of each node in plain frozen dataclasses, whose generated
``__hash__`` is the one the nodes had before.  ``affine._zeros`` is one dense
``zeros[i][j]`` table per type, and ``affine._offsets`` its d-support rows;
the references are the closed A_n^(1) form and the registered table itself,
and, for the readers of the tables, the per-call code they replaced:
``d_fund`` and ``shift_profile`` reading the two zero rows d_{i,j} and
d_{j,i} and finding the node of D^k y with ``dual_point`` (``conftest``),
``_shift_profiles`` calling ``shift_profile`` per pair, ``_is_dual_pair``
comparing with ``dual_point``, and ``sigma0_points`` testing each label with
``in_sigma0``.  Values, dict
orders, error classes and messages must agree.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

import pytest
from conftest import (
    ASYMMETRIC_D4,
    DEMO_D4,
    reference_d,
    reference_is_dual_pair,
    reference_shift_profile,
)
from test_rewrite_differential import _random_expr

from qaffpbw import affine, invariants, modexpr
from qaffpbw.affine import (
    AffineTypeError,
    NoProviderError,
    SigmaPoint,
    denom_zeros,
    dual_point,
    sigma_quiver,
    type_info,
)
from qaffpbw.modexpr import Dual, Fund, Head, One

P = SigmaPoint


# ---------------------------------------------------------------------------
# hash once


@dataclass(frozen=True)
class MirrorDual:
    shift: int
    inner: object


@dataclass(frozen=True)
class MirrorHead:
    factors: tuple


def mirror(expr):
    """The same tree in dataclasses that keep the generated hash and equality."""
    if isinstance(expr, Dual):
        return MirrorDual(expr.shift, mirror(expr.inner))
    if isinstance(expr, Head):
        return MirrorHead(tuple(mirror(f) for f in expr.factors))
    return expr


def _random_exprs(seed: int, count: int):
    info = type_info("A3^1")
    rng = random.Random(seed)
    pool = info.sigma0_points(-4, 4)[:6]
    return [_random_expr(rng, info, pool, rng.randint(1, 5)) for _ in range(count)]


def _nodes(expr):
    yield expr
    if isinstance(expr, Head):
        for factor in expr.factors:
            yield from _nodes(factor)
    elif isinstance(expr, Dual):
        yield from _nodes(expr.inner)


@pytest.mark.parametrize("seed", range(4))
def test_hash_is_the_generated_field_hash(seed):
    for expr in _random_exprs(seed, 150):
        for node in _nodes(expr):
            # twice: the kept value is the computed one
            for _ in range(2):
                assert hash(node) == hash(mirror(node)), node
            if isinstance(node, Head):
                assert hash(node) == hash((node.factors,))
            elif isinstance(node, Dual):
                assert hash(node) == hash((node.shift, node.inner))


@pytest.mark.parametrize("seed", range(4))
def test_equality_is_unchanged(seed):
    exprs = _random_exprs(seed, 60)
    copies = [modexpr.expr_from_json(modexpr.expr_to_json(e)) for e in exprs]
    for a, b in zip(exprs, copies):
        assert a == b and hash(a) == hash(b)
    # hash some of the originals first, so kept and fresh hashes both meet ==
    for e in exprs[::2]:
        hash(e)
    for a in exprs:
        for b in copies:
            assert (a == b) == (mirror(a) == mirror(b)), (a, b)


def test_a_head_of_a_list_raises_on_every_hash():
    listed = Head([Fund(P(1, 0))])
    for _ in range(2):
        with pytest.raises(TypeError, match="unhashable type: 'list'"):
            hash(listed)
    with pytest.raises(TypeError, match="unhashable type: 'list'"):
        hash(Dual(1, listed))


# ---------------------------------------------------------------------------
# the dense zero table


def reference_a_zeros(n: int, i: int, j: int) -> tuple[int, ...]:
    top = min(i, j, n + 1 - i, n + 1 - j)
    return tuple(abs(i - j) + 2 * s for s in range(1, top + 1))


def _assert_table(info, expected) -> None:
    zeros = affine._zeros(info)
    assert len(zeros) == info.rank + 1 and zeros[0] == ()
    for i in range(1, info.rank + 1):
        assert len(zeros[i]) == info.rank + 1 and zeros[i][0] == ()
        for j in range(1, info.rank + 1):
            assert zeros[i][j] == denom_zeros(info, i, j) == expected(i, j), (info.name, i, j)


@pytest.mark.parametrize("rank", range(1, 11))
def test_dense_table_on_a_types(rank):
    info = type_info(f"A{rank}^1")
    _assert_table(info, lambda i, j: reference_a_zeros(rank, i, j))


@pytest.mark.parametrize("zeros", [DEMO_D4, ASYMMETRIC_D4], ids=["demo", "asymmetric"])
def test_dense_table_on_registered_tables(restored_tables, zeros):
    affine.register_denominator_table("D4^1", zeros)
    info = type_info("D4^1")
    _assert_table(info, lambda i, j: tuple(sorted(zeros.get((i, j), ()))))
    assert affine._zeros(info)[3][4] == ((-1, 7) if (3, 4) in zeros else ())
    assert affine._zeros(info)[4][3] == ()


def test_a_replaced_or_popped_table_replaces_the_rows(restored_tables):
    info = type_info("D4^1")
    affine.register_denominator_table("D4^1", DEMO_D4)
    assert affine._zeros(info)[1][1] == (2, 6)
    assert invariants.d_fund(info, P(1, 0), P(1, 2)) == 1
    affine.register_denominator_table("D4^1", {(1, 1): [4]})
    _assert_table(info, lambda i, j: (4,) if (i, j) == (1, 1) else ())
    assert invariants.d_fund(info, P(1, 0), P(1, 2)) == 0
    affine._EXTERNAL_TABLES.pop("D4^1")
    for call in (
        lambda: affine._zeros(info),
        lambda: denom_zeros(info, 1, 1),
        lambda: invariants.d_fund(info, P(1, 0), P(1, 2)),
        lambda: invariants.shift_profile(info, P(1, 0), P(1, 2)),
    ):
        with pytest.raises(NoProviderError, match=r"^D4\^1: no denominator table registered$"):
            call()


def test_a_registered_a_type_table_wins_over_the_closed_form(restored_tables):
    # the closed form gives d_11 of A2^1 the zero 2; the registered table
    # gives it the zero 5 instead, and is read as long as it is registered
    info = type_info("A2^1")
    assert invariants.d_fund(info, P(1, 0), P(1, 5)) == 0
    affine.load_denominator_json('{"type":"A2^1","zeros":{"1,1":[5]}}')
    _assert_table(info, lambda i, j: (5,) if (i, j) == (1, 1) else ())
    assert invariants.d_fund(info, P(1, 0), P(1, 5)) == 1
    affine._EXTERNAL_TABLES.pop("A2^1")
    assert affine._derived(info) == {}
    _assert_table(info, lambda i, j: reference_a_zeros(2, i, j))
    assert invariants.d_fund(info, P(1, 0), P(1, 5)) == 0


# ---------------------------------------------------------------------------
# readers of the table against the code they replaced


def _outcome(call):
    try:
        return call()
    except Exception as exc:  # class and message are compared
        return type(exc), str(exc)


@pytest.mark.parametrize("zeros", [None, DEMO_D4, ASYMMETRIC_D4], ids=["a5", "demo", "asymmetric"])
def test_readers_match_the_replaced_code(restored_tables, zeros):
    if zeros is None:
        info = type_info("A5^1")
    else:
        affine.register_denominator_table("D4^1", zeros)
        info = type_info("D4^1")
    h = info.dual_shift_exponent
    labels = [P(i, p) for i in range(0, info.rank + 2) for p in range(-h - 2, h + 3)]
    rng = random.Random(7)
    for x, y in ((rng.choice(labels), rng.choice(labels)) for _ in range(3000)):
        mine = _outcome(lambda: list(invariants.shift_profile(info, x, y).items()))
        ref = _outcome(lambda: list(reference_shift_profile(info, x, y).items()))
        assert mine == ref, (x, y)
        pair = (Fund(x), Fund(y))
        mine = _outcome(lambda: modexpr._is_dual_pair(info, *pair))
        assert mine == _outcome(lambda: reference_is_dual_pair(info, *pair)), (x, y)
    for x in labels:
        mine = _outcome(lambda: modexpr._is_dual_pair(info, Fund(x), Fund(dual_point(info, x))))
        assert mine is True or mine[0] is AffineTypeError
    assert modexpr._is_dual_pair(info, One, Fund(P(1, 0))) is False


@pytest.mark.parametrize(
    "case", [f"A{n}^1" for n in range(1, 9)] + ["demo", "asymmetric"]
)
def test_offset_rows_and_their_readers(restored_tables, case):
    # d_fund and shift_profile read the d-support rows; the references read
    # the two zero rows d_{i,j} and d_{j,i} on every call
    if case in ("demo", "asymmetric"):
        affine.register_denominator_table("D4^1", DEMO_D4 if case == "demo" else ASYMMETRIC_D4)
        case = "D4^1"
    info = type_info(case)
    h = info.dual_shift_exponent
    offsets = affine._offsets(info)
    assert len(offsets) == info.rank + 1 and offsets[0] == ()
    for i in range(1, info.rank + 1):
        assert len(offsets[i]) == info.rank + 1 and offsets[i][0] == ()
        for j in range(1, info.rank + 1):
            expected = denom_zeros(info, i, j) + tuple(-m for m in denom_zeros(info, j, i))
            assert offsets[i][j] == expected, (i, j)
            for base in (0, -h - 1):
                for gap in range(-3 * h, 3 * h + 1):
                    x, y = P(i, base), P(j, base + gap)
                    assert invariants.d_fund(info, x, y) == reference_d(info, x, y), (x, y)
                    mine = list(invariants.shift_profile(info, x, y).items())
                    assert mine == list(reference_shift_profile(info, x, y).items()), (x, y)


@pytest.mark.parametrize("zeros", [None, DEMO_D4, ASYMMETRIC_D4], ids=["a4", "demo", "asymmetric"])
def test_one_sweep_gives_every_pairwise_profile(restored_tables, zeros):
    if zeros is None:
        info = type_info("A4^1")
    else:
        affine.register_denominator_table("D4^1", zeros)
        info = type_info("D4^1")
    h = info.dual_shift_exponent
    labels = [P(i, p) for i in range(1, info.rank + 1) for p in range(-h, h + 1)]
    rng = random.Random(11)
    for _ in range(200):
        points = [rng.choice(labels + [None]) for _ in range(rng.randint(0, 6))]
        expected = [
            [None if None in (x, y) else invariants.shift_profile(info, x, y) for y in points]
            for x in points
        ]
        assert invariants._shift_profiles(info, points) == expected, points


@pytest.mark.parametrize("name", ["A2^1", "A4^1", "D4^1", "B3^1"])
def test_sigma0_points_match_in_sigma0(restored_tables, name):
    affine.register_denominator_table("D4^1", ASYMMETRIC_D4)
    info = type_info(name)
    for lo, hi in ((-7, 9), (0, 0), (3, 2), (5, -5)):
        expected = _outcome(
            lambda: tuple(
                P(i, p)
                for p in range(lo, hi + 1)
                for i in range(1, info.rank + 1)
                if info.in_sigma0(P(i, p))
            )
        )
        assert _outcome(lambda: info.sigma0_points(lo, hi)) == expected, (name, lo, hi)


def test_an_empty_window_reads_no_zeros():
    info = type_info("E6^1")
    assert info.sigma0_points(1, 0) == ()
    assert sigma_quiver(info, 1, 0) == ((), ())
    with pytest.raises(NoProviderError, match=r"^E6\^1: no denominator table registered$"):
        sigma_quiver(info, 0, 1)


# ---------------------------------------------------------------------------
# errors at node 0 and node rank + 1, as the parent code raised them


@pytest.mark.parametrize("name", ["A2^1", "A6^1"])
def test_out_of_range_nodes_keep_their_errors(name):
    info = type_info(name)
    top = info.rank + 1
    for bad in (0, top):
        text = f"^node {bad} out of range for {re.escape(name)}$"
        for call in (
            lambda: invariants.d_fund(info, P(bad, 0), P(1, 0)),
            lambda: invariants.d_fund(info, P(1, 0), P(bad, 0)),
            lambda: invariants.shift_profile(info, P(bad, 0), P(1, 0)),
            lambda: invariants.shift_profile(info, P(1, 0), P(bad, 0)),
            lambda: invariants._shift_profiles(info, [P(bad, 0), P(1, 0)]),
            lambda: invariants._shift_profiles(info, [P(1, 0), None, P(bad, 0)]),
            lambda: dual_point(info, P(bad, 0)),
            lambda: dual_point(info, P(bad, 0), 2),
            lambda: denom_zeros(info, bad, 1),
            lambda: modexpr.head(info, [Fund(P(bad, 0)), Fund(P(1, 3))]),
        ):
            with pytest.raises(AffineTypeError, match=text) as caught:
                call()
            assert type(caught.value) is AffineTypeError
    # with two bad nodes, d_fund names x first and shift_profile names y first
    with pytest.raises(AffineTypeError, match="^node 0 out of range"):
        invariants.d_fund(info, P(0, 0), P(top, 0))
    with pytest.raises(AffineTypeError, match=f"^node {top} out of range"):
        invariants.shift_profile(info, P(0, 0), P(top, 0))


def test_checks_keep_their_order_without_a_provider():
    d4, b3 = type_info("D4^1"), type_info("B3^1")
    # a node is checked before the table
    with pytest.raises(AffineTypeError, match=r"^node 5 out of range for D4\^1$"):
        invariants.d_fund(d4, P(1, 0), P(5, 0))
    with pytest.raises(AffineTypeError, match=r"^node 0 out of range for D4\^1$"):
        invariants.shift_profile(d4, P(0, 0), P(1, 0))
    # and the dual shift before the node
    with pytest.raises(NoProviderError, match=r"^B3\^1: no dual shift on labels$"):
        invariants.shift_profile(b3, P(0, 0), P(9, 0))
    with pytest.raises(NoProviderError, match=r"^B3\^1: p\* is not an integer power of -q"):
        dual_point(b3, P(9, 0))
    with pytest.raises(NoProviderError, match=r"^B3\^1: p\* is not an integer power of -q"):
        modexpr._is_dual_pair(b3, Fund(P(9, 0)), Fund(P(1, 0)))


def test_dual_shift_exponent_is_computed_once_per_record():
    info = type_info("A4^1")
    assert info.dual_shift_exponent == 5
    assert vars(info)["dual_shift_exponent"] == 5
    assert type_info("B3^1").dual_shift_exponent is None
