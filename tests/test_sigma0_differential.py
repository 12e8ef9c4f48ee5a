"""The one sigma0 rule against the three routes it replaced.

``AffineTypeInfo.in_sigma0`` reads a base exponent per node and a period off
the denominator zeros.  The references below are the code it replaced, kept
here: the A_n^(1) parity lambda, the O(V^2) pair scan of ``sigma_quiver``
counting each zero order inline, a search of the component of (1, 0) in a
wide box (which the padded-window search only approximated), and the padded
probe window of ``modexpr.equal``.
"""

from __future__ import annotations

import random

import pytest
from conftest import DEMO_D4
from test_invariants import lambda_inf_word

from qaffpbw import affine, invariants, modexpr
from qaffpbw.affine import SigmaPoint, denom_zeros, dual_point, sigma_quiver, type_info
from qaffpbw.modexpr import Dual, Fund, Head, One, Verdict

P = SigmaPoint

# extra tables: nodes reached through a negative and a one-way zero, a period
# of 4 with node 2 reached only through d_{2,1}, and node 1 with no zero at
# all (period 0, sigma0 = {(1, 0)})
TABLES = {
    "D4^1": DEMO_D4,
    "D5^1": {**DEMO_D4, (1, 3): [3], (3, 4): [-1, 7], (5, 5): [2]},
    "E6^1": {(1, 1): [4], (2, 1): [6], (2, 3): [10]},
    "E7^1": {(2, 2): [2], (2, 3): [1]},
}
EQUAL_PAIRS = 1600


@pytest.fixture
def tables():
    saved = dict(affine._EXTERNAL_TABLES)
    for name, zeros in TABLES.items():
        affine.register_denominator_table(name, zeros)
    yield {name: type_info(name) for name in TABLES}
    affine._EXTERNAL_TABLES.clear()
    affine._EXTERNAL_TABLES.update(saved)


def reference_parity(info, point: SigmaPoint) -> bool:
    return 1 <= point.node <= info.rank and (point.power - point.node + 1) % 2 == 0


def reference_quiver(info, vertices):
    arrows = []
    for src in vertices:
        for dst in vertices:
            gap = dst.power - src.power
            mult = sum(1 for m in denom_zeros(info, src.node, dst.node) if m == gap)
            if mult:
                arrows.append((src, dst, mult))
    return tuple(vertices), tuple(arrows)


def reference_component(info, box: int) -> set[SigmaPoint]:
    """The component of (1, 0), searched over every exponent in [-box, box]."""
    seen = {P(1, 0)}
    frontier = [P(1, 0)]
    while frontier:
        x = frontier.pop()
        for j in range(1, info.rank + 1):
            for m in affine.denom_zeros(info, x.node, j) + affine.denom_zeros(info, j, x.node):
                for y in (P(j, x.power + m), P(j, x.power - m)):
                    if abs(y.power) <= box and y not in seen:
                        seen.add(y)
                        frontier.append(y)
    return seen


def points_where(info, lo, hi, keep) -> list[SigmaPoint]:
    """The labels with exponent in [lo, hi] that ``keep`` accepts, in window order."""
    return [P(i, p) for p in range(lo, hi + 1) for i in range(1, info.rank + 1) if keep(P(i, p))]


def test_in_sigma0_matches_a_type_parity():
    for n in range(1, 11):
        info = type_info(f"A{n}^1")
        for i in range(0, n + 2):
            for p in range(-40, 41):
                assert info.in_sigma0(P(i, p)) == reference_parity(info, P(i, p)), (n, i, p)
        parity = points_where(info, -7, 8, lambda x: reference_parity(info, x))
        assert info.sigma0_points(-7, 8) == tuple(parity)


WINDOWS = [(3, 0), (0, 0), (5, 5), (-4, -1), (-6, 9), (0, 40)]


@pytest.mark.parametrize("n", range(1, 9))
def test_sigma_quiver_matches_pair_scan_a_type(n):
    info = type_info(f"A{n}^1")
    for lo, hi in WINDOWS:
        vertices = points_where(info, lo, hi, lambda x: reference_parity(info, x))
        assert sigma_quiver(info, lo, hi) == reference_quiver(info, vertices), (lo, hi)


def test_sigma0_matches_component_search_on_tables(tables):
    for name, info in tables.items():
        component = reference_component(info, 200).__contains__
        assert info.sigma0_points(-40, 40) == tuple(points_where(info, -40, 40, component)), name
        for lo, hi in WINDOWS + [(100, 104), (-30, -21)]:
            vertices = points_where(info, lo, hi, component)
            assert sigma_quiver(info, lo, hi) == reference_quiver(info, vertices), (name, lo, hi)


def test_demo_d4_quiver_is_not_empty_far_from_zero(tables):
    vertices, arrows = sigma_quiver(tables["D4^1"], 100, 104)
    assert vertices == (P(1, 100), P(2, 101), P(1, 102), P(2, 103), P(1, 104))
    assert (P(1, 100), P(2, 103), 1) in arrows and len(arrows) == 5


def test_lattice_shape(tables):
    assert affine._sigma0_lattice(type_info("A4^1")) == ({1: 0, 2: 3, 3: 4, 4: 5}, 2)
    assert affine._sigma0_lattice(tables["E6^1"])[1] == 4
    assert affine._sigma0_lattice(tables["E7^1"]) == ({1: 0}, 0)
    assert tables["E7^1"].sigma0_points(-10, 10) == (P(1, 0),)


# -- the padded probe window of ``equal`` -------------------------------------


def reference_probe_window(info, exprs):
    powers = [0]
    for e in exprs:
        for point, shift in modexpr.signed_leaves(e):
            powers.append(dual_point(info, point, shift).power)
    pad = max(abs(m) for i in range(1, info.rank + 1) for j in range(1, info.rank + 1)
              for m in affine.denom_zeros(info, i, j) or (0,))
    pad += 2 * info.dual_shift_exponent
    return info.sigma0_points(min(powers) - pad, max(powers) + pad)


def reference_equal(info, e1, e2, facts) -> Verdict:
    n1 = modexpr.normalize(info, e1, facts)
    n2 = modexpr.normalize(info, e2, facts)
    if n1 == n2:
        return Verdict.EQUAL
    if isinstance(n1, Fund) and isinstance(n2, Fund):
        return Verdict.DISTINCT
    if (n1 is One) != (n2 is One) and (isinstance(n1, Fund) or isinstance(n2, Fund)):
        return Verdict.DISTINCT
    leaves1 = [dual_point(info, x, k) for x, k in modexpr.signed_leaves(n1)]
    leaves2 = [dual_point(info, x, k) for x, k in modexpr.signed_leaves(n2)]
    for probe in reference_probe_window(info, (n1, n2)):
        first = lambda_inf_word(info, leaves1, (probe,))
        if first != lambda_inf_word(info, leaves2, (probe,)):
            return Verdict.DISTINCT
    return Verdict.UNKNOWN


def _random_expr(rng, points, depth):
    if depth == 0 or rng.random() < 0.4:
        return Fund(rng.choice(points))
    if rng.random() < 0.15:
        return Dual(rng.choice((-2, -1, 1, 2)), _random_expr(rng, points, depth - 1))
    return Head(tuple(_random_expr(rng, points, depth - 1) for _ in range(rng.randint(2, 3))))


def _translate(expr, t):
    if isinstance(expr, Fund):
        return Fund(P(expr.point.node, expr.point.power + t))
    if isinstance(expr, Dual):
        return Dual(expr.shift, _translate(expr.inner, t))
    return Head(tuple(_translate(f, t) for f in expr.factors))


def _pair(rng, info, points):
    a = _random_expr(rng, points, rng.randint(1, 2))
    kind = rng.random()
    if kind < 0.3:
        return a, _random_expr(rng, points, rng.randint(1, 2))
    if kind < 0.6 and isinstance(a, Head):
        # the same leaves in another order: equal profiles, often other forms
        factors = list(a.factors)
        rng.shuffle(factors)
        return a, Head(tuple(factors))
    if kind < 0.8:
        # a dual shift negates the profile; a translation moves it
        return a, Dual(rng.choice((-1, 1)), a)
    return a, _translate(a, rng.choice((-4, -2, 2, 4, 2 * info.dual_shift_exponent)))


def test_equal_matches_padded_probe_window():
    rng = random.Random("sigma0-probe-window")
    verdicts = []
    for _ in range(EQUAL_PAIRS):
        info = type_info(f"A{rng.randint(2, 6)}^1")
        facts = modexpr.FusionTable.builtin(info)
        a, b = _pair(rng, info, info.sigma0_points(-6, 8))
        verdict = modexpr.equal(info, a, b, facts)
        assert verdict is reference_equal(info, a, b, facts), (info.name, a, b)
        verdicts.append(verdict)
    assert {Verdict.EQUAL, Verdict.DISTINCT, Verdict.UNKNOWN} <= set(verdicts)


def test_probe_window_meets_every_dual_orbit_once(tables):
    for info in [type_info(f"A{n}^1") for n in range(1, 9)] + [tables["D4^1"]]:
        probes = modexpr._probe_window(info)
        for x in info.sigma0_points(-30, 30):
            orbit = [dual_point(info, x, k) for k in range(-40, 41)]
            assert sum(y in probes for y in orbit) == 1, (info.name, x)


def test_lambda_inf_changes_sign_under_the_dual_shift(tables):
    # with the orbit test above, this is what lets 0..h-1 stand for all of sigma0
    for info in [type_info(f"A{n}^1") for n in range(2, 7)] + [tables["D4^1"]]:
        h = info.dual_shift_exponent
        labels = [P(i, p) for i in range(1, info.rank + 1) for p in range(-h, 2 * h)]
        for x in labels:
            for y in labels:
                shifted = invariants.lambda_inf_fund(info, x, dual_point(info, y))
                assert shifted == -invariants.lambda_inf_fund(info, x, y), (info.name, x, y)


def test_equal_decides_on_a_registered_table(tables):
    info = tables["D4^1"]
    a = Head((Fund(P(1, 0)), Fund(P(1, 2))))
    b = Head((Fund(P(1, 0)), Fund(P(1, 4))))
    assert modexpr.equal(info, a, b) is Verdict.DISTINCT
    # the factors do not commute (d = 1), so the forms differ but the profiles agree
    assert modexpr.equal(info, a, Head((Fund(P(1, 2)), Fund(P(1, 0))))) is Verdict.UNKNOWN
