"""The probe basis and the memo rows of ``modexpr.equal`` against the window.

``equal`` pairs the leaves of two normal forms with a per-type probe basis:
the sigma0 labels of the window 0..h-1 at the pivot columns of the window's
Lambda8 Gram matrix.  ``block_profile`` sums one memo row per leaf label.
The references below are the code they replaced, kept here: a profile made
of one ``lambda_inf_word`` call per probe (now in ``test_invariants``),
``equal`` probing the whole window, and the Fraction-based reduced row
echelon form that ``_linalg`` used before its integer Gauss–Jordan
elimination.  Verdicts, profile values,
pivots, kernels, solutions and error class and message must agree.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest
from conftest import ASYMMETRIC_D4, DEMO_D4
from test_affine import registered_names
from test_invariants import lambda_inf_word

from qaffpbw import affine, invariants, modexpr
from qaffpbw._linalg import kernel_primitive, pivot_columns, solve_exact
from qaffpbw.affine import NoProviderError, SigmaPoint, dual_point, type_info
from qaffpbw.modexpr import Dual, Fund, FusionTable, Head, One, Verdict

P = SigmaPoint
PAIRS = 300

# the D4^(1) denominators (Kang-Kashiwara-Kim-Oh), nodes 1 and 2 on the
# chain, 3 and 4 the spin nodes
KKKO_D4 = {
    **{(i, j): [2, 6] for i, j in ((1, 1), (3, 3), (4, 4))},
    **{(i, j): [4] for i, j in ((1, 3), (3, 1), (1, 4), (4, 1), (3, 4), (4, 3))},
    **{(i, j): [3, 5] for i, j in ((1, 2), (2, 1), (2, 3), (3, 2), (2, 4), (4, 2))},
    (2, 2): [2, 4, 4, 6],
}
CASES = [(f"A{n}^1", None) for n in range(1, 9)] + [
    ("D4^1", DEMO_D4),
    ("D4^1", ASYMMETRIC_D4),
]


def rref(rows):
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = mat[r][c]
        mat[r] = [x / inv for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] != 0:
                factor = mat[i][c]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivots


def reference_kernel_primitive(rows):
    mat, pivots = rref(rows)
    ncols = len(rows[0])
    free = [c for c in range(ncols) if c not in pivots]
    if len(free) != 1:
        raise ValueError(f"kernel dimension is {len(free)}, expected 1")
    f = free[0]
    vec = [Fraction(0)] * ncols
    vec[f] = Fraction(1)
    for row, p in zip(mat, pivots):
        vec[p] = -row[f]
    denom = 1
    for x in vec:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, x)
    ints = [x // g for x in ints]
    if all(x < 0 for x in ints):
        ints = [-x for x in ints]
    if any(x <= 0 for x in ints):
        raise ValueError(f"kernel generator is not positive: {ints}")
    return tuple(ints)


def reference_solve_exact(rows, rhs):
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    mat, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(mat[i][n] for i in range(n))


def reference_window(info):
    return info.sigma0_points(0, (info.dual_shift_exponent or 1) - 1)


def reference_block_profile(info, expr, probes):
    leaves = [dual_point(info, x, k) for x, k in modexpr.signed_leaves(expr)]
    return tuple(lambda_inf_word(info, leaves, (probe,)) for probe in probes)


def reference_equal(info, e1, e2, facts=None):
    n1 = modexpr.normalize(info, e1, facts)
    n2 = modexpr.normalize(info, e2, facts)
    if n1 == n2:
        return Verdict.EQUAL
    if all(n is One or isinstance(n, Fund) for n in (n1, n2)):
        return Verdict.DISTINCT
    probes = reference_window(info)
    if reference_block_profile(info, n1, probes) != reference_block_profile(info, n2, probes):
        return Verdict.DISTINCT
    return Verdict.UNKNOWN


def outcome(call):
    """The value of ``call()``, or the class and message of what it raised."""
    try:
        return call()
    except (ValueError, TypeError) as err:
        return type(err), str(err)


def _random_expr(rng, points, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.4:
        return Fund(rng.choice(points))
    if roll < 0.55:
        return Dual(rng.choice((-2, -1, 1, 2)), _random_expr(rng, points, depth - 1))
    return Head(tuple(_random_expr(rng, points, depth - 1) for _ in range(rng.randint(2, 3))))


def _translate(expr, t):
    if isinstance(expr, Fund):
        return Fund(P(expr.point.node, expr.point.power + t))
    if isinstance(expr, Dual):
        return Dual(expr.shift, _translate(expr.inner, t))
    return Head(tuple(_translate(f, t) for f in expr.factors))


def _pair(rng, info, points):
    """Two expressions: unrelated, reordered, dual-wrapped or translated."""
    h = info.dual_shift_exponent
    a = _random_expr(rng, points, rng.randint(1, 3))
    kind = rng.random()
    if kind < 0.25:
        return a, _random_expr(rng, points, rng.randint(1, 3))
    if kind < 0.45 and isinstance(a, Head):
        factors = list(a.factors)
        rng.shuffle(factors)
        return a, Head(tuple(factors))
    if kind < 0.65:
        return a, Dual(rng.choice((-2, -1, 1, 2)), a)
    return a, _translate(a, rng.choice((-2, 2, 2 * h, -2 * h, 4 * h)))


@pytest.mark.parametrize(("name", "zeros"), CASES, ids=[
    name if zeros is None else f"{name}-{label}"
    for (name, zeros), label in zip(CASES, [None] * 8 + ["demo", "asymmetric"])
])
def test_equal_matches_the_window(restored_tables, name, zeros):
    if zeros is not None:
        affine.register_denominator_table(name, zeros)
    info = type_info(name)
    facts = FusionTable.builtin(info)
    # every node at every exponent: leaves on and off sigma0
    points = [P(i, p) for i in range(1, info.rank + 1) for p in range(-6, 9)]
    window = reference_window(info)
    rng = random.Random(f"probe-basis-{name}-{zeros is None}")
    seen = set()
    for _ in range(PAIRS):
        a, b = _pair(rng, info, points)
        verdict = modexpr.equal(info, a, b, facts)
        assert verdict is reference_equal(info, a, b, facts), (name, a, b)
        seen.add(verdict)
        for e in (a, b, Dual(1, a)):
            assert modexpr.block_profile(info, e, window) == reference_block_profile(
                info, e, window
            ), (name, e)
    assert {Verdict.DISTINCT, Verdict.UNKNOWN} <= seen, name


def test_basis_has_rank_members():
    for n in range(1, 11):
        info = type_info(f"A{n}^1")
        window = reference_window(info)
        pivots = rref(_gram(info, window))[1]
        assert modexpr._probe_basis(info) == tuple(window[c] for c in pivots), info.name
        assert len(pivots) == n, info.name


def _gram(info, window):
    return [[invariants.lambda_inf_fund(info, x, y) for y in window] for x in window]


@pytest.mark.parametrize("zeros", [KKKO_D4, DEMO_D4, ASYMMETRIC_D4], ids=["kkko", "demo", "asymmetric"])
def test_basis_is_the_rref_pivots_on_d4(restored_tables, zeros):
    affine.register_denominator_table("D4^1", zeros)
    info = type_info("D4^1")
    window = reference_window(info)
    pivots = rref(_gram(info, window))[1]
    assert modexpr._probe_basis(info) == tuple(window[c] for c in pivots)
    # the toy tables have full-rank Gram matrices; the real one pairs
    # through the rank-4 root lattice
    assert len(pivots) == (info.rank if zeros is KKKO_D4 else len(window))


def _random_matrix(rng, rows, cols):
    return [[rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(cols)] for _ in range(rows)]


def test_pivot_columns_match_rref():
    rng = random.Random("pivot-columns")
    for _ in range(500):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        mat = _random_matrix(rng, rows, cols)
        if rows > 2 and rng.random() < 0.5:
            mat[-1] = [2 * a - b for a, b in zip(mat[0], mat[1])]
        assert pivot_columns(mat) == rref(mat)[1], mat


def _affine_cartan(name):
    letter, sub, twist = affine._parse_name(name)
    edges, rank, _ = affine._affine_edges(letter, twist, sub)
    return affine._gcm(edges, rank + 1)


@pytest.mark.parametrize("name", registered_names(8))
def test_kernel_primitive_matches_rref_on_affine_cartan(name):
    gcm = _affine_cartan(name)
    for mat in (gcm, [list(col) for col in zip(*gcm)]):
        marks = kernel_primitive(mat)
        assert marks == reference_kernel_primitive(mat), (name, mat)
        assert all(sum(a * m for a, m in zip(row, marks)) == 0 for row in mat), name


def test_kernel_primitive_and_solve_exact_match_rref_on_random_matrices():
    rng = random.Random("kernel-and-solve")
    for _ in range(500):
        rows = rng.randint(1, 6)
        mat = _random_matrix(rng, rows, rows + rng.choice((0, 1, 1, 2)))
        assert outcome(lambda: kernel_primitive(mat)) == outcome(
            lambda: reference_kernel_primitive(mat)
        ), mat
        square = [row[:rows] for row in mat]
        rhs = [rng.randint(-5, 5) for _ in range(rows)]
        assert outcome(lambda: solve_exact(square, rhs)) == outcome(
            lambda: reference_solve_exact(square, rhs)
        ), (square, rhs)


def test_a_replaced_table_rebuilds_the_basis_and_rows(restored_tables):
    info = type_info("D4^1")
    # the demo table has no zeros at the spin nodes, so they pair to zero there
    a = Head((Fund(P(1, 0)), Fund(P(3, 0))))
    b = Head((Fund(P(1, 0)), Fund(P(3, 2))))
    probes = (P(1, 0), P(3, 0), P(2, 1))
    affine.register_denominator_table("D4^1", DEMO_D4)
    before = modexpr.equal(info, a, b)
    profile = modexpr.block_profile(info, a, probes)
    assert len(modexpr._probe_basis(info)) == 6
    affine.register_denominator_table("D4^1", KKKO_D4)
    after = modexpr.equal(info, a, b)
    assert (before, after) == (Verdict.UNKNOWN, Verdict.DISTINCT)
    assert after is reference_equal(info, a, b)
    assert len(modexpr._probe_basis(info)) == 4
    assert modexpr.block_profile(info, a, probes) == reference_block_profile(info, a, probes)
    assert modexpr.block_profile(info, a, probes) != profile


def test_a_popped_table_and_no_dual_shift_raise_as_before(restored_tables):
    a = Head((Fund(P(1, 0)), Fund(P(1, 4))))
    b = Head((Fund(P(1, 0)), Fund(P(1, 2))))
    probes = (P(1, 0), P(2, 1))
    info = type_info("D4^1")
    affine.register_denominator_table("D4^1", DEMO_D4)
    assert modexpr.equal(info, a, b) is Verdict.DISTINCT
    assert modexpr.block_profile(info, a, probes) == reference_block_profile(info, a, probes)
    affine._EXTERNAL_TABLES.pop("D4^1")
    infos = [info, type_info("B2^1"), type_info("A3^2")]
    assert [i.dual_shift_exponent for i in infos[1:]] == [None, None]
    for i in infos:
        for e in (a, Fund(P(1, 0)), Dual(1, a)):
            mine = outcome(lambda: modexpr.block_profile(i, e, probes))
            assert mine == outcome(lambda: reference_block_profile(i, e, probes)), (i.name, e)
            assert mine[0] is NoProviderError, (i.name, mine)
        assert modexpr.block_profile(i, One, probes) == (0, 0)
        mine = outcome(lambda: modexpr.equal(i, a, b))
        assert mine == outcome(lambda: reference_equal(i, a, b)), i.name
        assert mine[0] is NoProviderError, (i.name, mine)
