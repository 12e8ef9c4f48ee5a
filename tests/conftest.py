"""Shared test data and fixtures.

Test modules read the tables and helpers with ``from conftest import ...``:
pytest puts this directory on ``sys.path`` when it imports this file.
"""

from __future__ import annotations

import pytest

from qaffpbw import affine, rootsys
from qaffpbw.affine import NoProviderError, denom_zeros, dual_point
from qaffpbw.modexpr import Fund

# a toy D4^(1) denominator table, symmetric on nodes 1 and 2
DEMO_D4 = {(1, 1): [2, 6], (1, 2): [3, 5], (2, 1): [3, 5], (2, 2): [2, 4, 6]}
# a one-way entry (no (4, 3)) with a negative zero
ASYMMETRIC_D4 = {**DEMO_D4, (3, 4): [-1, 7]}
# the closed A3^1 table with d_12 moved off its star image d_32, so that
# zeros[i*][j*] != zeros[i][j]; D4's star map is the identity, so no D4
# table has this
ASYMMETRIC_A3 = {
    (i, j): [abs(i - j) + 2 * s for s in range(1, min(i, j, 4 - i, 4 - j) + 1)]
    for i in range(1, 4)
    for j in range(1, 4)
}
ASYMMETRIC_A3[(1, 2)] = [1]


@pytest.fixture
def restored_tables():
    """Put back the registered denominator tables after the test."""
    saved = dict(affine._EXTERNAL_TABLES)
    yield
    affine._EXTERNAL_TABLES.clear()
    affine._EXTERNAL_TABLES.update(saved)


def reference_is_dual_pair(info, first, second) -> bool:
    """The dual-pair test the rewrite rules replaced: two leaves, the second
    the dual of the first."""
    return (
        isinstance(first, Fund)
        and isinstance(second, Fund)
        and dual_point(info, first.point, 1) == second.point
    )


def reference_shift_profile(info, x, y) -> dict[int, int]:
    """{k: d(x, D^k y)} from the two zero rows of each node n in {y, y*}:
    zeros m of d_{x,n} and d_{n,x} pin k = (p_x - p_y + m) / h and
    (p_x - p_y - m) / h, which count when the division is exact and
    ``dual_point`` puts D^k y on node n."""
    h = info.dual_shift_exponent
    if h is None:
        raise NoProviderError(f"{info.name}: no dual shift on labels")
    gap = x.power - y.power
    profile: dict[int, int] = {}
    for n in {y.node, info.star(y.node)}:
        shifts = [m + gap for m in denom_zeros(info, x.node, n)]
        shifts += [gap - m for m in denom_zeros(info, n, x.node)]
        for shift in shifts:
            k, rest = divmod(shift, h)
            if not rest and dual_point(info, y, k).node == n:
                profile[k] = profile.get(k, 0) + 1
    return profile


def reference_d(info, x, y) -> int:
    """d(x, y) from the two zero rows d_{x,y} and d_{y,x}."""
    gap = y.power - x.power
    return denom_zeros(info, x.node, y.node).count(gap) + denom_zeros(
        info, y.node, x.node
    ).count(-gap)


def reference_root_pattern(info, x) -> bool:
    """The root-module pattern d(x, D^k x) = delta(k = +-1) over every k."""
    return reference_shift_profile(info, x, x) == {-1: 1, 1: 1}


def reference_verify_cuspidal_axioms(seq, lo, hi):
    """The window checker ``cuspidal`` had: strong unmixedness for a > b, the
    root-module pattern, and denominator nonvanishing down the order, each
    spelled out on the labels of S_lo .. S_hi."""
    info = seq.info
    labels = {k: seq.materialize(k) for k in range(lo, hi + 1)}
    points = {k: v.point if isinstance(v, Fund) else None for k, v in labels.items()}
    report = {
        "window": (lo, hi),
        "root_module": {},
        "strongly_unmixed": {},
        "denominator_nonvanishing": {},
    }
    for k, x in points.items():
        report["root_module"][k] = (
            "unknown" if x is None else "ok" if reference_root_pattern(info, x) else "fail"
        )
    for a in range(lo, hi + 1):
        for b in range(lo, a):
            x, y = points[a], points[b]
            if x is None or y is None:
                report["strongly_unmixed"][(a, b)] = "unknown"
                continue
            profile = reference_shift_profile(info, y, x)
            bad = min((m for m in profile if m > 0), default=None)
            report["strongly_unmixed"][(a, b)] = "ok" if bad is None else f"fail(m={bad})"
            vanishes = y.power - x.power in denom_zeros(info, x.node, y.node)
            report["denominator_nonvanishing"][(a, b)] = "fail" if vanishes else "ok"
    values = (
        list(report["root_module"].values())
        + list(report["strongly_unmixed"].values())
        + list(report["denominator_nonvanishing"].values())
    )
    report["overall"] = (
        "fail"
        if any(str(v).startswith("fail") for v in values)
        else "unknown" if any(v == "unknown" for v in values) else "pass"
    )
    return report


# ---------------------------------------------------------------------------
# the Weyl group on coefficient tuples, straight from the Cartan matrix: an
# oracle independent of the packed-integer walks of ``rootsys``


def reflect(rs, i, v):
    """s_i(v) = v - <alpha_i^vee, v> alpha_i on a root-lattice vector."""
    alpha = rs.simple_root(i)  # refuses a node out of range
    pairing = sum(a * x for a, x in zip(rs.cartan_matrix[i - 1], v))
    return tuple(x - pairing * c for x, c in zip(v, alpha))


def act(rs, word, v):
    """Apply s_{i_1} ... s_{i_m} to v (leftmost letter acts last)."""
    for i in reversed(word):
        v = reflect(rs, i, v)
    return v


def is_positive(v) -> bool:
    return any(x > 0 for x in v) and all(x >= 0 for x in v)


def length(rs, word) -> int:
    """Coxeter length of the product, counted through inversions."""
    return sum(1 for beta in rs.positive_roots() if not is_positive(act(rs, word, beta)))


def reduced_words_of_longest(rs):
    """Every reduced word of w0, in the depth-first order of the search that
    ``qdata`` runs with the local-minimum rule, here with a rule passing all."""
    return rootsys._reduced_words(rs.type_letter, rs.rank, lambda i, counts: True)
