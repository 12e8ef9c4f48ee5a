"""Shared test data and fixtures.

Test modules read the tables and helpers with ``from conftest import ...``:
pytest puts this directory on ``sys.path`` when it imports this file.
"""

from __future__ import annotations

import pytest

from qaffpbw import affine, invariants, rootsys
from qaffpbw.affine import denom_zeros, dual_point
from qaffpbw.modexpr import Fund

# a toy D4^(1) denominator table, symmetric on nodes 1 and 2
DEMO_D4 = {(1, 1): [2, 6], (1, 2): [3, 5], (2, 1): [3, 5], (2, 2): [2, 4, 6]}
# a one-way entry (no (4, 3)) with a negative zero
ASYMMETRIC_D4 = {**DEMO_D4, (3, 4): [-1, 7]}


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


def reference_root_pattern(info, x) -> bool:
    """The root-module pattern d(x, D^k x) = delta(k = +-1) over every k."""
    return invariants.shift_profile(info, x, x) == {-1: 1, 1: 1}


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
            profile = invariants.shift_profile(info, y, x)
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
