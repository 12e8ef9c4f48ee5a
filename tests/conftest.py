"""Shared test data and fixtures.

Test modules read the tables and helpers with ``from conftest import ...``:
pytest puts this directory on ``sys.path`` when it imports this file.
"""

from __future__ import annotations

import pytest

from qaffpbw import affine
from qaffpbw.affine import dual_point
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
