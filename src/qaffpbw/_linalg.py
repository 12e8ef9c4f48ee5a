"""Exact linear algebra on integer matrices.

One fraction-free Gauss–Jordan elimination, ``_eliminate``, gives the pivot
columns, the primitive generator of a one-dimensional kernel and the
solution of a square system.  Each updated row is divided by its content, so
entries stay small and no Fraction is built before ``solve_exact`` returns.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _eliminate(rows) -> tuple[list[list[int]], list[int]]:
    """Integer Gauss–Jordan form; returns (rows, pivot column indices).

    Row r < len(pivots) is a nonzero multiple of row r of the reduced row
    echelon form, and the rows after them are zero.
    """
    mat = [list(row) for row in rows]
    pivots: list[int] = []
    for c in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        top = mat[r]
        for i, row in enumerate(mat):
            if i != r and row[c]:
                new = [top[c] * x - row[c] * y for x, y in zip(row, top)]
                content = gcd(*new) or 1
                mat[i] = [x // content for x in new]
        pivots.append(c)
    return mat, pivots


def pivot_columns(rows) -> list[int]:
    """Pivot column indices: the columns not in the span of those before them."""
    return _eliminate(rows)[1]


def kernel_primitive(rows) -> tuple[int, ...]:
    """Primitive integer generator of a one-dimensional kernel.

    Raises ValueError when the kernel is not one-dimensional or the
    generator has entries of both signs; otherwise all entries are positive.
    """
    mat, pivots = _eliminate(rows)
    free = [c for c in range(len(rows[0])) if c not in pivots]
    if len(free) != 1:
        raise ValueError(f"kernel dimension is {len(free)}, expected 1")
    f = free[0]
    vec = [0] * len(rows[0])
    vec[f] = scale = lcm(*(row[p] for row, p in zip(mat, pivots)))
    for row, p in zip(mat, pivots):
        vec[p] = -row[f] * scale // row[p]
    content = gcd(*vec)
    ints = [x // content for x in vec]
    if any(x <= 0 for x in ints):
        raise ValueError(f"kernel generator is not positive: {ints}")
    return tuple(ints)


def solve_exact(rows, rhs) -> tuple[Fraction, ...]:
    """Solve a square nonsingular system exactly."""
    n = len(rows)
    mat, pivots = _eliminate([list(row) + [rhs[i]] for i, row in enumerate(rows)])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(Fraction(mat[i][n], mat[i][i]) for i in range(n))
