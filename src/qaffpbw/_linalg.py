"""Small exact linear-algebra helpers: over the rationals (Fraction based),
and a pivot-column search that stays in the integers."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Matrix = list[list[Fraction]]


def _to_fractions(rows) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def rref(rows) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    mat = _to_fractions(rows)
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


def pivot_columns(rows) -> list[int]:
    """Pivot column indices of an integer matrix, in integers only.

    A column is a pivot when it is not in the span of the columns before it,
    so the list equals the pivots of ``rref``.  Each kept column is reduced
    against the earlier kept ones by fraction-free elimination and divided
    by its content, so no Fraction is built.
    """
    kept: list[tuple[int, list[int]]] = []  # (leading row, reduced column)
    pivots: list[int] = []
    for c, column in enumerate(zip(*rows)):
        vec = list(column)
        for lead, base in kept:
            if vec[lead]:
                a, b = base[lead], vec[lead]
                vec = [a * x - b * y for x, y in zip(vec, base)]
        lead = next((r for r, x in enumerate(vec) if x), None)
        if lead is not None:
            content = gcd(*vec)
            kept.append((lead, [x // content for x in vec]))
            pivots.append(c)
    return pivots


def kernel_primitive(rows) -> tuple[int, ...]:
    """Primitive integer generator of a one-dimensional kernel.

    Raises ValueError when the kernel is not one-dimensional.  The sign is
    normalized so all entries are positive (raises if mixed signs).
    """
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


def solve_exact(rows, rhs) -> tuple[Fraction, ...]:
    """Solve a square nonsingular system exactly."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    mat, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(mat[i][n] for i in range(n))

