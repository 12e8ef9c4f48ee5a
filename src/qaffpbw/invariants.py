"""Exact integer invariants between fundamental-module labels.

The only analytic input is the zero multiset of the R-matrix denominators.
Writing D for the dual shift on labels, the basic quantity is

    d(x, y) = ord of d_{i,j} at exponent p_y - p_x
            + ord of d_{j,i} at exponent p_x - p_y,

and the remaining invariants are finite alternating sums of d over dual
shifts of one argument:

    Lambda(x, y)   = sum_k (-1)^(k + [k<0]) d(x, D^k y)
    Lambda8(x, y)  = sum_k (-1)^k          d(x, D^k y)
    de_tilde(x, y) = sum_{k <= -1} (-1)^(k+1) d(x, D^k y)
                   = (Lambda - Lambda8) / 2
    zero_c(x, y)   = sum_{k >= 0} (-1)^k  d(x, D^k y)

so Lambda = zero_c + de_tilde and Lambda8 = zero_c - de_tilde.  The ordered
pair (x, y) is strongly unmixed when d(D^m x, y) = 0 for every m > 0, which
``mixing_shift`` decides.

All sums are finite because the zero multisets are.  Both terms of d are
read off one row of ``affine._offsets``: offsets[i][j] lists the zeros of
d_{i,j} and the negated zeros of d_{j,i}, so d(x, y) counts p_y - p_x in
offsets[x][y].  D^k y sits at node y for even k and y* for odd k, at
exponent p_y + k h, so a label (n, q) is some D^k y exactly when
(n, q mod 2h) is (y, p_y) or (y*, p_y + h) mod 2h, and then
k = (q - p_y) / h: ``_orbit_keys`` writes this rule once.  ``_walk`` reads
every label x + offset of x's rows off an index of such keys, which gives
``shift_profile`` (one y, the rows y and y*) and ``_shift_profiles`` (every
ordered pair of a family, each label's rows walked once).

Two facts hold for any zero table, registered ones included:

  * translation invariance: the profile of (x, y) depends only on
    (i, j, p_x - p_y), as the shifts above are read off p_x - p_y alone;
  * period 2h: moving p_x - p_y by 2h moves every shift k by 2, which keeps
    the node of D^k y and the sign (-1)^k, so Lambda8 is 2h-periodic in the gap.

``lambda_inf_fund`` therefore computes Lambda8 once per (i, j, gap mod 2h)
and keeps it in the type's memo (``affine._derived``), which a new table for
the type empties.
"""

from __future__ import annotations

from . import affine
from ._linalg import solve_exact
from .affine import AffineTypeInfo, NoProviderError, SigmaPoint
from .rootsys import cartan

__all__ = [
    "d_fund",
    "shift_profile",
    "lambda_fund",
    "lambda_inf_fund",
    "de_tilde_fund",
    "zero_c_fund",
    "pairing_E",
    "root_coordinates",
]


def d_fund(info: AffineTypeInfo, x: SigmaPoint, y: SigmaPoint) -> int:
    """The invariant d between two fundamental labels (symmetric, >= 0)."""
    i, j = x.node, y.node
    return affine._offsets(info, i, j)[i][j].count(y.power - x.power)


def _orbit_keys(
    info: AffineTypeInfo, y: SigmaPoint, h: int
) -> tuple[tuple[int, int], tuple[int, int]]:
    """(node, exponent mod 2h) of D^k y for even k, then for odd k; checks y's node."""
    return (y.node, y.power % (2 * h)), (info.star(y.node), (y.power + h) % (2 * h))


def _walk(row, nodes, p: int, h: int, index, out) -> None:
    """Add d(x, D^k y) to ``out[slot][k]`` for each ``(slot, p_y)`` that
    ``index`` files under an orbit key of y, x being at exponent p with
    offsets ``row``; only the rows of ``nodes`` are read."""
    two_h = 2 * h
    for n in nodes:
        for offset in row[n]:
            q = p + offset
            for slot, p_y in index.get((n, q % two_h), ()):
                profile = out[slot]
                k = (q - p_y) // h
                profile[k] = profile.get(k, 0) + 1


def shift_profile(
    info: AffineTypeInfo, x: SigmaPoint, y: SigmaPoint
) -> dict[int, int]:
    """{k: d(x, D^k y)} over every dual shift k where the value is nonzero."""
    h = info.dual_shift_exponent
    if h is None:
        raise NoProviderError(f"{info.name}: no dual shift on labels")
    keys = _orbit_keys(info, y, h)  # checks y before _offsets checks x
    row = affine._offsets(info, x.node)[x.node]
    profile: dict[int, int] = {}
    nodes = {n for n, _ in keys}  # y and y*
    _walk(row, nodes, x.power, h, dict.fromkeys(keys, ((0, y.power),)), [profile])
    return profile


def _shift_profiles(
    info: AffineTypeInfo, points
) -> list[list[dict[int, int] | None]]:
    """``shift_profile(points[a], points[b])`` at [a][b] for every pair of
    labels, None where either is None; each label's rows are walked once.
    Errors come in the order the pairwise calls would raise them."""
    labels = [(a, x) for a, x in enumerate(points) if x is not None]
    out = [[{} if x is not None and y is not None else None for y in points] for x in points]
    if not labels:
        return out
    h = info.dual_shift_exponent
    if h is None:
        raise NoProviderError(f"{info.name}: no dual shift on labels")
    # the first label's node, then the table, then the other nodes
    offsets = affine._offsets(info, labels[0][1].node)
    index: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for b, y in labels:
        for key in _orbit_keys(info, y, h):
            index.setdefault(key, []).append((b, y.power))
    nodes = {n for n, _ in index}
    for a, x in labels:
        _walk(offsets[x.node], nodes, x.power, h, index, out[a])
    return out


def _tails(info: AffineTypeInfo, x: SigmaPoint, y: SigmaPoint) -> tuple[int, int]:
    """(de_tilde, zero_c): the signed profile sums over k <= -1 and k >= 0."""
    de_tilde = zero_c = 0
    for k, value in shift_profile(info, x, y).items():
        signed = -value if k % 2 else value  # (-1)^k d(x, D^k y)
        if k < 0:
            de_tilde -= signed
        else:
            zero_c += signed
    return de_tilde, zero_c


def lambda_fund(info: AffineTypeInfo, x: SigmaPoint, y: SigmaPoint) -> int:
    return sum(_tails(info, x, y))


def lambda_inf_fund(info: AffineTypeInfo, x: SigmaPoint, y: SigmaPoint) -> int:
    """Lambda8(x, y), read from the type's memo keyed by (i, j, gap mod 2h)."""
    h = info.dual_shift_exponent
    if h is None:
        raise NoProviderError(f"{info.name}: no dual shift on labels")
    memo = affine._kept(affine._derived(info), "lambda_inf", dict)
    key = (x.node, y.node, (x.power - y.power) % (2 * h))
    return affine._kept(memo, key, _lambda_inf, info, key)


def _lambda_inf(info: AffineTypeInfo, key: tuple[int, int, int]) -> int:
    i, j, gap = key
    de_tilde, zero_c = _tails(info, SigmaPoint(i, gap), SigmaPoint(j, 0))
    return zero_c - de_tilde


def de_tilde_fund(info: AffineTypeInfo, x: SigmaPoint, y: SigmaPoint) -> int:
    """Negative-shift tail; equals (Lambda - Lambda8)/2."""
    return _tails(info, x, y)[0]


def zero_c_fund(info: AffineTypeInfo, x: SigmaPoint, y: SigmaPoint) -> int:
    """Order of the zero of the renormalizing coefficient at z = 1."""
    return _tails(info, x, y)[1]


def pairing_E(info: AffineTypeInfo, x: SigmaPoint, y: SigmaPoint) -> int:
    """The block pairing (E(x), E(y)) = -Lambda8(x, y)."""
    return -lambda_inf_fund(info, x, y)


def root_coordinates(
    info: AffineTypeInfo,
    x: SigmaPoint,
    basis: list[SigmaPoint] | tuple[SigmaPoint, ...],
) -> tuple[int, ...]:
    """Coordinates of E(x) in the simple basis {E(b)} of a strong datum.

    The basis pairings must form the Cartan matrix of the associated finite
    type; the result is the unique integer vector c with Cartan @ c equal to
    the pairing vector of x.
    """
    n = len(basis)
    gram = [[pairing_E(info, a, b) for b in basis] for a in basis]
    letter, rank = info.fin_type
    if n != rank or [list(r) for r in cartan(letter, rank)] != gram:
        raise ValueError(
            f"basis pairings {gram} do not form the Cartan matrix of "
            f"{letter}{rank}"
        )
    rhs = [pairing_E(info, x, b) for b in basis]
    solution = solve_exact(gram, rhs)
    if any(c.denominator != 1 for c in solution):
        raise ValueError(f"label {x} is outside the root lattice of the basis")
    return tuple(int(c) for c in solution)


def mixing_shift(info: AffineTypeInfo, x: SigmaPoint, y: SigmaPoint) -> int | None:
    """The least m > 0 with d(D^m x, y) != 0, or None when the ordered pair
    (x, y) is strongly unmixed."""
    # d(D^m x, y) = d(y, D^m x) since d is symmetric
    return min((m for m in shift_profile(info, y, x) if m > 0), default=None)
