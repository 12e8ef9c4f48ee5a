"""Registry of affine types with their label-level data.

Each affine type carries:

  * the finite type of the associated simply-laced root system (the type
    every complete duality datum must induce),
  * the involution ``i -> i*`` on the classical index set I0 (from the
    longest element of the finite subalgebra spanned by I0),
  * the dual-shift exponent ``h`` with ``p* = (-q)^h``, whenever the
    constant ``p* = (-1)^{<rho_v, delta>} q^{<c, rho>}`` is an integer power
    of ``-q``; the two exponents are computed exactly as the mark and comark
    sums of the affine Cartan matrix,
  * an R-matrix denominator table (zero multisets), built in for A_n^(1)
    and pluggable from JSON elsewhere.

Spectral parameters are restricted to integer powers of ``-q``; a label is
the pair ``SigmaPoint(node, power)`` standing for ``V(varpi_node)`` at
``(-q)^power``.  The connected component sigma0 is fixed to contain (1, 0).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd
from operator import mul
from typing import Mapping, NamedTuple

from . import rootsys
from ._linalg import kernel_primitive

__all__ = [
    "SigmaPoint",
    "AffineTypeInfo",
    "AffineTypeError",
    "NoProviderError",
    "type_info",
    "dual_point",
    "denom_zeros",
    "sigma_quiver",
    "register_denominator_table",
    "load_denominator_json",
    "json_int",
    "point_from_json",
]


class AffineTypeError(ValueError):
    pass


class NoProviderError(AffineTypeError):
    """No denominator data (or no integral dual shift) for this type."""


class SigmaPoint(NamedTuple):
    node: int
    power: int

    def __str__(self) -> str:
        return f"({self.node},{self.power})"


def json_int(value, field: str) -> int:
    """``int(value)`` for a field of a JSON payload; a ValueError naming it otherwise.

    Integer strings pass (split ``"i,j"`` keys arrive as strings); booleans
    and floats with a fractional part, which ``int`` would take or truncate,
    do not.
    """
    if not isinstance(value, bool) and (not isinstance(value, float) or value.is_integer()):
        try:
            return int(value)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"{field} must be an integer, got {value!r}")


def point_from_json(value, field: str) -> SigmaPoint:
    """A label from a JSON ``[node, power]`` pair; a ValueError naming the field otherwise."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError(f"{field} must be a [node, power] pair, got {value!r}")
    return SigmaPoint(json_int(value[0], field), json_int(value[1], field))


# ---------------------------------------------------------------------------
# affine Cartan matrices (generalized, nodes 0..rank)

Edge = tuple[int, int, int, int]  # (i, j, a_ij, a_ji)


def _chain(lo: int, hi: int) -> list[Edge]:
    return [(i, i + 1, -1, -1) for i in range(lo, hi)]


def _affine_edges(letter: str, twist: int, sub: int) -> tuple[list[Edge], int, tuple[str, int]]:
    """Edge data of the affine Dynkin diagram, the classical rank and the
    finite type of the associated simply-laced root system."""
    if twist == 1 and letter in "ADE":
        # the finite diagram and alpha_0 = delta - theta, theta the highest
        # root: a_0j = a_j0 = -<theta, alpha_j> (Kac, Table Aff 1)
        try:
            rs = rootsys.RootSystem(letter, sub)
        except rootsys.RootSystemError:
            need = {"A": "n >= 1", "D": "n >= 4", "E": "n in {6,7,8}"}[letter]
            raise AffineTypeError(f"{letter}_n^(1) needs {need}") from None
        theta = rs.positive_roots()[-1]
        finite = [(i, j, -1, -1) for i, j in rootsys.dynkin_edges(letter, sub)]
        pairings = (sum(map(mul, theta, row)) for row in rs.cartan_matrix)
        node0 = [(0, j, -c, -c) for j, c in enumerate(pairings, 1) if c]
        return finite + node0, sub, (letter, sub)
    if twist == 1:
        if letter == "B":
            if sub == 2:
                # 0 => 2 <= 1, the short middle node is 2
                return [(0, 2, -1, -2), (1, 2, -1, -2)], 2, ("A", 3)
            if sub < 2:
                raise AffineTypeError("B_n^(1) needs n >= 2")
            return (
                [(0, 2, -1, -1)]
                + _chain(1, sub - 1)
                + [(sub - 1, sub, -1, -2)]
            ), sub, ("A", 2 * sub - 1)
        if letter == "C":
            if sub < 3:
                raise AffineTypeError("C_n^(1) needs n >= 3")
            return (
                [(0, 1, -1, -2)]
                + _chain(1, sub - 1)
                + [(sub - 1, sub, -2, -1)]
            ), sub, ("D", sub + 1)
        if letter == "F":
            if sub != 4:
                raise AffineTypeError("F_4^(1) needs n = 4")
            return [
                (0, 1, -1, -1),
                (1, 2, -1, -1),
                (2, 3, -1, -2),
                (3, 4, -1, -1),
            ], 4, ("E", 6)
        if letter == "G":
            if sub != 2:
                raise AffineTypeError("G_2^(1) needs n = 2")
            # Bourbaki G2: node 1 short, node 2 long; 0 attaches to the long node
            return [(0, 2, -1, -1), (1, 2, -3, -1)], 2, ("D", 4)
    if twist == 2 and letter == "A" and sub % 2 == 0:
        n = sub // 2
        if n < 1:
            raise AffineTypeError("A_2n^(2) needs n >= 1")
        if n == 1:
            return [(0, 1, -4, -1)], 1, ("A", 2)
        return (
            [(0, 1, -2, -1)]
            + _chain(1, n - 1)
            + [(n - 1, n, -2, -1)]
        ), n, ("A", sub)
    if twist == 2 and letter in "ADE":
        # A_{2n-1}^(2), D_{n+1}^(2) and E_6^(2) have the transposed Cartan
        # matrices of B_n^(1), C_n^(1) and F_4^(1) and share their rank and
        # simply-laced type (Kac, Tables Aff 1-2)
        partner, n, need = {
            "A": ("B", (sub + 1) // 2, "A_{2n-1}^(2) needs n >= 2"),
            "D": ("C", sub - 1, "D_{n+1}^(2) needs n >= 3"),
            "E": ("F", sub - 2, "E_6^(2) needs subscript 6"),
        }[letter]
        try:
            edges, rank, fin = _affine_edges(partner, 1, n)
        except AffineTypeError:
            raise AffineTypeError(need) from None
        return [(i, j, aji, aij) for i, j, aij, aji in edges], rank, fin
    if twist == 3:
        if letter == "D" and sub == 4:
            return [(0, 1, -1, -1), (1, 2, -3, -1)], 2, ("D", 4)
        raise AffineTypeError("the only registered triple twist is D_4^(3)")
    raise AffineTypeError(f"unknown affine type {letter}{sub}^({twist})")


def _gcm(edges: list[Edge], size: int) -> list[list[int]]:
    mat = [[2 if i == j else 0 for j in range(size)] for i in range(size)]
    for i, j, aij, aji in edges:
        mat[i][j] = aij
        mat[j][i] = aji
    return mat


@dataclass(frozen=True)
class AffineTypeInfo:
    name: str
    letter: str
    twist: int
    subscript: int
    rank: int  # size of I0
    fin_type: tuple[str, int]
    marks_sum: int  # <rho_v, delta>
    comarks_sum: int  # <c, rho>
    star_map: tuple[int, ...]  # star_map[i-1] = i* on I0

    @cached_property
    def dual_shift_exponent(self) -> int | None:
        """h with p* = (-q)^h, or None when p* is not a power of -q."""
        if (self.marks_sum - self.comarks_sum) % 2 == 0:
            return self.comarks_sum
        return None

    def star(self, i: int) -> int:
        if not 1 <= i <= self.rank:
            raise AffineTypeError(f"node {i} out of range for {self.name}")
        return self.star_map[i - 1]

    def in_sigma0(self, point: SigmaPoint) -> bool:
        return point in self.sigma0_points(point.power, point.power)

    def sigma0_points(self, lo: int, hi: int) -> tuple[SigmaPoint, ...]:
        """All sigma0 labels with exponent in [lo, hi]: the one membership rule."""
        if lo > hi:  # an empty window reads no zeros
            return ()
        base, period = _kept(_derived(self), "sigma0", _sigma0_lattice, self)
        return tuple(
            SigmaPoint(i, p)
            for p in range(lo, hi + 1)
            for i in range(1, self.rank + 1)
            if i in base and ((p - base[i]) % period == 0 if period else p == base[i])
        )


_NAME_RE = re.compile(r"^([A-G])(\d+)\^(\d)$")


def _parse_name(name: str) -> tuple[str, int, int]:
    text = name.strip().replace("(", "").replace(")", "")
    m = _NAME_RE.match(text)
    if not m:
        raise AffineTypeError(
            f"cannot parse affine type name {name!r}; expected e.g. 'A2^1'"
        )
    try:
        return m.group(1), rootsys.rank_from_digits(m.group(2)), int(m.group(3))
    except rootsys.RootSystemError:
        limit = rootsys.MAX_RANK
        raise AffineTypeError(f"affine type {name!r} exceeds the rank limit {limit}") from None


def _star_map(letter: str, twist: int, rank: int) -> tuple[int, ...]:
    if twist == 1 and letter in ("A", "D", "E"):
        rs = rootsys.RootSystem(letter, rank)
        return tuple(rs.star(i) for i in rs.nodes)
    # all remaining classical subalgebras have w0 = -1
    return tuple(range(1, rank + 1))


def type_info(name: str) -> AffineTypeInfo:
    return _type_info(*_parse_name(name))


@lru_cache(maxsize=None)  # keyed by the parsed name, so every spelling shares one info
def _type_info(letter: str, sub: int, twist: int) -> AffineTypeInfo:
    edges, rank, fin = _affine_edges(letter, twist, sub)
    gcm = _gcm(edges, rank + 1)
    marks = kernel_primitive(gcm)  # right null vector: delta coefficients
    transposed = [list(col) for col in zip(*gcm)]
    comarks = kernel_primitive(transposed)  # left null vector: c coefficients
    return AffineTypeInfo(
        name=f"{letter}{sub}^{twist}",
        letter=letter,
        twist=twist,
        subscript=sub,
        rank=rank,
        fin_type=fin,
        marks_sum=sum(marks),
        comarks_sum=sum(comarks),
        star_map=_star_map(letter, twist, rank),
    )


# ---------------------------------------------------------------------------
# dual shift on labels


def dual_point(info: AffineTypeInfo, x: SigmaPoint, k: int = 1) -> SigmaPoint:
    """Apply the k-th power of the dual functor to a fundamental label."""
    h = info.dual_shift_exponent
    if h is None:
        raise NoProviderError(
            f"{info.name}: p* is not an integer power of -q, labels do not "
            "live on a single (-q)-lattice"
        )
    star = info.star(x.node)  # refuses a node outside 1..rank for every k
    return SigmaPoint(star if k % 2 else x.node, x.power + k * h)


# ---------------------------------------------------------------------------
# denominator zero tables

ZeroTable = dict[tuple[int, int], tuple[int, ...]]

_EXTERNAL_TABLES: dict[str, ZeroTable] = {}


def _a_type_zeros(n: int, i: int, j: int) -> tuple[int, ...]:
    top = min(i, j, n + 1 - i, n + 1 - j)
    return tuple(abs(i - j) + 2 * s for s in range(1, top + 1))


def denom_zeros(info: AffineTypeInfo, i: int, j: int) -> tuple[int, ...]:
    """Exponent multiset of the zeros of d_{i,j}, as a sorted tuple.

    A zero at exponent m means d_{V(varpi_i),V(varpi_j)}(z) vanishes at
    z = (-q)^m; multiple zeros are repeated.
    """
    return _zeros(info, i, j)[i][j]


def _zeros(info: AffineTypeInfo, *nodes: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The type's dense table ``zeros[i][j]`` (row and column 0 empty), kept in
    ``_derived``; the given nodes are checked first, in order, then the provider."""
    for node in nodes:
        info.star(node)
    return _kept(_derived(info), "zeros", _dense_zeros, info)


def _dense_zeros(info: AffineTypeInfo) -> tuple[tuple[tuple[int, ...], ...], ...]:
    span = range(1, info.rank + 1)
    table = _EXTERNAL_TABLES.get(info.name)
    if table is None and info.letter == "A" and info.twist == 1:
        table = {(i, j): _a_type_zeros(info.rank, i, j) for i in span for j in span}
    if table is None:
        raise NoProviderError(f"{info.name}: no denominator table registered")
    return ((),) + tuple(
        ((),) + tuple(table.get((i, j), ()) for j in span) for i in span
    )


def _offsets(info: AffineTypeInfo, *nodes: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The type's d-support rows ``offsets[i][j] = zeros[i][j] + (-m for m in
    zeros[j][i])`` (row and column 0 empty), so d(V(i)_p, V(j)_{p+g}) is
    ``offsets[i][j].count(g)``; kept in ``_derived`` and checked as ``_zeros`` is."""
    for node in nodes:
        info.star(node)
    return _kept(_derived(info), "offsets", _offset_rows, info)


def _offset_rows(info: AffineTypeInfo) -> tuple[tuple[tuple[int, ...], ...], ...]:
    zeros = _zeros(info)
    span = range(1, info.rank + 1)
    return ((),) + tuple(
        ((),) + tuple(zeros[i][j] + tuple(-m for m in zeros[j][i]) for j in span)
        for i in span
    )


_DERIVED: dict[str, tuple[ZeroTable | None, dict]] = {}


def _derived(info: AffineTypeInfo) -> dict:
    """The memo of values derived from a type's zeros, each read through ``_kept``.

    Values sized by the type are kept without a bound: the zero table, the
    d-support rows, sigma0, the probe basis and the memo of Lambda8 by
    (i, j, gap mod 2h).  Memos keyed by caller input are bounded: the normal
    forms, the checked data by Q-datum, each probe tuple's rows (one per
    leaf label and one per expression profiled), and this memo itself,
    which holds one memo per probe tuple and per fusion table, and per
    fusion table whether every rewrite keeps the block profile, besides
    those few values.
    The memo is tied to the table object it was filled from: once
    ``_EXTERNAL_TABLES`` holds another table for the type, or none, the memo
    comes back empty.  Tables are replaced, never edited in place, so the
    identity check covers every change of zeros.  The entry keeps its table
    alive, so a new table can never reuse the old one's identity.
    """
    table = _EXTERNAL_TABLES.get(info.name)
    entry = _DERIVED.get(info.name)
    if entry is None or entry[0] is not table:
        entry = _DERIVED[info.name] = (table, {})
    return entry[1]


def _kept(memo: dict, key, build, *args, bounded: bool = False):
    """``memo[key]``, or on a miss ``build(*args)``, kept under ``key``.

    The one place the bound ``rootsys.CACHE_SIZE`` is applied to a memo: with
    ``bounded`` (a key from caller input) a full memo starts over before the
    new value is kept.  No value is None, so a miss costs no exception.  A
    key that cannot be hashed (a list of factors) is built and not kept.
    """
    try:
        value = memo.get(key)
    except TypeError:
        return build(*args)
    if value is None:
        value = build(*args)
        if bounded and len(memo) >= rootsys.CACHE_SIZE:
            memo.clear()
        memo[key] = value
    return value


def _sigma0_lattice(info: AffineTypeInfo) -> tuple[dict[int, int], int]:
    """sigma0 as ({node: base exponent}, period); ``sigma0_points`` keeps it.

    sigma0 is the component of (1, 0) in the graph joining (i, p) to
    (j, p +- m) for each zero m of d_{i,j} or d_{j,i}.  A BFS over nodes fixes
    a base exponent per reached node; each edge then closes a cycle drifting
    by base[i] + m - base[j], so (j, p) lies in sigma0 exactly when p is
    base[j] modulo the gcd of all drifts (the period, 0 when there is none).
    The search meets every edge from both ends, which covers the step -m.
    """
    zeros = _zeros(info)
    base, frontier, period = {1: 0}, [1], 0
    while frontier:
        i = frontier.pop()
        for j in range(1, info.rank + 1):
            for m in zeros[i][j] + zeros[j][i]:
                if j not in base:
                    base[j] = base[i] + m
                    frontier.append(j)
                period = gcd(period, base[i] + m - base[j])
    return base, period


def register_denominator_table(
    name: str, zeros: Mapping[tuple[int, int], list[int] | tuple[int, ...]]
) -> None:
    info = type_info(name)
    table: ZeroTable = {}
    for pair, ms in zeros.items():
        field = f"node pair {pair!r} for {name}"
        if not (isinstance(pair, tuple) and len(pair) == 2 and isinstance(ms, (list, tuple))):
            raise AffineTypeError(f"{field} must be an (i, j) key with a list of zeros: {ms!r}")
        try:  # the JSON integer rule: 2.5 and True are refused, not truncated
            i, j = (json_int(node, field) for node in pair)
            row = tuple(sorted(json_int(m, f"a zero of {field}") for m in ms))
        except ValueError as err:
            raise AffineTypeError(str(err)) from None
        if not (1 <= i <= info.rank and 1 <= j <= info.rank):
            raise AffineTypeError(f"node pair {(i, j)} out of range for {name}")
        table[(i, j)] = row
    _EXTERNAL_TABLES[info.name] = table


def load_denominator_json(doc: str | dict) -> AffineTypeInfo:
    """Register a provider from the JSON table format.

    Format: {"type": "A2^1", "zeros": {"1,1": [2], "1,2": [3], ...}}.
    """
    data = json.loads(doc) if isinstance(doc, str) else doc
    if not isinstance(data, Mapping):
        raise AffineTypeError(f"denominator JSON must be an object, got {data!r}")
    try:
        name = data["type"]
        raw = data["zeros"]
    except KeyError as err:
        raise AffineTypeError(f"denominator JSON is missing key {err}") from err
    if not isinstance(name, str):
        raise AffineTypeError(f"denominator field 'type' must be a type name, got {name!r}")
    if not isinstance(raw, Mapping):
        raise AffineTypeError(f"denominator field 'zeros' must be an object, got {raw!r}")
    zeros: dict[tuple[int, int], list[int]] = {}
    for key, ms in raw.items():
        pair = key.split(",") if isinstance(key, str) else ()
        if len(pair) != 2 or not isinstance(ms, (list, tuple)):
            raise AffineTypeError(
                f"denominator field 'zeros' maps \"i,j\" to a list of exponents, "
                f"got {key!r}: {ms!r}"
            )
        field = f"denominator field 'zeros' entry {key!r}"
        zeros[(json_int(pair[0], field), json_int(pair[1], field))] = [
            json_int(m, field) for m in ms
        ]
    register_denominator_table(name, zeros)
    return type_info(name)


# ---------------------------------------------------------------------------
# the quiver on sigma0


def sigma_quiver(
    info: AffineTypeInfo, lo: int, hi: int
) -> tuple[tuple[SigmaPoint, ...], tuple[tuple[SigmaPoint, SigmaPoint, int], ...]]:
    """Vertices and arrows of the sigma0 quiver in an exponent window.

    The arrow multiplicity from (i, x) to (j, y) is the order of the zero of
    d_{i,j} at exponent y - x, so each vertex's arrows come off its zero
    multisets; they are listed in vertex order of their targets.
    """
    vertices = info.sigma0_points(lo, hi)
    position = {v: n for n, v in enumerate(vertices)}
    zeros = _zeros(info) if vertices else ()  # an empty window reads no zeros
    arrows = []
    for src in vertices:
        mult: dict[SigmaPoint, int] = {}
        for j in range(1, info.rank + 1):
            for m in zeros[src.node][j]:
                dst = SigmaPoint(j, src.power + m)
                if dst in position:
                    mult[dst] = mult.get(dst, 0) + 1
        arrows += [(src, dst, mult[dst]) for dst in sorted(mult, key=position.get)]
    return vertices, tuple(arrows)
