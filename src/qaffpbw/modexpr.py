"""Symbolic module expressions and their rewrite system.

An expression denotes a simple module label built from fundamental labels:

  * ``One``            the trivial module
  * ``Fund(x)``        the fundamental module at the label x
  * ``Head(f1,...,fr)`` the iterated head ((f1 * f2) * f3) ... * fr, where
                        ``*`` takes the head of the tensor product of two
                        factors (left-nested reading)
  * ``Dual(k, e)``     the k-th dual of e, kept symbolic when it cannot be
                        pushed to the leaves

Rewriting is sound: every rule preserves the isomorphism class of the
denoted simple module.  The rules are

  (R1) cancellations (L * X) * DL = X and their variants, with L a
       fundamental leaf so DL is computable,
  (R2) reordering of adjacent commuting fundamental factors (d = 0), made
       deterministic by taking the lexicographically least representative
       of the commutation class,
  (R3) fusion facts: verified identities Head[fund, fund] = Fund supplied
       as data, each read under every translation and the star mirror and
       applied where the grouping is exact,
  (R4) dropping trivial factors.

Each size-reducing rule (R1, R3) is a condition on the factor list that
yields the rewritten list; ``_rewrites`` returns every such list in a fixed
order, and a seeded schedule picks among them.  One d = 0 test,
``_commute``, decides which factors may swap: it guards the pair
cancellation (every factor before L commutes with L) and drives the trace
normal form of (R2), built from dependency counts: one call per ordered pair
of factors gives each factor the number of earlier factors that block it,
and the least label with none left is taken next.

Nested heads in leading position flatten exactly under the left-nested
reading; a dual only distributes over a head whose factor list is certified
normal (pairwise strongly unmixed fundamentals, repeats allowed).

Heads and duals hash once: the first ``hash`` of a node keeps the value the
generated dataclass hash gives, so memo lookups stop re-walking subtrees.
Normal forms are memoized per type and fusion table: ``normalize`` without a
schedule keeps the form of every non-leaf expression it reaches in the type's
memo (``affine._derived``) under ``("normal", facts)``.  Fusion tables compare
by value, so equal tables share one memo, and a replaced denominator table
drops it with the rest of the type's derived values.

``equal`` compares block profiles, then normal forms.  A block profile is
the Lambda8 pairing of the leaves against a probe basis of ``rank`` labels
on A_n^(1), the pivot columns of the Lambda8 Gram matrix of the sigma0
labels with exponent in 0..h-1, which separates exactly what that whole
window does.  Lambda8 is additive over heads and, on a star-invariant zero
table, odd under the dual shift, so every rewrite keeps the profile: a
cancellation drops a pair whose rows cancel, and each fusion fact is checked
to add up.  Differing profiles of the expressions as given are therefore
DISTINCT with no rewriting, and only agreeing ones are normalized; the
verdicts are those of comparing normal forms first.  The basis, one row per
leaf label, keyed by (node, exponent mod 2h), and the profile of each
expression compared are kept in the type's memo (``affine._derived``), so a
profile is a sum of memo rows, and an expression that contains one compared
before reads its profile in place of its leaves.
"""

from __future__ import annotations

import json
from bisect import insort
from dataclasses import dataclass
from enum import Enum
from random import Random
from typing import Iterable, NamedTuple, Sequence

from . import affine, invariants
from ._linalg import pivot_columns
from .affine import (
    AffineTypeError,
    AffineTypeInfo,
    SigmaPoint,
    dual_point,
    json_int,
    point_from_json,
)

__all__ = [
    "One",
    "Fund",
    "Dual",
    "Head",
    "Expr",
    "FusionTable",
    "Verdict",
    "normalize",
    "head",
    "dual",
    "equal",
    "expr_to_json",
    "expr_from_json",
]


@dataclass(frozen=True)
class _OneType:
    def __repr__(self) -> str:
        return "One"


One = _OneType()


@dataclass(frozen=True)
class Fund:
    point: SigmaPoint

    def __repr__(self) -> str:
        return f"Fund{tuple(self.point)}"


@dataclass(frozen=True)
class Dual:
    shift: int
    inner: "Expr"

    _hash = None  # the generated dataclass hash, kept: lookups would re-walk the subtree

    def __hash__(self) -> int:
        if self._hash is None:
            self.__dict__["_hash"] = hash((self.shift, self.inner))
        return self._hash

    def __repr__(self) -> str:
        return f"Dual({self.shift}, {self.inner!r})"


@dataclass(frozen=True)
class Head:
    factors: tuple["Expr", ...]

    _hash = None  # as for Dual; a list of factors raises below, so nothing is kept

    def __hash__(self) -> int:
        if self._hash is None:
            self.__dict__["_hash"] = hash((self.factors,))
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(repr(f) for f in self.factors)
        return f"Head[{inner}]"


Expr = _OneType | Fund | Dual | Head


class Verdict(Enum):
    EQUAL = "equal"
    DISTINCT = "distinct"
    UNKNOWN = "unknown"


# ---------------------------------------------------------------------------
# fusion facts


class FusionFact(NamedTuple):
    left: SigmaPoint
    right: SigmaPoint
    result: SigmaPoint


class FusionTable:
    """Verified two-factor fusion identities Head[a, b] = Fund(c).

    A fact holds under any common exponent translation and under the dual
    shift, which stars the nodes and keeps the exponent differences:
    D(M * N) = DM * DN when one factor is real, and fundamentals are real
    (Kang-Kashiwara-Kim-Oh, *Simplicity of heads and socles of tensor
    products*, 2015).  So the table is one dict keyed by (left node, right
    node, exponent gap), holding each fact and then its star mirror; the
    first fact for a key wins.
    """

    def __init__(self, info: AffineTypeInfo, facts: Iterable[FusionFact] = ()):
        self.info = info
        self.facts = tuple(facts)
        self._key = (info.name, self.facts)
        self._hash = hash(self._key)
        star = info.star  # raises AffineTypeError on a node outside 1..rank
        # (node, node, gap) -> (result node, result power - left power)
        self._rules: dict[tuple[int, int, int], tuple[int, int]] = {}
        for (i, p), (j, r), (c, s) in self.facts:
            self._rules.setdefault((i, j, r - p), (c, s - p))
            self._rules.setdefault((star(i), star(j), r - p), (star(c), s - p))

    # a table is a value: equal tables share the normal forms of ``normalize``
    def __eq__(self, other) -> bool:
        return isinstance(other, FusionTable) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def lookup(self, a: SigmaPoint, b: SigmaPoint) -> SigmaPoint | None:
        rule = self._rules.get((a.node, b.node, b.power - a.power))
        return None if rule is None else SigmaPoint(rule[0], a.power + rule[1])

    @classmethod
    def from_json(cls, info: AffineTypeInfo, doc: str | dict) -> "FusionTable":
        data = json.loads(doc) if isinstance(doc, str) else doc
        if not isinstance(data, dict):
            raise ValueError(f"fusion facts JSON must be an object, got {data!r}")
        name = data.get("type")
        if name and (not isinstance(name, str) or affine.type_info(name).name != info.name):
            raise ValueError(f"fusion table is for {name}, not {info.name}")
        entries = data.get("facts")
        if not isinstance(entries, (list, tuple)):
            raise ValueError(f"fusion facts field 'facts' must be a list, got {entries!r}")
        facts = []
        for entry in entries:
            head = entry.get("head") if isinstance(entry, dict) else None
            if not isinstance(head, (list, tuple)) or len(head) != 2:
                raise ValueError(
                    f"fusion fact field 'head' must hold two labels, got {entry!r}"
                )
            equivariant = entry.get("shift_equivariant", True)
            if equivariant is not True:
                raise ValueError(
                    f"fusion fact field 'shift_equivariant' must be true (every fact "
                    f"holds under translation and the dual shift), got {equivariant!r}"
                )
            points = []
            for field, value in (("head", head[0]), ("head", head[1]), ("eq", entry.get("eq"))):
                point = point_from_json(value, f"fusion fact field '{field}'")
                if not 1 <= point.node <= info.rank:
                    raise ValueError(
                        f"fusion fact field '{field}' has node {point.node}, "
                        f"outside 1..{info.rank}"
                    )
                points.append(point)
            facts.append(FusionFact(*points))
        return cls(info, facts)

    @classmethod
    def builtin(cls, info: AffineTypeInfo) -> "FusionTable":
        """Facts shipped by default: the A2^1 family V(1) * V(1)_2 = V(2)_1."""
        if info.name == "A2^1":
            return cls(
                info,
                [FusionFact(SigmaPoint(1, 0), SigmaPoint(1, 2), SigmaPoint(2, 1))],
            )
        return cls(info, ())


# ---------------------------------------------------------------------------
# certification


def _is_dual_pair(info: AffineTypeInfo, first: Expr, second: Expr) -> bool:
    if not (isinstance(first, Fund) and isinstance(second, Fund)):
        return False
    x, y, h = first.point, second.point, info.dual_shift_exponent
    if h is None:
        dual_point(info, x)  # raises its NoProviderError
    return y.node == info.star(x.node) and y.power == x.power + h


def certified_normal(info: AffineTypeInfo, factors: Sequence[Expr]) -> bool:
    """A factor list is certified normal when all factors are fundamental and
    every ordered pair of distinct labels is strongly unmixed."""
    if not all(isinstance(f, Fund) for f in factors):
        return False
    points = [f.point for f in factors]  # type: ignore[union-attr]
    return not any(
        invariants.mixing_shift(info, x, y) is not None
        for a, x in enumerate(points)
        for y in points[a + 1 :]
        if x != y
    )


def _commute(info: AffineTypeInfo, a: Expr, b: Expr) -> bool:
    """Adjacent factors may swap: both fundamental with d = 0."""
    return (
        isinstance(a, Fund)
        and isinstance(b, Fund)
        and invariants.d_fund(info, a.point, b.point) == 0
    )


def _trace_canonical(info: AffineTypeInfo, factors: list[Expr]) -> list[Expr]:
    """Lexicographically least representative of the commutation class.

    Only adjacent factors that ``_commute`` may swap; everything else is a
    blocker.  A factor can move to the front once every earlier factor that
    does not commute with it has been taken, so each factor counts its
    blockers (one ``_commute`` call per ordered pair) and the least label
    among the factors with none left comes next, the first of equal labels
    winning.  A blocker in front blocks every later factor, so it is taken
    as it stands.  The greedy choice yields a schedule-independent normal
    form (Diekert–Rozenberg, *The Book of Traces*).
    """
    n = len(factors)
    waiting = [0] * n
    blocks: list[list[int]] = [[] for _ in factors]
    for i, f in enumerate(factors):
        for j in range(i + 1, n):
            if not _commute(info, f, factors[j]):
                waiting[j] += 1
                blocks[i].append(j)
    ready = [i for i in range(n) if not waiting[i]]
    out: list[Expr] = []
    while ready:
        best = ready[0] if len(ready) == 1 else min(ready, key=lambda i: factors[i].point)
        ready.remove(best)
        out.append(factors[best])
        for j in blocks[best]:
            waiting[j] -= 1
            if not waiting[j]:
                insort(ready, j)
    return out


# ---------------------------------------------------------------------------
# rewriting


def _rewrites(
    info: AffineTypeInfo, factors: list[Expr], facts: FusionTable | None
) -> list[list[Expr]]:
    """The factor list after each applicable size-reducing rewrite."""
    n = len(factors)
    first, last = factors[0], factors[-1]
    # cancel an adjacent pair (L, DL); sound when every earlier factor
    # commutes with L, since then the triple regroups
    out = [
        factors[:i] + factors[i + 2 :]
        for i in range(n - 1)
        if _is_dual_pair(info, factors[i], factors[i + 1])
        and all(_commute(info, f, factors[i]) for f in factors[:i])
    ]
    # (L * X) * DL = X; exact for a single middle factor, and for a longer
    # middle when the prefix list is certified normal so it regroups
    if (
        n >= 3
        and _is_dual_pair(info, first, last)
        and (n == 3 or certified_normal(info, factors[:-1]))
    ):
        out.append(factors[1:-1])
    # right-grouped variant on a binary head: L * (X * DL) = X
    if (
        n == 2
        and isinstance(last, Head)
        and len(last.factors) == 2
        and _is_dual_pair(info, first, last.factors[1])
    ):
        out.append([last.factors[0]])
    # fusion facts on the leading pair (exact grouping)
    if facts is not None and isinstance(first, Fund) and isinstance(factors[1], Fund):
        hit = facts.lookup(first.point, factors[1].point)
        if hit is not None:
            out.append([Fund(hit)] + factors[2:])
    return out


def _normalize_head(
    info: AffineTypeInfo,
    factors: Sequence[Expr],
    facts: FusionTable | None,
    rng: Random | None,
) -> Expr:
    work = list(factors)
    canonical = False  # work is its own trace normal form (which is idempotent)
    for _ in range(10_000):
        # exact steps: drop trivial factors and flatten a leading nested head
        work = [f for f in work if f is not One]
        if work and isinstance(work[0], Head):
            work[:1] = work[0].factors
            canonical = False
            continue
        if not work:
            return One
        if len(work) == 1:
            return work[0]
        rewrites = _rewrites(info, work, facts)
        if rewrites:
            work = rewrites[0] if rng is None else rng.choice(rewrites)
            canonical = False
            continue
        if not canonical:
            ordered = _trace_canonical(info, work)
            canonical = True
            if ordered != work:
                work = ordered
                continue
        return Head(tuple(work))
    raise RuntimeError("rewriting did not terminate")  # pragma: no cover


def normalize(
    info: AffineTypeInfo,
    expr: Expr,
    facts: FusionTable | None = None,
    rng: Random | None = None,
) -> Expr:
    """Normal form of an expression; every step preserves the label.

    Without ``rng`` the normal form of each non-leaf expression reached, the
    subexpressions included, is kept in the type's memo under
    ``("normal", facts)`` (``affine._derived``), so no expression is rewritten
    twice; a seeded schedule neither reads nor fills it.
    """
    memo = None
    if rng is None:
        memo = affine._kept(affine._derived(info), ("normal", facts), dict, bounded=True)
    return _normal(info, expr, facts, rng, memo)


def _normal(
    info: AffineTypeInfo,
    expr: Expr,
    facts: FusionTable | None,
    rng: Random | None,
    memo: dict | None,
) -> Expr:
    if expr is One or isinstance(expr, Fund):
        return expr
    if memo is None:
        return _rewritten(info, expr, facts, rng, memo)
    return affine._kept(memo, expr, _rewritten, info, expr, facts, rng, memo, bounded=True)


def _rewritten(
    info: AffineTypeInfo,
    expr: Expr,
    facts: FusionTable | None,
    rng: Random | None,
    memo: dict | None,
) -> Expr:
    """The normal form of a head or dual from the normal forms of its parts."""
    if isinstance(expr, Head):
        inner = [_normal(info, f, facts, rng, memo) for f in expr.factors]
        return _normalize_head(info, inner, facts, rng)
    if isinstance(expr, Dual):
        body = _normal(info, expr.inner, facts, rng, memo)
        return _push_dual(info, expr.shift, body, facts, rng)
    raise TypeError(f"not an expression: {expr!r}")


def _push_dual(
    info: AffineTypeInfo,
    k: int,
    body: Expr,
    facts: FusionTable | None,
    rng: Random | None,
) -> Expr:
    if k == 0:
        return body
    if body is One:
        return One
    if isinstance(body, Fund):
        return Fund(dual_point(info, body.point, k))
    if isinstance(body, Dual):
        return _push_dual(info, k + body.shift, body.inner, facts, rng)
    assert isinstance(body, Head)
    if certified_normal(info, body.factors):
        shifted = [
            Fund(dual_point(info, f.point, k))  # type: ignore[union-attr]
            for f in body.factors
        ]
        return _normalize_head(info, shifted, facts, rng)
    return Dual(k, body)


def head(
    info: AffineTypeInfo,
    factors: Sequence[Expr],
    facts: FusionTable | None = None,
) -> Expr:
    """Head of the ordered list of factors, rewritten to normal form."""
    return normalize(info, Head(tuple(factors)), facts)


def dual(
    info: AffineTypeInfo,
    expr: Expr,
    k: int,
    facts: FusionTable | None = None,
) -> Expr:
    """The k-th dual, pushed through heads only where that is certified."""
    return normalize(info, Dual(k, expr), facts)


# ---------------------------------------------------------------------------
# equality with a separating invariant


def signed_leaves(expr: Expr, shift: int = 0) -> list[tuple[SigmaPoint, int]]:
    """Leaf labels with the dual shifts applied to them formally.

    The pair (x, k) stands for D^k applied to the fundamental at x; the
    block profile of the expression is the sum of the leaf profiles.
    """
    if expr is One:
        return []
    if isinstance(expr, Fund):
        return [(expr.point, shift)]
    if isinstance(expr, Dual):
        return signed_leaves(expr.inner, shift + expr.shift)
    assert isinstance(expr, Head)
    out: list[tuple[SigmaPoint, int]] = []
    for f in expr.factors:
        out.extend(signed_leaves(f, shift))
    return out


def block_profile(
    info: AffineTypeInfo, expr: Expr, probes: Sequence[SigmaPoint]
) -> tuple[int, ...]:
    """Pairing of the expression against probe fundamentals, additively.

    For any simple subquotient of the denoted tensor word this profile is
    exact, so differing profiles certify non-isomorphic labels.  It is the
    componentwise sum of the rows of the leaves with the dual shifts applied
    (``signed_leaves``).  A leaf's row against the probes depends only on its
    node and its exponent mod 2h (``invariants.lambda_inf_fund``), so D^k
    moves it by the parity of k alone.  The type's memo keeps, per probe
    tuple, the row of each leaf under that key and the profile of each
    expression asked for, which a later expression containing it reads.
    """
    probes = tuple(probes)
    rows = affine._kept(affine._derived(info), ("profile_rows", probes), dict, bounded=True)
    return affine._kept(rows, (expr, 0), _summed_rows, info, expr, probes, rows, bounded=True)


def _summed_rows(info: AffineTypeInfo, expr: Expr, probes, rows) -> tuple[int, ...]:
    """The profile of ``expr``: its leaves' rows summed, a kept profile read
    in place of the rows under it."""
    parts = []
    stack = [(expr, 0)]  # (expression, parity of the dual shift applied to it)
    while stack:
        e, parity = stack.pop()
        if e is One:
            continue
        if isinstance(e, Fund):
            leaf = dual_point(info, e.point, parity)
            key = (leaf.node, leaf.power % (2 * info.dual_shift_exponent))
            parts.append(affine._kept(rows, key, _leaf_row, info, leaf, probes, bounded=True))
            continue
        try:
            known = rows.get((e, parity))
        except TypeError:  # a list of factors
            known = None
        if known is not None:
            parts.append(known)
        elif isinstance(e, Dual):
            stack.append((e.inner, (parity + e.shift) % 2))
        elif isinstance(e, Head):
            stack.extend((f, parity) for f in reversed(e.factors))
        else:
            raise TypeError(f"not an expression: {e!r}")
    return tuple(map(sum, zip(*parts))) if parts else (0,) * len(probes)


def _leaf_row(info: AffineTypeInfo, leaf: SigmaPoint, probes) -> tuple[int, ...]:
    return tuple(invariants.lambda_inf_fund(info, leaf, probe) for probe in probes)


def _probe_window(info: AffineTypeInfo) -> tuple[SigmaPoint, ...]:
    # Lambda_inf(x, D y) = -Lambda_inf(x, y), and each D-orbit of sigma0 meets 0..h-1 once
    return info.sigma0_points(0, (info.dual_shift_exponent or 1) - 1)


def _probe_basis(info: AffineTypeInfo) -> tuple[SigmaPoint, ...]:
    """The window labels at the pivot columns of the window's Lambda_inf Gram matrix.

    A leaf in sigma0 is D^k of a window label, so its row over the window is
    a Gram row up to sign, and a leaf off sigma0 pairs to zero with sigma0.
    A difference of two window profiles thus lies in the Gram matrix's row
    space, where a vector that vanishes on the pivot columns (they span all
    columns) vanishes.  The basis therefore separates exactly what the
    window does, with ``rank`` members on A_n^(1).  ``equal`` keeps it in
    the type's memo.  On a star-invariant zero table the Gram matrix is
    symmetric, so only its upper triangle is computed.
    """
    window = _probe_window(info)
    if _star_invariant(info):
        gram = [[0] * len(window) for _ in window]
        for a, x in enumerate(window):
            for b in range(a, len(window)):
                gram[a][b] = gram[b][a] = invariants.lambda_inf_fund(info, x, window[b])
    else:
        gram = [[invariants.lambda_inf_fund(info, x, y) for y in window] for x in window]
    return tuple(window[c] for c in pivot_columns(gram))


def _star_invariant(info: AffineTypeInfo) -> bool:
    """Whether ``zeros[i*][j*] == zeros[i][j]`` on the type's zero table.

    Then d(D x, D y) = d(x, y), and since d is symmetric and Lambda_inf is
    the alternating sum of d(x, D^k y) over k, Lambda_inf is symmetric and
    Lambda_inf(D x, y) = -Lambda_inf(x, y): the rows of a pair (L, DL) cancel.
    """
    zeros, star = affine._zeros(info), info.star
    span = range(1, info.rank + 1)
    return all(zeros[star(i)][star(j)] == zeros[i][j] for i in span for j in span)


def _keeps_profiles(info: AffineTypeInfo, facts: FusionTable | None) -> bool:
    """Whether every rewrite keeps the block profile on the probe basis.

    Dual pushes, trace reorders and dropped trivial factors keep the leaves;
    a cancellation drops a pair (L, DL), whose rows cancel on a
    star-invariant table; a fusion fact keeps the profile when the result's
    row is the sum of the factors' rows at every translate mod 2h (shipped
    facts do, as Lambda_inf is additive over heads), and then so does its
    star mirror, whose rows are those of the fact's dual negated.  The
    answer is kept in the type's memo, per fusion table.
    """
    key = ("keeps_profiles", facts)
    return affine._kept(affine._derived(info), key, _check_rewrites, info, facts, bounded=True)


def _check_rewrites(info: AffineTypeInfo, facts: FusionTable | None) -> bool:
    if not _star_invariant(info):
        return False
    probes = affine._kept(affine._derived(info), "probe_basis", _probe_basis, info)
    period = 2 * info.dual_shift_exponent  # the basis has checked it exists
    for fact in () if facts is None else facts.facts:
        for t in range(period):
            a, b, c = (Fund(SigmaPoint(x.node, x.power + t)) for x in fact)
            if block_profile(info, Head((a, b)), probes) != block_profile(info, c, probes):
                return False
    return True


def _profiles_agree(info: AffineTypeInfo, e1: Expr, e2: Expr) -> bool | None:
    """Whether the block profiles of the two expressions as given agree on
    the probe basis, or None where they cannot be read: no probe basis, a
    leaf off the diagram or a part that is not an expression."""
    try:
        probes = affine._kept(affine._derived(info), "probe_basis", _probe_basis, info)
        return block_profile(info, e1, probes) == block_profile(info, e2, probes)
    except (AffineTypeError, TypeError):  # then rewriting raises what it raises
        return None


def equal(
    info: AffineTypeInfo,
    e1: Expr,
    e2: Expr,
    facts: FusionTable | None = None,
) -> Verdict:
    """Sound three-valued label comparison.

    Two leaves (fundamentals or One) are their own normal forms and are
    compared as they stand.  Otherwise the block profiles of the expressions
    as given are compared first: where every rewrite keeps the profile
    (``_keeps_profiles``), differing profiles are DISTINCT with no
    rewriting, and agreeing ones give EQUAL when the normal forms match,
    DISTINCT when they are two different leaves and UNKNOWN otherwise.
    These are the verdicts of comparing normal forms first.  Elsewhere, or
    where the profiles cannot be read, the normal forms are compared, then
    their profiles, and whatever rewriting raises is raised.
    """
    if all(e is One or isinstance(e, Fund) for e in (e1, e2)):
        return Verdict.EQUAL if e1 == e2 else Verdict.DISTINCT
    agree = _profiles_agree(info, e1, e2)
    if agree is False and _keeps_profiles(info, facts):
        return Verdict.DISTINCT
    n1 = normalize(info, e1, facts)
    n2 = normalize(info, e2, facts)
    if n1 == n2:
        return Verdict.EQUAL
    if all(n is One or isinstance(n, Fund) for n in (n1, n2)):
        return Verdict.DISTINCT
    if agree and _keeps_profiles(info, facts):
        return Verdict.UNKNOWN
    probes = affine._kept(affine._derived(info), "probe_basis", _probe_basis, info)
    if block_profile(info, n1, probes) != block_profile(info, n2, probes):
        return Verdict.DISTINCT
    return Verdict.UNKNOWN


# ---------------------------------------------------------------------------
# JSON forms


def expr_to_json(expr: Expr):
    if expr is One:
        return {"one": True}
    if isinstance(expr, Fund):
        return {"fund": [expr.point.node, expr.point.power]}
    if isinstance(expr, Dual):
        return {"dual": {"k": expr.shift, "of": expr_to_json(expr.inner)}}
    assert isinstance(expr, Head)
    return {"head": [expr_to_json(f) for f in expr.factors]}


# Deepest nesting of heads and duals that ``expr_from_json`` reads: rewriting
# such an expression stays well inside Python's default recursion limit.
_MAX_NESTING = 200


def expr_from_json(doc) -> Expr:
    """The expression of a JSON document; heads and duals nested more than
    ``_MAX_NESTING`` deep raise a ValueError."""
    return _expr_from_json(doc, _MAX_NESTING)


def _expr_from_json(doc, room: int) -> Expr:
    if not isinstance(doc, dict):
        raise ValueError(f"an expression must be a JSON object, got {doc!r}")
    if "one" in doc:
        return One
    if "fund" in doc:
        return Fund(point_from_json(doc["fund"], "'fund'"))
    if room == 0 and ("dual" in doc or "head" in doc):
        raise ValueError(f"heads and duals nest more than {_MAX_NESTING} levels deep")
    if "dual" in doc:
        dual = doc["dual"]
        if not isinstance(dual, dict) or "k" not in dual or "of" not in dual:
            raise ValueError(f"'dual' must be an object with 'k' and 'of', got {dual!r}")
        shift = json_int(dual["k"], "'dual' field 'k'")
        return Dual(shift, _expr_from_json(dual["of"], room - 1))
    if "head" in doc:
        entries = doc["head"]
        if not isinstance(entries, (list, tuple)):
            raise ValueError(f"'head' must be a list of factors, got {entries!r}")
        factors = tuple(
            _expr_from_json(f, room - 1) if isinstance(f, dict)
            else Fund(point_from_json(f, "'head' entry"))
            for f in entries
        )
        return Head(factors)
    raise ValueError(f"not an expression document: {doc!r}")
