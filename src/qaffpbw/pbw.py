"""Exponent vectors indexing simple modules, and the orders between them.

A simple module is indexed by a finitely supported vector a: Z -> Z>=0; the
standard module attached to a is the ordered tensor product of cuspidals
S_k, each repeated a_k times, with k strictly decreasing.  Comparison uses
the bi-lexicographic order: strictly smaller means smaller at the first
difference scanned from the left AND from the right; disagreement of the
two scans is a first-class Incomparable outcome.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from enum import Enum

from . import invariants
from .affine import SigmaPoint, dual_point, json_int, point_from_json
from .modexpr import Expr

__all__ = [
    "ExpVec",
    "Cmp",
    "cmp_left",
    "cmp_right",
    "cmp_bilex",
    "standard_word",
    "decompose",
    "compose",
    "dshift",
    "in_window",
    "peel_top_check",
    "expvec_to_json",
    "expvec_from_json",
    "multiset_from_json",
]


class Cmp(Enum):
    LESS = "less"
    GREATER = "greater"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class ExpVec:
    """Sparse map Z -> Z>0, zero entries never stored."""

    entries: tuple[tuple[int, int], ...]  # sorted by index

    @classmethod
    def from_dict(cls, data: dict[int, int]) -> "ExpVec":
        cleaned = []
        for k in sorted(data):
            v = data[k]
            if v < 0:
                raise ValueError(f"negative multiplicity {v} at index {k}")
            if v:
                cleaned.append((int(k), int(v)))
        return cls(tuple(cleaned))

    def __getitem__(self, k: int) -> int:
        at = bisect_left(self.entries, (k,))  # (k,) sorts before every (k, v)
        hit = self.entries[at : at + 1]
        return hit[0][1] if hit and hit[0][0] == k else 0

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(k for k, _ in self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    def l_of(self) -> int:
        """Largest support index."""
        if self.is_zero():
            raise ValueError("the zero vector has no support")
        return self.entries[-1][0]

    def r_of(self) -> int:
        """Smallest support index."""
        if self.is_zero():
            raise ValueError("the zero vector has no support")
        return self.entries[0][0]


def _first_difference(a_entries, b_entries, ascending: bool) -> int:
    """Sign of a - b at the first index, in walk order, where they differ.

    Both entry runs are sorted the same way (ascending or descending).  Of two
    different indices the one met first is zero in the other vector, so the
    vector holding it is greater there.
    """
    for (ka, va), (kb, vb) in zip(a_entries, b_entries):
        if ka != kb:
            return 1 if (ka < kb) == ascending else -1
        if va != vb:
            return -1 if va < vb else 1
    return (len(a_entries) > len(b_entries)) - (len(a_entries) < len(b_entries))


def cmp_left(a: ExpVec, b: ExpVec) -> int:
    """Total order by the smallest index where the vectors differ."""
    return _first_difference(a.entries, b.entries, True)


def cmp_right(a: ExpVec, b: ExpVec) -> int:
    """Total order by the largest index where the vectors differ."""
    return _first_difference(a.entries[::-1], b.entries[::-1], False)


def cmp_bilex(a: ExpVec, b: ExpVec) -> Cmp:
    left, right = cmp_left(a, b), cmp_right(a, b)
    if left == 0:
        return Cmp.EQUAL
    if left == right:
        return Cmp.LESS if left < 0 else Cmp.GREATER
    return Cmp.INCOMPARABLE


def standard_word(a: ExpVec, seq) -> list[Expr]:
    """Cuspidal factors S_k of the standard module, k strictly decreasing."""
    word: list[Expr] = []
    for k, mult in sorted(a.entries, reverse=True):
        word.extend([seq.materialize(k)] * mult)
    return word


def decompose(multiset, seq) -> ExpVec:
    """Exponent vector of a dominant multiset of fundamental labels.

    The sequence must cover sigma0 bijectively by fundamentals (that of a
    Q-datum or of a reflected one).  Each distinct label, counted once, is
    mapped to its k in one ``seq.exponents`` pass: S_k is the label asked for.
    """
    exps = seq.exponents(Counter(multiset))
    return ExpVec(tuple((k, exps[k]) for k in sorted(exps)))


def compose(a: ExpVec, seq) -> list[SigmaPoint]:
    """Sorted multiset of labels with multiplicities a_k; inverse of decompose."""
    return seq.multiset(a.entries)


def dshift(a: ExpVec, m: int, ell: int) -> ExpVec:
    """Exponent vector of the m-th dual shift: support translated by m*l."""
    return ExpVec(tuple((k + m * ell, v) for k, v in a.entries))


def in_window(a: ExpVec, lo: int, hi: int) -> bool:
    return a.is_zero() or (lo <= a.r_of() and a.l_of() <= hi)


def peel_top_check(multiset, seq) -> dict:
    """Peel the top cuspidal exponent by pairing with the dual of S_t.

    For t the largest index in the decomposition, the sum of d(D S_t, x)
    over the multiset must equal a_t: the top factor contributes 1 per copy
    and everything below vanishes by strong unmixedness.
    """
    if not multiset:
        return {"vacuous": True, "ok": True}
    t, a_t = decompose(multiset, seq).entries[-1]
    top_dual = dual_point(seq.info, seq.label(t), 1)
    total = sum(invariants.d_fund(seq.info, top_dual, x) for x in multiset)
    return {
        "vacuous": False,
        "top_index": t,
        "expected": a_t,
        "pairing_sum": total,
        "ok": total == a_t,
    }


# ---------------------------------------------------------------------------
# JSON forms


def expvec_to_json(a: ExpVec) -> dict:
    return {"support": {str(k): v for k, v in a.entries}}


def expvec_from_json(doc: str | dict) -> ExpVec:
    data = json.loads(doc) if isinstance(doc, str) else doc
    support = data.get("support") if isinstance(data, dict) else None
    if not isinstance(support, dict):
        raise ValueError(
            f"exponent vector field 'support' must be an object: {data!r}"
        )
    field = "exponent vector field 'support'"
    entries: dict[int, int] = {}
    for key, value in support.items():
        index = json_int(key, f"{field} key")
        if index in entries:
            raise ValueError(f"{field} names index {index} twice")
        entries[index] = json_int(value, f"{field} entry {key}")
    return ExpVec.from_dict(entries)


def multiset_from_json(doc: str | list) -> list[SigmaPoint]:
    data = json.loads(doc) if isinstance(doc, str) else doc
    if not isinstance(data, (list, tuple)):
        raise ValueError(f"multiset must be a list of [node, power] pairs, got {data!r}")
    return [point_from_json(entry, "multiset entry") for entry in data]
