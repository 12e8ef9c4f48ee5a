"""Q-data (height functions), adapted words, and the map into sigma0.

A Q-datum here is a simply-laced Dynkin diagram with a height function whose
values differ by exactly one across each edge; the diagram automorphism is
the identity (general twisted Q-data are rejected explicitly, never
approximated).

A reduced word of w0 is adapted when each letter sits at a strict local
minimum of the running height function, which then increases by 2 there:

    xi^(k+1) = xi^(k) + 2 * delta_{i_k}.

The label map phi sends beta_k to (i_k, xi^(k)(i_k)); its image together
with all dual shifts tiles sigma0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from typing import Callable, Iterator

from . import rootsys
from .affine import SigmaPoint, json_int
from .rootsys import Root, RootSystem, Word, dynkin_edges

__all__ = [
    "QDatum",
    "QDatumError",
    "UnsupportedAutomorphismError",
    "is_adapted",
    "adapted_words",
    "some_adapted_word",
    "phi",
    "fundamental_labels",
    "qdatum_from_json",
    "all_height_functions",
]

# Enumerating every adapted word explodes combinatorially with the rank, as
# the reduced words of w0 do (D_5 already has millions); keep it guarded.
MAX_ENUMERATION_RANK = 4


class QDatumError(ValueError):
    pass


class UnsupportedAutomorphismError(QDatumError):
    """Non-identity diagram automorphisms are out of required scope."""


@dataclass(frozen=True)
class QDatum:
    type_letter: str
    rank: int
    heights: tuple[int, ...]  # xi(i) = heights[i-1]
    automorphism: tuple[int, ...] | None = None  # identity when None

    def __post_init__(self) -> None:
        edges = dynkin_edges(self.type_letter, self.rank)  # validates (type, rank)
        if self.automorphism is not None:
            if tuple(self.automorphism) != tuple(range(1, self.rank + 1)):
                raise UnsupportedAutomorphismError(
                    "only identity diagram automorphisms are supported"
                )
            object.__setattr__(self, "automorphism", tuple(self.automorphism))
        # a tuple, so that the Q-datum can key the caches of its derived values
        object.__setattr__(self, "heights", tuple(self.heights))
        if len(self.heights) != self.rank:
            raise QDatumError("height function must assign every node")
        for i, j in edges:
            if abs(self.heights[i - 1] - self.heights[j - 1]) != 1:
                raise QDatumError(
                    f"heights at adjacent nodes {i},{j} must differ by 1"
                )

    @cached_property
    def root_system(self) -> RootSystem:
        return RootSystem(self.type_letter, self.rank)


def _at_minimum(q: QDatum) -> Callable[[int, list[int]], bool]:
    """The local-minimum rule as ``allowed(i, counts)``: node i is a strict
    local minimum of the running heights xi(j) + 2 * counts[j - 1]."""
    xi = q.heights
    neighbours = [[j for j, a in enumerate(row) if a < 0] for row in q.root_system.cartan_matrix]

    def allowed(i: int, counts: list[int]) -> bool:
        height = xi[i - 1] + 2 * counts[i - 1]
        for j in neighbours[i - 1]:
            if xi[j] + 2 * counts[j] <= height:
                return False
        return True

    return allowed


def _label(q: QDatum, letter: int, seen: int) -> SigmaPoint:
    """The label rule: a letter i after ``seen`` letters i sits at
    (i, xi(i) + 2 * seen)."""
    return SigmaPoint(letter, q.heights[letter - 1] + 2 * seen)


def _adapted_labels(q: QDatum, word: Word) -> list[SigmaPoint] | None:
    """The labels (i_k, xi^(k)(i_k)) along the word, or None when the word
    does not spell w0 or breaks the local-minimum rule."""
    if not q.root_system.spells_longest(tuple(word)):
        return None
    allowed = _at_minimum(q)
    counts = [0] * q.rank
    labels = []
    for letter in word:
        if not allowed(letter, counts):
            return None
        labels.append(_label(q, letter, counts[letter - 1]))
        counts[letter - 1] += 1
    return labels


def is_adapted(q: QDatum, word: Word) -> bool:
    """True when the word spells w0 and follows the local-minimum rule."""
    return _adapted_labels(q, word) is not None


def _adapted_search(q: QDatum) -> Iterator[Word]:
    # the reduced words of w0 whose letters follow the local-minimum rule, in
    # the search order of rootsys (minimum sequences alone can fail reducedness)
    return rootsys._reduced_words(q.type_letter, q.rank, _at_minimum(q))


def adapted_words(q: QDatum) -> Iterator[Word]:
    """All adapted reduced words of w0 (rank <= 4 guard)."""
    if q.rank > MAX_ENUMERATION_RANK:
        raise QDatumError(
            f"enumeration of adapted words is limited to rank <= {MAX_ENUMERATION_RANK}"
        )
    yield from _adapted_search(q)


@lru_cache(maxsize=rootsys.CACHE_SIZE)
def some_adapted_word(q: QDatum) -> Word:
    """The first adapted word in the canonical search order, kept per Q-datum
    (pure Weyl combinatorics, so nothing can make it stale)."""
    word = next(_adapted_search(q), None)
    if word is None:  # pragma: no cover - every valid Q-datum has one
        raise QDatumError("no adapted word found")
    return word


def phi(q: QDatum, word: Word) -> dict[Root, SigmaPoint]:
    """phi_Q on the positive roots, computed along an adapted word."""
    labels = _adapted_labels(q, word)
    if labels is None:
        raise QDatumError(f"word {word} is not adapted to the Q-datum")
    return dict(zip(q.root_system.beta_sequence(word), labels))


def fundamental_labels(q: QDatum) -> dict[int, SigmaPoint]:
    """phi_Q(alpha_i) for every node i, via the canonical adapted word.

    The search already enforced reducedness and the local-minimum rule, so
    the word is not walked again: alpha_i is beta_k at its position k among
    the word's cached betas, and gets the label of the letter i_k there.
    """
    rs = q.root_system
    word = some_adapted_word(q)
    betas = rs.beta_sequence(word)
    labels = {}
    for i in rs.nodes:
        k = betas.index(rs.simple_root(i))
        labels[i] = _label(q, word[k], word[:k].count(word[k]))
    return labels


def all_height_functions(type_letter: str, rank: int) -> Iterator[tuple[int, ...]]:
    """Every height function with xi(1) = 0, one sign choice per edge.

    Each edge of ``dynkin_edges`` meets a node of an earlier edge or node 1,
    so one pass in that order fills every height from the end already set.
    """
    edges = dynkin_edges(type_letter, rank)
    for signs in product((-1, 1), repeat=len(edges)):
        xi = {1: 0}
        for (i, j), sign in zip(edges, signs):
            if i in xi:
                xi[j] = xi[i] + sign
            else:
                xi[i] = xi[j] + sign
        yield tuple(xi[i] for i in range(1, rank + 1))


def qdatum_from_json(doc: str | dict) -> QDatum:
    """Parse {"fin_type": "A", "rank": 2, "xi": {"1": 0, "2": 1}}."""
    data = json.loads(doc) if isinstance(doc, str) else doc
    if not isinstance(data, dict):
        raise QDatumError(f"Q-datum JSON must be an object, got {data!r}")
    type_letter = data.get("fin_type")
    if not isinstance(type_letter, str):
        raise QDatumError(f"Q-datum field 'fin_type' must be a type letter, got {type_letter!r}")
    rank = json_int(data.get("rank"), "Q-datum field 'rank'")
    xi = data.get("xi")
    if not isinstance(xi, dict):
        raise QDatumError(f"Q-datum field 'xi' must map nodes to heights, got {xi!r}")
    heights = []
    for i in range(1, rank + 1):
        if str(i) not in xi:
            raise QDatumError(f"Q-datum field 'xi' has no height for node {i}")
        heights.append(json_int(xi[str(i)], f"Q-datum field 'xi' entry {i}"))
    autom = data.get("automorphism")
    if autom is not None and not isinstance(autom, list):
        raise QDatumError(f"Q-datum field 'automorphism' must be a list, got {autom!r}")
    return QDatum(
        type_letter=type_letter,
        rank=rank,
        heights=tuple(heights),
        automorphism=tuple(autom) if autom is not None else None,
    )
