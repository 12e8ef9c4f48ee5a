"""Finite simply-laced root systems and Weyl-word combinatorics.

Everything here is exact integer arithmetic on coefficient vectors over the
simple roots.  Node numbering follows Bourbaki:

    A_n : 1 - 2 - ... - n
    D_n : 1 - 2 - ... - (n-2), with both (n-1) and n attached to (n-2)
          (so for D_4 the branch node is 2)
    E_n : chain 1 - 3 - 4 - 5 - ... - n, with 2 attached to 4

A reduced expression ``w = s_{i_1} ... s_{i_m}`` is stored as the flat tuple
``(i_1, ..., i_m)``.  Two caches hold all Weyl data: one record per
(type, rank) with the Cartan matrix, the positive roots and a reduced word
of w0, and one analysis per (type, rank, word).  The analysis walks the word
once, carrying the images w(alpha_j) of the simple roots under the prefix w,
updated by

    (w s_i)(alpha_j) = w(alpha_j) - a_ij w(alpha_i).

The word is reduced exactly when every beta_k = w_{k-1}(alpha_{i_k}) is
positive.  The star involution, w0(alpha_i) = -alpha_{i*}, is read off the
last images of the greedy walk to w0.  One depth-first search over the
reduced words of w0, with a rule on letters, is the adapted-word search of
``qdata``.

Inside the walks a root is one int, the sum of c_j * 256**j over its
coefficients c_j (signed digits, 8 bits each).  Every coefficient of an ADE
root, and of the difference of two positive roots, lies in -6..6, well
inside a digit, so the packing is injective on these vectors, the packing of
a difference is the difference of the packings, and a root is positive
exactly when its packing is > 0.  Only this module knows the packing; public
results are tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple

# Largest rank accepted, so that an oversized request fails at once: the cost
# grows with the number of positive roots, and ``roots --fin A200`` took 75 s.
MAX_RANK = 64


def rank_from_digits(digits: str) -> int:
    """A rank written in decimal digits, refused past MAX_RANK; the digit
    count is compared first, since int() refuses a few thousand digits."""
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(MAX_RANK)) or int(digits) > MAX_RANK:
        raise RootSystemError(f"rank {digits} exceeds the limit {MAX_RANK}")
    return int(digits)

# The one bound of every cache that grows with the input: the LRU caches of
# word analyses here and of adapted words in ``qdata``, and in a type's memo
# (``affine._derived``) the memos keyed by probe tuple, fusion table,
# expression and Q-datum, which ``affine._kept`` alone starts over when full.
# Memos sized by the type are not bounded.  A benchmark pass fills none past
# a few hundred entries, so this only bounds a long-running process.
CACHE_SIZE = 1024


class RootSystemError(ValueError):
    pass


Root = tuple[int, ...]
Word = tuple[int, ...]


def cartan(type_letter: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix of the given simply-laced finite type, Bourbaki order."""
    return _root_data(type_letter, rank).cartan


def dynkin_edges(type_letter: str, rank: int) -> tuple[tuple[int, int], ...]:
    """Edge list (1-based node pairs) of the Dynkin diagram."""
    if rank > MAX_RANK:
        raise RootSystemError(f"rank {rank} exceeds the limit {MAX_RANK}")
    if type_letter == "A":
        if rank < 1:
            raise RootSystemError(f"invalid rank {rank} for type A")
        return tuple((i, i + 1) for i in range(1, rank))
    if type_letter == "D":
        if rank < 4:
            raise RootSystemError(f"invalid rank {rank} for type D")
        chain = tuple((i, i + 1) for i in range(1, rank - 2))
        return chain + ((rank - 2, rank - 1), (rank - 2, rank))
    if type_letter == "E":
        if rank not in (6, 7, 8):
            raise RootSystemError(f"invalid rank {rank} for type E")
        chain = ((1, 3),) + tuple((i, i + 1) for i in range(3, rank))
        return chain + ((2, 4),)
    raise RootSystemError(f"unknown simply-laced type {type_letter!r}")


class _RootData(NamedTuple):
    cartan: tuple[tuple[int, ...], ...]
    steps: tuple[tuple[tuple[int, int], ...], ...]  # (j - 1, a_ij) where a_ij != 0, per i
    simple: tuple[Root, ...]  # alpha_1 .. alpha_n
    positive: tuple[Root, ...]  # sorted by height, then lexicographically
    roots: dict[int, Root]  # packing -> positive root
    longest: Word  # the greedy reduced word of w0, smallest ascent first
    star: tuple[int, ...]  # star[i - 1] = i*, with w0(alpha_i) = -alpha_{i*}


class _WordData(NamedTuple):
    reduced: bool
    # the fields below are empty unless the word is reduced
    betas: tuple[Root, ...]
    pairs: tuple[tuple[tuple[int, int], ...], ...]  # minimal pairs of beta_k


_BITS = 8  # per packed coefficient


def _unpack(packed: int, rank: int) -> Root:
    half = 1 << _BITS - 1
    out = []
    for _ in range(rank):
        digit = (packed + half) % (2 * half) - half
        out.append(digit)
        packed = (packed - digit) >> _BITS
    return tuple(out)


def _simple_images(rank: int) -> list[int]:
    """The packed alpha_1 .. alpha_n, the images under the identity."""
    return [1 << _BITS * j for j in range(rank)]


def _step(steps, images: list[int], i: int) -> None:
    # (w s_i)(alpha_j) = w(alpha_j) - a_ij w(alpha_i), in place on packed
    # images; an involution, so a second call undoes the first
    wi = images[i - 1]
    for j, a in steps[i - 1]:
        images[j] -= a * wi


@lru_cache(maxsize=None)
def _root_data(type_letter: str, rank: int) -> _RootData:
    mat = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j in dynkin_edges(type_letter, rank):
        mat[i - 1][j - 1] = -1
        mat[j - 1][i - 1] = -1
    matrix = tuple(tuple(row) for row in mat)
    steps = tuple(tuple((j, a) for j, a in enumerate(row) if a) for row in matrix)
    simple = tuple(tuple(int(j == i) for j in range(rank)) for i in range(rank))
    # appending s_i keeps a word reduced exactly when w(alpha_i) is positive,
    # and some such i exists until w = w0; the betas of the greedy walk to w0
    # are the positive roots, each once
    longest: list[int] = []
    betas = []
    images = _simple_images(rank)
    while True:
        i = next((i for i in range(1, rank + 1) if images[i - 1] > 0), None)
        if i is None:
            break
        longest.append(i)
        betas.append(images[i - 1])
        _step(steps, images, i)
    roots = {beta: _unpack(beta, rank) for beta in betas}
    positive = tuple(sorted(roots.values(), key=lambda r: (sum(r), r)))
    # images[i - 1] is now w0(alpha_i) = -alpha_{i*}, packed -(256 ** (i* - 1))
    star = tuple((-v).bit_length() // _BITS + 1 for v in images)
    return _RootData(matrix, steps, simple, positive, roots, tuple(longest), star)


@lru_cache(maxsize=CACHE_SIZE)
def _word_data(type_letter: str, rank: int, word: Word) -> _WordData:
    for i in word:
        if i not in range(1, rank + 1):
            raise RootSystemError(f"letter {i} out of range for rank {rank}")
    data = _root_data(type_letter, rank)
    steps = data.steps
    images = _simple_images(rank)
    betas = []
    for i in word:
        beta = images[i - 1]
        if beta <= 0:
            return _WordData(False, (), ())
        betas.append(beta)
        _step(steps, images, i)
    # beta_k = beta_a + beta_b with a < k < b; each a fixes b, so a scan of a
    # gives the pairs in order, and a pair is minimal when no later a has a
    # smaller b
    position = {beta: b for b, beta in enumerate(betas, start=1)}.get
    pairs = []
    for k, target in enumerate(betas, start=1):
        found = []
        for a, beta in enumerate(betas[: k - 1], start=1):
            b = position(target - beta, 0)
            if b > k:
                found.append((a, b))
        minimal = []
        least = len(betas) + 1
        for a, b in reversed(found):
            if b < least:
                minimal.append((a, b))
                least = b
        pairs.append(tuple(reversed(minimal)))
    roots = data.roots
    return _WordData(True, tuple(roots[beta] for beta in betas), tuple(pairs))


def _reduced_words(
    type_letter: str, rank: int, allowed: Callable[[int, list[int]], bool]
) -> Iterator[Word]:
    """The reduced words of w0 whose every letter i passes allowed(i, counts),
    counts[j - 1] being the number of letters j before i, depth first in node
    order; the word is the stack, so no recursion limit applies."""
    data = _root_data(type_letter, rank)
    ell = len(data.positive)
    steps = data.steps
    images = _simple_images(rank)  # images[i - 1] = packed w(alpha_i)
    counts = [0] * rank
    word: list[int] = []
    first = 1  # the first node to try after the word
    while True:
        if len(word) == ell:
            yield tuple(word)
        for i in range(first, rank + 1):
            # appending s_i keeps the word reduced exactly when w(alpha_i) > 0
            if images[i - 1] > 0 and allowed(i, counts):
                word.append(i)
                counts[i - 1] += 1
                _step(steps, images, i)
                first = 1
                break
        else:
            if not word:
                return
            i = word.pop()
            counts[i - 1] -= 1
            _step(steps, images, i)
            first = i + 1


@dataclass(frozen=True)
class RootSystem:
    """Root/Weyl data for one irreducible simply-laced finite type."""

    type_letter: str
    rank: int

    def __post_init__(self) -> None:
        dynkin_edges(self.type_letter, self.rank)  # validates (type, rank)

    @property
    def cartan_matrix(self) -> tuple[tuple[int, ...], ...]:
        return cartan(self.type_letter, self.rank)

    @property
    def nodes(self) -> range:
        return range(1, self.rank + 1)

    def simple_root(self, i: int) -> Root:
        if i not in self.nodes:
            raise RootSystemError(f"node {i} out of range for rank {self.rank}")
        return _root_data(self.type_letter, self.rank).simple[i - 1]

    def positive_roots(self) -> tuple[Root, ...]:
        return _root_data(self.type_letter, self.rank).positive

    def _analysis(self, word: Word) -> _WordData:
        return _word_data(self.type_letter, self.rank, tuple(word))

    def is_reduced(self, word: Word) -> bool:
        return self._analysis(word).reduced

    def beta_sequence(self, word: Word) -> tuple[Root, ...]:
        """The roots s_{i_1}...s_{i_{k-1}}(alpha_{i_k}) for k = 1..m.

        For a reduced word of w0 this lists all positive roots once, in the
        convex order attached to the word.
        """
        analysis = self._analysis(word)
        if not analysis.reduced:
            raise RootSystemError(f"word {word} is not reduced")
        return analysis.betas

    def spells_longest(self, word: Word) -> bool:
        analysis = self._analysis(word)
        return analysis.reduced and len(analysis.betas) == len(self.positive_roots())

    def longest_word(self) -> Word:
        """A canonical reduced word of w0 (greedy, smallest descent first)."""
        return _root_data(self.type_letter, self.rank).longest

    def star(self, i: int) -> int:
        """The node i* with w0(alpha_i) = -alpha_{i*}; an involution."""
        if i not in self.nodes:
            raise RootSystemError(f"node {i} out of range for rank {self.rank}")
        return _root_data(self.type_letter, self.rank).star[i - 1]

    def extend_letter(self, word: Word, k: int) -> int:
        """Letter i_k of the Z-extension of a w0 word by i_{k+l} = (i_k)*."""
        if not self.spells_longest(word):
            raise RootSystemError("word does not spell the longest element")
        ell = len(word)
        m, k0 = divmod(k - 1, ell)
        letter = word[k0]
        return self.star(letter) if m % 2 else letter

    def minimal_pairs(self, word: Word, k: int) -> tuple[tuple[int, int], ...]:
        """Minimal pairs (a, b) of beta_k within the convex order of the word.

        A decomposition beta_a + beta_b = beta_k (a < k < b) is minimal when no
        other decomposition sits strictly between it, i.e. there is no pair
        (a', b') with a < a' and b' < b.
        """
        betas = self.beta_sequence(word)
        if not 1 <= k <= len(betas):
            raise RootSystemError(f"index {k} out of range")
        return self._analysis(word).pairs[k - 1]
