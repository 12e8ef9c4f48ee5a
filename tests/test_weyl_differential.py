"""The cached word analysis of ``rootsys`` against the routes it replaced.

``is_reduced``, ``beta_sequence`` and ``minimal_pairs`` read one
incremental pass over each word, and ``star`` the last images of the greedy
walk to w0.  Here each is checked against its definition, computed with the
tuple Weyl group of ``conftest`` (``act``) prefix by prefix: the inversion count ``length``, the
prefix images of the simple roots, the O(l^2) scan over all pairs and the
full action of w0.  The words are every reduced word of w0 at rank <= 3,
the greedy word of w0 and seeded random words (reduced or not, of w0 or
shorter).  The reference searches grow the images of the simple roots on
tuples from the Cartan matrix, not on the packed ints of ``rootsys``.

``data/l0_frozen.json`` holds ``longest_word``, the first 50 reduced words
of w0 (now ``conftest.reduced_words_of_longest``, the search of ``qdata``
with no rule on letters) and ``some_adapted_word`` on every height function
as the implementation before the word analysis gave them, computed by
``frozen_outputs`` below on that implementation.
"""

from __future__ import annotations

import json
import random
from itertools import combinations, islice
from pathlib import Path

import pytest
from conftest import act, is_positive, length, reduced_words_of_longest

from qaffpbw import qdata, rootsys
from qaffpbw.rootsys import RootSystem, RootSystemError, _unpack, dynkin_edges

FROZEN = Path(__file__).resolve().parent / "data" / "l0_frozen.json"

TYPES = [("A", n) for n in range(1, 8)] + [("D", 4), ("D", 5), ("E", 6)]
LONGEST_ONLY = [("E", 7), ("E", 8)]
RANDOM_WORDS = 150
# the largest coefficients (up to 6 at E8), where the packing bound bites
LARGE = [("D", 6), ("E", 7), ("E", 8)]
LARGE_RANDOM_WORDS = 6


def extend_images(rs: RootSystem, images: tuple, i: int) -> tuple:
    """The images of the simple roots under w s_i, from those under w:
    (w s_i)(alpha_j) = w(alpha_j) - a_ij w(alpha_i), on tuples."""
    row, wi = rs.cartan_matrix[i - 1], images[i - 1]
    return tuple(
        tuple(x - a * y for x, y in zip(image, wi)) for a, image in zip(row, images)
    )


def pack(v) -> int:
    """The packing of rootsys by its definition: the sum of c_j * 256**j."""
    return sum(c * 256**j for j, c in enumerate(v))


def reference_betas(rs: RootSystem, word) -> tuple:
    return tuple(act(rs, word[:k], rs.simple_root(word[k])) for k in range(len(word)))


def reference_minimal_pairs(betas) -> list[tuple]:
    """The minimal pairs of every beta_k, by a scan over all pairs a < b."""
    sums = [
        (a, b, tuple(x + y for x, y in zip(betas[a - 1], betas[b - 1])))
        for a, b in combinations(range(1, len(betas) + 1), 2)
    ]
    out = []
    for k in range(1, len(betas) + 1):
        pairs = [(a, b) for a, b, s in sums if a < k < b and s == betas[k - 1]]
        out.append(
            tuple((a, b) for a, b in pairs if not any(a < a2 and b2 < b for a2, b2 in pairs))
        )
    return out


def random_words(rs: RootSystem, seed: str, count: int = RANDOM_WORDS) -> list[tuple[int, ...]]:
    """Words grown by random ascents, half of them with one random letter
    inserted; a third run to the length of w0."""
    rng = random.Random(seed)
    ell = len(rs.positive_roots())
    words = []
    for n in range(count):
        target = ell if n % 3 == 0 else rng.randint(0, ell)
        word: tuple[int, ...] = ()
        images = tuple(rs.simple_root(i) for i in rs.nodes)
        while len(word) < target:
            i = rng.choice([i for i in rs.nodes if is_positive(images[i - 1])])
            word, images = word + (i,), extend_images(rs, images, i)
        if n % 2:
            at = rng.randint(0, len(word))
            word = word[:at] + (rng.choice(rs.nodes),) + word[at:]
        words.append(word)
    return words


def words_of(type_letter: str, rank: int) -> list[tuple[int, ...]]:
    rs = RootSystem(type_letter, rank)
    words = [rs.longest_word()]
    if rank <= 3:
        words += list(reduced_words_of_longest(rs))
    return words + random_words(rs, f"{type_letter}{rank}")


def check_word(rs: RootSystem, word) -> bool:
    reduced = length(rs, word) == len(word)
    assert rs.is_reduced(word) is reduced, word
    assert rs.spells_longest(word) is (reduced and len(word) == len(rs.positive_roots()))
    if not reduced:
        with pytest.raises(RootSystemError):
            rs.beta_sequence(word)
        with pytest.raises(RootSystemError):
            rs.minimal_pairs(word, 1)
        return False
    betas = reference_betas(rs, word)
    assert rs.beta_sequence(word) == betas, word
    for k, pairs in enumerate(reference_minimal_pairs(betas), start=1):
        assert rs.minimal_pairs(word, k) == pairs, (word, k)
    return True


@pytest.mark.parametrize("type_letter, rank", TYPES, ids=lambda v: str(v))
def test_word_analysis_matches_the_prefix_definitions(type_letter, rank):
    rs = RootSystem(type_letter, rank)
    outcomes = [check_word(rs, word) for word in words_of(type_letter, rank)]
    # the sample reaches both branches of the reducedness test
    assert any(outcomes) and not all(outcomes)


@pytest.mark.parametrize("type_letter, rank", LONGEST_ONLY, ids=lambda v: str(v))
def test_word_analysis_of_the_longest_word(type_letter, rank):
    rs = RootSystem(type_letter, rank)
    assert check_word(rs, rs.longest_word())


@pytest.mark.parametrize("type_letter, rank", LARGE, ids=lambda v: str(v))
def test_word_analysis_of_random_words_at_larger_ranks(type_letter, rank):
    rs = RootSystem(type_letter, rank)
    words = random_words(rs, f"{type_letter}{rank}", LARGE_RANDOM_WORDS)
    outcomes = [check_word(rs, word) for word in words]
    assert any(outcomes) and not all(outcomes)


def test_packing_of_e8_roots_and_their_differences():
    rs = RootSystem("E", 8)
    positive = rs.positive_roots()
    negative = [tuple(-x for x in r) for r in positive]
    for root in positive + tuple(negative):
        assert _unpack(pack(root), 8) == root
        assert (pack(root) > 0) is is_positive(root)
    assert max(max(r) for r in positive) == 6
    for r in positive:
        for s in positive:
            diff = tuple(x - y for x, y in zip(r, s))
            assert max(map(abs, diff)) <= 6
            assert _unpack(pack(r) - pack(s), 8) == diff
            assert pack(diff) == pack(r) - pack(s)


def reference_adapted_words(q: qdata.QDatum) -> list[tuple[int, ...]]:
    """Every adapted word, by recursion over the tuple images of RootSystem."""
    rs = q.root_system
    ell = len(rs.positive_roots())
    adj = {i: set() for i in rs.nodes}
    for i, j in dynkin_edges(q.type_letter, q.rank):
        adj[i].add(j)
        adj[j].add(i)
    out = []

    def grow(word, heights, images):
        if len(word) == ell:
            out.append(word)
        for i in rs.nodes:
            minimum = all(heights[i - 1] < heights[j - 1] for j in adj[i])
            if minimum and is_positive(images[i - 1]):
                raised = heights[:i - 1] + (heights[i - 1] + 2,) + heights[i:]
                grow(word + (i,), raised, extend_images(rs, images, i))

    grow((), q.heights, tuple(rs.simple_root(i) for i in rs.nodes))
    return out


@pytest.mark.parametrize("type_letter, rank", [("A", 3), ("A", 4), ("D", 4)], ids=str)
def test_adapted_search_matches_a_recursive_search(type_letter, rank):
    for heights in qdata.all_height_functions(type_letter, rank):
        q = qdata.QDatum(type_letter, rank, heights)
        assert list(qdata.adapted_words(q)) == reference_adapted_words(q), heights


@pytest.mark.parametrize("type_letter, rank", TYPES + LONGEST_ONLY, ids=lambda v: str(v))
def test_star_matches_the_action_of_w0(type_letter, rank):
    rs = RootSystem(type_letter, rank)
    w0 = rs.longest_word()
    for i in rs.nodes:
        image = act(rs, w0, rs.simple_root(i))
        assert tuple(-x for x in image) == rs.simple_root(rs.star(i))


def test_star_analyses_no_word():
    rootsys._word_data.cache_clear()
    for type_letter, ranks in (("A", range(1, 11)), ("D", range(4, 9)), ("E", range(6, 9))):
        for rank in ranks:
            rs = RootSystem(type_letter, rank)
            for i in rs.nodes:
                rs.star(i)
    assert rootsys._word_data.cache_info().misses == 0


def frozen_outputs() -> dict:
    out: dict = {"longest_word": {}, "reduced_words_of_longest": {}, "some_adapted_word": {}}
    for type_letter, rank in TYPES + [("A", 8)] + LONGEST_ONLY:
        rs = RootSystem(type_letter, rank)
        out["longest_word"][f"{type_letter}{rank}"] = list(rs.longest_word())
    for type_letter, rank in [("A", 3), ("A", 4), ("D", 4)]:
        words = islice(reduced_words_of_longest(RootSystem(type_letter, rank)), 50)
        out["reduced_words_of_longest"][f"{type_letter}{rank}"] = [list(w) for w in words]
    for type_letter, rank in [("A", 4), ("D", 4)]:
        out["some_adapted_word"][f"{type_letter}{rank}"] = {
            ",".join(map(str, h)): list(
                qdata.some_adapted_word(qdata.QDatum(type_letter, rank, h))
            )
            for h in qdata.all_height_functions(type_letter, rank)
        }
    return out


def test_word_searches_match_the_frozen_outputs():
    assert frozen_outputs() == json.loads(FROZEN.read_text())
