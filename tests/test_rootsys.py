from __future__ import annotations

import pytest
from conftest import length, reduced_words_of_longest

from qaffpbw.rootsys import RootSystem, RootSystemError, cartan, dynkin_edges


def test_cartan_a2():
    assert cartan("A", 2) == ((2, -1), (-1, 2))


def test_cartan_a1():
    assert cartan("A", 1) == ((2,),)


def test_cartan_d4_branch_node():
    mat = cartan("D", 4)
    assert len(mat) == 4
    # node 2 is adjacent to 1, 3 and 4
    assert mat[1][0] == mat[1][2] == mat[1][3] == -1
    assert mat[0][2] == mat[0][3] == mat[2][3] == 0


def test_cartan_invalid():
    with pytest.raises(RootSystemError):
        cartan("B", 2)
    with pytest.raises(RootSystemError):
        cartan("D", 3)
    with pytest.raises(RootSystemError):
        cartan("E", 9)


def test_beta_sequence_a2():
    rs = RootSystem("A", 2)
    assert rs.beta_sequence((1, 2, 1)) == ((1, 0), (1, 1), (0, 1))
    assert rs.beta_sequence((2, 1, 2)) == ((0, 1), (1, 1), (1, 0))


def test_beta_sequence_a1():
    rs = RootSystem("A", 1)
    assert rs.beta_sequence((1,)) == ((1,),)


def test_beta_sequence_rejects_nonreduced():
    rs = RootSystem("A", 2)
    with pytest.raises(RootSystemError):
        rs.beta_sequence((1, 1))


def test_is_reduced():
    rs2 = RootSystem("A", 2)
    assert rs2.is_reduced((1, 2, 1))
    assert not rs2.is_reduced((1, 1))
    rs3 = RootSystem("A", 3)
    # oracle: length of the product in the Weyl group equals the word length
    assert length(rs3, (1, 3, 2, 1, 3, 2)) == 6
    assert rs3.is_reduced((1, 3, 2, 1, 3, 2))


def test_out_of_range_nodes_indices_and_ranks_are_refused():
    rs = RootSystem("A", 3)
    w0 = rs.longest_word()
    with pytest.raises(RootSystemError, match="node 4 out of range for rank 3"):
        rs.simple_root(4)
    with pytest.raises(RootSystemError, match="node 0 out of range for rank 3"):
        rs.star(0)
    with pytest.raises(RootSystemError, match="index 7 out of range"):
        rs.minimal_pairs(w0, 7)
    with pytest.raises(RootSystemError, match="rank 65 exceeds the limit 64"):
        dynkin_edges("A", 65)


def test_star_by_brute_force():
    # oracle: w0(alpha_i) = -alpha_{i*} computed from the full w0 action
    assert RootSystem("A", 2).star(1) == 2
    assert RootSystem("A", 3).star(2) == 2
    assert RootSystem("D", 4).star(1) == 1  # w0 = -1 in D4


def test_star_involution_all_small_types():
    for rs in (RootSystem("A", 3), RootSystem("A", 4), RootSystem("D", 4)):
        for i in rs.nodes:
            assert rs.star(rs.star(i)) == i


def test_extend_letter():
    rs = RootSystem("A", 2)
    word = (1, 2, 1)
    assert rs.extend_letter(word, 1) == 1
    assert rs.extend_letter(word, 4) == 2
    assert rs.extend_letter(word, 0) == 2
    for k in range(-6, 7):
        assert rs.extend_letter(word, k + 3) == rs.star(rs.extend_letter(word, k))


def test_extend_letter_requires_longest():
    rs = RootSystem("A", 2)
    with pytest.raises(RootSystemError):
        rs.extend_letter((1, 2), 1)


def test_minimal_pairs_a2():
    rs = RootSystem("A", 2)
    assert rs.minimal_pairs((1, 2, 1), 2) == ((1, 3),)
    assert rs.minimal_pairs((1, 2, 1), 1) == ()


def test_minimal_pairs_a3_highest_root():
    rs = RootSystem("A", 3)
    theta = (1, 1, 1)
    for word in reduced_words_of_longest(rs):
        betas = rs.beta_sequence(word)
        k = betas.index(theta) + 1
        pairs = rs.minimal_pairs(word, k)
        assert pairs, "the highest root always decomposes"
        for a, b in pairs:
            assert a < k < b
            got = {betas[a - 1], betas[b - 1]}
            assert got in (
                {(1, 0, 0), (0, 1, 1)},
                {(1, 1, 0), (0, 0, 1)},
            )


def test_longest_word_and_count():
    rs = RootSystem("A", 3)
    w0 = rs.longest_word()
    assert rs.spells_longest(w0)
    assert len(rs.positive_roots()) == 6
    words = list(reduced_words_of_longest(rs))
    assert len(words) == 16  # standard count for A3
    assert all(rs.spells_longest(w) for w in words)


def test_beta_sequence_bijects_onto_positive_roots():
    rs = RootSystem("A", 3)
    positives = set(rs.positive_roots())
    for word in reduced_words_of_longest(rs):
        betas = rs.beta_sequence(word)
        assert len(set(betas)) == len(betas)
        assert set(betas) == positives


def test_convexity_exhaustive_a3():
    rs = RootSystem("A", 3)
    for word in reduced_words_of_longest(rs):
        betas = rs.beta_sequence(word)
        index = {b: i + 1 for i, b in enumerate(betas)}
        for a in range(1, 7):
            for b in range(a + 1, 7):
                s = tuple(x + y for x, y in zip(betas[a - 1], betas[b - 1]))
                if s in index:
                    assert a < index[s] < b


def test_rotated_w0_words_are_reduced():
    rs = RootSystem("A", 3)
    word = rs.longest_word()
    ell = len(word)
    extended = [rs.extend_letter(word, k) for k in range(1, 3 * ell + 1)]
    for a in range(2 * ell):
        rotated = tuple(extended[a : a + ell])
        assert rs.spells_longest(rotated)
