from __future__ import annotations

import pytest

from qaffpbw import qdata
from qaffpbw.affine import SigmaPoint, dual_point, type_info
from qaffpbw.duality import from_q_datum
from qaffpbw.qdata import QDatum, QDatumError, UnsupportedAutomorphismError
from qaffpbw.rootsys import RootSystemError, dynkin_edges

A2 = type_info("A2^1")
P = SigmaPoint

Q01 = QDatum("A", 2, (0, 1))
Q21 = QDatum("A", 2, (2, 1))


def test_validate():
    QDatum(Q01.type_letter, Q01.rank, Q01.heights, Q01.automorphism)
    QDatum(Q21.type_letter, Q21.rank, Q21.heights, Q21.automorphism)
    with pytest.raises(QDatumError):
        QDatum("A", 2, (0, 2))
    with pytest.raises(UnsupportedAutomorphismError):
        QDatum("A", 2, (0, 1), automorphism=(2, 1))
    with pytest.raises(QDatumError, match="height function must assign every node"):
        QDatum("A", 3, (0, 1))
    # (type, rank) is checked before the heights are counted
    for rank in (0, -1):
        with pytest.raises(RootSystemError, match=f"invalid rank {rank} for type A"):
            QDatum("A", rank, ())
        with pytest.raises(RootSystemError, match=f"invalid rank {rank} for type A"):
            qdata.qdatum_from_json({"fin_type": "A", "rank": rank, "xi": {}})
    # heights and automorphism are kept as tuples, so a Q-datum is a cache key
    listed = QDatum("A", 2, [0, 1], automorphism=[1, 2])
    assert (listed.heights, listed.automorphism) == ((0, 1), (1, 2))
    assert hash(listed) == hash(QDatum("A", 2, (0, 1), automorphism=(1, 2)))
    with pytest.raises(QDatumError, match="Q-datum JSON must be an object"):
        qdata.qdatum_from_json("[]")


def test_is_adapted_examples():
    assert qdata.is_adapted(Q01, (1, 2, 1))
    assert not qdata.is_adapted(Q01, (2, 1, 2))
    assert qdata.is_adapted(Q21, (2, 1, 2))
    assert not qdata.is_adapted(Q01, (1, 2))  # not w0


def test_adapted_words_enumeration():
    assert list(qdata.adapted_words(Q01)) == [(1, 2, 1)]
    assert list(qdata.adapted_words(Q21)) == [(2, 1, 2)]
    q = QDatum("A", 3, (0, 1, 0))
    words = list(qdata.adapted_words(q))
    assert words
    assert all(qdata.is_adapted(q, w) for w in words)


def test_adapted_words_guard():
    q = QDatum("A", 5, (0, 1, 0, 1, 0))
    with pytest.raises(QDatumError):
        list(qdata.adapted_words(q))


def test_phi_examples():
    mapping = qdata.phi(Q01, (1, 2, 1))
    assert mapping[(1, 0)] == P(1, 0)
    assert mapping[(1, 1)] == P(2, 1)
    assert mapping[(0, 1)] == P(1, 2)

    mapping = qdata.phi(Q21, (2, 1, 2))
    assert mapping[(0, 1)] == P(2, 1)
    assert mapping[(1, 1)] == P(1, 2)
    assert mapping[(1, 0)] == P(2, 3)

    q1 = QDatum("A", 1, (0,))
    assert qdata.phi(q1, (1,)) == {(1,): P(1, 0)}


def test_phi_requires_adapted():
    with pytest.raises(QDatumError):
        qdata.phi(Q01, (2, 1, 2))


def test_phi_independent_of_adapted_word():
    for heights in qdata.all_height_functions("A", 3):
        q = QDatum("A", 3, heights)
        words = list(qdata.adapted_words(q))
        reference = qdata.phi(q, words[0])
        for w in words[1:]:
            assert qdata.phi(q, w) == reference


def test_fundamental_labels_examples():
    assert qdata.fundamental_labels(Q01) == {1: P(1, 0), 2: P(1, 2)}
    assert qdata.fundamental_labels(Q21) == {1: P(2, 3), 2: P(2, 1)}
    assert qdata.fundamental_labels(QDatum("A", 1, (0,))) == {1: P(1, 0)}


def test_image_lands_in_sigma0_with_distinct_points():
    for n in (1, 2, 3):
        info = type_info(f"A{n}^1")
        for heights in qdata.all_height_functions("A", n):
            q = QDatum("A", n, heights)
            mapping = qdata.phi(q, qdata.some_adapted_word(q))
            points = list(mapping.values())
            assert len(set(points)) == len(points)
            assert all(info.in_sigma0(x) for x in points)


def test_dual_orbits_tile_sigma0():
    for n in (1, 2, 3):
        info = type_info(f"A{n}^1")
        h = info.dual_shift_exponent
        for heights in qdata.all_height_functions("A", n):
            q = QDatum("A", n, heights)
            image = set(qdata.phi(q, qdata.some_adapted_word(q)).values())
            span = max(abs(x.power) for x in image) + 4 * h
            window = info.sigma0_points(-span, span)
            covered: dict[SigmaPoint, int] = {}
            for x in image:
                for m in range(-(2 * span) // h - 2, (2 * span) // h + 3):
                    y = dual_point(info, x, m)
                    if -span <= y.power <= span:
                        covered[y] = covered.get(y, 0) + 1
            assert all(covered.get(v, 0) == 1 for v in window), (n, heights)


def reference_height_functions(type_letter, rank):
    """The breadth-first enumeration that the one pass over the edges replaced."""
    edges = dynkin_edges(type_letter, rank)
    parent: dict[int, int] = {}
    order = [1]
    seen = {1}
    while len(order) < rank:
        for i, j in edges:
            if i in seen and j not in seen:
                parent[j] = i
                order.append(j)
                seen.add(j)
            elif j in seen and i not in seen:
                parent[i] = j
                order.append(i)
                seen.add(i)

    def grow(assigned):
        if len(assigned) == rank:
            yield tuple(assigned[i] for i in range(1, rank + 1))
            return
        node = order[len(assigned)]
        for sign in (-1, 1):
            assigned[node] = assigned[parent[node]] + sign
            yield from grow(assigned)
        del assigned[node]

    yield from grow({1: 0})


@pytest.mark.parametrize(
    "type_letter,rank",
    [("A", n) for n in range(1, 11)]
    + [("D", n) for n in range(4, 11)]
    + [("E", n) for n in (6, 7, 8)],
)
def test_height_functions_match_the_breadth_first_reference(type_letter, rank):
    heights = list(qdata.all_height_functions(type_letter, rank))
    assert heights == list(reference_height_functions(type_letter, rank))
    assert len(heights) == 2 ** (rank - 1)


def test_all_height_functions_count():
    assert len(list(qdata.all_height_functions("A", 4))) == 8
    for heights in qdata.all_height_functions("D", 4):
        QDatum("D", 4, heights)


def test_json_parse():
    q = qdata.qdatum_from_json('{"fin_type":"A","rank":2,"xi":{"1":0,"2":1}}')
    assert q == Q01


@pytest.mark.parametrize("fin_type", [None, 1, ["A"]])
def test_json_without_a_string_fin_type_is_a_qdatum_error(fin_type):
    doc = {"rank": 2, "xi": {"1": 0, "2": 1}}
    if fin_type is not None:
        doc["fin_type"] = fin_type
    with pytest.raises(QDatumError, match="'fin_type'"):
        qdata.qdatum_from_json(doc)


def test_datum_from_q_alias():
    datum = from_q_datum(A2, Q01)
    assert [m.point for m in datum.members] == [P(1, 0), P(1, 2)]
    assert datum.complete is True
