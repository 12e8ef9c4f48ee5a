"""The linear exponent-vector comparators, the sigma0 index and the
exponent-vector bijection against the code they replaced.

``cmp_left``/``cmp_right`` walk the two sorted entry tuples in step and stop
at the first difference; ``reference_cmp`` below is the union-of-supports
scan they replaced.  ``CuspidalSeq`` keeps one period of labels,
S_1 .. S_2l, as node and power lists, and a flat table at node * 2h + power
mod 2h: ``label`` reads the lists with one divmod, and the batch reads
``exponents`` (behind ``index_of`` and ``decompose``) and ``multiset``
(behind ``compose``) make one pass over the table per call.
``reference_label`` is the per-call ``dual_point`` that ``label`` replaced
and ``reference_index_of`` the per-base scan, with the same error texts;
``reference_decompose`` runs it on every point and ``reference_compose``
materializes every entry and sorts every copy.  The last tests check the
batch reads on the minimal-pair sequence of every Q-datum at A2-A5 and of
its reflection along the rotated word, on vectors of support 1000, and on a
sequence with a compound member.
"""

from __future__ import annotations

import random

import pytest

from qaffpbw import duality, pbw, qdata
from qaffpbw.affine import NoProviderError, SigmaPoint, dual_point, type_info
from qaffpbw.cuspidal import CuspidalSeq, FundamentalCuspidalSeq
from qaffpbw.duality import DualityError
from qaffpbw.modexpr import Fund, FusionFact, FusionTable
from qaffpbw.pbw import Cmp, ExpVec
from qaffpbw.qdata import QDatum

PAIRS_PER_KIND = 1000
HEIGHTS_PER_TYPE = 5
POWERS = range(-30, 31)
MULTISETS_PER_SEQ = 4
TYPES = [("A", rank) for rank in range(1, 9)] + [("D", 4), ("E", 6)]


def reference_cmp(a: ExpVec, b: ExpVec, from_right: bool) -> int:
    da, db = dict(a.entries), dict(b.entries)
    diffs = [k for k in sorted(set(da) | set(db)) if da.get(k, 0) != db.get(k, 0)]
    if not diffs:
        return 0
    k = diffs[-1] if from_right else diffs[0]
    return -1 if da.get(k, 0) < db.get(k, 0) else 1


def reference_bilex(a: ExpVec, b: ExpVec) -> Cmp:
    left, right = reference_cmp(a, b, False), reference_cmp(a, b, True)
    if left == 0:
        return Cmp.EQUAL
    if left == right:
        return Cmp.LESS if left < 0 else Cmp.GREATER
    return Cmp.INCOMPARABLE


def _random_vec(rng: random.Random, indices) -> ExpVec:
    return ExpVec.from_dict({k: rng.randint(1, 3) for k in indices})


def _support(rng: random.Random, size: int) -> list[int]:
    return rng.sample(range(-15, 16), size)


def _pair(rng: random.Random, kind: str) -> tuple[ExpVec, ExpVec]:
    a = _random_vec(rng, _support(rng, rng.randint(1, 10)))
    if kind == "random":
        return a, _random_vec(rng, _support(rng, rng.randint(0, 10)))
    if kind == "empty":
        return a, ExpVec(())
    if kind == "prefix":
        return a, ExpVec(a.entries[: rng.randrange(len(a.entries) + 1)])
    if kind == "suffix":
        return a, ExpVec(a.entries[rng.randrange(len(a.entries) + 1) :])
    if kind == "same-support":
        return a, _random_vec(rng, a.support)
    if kind == "disjoint":
        rest = [k for k in range(-15, 16) if k not in a.support]
        return a, _random_vec(rng, rng.sample(rest, rng.randint(1, 10)))
    raise ValueError(kind)


KINDS = ("random", "empty", "prefix", "suffix", "same-support", "disjoint")


@pytest.mark.parametrize("kind", KINDS)
def test_comparators_match_union_scan(kind):
    rng = random.Random(f"pbw-cmp-{kind}")
    outcomes = set()
    for _ in range(PAIRS_PER_KIND):
        a, b = _pair(rng, kind)
        for x, y in ((a, b), (b, a), (a, a)):
            assert pbw.cmp_left(x, y) == reference_cmp(x, y, False), (x, y)
            assert pbw.cmp_right(x, y) == reference_cmp(x, y, True), (x, y)
            verdict = pbw.cmp_bilex(x, y)
            assert verdict is reference_bilex(x, y), (x, y)
            outcomes.add(verdict)
    # (a, a) gives EQUAL; every kind must also reach a strict order
    assert Cmp.EQUAL in outcomes and (Cmp.LESS in outcomes or Cmp.GREATER in outcomes)


def test_comparators_on_empty_vectors():
    zero = ExpVec(())
    assert pbw.cmp_left(zero, zero) == pbw.cmp_right(zero, zero) == 0
    assert pbw.cmp_bilex(zero, ExpVec(((3, 1),))) is Cmp.LESS


def _base(seq: FundamentalCuspidalSeq) -> list[SigmaPoint]:
    """S_1 .. S_l, the labels the Q-datum label map gives."""
    return [seq.materialize(s).point for s in range(1, seq.ell + 1)]


def reference_label(seq: FundamentalCuspidalSeq, k: int) -> SigmaPoint:
    return dual_point(seq.info, _base(seq)[(k - 1) % seq.ell], (k - 1) // seq.ell)


def reference_index_of(seq: CuspidalSeq, point) -> int:
    h = seq.info.dual_shift_exponent
    if h is None:
        raise DualityError(f"{seq.info.name}: labels do not form a single (-q)-lattice")
    window = seq.range(1, seq.ell)
    compound = [s for s, x in enumerate(window, start=1) if not isinstance(x, Fund)]
    if compound:
        raise DualityError(f"S_{compound[0]} is compound, so the labels have no index")
    hits = []
    for s, base in enumerate(_base(seq), start=1):
        delta = point.power - base.power
        if delta % h:
            continue
        m = delta // h
        if dual_point(seq.info, base, m) == point:
            hits.append(s + m * seq.ell)
    if len(hits) != 1:
        raise DualityError(
            f"label {point} is covered {len(hits)} times; "
            "expected a bijective cuspidal sequence"
        )
    return hits[0]


def reference_decompose(multiset, seq) -> ExpVec:
    counts: dict[int, int] = {}
    for point in multiset:
        k = reference_index_of(seq, point)
        counts[k] = counts.get(k, 0) + 1
    return ExpVec.from_dict(counts)


def reference_compose(a: ExpVec, seq) -> list[SigmaPoint]:
    points: list[SigmaPoint] = []
    for k, mult in a.entries:
        value = seq.materialize(k)
        if not isinstance(value, Fund):
            raise ValueError(
                f"S_{k} is not a fundamental label; the vector is not "
                "composable over this sequence"
            )
        points.extend([value.point] * mult)
    return sorted(points)


def _outcome(fn, *args):
    """The result, or the class and message of a DualityError or
    NoProviderError; any other error fails the test."""
    try:
        return fn(*args)
    except (DualityError, NoProviderError) as err:
        return f"{type(err).__name__}: {err}"


def _assert_index_matches(seq: FundamentalCuspidalSeq, nodes) -> set:
    """Compare every (i, p) with i in nodes and p in POWERS; the labels found."""
    found = set()
    for i in nodes:
        for p in POWERS:
            point = SigmaPoint(i, p)
            got = _outcome(seq.index_of, point)
            assert got == _outcome(lambda x: reference_index_of(seq, x), point), point
            if isinstance(got, int):
                assert seq.label(got) == point
                found.add(point)
    return found


def _sequences(letter: str, rank: int):
    info = type_info(f"{letter}{rank}^1")
    heights = list(qdata.all_height_functions(letter, rank))
    picks = heights[:HEIGHTS_PER_TYPE] + heights[-1:] if len(heights) > 1 else heights
    for xi in picks:
        for base in (0, 1):
            q = QDatum(letter, rank, tuple(x + base for x in xi))
            yield FundamentalCuspidalSeq(info, q, qdata.some_adapted_word(q))


@pytest.mark.parametrize("rank", range(1, 9))
def test_index_of_matches_per_base_scan(rank):
    for seq in _sequences("A", rank):
        # nodes 0 and rank + 1 are outside the diagram, and the powers of the
        # wrong parity for a node are off sigma0: both give the error text
        found = _assert_index_matches(seq, range(0, rank + 2))
        labels = (seq.label(k) for k in range(-40 * seq.ell, 40 * seq.ell))
        assert found == {x for x in labels if x.power in POWERS}


@pytest.mark.parametrize("letter, rank", [("D", 4), ("E", 6)])
def test_index_of_matches_per_base_scan_beyond_type_a(letter, rank):
    for seq in _sequences(letter, rank):
        _assert_index_matches(seq, range(0, rank + 2))


@pytest.mark.parametrize("letter, rank", TYPES)
def test_label_matches_dual_point(letter, rank):
    for seq in _sequences(letter, rank):
        for k in range(-40 * seq.ell, 40 * seq.ell + 1):
            assert seq.label(k) == reference_label(seq, k), k


def test_index_of_without_a_single_lattice():
    q = QDatum("A", 2, (0, 1))
    seq = FundamentalCuspidalSeq(type_info("B2^1"), q, qdata.some_adapted_word(q))
    for point in (SigmaPoint(1, 0), SigmaPoint(2, 1)):
        got = _outcome(seq.index_of, point)
        assert got == _outcome(lambda x: reference_index_of(seq, x), point)
        assert "single (-q)-lattice" in got


def test_repeated_base_label_is_covered_twice(monkeypatch):
    q = QDatum("A", 2, (0, 1))
    word = qdata.some_adapted_word(q)
    real_phi = qdata.phi

    def repeating_phi(q, word):
        mapping = real_phi(q, word)
        first, second = q.root_system.beta_sequence(word)[:2]
        return {**mapping, second: mapping[first]}

    monkeypatch.setattr(qdata, "phi", repeating_phi)
    seq = FundamentalCuspidalSeq(type_info("A2^1"), q, word)
    base = _base(seq)
    assert base[0] == base[1]
    point = base[0]
    with pytest.raises(DualityError, match="covered 2 times"):
        seq.index_of(point)
    with pytest.raises(DualityError, match="covered 2 times"):
        seq.index_of(dual_point(seq.info, point, -3))
    assert _outcome(seq.index_of, point) == _outcome(
        lambda x: reference_index_of(seq, x), point
    )


def _repeating_phi_seq(monkeypatch) -> FundamentalCuspidalSeq:
    """An A2 sequence whose label map sends beta_2 to the label of beta_1."""
    q = QDatum("A", 2, (0, 1))
    word = qdata.some_adapted_word(q)
    real_phi = qdata.phi

    def repeating_phi(q, word):
        mapping = real_phi(q, word)
        first, second = q.root_system.beta_sequence(word)[:2]
        return {**mapping, second: mapping[first]}

    monkeypatch.setattr(qdata, "phi", repeating_phi)
    return FundamentalCuspidalSeq(type_info("A2^1"), q, word)


def _bijection_cases(rng: random.Random, seq: FundamentalCuspidalSeq):
    """Seeded (vector, multiset) pairs with repeated labels: each multiset,
    its dual shift, and a copy with off-sigma0 or out-of-range labels mixed in."""
    rank = seq.rs.rank
    for _ in range(MULTISETS_PER_SEQ):
        ks = rng.sample(range(-3 * seq.ell, 3 * seq.ell), rng.randint(1, 2 * seq.ell))
        vec = ExpVec.from_dict({k: rng.randint(1, 4) for k in ks})
        multiset = [seq.label(k) for k, v in vec.entries for _ in range(v)]
        rng.shuffle(multiset)
        yield vec, multiset
        yield pbw.dshift(vec, 1, seq.ell), [dual_point(seq.info, x, 1) for x in multiset]
        mixed = list(multiset)
        for _ in range(rng.randint(1, 3)):
            stray = SigmaPoint(rng.randint(0, rank + 1), rng.choice(POWERS))
            mixed.insert(rng.randint(0, len(mixed)), stray)
        yield vec, mixed


@pytest.mark.parametrize("letter, rank", TYPES)
def test_bijection_matches_per_point_code(letter, rank):
    rng = random.Random(f"pbw-bijection-{letter}{rank}")
    outcomes = set()
    for seq in _sequences(letter, rank):
        for vec, multiset in _bijection_cases(rng, seq):
            got = _outcome(pbw.decompose, multiset, seq)
            assert got == _outcome(reference_decompose, multiset, seq), multiset
            composed = _outcome(pbw.compose, vec, seq)
            assert composed == _outcome(reference_compose, vec, seq), vec
            outcomes.add(type(got))
    # both the vectors and the error texts are compared
    assert outcomes == {ExpVec, str}


def test_decompose_reports_the_first_uncovered_label():
    q = QDatum("A", 3, (0, 1, 0))
    seq = FundamentalCuspidalSeq(type_info("A3^1"), q, qdata.some_adapted_word(q))
    good = [seq.label(k) for k in (1, 2, 1, 5)]
    off_lattice, outside = SigmaPoint(1, 1), SigmaPoint(4, 0)
    multiset = good[:2] + [off_lattice] + good[2:] + [outside, off_lattice]
    got = _outcome(pbw.decompose, multiset, seq)
    assert got == _outcome(reference_decompose, multiset, seq)
    assert got == (
        f"DualityError: label {off_lattice} is covered 0 times; "
        "expected a bijective cuspidal sequence"
    )


def test_doubly_covered_label_through_decompose(monkeypatch):
    seq = _repeating_phi_seq(monkeypatch)
    point, _, other = _base(seq)
    assert other != point
    multiset = [other, other, dual_point(seq.info, point, -3), point]
    got = _outcome(pbw.decompose, multiset, seq)
    assert got == _outcome(reference_decompose, multiset, seq)
    assert got.startswith("DualityError: ") and "covered 2 times" in got
    # S_1 and S_2 share a label, so compose repeats it for both entries
    vec = ExpVec.from_dict({1: 2, 2: 1, 3: 1})
    assert pbw.compose(vec, seq) == reference_compose(vec, seq) == sorted(
        [point] * 3 + [other]
    )


def test_bijection_without_a_single_lattice():
    q = QDatum("A", 2, (0, 1))
    seq = FundamentalCuspidalSeq(type_info("B2^1"), q, qdata.some_adapted_word(q))
    for k in range(-2 * seq.ell, 2 * seq.ell + 1):
        got = _outcome(seq.label, k)
        assert got == _outcome(reference_label, seq, k) == (
            "NoProviderError: B2^1: p* is not an integer power of -q, labels do not "
            "live on a single (-q)-lattice"
        )
    multiset = [SigmaPoint(1, 0), SigmaPoint(1, 0)]
    got = _outcome(pbw.decompose, multiset, seq)
    assert got == _outcome(reference_decompose, multiset, seq)
    assert "single (-q)-lattice" in got
    vec = ExpVec.from_dict({1: 1, 4: 2})
    got = _outcome(pbw.compose, vec, seq)
    assert got == _outcome(reference_compose, vec, seq)
    assert got.startswith("NoProviderError: ")
    # empty inputs read no label, so they raise nothing
    assert pbw.decompose([], seq) == ExpVec(()) and pbw.compose(ExpVec(()), seq) == []


# ---------------------------------------------------------------------------
# label and index_of of the one sequence class on every complete datum


def a_fusion_facts(n: int) -> FusionTable:
    """The A_n^(1) fusion family V(i)_p * V(j)_{p+i+j} = V(i+j)_{p+j}."""
    facts = [
        FusionFact(SigmaPoint(i, 0), SigmaPoint(j, i + j), SigmaPoint(i + j, j))
        for i in range(1, n)
        for j in range(1, n + 1 - i)
    ]
    return FusionTable(type_info(f"A{n}^1"), facts)


def _q_datum_sequences(n: int):
    """For every Q-datum at A_n: the label-map sequence along an adapted
    word, the minimal-pair sequence of its datum, and that of the datum
    reflected at the word's first letter, read along the rotated word."""
    info = type_info(f"A{n}^1")
    facts = a_fusion_facts(n)
    for heights in qdata.all_height_functions("A", n):
        q = QDatum("A", n, heights)
        word = qdata.some_adapted_word(q)
        labels = FundamentalCuspidalSeq(info, q, word, facts)
        datum = duality.from_q_datum(info, q)
        seq = CuspidalSeq(datum, word, facts)
        rotated = word[1:] + (seq.rs.extend_letter(word, seq.ell + 1),)
        shifted = CuspidalSeq(duality.reflect(datum, word[0], facts), rotated, facts)
        yield heights, labels, seq, shifted


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_general_and_reflected_sequences_index_like_the_label_map(n):
    """Along an adapted word the minimal-pair sequence of the Q-datum gives
    the label map's labels, and the datum reflected at the word's first
    letter, read along the rotated word, gives S'_k = S_{k+1}; both index and
    compose through the same table."""
    rng = random.Random(f"reflected-pbw-A{n}")
    checked = 0
    for heights, labels, seq, shifted in _q_datum_sequences(n):
        ell = seq.ell
        for k in range(-3 * ell, 3 * ell + 1):
            point = labels.label(k)
            assert seq.label(k) == point, (heights, k)
            assert seq.index_of(point) == labels.index_of(point) == k, (heights, k)
            assert shifted.label(k - 1) == point, (heights, k)
            assert shifted.index_of(point) == k - 1, (heights, k)
            checked += 1
        for _ in range(MULTISETS_PER_SEQ):
            ks = rng.sample(range(-3 * ell, 3 * ell), rng.randint(1, 2 * ell))
            vec = ExpVec.from_dict({k: rng.randint(1, 4) for k in ks})
            multiset = pbw.compose(vec, shifted)
            up = ExpVec(tuple((k + 1, m) for k, m in vec.entries))
            assert multiset == pbw.compose(up, labels), (heights, vec)
            rng.shuffle(multiset)
            assert pbw.decompose(multiset, shifted) == vec, (heights, vec)
    assert checked == len(list(qdata.all_height_functions("A", n))) * (6 * ell + 1)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_batch_reads_match_the_references_on_every_q_datum(n):
    """index_of, decompose and compose against the per-label references on
    the three sequences of every Q-datum at A_n, error texts included."""
    rng = random.Random(f"batch-reads-A{n}")
    outcomes = set()
    for heights, *seqs in _q_datum_sequences(n):
        for seq in seqs:
            # nodes -1, 0, n + 1 and n + 2 lie outside the diagram
            _assert_index_matches(seq, range(-1, n + 3))
            for vec, multiset in _bijection_cases(rng, seq):
                got = _outcome(pbw.decompose, multiset, seq)
                assert got == _outcome(reference_decompose, multiset, seq), (heights, multiset)
                composed = pbw.compose(vec, seq)
                assert composed == reference_compose(vec, seq), (heights, vec)
                outcomes.add(type(got))
    assert outcomes == {ExpVec, str}


@pytest.mark.parametrize("letter, rank", [("A", 2), ("A", 5), ("A", 8), ("D", 4), ("E", 6)])
def test_batch_reads_on_vectors_of_support_1000(letter, rank):
    rng = random.Random(f"batch-support-1000-{letter}{rank}")
    seq = next(_sequences(letter, rank))
    period = 2 * seq.ell  # the label table repeats every 2l indices
    for _ in range(2):
        ks = rng.sample(range(-3000, 3000), 1000)
        vec = ExpVec.from_dict({k: rng.randint(1, 3) for k in ks})
        assert vec.r_of() <= -10 * period and vec.l_of() >= 10 * period
        multiset = reference_compose(vec, seq)
        assert pbw.compose(vec, seq) == multiset
        rng.shuffle(multiset)
        assert pbw.decompose(multiset, seq) == reference_decompose(multiset, seq) == vec
        # one stray label anywhere: off sigma0, or at node 0 or rank + 1
        x = rng.choice(multiset)
        strays = (SigmaPoint(x.node, x.power + 1), SigmaPoint(0, x.power), SigmaPoint(rank + 1, 0))
        for stray in strays:
            mixed = list(multiset)
            mixed.insert(rng.randrange(len(mixed) + 1), stray)
            got = _outcome(pbw.decompose, mixed, seq)
            assert got == _outcome(reference_decompose, mixed, seq), stray
            assert got == (
                f"DualityError: label {stray} is covered 0 times; "
                "expected a bijective cuspidal sequence"
            )


@pytest.mark.parametrize("builtin_facts", [False, True])
def test_batch_reads_fall_back_while_a_member_is_compound(builtin_facts):
    """Along 2,1,2 the A2^1 example datum has S_2, and so every S_{2+3m},
    compound: compose reads label(k) per entry and names the first compound
    S_k, and decompose names S_2 for any non-empty multiset."""
    info = type_info("A2^1")
    datum = duality.from_q_datum(info, QDatum("A", 2, (0, 1)))
    seq = CuspidalSeq(datum, (2, 1, 2), FusionTable.builtin(info) if builtin_facts else None)
    rng = random.Random(f"batch-compound-{builtin_facts}")
    ks = list(range(-12, 13))
    assert [k for k in ks if seq.label(k) is None] == [k for k in ks if k % 3 == 2]
    outcomes = set()
    for _ in range(40):
        vec = ExpVec.from_dict({k: rng.randint(1, 3) for k in rng.sample(ks, rng.randint(1, 6))})
        got = _outcome_or_value_error(pbw.compose, vec, seq)
        assert got == _outcome_or_value_error(reference_compose, vec, seq), vec
        outcomes.add(type(got))
        if isinstance(got, list):
            rng.shuffle(got)
            expected = _outcome(reference_decompose, got, seq)
            assert _outcome(pbw.decompose, got, seq) == expected
            assert expected == "DualityError: S_2 is compound, so the labels have no index"
    assert outcomes == {list, str}
    assert pbw.decompose([], seq) == ExpVec(()) and pbw.compose(ExpVec(()), seq) == []


def _outcome_or_value_error(fn, *args):
    try:
        return fn(*args)
    except ValueError as err:
        return f"{type(err).__name__}: {err}"


def test_index_of_names_the_compound_member():
    # along 2,1,2 the builtin A2^1 facts leave S_2 a head of two fundamentals
    info = type_info("A2^1")
    datum = duality.from_q_datum(info, QDatum("A", 2, (0, 1)))
    seq = CuspidalSeq(datum, (2, 1, 2), FusionTable.builtin(info))
    for point in (SigmaPoint(1, 2), SigmaPoint(2, 1)):
        with pytest.raises(DualityError, match="^S_2 is compound"):
            seq.index_of(point)
    assert [seq.label(k) for k in (1, 2, 3)] == [SigmaPoint(1, 2), None, SigmaPoint(1, 0)]
    with pytest.raises(DualityError, match="^S_2 is compound"):
        pbw.decompose([SigmaPoint(1, 0)], seq)
