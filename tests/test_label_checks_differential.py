"""The label checks of ``duality`` and ``modexpr`` against the code they
replaced.

Each check now has one home: strong unmixedness is ``invariants.mixing_shift``,
the induced Cartan matrix is built by ``duality._cartan_of`` and validated by
``duality.classify_cartan``, the one finite-type test, the member-to-label
map, the root-module verdict and the roll-up are ``duality.fund_point``,
``duality.root_verdict`` and ``duality.roll_up``, the strength of a datum is
``duality._strength``, Lambda, Lambda8, de_tilde and zero_c are read from
``invariants._tails``, and ``qdata`` walks an adapted word once.  The
references below are the replaced code, kept here: each check spelled out
where it was used, and the Sylvester test of positive definiteness (exact
leading minors) that decided "finite type" before the Dynkin classification
did.  Results are compared exactly; a raised error is compared by class and
message.

The window checker of cuspidal sequences lives on only as
``conftest.reference_verify_cuspidal_axioms``: the library's helpers must
reproduce each of its entries, and the windows below pin its verdicts.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from conftest import (
    ASYMMETRIC_A3,
    ASYMMETRIC_D4,
    DEMO_D4,
    reference_d,
    reference_root_pattern,
    reference_shift_profile,
    reference_verify_cuspidal_axioms,
)

from qaffpbw import affine, duality, invariants, modexpr, qdata
from qaffpbw.affine import AffineTypeError, NoProviderError, SigmaPoint, type_info
from qaffpbw.cuspidal import CuspidalSeq, FundamentalCuspidalSeq
from qaffpbw.duality import DualityDatum, DualityError, StrongReport
from qaffpbw.modexpr import Fund, FusionTable, Head
from qaffpbw.qdata import QDatum, QDatumError
from qaffpbw.rootsys import dynkin_edges

P = SigmaPoint
DATA_PER_TYPE = 150
SPARSE_PER_SIZE = 200


# ---------------------------------------------------------------------------
# references: the replaced code

Matrix = list[list[Fraction]]


def leading_minors_positive(rows) -> bool:
    """Sylvester criterion for positive definiteness, exact arithmetic."""
    n = len(rows)
    for k in range(1, n + 1):
        sub = [[Fraction(rows[i][j]) for j in range(k)] for i in range(k)]
        if _det(sub) <= 0:
            return False
    return True


def _det(mat: Matrix) -> Fraction:
    n = len(mat)
    mat = [row[:] for row in mat]
    det = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if mat[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            mat[c], mat[pivot] = mat[pivot], mat[c]
            det = -det
        det *= mat[c][c]
        for i in range(c + 1, n):
            factor = mat[i][c] / mat[c][c]
            mat[i] = [a - factor * b for a, b in zip(mat[i], mat[c])]
    return det


def reference_fund_point(e):
    return e.point if isinstance(e, Fund) else None


def reference_validated_cartan(matrix):
    n = len(matrix)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if matrix[i][j] != matrix[j][i]:
                raise DualityError("induced pairing is not symmetric")
            if matrix[i][j] not in (0, -1):
                raise DualityError(
                    f"induced pairing {matrix[i][j]} at {(i + 1, j + 1)} is not "
                    "simply laced"
                )
    if not leading_minors_positive(matrix):
        raise DualityError("induced matrix is not positive definite")
    return tuple(tuple(row) for row in matrix)


def reference_check_strong(datum):
    info = datum.info
    n = datum.size
    points = [reference_fund_point(m) for m in datum.members]
    root_verdicts = []
    for i in range(1, n + 1):
        x = points[i - 1]
        if x is None:
            root_verdicts.append((i, "unknown"))
        elif reference_root_pattern(info, x):
            root_verdicts.append((i, "ok"))
        else:
            root_verdicts.append((i, "fail"))
    pair_verdicts = []
    cartan_ok = True
    matrix = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            x, y = points[i - 1], points[j - 1]
            if x is None or y is None:
                pair_verdicts.append(((i, j), "unknown"))
                cartan_ok = False
                continue
            profile = reference_shift_profile(info, x, y)
            matrix[i - 1][j - 1] = -profile.get(0, 0)
            bad = min((k for k in profile if k != 0), default=None)
            if bad is not None:
                pair_verdicts.append(((i, j), f"fail(k={bad})"))
            else:
                pair_verdicts.append(((i, j), "ok"))
    verdicts = [v for _, v in pair_verdicts] + [v for _, v in root_verdicts]
    cartan = None
    if cartan_ok:
        try:
            cartan = reference_validated_cartan(matrix)
        except DualityError:
            cartan = None
    if any(v.startswith("fail") for v in verdicts) or (cartan_ok and cartan is None):
        overall = "fail"
    elif any(v == "unknown" for v in verdicts):
        overall = "unknown"
    else:
        overall = "pass"
    return StrongReport(
        overall=overall,
        pair_verdicts=tuple(pair_verdicts),
        root_verdicts=tuple(root_verdicts),
        cartan=cartan,
    )


def reference_induced_cartan(datum):
    if datum.cartan is not None:
        return datum.cartan
    points = [reference_fund_point(m) for m in datum.members]
    if datum.size > 1 and any(x is None for x in points):
        raise DualityError("pairwise d is not exact for compound members; no cached matrix")
    n = datum.size
    matrix = [
        [2 if i == j else -reference_d(datum.info, points[i], points[j]) for j in range(n)]
        for i in range(n)
    ]
    return reference_validated_cartan(matrix)


def reference_reflected_strength(datum, new):
    """The strength ``_reflected`` gave ``new``, a reflection of ``datum``."""
    report = reference_check_strong(new)
    if report.overall == "pass":
        return "verified"
    if report.overall == "unknown" and datum.strength in ("verified", "inherited"):
        return "inherited"
    if report.overall == "fail" and datum.strength in ("verified", "inherited"):
        raise DualityError(
            "reflection of a strong datum failed the label checks; the input flags were wrong"
        )
    return "unknown"


def reference_from_q_datum(info, q):
    """The datum as built before it was kept per Q-datum: the uncached
    adapted-word search, ``reference_phi``'s walk and the reference checks;
    a type without a table gives the unchecked datum."""
    labels = reference_phi(q, qdata.some_adapted_word.__wrapped__(q))
    rs = q.root_system
    members = tuple(Fund(labels[rs.simple_root(i)]) for i in rs.nodes)
    datum = DualityDatum(info=info, members=members, provenance="from-Q", complete=True)
    try:
        report = reference_check_strong(datum)
    except NoProviderError:
        return datum
    strength = "verified" if report.overall == "pass" else "unknown"
    return replace(datum, strength=strength, cartan=report.cartan)


def reference_certified_normal(info, factors):
    if not all(isinstance(f, Fund) for f in factors):
        return False
    points = [f.point for f in factors]
    return not any(
        k > 0
        for a, x in enumerate(points)
        for y in points[a + 1 :]
        if x != y
        for k in invariants.shift_profile(info, y, x)
    )


def reference_sums(info, x, y):
    """(Lambda, Lambda8, de_tilde, zero_c), each its own loop over the profile."""
    profile = invariants.shift_profile(info, x, y)
    lam = sum(
        (-1 if (k + (1 if k < 0 else 0)) % 2 else 1) * value for k, value in profile.items()
    )
    lam_inf = sum((-1 if k % 2 else 1) * value for k, value in profile.items())
    de_tilde = sum(
        (-1 if (k + 1) % 2 else 1) * value for k, value in profile.items() if k <= -1
    )
    zero_c = sum((-1 if k % 2 else 1) * value for k, value in profile.items() if k >= 0)
    return lam, lam_inf, de_tilde, zero_c


def _neighbors(q):
    adj = {i: [] for i in range(1, q.rank + 1)}
    for i, j in dynkin_edges(q.type_letter, q.rank):
        adj[i].append(j)
        adj[j].append(i)
    return adj


def reference_is_adapted(q, word):
    if not q.root_system.spells_longest(tuple(word)):
        return False
    heights = list(q.heights)
    adj = _neighbors(q)
    for letter in word:
        if not all(heights[letter - 1] < heights[j - 1] for j in adj[letter]):
            return False
        heights[letter - 1] += 2
    return True


def reference_phi(q, word):
    if not reference_is_adapted(q, word):
        raise QDatumError(f"word {word} is not adapted to the Q-datum")
    heights = list(q.heights)
    image = {}
    for letter, beta in zip(word, q.root_system.beta_sequence(word)):
        image[beta] = SigmaPoint(letter, heights[letter - 1])
        heights[letter - 1] += 2
    return image


# ---------------------------------------------------------------------------
# comparison


def outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except (ValueError, KeyError) as err:
        return ("raised", type(err), str(err))


def assert_same_datum_checks(datum):
    assert outcome(duality.check_strong, datum) == outcome(reference_check_strong, datum), datum
    assert outcome(duality.induced_cartan, datum) == outcome(
        reference_induced_cartan, datum
    ), datum


def window_verdict(seq, lo, hi) -> str:
    """The overall verdict of the reference window checker on S_lo .. S_hi,
    once ``root_verdict``, ``mixing_shift`` and ``roll_up`` agree with it."""
    report = reference_verify_cuspidal_axioms(seq, lo, hi)
    info = seq.info
    points = {k: duality.fund_point(seq.materialize(k)) for k in range(lo, hi + 1)}
    for k, x in points.items():
        assert report["root_module"][k] == duality.root_verdict(info, x), (seq.word, k)
    for (a, b), verdict in report["strongly_unmixed"].items():
        if verdict != "unknown":
            m = invariants.mixing_shift(info, points[a], points[b])
            assert verdict == ("ok" if m is None else f"fail(m={m})"), (seq.word, a, b)
    checks = ("root_module", "strongly_unmixed", "denominator_nonvanishing")
    verdicts = [v for key in checks for v in report[key].values()]
    assert duality.roll_up(verdicts) == report["overall"], (seq.word, lo, hi)
    return report["overall"]


def assert_same_pair_checks(info, x, y):
    lam, lam_inf, de_tilde, zero_c = reference_sums(info, x, y)
    assert invariants.lambda_fund(info, x, y) == lam, (x, y)
    assert invariants.lambda_inf_fund(info, x, y) == lam_inf, (x, y)
    assert invariants.de_tilde_fund(info, x, y) == de_tilde, (x, y)
    assert invariants.zero_c_fund(info, x, y) == zero_c, (x, y)
    factors = [Fund(x), Fund(y)]
    assert modexpr.certified_normal(info, factors) == reference_certified_normal(info, factors)


def reflections(datum, facts):
    """S_k and S_k^-1 of the datum at every node, as outcomes, with the
    reference strength of each."""
    out = []
    for k in range(1, datum.size + 1):
        for inverse in (False, True):
            step = duality.reflect_inv if inverse else duality.reflect
            got = outcome(step, datum, k, facts)
            matrix = outcome(reference_induced_cartan, datum)
            if matrix[0] == "raised":
                assert got == matrix
                continue
            cartan = matrix[1]
            members = duality._reflect_members(datum, cartan, k, inverse, facts)
            new = replace(datum, members=members, strength="unknown", cartan=cartan)
            expected = outcome(reference_reflected_strength, datum, new)
            if got[0] == "value":
                assert ("value", got[1].strength) == expected
                assert got[1].members == members and got[1].cartan == cartan
                out.append(got[1])
            else:
                assert got == expected
    return out


# ---------------------------------------------------------------------------
# Q-data at A1-A6: the canonical data, their reflections, and cuspidal windows


@pytest.mark.parametrize("rank", range(1, 7))
def test_q_data_and_their_reflections(rank):
    info = type_info(f"A{rank}^1")
    for facts in (None, FusionTable.builtin(info)):
        for heights in qdata.all_height_functions("A", rank):
            q = QDatum("A", rank, heights)
            datum = duality.from_q_datum(info, q)
            assert datum == reference_from_q_datum(info, q)
            assert_same_datum_checks(datum)
            for reflected in reflections(datum, facts):
                assert_same_datum_checks(reflected)


def test_reflections_give_compound_members():
    datum = duality.from_q_datum(type_info("A2^1"), QDatum("A", 2, (0, 1)))
    reflected = reflections(datum, None)
    assert any(
        any(not isinstance(m, Fund) for m in r.members) for r in reflected
    )


def test_one_compound_member():
    # no pairing is needed, so both report the 1x1 matrix
    info = type_info("A2^1")
    datum = DualityDatum(info=info, members=(Head((Fund(P(1, 2)), Fund(P(1, 0)))),))
    assert duality.check_strong(datum).cartan == ((2,),)
    assert duality.induced_cartan(datum) == ((2,),)
    assert_same_datum_checks(datum)


# the overall verdicts per rank of the windows below: along up to three
# adapted words, the label map of the Q-datum and the CuspidalSeq of its
# datum; and the data reflected at nodes 1 and n along the unrotated word
WINDOW_VERDICTS = {
    1: ({"pass": 1}, {"pass": 1}, {"pass": 2}),
    2: ({"pass": 2}, {"pass": 2}, {"fail": 4}),
    3: ({"pass": 10}, {"unknown": 10}, {"fail": 4, "unknown": 4}),
    4: ({"pass": 24}, {"unknown": 24}, {"fail": 6, "unknown": 10}),
}


@pytest.mark.parametrize("rank", range(1, 5))
def test_cuspidal_windows(rank):
    info = type_info(f"A{rank}^1")
    facts = FusionTable.builtin(info)
    ell = rank * (rank + 1) // 2
    labels, general, reflected = Counter(), Counter(), Counter()
    for heights in qdata.all_height_functions("A", rank):
        q = QDatum("A", rank, heights)
        datum = duality.from_q_datum(info, q)
        words = list(qdata.adapted_words(q))[:3]
        for word in words:
            labels[window_verdict(FundamentalCuspidalSeq(info, q, word), 1 - ell, 2 * ell)] += 1
            general[window_verdict(CuspidalSeq(datum, word, facts), 1 - ell, 2 * ell)] += 1
        for k in (1, rank):
            seq = CuspidalSeq(duality.reflect(datum, k, facts), words[0], facts)
            reflected[window_verdict(seq, -1, ell + 1)] += 1
    assert (labels, general, reflected) == WINDOW_VERDICTS[rank]


def test_cuspidal_windows_on_a_word_not_adapted_to_the_datum():
    info = type_info("A2^1")
    datum = duality.from_q_datum(info, QDatum("A", 2, (0, 1)))
    for facts in (None, FusionTable.builtin(info)):
        seq = CuspidalSeq(datum, (2, 1, 2), facts)
        verdicts = [window_verdict(seq, lo, hi) for lo, hi in ((1, 3), (-3, 6), (2, 2), (4, 9))]
        assert verdicts == ["fail", "fail", "unknown", "fail"]


# ---------------------------------------------------------------------------
# seeded families of sigma0 fundamentals, some with Head members


def random_member(rng, points):
    if rng.random() < 0.2:
        return Head((Fund(rng.choice(points)), Fund(rng.choice(points))))
    return Fund(rng.choice(points))


def seeded_data(info, rng, count):
    """Random data of sizes 1..rank + 1, and translated Q-data members with
    one member moved, from sigma0 points in -2h..2h."""
    h = info.dual_shift_exponent
    points = info.sigma0_points(-2 * h, 2 * h)
    letter, rank = info.fin_type
    heights = list(qdata.all_height_functions(letter, rank))
    for _ in range(count):
        size = rng.randint(1, rank + 1)
        yield DualityDatum(info=info, members=tuple(random_member(rng, points) for _ in range(size)))
        labels = qdata.fundamental_labels(QDatum(letter, rank, rng.choice(heights)))
        shift = 2 * rng.randint(-h, h)
        members = [Fund(P(p.node, p.power + shift)) for p in labels.values()]
        members[rng.randrange(rank)] = random_member(rng, points)
        yield DualityDatum(info=info, members=tuple(members))


def assert_same_on_seeded_family(info, seed):
    rng = random.Random(seed)
    h = info.dual_shift_exponent
    points = info.sigma0_points(-2 * h, 2 * h)
    for datum in seeded_data(info, rng, DATA_PER_TYPE):
        assert_same_datum_checks(datum)
    for _ in range(DATA_PER_TYPE):
        assert_same_pair_checks(info, rng.choice(points), rng.choice(points))
        factors = [random_member(rng, points) for _ in range(rng.randint(0, 5))]
        assert modexpr.certified_normal(info, factors) == reference_certified_normal(
            info, factors
        ), factors


@pytest.mark.parametrize("rank", range(2, 7))
def test_seeded_families(rank):
    assert_same_on_seeded_family(type_info(f"A{rank}^1"), rank)


def test_every_pair_of_a_window():
    info = type_info("A3^1")
    h = info.dual_shift_exponent
    points = info.sigma0_points(-2 * h, 2 * h)
    for x in points:
        for y in points:
            assert_same_pair_checks(info, x, y)


# ---------------------------------------------------------------------------
# the values kept per Q-datum (the adapted word, and the checked datum in the
# type's memo) against the uncached reference route, on every height function

Q_TYPES = [("A", n) for n in range(1, 7)] + [("D", 4), ("D", 5), ("E", 6)]
DATUM_FIELDS = ("members", "strength", "cartan", "complete", "provenance")


def q_data(type_letter, rank):
    return [QDatum(type_letter, rank, h) for h in qdata.all_height_functions(type_letter, rank)]


def datum_fields(datum):
    return tuple(getattr(datum, field) for field in DATUM_FIELDS)


@pytest.mark.parametrize("type_letter, rank", Q_TYPES, ids=[f"{t}{n}" for t, n in Q_TYPES])
def test_the_kept_adapted_word_is_the_search_result(type_letter, rank):
    search = qdata.some_adapted_word
    search.cache_clear()
    for q in q_data(type_letter, rank):
        word = search.__wrapped__(q)
        hits = search.cache_info().hits
        assert search(q) == word and search.cache_info().hits == hits, q
        assert search(q) == word and search.cache_info().hits == hits + 1, q


@pytest.mark.parametrize("type_letter, rank", Q_TYPES, ids=[f"{t}{n}" for t, n in Q_TYPES])
def test_from_q_datum_matches_the_reference_route(type_letter, rank):
    info = type_info(f"{type_letter}{rank}^1")
    affine._DERIVED.pop(info.name, None)  # the first call of each Q-datum builds
    qdata.some_adapted_word.cache_clear()
    for q in q_data(type_letter, rank):
        expected = datum_fields(reference_from_q_datum(info, q))
        first = duality.from_q_datum(info, q)
        assert affine._derived(info)["from_q"][q] is first
        again = duality.from_q_datum(info, q)
        assert datum_fields(first) == datum_fields(again) == expected, q
        assert first.info is again.info is info


def test_report_assembly_on_compound_failing_and_unknown_data():
    info = type_info("A3^1")
    datum = duality.from_q_datum(info, QDatum("A", 3, (0, 1, 2)))
    x, y, z = (m.point for m in datum.members)
    compound = Head((Fund(x), Fund(y)))
    cases = [
        ("pass", datum.members),
        ("unknown", (Fund(x), compound, Fund(z))),
        ("unknown", (compound,)),
        ("fail", (Fund(x), Fund(x), Fund(z))),
        ("fail", (compound, Fund(y), Fund(y))),
        ("fail", (Fund(x), Fund(affine.dual_point(info, x, 1)), Fund(z))),
    ]
    for overall, members in cases:
        case = DualityDatum(info=info, members=members)
        report = duality.check_strong(case)
        assert report == reference_check_strong(case), members
        assert report.overall == overall, members


# ---------------------------------------------------------------------------
# registered D4^1 tables, where the zero table is not symmetric


@pytest.mark.parametrize("zeros", [DEMO_D4, ASYMMETRIC_D4], ids=["demo", "asymmetric"])
def test_registered_d4_tables(restored_tables, zeros):
    affine.register_denominator_table("D4^1", zeros)
    info = type_info("D4^1")
    assert_same_on_seeded_family(info, 4)
    for heights in qdata.all_height_functions("D", 4):
        q = QDatum("D", 4, heights)
        datum = duality.from_q_datum(info, q)
        assert datum == reference_from_q_datum(info, q)
        assert_same_datum_checks(datum)
        reflections(datum, None)
        seq = FundamentalCuspidalSeq(info, q, qdata.some_adapted_word(q))
        # d_33 and d_44 have no zeros here, so labels at nodes 3 and 4 fail
        # the root-module check
        assert window_verdict(seq, -3, 14) == "fail"


def test_a_registered_table_off_its_star_image(restored_tables):
    # zeros[i*][j*] != zeros[i][j] here, so d(x, D^k y) is not d(y, D^-k x):
    # a sweep that mirrored profiles across the diagonal would differ
    affine.register_denominator_table("A3^1", ASYMMETRIC_A3)
    info = type_info("A3^1")
    assert affine._zeros(info)[1][2] != affine._zeros(info)[3][2]
    assert_same_on_seeded_family(info, 3)
    for heights in qdata.all_height_functions("A", 3):
        q = QDatum("A", 3, heights)
        datum = duality.from_q_datum(info, q)
        assert datum == reference_from_q_datum(info, q)
        assert_same_datum_checks(datum)
        reflections(datum, None)


# one-way tables whose pairs all pass the k-scan while the induced matrix is
# not a finite Cartan matrix: a double pairing, and a triangle of pairings
INVALID_MATRIX_TABLES = [
    ({(1, 1): [6], (2, 2): [6], (1, 2): [3, 3]}, [P(1, 0), P(2, 3)]),
    (
        {(1, 1): [6], (2, 2): [6], (3, 3): [6], (1, 2): [3], (2, 3): [3], (1, 3): [6]},
        [P(1, 0), P(2, 3), P(3, 6)],
    ),
]


@pytest.mark.parametrize("zeros, points", INVALID_MATRIX_TABLES, ids=["double", "triangle"])
def test_exact_pairs_with_an_invalid_matrix(restored_tables, zeros, points):
    affine.register_denominator_table("D4^1", zeros)
    datum = DualityDatum(info=type_info("D4^1"), members=tuple(Fund(p) for p in points))
    report = duality.check_strong(datum)
    assert {v for _, v in report.pair_verdicts + report.root_verdicts} == {"ok"}
    assert (report.overall, report.cartan) == ("fail", None)
    assert_same_datum_checks(datum)


# ---------------------------------------------------------------------------
# the finite-type rule: the Dynkin classification against Sylvester


def diagram_matrix(n, edges):
    """The symmetric matrix with 2 on the diagonal and -1 on each edge."""
    matrix = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        matrix[i][j] = matrix[j][i] = -1
    return matrix


def star(*legs):
    """A center (node 0) with a path of each given length attached."""
    edges, n = [], 1
    for length in legs:
        edges.append((0, n))
        edges.extend((v, v + 1) for v in range(n, n + length - 1))
        n += length
    return diagram_matrix(n, edges)


def cycle(n):
    return diagram_matrix(n, [(v, (v + 1) % n) for v in range(n)])


def classified(matrix):
    try:
        duality.classify_cartan(matrix)
    except DualityError:
        return False
    return True


def assert_one_rule(matrix):
    assert classified(matrix) == leading_minors_positive(matrix), matrix


@pytest.mark.parametrize("n", range(1, 6))
def test_finite_type_rule_on_every_small_matrix(n):
    pairs = list(itertools.combinations(range(n), 2))
    for chosen in itertools.product((False, True), repeat=len(pairs)):
        assert_one_rule(diagram_matrix(n, itertools.compress(pairs, chosen)))


@pytest.mark.parametrize("n", range(6, 11))
def test_finite_type_rule_on_seeded_sparse_matrices(n):
    rng = random.Random(n)
    pairs = list(itertools.combinations(range(n), 2))
    for _ in range(SPARSE_PER_SIZE):
        p = rng.uniform(1, 3) / n  # about n/2 to 3n/2 edges: forests, trees and cycles
        assert_one_rule(diagram_matrix(n, [e for e in pairs if rng.random() < p]))


# the affine diagrams, and T_{3,3,3} (three legs of three nodes), which is
# neither finite nor affine
INFINITE_DIAGRAMS = {
    **{f"A~{n}": cycle(n + 1) for n in range(2, 6)},
    "D~4": star(1, 1, 1, 1),
    "D~5": diagram_matrix(6, [(0, 2), (1, 2), (2, 3), (3, 4), (3, 5)]),
    "E~6": star(2, 2, 2),
    "E~7": star(1, 3, 3),
    "E~8": star(1, 2, 5),
    "T333": star(3, 3, 3),
}


@pytest.mark.parametrize("name", INFINITE_DIAGRAMS)
def test_infinite_diagrams_are_refused(name):
    matrix = INFINITE_DIAGRAMS[name]
    assert not leading_minors_positive(matrix)
    with pytest.raises(DualityError):
        duality.classify_cartan(matrix)


# ---------------------------------------------------------------------------
# adapted words and the label map


@pytest.mark.parametrize("rank", range(1, 5))
def test_is_adapted_and_phi(rank):
    heights = list(qdata.all_height_functions("A", rank))
    adapted = sorted({w for h in heights for w in qdata.adapted_words(QDatum("A", rank, h))})
    words = adapted + [w[:-1] for w in adapted] + [w[1:] + w[:1] for w in adapted]
    for h in heights:
        q = QDatum("A", rank, h)
        for word in words:
            assert qdata.is_adapted(q, word) == reference_is_adapted(q, word), (h, word)
            assert outcome(qdata.phi, q, word) == outcome(reference_phi, q, word), (h, word)
            assert outcome(qdata.phi, q, list(word)) == outcome(reference_phi, q, list(word))


# ---------------------------------------------------------------------------
# compound members, bad nodes and missing providers: the sweep reports and
# raises as the pairwise checks did


def test_compound_members_among_fundamentals():
    info = type_info("A3^1")
    q = QDatum("A", 3, (0, 1, 2))
    members = list(duality.from_q_datum(info, q).members)
    compound = Head((Fund(P(1, 2)), Fund(P(1, 0))))
    for at in range(len(members) + 1):
        datum = DualityDatum(info=info, members=tuple(members[:at] + [compound] + members[at:]))
        report = duality.check_strong(datum)
        assert report.cartan is None and report.overall in ("unknown", "fail")
        assert report.root_verdicts[at] == (at + 1, "unknown")
        assert_same_datum_checks(datum)
    # only compound members: no profile is read, so nothing is raised
    datum = DualityDatum(info=type_info("B3^1"), members=(compound, compound))
    assert_same_datum_checks(datum)
    assert duality.check_strong(datum).overall == "unknown"


@pytest.mark.parametrize("name", ["A2^1", "A5^1"])
def test_a_member_off_the_diagram_names_the_first_bad_member(name):
    info = type_info(name)
    top = info.rank + 1
    good = [Fund(P(i, 0)) for i in range(1, info.rank + 1)]
    compound = Head((Fund(P(1, 2)), Fund(P(1, 0))))
    for bad in (0, top):
        for second in (0, top):
            for at in range(len(good) + 1):
                members = good[:at] + [Fund(P(bad, 0))] + good[at:]
                members.insert(len(members) // 2, Fund(P(second, 1)))
                datum = DualityDatum(info=info, members=(compound, *members))
                got = outcome(duality.check_strong, datum)
                assert got == outcome(reference_check_strong, datum), datum
                first = next(m.point.node for m in members if not 1 <= m.point.node < top)
                assert got[1:] == (AffineTypeError, f"node {first} out of range for {name}")


def test_missing_providers_raise_as_before(restored_tables):
    affine._EXTERNAL_TABLES.pop("D4^1", None)
    d4, b3 = type_info("D4^1"), type_info("B3^1")
    cases = [
        (d4, (Fund(P(1, 0)), Fund(P(2, 1)))),
        (d4, (Fund(P(1, 0)), Fund(P(5, 1)))),  # the table is checked before member 2
        (d4, (Head((Fund(P(1, 2)), Fund(P(1, 0)))), Fund(P(3, 1)))),
        (b3, (Fund(P(1, 0)), Fund(P(2, 1)))),
        (b3, (Fund(P(0, 0)),)),  # the dual shift is checked before the node
    ]
    for info, members in cases:
        datum = DualityDatum(info=info, members=members)
        got = outcome(duality.check_strong, datum)
        assert got == outcome(reference_check_strong, datum), datum
        assert got[1] is NoProviderError
    assert outcome(duality.check_strong, DualityDatum(info=d4, members=cases[0][1]))[2] == (
        "D4^1: no denominator table registered"
    )
    assert outcome(duality.check_strong, DualityDatum(info=b3, members=cases[3][1]))[2] == (
        "B3^1: no dual shift on labels"
    )
    # from_q_datum still returns the datum, unchecked
    q = QDatum("D", 4, (0, 1, 0, 0))
    datum = duality.from_q_datum(d4, q)
    labels = qdata.fundamental_labels(q)
    assert datum == DualityDatum(
        info=d4,
        members=tuple(Fund(labels[i]) for i in range(1, 5)),
        provenance="from-Q",
        complete=True,
    )
