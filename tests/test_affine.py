from __future__ import annotations

import json

import pytest

from qaffpbw import affine
from qaffpbw._linalg import kernel_primitive
from qaffpbw.affine import (
    AffineTypeError,
    AffineTypeInfo,
    NoProviderError,
    SigmaPoint,
    denom_zeros,
    dual_point,
    load_denominator_json,
    sigma_quiver,
    type_info,
)
from qaffpbw.rootsys import MAX_RANK, RootSystem, dynkin_edges

A2 = type_info("A2^1")


def test_type_info_a2():
    assert A2.rank == 2
    assert A2.fin_type == ("A", 2)
    assert A2.dual_shift_exponent == 3
    assert A2.star(1) == 2 and A2.star(2) == 1


def test_type_info_b3():
    info = type_info("B3^1")
    assert info.fin_type == ("A", 5)
    assert info.rank == 3


def test_type_info_a1():
    info = type_info("A1^1")
    assert info.dual_shift_exponent == 2
    assert info.star(1) == 1


def test_type_info_unknown():
    with pytest.raises(AffineTypeError):
        type_info("H4^1")
    with pytest.raises(AffineTypeError):
        type_info("C2^1")
    with pytest.raises(AffineTypeError, match="A_n\\^\\(1\\) needs n >= 1"):
        type_info("A0^1")


def reference_affine_edges(letter: str, sub: int) -> tuple[list, int]:
    """The hand-built untwisted A/D/E diagrams that the highest-root rule of
    ``affine._affine_edges`` replaced."""
    if letter == "A":
        if sub < 1:
            raise AffineTypeError("A_n^(1) needs n >= 1")
        if sub == 1:
            return [(0, 1, -2, -2)], 1
        return affine._chain(0, sub) + [(sub, 0, -1, -1)], sub
    if letter == "D":
        if sub < 4:
            raise AffineTypeError("D_n^(1) needs n >= 4")
        return (
            [(0, 2, -1, -1)]
            + affine._chain(1, sub - 2)
            + [(sub - 2, sub - 1, -1, -1), (sub - 2, sub, -1, -1)]
        ), sub
    if sub not in (6, 7, 8):
        raise AffineTypeError("E_n^(1) needs n in {6,7,8}")
    finite = [(i, j, -1, -1) for i, j in dynkin_edges("E", sub)]
    attach = {6: 2, 7: 1, 8: 8}[sub]
    return finite + [(0, attach, -1, -1)], sub


@pytest.mark.parametrize(
    "letter,subs",
    [("A", range(1, MAX_RANK + 1)), ("D", range(4, MAX_RANK + 1)), ("E", (6, 7, 8))],
    ids=["A1-A64", "D4-D64", "E6-E8"],
)
def test_highest_root_diagram_matches_the_hand_built_one(letter, subs):
    for sub in subs:
        edges, rank = reference_affine_edges(letter, sub)
        gcm = affine._gcm(edges, rank + 1)
        new_edges, new_rank, _ = affine._affine_edges(letter, 1, sub)
        assert (new_rank, affine._gcm(new_edges, rank + 1)) == (rank, gcm), sub
        info = type_info(f"{letter}{sub}^1")
        transposed = [list(col) for col in zip(*gcm)]
        marks, comarks = kernel_primitive(gcm), kernel_primitive(transposed)
        assert (info.rank, info.marks_sum, info.comarks_sum) == (rank, sum(marks), sum(comarks))
        assert info.fin_type == (letter, sub)
        stars = tuple(RootSystem(letter, sub).star(i) for i in range(1, sub + 1))
        assert (info.name, info.star_map) == (f"{letter}{sub}^1", stars)


@pytest.mark.parametrize("letter,sub", [("A", 0), ("D", 1), ("D", 2), ("D", 3), ("E", 5), ("E", 9)])
def test_too_small_or_unknown_ade_ranks_keep_their_texts(letter, sub):
    with pytest.raises(AffineTypeError) as expected:
        reference_affine_edges(letter, sub)
    with pytest.raises(AffineTypeError) as err:
        type_info(f"{letter}{sub}^1")
    assert str(err.value) == str(expected.value)


# finite type of the associated simply-laced root system, per affine family;
# ``affine._affine_edges`` returns it with each family's diagram instead
REFERENCE_FIN_TYPE = {
    ("A", 1): lambda n: ("A", n),
    ("B", 1): lambda n: ("A", 2 * n - 1),
    ("C", 1): lambda n: ("D", n + 1),
    ("D", 1): lambda n: ("D", n),
    ("E", 1): lambda n: ("E", n),
    ("F", 1): lambda n: ("E", 6),
    ("G", 1): lambda n: ("D", 4),
    ("A", 2): lambda sub: ("A", sub),  # keyed on the subscript, not the rank
    ("D", 2): lambda sub: ("D", sub),
    ("E", 2): lambda sub: ("E", 6),
    ("D", 3): lambda sub: ("D", 4),
}


def reference_twisted_edges(letter: str, twist: int, sub: int) -> tuple[list, int]:
    """The hand-written A_{2n-1}^(2), D_{n+1}^(2) and E_6^(2) diagrams that the
    transposition rule of ``affine._affine_edges`` replaced; every other family
    is read off ``affine._affine_edges``."""
    if twist == 2 and letter == "A" and sub % 2 == 1:
        n = (sub + 1) // 2
        if n < 2:
            raise AffineTypeError("A_{2n-1}^(2) needs n >= 2")
        if n == 2:
            # A_3^(2) with the middle node numbered 2
            return [(0, 2, -2, -1), (2, 1, -1, -2)], 2
        return (
            [(0, 2, -1, -1)]
            + affine._chain(1, n - 1)
            + [(n - 1, n, -2, -1)]
        ), n
    if twist == 2 and letter == "D":
        n = sub - 1
        if n < 3:
            raise AffineTypeError("D_{n+1}^(2) needs n >= 3")
        return (
            [(0, 1, -2, -1)]
            + affine._chain(1, n - 1)
            + [(n - 1, n, -1, -2)]
        ), n
    if twist == 2 and letter == "E":
        if sub != 6:
            raise AffineTypeError("E_6^(2) needs subscript 6")
        return [
            (0, 1, -1, -1),
            (1, 2, -1, -1),
            (2, 3, -2, -1),
            (3, 4, -1, -1),
        ], 4
    edges, rank, _ = affine._affine_edges(letter, twist, sub)
    return edges, rank


@pytest.mark.parametrize("letter", "ABCDEFG")
def test_twisted_diagrams_match_the_hand_written_ones(letter):
    # every name outside untwisted A/D/E at twist 0-4 and subscript 0-65,
    # built without the parser's rank cap and without the type_info cache
    for twist in range(5):
        for sub in range(66):
            if twist == 1 and letter in "ADE":
                continue
            where = f"{letter}{sub}^{twist}"
            try:
                edges, rank = reference_twisted_edges(letter, twist, sub)
            except AffineTypeError as expected:
                with pytest.raises(AffineTypeError) as err:
                    affine._type_info.__wrapped__(letter, sub, twist)
                assert (type(err.value), str(err.value)) == (type(expected), str(expected)), where
                continue
            gcm = affine._gcm(edges, rank + 1)
            new_edges, new_rank, _ = affine._affine_edges(letter, twist, sub)
            assert new_rank == rank, where
            assert affine._gcm(new_edges, rank + 1) == gcm, where
            transposed = [list(col) for col in zip(*gcm)]
            expected = AffineTypeInfo(
                name=where,
                letter=letter,
                twist=twist,
                subscript=sub,
                rank=rank,
                fin_type=REFERENCE_FIN_TYPE[(letter, twist)](sub if twist > 1 else rank),
                marks_sum=sum(kernel_primitive(gcm)),
                comarks_sum=sum(kernel_primitive(transposed)),
                star_map=tuple(range(1, rank + 1)),
            )
            assert affine._type_info.__wrapped__(letter, sub, twist) == expected, where


def test_type_name_past_the_int_digit_limit_is_a_type_error():
    # int() refuses more than 4300 digits; the rank cap must speak first
    name = "A" + "9" * 5000 + "^1"
    with pytest.raises(AffineTypeError, match="exceeds the rank limit"):
        type_info(name)
    assert type_info("A" + "0" * 5000 + "2^1") == A2


def test_every_spelling_of_a_type_shares_one_info():
    spellings = ("A2^1", "A2^(1)", "A02^1", "A0002^1", " A2^1 ")
    assert all(type_info(name) is A2 for name in spellings)
    assert type_info("A2^1") is not type_info("A2^2")


def test_finite_type_table():
    rows = {
        "A4^1": ("A", 4),
        "B2^1": ("A", 3),
        "B4^1": ("A", 7),
        "C3^1": ("D", 4),
        "D5^1": ("D", 5),
        "A2^2": ("A", 2),
        "A6^2": ("A", 6),
        "A5^2": ("A", 5),
        "D4^2": ("D", 4),
        "E6^1": ("E", 6),
        "E7^1": ("E", 7),
        "E8^1": ("E", 8),
        "F4^1": ("E", 6),
        "G2^1": ("D", 4),
        "E6^2": ("E", 6),
        "D4^3": ("D", 4),
    }
    for name, fin in rows.items():
        assert type_info(name).fin_type == fin


def test_mark_sums_against_textbook_values():
    # (sum of marks, sum of comarks) for each family at sample ranks
    expected = {
        "A1^1": (2, 2),
        "A3^1": (4, 4),
        "B2^1": (4, 3),
        "B4^1": (8, 7),
        "C3^1": (6, 4),
        "C4^1": (8, 5),
        "D4^1": (6, 6),
        "D6^1": (10, 10),
        "E6^1": (12, 12),
        "E7^1": (18, 18),
        "E8^1": (30, 30),
        "F4^1": (12, 9),
        "G2^1": (6, 4),
        "A2^2": (3, 3),
        "A4^2": (5, 5),
        "A3^2": (3, 4),
        "A5^2": (5, 6),
        "D4^2": (4, 6),
        "D5^2": (5, 8),
        "E6^2": (9, 12),
        "D4^3": (4, 6),
    }
    for name, (h, hv) in expected.items():
        info = type_info(name)
        assert (info.marks_sum, info.comarks_sum) == (h, hv), name


def test_dual_shift_defined_only_on_neg_q_lattice():
    assert type_info("A4^1").dual_shift_exponent == 5
    assert type_info("D5^1").dual_shift_exponent == 8
    assert type_info("C3^1").dual_shift_exponent == 4  # parities agree
    assert type_info("B3^1").dual_shift_exponent is None
    assert type_info("F4^1").dual_shift_exponent is None
    assert type_info("A5^2").dual_shift_exponent is None
    with pytest.raises(NoProviderError):
        dual_point(type_info("B3^1"), SigmaPoint(1, 0), 1)


def test_dual_point_examples():
    assert dual_point(A2, SigmaPoint(1, 0), 1) == SigmaPoint(2, 3)
    assert dual_point(A2, SigmaPoint(1, 2), 1) == SigmaPoint(2, 5)
    assert dual_point(A2, SigmaPoint(2, 1), 0) == SigmaPoint(2, 1)


def test_dual_point_inverse_and_parity():
    for k in range(-4, 5):
        for x in A2.sigma0_points(-6, 6):
            y = dual_point(A2, x, k)
            assert dual_point(A2, y, -k) == x
            assert A2.in_sigma0(y)


def test_denom_zeros_a_type():
    assert denom_zeros(A2, 1, 1) == (2,)
    assert denom_zeros(A2, 1, 2) == (3,)
    assert denom_zeros(type_info("A3^1"), 1, 3) == (4,)
    assert denom_zeros(type_info("A3^1"), 2, 2) == (2, 4)


def test_denom_zeros_no_provider():
    with pytest.raises(NoProviderError):
        denom_zeros(type_info("D4^1"), 1, 1)


def test_denominator_json_roundtrip():
    doc = json.dumps(
        {
            "type": "D4^1",
            "zeros": {"1,1": [2, 6], "1,2": [3, 5], "2,1": [3, 5], "2,2": [2, 4, 6]},
        }
    )
    info = load_denominator_json(doc)
    assert denom_zeros(info, 1, 1) == (2, 6)
    assert denom_zeros(info, 2, 2) == (2, 4, 6)
    assert denom_zeros(info, 3, 4) == ()
    affine._EXTERNAL_TABLES.pop("D4^1")


def test_registered_zeros_follow_the_json_integer_rule():
    shape = "must be an (i, j) key with a list of zeros"
    for zeros, bad in (
        ({(1, 1): [2.5, True]}, "a zero of node pair (1, 1) for D4^1 must be an integer, got 2.5"),
        ({(1, 1): [True]}, "a zero of node pair (1, 1) for D4^1 must be an integer, got True"),
        ({(1.5, 2): [3]}, "node pair (1.5, 2) for D4^1 must be an integer, got 1.5"),
        # keys that are not two-item pairs and rows that are not lists
        ({(1, 1, 1): [2]}, f"node pair (1, 1, 1) for D4^1 {shape}: [2]"),
        ({(1,): [2]}, f"node pair (1,) for D4^1 {shape}: [2]"),
        ({1: [2]}, f"node pair 1 for D4^1 {shape}: [2]"),
        ({(1, 1): 3}, f"node pair (1, 1) for D4^1 {shape}: 3"),
    ):
        with pytest.raises(AffineTypeError) as err:
            affine.register_denominator_table("D4^1", zeros)
        assert str(err.value) == bad
        assert "D4^1" not in affine._EXTERNAL_TABLES
    # integral floats are read as the integers they are
    affine.register_denominator_table("D4^1", {(1.0, 2): [3.0, 5]})
    try:
        table = affine._EXTERNAL_TABLES["D4^1"]
        assert table == {(1, 2): (3, 5)}
        assert all(type(x) is int for pair, zeros in table.items() for x in pair + zeros)
    finally:
        affine._EXTERNAL_TABLES.pop("D4^1")


def test_sigma0_parity_a_type():
    points = A2.sigma0_points(0, 3)
    assert points == (
        SigmaPoint(1, 0),
        SigmaPoint(2, 1),
        SigmaPoint(1, 2),
        SigmaPoint(2, 3),
    )
    assert not A2.in_sigma0(SigmaPoint(1, 1))


def test_sigma_quiver_a2_window():
    vertices, arrows = sigma_quiver(A2, 0, 3)
    assert set(vertices) == {
        SigmaPoint(1, 0),
        SigmaPoint(2, 1),
        SigmaPoint(1, 2),
        SigmaPoint(2, 3),
    }
    arrow_set = {(a, b) for a, b, _ in arrows}
    assert arrow_set == {
        (SigmaPoint(1, 0), SigmaPoint(1, 2)),
        (SigmaPoint(1, 0), SigmaPoint(2, 3)),
        (SigmaPoint(2, 1), SigmaPoint(2, 3)),
    }
    assert all(mult == 1 for _, _, mult in arrows)


def test_sigma_quiver_a1_window():
    info = type_info("A1^1")
    vertices, arrows = sigma_quiver(info, 0, 2)
    assert vertices == (SigmaPoint(1, 0), SigmaPoint(1, 2))
    assert arrows == ((SigmaPoint(1, 0), SigmaPoint(1, 2), 1),)


def test_sigma_quiver_empty_window():
    assert sigma_quiver(A2, 3, 0) == ((), ())


def test_sigma_quiver_connected_on_wide_windows():
    for n in (1, 2, 3, 4):
        info = type_info(f"A{n}^1")
        h = info.dual_shift_exponent
        vertices, arrows = sigma_quiver(info, 0, 2 * h - 1)
        adj = {v: set() for v in vertices}
        for a, b, _ in arrows:
            adj[a].add(b)
            adj[b].add(a)
        seen = {vertices[0]}
        stack = [vertices[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        assert seen == set(vertices), f"sigma0 quiver of A{n}^1 disconnected"


def registered_names(max_rank: int = 8) -> tuple[str, ...]:
    """Concrete instances of all fourteen registered families, small ranks;
    the probe-basis tests read it too."""
    names: list[str] = []
    names += [f"A{n}^1" for n in range(1, max_rank + 1)]
    names += [f"B{n}^1" for n in range(2, max_rank + 1)]
    names += [f"C{n}^1" for n in range(3, max_rank + 1)]
    names += [f"D{n}^1" for n in range(4, max_rank + 1)]
    names += ["E6^1", "E7^1", "E8^1", "F4^1", "G2^1"]
    names += [f"A{2 * n}^2" for n in range(1, max_rank // 2 + 1)]
    names += [f"A{2 * n - 1}^2" for n in range(2, max_rank // 2 + 1)]
    names += [f"D{n + 1}^2" for n in range(3, max_rank + 1)]
    names += ["E6^2", "D4^3"]
    return tuple(names)


def test_all_registered_names_resolve():
    for name in registered_names(6):
        info = type_info(name)
        assert info.rank >= 1
        for i in range(1, info.rank + 1):
            assert info.star(info.star(i)) == i


def test_d_counts_arrows_both_ways():
    from qaffpbw.invariants import d_fund

    vertices, arrows = sigma_quiver(A2, -3, 6)
    mult = {(a, b): m for a, b, m in arrows}
    for x in vertices:
        for y in vertices:
            assert d_fund(A2, x, y) == mult.get((x, y), 0) + mult.get((y, x), 0)


def test_json_int_takes_integers_only():
    assert affine.json_int("3", "f") == 3
    assert affine.json_int(-2, "f") == -2
    assert affine.json_int(2.0, "f") == 2
    for bad in (True, False, 1.5, float("inf"), float("nan"), "1.5", "x", None, [1]):
        with pytest.raises(ValueError, match="f must be an integer"):
            affine.json_int(bad, "f")
