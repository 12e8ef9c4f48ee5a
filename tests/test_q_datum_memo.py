"""The values kept per Q-datum: its adapted word and its checked datum.

``qdata.some_adapted_word`` is cached per ``QDatum`` value, bounded by
``rootsys.CACHE_SIZE``.  ``duality.from_q_datum`` keeps its checked
datum in ``affine._derived(info)`` under ``"from_q"``, keyed by Q-datum; a
full memo starts over at the same bound.  The checks below pin what the memo
is dropped by (a registered or replaced denominator table), that it stays
bounded, that a type without a table still gets the unchecked datum, that
the type checks run before the lookup, and that each datum built is checked
through the public ``check_strong``.  The values themselves are
compared with the uncached reference route in
``test_label_checks_differential.py``.
"""

from __future__ import annotations

import pytest
from conftest import ASYMMETRIC_A3, DEMO_D4
from test_label_checks_differential import datum_fields, q_data, reference_from_q_datum

from qaffpbw import affine, duality, qdata
from qaffpbw.affine import SigmaPoint, type_info
from qaffpbw.duality import DualityError
from qaffpbw.modexpr import Fund
from qaffpbw.qdata import QDatum
from qaffpbw.rootsys import CACHE_SIZE


def _memo(info):
    return affine._derived(info).get("from_q", {})


def _closed_a3_without(pair):
    """The closed A3^1 table with the last zero of d_pair dropped."""
    table = {
        (i, j): list(affine._a_type_zeros(3, i, j)) for i in range(1, 4) for j in range(1, 4)
    }
    table[pair] = table[pair][:-1]
    return table


@pytest.mark.parametrize(
    "table", [ASYMMETRIC_A3, _closed_a3_without((2, 2))], ids=["asymmetric", "dropped"]
)
def test_a_new_table_changes_the_next_datum(restored_tables, table):
    info = type_info("A3^1")
    affine._EXTERNAL_TABLES.pop(info.name, None)
    qs = q_data("A", 3)
    before = [duality.from_q_datum(info, q) for q in qs]
    assert all(d.strength == "verified" for d in before)
    affine.register_denominator_table(info.name, table)
    after = [duality.from_q_datum(info, q) for q in qs]
    for q, datum in zip(qs, after):
        assert datum_fields(datum) == datum_fields(reference_from_q_datum(info, q)), q
    # a memo that ignored the table would hand back every datum unchanged
    assert any(
        (b.strength, b.cartan) != (a.strength, a.cartan) for b, a in zip(before, after)
    )


def test_translated_heights_keep_the_memo_bounded():
    info = type_info("A1^1")
    affine._DERIVED.pop(info.name, None)
    for c in range(CACHE_SIZE + 10):
        q = QDatum("A", 1, (c,))
        datum = duality.from_q_datum(info, q)
        assert len(_memo(info)) <= CACHE_SIZE
        assert _memo(info)[q] is datum
    # the memo started over once, at the bound
    assert len(_memo(info)) == 10
    assert qdata.some_adapted_word.cache_info().currsize <= CACHE_SIZE
    assert datum.members == (Fund(SigmaPoint(1, CACHE_SIZE + 9)),)


def test_a_type_without_a_table_returns_the_unchecked_datum(restored_tables):
    info = type_info("D4^1")
    affine._EXTERNAL_TABLES.pop(info.name, None)
    q = QDatum("D", 4, (0, 1, 0, 0))
    unchecked = duality.from_q_datum(info, q)
    assert (unchecked.strength, unchecked.cartan, unchecked.complete) == ("unknown", None, True)
    assert duality.from_q_datum(info, q) is unchecked
    affine.register_denominator_table(info.name, DEMO_D4)
    checked = duality.from_q_datum(info, q)
    assert checked.members == unchecked.members
    assert datum_fields(checked) == datum_fields(reference_from_q_datum(info, q))
    assert checked.cartan is not None


def test_the_type_checks_run_before_the_lookup():
    q = QDatum("A", 3, (0, 1, 2))
    duality.from_q_datum(type_info("A3^1"), q)
    with pytest.raises(DualityError, match="does not match the associated finite type"):
        duality.from_q_datum(type_info("A4^1"), q)
    with pytest.raises(DualityError, match="node map into I0 is not the identity"):
        duality.from_q_datum(type_info("A3^2"), q)


def test_each_built_datum_is_checked_through_check_strong(monkeypatch):
    """``check_strong`` is the one route to a report: it runs once per
    ``from_q_datum`` miss, never on a hit, and once per reflection."""
    checked = []
    check_strong = duality.check_strong
    monkeypatch.setattr(
        duality, "check_strong", lambda datum: checked.append(datum.members) or check_strong(datum)
    )
    info = type_info("A3^1")
    affine._DERIVED.pop(info.name, None)
    qs = q_data("A", 3)
    data = [duality.from_q_datum(info, q) for q in qs]
    assert checked == [d.members for d in data]
    assert [duality.from_q_datum(info, q) for q in qs] == data
    assert len(checked) == len(qs)
    image = duality.reflect(data[0], 1)
    back = duality.reflect_inv(image, 1)
    assert checked[len(qs):] == [image.members, back.members]
