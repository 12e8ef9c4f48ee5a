"""Two theorems of the paper as label identities, on every Q-datum at A2-A6.

The Lambda identities.  F_D preserves Lambda and Lambda8, and on the quiver
Hecke side Lambda8(L(beta), L(gamma)) = -(beta, gamma), while a pair of
cuspidals S_a, S_b with a > b is unmixed, with Lambda = -(beta_a, beta_b).
On labels S_{k+l} = D S_k, and D negates Lambda8.  So with
gamma_k = (-1)^s beta_r, where k - 1 = s l + (r - 1):

    Lambda8(S_a, S_b) = -(gamma_a, gamma_b)   for all a, b in 1..2l,
    Lambda(S_a, S_b)  = -(gamma_a, gamma_b)   for a > b in 1..l.

The reflection theorem.  At a source i of Q (a strict local minimum of the
height function xi), S_i(D_Q) = D_{s_i Q}, where s_i Q raises xi(i) by 2,
and S_i^{-1}(D_{s_i Q}) = D_Q.  The members of a reflected datum are heads,
which the comparison decides only with the A_n^(1) fusion family below:
without it every case reads UNKNOWN, with strength inherited.

D and E wait on generated denominator tables; the registered D4^1 tables of
the tests are toy tables.
"""

from __future__ import annotations

import pytest

from qaffpbw import duality, invariants, qdata
from qaffpbw.affine import SigmaPoint, type_info
from qaffpbw.cuspidal import FundamentalCuspidalSeq
from qaffpbw.modexpr import FusionFact, FusionTable, Verdict
from qaffpbw.qdata import QDatum

RANKS = range(2, 7)
# (height function, source) pairs per rank, 111 in all
SOURCE_COUNTS = {2: 2, 3: 5, 4: 12, 5: 28, 6: 64}


def a_fusion_facts(info) -> FusionTable:
    """The A_n^(1) fusion family V(i)_p * V(j)_{p+i+j} = V(i+j)_{p+j}."""
    n = info.rank
    return FusionTable(
        info,
        [
            FusionFact(SigmaPoint(i, 0), SigmaPoint(j, i + j), SigmaPoint(i + j, j))
            for i in range(1, n)
            for j in range(1, n + 1 - i)
        ],
    )


def form(cartan, beta, gamma) -> int:
    """The symmetric bilinear form (beta, gamma) = beta^T C gamma."""
    return sum(b * a * g for row, b in zip(cartan, beta) for a, g in zip(row, gamma))


@pytest.mark.parametrize("rank", RANKS)
def test_lambda_identities_on_every_cuspidal_sequence(rank):
    info = type_info(f"A{rank}^1")
    for heights in qdata.all_height_functions("A", rank):
        q = QDatum("A", rank, heights)
        word = qdata.some_adapted_word(q)
        seq = FundamentalCuspidalSeq(info, q, word)
        rs, ell = q.root_system, seq.ell
        betas = rs.beta_sequence(word)
        gammas = {
            k: tuple((-1) ** ((k - 1) // ell) * c for c in betas[(k - 1) % ell])
            for k in range(1, 2 * ell + 1)
        }
        labels = {k: seq.label(k) for k in gammas}
        for a in gammas:
            for b in gammas:
                expected = -form(rs.cartan_matrix, gammas[a], gammas[b])
                got = invariants.lambda_inf_fund(info, labels[a], labels[b])
                assert got == expected, (heights, a, b)
                if b < a <= ell:
                    got = invariants.lambda_fund(info, labels[a], labels[b])
                    assert got == expected, (heights, a, b)


def sources(q: QDatum) -> list[int]:
    """The strict local minima of the height function."""
    xi = q.heights
    rows = q.root_system.cartan_matrix
    return [
        i
        for i in q.root_system.nodes
        if all(xi[i - 1] < xi[j] for j, a in enumerate(rows[i - 1]) if a < 0)
    ]


@pytest.mark.parametrize("rank", RANKS)
def test_reflection_theorem_at_every_source(rank):
    info = type_info(f"A{rank}^1")
    facts = a_fusion_facts(info)
    cases = 0
    for heights in qdata.all_height_functions("A", rank):
        q = QDatum("A", rank, heights)
        datum = duality.from_q_datum(info, q)
        for i in sources(q):
            raised = heights[: i - 1] + (heights[i - 1] + 2,) + heights[i:]
            reflected_q = duality.from_q_datum(info, QDatum("A", rank, raised))
            forward = duality.reflect(datum, i, facts)
            back = duality.reflect_inv(reflected_q, i, facts)
            assert duality.datum_equal(forward, reflected_q, facts) is Verdict.EQUAL
            assert duality.datum_equal(back, datum, facts) is Verdict.EQUAL
            assert (forward.strength, back.strength) == ("verified", "verified")
            # S_i^{-1} is the reflection at a sink, not at a source
            wrong = duality.reflect_inv(datum, i, facts)
            assert duality.datum_equal(wrong, reflected_q, facts) is Verdict.DISTINCT
            cases += 1
    assert cases == SOURCE_COUNTS[rank]
