"""Affine cuspidal sequences from a duality datum and a reduced word of w0.

Inside the fundamental window 1..l the k-th cuspidal label is built by the
minimal-pair recursion over the convex order of the word

    C_k = C_a * C_b        for a minimal pair (a, b) of beta_k,
    C_k = R_j              when beta_k is the simple root alpha_j,

with R_j the j-th member of the datum in normal form and * evaluated as a
head.  Outside the window the sequence extends by the dual-shift law
S_{k+l} = D(S_k).

``CuspidalSeq`` is the one sequence class: it owns the memo, the dual-shift
extension, ``range``, ``label`` and ``index_of``.  ``FundamentalCuspidalSeq``
only supplies S_1..S_l, read off the label map of a Q-datum.
"""

from __future__ import annotations

from collections import Counter

from . import duality as duality_mod
from . import modexpr, qdata
from .affine import SigmaPoint, dual_point
from .duality import DualityDatum, DualityError
from .modexpr import Expr, Fund, FusionTable, Verdict
from .rootsys import RootSystem, RootSystemError, Word

__all__ = [
    "CuspidalSeq",
    "FundamentalCuspidalSeq",
    "refl_shift_check",
]


def _recursion_step(analysis, k: int) -> int | tuple[int, int]:
    """The node j when beta_k = alpha_j (the member R_j), otherwise the
    minimal pair (a, b) of beta_k the recursion takes; ``analysis`` is the
    word's record from ``RootSystem._analysis`` (its betas and minimal pairs)."""
    beta = analysis.betas[k - 1]
    if sum(beta) == 1:
        return beta.index(1) + 1
    return min(analysis.pairs[k - 1])  # deterministic tie-break: smallest left index


def _word_root_system(datum: DualityDatum) -> RootSystem:
    matrix = duality_mod.induced_cartan(datum)
    components = duality_mod.classify_cartan(matrix)
    if len(components) != 1:
        raise DualityError(
            f"induced Cartan matrix splits as {components}; cuspidal sequences "
            "need a connected type"
        )
    letter, rank = components[0]
    rs = RootSystem(letter, rank)
    if rs.cartan_matrix != matrix:
        raise DualityError("induced Cartan matrix is not in the standard node numbering")
    return rs


class CuspidalSeq:
    """Lazy cuspidal sequence S_k for k in Z, memoized per k.

    Once S_1 .. S_l are all fundamental and the type has an integer dual
    shift h, one period S_1 .. S_2l is kept as node and power int lists,
    since S_{k+2l} is S_k moved up by 2h, and as a flat list at node * 2h +
    power mod 2h.  ``label(k)`` costs one divmod and one read; the batch
    reads ``exponents`` and ``multiset``, behind ``pbw.decompose`` and
    ``pbw.compose``, make one pass over the table per call.
    """

    def __init__(self, datum: DualityDatum, word: Word, facts: FusionTable | None = None):
        for member in datum.members:
            if isinstance(member, Fund):
                datum.info.star(member.point.node)  # refuses a node outside 1..rank
        self.datum = datum
        self._start(datum.info, _word_root_system(datum), word, facts)
        if not self.rs.spells_longest(self.word):
            name = f"{self.rs.type_letter}{self.rs.rank}"
            raise RootSystemError(f"word {self.word} does not spell w0 of {name}")
        # the record spells_longest just read, kept so that no recursion step
        # looks the word up again
        self._analysis = self.rs._analysis(self.word)

    def _start(self, info, rs: RootSystem, word: Word, facts: FusionTable | None) -> None:
        self.info, self.rs, self.facts = info, rs, facts
        self.word = tuple(word)
        self.ell = len(self.word)
        self._memo: dict[int, Expr] = {}
        self._lift: int | None = None  # 2h, once the label table is built
        self._table: list[tuple[int, int] | None] = []
        self._compound = 0  # r of the first compound S_r, once one is found

    def materialize(self, k: int) -> Expr:
        hit = self._memo.get(k)
        if hit is not None:
            return hit
        shift, k0 = divmod(k - 1, self.ell)
        k0 += 1
        if shift:
            value = modexpr.dual(self.info, self.materialize(k0), shift, self.facts)
        else:
            step = _recursion_step(self._analysis, k0)
            if isinstance(step, int):
                value = self.datum.member(step)
                if not isinstance(value, Fund):
                    value = duality_mod._normal_member(self.info, value, self.facts)
            else:
                a, b = step
                value = modexpr.head(
                    self.info, [self.materialize(a), self.materialize(b)], self.facts
                )
        self._memo[k] = value
        return value

    def range(self, lo: int, hi: int) -> list[Expr]:
        return [self.materialize(k) for k in range(lo, hi + 1)]

    def _index_period(self) -> bool:
        """Build the label table; False when some S_r is compound."""
        base = [duality_mod.fund_point(x) for x in self.range(1, self.ell)]
        if None in base:
            self._compound = base.index(None) + 1
            return False
        # S_{l+1} .. S_2l are the duals of S_1 .. S_l; dual_point raises
        # NoProviderError when the type has no integer dual shift
        period = base + [dual_point(self.info, x) for x in base]
        lift = 2 * self.info.dual_shift_exponent
        self._nodes = [x.node for x in period]
        self._powers = [x.power for x in period]
        slots = [x.node * lift + x.power % lift for x in period]
        self._cover = Counter(slots)
        # (r + 1, power) where one label of the period lands, None elsewhere
        self._table = [None] * ((max(slots) // lift + 1) * lift)
        for r, slot in enumerate(slots):
            if self._cover[slot] == 1:
                self._table[slot] = (r + 1, self._powers[r])
        self._lift = lift  # last, so whoever sees it sees the whole table
        return True

    def label(self, k: int) -> SigmaPoint | None:
        """The label of S_k, or None when S_k is compound."""
        if self._lift is None and (self._compound or not self._index_period()):
            return duality_mod.fund_point(self.materialize(k))
        m, r = divmod(k - 1, 2 * self.ell)
        return SigmaPoint(self._nodes[r], self._powers[r] + self._lift * m)

    def index_of(self, point: SigmaPoint) -> int:
        """The unique k with S_k at the given label; sigma0 bijectivity."""
        return next(iter(self.exponents({point: 1})))

    def exponents(self, counts: dict[SigmaPoint, int]) -> dict[int, int]:
        """{k: mult} for {label of S_k: mult}; the first label, in dict
        order, that no S_k or several carry raises a DualityError."""
        lift = self._lift
        if lift is None and counts:
            if self.info.dual_shift_exponent is None:
                raise DualityError(f"{self.info.name}: labels do not form a single (-q)-lattice")
            if not self._index_period():
                raise DualityError(f"S_{self._compound} is compound, so the labels have no index")
            lift = self._lift
        table, size, period, exps = self._table, len(self._table), 2 * self.ell, {}
        for point, mult in counts.items():
            node, power = point
            slot = node * lift + power % lift
            hit = table[slot] if 0 <= slot < size else None
            if hit is None:
                raise DualityError(
                    f"label {point} is covered {self._cover[slot]} times; "
                    "expected a bijective cuspidal sequence"
                )
            exps[hit[0] + period * ((power - hit[1]) // lift)] = mult
        return exps

    def multiset(self, entries) -> list[SigmaPoint]:
        """The label of S_k repeated mult times for each (k, mult), sorted;
        while some S_r is compound each entry reads ``label(k)``."""
        triples = []
        if self._lift is None and (not entries or self._compound or not self._index_period()):
            for k, mult in entries:
                point = self.label(k)
                if point is None:
                    raise ValueError(
                        f"S_{k} is not a fundamental label; the vector is not "
                        "composable over this sequence"
                    )
                triples.append((*point, mult))
        else:
            period, lift, nodes, powers = 2 * self.ell, self._lift, self._nodes, self._powers
            for k, mult in entries:
                m, r = divmod(k - 1, period)
                triples.append((nodes[r], powers[r] + lift * m, mult))
        # tuple.__new__ builds a SigmaPoint as SigmaPoint() does, minus a Python-level call
        points: list[SigmaPoint] = []
        make = tuple.__new__
        for node, power, mult in sorted(triples):
            points += (make(SigmaPoint, (node, power)),) * mult
        return points


class FundamentalCuspidalSeq(CuspidalSeq):
    """The cuspidal sequence of a Q-datum along an adapted word: S_1 .. S_l
    are the images of beta_1 .. beta_l under its label map.  The labels cover
    sigma0 bijectively, which makes the sequence invertible (the basis of the
    exponent-vector parametrization)."""

    def __init__(self, info, q, word: Word, facts: FusionTable | None = None):
        self._start(info, q.root_system, word, facts)
        try:
            mapping = qdata.phi(q, self.word)
        except qdata.QDatumError:
            raise DualityError(f"word {word} is not adapted to the Q-datum") from None
        for k, beta in enumerate(self.rs.beta_sequence(self.word), start=1):
            self._memo[k] = Fund(mapping[beta])


def refl_shift_check(
    datum: DualityDatum,
    word: Word,
    facts: FusionTable | None = None,
    window: tuple[int, int] | None = None,
) -> tuple[bool, list]:
    """Check S'_k = S_{k+1} for the reflected datum and the rotated word."""
    seq = CuspidalSeq(datum, word, facts)
    ell = seq.ell
    rotated = tuple(word[1:]) + (seq.rs.extend_letter(word, ell + 1),)
    reflected = duality_mod.reflect(datum, word[0], facts)
    shifted = CuspidalSeq(reflected, rotated, facts)
    lo, hi = window if window is not None else (1 - ell, 2 * ell)
    failures = []
    for k in range(lo, hi + 1):
        verdict = modexpr.equal(
            datum.info, shifted.materialize(k), seq.materialize(k + 1), facts
        )
        if verdict is not Verdict.EQUAL:
            failures.append((k, verdict.value, shifted.materialize(k), seq.materialize(k + 1)))
    return not failures, failures
