"""Duality data, axiom checking, induced Cartan matrices, and reflections.

A duality datum is a finite family {R_i} of module labels.  For a strong
datum the labels must satisfy, over every dual shift k,

    d(R_i, D^k R_j) = -delta(k = 0) c_{ij}   (i != j)
    d(R_i, D^k R_i) =  delta(k = +-1)        (root-module pattern)

with (c_ij) a simply-laced finite Cartan matrix.  These are decidable
exactly when the members are fundamental labels; pairs involving compound
labels come back as "unknown".

Each label check is written once here: ``_normal_member`` rewrites a
member to its normal form, ``_member_point`` maps a member to the label of
that normal form (None when compound), ``root_verdict`` grades the
root-module pattern, ``_cartan_of`` builds the induced matrix from -d and
validates it with ``classify_cartan``, the one finite-type rule, and
``roll_up`` folds verdicts into pass, fail or unknown.  ``check_strong`` is
the one route to a ``StrongReport``: it reads every d(R_i, D^k R_j) off one
sweep, and ``from_q_datum`` and the reflections call it on each datum they
build.  ``_strength`` is the one strength rule: pass gives verified; from a
verified or inherited parent, unknown gives inherited and fail raises;
anything else gives unknown.  ``cuspidal`` reads ``fund_point``,
``_normal_member``, ``induced_cartan`` and ``classify_cartan``.

Completeness is not decidable from labels: it is a provenance flag, seeded
by construction from a Q-datum and transported along reflections.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from typing import Mapping

from . import affine, invariants, modexpr
from .affine import AffineTypeInfo, NoProviderError, SigmaPoint, type_info
from .modexpr import Expr, Fund, FusionTable, Verdict
from .qdata import QDatum, fundamental_labels

__all__ = [
    "DualityDatum",
    "DualityError",
    "StrongReport",
    "check_strong",
    "induced_cartan",
    "classify_cartan",
    "reflect",
    "reflect_inv",
    "from_q_datum",
    "datum_to_json",
    "datum_from_json",
]


class DualityError(ValueError):
    pass


@dataclass(frozen=True)
class DualityDatum:
    info: AffineTypeInfo
    members: tuple[Expr, ...]  # R_1, ..., R_n
    provenance: str = "user"
    complete: bool | None = None  # None: unknown
    strength: str = "unknown"  # verified | inherited | unknown
    cartan: tuple[tuple[int, ...], ...] | None = None

    @property
    def size(self) -> int:
        return len(self.members)

    def member(self, i: int) -> Expr:
        return self.members[i - 1]


@dataclass(frozen=True)
class StrongReport:
    overall: str  # pass | fail | unknown
    pair_verdicts: tuple[tuple[tuple[int, int], str], ...]
    root_verdicts: tuple[tuple[int, str], ...]
    cartan: tuple[tuple[int, ...], ...] | None

    def verdict(self, i: int, j: int) -> str:
        return dict(self.pair_verdicts)[(i, j)]


def fund_point(e: Expr) -> SigmaPoint | None:
    """The label of a fundamental member; None for a compound one, whose
    pairings are not exact."""
    return e.point if isinstance(e, Fund) else None


def _normal_member(info: AffineTypeInfo, e: Expr, facts: FusionTable | None = None) -> Expr:
    """A non-``Fund`` member in normal form, so a fundamental spelled as a
    one-factor head or with cancelling duals is that ``Fund``; as written when
    its normal form needs a denominator table the type lacks."""
    try:
        return modexpr.normalize(info, e, facts)
    except NoProviderError:
        return e


def _member_point(info: AffineTypeInfo, e: Expr) -> SigmaPoint | None:
    """The label of a member read off its normal form (``_normal_member``);
    None when compound."""
    return e.point if isinstance(e, Fund) else fund_point(_normal_member(info, e))


def root_verdict(info: AffineTypeInfo, x: SigmaPoint | None) -> str:
    """The root-module check of one member: ok, fail, or unknown (compound)."""
    if x is None:
        return "unknown"
    return _root_grade(invariants.shift_profile(info, x, x))


def _root_grade(profile: dict[int, int]) -> str:
    # d(x, D^k x) = delta(k = +-1) over every dual shift k
    return "ok" if profile == {-1: 1, 1: 1} else "fail"


def roll_up(verdicts) -> str:
    """fail if any check failed, else unknown if any is undecided, else pass."""
    verdicts = list(verdicts)
    if any(v.startswith("fail") for v in verdicts):
        return "fail"
    return "unknown" if "unknown" in verdicts else "pass"


def check_strong(datum: DualityDatum) -> StrongReport:
    """Exhaustive label-level verification of the strong-datum axioms.

    One sweep (``invariants._shift_profiles``) gives every profile
    d(R_i, D^k R_j); the root verdicts read the diagonal, the pair verdicts
    the rest, and the induced matrix their k = 0 entries."""
    points = [_member_point(datum.info, m) for m in datum.members]
    profiles = invariants._shift_profiles(datum.info, points)
    root_verdicts = []
    pair_verdicts = []
    for i, row in enumerate(profiles, start=1):
        for j, profile in enumerate(row, start=1):
            if i == j:
                root_verdicts.append((i, "unknown" if profile is None else _root_grade(profile)))
            elif profile is None:
                pair_verdicts.append(((i, j), "unknown"))
            else:
                bad = min((k for k in profile if k != 0), default=None)
                pair_verdicts.append(((i, j), "ok" if bad is None else f"fail(k={bad})"))

    verdicts = [v for _, v in pair_verdicts] + [v for _, v in root_verdicts]
    cartan = None
    if all(v != "unknown" for _, v in pair_verdicts):  # every pairing is exact
        try:
            cartan = _cartan_of(len(points), lambda a, b: profiles[a][b].get(0, 0))
        except DualityError:
            verdicts.append("fail")
    return StrongReport(
        overall=roll_up(verdicts),
        pair_verdicts=tuple(pair_verdicts),
        root_verdicts=tuple(root_verdicts),
        cartan=cartan,
    )


def _cartan_of(n: int, d) -> tuple[tuple[int, ...], ...]:
    """The n x n matrix with off-diagonal -d(a, b) (0-based members, a < b),
    validated as a simply-laced finite Cartan matrix; d is symmetric, so the
    matrix is."""
    matrix = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            c = -d(i, j)
            if c not in (0, -1):
                raise DualityError(f"induced pairing {c} at {(i + 1, j + 1)} is not simply laced")
            matrix[i][j] = matrix[j][i] = c
    try:
        classify_cartan(matrix)
    except DualityError:
        raise DualityError("induced matrix is not positive definite") from None
    return tuple(tuple(row) for row in matrix)


def induced_cartan(datum: DualityDatum) -> tuple[tuple[int, ...], ...]:
    """Matrix with off-diagonal -d(R_i, R_j); needs exact pairwise values, so
    from two members on a compound member is refused."""
    if datum.cartan is not None:
        return datum.cartan
    points = [_member_point(datum.info, m) for m in datum.members]
    if len(points) > 1 and None in points:
        raise DualityError(
            "pairwise d is not exact for compound members; no cached matrix"
        )
    return _cartan_of(
        len(points), lambda a, b: invariants.d_fund(datum.info, points[a], points[b])
    )


def classify_cartan(matrix) -> tuple[tuple[str, int], ...]:
    """Connected components of a simply-laced finite Cartan matrix, by type.

    This is the one finite-type test: a symmetric matrix with 2 on the
    diagonal and 0/-1 off it is positive definite exactly when every
    component of its diagram is an A, D or E Dynkin diagram (Kac, Table
    Fin).  Any other matrix raises ``DualityError``.
    """
    n = len(matrix)
    seen: set[int] = set()
    components = []
    for start in range(n):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in range(n):
                if w not in comp and matrix[v][w] == -1:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        components.append(sorted(comp))
    out = []
    for comp in components:
        out.append(_component_type(matrix, comp))
    return tuple(sorted(out))


def _component_type(matrix, nodes) -> tuple[str, int]:
    size = len(nodes)
    degree = {
        v: sum(1 for w in nodes if w != v and matrix[v][w] == -1) for v in nodes
    }
    branch = [v for v in nodes if degree[v] == 3]
    is_tree = sum(degree.values()) == 2 * (size - 1)
    if not is_tree or any(degree[v] > 3 for v in nodes) or len(branch) > 1:
        raise DualityError("not a finite simply-laced diagram")
    if not branch:
        return ("A", size)
    legs = []
    center = branch[0]
    for start in (w for w in nodes if matrix[center][w] == -1 and w != center):
        length = 1
        prev, cur = center, start
        while degree[cur] == 2:
            nxt = next(w for w in nodes if matrix[cur][w] == -1 and w != prev)
            prev, cur = cur, nxt
            length += 1
        legs.append(length)
    legs.sort()
    if legs[0] == 1 and legs[1] == 1:
        return ("D", size)
    if legs == [1, 2, 2]:
        return ("E", 6)
    if legs == [1, 2, 3]:
        return ("E", 7)
    if legs == [1, 2, 4]:
        return ("E", 8)
    raise DualityError(f"leg lengths {legs} are not of finite type")


def _reflect_members(
    datum: DualityDatum,
    cartan: tuple[tuple[int, ...], ...],
    k: int,
    inverse: bool,
    facts: FusionTable | None,
) -> tuple[Expr, ...]:
    info = datum.info
    members = []
    for i in range(1, datum.size + 1):
        r = datum.member(i)
        if i == k:
            members.append(modexpr.dual(info, r, -1 if inverse else 1, facts))
        elif cartan[i - 1][k - 1] == -1:
            rk = datum.member(k)
            order = [r, rk] if inverse else [rk, r]
            members.append(modexpr.head(info, order, facts))
        else:
            members.append(r)
    return tuple(members)


def _reflected(
    datum: DualityDatum, k: int, inverse: bool, facts: FusionTable | None
) -> DualityDatum:
    if not 1 <= k <= datum.size:
        raise DualityError(f"node {k} out of range")
    cartan = induced_cartan(datum)
    members = _reflect_members(datum, cartan, k, inverse, facts)
    tag = f"S{k}^-1" if inverse else f"S{k}"
    image = DualityDatum(
        info=datum.info,
        members=members,
        provenance=f"{tag}({datum.provenance})",
        complete=datum.complete,
        cartan=cartan,
    )
    return replace(image, strength=_strength(check_strong(image).overall, datum.strength))


def _strength(overall: str, carried: str) -> str:
    """The strength of a datum whose label checks rolled up to ``overall``,
    given the strength carried into it (``unknown`` for a new datum)."""
    if overall == "pass":
        return "verified"
    if carried not in ("verified", "inherited"):
        return "unknown"
    if overall == "unknown":
        return "inherited"
    raise DualityError(
        "reflection of a strong datum failed the label checks; "
        "the input flags were wrong"
    )


def reflect(
    datum: DualityDatum, k: int, facts: FusionTable | None = None
) -> DualityDatum:
    return _reflected(datum, k, inverse=False, facts=facts)


def reflect_inv(
    datum: DualityDatum, k: int, facts: FusionTable | None = None
) -> DualityDatum:
    return _reflected(datum, k, inverse=True, facts=facts)


def from_q_datum(info: AffineTypeInfo, q: QDatum) -> DualityDatum:
    """The canonical complete datum with R_i at phi_Q(alpha_i).

    Supported for untwisted ADE affine types, where the node map from the
    associated finite diagram to I0 is the identity.  Everywhere else that
    map folds the diagram and is out of scope, so the construction refuses
    instead of guessing.  The checked datum is kept per Q-datum in the
    type's memo (``affine._derived``), which a new denominator table empties.
    """
    if info.twist != 1 or info.letter not in ("A", "D", "E"):
        raise DualityError(
            f"{info.name}: the node map into I0 is not the identity; "
            "Q-datum construction is unsupported for this type"
        )
    if (q.type_letter, q.rank) != info.fin_type:
        raise DualityError(
            f"Q-datum type {q.type_letter}{q.rank} does not match the "
            f"associated finite type {info.fin_type} of {info.name}"
        )
    memo = affine._kept(affine._derived(info), "from_q", dict)
    return affine._kept(memo, q, _checked_from_q, info, q, bounded=True)


def _checked_from_q(info: AffineTypeInfo, q: QDatum) -> DualityDatum:
    labels = fundamental_labels(q)
    datum = DualityDatum(
        info=info,
        members=tuple(Fund(labels[i]) for i in range(1, q.rank + 1)),
        provenance="from-Q",
        complete=True,
    )
    try:
        report = check_strong(datum)
    except NoProviderError:
        # registered metadata-only type: the labels exist, the axioms are
        # not checkable without a denominator table
        return datum
    return replace(datum, strength=_strength(report.overall, "unknown"), cartan=report.cartan)


def datum_equal(
    a: DualityDatum, b: DualityDatum, facts: FusionTable | None = None
) -> Verdict:
    """Member-wise expression comparison."""
    if a.info.name != b.info.name or a.size != b.size:
        return Verdict.DISTINCT
    verdicts = [
        modexpr.equal(a.info, x, y, facts) for x, y in zip(a.members, b.members)
    ]
    if all(v is Verdict.EQUAL for v in verdicts):
        return Verdict.EQUAL
    if any(v is Verdict.DISTINCT for v in verdicts):
        return Verdict.DISTINCT
    return Verdict.UNKNOWN


# ---------------------------------------------------------------------------
# JSON forms


def datum_to_json(datum: DualityDatum) -> dict:
    return {
        "affine": datum.info.name,
        "members": {
            str(i): modexpr.expr_to_json(datum.member(i))
            for i in range(1, datum.size + 1)
        },
        "provenance": datum.provenance,
    }


def datum_from_json(doc: str | dict | Mapping) -> DualityDatum:
    data = json.loads(doc) if isinstance(doc, str) else doc
    if not isinstance(data, Mapping):
        raise DualityError(f"datum JSON must be an object, got {data!r}")
    name = data.get("affine")
    if not isinstance(name, str):
        raise DualityError(f"datum field 'affine' must be a type name, got {name!r}")
    info = type_info(name)
    raw = data.get("members")
    if not isinstance(raw, Mapping):
        raise DualityError(f"datum field 'members' must be an object, got {raw!r}")
    members = []
    for i in range(1, len(raw) + 1):
        if str(i) not in raw:
            raise DualityError(f"datum field 'members' has no member {i}")
        try:
            member = modexpr.expr_from_json(raw[str(i)])
        except ValueError as err:
            raise DualityError(f"datum field 'members' entry {i}: {err}") from err
        for x, _ in modexpr.signed_leaves(member):
            info.star(x.node)  # refuses a node outside 1..rank
        members.append(member)
    provenance = data.get("provenance", "user")
    if not isinstance(provenance, str):
        raise DualityError(f"datum field 'provenance' must be a string, got {provenance!r}")
    # a Q-datum is complete, and so is each reflection of one: S<k>(...) or S<k>^-1(...)
    m = re.fullmatch(r"((?:S\d+(?:\^-1)?\()*)from-Q(\)*)", provenance)
    complete = True if m and m[1].count("(") == len(m[2]) else None
    return DualityDatum(
        info=info, members=tuple(members), provenance=provenance, complete=complete
    )
