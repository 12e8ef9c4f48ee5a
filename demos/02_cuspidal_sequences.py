"""Q-data, duality data, reflections, and affine cuspidal sequences.

A Q-datum (Dynkin diagram + height function) picks out a canonical strong
complete duality datum.  Together with a reduced word of w0 it produces the
Z-indexed cuspidal sequence; reflecting the datum at the first letter
shifts the sequence by one.
"""

from qaffpbw import (
    CuspidalSeq,
    FusionTable,
    QDatum,
    adapted_words,
    check_strong,
    from_q_datum,
    induced_cartan,
    reflect,
    type_info,
)
from qaffpbw.cuspidal import refl_shift_check
from qaffpbw.rootsys import RootSystem

info = type_info("A2^1")
facts = FusionTable.builtin(info)

q = QDatum("A", 2, heights=(0, 1))
print("Q-datum: A2 with xi =", q.heights)
print("adapted reduced words of w0:", list(adapted_words(q)))

datum = from_q_datum(info, q)
print("canonical datum:", datum.members)
print("strength:", datum.strength, "| complete:", datum.complete)
print("induced Cartan matrix:", induced_cartan(datum))
print()

rs = RootSystem("A", 2)
for word in ((1, 2, 1), (2, 1, 2)):
    print(f"word {word}:")
    for k in (1, 2, 3):
        beta = rs.beta_sequence(word)[k - 1]
        print(f"  beta_{k} = {beta}, minimal pairs: {rs.minimal_pairs(word, k)}")
    seq = CuspidalSeq(datum, word, facts)
    for k in range(1, 7):
        print(f"  S_{k} = {seq.materialize(k)!r}")
    print()

print("reflections of the datum:")
s1 = reflect(datum, 1, facts)
s2 = reflect(datum, 2, facts)
print("  S1:", s1.members, "| strength:", s1.strength)
print("  S2:", s2.members, "| strength:", s2.strength)
print("  S2 passes the axioms?", check_strong(s2).overall, "(compound member)")
print()

for word in ((1, 2, 1), (2, 1, 2)):
    ok, failures = refl_shift_check(datum, word, facts)
    print(f"reflection shift law S'_k = S_(k+1) for word {word}: {ok}")
