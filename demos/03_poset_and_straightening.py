"""The generator poset, its Hasse diagram, and the straightening law.

The generators carry a partial order (Q's form a chain; Q_j sits below a
minor when j is at most its last row; minors compare row-by-row).  Products
of incomparable generators rewrite as combinations of chains ("standard
monomials") whose least factors drop strictly: the straightening law.
The poset is a distributive lattice, and the leading monomials of a pair
sum to those of its meet and join; with the rank of the leading monomials
that proves axiom 1 in every degree at once.
"""

from resint import build_instance, straighten
from resint.labels import M, Q
from resint.poset import (
    incomparable_pairs,
    is_wonderful,
    verify_asl1,
    verify_asl2,
    witness_chain,
)

inst = build_instance(4, 2)
poset = inst.poset

print("Hasse diagram cover edges:")
for a, b in poset.hasse_edges():
    print(f"  {a.text} -> {b.text}")

print("\nranks:", {e.text: poset.rank(e) for e in poset.elements})
print("poset rank:", poset.poset_rank(), "= 2*(4-2+1)+1")
print("a maximum chain:", " < ".join(l.text for l in witness_chain(4, 2)))

print("\nincomparable pairs:", [(a.text, b.text) for a, b in incomparable_pairs(poset)])

rel = straighten(inst, Q(3), M([1, 2]))
print("straightening: ", rel.text)
print("  exact identity:", rel.verify(inst), "| least labels drop:", rel.min_label_condition())

rel2 = straighten(inst, M([1, 4]), M([2, 3]))
print("straightening: ", rel2.text)

print("\nmeet and join of each incomparable pair:")
for a, b in incomparable_pairs(poset):
    meet, join = poset.meet(a, b), poset.join(a, b)
    print(f"  {a.text} ^ {b.text} = {meet.text},  {a.text} v {b.text} = {join.text}")
print("axiom 1 in all degrees:", verify_asl1(inst))
print("axiom 2 (straightening):", verify_asl2(inst))
print("poset is wonderful:", is_wonderful(poset))

# DOT export for graphviz
print("\n--- hasse.dot ---")
print(poset.to_dot())
