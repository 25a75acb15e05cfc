"""The initial algebra: Sagbi verdict and squarefree toric kernel.

The leading monomials of the generators span a monomial algebra.  The
first straightening-law axiom is a certificate on the generator lattice:
it proves that the presentation kernel of that algebra is generated by
the Hibi binomials Y_a*Y_b - Y_{a^b}*Y_{a v b}, one per incomparable pair.
Each leads (under the tau order) with the incomparable product, so the
binomials are the kernel's reduced basis and its initial ideal is
squarefree.  With the second axiom, the straightening relations, the
generators are a Sagbi basis of the algebra they span: the standard
monomials span it and have distinct leading monomials.
"""

from resint import build_instance, initial_generators, toric_kernel, verify_squarefree_initial
from resint.poset import incomparable_pairs, verify_asl1, verify_asl2
from resint.ring import monomial_text
from resint.sagbi import semigroup_dimension

inst = build_instance(4, 2)

mam = initial_generators(inst)
print("initial monomials:")
for v in mam.pring.vars:
    print(f"  {v.text} = in({mam.legend[v].text}) = {monomial_text(inst.ring, mam.targets[v])}")

print("\nsemigroup dimension (exponent rank):", semigroup_dimension(inst))
print("poset rank (same number, independent route):", inst.poset.poset_rank())

print("\nHibi binomials, one per incomparable pair:")
for a, b in incomparable_pairs(inst.poset):
    meet, join = inst.poset.meet(a, b), inst.poset.join(a, b)
    print(f"  {a.text}*{b.text} - {meet.text}*{join.text}")

asl1 = verify_asl1(inst)
print("\nfirst axiom (lattice certificate):", asl1)
kernel = toric_kernel(inst, asl1)
print("toric kernel (those binomials, sorted by their tau-leading terms):")
for line in kernel.binomial_lines():
    print("  ", line)
print("squarefree incomparable leading terms:", verify_squarefree_initial(kernel))

asl2 = verify_asl2(inst)
print("\nsecond axiom (straightening relations with least labels):", asl2)
print("Sagbi verdict (both axioms):", asl1 and asl2)
