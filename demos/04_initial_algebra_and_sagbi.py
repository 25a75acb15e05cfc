"""The initial algebra: Sagbi certificate and squarefree toric kernel.

The leading monomials of the generators span a monomial algebra.  Its
presentation kernel is generated by quadratic binomials, one per
incomparable pair, each leading (under the tau order) with the
incomparable product - so the kernel's initial ideal is squarefree.
Lifting each binomial back to the actual generators and subducing to zero
certifies that the generators are a Sagbi basis of the algebra they span.
"""

from resint import build_instance, initial_generators, toric_kernel, verify_sagbi
from resint.sagbi import lift_to_generators, semigroup_dimension, subduce, verify_squarefree_initial

inst = build_instance(4, 2)

mam = initial_generators(inst)
print("initial monomials:")
for v in mam.pring.vars:
    print(f"  {v.text} = in({mam.legend[v].text}) = {mam.targets[v]}")

print("\nsemigroup dimension (exponent rank):", semigroup_dimension(mam))
print("poset rank (same number, independent route):", inst.poset.poset_rank())

kernel = toric_kernel(inst)
print("\ntoric kernel (reduced basis under the tau order):")
for g in kernel.generators:
    print("  ", g)
print("squarefree incomparable leading terms:", verify_squarefree_initial(kernel))

print("\nsubduction of each lifted binomial:")
for g in kernel.generators:
    lifted = lift_to_generators(mam, g)
    remainder = subduce(inst, lifted, mam=mam)
    print(f"  lift of {g}  ->  remainder {remainder}")
print("Sagbi certificate:", verify_sagbi(kernel))
