"""Dimension by transcendence basis, from first principles.

A hand-picked subset D of the generators (all the Q's, the main minor, and
the row-exchange minors M_{i,j}) has exactly n(m-n+1)+1 elements.  A
monomial specialization shows D is algebraically independent, and every
other generator is a rational function of D with denominators only the
main minor and Q_1.  That pins the dimension without any poset theory.
"""

import json

from resint import M, build_D, build_instance, verify_transcendence_basis
from resint.poset import StraighteningRelation
from resint.transcendence import (
    DContext,
    _prefix,
    independence_by_exponents,
    plucker_relation,
    specialize_D,
    verify_rewrite,
)

m, n = 4, 2
inst = build_instance(m, n)
D = build_D(m, n)
print("D =", [l.text for l in D], f" (size {len(D)} = {n}*({m}-{n}+1)+1)")

print("\nspecialized closed forms (each a single signed monomial):")
for label, poly in specialize_D(inst).items():
    print(f"  {label.text:6s} -> {poly}")

report = independence_by_exponents(inst)
print(f"\nexponent matrix rank {report.rank} of {report.size} rows: independent = {report.verdict}")

terms = plucker_relation(inst.ring, (1,), (2, 3, 4))
print("\nthe three-term exchange relation (the terms sum to zero):")
for c, (a, b) in terms:
    print(f"  {c:+d} * {a.text} * {b.text}")
rel = StraighteningRelation.solve(terms, (M([1, 4]), M([2, 3])))
print("solved:", rel.text, "| re-expands:", rel.verify(inst))

ctx = DContext(inst)
frac = ctx.fraction(M([2, 3]))
print("\n[2,3] over D:", json.dumps(_prefix(frac)))
print("cleared-denominator identity holds:", verify_rewrite(ctx, M([2, 3]), frac))

cert = verify_transcendence_basis(inst)
print("\nfull certificate verdict:", cert.verdict, "| dimension:", cert.dimension)
