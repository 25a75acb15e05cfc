"""The rank-sum witnesses and the radical-equality certificate.

The ideal I_n(X) + (X y) needs m + C(m, n) generators, but its vanishing
locus is cut out set-theoretically by only n(m-n+1)+1 polynomials: the
rank sums of the generator poset.  This demo builds the witnesses for
(m, n) = (4, 2) and certifies sqrt(witnesses) = sqrt(ideal) over Z: for a
generator g of rank r, g^2 = g*s_r - (g times the others of rank r), and
each of those products straightens, with integer coefficients, into
products whose first factor has lower rank.
"""

from resint import build_instance, hsop, verify_ara_witness

inst = build_instance(4, 2)

print(f"generators: {len(inst.labels)}  (4 bilinear entries + 6 maximal minors)")

print("\nrank classes and their sums (the witnesses):")
for r, (cls, w) in enumerate(zip(inst.poset.rank_classes(), hsop(inst)), start=1):
    names = " + ".join(lab.text for lab in cls)
    print(f"  rank {r}: {names:18s} = {w}")

cert = verify_ara_witness(inst)
print(f"\nradical-equality certificate (holds over {cert.as_dict()['holds_over']}):")
for rel in cert.relations:
    print(f"  rank {rel['rank']}: {rel['relation']}  verdict={rel['verdict']}")
print("overall verdict:", cert.verdict)
print("witness count:", len(hsop(inst)), "= 2*(4-2+1)+1")

# the n = 1 case is special: the witnesses are just the column variables
inst1 = build_instance(5, 1)
print("\nn=1 witnesses:", [str(w) for w in hsop(inst1)])
print("n=1 certificate:", [rel["relation"] for rel in verify_ara_witness(inst1).relations])
