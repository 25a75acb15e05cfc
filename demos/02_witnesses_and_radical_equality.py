"""The rank-sum witnesses and the radical-equality certificate.

The ideal I_n(X) + (X y) needs m + C(m, n) generators, but its vanishing
locus is cut out set-theoretically by only n(m-n+1)+1 polynomials: the
rank sums of the generator poset.  This demo builds the witnesses for
(m, n) = (4, 2) and certifies sqrt(witnesses) = sqrt(ideal) over F_32003.
"""

from resint import GF, build_instance, hsop, verify_ara_witness

inst = build_instance(4, 2, field=GF(32003))

print(f"generators: {len(inst.labels)}  (4 bilinear entries + 6 maximal minors)")

print("\nrank classes and their sums (the witnesses):")
for r, (cls, w) in enumerate(zip(inst.poset.rank_classes(), hsop(inst)), start=1):
    names = " + ".join(lab.text for lab in cls)
    print(f"  rank {r}: {names:18s} = {w}")

print("\nradical-equality certificate:")
cert = verify_ara_witness(inst)
for check in cert.checks:
    print(f"  {check['generator']:>6s}: {check['method']:18s} verdict={check['verdict']}")
print("overall verdict:", cert.verdict)
print("witness count:", len(cert.hsop_texts), "= 2*(4-2+1)+1")

# the n = 1 case is special: the witnesses are just the column variables
inst1 = build_instance(5, 1, field=GF(32003))
print("\nn=1 witnesses:", [str(w) for w in hsop(inst1)])
