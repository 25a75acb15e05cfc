"""Exact polynomials, the generator family, and leading monomials.

The whole library works with sparse polynomials over exact coefficients
(rationals or a prime field).  The objects of interest live in the ring
K[X, y] for a generic m x n matrix X of indeterminates and a column y: the
bilinear entries Q_i of X*y and the maximal minors of X.
"""

from resint import GF, QQ, M, Q, ambient_ring, build_instance, minor, poly_text, q_entry
from resint.poset import StraighteningRelation, bordered_relation
from resint.ring import monomial_text

# a 4 x 2 matrix of variables over the rationals
R = ambient_ring(4, 2, field=QQ)

q1 = q_entry(R, 1)
print("Q1          =", q1)

m12 = minor(R, [1, 2])
print("[1,2]       =", m12)

print("Q3 + [1,2]  =", q_entry(R, 3) + m12)

# Leading monomials under the built-in order: Q_i leads with x[i][n]*y[n],
# a minor leads with its main diagonal.  Everything downstream (the
# straightening law, the Sagbi property) hangs on these two facts.  A
# monomial is its exponent tuple over the ring's variables, y1 first.
print("lm(Q1)      =", q1.leading_monomial(), "=", monomial_text(R, q1.leading_monomial()))
print("lm([1,2])   =", monomial_text(R, m12.leading_monomial()))

# The bordered determinant: append the Q column to the X rows {1,2,3}.
# The matrix is singular, so the cofactor expansion along the Q column is
# a relation among the products Q_i * [rows]; solved for Q3*[1,2] it is
# the straightening relation of that product, checked by re-expansion.
terms = bordered_relation((1, 2, 3))
print("cofactors   =", terms, "(sum is zero)")
rel = StraighteningRelation.solve(terms, (Q(3), M([1, 2])))
print("solved      :", rel.text)
print("re-expands  :", rel.verify(build_instance(4, 2)))

# The same objects over a prime field: residues instead of fractions.
Rp = ambient_ring(4, 2, field=GF(32003))
print("over F_32003:", poly_text(minor(Rp, [1, 2])))
