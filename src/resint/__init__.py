"""resint: exact witnesses for generic residual intersections.

A pure-Python computer-algebra library that builds the generator family
Q_1..Q_m plus all maximal minors of a generic m x n matrix, produces the
rank-sum witness polynomials that cut out the residual-intersection
variety set-theoretically, and verifies the whole chain of desk-checkable
facts behind them: the colon identity, radical equality, the straightening
law on the generator poset, the Sagbi/initial-algebra structure, and the
dimension count through an explicit transcendence basis.
"""

__version__ = "0.1.0"

from .groebner import (
    Budget,
    BudgetExceeded,
    GroebnerBasis,
    IdealBasis,
    buchberger,
    normal_form,
    quotient_dimension,
    radical_membership,
)
from .labels import GeneratorLabel, M, Q
from .poset import BPoset, is_wonderful, less_eq, straighten, witness_chain
from .residual import ResidualInstance, build_instance, hsop, specialize, verify_ara_witness
from .ring import (
    GF,
    QQ,
    GrevLex,
    Lex,
    Polynomial,
    PolynomialRing,
    ambient_ring,
    minor,
    poly_text,
    q_entry,
)
from .sagbi import initial_generators, toric_kernel, verify_squarefree_initial
from .transcendence import build_D, verify_transcendence_basis
