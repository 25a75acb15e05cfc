"""Every Buchberger run of a small fixed workload, as comparable records.

Covers each monomial order kind over both fields: radical membership of
every generator that is not a witness at (4,2) over F_32003, in label
order (grevlex), the colon identity by elimination at (3,2) over F_32003
(block, grevlex) and the toric kernel by elimination at (4,2) and (4,3)
over Q (block, tau), both from `references.py`, and a lex basis of the
(3,2) residual ideal over Q.
Each record holds the run's input hash, order, pair count, peak term
count and the text of the basis it returned.

    PYTHONPATH=src python tests/groebner_runs.py > tests/golden/groebner_runs.json

wrote the golden file that `tests/test_groebner.py` compares against.
"""

from __future__ import annotations

import json

import pytest

from references import colon_identity_by_elimination, elimination_kernel
from resint import groebner
from resint.residual import build_instance, hsop
from resint.ring import GF, QQ, Lex, poly_text


def collect_runs() -> list[dict]:
    records = []
    real = groebner.buchberger

    def recording(*args, **kwargs):
        G = real(*args, **kwargs)
        records.append(
            {
                "input_hash": G.trace.input_hash,
                "order": G.trace.order,
                "pairs": G.trace.pairs,
                "max_terms": G.trace.max_terms,
                "basis": [poly_text(g) for g in G.elements],
            }
        )
        return G

    fp = GF(32003)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groebner, "buchberger", recording)
        inst = build_instance(4, 2, field=fp)
        witnesses = hsop(inst)
        for g in inst.generators():
            if g not in witnesses:
                groebner.radical_membership(g, groebner.IdealBasis(inst.ring, witnesses))
        colon_identity_by_elimination(build_instance(3, 2, field=fp))
        elimination_kernel(build_instance(4, 2, field=QQ))
        elimination_kernel(build_instance(4, 3, field=QQ))
        groebner.buchberger(build_instance(3, 2, field=QQ).ideal(), order=Lex())
    return records


if __name__ == "__main__":
    print(json.dumps(collect_runs(), indent=1))
