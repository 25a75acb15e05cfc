"""The acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them all)
and enforces the stated wall-clock budget.  All tolerances are exact:
these are polynomial identities, integer counts, and byte comparisons.
"""

from __future__ import annotations

import time
from pathlib import Path

from resint.cli import RunConfig, cmd_generate
from resint.groebner import IdealBasis, colon_ideal, ideal_equal
from resint.labels import M, Q
from resint.poset import (
    BPoset,
    hasse_edges,
    incomparable_pairs,
    is_wonderful,
    straighten,
    verify_asl1,
    verify_asl2,
)
from resint.residual import (
    build_instance,
    hsop,
    upper_bound_table,
    verify_ara_witness,
    verify_colon_identity,
)
from resint.ring import GF, PolynomialRing, poly_text, yvar
from resint.sagbi import (
    initial_generators,
    semigroup_dimension,
    toric_kernel,
    verify_sagbi,
    verify_squarefree_initial,
)
from resint.transcendence import verify_transcendence_basis

GOLDEN = Path(__file__).parent / "golden"
FP = GF(32003)


def report(number: int, label: str, ok: bool, started: float, budget: float):
    elapsed = time.monotonic() - started
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status} ({elapsed:6.2f}s <= {budget:g}s)  {label}")
    assert ok, f"criterion {number} failed: {label}"
    assert elapsed < budget, f"criterion {number} blew its {budget}s budget ({elapsed:.2f}s)"


def test_criterion_01_golden_hsop(tmp_path):
    started = time.monotonic()
    cmd_generate(RunConfig(m=4, n=2, field_name="Q", output_dir=tmp_path))
    got = (tmp_path / "hsop.poly").read_bytes()
    golden = (GOLDEN / "hsop_4_2.poly").read_bytes()
    # independent reconstruction from the worked grouping of the witnesses
    inst = build_instance(4, 2)
    groups = [
        [Q(1)], [Q(2)], [Q(3), M([1, 2])], [Q(4), M([1, 3])],
        [M([1, 4]), M([2, 3])], [M([2, 4])], [M([3, 4])],
    ]
    rebuilt = "".join(
        poly_text(sum((inst.polynomials[lab] for lab in grp), inst.ring.zero)) + "\n"
        for grp in groups
    )
    ok = got == golden and got.decode() == rebuilt
    report(1, "(4,2) witness list byte-exact against golden file", ok, started, 1.0)


def test_criterion_02_poset_rank_formula():
    started = time.monotonic()
    ok = all(
        BPoset(m, n).poset_rank() == n * (m - n + 1) + 1
        for m in range(2, 9)
        for n in range(2, m + 1)
    )
    report(2, "poset rank n(m-n+1)+1 for all 2 <= n <= m <= 8", ok, started, 5.0)


def test_criterion_03_radical_equality():
    started = time.monotonic()
    ok = True
    for m, n in [(2, 2), (3, 2), (4, 2), (3, 3)]:
        cert = verify_ara_witness(build_instance(m, n, field=FP))
        ok = ok and cert.verdict and all(c["verdict"] for c in cert.checks)
    report(3, "radical equality sqrt(witnesses) = sqrt(ideal) over F_32003", ok, started, 120.0)


def test_criterion_04_colon_identity():
    started = time.monotonic()
    ok = all(
        verify_colon_identity(build_instance(m, n, field=FP))
        for m, n in [(2, 2), (3, 2)]
    )
    report(4, "colon identity (Xy):(y) = I_n(X)+(Xy) for (2,2), (3,2)", ok, started, 60.0)


def test_criterion_05_hasse_diagram():
    started = time.monotonic()
    edges = {(a.text, b.text) for a, b in hasse_edges(BPoset(4, 2))}
    expected = {
        ("Q1", "Q2"), ("Q2", "Q3"), ("Q2", "[1,2]"), ("Q3", "Q4"),
        ("Q3", "[1,3]"), ("[1,2]", "[1,3]"), ("Q4", "[1,4]"), ("[1,3]", "[1,4]"),
        ("[1,3]", "[2,3]"), ("[1,4]", "[2,4]"), ("[2,3]", "[2,4]"), ("[2,4]", "[3,4]"),
    }
    ok = edges == expected and len(edges) == 12
    report(5, "(4,2) Hasse diagram: exactly the 12 worked cover edges", ok, started, 5.0)


def test_criterion_06_asl1():
    started = time.monotonic()
    ok = verify_asl1(build_instance(4, 2), 3) and verify_asl1(build_instance(3, 3), 2)
    report(6, "standard-monomial leading terms distinct + spanning", ok, started, 30.0)


def test_criterion_07_asl2():
    started = time.monotonic()
    ok = True
    for m, n in [(4, 2), (3, 3)]:
        inst = build_instance(m, n)
        ok = ok and verify_asl2(inst)
        for a, b in incomparable_pairs(inst.poset):
            rel = straighten(inst, a, b)
            ok = ok and rel.verify(inst) and rel.min_label_condition()
    report(7, "every straightening relation exact with least labels below", ok, started, 60.0)


def test_criterion_08_wonderful():
    started = time.monotonic()
    ok = all(is_wonderful(BPoset(m, n)) for m in range(2, 7) for n in range(2, m + 1))
    report(8, "wonderful-poset condition for all 2 <= n <= m <= 6", ok, started, 10.0)


def test_criterion_09_sagbi():
    started = time.monotonic()
    ok = all(verify_sagbi(toric_kernel(build_instance(m, n))) for m, n in [(3, 2), (4, 2), (3, 3)])
    report(9, "all toric-kernel lifts subduce to zero", ok, started, 120.0)


def test_criterion_10_squarefree_initial():
    started = time.monotonic()
    ok = all(
        verify_squarefree_initial(toric_kernel(build_instance(m, n))) for m, n in [(4, 2), (3, 3)]
    )
    report(10, "reduced kernel basis has squarefree incomparable leading terms", ok, started, 120.0)


def test_criterion_11_dimension_triple_agreement():
    started = time.monotonic()
    ok = True
    for m, n in [(2, 2), (3, 2), (4, 2), (3, 3)]:
        inst = build_instance(m, n)
        a = inst.poset.poset_rank()
        b = semigroup_dimension(initial_generators(inst))
        c = verify_transcendence_basis(m, n).dimension
        ok = ok and a == b == c == n * (m - n + 1) + 1
    report(11, "poset rank = semigroup rank = transcendence dimension", ok, started, 60.0)


def test_criterion_12_transcendence_certificates():
    started = time.monotonic()
    ok = True
    for m, n in [(4, 2), (3, 2), (3, 3)]:
        cert = verify_transcendence_basis(m, n)
        ok = (
            ok
            and cert.verdict
            and cert.independence.verdict
            and all(r["verified"] for r in cert.rewrites)
        )
    report(12, "specialized closed forms, full-rank exponents, rewrites over D", ok, started, 120.0)


def test_criterion_13_self_linkage():
    started = time.monotonic()
    ok = True
    for n in range(1, 5):
        ring = PolynomialRing(FP, [yvar(i) for i in range(1, n + 1)])
        ys = [ring.var(yvar(i)) for i in range(1, n + 1)]
        I = IdealBasis(ring, ys[:-1] + [ys[-1] * ys[-1]])
        J = IdealBasis(ring, ys)
        ok = ok and ideal_equal(colon_ideal(I, J), J)
    report(13, "self-linkage (y1..y_{n-1}, y_n^2):(y) = (y) for n <= 4", ok, started, 5.0)


def test_criterion_14_single_column_witnesses():
    started = time.monotonic()
    ok = True
    for m in range(1, 7):
        inst = build_instance(m, 1, field=FP)
        witnesses = hsop(inst)
        cert = verify_ara_witness(inst)
        ok = ok and len(witnesses) == m and cert.verdict
    report(14, "n = 1 instances verified with witness sets of size m", ok, started, 30.0)


def test_criterion_15_upper_bound_table():
    started = time.monotonic()
    rows = upper_bound_table(12)
    ok = all(r["difference"] == r["m"] - r["n"] for r in rows)
    ok = ok and len(rows) == sum(m for m in range(1, 13))
    report(15, "naive bound minus witness count = m - n up to m = 12", ok, started, 5.0)
