"""The command-line surface: files, golden comparison, reports, exit codes."""

from __future__ import annotations

import itertools
import json
import sys
import time
import types
from pathlib import Path

import pytest

from resint.cli import (
    ALL_CHECKS,
    RunConfig,
    cmd_generate,
    cmd_table,
    cmd_verify,
    main,
    parse_field,
)
from resint.groebner import Budget
from resint.labels import M, Q
from resint.ring import QQ

GOLDEN = Path(__file__).parent / "golden"


def config(tmp_path, **kw):
    defaults = dict(m=4, n=2, field_name="Fp:32003", output_dir=tmp_path)
    defaults.update(kw)
    return RunConfig(**defaults)


# ---------------------------------------------------------------------------
# generate


def test_generate_writes_expected_files(tmp_path):
    written = cmd_generate(config(tmp_path, field_name="Q"))
    names = {p.name for p in written}
    assert names == {"generators.poly", "hsop.poly", "hasse.dot", "transcendence_basis.poly"}


def test_generate_42_hsop_golden_bytes(tmp_path):
    cmd_generate(config(tmp_path, field_name="Q"))
    got = (tmp_path / "hsop.poly").read_bytes()
    assert got == (GOLDEN / "hsop_4_2.poly").read_bytes()


def test_generate_22_counts(tmp_path):
    cmd_generate(config(tmp_path, m=2, n=2, field_name="Q"))
    assert len((tmp_path / "generators.poly").read_text().splitlines()) == 3
    assert len((tmp_path / "hsop.poly").read_text().splitlines()) == 3


def test_generate_53_counts(tmp_path):
    cmd_generate(config(tmp_path, m=5, n=3, field_name="Q"))
    assert len((tmp_path / "generators.poly").read_text().splitlines()) == 5 + 10
    assert len((tmp_path / "hsop.poly").read_text().splitlines()) == 10


def test_generate_n1_skips_transcendence_file(tmp_path):
    cmd_generate(config(tmp_path, m=3, n=1, field_name="Q"))
    assert not (tmp_path / "transcendence_basis.poly").exists()
    assert len((tmp_path / "hsop.poly").read_text().splitlines()) == 3


def test_generate_dot_edge_count(tmp_path):
    cmd_generate(config(tmp_path, field_name="Q"))
    assert (tmp_path / "hasse.dot").read_text().count("->") == 12


# ---------------------------------------------------------------------------
# verify


def test_verify_22_radical_only(tmp_path):
    report, code = cmd_verify(config(tmp_path, m=2, n=2), ["radical"])
    assert code == 0
    assert report["checks"]["radical"]["verdict"] is True
    assert report["verdict"] is True


def test_verify_32_dims_agree(tmp_path):
    report, code = cmd_verify(config(tmp_path, m=3, n=2), ["dims"])
    assert code == 0
    values = report["checks"]["dims"]["values"]
    assert values == {"poset_rank": 5, "semigroup_rank": 5, "transcendence": 5}


def test_verify_42_all_checks(tmp_path):
    report, code = cmd_verify(config(tmp_path), list(ALL_CHECKS))
    assert code == 0
    assert all(entry["verdict"] is True for entry in report["checks"].values())
    assert report["witness_count"] == {"actual": 7, "expected": 7}


def test_verify_32_matches_golden_report(tmp_path):
    cmd_verify(config(tmp_path, m=3, n=2), list(ALL_CHECKS))
    assert (tmp_path / "report.json").read_bytes() == (GOLDEN / "report_3_2.json").read_bytes()


def _count_calls(monkeypatch, names) -> dict:
    """Count the calls of each named function, in every resint module that
    holds it by name."""
    calls = dict.fromkeys(names, 0)
    modules = [m for k, m in sys.modules.items() if k == "resint" or k.startswith("resint.")]
    for module in modules:
        for name in names:
            if not hasattr(module, name):
                continue

            def counted(*args, _name=name, _real=getattr(module, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("m,n", [(5, 3), (6, 5), (4, 1)])
@pytest.mark.parametrize("field_name", ["Q", "Fp:32003"])
def test_no_check_builds_a_generator_polynomial(tmp_path, monkeypatch, m, n, field_name):
    # every check and every printed text reads the packed tables: no
    # generator is unpacked into a Polynomial on a run that ends normally
    from resint.residual import ResidualInstance

    calls = []
    real = ResidualInstance.polynomial
    monkeypatch.setattr(ResidualInstance, "polynomial", lambda inst, lab: calls.append(lab) or real(inst, lab))
    _, code = cmd_verify(config(tmp_path, m=m, n=n, field_name=field_name), list(ALL_CHECKS))
    assert code == 0
    assert calls == []


@pytest.mark.parametrize("m,n", [(5, 3), (4, 2), (8, 1)])
@pytest.mark.parametrize("field_name", ["Q", "Fp:32003"])
def test_squarefree_multiplies_no_polynomial_and_builds_no_presentation_ring(tmp_path, monkeypatch, m, n, field_name):
    # the kernel, its verdict and its texts are read off label pairs and tau
    # positions: the one ring built is the instance's, and nothing is
    # multiplied
    from resint.ring import Polynomial, PolynomialRing, ambient_variables

    rings, products = [], []
    real_init, real_mul = PolynomialRing.__init__, Polynomial.__mul__

    def init(ring, field, variables, order=None):
        rings.append(tuple(variables))
        real_init(ring, field, variables, order)

    monkeypatch.setattr(PolynomialRing, "__init__", init)
    monkeypatch.setattr(Polynomial, "__mul__", lambda f, g: products.append((f, g)) or real_mul(f, g))
    report, code = cmd_verify(config(tmp_path, m=m, n=n, field_name=field_name), ["squarefree"])
    assert code == 0
    assert report["checks"]["squarefree"]["verdict"] is True
    assert report["checks"]["squarefree"]["kernel"]
    assert products == []
    assert rings == [tuple(ambient_variables(m, n))]


def test_verify_computes_shared_results_once(tmp_path, monkeypatch):
    shared = ("build_instance", "verify_asl1", "verify_asl2", "toric_kernel", "verify_transcendence_basis")
    calls = _count_calls(monkeypatch, shared + ("buchberger",))
    _, code = cmd_verify(config(tmp_path / "all"), list(ALL_CHECKS))
    assert code == 0
    # no check runs Buchberger, colon included
    assert calls["buchberger"] == 0
    # one instance, over Q, under --field Fp:32003; each axiom, the kernel
    # and the transcendence certificate once
    assert {name: calls[name] for name in shared} == {
        "build_instance": 1,
        "verify_asl1": 1,
        "verify_asl2": 1,
        "toric_kernel": 1,
        "verify_transcendence_basis": 1,
    }
    # each check alone, over Q, reaches Buchberger neither
    for check in ALL_CHECKS:
        calls.update(dict.fromkeys(calls, 0))
        _, code = cmd_verify(config(tmp_path / check, field_name="Q"), [check])
        assert code == 0
        assert calls["buchberger"] == 0
    structural = [c for c in ALL_CHECKS if c not in ("radical", "colon")]
    calls.update(dict.fromkeys(calls, 0))
    _, code = cmd_verify(config(tmp_path / "structural", field_name="Q"), structural)
    assert code == 0
    assert calls["verify_asl1"] == calls["verify_asl2"] == 1


@pytest.mark.parametrize("field_name", ["Q", "Fp:32003", "Fp:2"])
def test_one_instance_and_colon_over_z_under_every_field(tmp_path, monkeypatch, field_name):
    calls = _count_calls(monkeypatch, ("build_instance",))
    report, code = cmd_verify(config(tmp_path, m=3, n=2, field_name=field_name), list(ALL_CHECKS))
    assert code == 0
    assert calls["build_instance"] == 1
    assert report["checks"]["colon"] == {"verdict": True, "holds_over": "Z"}


def test_transbasis_and_dims_share_the_run_instance(tmp_path, monkeypatch):
    from resint import cli

    built = []

    def counted(*args, _real=cli.build_instance, **kwargs):
        built.append(args)
        return _real(*args, **kwargs)

    monkeypatch.setattr(cli, "build_instance", counted)
    _, code = cmd_verify(config(tmp_path, field_name="Q"), ["transbasis", "dims"])
    assert code == 0
    assert len(built) == 1


def test_verify_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    cmd_verify(config(a, m=3, n=2), ["radical", "dims", "wonderful"])
    cmd_verify(config(b, m=3, n=2), ["radical", "dims", "wonderful"])
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


def test_budget_exceeded_reports_also_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        cmd_verify(config(d, m=3, n=2, budget=Budget(max_pairs=3)), ["colon"])
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


def test_verify_budget_exhaustion_exit_2(tmp_path):
    cfg = config(tmp_path, m=3, n=2, budget=Budget(max_pairs=2))
    report, code = cmd_verify(cfg, ["colon"])
    assert code == 2
    entry = report["checks"]["colon"]
    assert entry["budget_exceeded"] is True
    assert entry["verdict"] is None
    # partial report is still well-formed on disk
    parsed = json.loads((tmp_path / "report.json").read_text())
    assert parsed["verdict"] is False


def test_radical_wall_budget_exit_2(tmp_path):
    cfg = config(tmp_path, budget=Budget(wall_seconds=1e-9))
    report, code = cmd_verify(cfg, ["radical"])
    assert code == 2
    stats = report["checks"]["radical"]["stats"]
    assert stats["partial_certificate"]["relations"]


def test_asl_degree_3_wall_budget_exit_2(tmp_path):
    cfg = config(tmp_path, field_name="Q", degree_bound=3, budget=Budget(wall_seconds=1e-9))
    report, code = cmd_verify(cfg, ["asl"])
    assert code == 2
    assert report["checks"]["asl"]["budget_exceeded"] is True


#: the stats keys of a budget-hit report, for the checks that fix them
LATTICE_STATS = {
    "asl": {"lattice_rows_checked", "pairs_checked"},
    "sagbi": {"lattice_rows_checked", "pairs_checked"},
    "squarefree": {"lattice_rows_checked"},
}


@pytest.mark.parametrize("checks", [["asl"], ["transbasis"], ["sagbi"], ["squarefree"]])
def test_structure_wall_budget_exit_2(tmp_path, checks):
    cfg = config(tmp_path, field_name="Q", budget=Budget(wall_seconds=1e-9))
    report, code = cmd_verify(cfg, checks)
    assert code == 2
    entry = report["checks"][checks[0]]
    assert entry["budget_exceeded"] is True
    if checks[0] in LATTICE_STATS:
        assert set(entry["stats"]) == LATTICE_STATS[checks[0]]


@pytest.mark.parametrize(
    "checks, wall_seconds, stats",
    [
        ("asl", 2, {"lattice_rows_checked": 2, "pairs_checked": 0}),
        ("asl", 42, {"lattice_rows_checked": 42, "pairs_checked": 42}),
        ("sagbi", 2, {"lattice_rows_checked": 2, "pairs_checked": 0}),
        ("sagbi", 42, {"lattice_rows_checked": 42, "pairs_checked": 42}),
        ("asl,sagbi", 2, {"lattice_rows_checked": 2, "pairs_checked": 0}),
        ("asl,sagbi", 42, {"lattice_rows_checked": 42, "pairs_checked": 42}),
    ],
    ids=[
        "in asl1", "in asl2", "sagbi in asl1", "sagbi in asl2",
        "asl+sagbi in asl1", "asl+sagbi in asl2",
    ],
)
def test_asl_budget_stats_repeat_exactly(tmp_path, monkeypatch, checks, wall_seconds, stats):
    # each clock read advances one second: the budget runs out in the
    # lattice rows of axiom 1 or in the pairs of axiom 2 at (7,3), which
    # has 42 elements, and the stats keep the same keys either way
    from resint import poset

    names = checks.split(",")
    seen = []
    for run in range(3):
        clock = types.SimpleNamespace(monotonic=itertools.count().__next__)
        monkeypatch.setattr(poset, "time", clock)
        budget = Budget(wall_seconds=wall_seconds)
        cfg = config(tmp_path / str(run), m=7, n=3, field_name="Q", budget=budget)
        report, code = cmd_verify(cfg, names)
        assert code == 2
        seen.append([report["checks"][name]["stats"] for name in names])
    assert seen == [[stats] * len(names)] * 3


def test_a_budget_hit_is_attempted_once_per_run(tmp_path, monkeypatch):
    calls = _count_calls(monkeypatch, ("verify_asl1", "verify_transcendence_basis"))
    checks = ["asl", "sagbi", "squarefree", "transbasis", "dims"]
    cfg = config(tmp_path, field_name="Q", budget=Budget(wall_seconds=1e-9))
    report, code = cmd_verify(cfg, checks)
    assert code == 2
    assert calls == {"verify_asl1": 1, "verify_transcendence_basis": 1}
    assert all(report["checks"][c]["budget_exceeded"] for c in checks)
    assert report["checks"]["asl"]["stats"] == report["checks"]["sagbi"]["stats"]
    assert report["checks"]["transbasis"]["stats"] == report["checks"]["dims"]["stats"]


@pytest.mark.parametrize("m,n", [(4, 2), (5, 3), (6, 5), (9, 3), (8, 1), (5, 5)])
@pytest.mark.parametrize("field_name", ["Q", "Fp:2", "Fp:32003"])
def test_texts_from_the_packed_tables_match_poly_text(m, n, field_name):
    # every generator and witness text, each term printed once from the
    # packed tables, against poly_text of the generators built by minor and
    # q_entry and of the witnesses summed from those generators (the
    # variables x[i][1] at n = 1); hsop, merged from the tables, agrees
    from resint.cli import _texts
    from resint.residual import build_instance, hsop
    from resint.ring import minor, poly_text, q_entry, xvar

    field = parse_field(field_name)
    inst = build_instance(m, n)
    generators, witnesses = _texts(inst, field)
    ring = inst.ring
    reference = {lab: q_entry(ring, lab.q_index) if lab.is_q else minor(ring, lab.rows) for lab in inst.labels}
    if n == 1:
        summed = [ring.var(xvar(i, 1)) for i in range(1, m + 1)]
    else:
        summed = [sum((reference[lab] for lab in cls), ring.zero) for cls in inst.poset.rank_classes()]
    assert generators == [poly_text(reference[lab], field) for lab in inst.labels]
    assert witnesses == [poly_text(w, field) for w in summed]
    assert hsop(inst) == summed


def _swapped_minors(monkeypatch):
    # [1,2] and [3,4] trade packed tables at (4,2), so neither lead is its
    # closed form x[r_1][1]*x[r_2][2]
    from resint import cli

    real = cli.build_instance

    def built(*args, **kwargs):
        inst = real(*args, **kwargs)
        packed = inst.packed
        packed[M([1, 2])], packed[M([3, 4])] = packed[M([3, 4])], packed[M([1, 2])]
        return inst

    monkeypatch.setattr(cli, "build_instance", built)


def _shared_leading_monomial(monkeypatch):
    # Q2 gets Q1's packed table, and with it Q1's leading monomial
    from resint import cli

    real = cli.build_instance

    def built(*args, **kwargs):
        inst = real(*args, **kwargs)
        inst.packed[Q(2)] = inst.packed[Q(1)]
        return inst

    monkeypatch.setattr(cli, "build_instance", built)


def _rank_one_short(monkeypatch):
    from resint import linalg

    real = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda rows: real(rows) - 1)


@pytest.mark.parametrize(
    "mutate",
    [_swapped_minors, _shared_leading_monomial, _rank_one_short],
    ids=["swapped minors", "shared leading monomial", "rank one short"],
)
def test_a_refuted_lattice_certificate_fails_asl_sagbi_squarefree(tmp_path, monkeypatch, mutate):
    mutate(monkeypatch)
    report, code = cmd_verify(config(tmp_path, field_name="Q"), ["asl", "sagbi", "squarefree"])
    assert code == 1
    assert [report["checks"][c]["verdict"] for c in ("asl", "sagbi", "squarefree")] == [False] * 3
    assert report["checks"]["asl"]["asl1"] is False
    assert report["checks"]["squarefree"]["kernel"] == []


def test_sagbi_wall_budget_exit_2_with_counters(tmp_path, monkeypatch):
    # the clock runs out once the first pair of axiom 2 is straightened:
    # all 10 lattice rows and one pair are done
    from resint import poset

    done = []
    real = poset.straighten

    def counted(*args, **kwargs):
        done.append(True)
        return real(*args, **kwargs)

    clock = types.SimpleNamespace(monotonic=lambda: time.monotonic() + (1e9 if done else 0))
    monkeypatch.setattr(poset, "time", clock)
    monkeypatch.setattr(poset, "straighten", counted)
    report, code = cmd_verify(config(tmp_path), ["sagbi"])
    assert code == 2
    assert report["checks"]["sagbi"]["budget_exceeded"] is True
    assert report["checks"]["sagbi"]["stats"] == {"lattice_rows_checked": 10, "pairs_checked": 1}


def test_each_run_reexpands_its_own_relations(tmp_path, reexpansions):
    # the pattern tables live on the run's instance, so a second run in the
    # same process re-expands as much as the first
    counts = []
    for _ in range(2):
        report, code = cmd_verify(config(tmp_path, m=7, n=3, field_name="Q"), ["radical", "asl", "transbasis"])
        assert code == 0
        counts.append(len(reexpansions))
        reexpansions.clear()
    assert counts[0] == counts[1] > 0


def _row_pattern(*labels):
    """The labels with the rows they use renamed to 1..k, in order."""
    rows = sorted({r for l in labels for r in ((l.q_index,) if l.is_q else l.rows)})
    f = {r: i for i, r in enumerate(rows, start=1)}
    return tuple(Q(f[l.q_index]) if l.is_q else M(f[r] for r in l.rows) for l in labels)


def _later_pairs(pairs) -> set:
    """The pairs that come after another pair of the same row pattern."""
    seen = set()
    later = set()
    for a, b in pairs:
        key = _row_pattern(a, b)
        if key in seen:
            later.add((a, b))
        seen.add(key)
    return later


@pytest.mark.parametrize("checks", [["radical"]])
def test_a_flipped_coefficient_on_a_later_pair_of_its_pattern_fails(tmp_path, monkeypatch, checks):
    # the re-expansion memo is keyed by the whole relation: a pair whose
    # pattern was verified before must still fail once its relation is wrong
    from resint import poset, residual
    from resint.poset import incomparable_pairs

    inst = residual.build_instance(7, 3)
    same_rank = [p for cls in inst.poset.rank_classes() for p in itertools.combinations(cls, 2)]
    later = _later_pairs(same_rank) & _later_pairs(incomparable_pairs(inst.poset))
    target = next(p for p in same_rank if p in later)
    real = poset.straighten

    def flipped(instance, a, b):
        rel = real(instance, a, b)
        if (a, b) != target:
            return rel
        (c, pair), *rest = rel.right
        return poset.StraighteningRelation(rel.left, ((-c, pair), *rest))

    monkeypatch.setattr(poset, "straighten", flipped)
    monkeypatch.setattr(residual, "straighten", flipped)
    report, code = cmd_verify(config(tmp_path, m=7, n=3, field_name="Q"), checks)
    assert code == 1
    assert all(report["checks"][c]["verdict"] is False for c in checks)


@pytest.mark.parametrize("checks", [["asl"], ["radical", "asl"]])
def test_a_flipped_coefficient_on_an_own_pattern_pair_fails(tmp_path, monkeypatch, checks):
    # axiom 2 straightens the pairs whose rows are 1..k; [1,3,5]*[2,3,4] is
    # one, and both minors have rank 7, so radical straightens it too
    from resint import poset, residual

    target = (M([1, 3, 5]), M([2, 3, 4]))
    rows = poset._to_pattern(target)
    assert max(rows) == len(rows)
    real = poset.straighten

    def flipped(instance, a, b):
        rel = real(instance, a, b)
        if (a, b) != target:
            return rel
        (c, pair), *rest = rel.right
        return poset.StraighteningRelation(rel.left, ((-c, pair), *rest))

    monkeypatch.setattr(poset, "straighten", flipped)
    monkeypatch.setattr(residual, "straighten", flipped)
    report, code = cmd_verify(config(tmp_path, m=7, n=3, field_name="Q"), checks)
    assert code == 1
    assert all(report["checks"][c]["verdict"] is False for c in checks)
    assert (report["checks"]["asl"]["asl1"], report["checks"]["asl"]["asl2"]) == (True, False)


def test_a_flipped_straightening_coefficient_fails_asl_and_sagbi(tmp_path, monkeypatch):
    # Q3*[1,2] keeps its least labels but no longer re-expands; the
    # lattice, and with it the kernel, is untouched
    from resint import poset

    real = poset.straighten

    def flipped(instance, a, b):
        rel = real(instance, a, b)
        if {a, b} != {Q(3), M([1, 2])}:
            return rel
        (c, pair), *rest = rel.right
        return poset.StraighteningRelation(rel.left, ((-c, pair), *rest))

    monkeypatch.setattr(poset, "straighten", flipped)
    report, code = cmd_verify(config(tmp_path, field_name="Q"), ["asl", "sagbi", "squarefree"])
    assert code == 1
    checks = report["checks"]
    assert (checks["asl"]["asl1"], checks["asl"]["asl2"]) == (True, False)
    assert [checks[c]["verdict"] for c in ("asl", "sagbi", "squarefree")] == [False, False, True]


def test_a_tau_order_that_is_no_linear_extension_fails_squarefree(tmp_path, monkeypatch):
    # with [2,3] first, the binomial of [1,4]*[2,3] leads with the chain
    # [1,3]*[2,4]
    from resint import sagbi

    real = sagbi.tau_sequence

    def mixed(instance):
        first = instance.labels.index(M([2, 3]))
        return [first] + [k for k in real(instance) if k != first]

    monkeypatch.setattr(sagbi, "tau_sequence", mixed)
    report, code = cmd_verify(config(tmp_path, field_name="Q"), ["squarefree"])
    assert code == 1
    assert report["checks"]["squarefree"]["verdict"] is False


def test_dims_counts_only_a_proved_transcendence_dimension(tmp_path, monkeypatch):
    from resint import transcendence

    monkeypatch.setattr(transcendence, "verify_rewrite", lambda *args: False)
    report, code = cmd_verify(config(tmp_path), ["dims"])
    assert code == 1
    dims = report["checks"]["dims"]
    assert dims["values"] == {"poset_rank": 7, "semigroup_rank": 7, "transcendence": None}
    assert dims["verdict"] is False
    assert dims["consistent"] is True


def test_a_wrong_q_entry_fails_colon(tmp_path, monkeypatch):
    # Q1 = x11*y1 breaks the Cramer identities of every row set with row 1
    from resint import cli
    from resint.groebner import _Packing
    from resint.ring import xvar, yvar

    real = cli.build_instance

    def built(*args, **kwargs):
        inst = real(*args, **kwargs)
        inst.packed[Q(1)] = _Packing.pack_dict(inst.ring.var(xvar(1, 1)) * inst.ring.var(yvar(1)))
        return inst

    monkeypatch.setattr(cli, "build_instance", built)
    report, code = cmd_verify(config(tmp_path), ["colon"])
    assert code == 1
    assert report["checks"]["colon"]["verdict"] is False


def test_verify_false_verdict_exit_1(tmp_path, monkeypatch):
    from resint import cli

    monkeypatch.setitem(cli._CHECK_RUNNERS, "wonderful", lambda cfg: {"verdict": False})
    _, code = cmd_verify(config(tmp_path, m=2, n=2), ["wonderful"])
    assert code == 1


def test_verify_inconsistency_exit_3(tmp_path, monkeypatch):
    from resint import cli

    monkeypatch.setitem(
        cli._CHECK_RUNNERS,
        "dims",
        lambda cfg: {"verdict": False, "values": {"a": 1, "b": 2}, "consistent": False},
    )
    _, code = cmd_verify(config(tmp_path, m=2, n=2), ["dims"])
    assert code == 3


def test_verify_rejects_unknown_checks(tmp_path):
    with pytest.raises(ValueError):
        cmd_verify(config(tmp_path), ["radical", "nonsense"])
    with pytest.raises(ValueError):
        cmd_verify(config(tmp_path), [])


def test_verify_single_column_instance(tmp_path):
    report, code = cmd_verify(config(tmp_path, m=3, n=1), ["radical", "transbasis", "dims"])
    assert code == 0
    assert report["checks"]["transbasis"]["verdict"] is True
    assert "skipped" in report["checks"]["transbasis"]
    values = report["checks"]["dims"]["values"]
    # the poset recipe and the semigroup both report m+1 at n=1
    assert values == {"poset_rank": 4, "semigroup_rank": 4}
    assert report["witness_count"] == {"actual": 3, "expected": 3}


def test_trace_records_have_contract_fields(tmp_path):
    # a colon budget hit reports the trace of its S-pair phase
    report, _ = cmd_verify(config(tmp_path, m=3, n=2, budget=Budget(max_pairs=3)), ["colon"])
    trace = report["checks"]["colon"]["stats"]
    assert {"input_hash", "order", "pairs", "max_terms"} <= set(trace)
    assert "wall_seconds" not in trace  # kept out of persisted reports


def test_report_schema(tmp_path):
    report, _ = cmd_verify(config(tmp_path, m=2, n=2), ["wonderful"])
    assert {"tool", "version", "config", "checks", "hsop", "witness_count", "artifact_hashes", "verdict"} <= set(report)
    assert report["config"]["field"] == "Fp(32003)"


def test_timings_flag_adds_seconds(tmp_path):
    report, _ = cmd_verify(config(tmp_path, m=2, n=2, timings=True), ["wonderful"])
    assert "seconds" in report["checks"]["wonderful"]


# ---------------------------------------------------------------------------
# table


def test_table_output(capsys):
    cmd_table(6)
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].split() == ["m", "n", "naive", "bound", "diff"]
    assert "  4   2      9      7     2" in out
    assert "  6   2     15     11     4" in out


# ---------------------------------------------------------------------------
# argument plumbing and config validation


def test_main_generate_and_verify(tmp_path, capsys):
    assert main(["generate", "--m", "2", "--n", "2", "--out", str(tmp_path / "g")]) == 0
    code = main([
        "verify", "--m", "2", "--n", "2",
        "--checks", "radical,colon",
        "--out", str(tmp_path / "v"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "radical: pass" in out
    assert "colon: pass" in out


def test_main_table_cap(capsys):
    assert main(["table", "--max-m", "4"]) == 0
    assert main(["table", "--max-m", "13"]) == 4


def test_output_dir_env_default(tmp_path, monkeypatch, capsys):
    from resint.cli import OUTPUT_DIR_ENV

    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "envout"))
    assert main(["generate", "--m", "2", "--n", "2"]) == 0
    assert (tmp_path / "envout" / "hsop.poly").exists()


def test_parse_field():
    assert parse_field("Q") is QQ
    assert parse_field("Fp").p == 32003
    assert parse_field("Fp:101").p == 101
    with pytest.raises(ValueError):
        parse_field("R")


def test_config_validation(tmp_path):
    with pytest.raises(ValueError):
        RunConfig(m=2, n=3, output_dir=tmp_path)
    with pytest.raises(ValueError):
        RunConfig(m=2, n=2, budget=Budget(max_pairs=0), output_dir=tmp_path)
    with pytest.raises(ValueError):
        RunConfig(m=2, n=2, field_name="Fp:4", output_dir=tmp_path)


@pytest.mark.parametrize(
    "args, message",
    [
        (["verify", "--m", "2", "--n", "3"], "need m >= n >= 1"),
        (["verify", "--m", "3", "--n", "2", "--field", "Fp:91"], "91 is not prime"),
        (["verify", "--m", "3", "--n", "2", "--checks", "bogus"], "unknown checks: bogus"),
        (
            ["verify", "--m", "3", "--n", "2", "--degree-bound", "2"],
            "unrecognized arguments: --degree-bound 2",
        ),
        (["verify", "--n", "2"], "the following arguments are required: --m"),
        (
            ["verify", "--m", "3", "--n", "2", "--field", "Fp:abc"],
            "--field expects Q, Fp, or Fp:<prime>, not 'Fp:abc'",
        ),
        (["generate", "--m", "3", "--n", "2", "--timings"], "unrecognized arguments: --timings"),
        (
            ["generate", "--m", "3", "--n", "2", "--degree-bound", "2"],
            "unrecognized arguments: --degree-bound 2",
        ),
        (["table", "--max-m", "1"], "--max-m must be between 2 and 12"),
        (["table", "--max-m", "13"], "--max-m must be between 2 and 12"),
        (
            ["verify", "--m", "3", "--n", "2", "--budget-wall-seconds", "nan"],
            "the wall-clock budget must be positive and finite",
        ),
        (
            ["verify", "--m", "3", "--n", "2", "--budget-wall-seconds", "inf"],
            "the wall-clock budget must be positive and finite",
        ),
        (
            ["verify", "--m", "3", "--n", "2", "--budget-wall-seconds=-inf"],
            "the wall-clock budget must be positive and finite",
        ),
        (["verify", "--m", "3", "--n", "2", "--out", "taken"], "--out taken is not a directory"),
        (["generate", "--m", "3", "--n", "2", "--out", "taken"], "--out taken is not a directory"),
        (["verify", "--m", "3", "--n", "2", "--out", "taken/sub"], "--out taken/sub is not a directory"),
    ],
)
def test_usage_errors_exit_4_with_one_line(tmp_path, monkeypatch, capsys, args, message):
    # "taken" is a file in the working directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").write_text("")
    out = [] if args[0] == "table" or "--out" in args else ["--out", str(tmp_path / "out")]
    assert main([*args, *out]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"resint: error: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert (tmp_path / "taken").read_text() == ""


def test_value_error_inside_a_check_is_not_a_usage_error(tmp_path, monkeypatch):
    from resint import cli

    def broken(run):
        raise ValueError("a bug inside a check")

    monkeypatch.setitem(cli._CHECK_RUNNERS, "wonderful", broken)
    with pytest.raises(ValueError, match="a bug inside a check"):
        main(["verify", "--m", "2", "--n", "2", "--checks", "wonderful", "--out", str(tmp_path)])

