"""The command-line surface: files, golden comparison, reports, exit codes."""

from __future__ import annotations

import json
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


def test_verify_computes_shared_results_once(tmp_path, monkeypatch):
    from resint import cli

    calls = {"build_instance": 0, "toric_kernel": 0, "verify_transcendence_basis": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(cli, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    _, code = cmd_verify(config(tmp_path), list(ALL_CHECKS))
    assert code == 0
    # one instance over Fp:32003 and one over Q
    assert calls == {"build_instance": 2, "toric_kernel": 1, "verify_transcendence_basis": 1}


def test_transbasis_and_dims_share_the_run_instance(tmp_path, monkeypatch):
    from resint import cli, transcendence

    built = []
    for module in (cli, transcendence):
        def counted(*args, _real=module.build_instance, **kwargs):
            built.append(args)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, "build_instance", counted)
    _, code = cmd_verify(config(tmp_path, field_name="Q"), ["transbasis", "dims"])
    assert code == 0
    assert len(built) == 1


def test_verify_asl1_expands_each_product_once(monkeypatch):
    import itertools

    from resint.poset import is_standard, straighten_product, verify_asl1, verify_asl2
    from resint.residual import build_instance
    from resint.ring import Polynomial

    inst = build_instance(4, 2)
    # straighten every incomparable pair first, so that only the products
    # verify_asl1 expands itself are counted
    assert verify_asl2(inst)
    products = 0
    real_mul = Polynomial.__mul__

    def counted(self, other):
        nonlocal products
        products += isinstance(other, Polynomial)
        return real_mul(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counted)
    assert verify_asl1(inst, 2)
    monkeypatch.undo()
    combos = [
        c for d in range(3) for c in itertools.combinations_with_replacement(inst.poset.elements, d)
    ]
    rhs_terms = sum(
        len(straighten_product(inst, c)) for c in combos if len(c) == 2 and not is_standard(c)
    )
    assert products <= len(combos) + rhs_terms


def test_verify_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    cmd_verify(config(a, m=3, n=2), ["radical", "dims", "wonderful"])
    cmd_verify(config(b, m=3, n=2), ["radical", "dims", "wonderful"])
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


def test_budget_exceeded_reports_also_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        cmd_verify(config(d, m=3, n=2, budget=Budget(max_pairs=3)), ["radical"])
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


def test_verify_budget_exhaustion_exit_2(tmp_path):
    cfg = config(tmp_path, m=3, n=2, budget=Budget(max_pairs=2))
    report, code = cmd_verify(cfg, ["radical"])
    assert code == 2
    entry = report["checks"]["radical"]
    assert entry["budget_exceeded"] is True
    assert entry["verdict"] is None
    # partial report is still well-formed on disk
    parsed = json.loads((tmp_path / "report.json").read_text())
    assert parsed["verdict"] is False


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
    report, _ = cmd_verify(config(tmp_path, m=3, n=2), ["radical"])
    traced = [
        c["trace"]
        for c in report["checks"]["radical"]["certificate"]["checks"]
        if c["method"] == "radical_membership"
    ]
    assert traced
    for tr in traced:
        assert {"input_hash", "order", "pairs", "max_terms", "verdict"} <= set(tr)
        assert "wall_seconds" not in tr  # kept out of persisted reports


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
    assert main(["table", "--max-m", "13"]) == 1


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
        RunConfig(m=2, n=2, degree_bound=-1, output_dir=tmp_path)
    with pytest.raises(ValueError):
        RunConfig(m=2, n=2, budget=Budget(max_pairs=0), output_dir=tmp_path)
    with pytest.raises(ValueError):
        RunConfig(m=2, n=2, field_name="Fp:4", output_dir=tmp_path)


@pytest.mark.parametrize(
    "args, message",
    [
        (["--m", "2", "--n", "3"], "need m >= n >= 1"),
        (["--m", "3", "--n", "2", "--field", "Fp:91"], "91 is not prime"),
        (["--m", "3", "--n", "2", "--checks", "bogus"], "unknown checks: bogus"),
        (["--m", "3", "--n", "2", "--degree-bound", "-1"], "degree bound must be >= 0"),
        (["--n", "2"], "the following arguments are required: --m"),
    ],
)
def test_usage_errors_exit_4_with_one_line(tmp_path, capsys, args, message):
    assert main(["verify", *args, "--out", str(tmp_path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"resint: error: {message}\n"
    assert not (tmp_path / "report.json").exists()


def test_value_error_inside_a_check_is_not_a_usage_error(tmp_path, monkeypatch):
    from resint import cli

    def broken(run):
        raise ValueError("a bug inside a check")

    monkeypatch.setitem(cli._CHECK_RUNNERS, "wonderful", broken)
    with pytest.raises(ValueError, match="a bug inside a check"):
        main(["verify", "--m", "2", "--n", "2", "--checks", "wonderful", "--out", str(tmp_path)])
