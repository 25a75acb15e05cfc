"""Command-line surface: artifact generation, verification pipelines with
machine-readable reports, and the bound-comparison table.

`verify` runs the selected checks one after another, in `ALL_CHECKS`
order, on one instance per field; results that several checks use (the
toric kernel, the transcendence certificate) are computed once per run.

Exit codes for `verify`: 0 all checks true, 1 some check false, 2 resource
budget exhausted (partial report still written), 3 two modules disagreed
on a number that must match.  Every command exits 4 on a usage error (bad
arguments or an invalid configuration), after one `resint: error: ...`
line on stderr and before any work.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from pathlib import Path

from . import __version__
from .groebner import Budget, BudgetExceeded
from .poset import is_wonderful, verify_asl1, verify_asl2
from .residual import (
    build_instance,
    expected_witness_count,
    hsop,
    upper_bound_table,
    verify_ara_witness,
    verify_colon_identity,
)
from .ring import DEFAULT_PRIME, GF, QQ, poly_text
from .sagbi import (
    initial_generators,
    semigroup_dimension,
    toric_kernel,
    verify_sagbi,
    verify_squarefree_initial,
)
from .transcendence import build_D, verify_transcendence_basis

ALL_CHECKS = (
    "radical",
    "colon",
    "asl",
    "wonderful",
    "sagbi",
    "squarefree",
    "transbasis",
    "dims",
)

OUTPUT_DIR_ENV = "RESINT_OUT"

#: exit code of a command line that names no valid run
USAGE_ERROR = 4


@dataclass
class RunConfig:
    m: int
    n: int
    field_name: str = "Q"
    degree_bound: int = 3
    budget: Budget = dc_field(default_factory=Budget)
    output_dir: Path = dc_field(default_factory=lambda: Path("."))
    timings: bool = False

    def __post_init__(self):
        if not (self.m >= self.n >= 1):
            raise ValueError("need m >= n >= 1")
        if self.degree_bound < 0:
            raise ValueError("degree bound must be >= 0")
        if min(self.budget.max_pairs, self.budget.max_terms) <= 0 or self.budget.wall_seconds <= 0:
            raise ValueError("budgets must be positive")
        self.field = parse_field(self.field_name)

    def as_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "field": self.field.name,
            "degree_bound": self.degree_bound,
            "budget": {
                "max_pairs": self.budget.max_pairs,
                "max_terms": self.budget.max_terms,
                "wall_seconds": self.budget.wall_seconds,
            },
        }


def parse_field(name: str):
    name = name.strip()
    if name.upper() in ("Q", "QQ"):
        return QQ
    if name.lower().startswith("fp"):
        rest = name[2:].lstrip(":")
        return GF(int(rest) if rest else DEFAULT_PRIME)
    raise ValueError(f"unknown field {name!r} (use Q, Fp, or Fp:<prime>)")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# generate


def cmd_generate(config: RunConfig) -> list[Path]:
    """Write generators, witness list, Hasse DOT, and the transcendence set
    (n >= 2) to the output directory in the canonical text formats."""
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    instance = build_instance(config.m, config.n, field=config.field)
    written = []

    gen_path = out / "generators.poly"
    gen_path.write_text(
        "".join(
            f"{lab.text} = {poly_text(instance.polynomials[lab])}\n"
            for lab in instance.labels
        )
    )
    written.append(gen_path)

    hsop_path = out / "hsop.poly"
    hsop_path.write_text("".join(poly_text(w) + "\n" for w in hsop(instance)))
    written.append(hsop_path)

    dot_path = out / "hasse.dot"
    dot_path.write_text(instance.poset.to_dot())
    written.append(dot_path)

    if config.n >= 2:
        d_path = out / "transcendence_basis.poly"
        d_path.write_text(
            "".join(
                f"{lab.text} = {poly_text(instance.polynomials[lab])}\n"
                for lab in build_D(config.m, config.n).labels
            )
        )
        written.append(d_path)
    return written


# ---------------------------------------------------------------------------
# verify


class _Run:
    """One `verify` run: its config and the results its checks share, each
    computed on first use.  A computation that raises (a budget hit) stores
    nothing, so every check that needs it reports its own budget hit."""

    def __init__(self, config: RunConfig):
        self.config = config

    @cached_property
    def instance(self):
        return build_instance(self.config.m, self.config.n, field=self.config.field)

    @cached_property
    def rational_instance(self):
        if self.config.field == QQ:
            return self.instance
        return build_instance(self.config.m, self.config.n, field=QQ)

    @cached_property
    def kernel(self):
        return toric_kernel(self.rational_instance, budget=self.config.budget)

    @cached_property
    def transcendence(self):
        return verify_transcendence_basis(self.rational_instance)


def _check_radical(run: _Run) -> dict:
    cert = verify_ara_witness(run.instance, budget=run.config.budget)
    return {"verdict": cert.verdict, "certificate": cert.as_dict(timings=run.config.timings)}


def _check_colon(run: _Run) -> dict:
    return {"verdict": verify_colon_identity(run.instance, budget=run.config.budget)}


def _check_asl(run: _Run) -> dict:
    ok1 = verify_asl1(run.rational_instance, run.config.degree_bound)
    ok2 = verify_asl2(run.rational_instance)
    return {"verdict": ok1 and ok2, "asl1": ok1, "asl2": ok2, "degree_bound": run.config.degree_bound}


def _check_wonderful(run: _Run) -> dict:
    return {"verdict": is_wonderful(run.rational_instance.poset)}


def _check_sagbi(run: _Run) -> dict:
    return {"verdict": verify_sagbi(run.kernel)}


def _check_squarefree(run: _Run) -> dict:
    return {
        "verdict": verify_squarefree_initial(run.kernel),
        "legend": run.kernel.legend_lines(),
        "kernel": [poly_text(g) for g in run.kernel.generators],
    }


def _check_transbasis(run: _Run) -> dict:
    if run.config.n < 2:
        return {"verdict": True, "skipped": "n = 1 has no transcendence certificate"}
    out = run.transcendence.as_dict()
    out.pop("rewrites")
    return {"verdict": run.transcendence.verdict, "certificate": out}


def _check_dims(run: _Run) -> dict:
    """Three independent computations of one number must agree (n >= 2)."""
    instance = run.rational_instance
    from_poset = instance.poset.poset_rank()
    from_semigroup = semigroup_dimension(initial_generators(instance))
    values = {"poset_rank": from_poset, "semigroup_rank": from_semigroup}
    if run.config.n >= 2:
        values["transcendence"] = run.transcendence.dimension
    agree = len(set(values.values())) == 1
    return {"verdict": agree, "values": values, "consistent": agree}


#: radical and colon honor the configured field; the structural checks
#: (asl, wonderful, sagbi, squarefree, transbasis, dims) always run over Q
_CHECK_RUNNERS = {
    "radical": _check_radical,
    "colon": _check_colon,
    "asl": _check_asl,
    "wonderful": _check_wonderful,
    "sagbi": _check_sagbi,
    "squarefree": _check_squarefree,
    "transbasis": _check_transbasis,
    "dims": _check_dims,
}


def _scrub_wall_times(value):
    """Byte-identical reports: timing fields never reach disk by default."""
    if isinstance(value, dict):
        return {
            k: _scrub_wall_times(v) for k, v in value.items() if k != "wall_seconds"
        }
    if isinstance(value, list):
        return [_scrub_wall_times(v) for v in value]
    return value


def _select_checks(checks: list[str]) -> list[str]:
    """The named checks in `ALL_CHECKS` order; ValueError for none or an unknown name."""
    if not checks:
        raise ValueError("no checks selected")
    unknown = [c for c in checks if c not in _CHECK_RUNNERS]
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(unknown)}")
    return [name for name in ALL_CHECKS if name in checks]


def cmd_verify(config: RunConfig, checks: list[str]) -> tuple[dict, int]:
    """Run the selected pipelines, write report.json, return (report, exit code)."""
    selected = _select_checks(checks)
    run = _Run(config)
    results = {}
    for name in selected:
        started = time.monotonic()
        try:
            outcome = _CHECK_RUNNERS[name](run)
        except BudgetExceeded as exc:
            outcome = {"verdict": None, "budget_exceeded": True, "stats": exc.stats}
        if config.timings:
            outcome["seconds"] = round(time.monotonic() - started, 3)
        else:
            outcome = _scrub_wall_times(outcome)
        results[name] = outcome
    exit_code = 0
    budget_hit = any(r.get("budget_exceeded") for r in results.values())
    inconsistency = results.get("dims", {}).get("consistent") is False

    instance = run.instance
    witness_texts = [poly_text(w) for w in hsop(instance)]
    report = {
        "tool": "resint",
        "version": __version__,
        "config": config.as_dict(),
        "checks": results,
        "hsop": witness_texts,
        "witness_count": {
            "actual": len(witness_texts),
            "expected": expected_witness_count(config.m, config.n),
        },
        "artifact_hashes": {
            "hsop": _sha256("\n".join(witness_texts)),
            "generators": _sha256(
                "\n".join(poly_text(instance.polynomials[lab]) for lab in instance.labels)
            ),
        },
    }
    all_true = all(r.get("verdict") is True for r in results.values())
    if inconsistency:
        exit_code = 3
    elif budget_hit:
        exit_code = 2
    elif not all_true:
        exit_code = 1
    report["verdict"] = all_true and not budget_hit and not inconsistency
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report, exit_code


# ---------------------------------------------------------------------------
# table


def cmd_table(max_m: int, stream=None) -> None:
    """Print the naive-versus-witness bound table for all n <= m <= max_m."""
    stream = stream or sys.stdout
    rows = upper_bound_table(max_m)
    print(f"{'m':>3} {'n':>3} {'naive':>6} {'bound':>6} {'diff':>5}", file=stream)
    for r in rows:
        print(
            f"{r['m']:>3} {r['n']:>3} {r['naive']:>6} {r['bound']:>6} {r['difference']:>5}",
            file=stream,
        )


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """Raises a parse error as a ValueError instead of printing usage and
    exiting 2, so that `main` reports it like every other usage error."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="resint",
        description="Exact toolkit for generic residual intersections of an "
        "ideal of indeterminates: witness generation and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, default_field):
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--field", default=default_field, help="Q, Fp, or Fp:<prime>")
        p.add_argument("--degree-bound", type=int, default=3)
        p.add_argument("--budget-max-pairs", type=int, default=Budget.max_pairs)
        p.add_argument("--budget-max-terms", type=int, default=Budget.max_terms)
        p.add_argument("--budget-wall-seconds", type=float, default=Budget.wall_seconds)
        p.add_argument(
            "--out",
            default=os.environ.get(OUTPUT_DIR_ENV, "."),
            help=f"output directory (default ${OUTPUT_DIR_ENV} or .)",
        )
        p.add_argument("--timings", action="store_true", help="include wall times in reports")

    gen = sub.add_parser("generate", help="write generators, witnesses, Hasse DOT, D-set")
    add_common(gen, default_field="Q")

    ver = sub.add_parser("verify", help="run verification pipelines, write report.json")
    add_common(ver, default_field=f"Fp:{DEFAULT_PRIME}")
    ver.add_argument(
        "--checks",
        default=",".join(ALL_CHECKS),
        help="comma-separated subset of: " + ", ".join(ALL_CHECKS),
    )

    tab = sub.add_parser("table", help="print the bound-comparison table")
    tab.add_argument("--max-m", type=int, default=8)
    return parser


def _config_from_args(args) -> RunConfig:
    return RunConfig(
        m=args.m,
        n=args.n,
        field_name=args.field,
        degree_bound=args.degree_bound,
        budget=Budget(
            max_pairs=args.budget_max_pairs,
            max_terms=args.budget_max_terms,
            wall_seconds=args.budget_wall_seconds,
        ),
        output_dir=Path(args.out),
        timings=args.timings,
    )


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command != "table":
            config = _config_from_args(args)
        if args.command == "verify":
            checks = _select_checks([c.strip() for c in args.checks.split(",") if c.strip()])
    except ValueError as exc:
        print(f"resint: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if args.command == "table":
        if args.max_m > 12:
            print("table is pure arithmetic but capped at max-m 12", file=sys.stderr)
            return 1
        cmd_table(args.max_m)
        return 0
    if args.command == "generate":
        for path in cmd_generate(config):
            print(path)
        return 0
    report, code = cmd_verify(config, checks)
    for name, outcome in report["checks"].items():
        verdict = outcome.get("verdict")
        label = {True: "pass", False: "FAIL", None: "BUDGET"}[verdict]
        print(f"{name:>11}: {label}")
    print(f"report: {Path(config.output_dir) / 'report.json'}")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
