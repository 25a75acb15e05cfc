"""Command-line surface: artifact generation, verification pipelines with
machine-readable reports, and the bound-comparison table.

`generate` takes the instance (--m, --n, --field) and --out; `verify`
takes the same four plus the three --budget-* caps, --timings and
--checks; `table` takes --max-m, from 2 to 12.

`verify` runs the selected checks one after another, in `ALL_CHECKS`
order, on one instance over Q; results that several checks use (the
straightening relations, the lattice certificate of the first
straightening-law axiom, the verdict of the second, the toric kernel, the
transcendence certificate) are computed once per run.  `sagbi` and
`squarefree` follow from the two axioms, and colon proves a closed family
a Groebner basis, so no check runs Buchberger.  radical and colon are
certified by integer identities, so they hold over Z; the structural
checks hold over Q.  Each algebraic check records in `holds_over` where
its verdict holds.  `--field` picks only the field that the witness
texts, generators.poly, hsop.poly and the artifact hashes are printed in.

Exit codes for `verify`: 0 all checks true, 1 some check false, 2 resource
budget exhausted (partial report still written), 3 two modules disagreed
on a number that must match.  Every command exits 4 on a usage error (bad
arguments or an invalid configuration), after one `resint: error: ...`
line on stderr and before any work.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from operator import itemgetter
from pathlib import Path

from . import __version__
from .groebner import Budget, BudgetExceeded
from .poset import is_wonderful, verify_asl1, verify_asl2
from .residual import (
    build_instance,
    expected_witness_count,
    upper_bound_table,
    verify_ara_witness,
    verify_colon_identity,
)
from .ring import DEFAULT_PRIME, GF, QQ, monomial_text
from .sagbi import semigroup_dimension, toric_kernel, verify_squarefree_initial
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

#: the table is pure arithmetic, but its rows grow quadratically in max-m
TABLE_MAX_M = 12


@dataclass
class RunConfig:
    m: int
    n: int
    field_name: str = "Q"
    # unread: the benchmark scripts still pass it, and asl holds in all degrees
    degree_bound: int = 3
    budget: Budget = dc_field(default_factory=Budget)
    output_dir: Path = dc_field(default_factory=lambda: Path("."))
    timings: bool = False

    def __post_init__(self):
        if not (self.m >= self.n >= 1):
            raise ValueError("need m >= n >= 1")
        if min(self.budget.max_pairs, self.budget.max_terms) <= 0:
            raise ValueError("budgets must be positive")
        if not 0 < self.budget.wall_seconds < math.inf:
            raise ValueError("the wall-clock budget must be positive and finite")
        out = Path(self.output_dir)
        # the nearest existing path is where mkdir would fail
        if not next((p for p in (out, *out.parents) if p.exists()), out).is_dir():
            raise ValueError(f"--out {out} is not a directory")
        self.field = parse_field(self.field_name)

    def as_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "field": self.field.name,
            "budget": {
                "max_pairs": self.budget.max_pairs,
                "max_terms": self.budget.max_terms,
                "wall_seconds": self.budget.wall_seconds,
            },
        }


def parse_field(name: str):
    text = name.strip()
    if text.upper() in ("Q", "QQ"):
        return QQ
    rest = text[2:].lstrip(":")
    if text.lower().startswith("fp") and (not rest or rest.isdecimal()):
        return GF(int(rest) if rest else DEFAULT_PRIME)
    raise ValueError(f"--field expects Q, Fp, or Fp:<prime>, not {name!r}")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# the texts of the generators and witnesses


def _joined(terms: list[tuple[int, str]]) -> str:
    """The text of a polynomial from its term texts, each " + body" or
    " - body", in order: the first drops its spaces (and its plus)."""
    text = "".join(map(itemgetter(1), terms))
    if not text:
        return "0"
    return "-" + text[3:] if text[1] == "-" else text[3:]


def _texts(instance, field) -> tuple[list[str], list[str]]:
    """The text of each generator, in label order, and of each witness of
    `hsop`, printed over `field` exactly as `poly_text` prints them.

    Each term of each generator is printed once, from the generator's
    integer table, with its coefficient coerced once into `field` (a term
    whose image is 0 is left out).  A generator's text joins its term
    texts in the ring order, lex, under which a packed monomial is its own
    key.  For n >= 2 a witness is the sum of the generators of one rank
    class, and its text merges their term texts in the ring order.  That
    sum has no cancellation, because distinct generators share no
    monomial: a minor's monomials have one x factor in each of its rows,
    none in any other row and no y, so they fix its row set; a Q_i's
    monomials x[i][j] * y_j have y-degree 1 and fix i.  So the witness's
    terms are its generators' terms with their own coefficients, and they
    print as those do.  For n = 1 the witnesses are the minors [i] = x[i][1],
    whose texts are printed already."""
    ring = instance.ring
    nvars = len(ring.vars)
    rational = field == QQ

    def terms(label) -> list[tuple[int, str]]:
        out = []
        for e, c in instance.packed[label].items():
            if not rational:
                c = field.coerce(c)
                if not c:
                    continue
            sep = " + "
            if rational and c < 0:
                sep, c = " - ", -c
            mono = monomial_text(ring, e.to_bytes(nvars, "little"))
            out.append((e, sep + (str(c) if mono == "1" else mono if c == 1 else f"{c}*{mono}")))
        out.sort(reverse=True)
        return out

    if instance.n == 1:
        generators = [_joined(terms(lab)) for lab in instance.labels]
        return generators, generators[instance.m :]
    by_label, witnesses = {}, []
    for cls in instance.poset.rank_classes():
        parts = [terms(lab) for lab in cls]
        by_label.update((lab, _joined(p)) for lab, p in zip(cls, parts))
        witnesses.append(_joined(sorted(itertools.chain.from_iterable(parts), reverse=True)))
    return [by_label[lab] for lab in instance.labels], witnesses


# ---------------------------------------------------------------------------
# generate


def cmd_generate(config: RunConfig) -> list[Path]:
    """Write generators, witness list, Hasse DOT, and the transcendence set
    (n >= 2) to the output directory in the canonical text formats."""
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    instance = build_instance(config.m, config.n)
    generator_texts, witness_texts = _texts(instance, config.field)
    lines = {lab: f"{lab.text} = {text}\n" for lab, text in zip(instance.labels, generator_texts)}
    written = []

    gen_path = out / "generators.poly"
    gen_path.write_text("".join(lines.values()))
    written.append(gen_path)

    hsop_path = out / "hsop.poly"
    hsop_path.write_text("".join(text + "\n" for text in witness_texts))
    written.append(hsop_path)

    dot_path = out / "hasse.dot"
    dot_path.write_text(instance.poset.to_dot())
    written.append(dot_path)

    if config.n >= 2:
        d_path = out / "transcendence_basis.poly"
        d_path.write_text("".join(lines[lab] for lab in build_D(config.m, config.n)))
        written.append(d_path)
    return written


# ---------------------------------------------------------------------------
# verify


def _shared(compute):
    """Like `cached_property`, but a budget hit is stored as well and raised
    again on every later read, so the result is attempted once per run."""
    name = compute.__name__

    def get(run):
        if name not in run.__dict__:
            try:
                run.__dict__[name] = compute(run)
            except BudgetExceeded as exc:
                run.__dict__[name] = exc
        result = run.__dict__[name]
        if isinstance(result, BudgetExceeded):
            raise result
        return result

    return property(get)


class _Run:
    """One `verify` run: its config and the results its checks share, each
    computed on first use and at most once.  A shared computation that hits
    its budget is not started again: every check that needs it reports the
    same budget hit, with the same stats, and the run spends each budget
    once.

    `instance`, the one every check gets, is over Q whatever the
    configured field, which only the report's texts are printed in."""

    def __init__(self, config: RunConfig):
        self.config = config

    @cached_property
    def instance(self):
        return build_instance(self.config.m, self.config.n)

    @_shared
    def asl1(self):
        return verify_asl1(self.instance, budget=self.config.budget)

    @_shared
    def asl2(self):
        return verify_asl2(self.instance, budget=self.config.budget)

    @_shared
    def kernel(self):
        return toric_kernel(self.instance, self.asl1)

    @_shared
    def transcendence(self):
        return verify_transcendence_basis(self.instance, budget=self.config.budget)


def _check_radical(run: _Run) -> dict:
    cert = verify_ara_witness(run.instance, budget=run.config.budget)
    return {"verdict": cert.verdict, "holds_over": "Z", "certificate": cert.as_dict()}


def _check_colon(run: _Run) -> dict:
    return {"verdict": verify_colon_identity(run.instance, budget=run.config.budget), "holds_over": "Z"}


def _axioms(run: _Run) -> tuple[bool, bool]:
    """Both straightening-law axioms; a budget hit reports how far each
    got, with the same keys whichever axiom it stopped."""
    try:
        return run.asl1, run.asl2
    except BudgetExceeded as exc:
        done = {"lattice_rows_checked": len(run.instance.poset), "pairs_checked": 0}
        raise BudgetExceeded(str(exc), {**done, **exc.stats}) from None


def _check_asl(run: _Run) -> dict:
    ok1, ok2 = _axioms(run)
    return {"verdict": ok1 and ok2, "holds_over": "Q", "asl1": ok1, "asl2": ok2, "degrees": "all"}


def _check_wonderful(run: _Run) -> dict:
    return {"verdict": is_wonderful(run.instance.poset)}


def _check_sagbi(run: _Run) -> dict:
    """The generators are a Sagbi basis when both axioms hold (proof in
    the `sagbi` module docstring)."""
    ok1, ok2 = _axioms(run)
    return {"verdict": ok1 and ok2, "holds_over": "Q"}


def _check_squarefree(run: _Run) -> dict:
    return {
        "verdict": verify_squarefree_initial(run.kernel),
        "holds_over": "Q",
        "legend": run.kernel.legend_lines(),
        "kernel": run.kernel.binomial_lines(),
    }


def _check_transbasis(run: _Run) -> dict:
    if run.config.n < 2:
        return {"verdict": True, "skipped": "n = 1 has no transcendence certificate"}
    cert = run.transcendence
    return {"verdict": cert.verdict, "holds_over": "Q", "certificate": cert.as_dict()}


def _check_dims(run: _Run) -> dict:
    """Three independent computations of one number must agree (n >= 2).

    The transcendence count is null when its certificate failed: then the
    verdict is false, and `consistent` compares the numbers derived."""
    instance = run.instance
    from_poset = instance.poset.poset_rank()
    from_semigroup = semigroup_dimension(instance)
    values = {"poset_rank": from_poset, "semigroup_rank": from_semigroup}
    if run.config.n >= 2:
        cert = run.transcendence
        values["transcendence"] = cert.dimension if cert.verdict else None
    derived = {v for v in values.values() if v is not None}
    agree = len(derived) == 1
    return {"verdict": agree and None not in values.values(), "values": values, "consistent": agree}


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

    generator_texts, witness_texts = _texts(run.instance, config.field)
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
            "generators": _sha256("\n".join(generator_texts)),
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

    def add_instance(p, default_field):
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument(
            "--field", default=default_field, help="field the texts print in: Q, Fp, or Fp:<prime>"
        )
        p.add_argument(
            "--out",
            default=os.environ.get(OUTPUT_DIR_ENV, "."),
            help=f"output directory (default ${OUTPUT_DIR_ENV} or .)",
        )

    gen = sub.add_parser("generate", help="write generators, witnesses, Hasse DOT, D-set")
    add_instance(gen, default_field="Q")

    ver = sub.add_parser("verify", help="run verification pipelines, write report.json")
    add_instance(ver, default_field=f"Fp:{DEFAULT_PRIME}")
    ver.add_argument("--budget-max-pairs", type=int, default=Budget.max_pairs)
    ver.add_argument("--budget-max-terms", type=int, default=Budget.max_terms)
    ver.add_argument("--budget-wall-seconds", type=float, default=Budget.wall_seconds)
    ver.add_argument("--timings", action="store_true", help="include wall times in reports")
    ver.add_argument(
        "--checks",
        default=",".join(ALL_CHECKS),
        help="comma-separated subset of: " + ", ".join(ALL_CHECKS),
    )

    tab = sub.add_parser("table", help="print the bound-comparison table")
    tab.add_argument("--max-m", type=int, default=8)
    return parser


def _verify_config(args) -> RunConfig:
    return RunConfig(
        m=args.m,
        n=args.n,
        field_name=args.field,
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
        if args.command == "table" and not 2 <= args.max_m <= TABLE_MAX_M:
            raise ValueError(f"--max-m must be between 2 and {TABLE_MAX_M}")
        if args.command == "generate":
            config = RunConfig(
                m=args.m, n=args.n, field_name=args.field, output_dir=Path(args.out)
            )
        if args.command == "verify":
            config = _verify_config(args)
            checks = _select_checks([c.strip() for c in args.checks.split(",") if c.strip()])
    except ValueError as exc:
        print(f"resint: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if args.command == "table":
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
