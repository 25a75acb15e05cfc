"""The two workloads of the resint benchmark and the gate that checks them.

Every ladder entry runs exactly two checks through `resint.cli.cmd_verify`,
so the program's own thread pool always uses two threads.  Why each
workload exists, and which layer it bypasses, is written next to it.

The gate compares each report with answers that do not come from the code
under test: the witness count and the dimension by their closed formula
n(m-n+1)+1 (m witnesses for n = 1), and the artifact hashes pinned from
the seed commit of this benchmark.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: primes in [30000, 32749] (32749 is the largest prime below 2**15); the
#: seed picks the field of the radical/colon entries from this list
PRIMES = (30011, 30553, 31063, 31477, 31847, 32003, 32401, 32749)


@dataclass(frozen=True)
class Entry:
    """One `resint verify` call: all the program receives of a workload."""

    m: int
    n: int
    field: str
    degree_bound: int
    checks: tuple[str, str]

    @property
    def text(self) -> str:
        return f"({self.m},{self.n}) {self.field} {'+'.join(self.checks)}"


@dataclass(frozen=True)
class Part:
    """Shapes that run the same two checks over the same kind of field."""

    checks: tuple[str, str]
    shapes: tuple[tuple[int, int], ...]
    prime_field: bool = False
    degree_bound: int = 3


# Buchberger over a prime field does nearly all the work: grevlex with the
# unit short-circuit for radical membership, block elimination for the colon.
RADICAL = Part(("radical", "colon"), ((5, 2), (5, 3)), prime_field=True)
# The same groebner layer used differently: Fraction coefficients, a
# block/tau elimination order and a full reduced basis with no unit exit;
# (8,1) covers the n = 1 branch.  Subduction costs ~0.01 s.
KERNEL = Part(("sagbi", "squarefree"), ((5, 2), (4, 3), (8, 1)))
# straighten/straighten_product, the solve_field solve for minor x minor
# pairs and Polynomial.__mul__ in expand_labels.
STRAIGHTEN = Part(("asl", "wonderful"), ((6, 4), (7, 3)), degree_bound=2)
# verify_rewrite -> Polynomial.substitute -> __mul__; dims recomputes the
# whole certificate.
TRANSBASIS = Part(("transbasis", "dims"), ((6, 4), (8, 3), (9, 3), (6, 5)))


@dataclass(frozen=True)
class Workload:
    name: str
    parts: tuple[Part, ...]
    why: str

    def part_entries(self, checks: tuple[str, str]) -> int:
        return sum(len(p.shapes) for p in self.parts if p.checks == checks)


# Two workloads, not one per part: the machine's speed drifts by up to 1.6x
# over tens of seconds to minutes, so a run should be as long as allowed,
# and the run budget allows 60-second runs for two workloads, not four.
# Each bypasses the other's layers, and the per-layer metrics still separate
# the four parts (see README.md).
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "groebner",
            (RADICAL, KERNEL),
            "Buchberger does nearly all the work, over F_p (radical, colon) and over Q (toric kernel); no straightening or rewriting",
        ),
        Workload(
            "structure-q",
            (STRAIGHTEN, TRANSBASIS),
            "straightening law, linear solves and transcendence-basis rewriting over Q, with no Buchberger call",
        ),
    )
}


def ladder(workload: str, seed: int) -> list[Entry]:
    """The entries of one workload; the seed picks the prime and the order."""
    rng = random.Random(seed)
    prime = rng.choice(PRIMES)
    entries = [
        Entry(m, n, f"Fp:{prime}" if part.prime_field else "Q", part.degree_bound, part.checks)
        for part in WORKLOADS[workload].parts
        for m, n in part.shapes
    ]
    rng.shuffle(entries)
    return entries


def expected_dimension(m: int, n: int) -> int:
    return n * (m - n + 1) + 1


def expected_witnesses(m: int, n: int) -> int:
    return expected_dimension(m, n) if n >= 2 else m


#: (m, n, field) -> (artifact_hashes.hsop, artifact_hashes.generators),
#: recorded from the reports of the seed commit.  Prime-field coefficients
#: print as residues, so every prime has its own pair.
PINNED_HASHES = {
    (5, 2, "Fp:30011"): ("37bc694d6ce54da4", "e5aecd935d645d9d"),
    (5, 3, "Fp:30011"): ("ef7c07c87deb7052", "be16bb71bb627536"),
    (5, 2, "Fp:30553"): ("460ec19dc3ec4ea0", "d960ea884d38d6e7"),
    (5, 3, "Fp:30553"): ("16f5595f4896fcbe", "ee9dcf54cbe35081"),
    (5, 2, "Fp:31063"): ("5e839305edb29205", "9f807164542c3489"),
    (5, 3, "Fp:31063"): ("cd1ded43d595e480", "acb54dae5097e818"),
    (5, 2, "Fp:31477"): ("2fd708cb49fcbe36", "d9e2e69c8d73f422"),
    (5, 3, "Fp:31477"): ("70d3364d5b9be573", "af3b832c5c6cf526"),
    (5, 2, "Fp:31847"): ("888ebbb7a0cede65", "59889274d7eff616"),
    (5, 3, "Fp:31847"): ("ae109665f1de347e", "665f505dcf6b8936"),
    (5, 2, "Fp:32003"): ("e3a2107d59d30ca4", "89915441db41988d"),
    (5, 3, "Fp:32003"): ("595312bf205d4875", "036e9b48f0f64560"),
    (5, 2, "Fp:32401"): ("cd9da1877a5532f0", "4a64c08d1c3f82e6"),
    (5, 3, "Fp:32401"): ("914be8b1b87adfdc", "d01ce8f5418fb1be"),
    (5, 2, "Fp:32749"): ("99ea90474dd81fe8", "217c662902a255df"),
    (5, 3, "Fp:32749"): ("f3a5b9b74cc1140a", "7e65c87fafc0fb5d"),
    (5, 2, "Q"): ("31ab2af8ddf4e65c", "032e95fb6096cc13"),
    (4, 3, "Q"): ("dd7ccdf4d07fe15f", "c5d9d14460c865c0"),
    (8, 1, "Q"): ("4ca412a59d85dd27", "73c36920d118dd2e"),
    (6, 4, "Q"): ("fd7d08be402e1a4d", "53f4d7f3e437beff"),
    (7, 3, "Q"): ("8d63a40c7063dba6", "2297197445c7dbc1"),
    (8, 3, "Q"): ("f983b7e446c05f9f", "13314b83d7095a00"),
    (9, 3, "Q"): ("f3fc2255c515d6a4", "7322a0231a54e640"),
    (6, 5, "Q"): ("e5a93ba8e3f57cb3", "395c32263d2673c0"),
}


def gate(entry: Entry, report: dict, code: int) -> dict[str, list[str]]:
    """Problems found per check of one entry; an empty list means it passed.

    A problem of the whole entry (exit code, witness count, hashes) counts
    against both of its checks.
    """
    common = []
    if code != 0:
        common.append(f"exit code {code}")
    count = report.get("witness_count", {}).get("actual")
    if count != expected_witnesses(entry.m, entry.n):
        common.append(f"witness count {count} != {expected_witnesses(entry.m, entry.n)}")
    hashes = report.get("artifact_hashes", {})
    pinned = PINNED_HASHES.get((entry.m, entry.n, entry.field))
    if pinned is None:
        common.append("no pinned hashes for this entry")
    elif (hashes.get("hsop"), hashes.get("generators")) != pinned:
        common.append(f"artifact hashes {hashes} != pinned {pinned}")
    problems = {}
    for check in entry.checks:
        outcome = report.get("checks", {}).get(check, {})
        found = list(common)
        if outcome.get("verdict") is not True:
            found.append(f"verdict {outcome.get('verdict')!r}")
        if check == "dims":
            want = expected_dimension(entry.m, entry.n)
            values = outcome.get("values", {})
            if not values or any(v != want for v in values.values()):
                found.append(f"dims {values} != {want}")
        problems[check] = found
    return problems
