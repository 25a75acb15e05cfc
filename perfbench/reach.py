"""One-shot reach run: the ROADMAP ladder once, each entry under a timeout.

Usage, from the root of the repository:

    python3 perfbench/reach.py

Not part of the repeated benchmark: the heavy points (radical (6,2),
transbasis (7,4)) take about a minute each, too long to repeat 22 times.
Each entry runs one check through `cmd_verify` in a fresh process with the
tracer installed, and is recorded as its seconds and per-layer figures, or
as `timeout` after TIMEOUT seconds.  The last line of standard output is
every row as JSON.  The tracer costs a few percent here; the seconds are those
of the traced call.  The `asl` rows run the existing straightening-law
check at degree bound 2, the sizes where the ROADMAP's straightening
prototype was timed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from run import ROOT, import_cli, report_dir
from tracer import Tracer

TIMEOUT = 120

#: (check, m, n, field, degree bound)
REACH = (
    ("radical", 5, 2, "Fp:32003", 3),
    ("radical", 5, 3, "Fp:32003", 3),
    ("radical", 6, 2, "Fp:32003", 3),
    ("sagbi", 5, 2, "Q", 3),
    ("sagbi", 6, 2, "Q", 3),
    ("transbasis", 6, 4, "Q", 3),
    ("transbasis", 7, 4, "Q", 3),
    ("transbasis", 8, 4, "Q", 3),
    ("asl", 7, 3, "Q", 2),
    ("asl", 8, 4, "Q", 2),
)


def run_entry(check: str, m: int, n: int, field: str, degree_bound: int, out: Path) -> dict:
    """Child side: one traced cmd_verify call, its report written under `out`."""
    cli = import_cli()
    tracer = Tracer()
    tracer.install()
    try:
        config = cli.RunConfig(m=m, n=n, field_name=field, degree_bound=degree_bound, output_dir=out)
        started = time.perf_counter()
        report, code = cli.cmd_verify(config, [check])
        seconds = time.perf_counter() - started
    finally:
        tracer.uninstall()
    return {
        "seconds": seconds,
        "exit_code": code,
        "verdict": report["checks"][check].get("verdict"),
        "layers": {k: v for k, v in tracer.summary().items() if v},
    }


def reach_entry(check, m, n, field, degree, scratch: Path) -> dict:
    """Parent side: one entry in a fresh process, killed at the timeout."""
    row = {"check": check, "m": m, "n": n, "field": field, "degree_bound": degree}
    try:
        out = subprocess.run(
            [sys.executable, __file__, "--one", check, str(m), str(n), field, str(degree),
             str(scratch / f"{check}-{m}-{n}")],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        row.update(result="timeout", timeout_s=TIMEOUT)
    else:
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            row["result"] = f"exit code {out.returncode}"
        else:
            row["result"] = "done"
            row.update(json.loads(out.stdout.splitlines()[-1]))
    shown = f"{row['seconds']:.2f} s" if "seconds" in row else row["result"]
    pairs = row.get("layers", {}).get("groebner.pairs")
    print(f"{check:>10} ({m},{n}) {field:<9} {shown}" + (f", {pairs} pairs" if pairs else ""), flush=True)
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--one", nargs=6, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one:
        check, m, n, field, degree, out = args.one
        print(json.dumps(run_entry(check, int(m), int(n), field, int(degree), Path(out))))
        return 0
    # the parent owns the report directory, so a killed child leaves nothing
    with report_dir() as scratch:
        rows = [reach_entry(*entry, Path(scratch)) for entry in REACH]
    print(json.dumps(rows))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
