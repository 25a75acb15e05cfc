"""The resint benchmark: `resint verify` on two workloads.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload groebner --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60 --trace 0

One run drives `resint.cli.cmd_verify`, the function `resint verify` runs,
in this process.  A pass is one `cmd_verify` call per ladder entry of the
workload (see workloads.py); calls cycle through the ladder until the next
one would end after `--seconds`.  Every report goes through the
correctness gate.

With `--trace 0` the run reports the end-to-end metrics:

    verify_cpu_s      CPU seconds of a typical pass: the sum over ladder
                      entries of the median of the entry's cmd_verify calls,
                      each timed by the CPU time of this process (all threads)
    setup_s           median, over fresh interpreters, of the CPU seconds of
                      `import resint.cli` plus build_instance of every entry
    peak_rss_mb       peak resident memory of this process, which ran the passes
    check_pass_ratio  (entry, check) verdicts that are True and pass the gate,
                      over those attempted; check_fail_ratio is 1 minus it

With `--trace 1` untraced and traced passes alternate and the run reports
the per-layer metrics of tracer.py, plus the traced and untraced pass
times and their difference, the tracing overhead.  Counts must repeat
exactly across the traced passes of a run.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Reports are written to a
temporary directory .perfbench-*/ in the checkout and removed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS, Entry, gate, ladder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: fewest fresh interpreters timed per run for setup_s; the median is reported
SETUP_PROBES = 7


def import_cli():
    """resint.cli from this checkout's sources, never from anywhere else."""
    if not (SRC / "resint" / "__init__.py").is_file():
        raise SystemExit(f"error: no resint sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import resint.cli

    if not Path(resint.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported resint from {resint.cli.__file__}, not {SRC}")
    return resint.cli


def report_dir() -> tempfile.TemporaryDirectory:
    """A directory for cmd_verify's reports, removed when the run ends.

    It lies in the checkout, the only place the benchmark writes to.
    """
    return tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT)


def measure_setup(entries: list[Entry]) -> float:
    """CPU seconds of one fresh interpreter's `import resint.cli` plus build_instance."""
    spec = ";".join(f"{e.m},{e.n},{e.field}" for e in entries)
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), spec],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(out.stdout.split()[-1])


class Tally:
    """(entry, check) verdicts attempted and failed over a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, entry: Entry, problems: dict[str, list[str]]):
        for check, found in problems.items():
            self.attempted += 1
            if found:
                self.failed += 1
                print(f"GATE FAIL {entry.text} {check}: {'; '.join(found)}", file=sys.stderr)


def run_call(cli, entry: Entry, out: Path, tally: Tally) -> tuple[float, float]:
    """Wall and CPU seconds of one cmd_verify call, whose report goes through the gate.

    The CPU time is that of the whole process, so it covers both threads
    of cmd_verify's pool; it leaves out the time the host gives the
    machine's cores to other tenants, which wall time counts.
    """
    config = cli.RunConfig(
        m=entry.m,
        n=entry.n,
        field_name=entry.field,
        degree_bound=entry.degree_bound,
        output_dir=out,
    )
    report = None
    started, cpu_started = time.perf_counter(), time.process_time()
    try:
        report, code = cli.cmd_verify(config, list(entry.checks))
    except Exception:  # a crash is a failed check; the run goes on
        traceback.print_exc()
    seconds, cpu = time.perf_counter() - started, time.process_time() - cpu_started
    if report is None:
        problems = {check: ["cmd_verify raised"] for check in entry.checks}
    else:
        problems = gate(entry, report, code)
    tally.add(entry, problems)
    return seconds, cpu


def run_pass(cli, entries: list[Entry], scratch: Path, tally: Tally) -> float:
    """Wall seconds of one pass: the sum of its cmd_verify calls."""
    return sum(run_call(cli, entry, scratch / str(i), tally)[0] for i, entry in enumerate(entries))


def end_to_end(cli, entries, seconds, scratch, tally) -> dict[str, tuple[float, str]]:
    """Calls cycle through the ladder until the next one would end after `seconds`.

    verify_cpu_s is the sum over entries of the median of that entry's
    calls in CPU seconds: the time of a typical pass.  It uses every call
    of the run, also those of the last, partial pass, and one slow call
    moves it less than it moves the pass it falls in.  Wall seconds are
    printed too, but they count the time the shared host's other tenants
    hold its cores, which made them spread by a third between runs.  A
    set-up probe follows every call, outside the timed region, so probes
    meet the same machine load as the calls; more follow if the run made
    fewer than SETUP_PROBES.
    """
    walls: list[list[float]] = [[] for _ in entries]
    cpus: list[list[float]] = [[] for _ in entries]
    setup: list[float] = []
    started = time.perf_counter()
    for i in itertools.count():
        k = i % len(entries)
        if walls[k] and time.perf_counter() - started + max(walls[k]) > seconds:
            break
        wall, cpu = run_call(cli, entries[k], scratch / str(k), tally)
        walls[k].append(wall)
        cpus[k].append(cpu)
        setup.append(measure_setup(entries))
    while len(setup) < SETUP_PROBES:
        setup.append(measure_setup(entries))
    for entry, wall, cpu in zip(entries, walls, cpus):
        print(f"{entry.text}: wall {', '.join(f'{t:.3f}' for t in wall)} s; "
              f"cpu {', '.join(f'{t:.3f}' for t in cpu)} s")
    for clock, calls in (("wall", walls), ("cpu", cpus)):
        passes = [sum(pass_) for pass_ in zip(*calls)]
        print(
            f"{clock}: {sum(statistics.median(t) for t in calls):.3f} s (sum of per-entry medians); "
            f"complete passes: {', '.join(f'{t:.3f}' for t in passes)} s, median "
            f"{statistics.median(passes):.3f} s, max {max(passes):.3f} s over {len(passes)} "
            f"(too few for a percentile with ten passes beyond it)"
        )
    print(f"setup_s probes: {', '.join(f'{t:.4f}' for t in setup)} s")
    print(f"check_fail_ratio: {tally.failed}/{tally.attempted}")
    return {
        "verify_cpu_s": (sum(statistics.median(t) for t in cpus), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "check_pass_ratio": (1 - tally.failed / tally.attempted, "ratio"),
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


def per_layer(cli, entries, seconds, scratch, tally) -> dict[str, tuple[float, str]]:
    """Untraced and traced passes alternate, untraced first, one of each at least."""
    tracer = Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    summaries: list[dict] = []
    started = time.perf_counter()
    while not traced or time.perf_counter() - started + max(untraced + traced) <= seconds:
        if len(untraced) <= len(traced):
            untraced.append(run_pass(cli, entries, scratch, tally))
            continue
        tracer.reset()
        tracer.install()
        try:
            traced.append(run_pass(cli, entries, scratch, tally))
        finally:
            tracer.uninstall()
        summaries.append(tracer.summary())
    counts = [{k: v for k, v in s.items() if layer_unit(k) != "s"} for s in summaries]
    if any(c != counts[0] for c in counts[1:]):
        tally.errors.append("per-layer counts differ between traced passes")
        print(f"COUNTS DIFFER between traced passes: {counts}", file=sys.stderr)
    metrics = {}
    for name, value in summaries[0].items():
        unit = layer_unit(name)
        if unit == "s":
            value = statistics.median(s[name] for s in summaries)
        metrics[name] = (value, unit)
    metrics["trace.verify_s"] = (statistics.median(traced), "s")
    metrics["trace.untraced_verify_s"] = (statistics.median(untraced), "s")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    print(f"traced passes: {', '.join(f'{t:.3f}' for t in traced)} s")
    print(f"untraced passes: {', '.join(f'{t:.3f}' for t in untraced)} s")
    return metrics


def run_one(args) -> int:
    cli = import_cli()
    entries = ladder(args.workload, args.seed)
    print(f"workload {args.workload}, seed {args.seed}: " + "; ".join(e.text for e in entries))
    tally = Tally()
    measure = per_layer if args.trace else end_to_end
    with report_dir() as scratch:
        metrics = measure(cli, entries, args.seconds, Path(scratch), tally)
    correct = tally.failed == 0 and not tally.errors
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


def run_in_child(workload: str, seed: int, seconds: float, trace: int) -> dict | None:
    """One run in a fresh process: its result line, or None if it exited non-zero."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        print(f"{workload} seed {seed}: exit code {out.returncode}")
        return None
    return json.loads(out.stdout.splitlines()[-1])


def run_all(args) -> int:
    """Every workload in its own process, as one table."""
    code = 0
    for name in WORKLOADS:
        result = run_in_child(name, args.seed, args.seconds, args.trace)
        if result is None:
            code = 1
            continue
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, mv in result["metrics"].items():
            print(f"  {metric:<48} {mv['value']:>14.6g} {mv['unit']}")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
