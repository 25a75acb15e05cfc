"""Run-to-run spread of the end-to-end metrics, and agreement of two sets.

Usage, from the root of the repository:

    python3 perfbench/spread.py [--first-seed 1]

Makes two sets of RUNS runs of run.py --trace 0 per workload, RUN_SECONDS
each: the first set with seeds from --first-seed on, the second with the
RUNS seeds after those.  The runs of both sets and both workloads are
interleaved in time, so a slow spell of the machine falls on all of them
alike.  For every set, workload and metric it prints the median of the
runs, the quartiles as `statistics.quantiles(values, n=4)` gives them and
the spread, the distance between the quartiles as a share of the median;
then the second set's median over the first's.  Each is checked against
the metric's bound in BENCHMARK.json: a spread (not that of setup_s) must
stay within the bound, and the second median must not be worse than the
first by more than the bound.  The last line of standard output is the
whole summary as JSON.  Exits 1 if a run fails or a check does not hold.
"""

from __future__ import annotations

import argparse
import json
import statistics

from run import ROOT, run_in_child
from workloads import WORKLOADS

RUNS = 10
#: the run length BENCHMARK.json declares
RUN_SECONDS = 60


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    declared = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    firsts = (args.first_seed, args.first_seed + RUNS)
    names = [f"seeds {f}-{f + RUNS - 1}" for f in firsts]
    values = {name: {w: {} for w in WORKLOADS} for name in names}
    for i in range(RUNS):
        for w in WORKLOADS:
            for name, first in zip(names, firsts):
                result = run_in_child(w, first + i, RUN_SECONDS, 0)
                if result is None:
                    return 1
                for k, v in result["metrics"].items():
                    values[name][w].setdefault(k, []).append(v["value"])
                shown = ", ".join(f"{k} {v['value']:.4f}" for k, v in result["metrics"].items())
                print(f"{w} seed {first + i}: {shown}", flush=True)

    ok = True
    sets = {name: {w: {k: summarize(v) for k, v in per_w.items()} for w, per_w in per_set.items()}
            for name, per_set in values.items()}
    ratios = {}
    for w in WORKLOADS:
        ratios[w] = {}
        for k, metric in declared.items():
            bound = metric["bound"]
            for name in names:
                s = sets[name][w][k]
                holds = k == "setup_s" or s["spread"] <= bound
                ok = ok and holds
                print(f"{name:<11} {w:<13} {k:<17} median {s['median']:.4f} q1 {s['q1']:.4f} "
                      f"q3 {s['q3']:.4f} spread {s['spread']:.4f} (bound {bound}, a third {bound / 3:.4f})"
                      + ("" if holds else " OVER BOUND"))
            ratio = sets[names[1]][w][k]["median"] / sets[names[0]][w][k]["median"]
            worse = ratio - 1 if metric["better"] == "lower" else 1 - ratio
            ok = ok and worse <= bound
            ratios[w][k] = ratio
            print(f"{w:<13} {k:<17} second median over first {ratio:.4f}"
                  + ("" if worse <= bound else " WORSE THAN BOUND"))
    print(json.dumps({"sets": sets, "second_median_over_first": ratios}))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
