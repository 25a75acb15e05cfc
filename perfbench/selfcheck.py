"""Self-checks of the benchmark itself.

Usage, from the root of the repository:

    python3 perfbench/selfcheck.py

- Two traced runs of every workload, each in a fresh process, must give
  identical per-layer counts.
- The metrics a run prints must be exactly those BENCHMARK.json declares.
- The predictions the layer split was built on are printed with whether
  the traced run confirms them; they are recorded, not enforced.

Exits 1 when counts differ or the names do not match.
"""

from __future__ import annotations

import json

from run import ROOT, run_in_child
from workloads import WORKLOADS

#: one short run per workload is enough: counts do not depend on its length
SECONDS = 1
SEED = 1


def run(workload: str, trace: int) -> dict:
    result = run_in_child(workload, SEED, SECONDS, trace)
    if result is None:
        raise SystemExit(f"{workload}: run.py failed")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    return values | {"_units": {k: v["unit"] for k, v in result["metrics"].items()}}


def predictions(layers: dict[str, dict]) -> list[tuple[str, bool, str]]:
    g, st = layers["groebner"], layers["structure-q"]
    kernel_entries = WORKLOADS["groebner"].part_entries(("sagbi", "squarefree"))
    trans_entries = WORKLOADS["structure-q"].part_entries(("transbasis", "dims"))
    toric = g["sagbi.toric_kernel.calls"] / kernel_entries
    trans = st["transcendence.verify_transcendence_basis.calls"] / trans_entries
    share = g["groebner.buchberger.self_s"] / g["trace.verify_s"]
    mul_share = g["ring.mul.self_s"] / g["trace.verify_s"]
    subduce_share = g["sagbi.subduce_s"] / g["trace.verify_s"]
    return [
        ("groebner.buchberger.calls is 0 on structure-q", st["groebner.buchberger.calls"] == 0,
         str(st["groebner.buchberger.calls"])),
        ("sagbi.toric_kernel.calls is 2 per sagbi/squarefree entry", toric == 2, f"{toric:g} per entry"),
        ("transcendence.verify_transcendence_basis.calls is 2 per transbasis/dims entry", trans == 2,
         f"{trans:g} per entry"),
        ("Groebner self time is the majority of verify_s on groebner", share > 0.5,
         f"buchberger.self_s / traced verify_s = {share:.3f}"),
        ("ring.mul is near zero on groebner (under 5% of verify_s)", mul_share < 0.05,
         f"ring.mul.self_s / traced verify_s = {mul_share:.4f}"),
        ("subduction is negligible on groebner (under 1% of verify_s)", subduce_share < 0.01,
         f"sagbi.subduce_s / traced verify_s = {subduce_share:.4f}"),
    ]


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True

    layers = {}
    for w in WORKLOADS:
        first, second = (run(w, 1) for _ in range(2))
        counts = [k for k, u in first["_units"].items() if u != "s"]
        differ = [k for k in counts if first[k] != second[k]]
        print(f"{w}: {len(counts)} counts, " + (f"DIFFER: {differ}" if differ else "identical in two runs"))
        ok = ok and not differ
        layers[w] = first

    e2e = run("structure-q", 0)
    for kind, got in (("end_to_end", e2e), ("per_layer", layers["structure-q"])):
        want = {m["name"]: m["unit"] for m in declared[kind]}
        if want != got["_units"]:
            print(f"{kind}: BENCHMARK.json declares {want}, a run prints {got['_units']}")
            ok = False
        else:
            print(f"{kind}: names and units match BENCHMARK.json")

    for text, holds, seen in predictions(layers):
        print(f"prediction {'holds' if holds else 'DOES NOT HOLD'}: {text} ({seen})")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
