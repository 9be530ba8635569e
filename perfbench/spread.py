"""Run-to-run spread of the benchmark's metrics, and the baseline record.

    python3 perfbench/spread.py --runs 10 --out perfbench/out/spread.json
    python3 perfbench/spread.py --workloads lattice-verify --runs 5
    python3 perfbench/spread.py --runs 3 --trace 1 --out perfbench/out/layers.json

Runs `run.py` once per seed (1, 2, ..., --runs) on each workload and
reports, per metric, the median of the runs' values and their quartiles
(statistics.quantiles, n=4).  For an end-to-end metric it adds the
spread (q3 - q1) / median next to the metric's bound in BENCHMARK.json,
and marks a spread below a third of the bound steady.
--trace 1 does the same for the per-layer metrics, which have no bound.
The JSON written to --out holds every run's values, so it can serve as
a baseline that a later commit is compared against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, run_context


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="all",
                    help="comma list of workloads, or all of BENCHMARK.json's")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    names = ([w["name"] for w in spec["workloads"]] if args.workloads == "all"
             else args.workloads.split(","))
    seeds = list(range(1, args.runs + 1))
    record = {"context": run_context("all", seeds[0], seconds,
                                     args.trace, "full"),
              "seeds": seeds, "workloads": {}}
    for w in names:
        runs = []
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).with_name("run.py")),
                 "--workload", w, "--seed", str(seed), "--seconds",
                 str(seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, check=True, cwd=ROOT)
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        rows = {}
        for m in spec["per_layer" if args.trace else "end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                           else vals * 3)
            row = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                   "values": vals}
            line = (f"{w:16s} {m['name']:28s} median {med:10.5g} "
                    f"{m['unit']:5s} q1 {q1:10.5g} q3 {q3:10.5g}")
            if "bound" in m:
                spread = (q3 - q1) / med
                row.update(spread=spread, bound=m["bound"])
                line += (f" spread {spread:7.2%} bound {m['bound']:.0%} "
                         + ("steady" if spread < m["bound"] / 3
                            else "within bound" if spread <= m["bound"]
                            else "OVER BOUND"))
            rows[m["name"]] = row
            print(line, flush=True)
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"{w:16s} fail_frac {failed / attempted:g} "
              f"({failed} of {attempted} ops)", flush=True)
        record["workloads"][w] = {"metrics": rows, "failed": failed,
                                  "attempted": attempted}
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
