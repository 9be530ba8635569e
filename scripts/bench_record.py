#!/usr/bin/env python3
"""Record benchmark runs of one or more checkouts in BENCH_<pr>.json.

    python3 scripts/bench_record.py --pr 7 --workloads lattice-verify \\
        --seeds 1-10 --seconds 40 parent=/path/to/parent change=.

Each NAME=DIR is a checkout whose own perfbench/run.py is run once per
seed and workload.  The order of the checkouts rotates from seed to
seed, so that core-speed drift hits each alike.  The final JSON line
of every run is kept as printed.  The file also holds each checkout's
commit, the seeds, the core count, the CPU model, the Python version,
the PYTHONDONTWRITEBYTECODE that the runs inherit (when it is set, no
bytecode cache is written, so every call compiles orchard from source)
and, per workload and end-to-end metric, each checkout's median and
quartiles and how many seeds it beat the first checkout on.

A checkout that holds a __pycache__ under src/ is refused: Python reads
a cache that matches its source even under PYTHONDONTWRITEBYTECODE=1,
so that checkout's setup_s would be measured with orchard precompiled.
Record from clean clones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(spec: str) -> list[int]:
    """'1-3,7' -> [1, 2, 3, 7]"""
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def commit(checkout: Path) -> str:
    out = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def refuse_bytecode_cache(checkout: Path) -> None:
    """Exit, naming them, if the checkout holds __pycache__ under src/."""
    caches = sorted(checkout.glob("src/**/__pycache__"))
    if caches:
        raise SystemExit(
            f"checkout {checkout} holds a bytecode cache: "
            f"{', '.join(map(str, caches))}; Python reads a valid cache even "
            "under PYTHONDONTWRITEBYTECODE=1, which would lower setup_s. "
            "Remove it or record from a clean clone.")


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The final JSON line of one perfbench/run.py call in the checkout."""
    argv = [sys.executable, str(checkout / "perfbench" / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    out = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} failed in {checkout}:\n"
                         f"{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(runs: list[dict], names: list[str], metrics: list[dict]) -> dict:
    """Per workload and metric: each checkout's median and quartiles, and
    the seeds on which it beat the first checkout (ties count for none)."""
    out: dict = {}
    for w in sorted({r["workload"] for r in runs}):
        for m in metrics:
            by = {name: {r["seed"]: r["result"]["metrics"][m["name"]]["value"]
                         for r in runs
                         if r["workload"] == w and r["side"] == name}
                  for name in names}
            sign = 1 if m["better"] == "lower" else -1
            row = {}
            for name in names:
                vals = sorted(by[name].values())
                q1, med, q3 = (statistics.quantiles(vals, n=4)
                               if len(vals) > 1 else vals * 3)
                row[name] = {"median": med, "q1": q1, "q3": q3,
                             "n": len(vals)}
                if name != names[0]:
                    row[name]["wins"] = sum(
                        1 for s, v in by[name].items()
                        if sign * (v - by[names[0]][s]) < 0)
            out.setdefault(w, {})[m["name"]] = row
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--workloads", required=True,
                    help="comma list of perfbench workloads")
    ap.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,4,7")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--out", help="default: BENCH_<pr>.json at the root")
    ap.add_argument("checkouts", nargs="+", metavar="NAME=DIR")
    args = ap.parse_args()
    sides = {}
    for item in args.checkouts:
        name, sep, path = item.partition("=")
        if not sep or not name or name in sides:
            raise SystemExit(f"checkout {item!r}: expected a new NAME=DIR")
        sides[name] = Path(path).resolve()
        refuse_bytecode_cache(sides[name])
    names = list(sides)
    seeds = seed_list(args.seeds)
    workloads = args.workloads.split(",")
    runs = []
    for k, seed in enumerate(seeds):
        order = names[k % len(names):] + names[:k % len(names)]
        for w in workloads:
            for name in order:
                print(f"seed {seed} {w} {name}", file=sys.stderr, flush=True)
                runs.append({"side": name, "workload": w, "seed": seed,
                             "result": run(sides[name], w, seed,
                                           args.seconds)})
    spec = json.loads((sides[names[0]] / "BENCHMARK.json").read_text(
        encoding="utf-8"))
    record = {"pr": args.pr, "seconds": args.seconds, "seeds": seeds,
              "workloads": workloads,
              "checkouts": {n: {"commit": commit(p)}
                            for n, p in sides.items()},
              "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
              "python": platform.python_version(),
              "PYTHONDONTWRITEBYTECODE":
                  os.environ.get("PYTHONDONTWRITEBYTECODE"),
              "summary": summarize(runs, names, spec["end_to_end"]),
              "runs": runs}
    out = Path(args.out) if args.out else ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
