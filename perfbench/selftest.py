"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

For every workload, with tracing off and on, runs `run.py --size tiny`
for one second and checks that the result line has exactly the keys
correct/attempted/failed/metrics, that its metrics are exactly the
end-to-end (or per-layer) metrics of BENCHMARK.json with their units,
and that no op failed (fail_frac = 0).  Then checks that in a directory
holding only BENCHMARK.json and perfbench/, without the program, the
benchmark exits non-zero without printing a result.  Exits 1 on the
first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import OUT, ROOT
from spec import WORKLOADS


def run_bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=180)


def check_result(workload: str, trace: int, spec: dict) -> None:
    proc = run_bench(ROOT, workload, trace)
    if proc.returncode != 0:
        sys.exit(f"{workload} trace={trace}: exit {proc.returncode}\n"
                 f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if got != want:
        problems.append(f"metrics differ: missing {sorted(set(want) - set(got))},"
                        f" extra {sorted(set(got) - set(want))}")
    if not (result["correct"] and result["failed"] == 0
            and result["attempted"] >= 1):
        problems.append(f"fail_frac {result['failed']}/{result['attempted']}")
    if problems:
        sys.exit(f"{workload} trace={trace}: " + "; ".join(problems))
    print(f"ok  {workload} trace={trace}: {len(got)} metrics, "
          f"fail_frac 0 over {result['attempted']} ops")


def check_without_program() -> None:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run_bench(bare, "sparse-count", 0)
    shutil.rmtree(bare)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    if proc.returncode == 0 or last.startswith("{"):
        sys.exit("without the program the benchmark must exit non-zero "
                 f"without a result (exit {proc.returncode}, last line "
                 f"{last!r})")
    print(f"ok  without the program: exit {proc.returncode}, no result")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in sorted(WORKLOADS):
        for trace in (0, 1):
            check_result(workload, trace, spec)
    check_without_program()


if __name__ == "__main__":
    main()
