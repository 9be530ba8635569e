"""End-to-end benchmark of the `orchard` CLI, with a separate traced run.

    python3 perfbench/run.py --workload sparse-count --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Closed loop, one client: one CLI subprocess at a time.  --trace 0 times
whole `python -m orchard.cli ...` calls and reports the end-to-end
metrics of BENCHMARK.json; --trace 1 alternates traced in-process runs
(traced.py) with plain calls and reports the per-layer metrics.  Time
metrics are taken to a reference core speed (see CAL_REF_S).  Every
call's stdout is checked against a reference that does not come from
the code under test.  The last stdout line is one JSON object: correct,
attempted, failed, metrics.  The lines above it give raw quartiles,
sample counts and the run context; a fuller record goes to
perfbench/out/results/.  See perfbench/README.md.

A spawned child starts with its parent's resident-set high-water mark,
so this process stays small: it imports only light standard modules,
leaves input generation to inputs.py, and loads hashlib (OpenSSL, ~3 MB)
only after its last timed call.  Its own peak is recorded as
harness_rss_mb, the floor below which peak_rss_mb cannot read.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import namedtuple
from math import gcd
from pathlib import Path

from spec import LATTICE_DIGEST, SIZES, WORKLOADS, cli_argv

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"

SETUP_PROBES = 3      # set-up probes before the first call (more follow)
MIN_OPS = 3           # calls per run even when one call outlasts --seconds
RUN_MARGIN_S = 130.0  # past --seconds, for inputs and MIN_OPS long calls
TAIL_BEYOND = 10      # a tail percentile needs this many samples beyond it


# one finished child: wall, CPU and peak RSS from one os.wait4
Call = namedtuple("Call", "wall_s cpu_s rss_mb rc stdout t_spawn")

# Core speed.  On the shared host the baseline was taken on, each core's
# speed drifts by up to 1.6x over seconds to minutes, and the two cores
# drift independently.  A run therefore pins itself and its children to
# the cores the workload needs, and times a fixed kernel on those cores
# after every child.  Over one run, the mean call time and the mean
# kernel time follow the same drift (their run-to-run correlation was
# 0.92), so time metrics are call times * CAL_REF_S / mean kernel time:
# the time at the core speed where the kernel takes CAL_REF_S.  The
# kernel is shaped like the workloads' inner loop (integer cross
# products, gcd, dict counting) and shares no code with orchard.
CAL_REF_S = 0.05
CAL_POINTS = [((i * 7919) % 2000001 - 1000000, (i * 104729) % 2000001 - 1000000,
               (i * 1009) % 9973 + 1) for i in range(1, 31)]


def kernel() -> float:
    """Seconds the calibration kernel takes on the current core."""
    t0 = time.perf_counter()
    for _ in range(120):   # small tables keep this process's peak low
        tab: dict = {}
        for i, (x1, y1, z1) in enumerate(CAL_POINTS):
            for x2, y2, z2 in CAL_POINTS[i + 1:]:
                a = y1 * z2 - z1 * y2
                b = z1 * x2 - x1 * z2
                c = x1 * y2 - y1 * x2
                g = gcd(a, b, c)
                key = (a // g, b // g, c // g)
                tab[key] = tab.get(key, 0) + 1
    return time.perf_counter() - t0


def child_env() -> dict:
    src = str(ROOT / "src")
    old = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))


def spawn(argv: list[str], files: Path, deadline: float) -> Call:
    """Run argv to completion; wall, CPU and peak RSS from one os.wait4.

    stdout and stderr go to the files <files>.stdout and <files>.stderr,
    so a child that prints more than a pipe buffer never blocks.  The
    child leads its own process group, which is killed if it outlives
    the deadline.
    """
    out_path = files.with_suffix(".stdout")
    err_path = files.with_suffix(".stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable] + argv,
                             child_env(), setpgroup=0, file_actions=[
                                 (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                                 (os.POSIX_SPAWN_DUP2, err.fileno(), 2)])
        killer = threading.Timer(max(0.0, deadline - t0), os.killpg,
                                 (pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, ru = os.wait4(pid, 0)
        finally:
            killer.cancel()
            killer.join()
        t1 = time.perf_counter()
    return Call(wall_s=t1 - t0, cpu_s=ru.ru_utime + ru.ru_stime,
                rss_mb=ru.ru_maxrss / 1024.0,
                rc=os.waitstatus_to_exitcode(status),
                stdout=out_path.read_bytes(), t_spawn=t0)


def prepare(workload: str, seed: int, size: str,
            timeout: float) -> tuple[str | None, str]:
    """(input path relative to the root, reference) for one seed.

    The reference is the exact expected stdout, or for the lattice
    workload the pinned sha256 of it.  Inputs are cached per seed, and
    making them may take up to `timeout` seconds.
    """
    kind = WORKLOADS[workload]["input"]
    if kind is None:
        return None, LATTICE_DIGEST[size]
    cache = OUT / "inputs" / f"{kind}-{size}-seed{seed}"
    if not (cache / "expected.txt").exists():
        subprocess.run([sys.executable, str(BENCH / "inputs.py"),
                        "--kind", kind, "--seed", str(seed),
                        "--size", size, "--out", str(cache)],
                       check=True, timeout=timeout)
    expected = (cache / "expected.txt").read_text(encoding="utf-8")
    return str((cache / "input.json").relative_to(ROOT)), expected


def is_correct(stdout: bytes, reference: str, kind: str | None) -> bool:
    if kind is None:
        import hashlib   # late: see the module docstring
        return hashlib.sha256(stdout).hexdigest() == reference
    return stdout == reference.encode("utf-8")


def summary(values: list[float]) -> dict:
    """Median, quartiles, sample count, and the highest percentile that
    has at least TAIL_BEYOND samples beyond it (None when none has)."""
    s = sorted(values)
    q1, _, q3 = (statistics.quantiles(s, n=4) if len(s) > 1 else s * 3)
    out = {"median": statistics.median(s), "q1": q1, "q3": q3, "n": len(s),
           "tail": None}
    if len(s) > 2 * TAIL_BEYOND:
        k = len(s) - TAIL_BEYOND
        out["tail"] = {"percentile": round(100.0 * k / len(s), 1),
                       "value": s[k - 1]}
    return out


def run_context(workload: str, seed: int, seconds: float, trace: int,
                size: str) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "size": size,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(), "commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class Runner:
    """One workload at one seed: its input, reference and calls."""

    def __init__(self, workload: str, seed: int, size: str, start: float,
                 seconds: float):
        self.workload = workload
        self.seed = seed
        self.work = OUT / f"work-{os.getpid()}"   # this run's child output
        self.work.mkdir(parents=True, exist_ok=True)
        self.kind = WORKLOADS[workload]["input"]
        # a run kills what it waits for past this point
        self.deadline = start + seconds + RUN_MARGIN_S
        self.input, self.reference = prepare(
            workload, seed, size, self.deadline - time.perf_counter())
        self.argv = cli_argv(workload, size, self.input)
        self.first_stdout: bytes | None = None
        self.ops: list[bool] = []   # per op: exit 0 and stdout == first's
        cpus = sorted(os.sched_getaffinity(0))
        self.cpus = cpus[:WORKLOADS[workload]["cores"]]
        os.sched_setaffinity(0, self.cpus)   # children inherit it
        self.kernel_s: list[float] = []
        self.calibrate()

    def calibrate(self) -> None:
        """Time the kernel once on each of the run's cores."""
        for cpu in self.cpus:
            os.sched_setaffinity(0, [cpu])
            self.kernel_s.append(kernel())
        os.sched_setaffinity(0, self.cpus)

    def scale(self) -> float:
        """Factor from this run's core speed to the reference speed."""
        return CAL_REF_S / statistics.mean(self.kernel_s)

    def spawn(self, argv: list[str], tag: str) -> Call:
        call = spawn(argv, self.work / tag, self.deadline)
        self.calibrate()
        return call

    def check(self, call: Call) -> Call:
        """Record one op; return it without its stdout, which only the
        first op keeps (a growing harness would raise peak_rss_mb's floor)."""
        if self.first_stdout is None:
            self.first_stdout = call.stdout
        self.ops.append(call.rc == 0 and call.stdout == self.first_stdout)
        return call._replace(stdout=b"")

    def failed(self) -> int:
        """Ops that exited non-zero, printed other bytes than the run's
        first op, or (all of them) when the first op's answer is wrong."""
        if not is_correct(self.first_stdout, self.reference, self.kind):
            return len(self.ops)
        return self.ops.count(False)

    def setup_probe(self) -> Call:
        call = self.spawn([str(BENCH / "probe_setup.py")] + self.argv,
                          "probe")
        if call.rc != 0:
            err = (self.work / "probe.stderr").read_text(encoding="utf-8",
                                                         errors="replace")
            raise SystemExit(f"set-up probe failed (exit {call.rc}):\n{err}")
        return call

    def cli_call(self) -> Call:
        call = self.spawn(["-m", "orchard.cli"] + self.argv, "op")
        return self.check(call)

    def traced_call(self, index: int) -> tuple[Call, dict]:
        trace_path = (OUT / "traces"
                      / f"{self.workload}-seed{self.seed}-{index}.json")
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        stdout_path = self.work / "traced.out"
        call = self.spawn([str(BENCH / "traced.py"), "--trace-out",
                           str(trace_path), "--stdout-out", str(stdout_path),
                           "--"] + self.argv, "traced")
        trace = {"spans": [], "counters": {}}
        if call.rc == 0:
            call = call._replace(stdout=stdout_path.read_bytes())
            trace = json.loads(trace_path.read_text(encoding="utf-8"))
        return self.check(call), trace


def measure_end_to_end(r: Runner, seconds: float) -> tuple[dict, dict]:
    """CLI calls until --seconds, each followed by a set-up probe, so that
    both cover the same stretch of the cores' varying speed.  Returns
    the raw samples and the metric values: the mean time per call at the
    reference core speed, and the median peak RSS."""
    t_end = time.perf_counter() + seconds
    r.setup_probe()   # warm-up: byte-compiles orchard once per checkout
    setup = [r.setup_probe().wall_s for _ in range(SETUP_PROBES)]
    calls: list[Call] = []
    while True:
        calls.append(r.cli_call())
        setup.append(r.setup_probe().wall_s)
        step = (statistics.median(c.wall_s for c in calls)
                + statistics.median(setup))
        if len(calls) >= MIN_OPS and time.perf_counter() + step > t_end:
            break
    samples = {"solve_s": [c.wall_s for c in calls],
               "cpu_s": [c.cpu_s for c in calls],
               "peak_rss_mb": [c.rss_mb for c in calls],
               "setup_s": setup}
    values = {k: statistics.mean(v) * r.scale() for k, v in samples.items()}
    values["peak_rss_mb"] = statistics.median(samples["peak_rss_mb"])
    return samples, values


def layer_metrics(call: Call, trace: dict) -> dict:
    """Per-layer metrics of one traced run; times are span self times."""
    spans = trace["spans"]
    by_id = {s["id"]: s for s in spans}
    self_s: dict[str, float] = {}
    for s in spans:
        dur = s["end"] - s["start"]
        self_s[s["name"]] = self_s.get(s["name"], 0.0) + dur
        if s["parent"] is not None:
            parent = by_id[s["parent"]]["name"]
            self_s[parent] = self_s.get(parent, 0.0) - dur
    c = trace["counters"]
    root = next((s for s in spans if s["name"] == "cli.run"), None)
    setup = (root["start"] - call.t_spawn) if root else call.wall_s
    # layer spans only: the tracer's own trace.count spans, which also
    # sit under cli.run, are reported as trace.count_s
    top = sum(s["end"] - s["start"] for s in spans
              if root and s["parent"] == root["id"]
              and s["name"] != "trace.count")
    enum_s = (self_s.get("richlines.spanned_lines", 0.0)
              + self_s.get("richlines.line_members", 0.0))
    verify_s = self_s.get("tenpoint.verify_lattice", 0.0)
    pairs = c.get("richlines.pairs", 0)
    lines = c.get("richlines.lines_stored", 0)
    triples = c.get("tenpoint.triples_checked", 0)
    return {
        "cli.load_s": self_s.get("cli.load", 0.0),
        "cli.self_s": self_s.get("cli.run", 0.0),
        "cli.stdout_bytes": c.get("cli.stdout_bytes", 0),
        "projective.points": c.get("projective.points", 0),
        "projective.coord_bits_max": c.get("projective.coord_bits_max", 0),
        "richlines.spanned_lines_s": self_s.get("richlines.spanned_lines", 0.0),
        "richlines.k_rich_count_s": self_s.get("richlines.k_rich_count", 0.0),
        "richlines.pairs": pairs,
        "richlines.lines_stored": lines,
        "richlines.rich_lines": c.get("richlines.rich_lines", 0),
        "richlines.rich_share": (c.get("richlines.rich_lines", 0) / lines
                                 if lines else 0.0),
        "richlines.joins_per_s": pairs / enum_s if enum_s else 0.0,
        "richlines.line_members_s": self_s.get("richlines.line_members", 0.0),
        "richlines.tripartite_count_s":
            self_s.get("richlines.tripartite_count", 0.0),
        "richlines.members": c.get("richlines.members", 0),
        "tenpoint.extend_s": self_s.get("tenpoint.extend", 0.0),
        "tenpoint.verify_lattice_s": verify_s,
        "tenpoint.triples_checked": triples,
        "tenpoint.triples_per_s": triples / verify_s if verify_s else 0.0,
        "grouplaw.contains_s": self_s.get("grouplaw.contains", 0.0),
        "trace.count_s": self_s.get("trace.count", 0.0),
        "trace.setup_s": setup,
        "trace.wall_s": call.wall_s,
        "trace.span_coverage": top / (call.wall_s - setup),
    }


def measure_traced(r: Runner, seconds: float) -> tuple[dict, dict]:
    """Alternate traced runs with plain calls until --seconds; the plain
    calls give the solve_s that tracing overhead is measured against.
    Returns the raw samples and the metric values: medians over the
    traced runs, with times and rates at the reference core speed."""
    t_end = time.perf_counter() + seconds
    r.setup_probe()   # warm-up, as in measure_end_to_end
    per_run: list[dict] = []
    plain: list[float] = []
    while True:
        call, trace = r.traced_call(len(per_run))
        if call.rc != 0:
            break
        per_run.append(layer_metrics(call, trace))
        plain.append(r.cli_call().wall_s)
        per_pair = statistics.median(m["trace.wall_s"] for m in per_run) \
            + statistics.median(plain)
        if time.perf_counter() + per_pair > t_end:
            break
    if not per_run:
        raise SystemExit("traced run failed: "
                         + (r.work / "traced.stderr").read_text(
                             encoding="utf-8", errors="replace"))
    samples = {name: [m[name] for m in per_run] for name in per_run[0]}
    samples["trace.overhead_s"] = [statistics.median(samples["trace.wall_s"])
                                   - statistics.median(plain)]
    samples["trace.plain_solve_s"] = plain
    scale = r.scale()
    values = {}
    for name, v in samples.items():
        factor = (1 / scale if name.endswith("_per_s")
                  else scale if name.endswith("_s") else 1)
        values[name] = statistics.median(v) * factor
    return samples, values


def run_one(workload: str, seed: int, seconds: float, trace: int,
            size: str) -> dict:
    start = time.perf_counter()
    OUT.mkdir(parents=True, exist_ok=True)
    affinity = os.sched_getaffinity(0)
    runner = Runner(workload, seed, size, start, seconds)
    measure = measure_traced if trace else measure_end_to_end
    try:
        samples, values = measure(runner, seconds)
    finally:
        os.sched_setaffinity(0, affinity)
        shutil.rmtree(runner.work)
    harness_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = runner.failed()   # may import hashlib, so after the line above
    record = {"context": run_context(workload, seed, seconds, trace, size),
              "attempted": len(runner.ops), "failed": failed,
              "fail_frac": failed / len(runner.ops),
              "harness_rss_mb": harness_rss_mb,
              "cores": runner.cpus, "scale": runner.scale(),
              "kernel_s": runner.kernel_s, "values": values,
              "stats": {k: summary(v) for k, v in samples.items()},
              "samples": samples,
              "elapsed_s": time.perf_counter() - start}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-{size}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    return record


def report(record: dict, metrics: list[dict]) -> dict:
    """Print the human-readable lines; return the result's metrics."""
    ctx = record["context"]
    print(f"# {ctx['workload']} seed={ctx['seed']} size={ctx['size']} "
          f"trace={ctx['trace']} nproc={ctx['nproc']} cpu={ctx['cpu_model']!r} "
          f"python={ctx['python']} commit={ctx['commit']}")
    print(f"# cores {record['cores']}; core-speed scale {record['scale']:.4g} "
          f"(mean kernel {statistics.mean(record['kernel_s']) * 1e3:.4g} ms "
          f"over {len(record['kernel_s'])} timings, reference "
          f"{CAL_REF_S * 1e3:g} ms); raw per-sample quartiles follow the value")
    out = {}
    for m in metrics:
        st = record["stats"][m["name"]]
        tail = (f" p{st['tail']['percentile']:g}={st['tail']['value']:.6g}"
                if st["tail"] else "")
        value = record["values"][m["name"]]
        print(f"{m['name']:32s} {value:14.6g} {m['unit']:6s} raw "
              f"median={st['median']:.6g} q1={st['q1']:.6g} "
              f"q3={st['q3']:.6g} n={st['n']}{tail}")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    print(f"{'fail_frac':32s} {record['fail_frac']:14.6g} ratio  "
          f"failed={record['failed']} attempted={record['attempted']}")
    if ctx["trace"]:
        v = record["values"]
        print(f"# tracing overhead {v['trace.overhead_s']:.4g} s = traced "
              f"wall {v['trace.wall_s']:.4g} s - plain solve "
              f"{v['trace.plain_solve_s']:.4g} s (medians); layer spans cover "
              f"{v['trace.span_coverage']:.1%} of traced wall minus set-up")
    else:
        print("# peak_rss_mb is ru_maxrss from os.wait4: the largest single "
              "process of the call's tree, not the sum over its processes; "
              f"it reads at least this harness's own peak, "
              f"{record['harness_rss_mb']:.4g} MB")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full",
                    help="tiny is for selftest.py")
    args = ap.parse_args()
    os.chdir(ROOT)
    if not (ROOT / "src" / "orchard" / "cli.py").exists():
        raise SystemExit("orchard sources not found under src/")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    workloads = ([w["name"] for w in spec["workloads"]]
                 if args.workload == "all" else [args.workload])
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads:
        record = run_one(w, args.seed, args.seconds, args.trace, args.size)
        values = report(record, metrics)
        prefix = f"{w}." if args.workload == "all" else ""
        result["metrics"].update({prefix + k: v for k, v in values.items()})
        result["attempted"] += record["attempted"]
        result["failed"] += record["failed"]
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
