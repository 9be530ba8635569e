#!/usr/bin/env python3
"""Split the set-up of one orchard CLI call into layers, timed in pairs.

    python3 scripts/setup_split.py --reps 30 -- count --in in.json --k 3
    python3 scripts/setup_split.py --against ../parent --json split.json \
        -- bound --n 10

Each rep spawns, for this checkout and then (in the other order on odd
reps) the --against checkout, pinned to one core:
- a bare interpreter, `python -c pass` ended as orchard.cli.main ends
  a call, by os._exit, without the interpreter's teardown;
- the call, `python -m orchard.cli ARGV`, as the benchmark runs it:
  under PYTHONDONTWRITEBYTECODE=1, so orchard is compiled from source;
- the call under `-X importtime`, with a bytecode cache under
  PYTHONPYCACHEPREFIX, in a temporary directory (filled by a first
  call), so that nothing is written under src/: the imports layer is
  the self time of each module that the call loads and the bare
  interpreter does not, by orchard module and the rest together;
- the compilation layer, timed in this process: compile() on the
  sources of the orchard modules that the cached call lists and of
  orchard/cli.py, which runs as __main__ and is not listed, as the
  call without a cache compiles them, the best of COMPILE_RUNS runs;
- the cached call's own argument parsing and points-file read
  (orchard.cli.parse_args and _load_pointset), timed in process.
No row is the difference of two spawned calls, which would carry the
spread of both.  Each row is the median over the reps, in ms; with --against, the change is the median of the paired
differences (this checkout less the other) and wins counts the reps in
which this checkout was the faster.

A checkout with a __pycache__ under src/ is refused: the call without
a cache would read it.  Nothing is asserted of the times.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BARE = ["-c", "import os; os._exit(0)"]
COMPILE_RUNS = 5

# run in the cached call's interpreter: the parse and the read, in s
IN_PROCESS = """
import sys, time
sys.set_int_max_str_digits(0)
import orchard.cli as cli
t0 = time.perf_counter()
args = cli.build_parser().parse_args(sys.argv[1:])
t1 = time.perf_counter()
if getattr(args, "infile", None):
    cli._load_pointset(args.infile)
print(t1 - t0, time.perf_counter() - t1)
"""


class Tree:
    """One checkout: the environments of its uncached and cached calls."""

    def __init__(self, checkout: Path, cache: Path):
        src = checkout / "src"
        if not (src / "orchard" / "cli.py").is_file():
            raise SystemExit(f"{checkout}: no src/orchard/cli.py")
        caches = sorted(src.glob("**/__pycache__"))
        if caches:
            raise SystemExit(f"{checkout} holds a bytecode cache under src/ "
                             f"({caches[0]}), which the call without a cache "
                             "would read; remove it or use a clean clone")
        base = {k: v for k, v in os.environ.items()
                if k not in ("PYTHONPYCACHEPREFIX", "PYTHONDONTWRITEBYTECODE")}
        base["PYTHONPATH"] = str(src)
        self.name = str(checkout)
        self.package = src / "orchard"
        self.plain = {**base, "PYTHONDONTWRITEBYTECODE": "1"}
        self.cached = {**base, "PYTHONPYCACHEPREFIX": str(cache)}


def spawn(argv: list[str], env: dict) -> tuple[float, str, str]:
    """Wall time of one call, and its stdout and stderr."""
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, *argv], env=env,
                         capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {out.returncode}:\n"
                         f"{out.stderr}")
    return wall, out.stdout, out.stderr


def import_times(stderr: str) -> dict[str, float]:
    """Self time in s of each module in `-X importtime` output."""
    times = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            self_us, _, name = line[len("import time:"):].split("|")
            if self_us.strip().isdigit():
                times[name.strip()] = int(self_us) / 1e6
    return times


def compile_time(tree: Tree, modules: set[str]) -> float:
    """The best of COMPILE_RUNS timings, in s, of compiling the source of
    orchard/cli.py and of each orchard module in modules."""
    names = {m.partition(".")[2] or "__init__" for m in modules} | {"cli"}
    paths = [tree.package / f"{name}.py" for name in sorted(names)]
    sources = [(path.read_bytes(), str(path)) for path in paths]
    best = float("inf")
    for _ in range(COMPILE_RUNS):
        t0 = time.perf_counter()
        for source, path in sources:
            compile(source, path, "exec", dont_inherit=True)
        best = min(best, time.perf_counter() - t0)
    return best


def one_rep(tree: Tree, argv: list[str],
            bare_modules: set) -> dict[str, float]:
    """The layers of one rep of the call in tree, in s."""
    call = ["-m", "orchard.cli", *argv]
    whole = spawn(call, tree.plain)[0]
    row = {"bare interpreter": spawn(BARE, tree.plain)[0]}
    loaded = import_times(spawn(["-X", "importtime", *call],
                                tree.cached)[2])
    parse, read = map(float, spawn(["-c", IN_PROCESS, *argv],
                                   tree.cached)[1].split())
    own = {m: t for m, t in loaded.items() if m not in bare_modules}
    row["imports"] = sum(own.values())
    for module in sorted(m for m in own if m.startswith("orchard")):
        row[f"  {module}"] = own[module]
    row["  other modules"] = sum(t for m, t in own.items()
                                 if not m.startswith("orchard"))
    row["compilation"] = compile_time(tree, {m for m in loaded
                                             if m.startswith("orchard")})
    row["argument parsing"] = parse
    row["points-file read"] = read
    row["whole call"] = whole
    return row


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=20)
    ap.add_argument("--against", metavar="DIR",
                    help="a second checkout, timed in pairs with this one")
    ap.add_argument("--json", metavar="FILE",
                    help="also write the medians to FILE as JSON")
    ap.add_argument("argv", nargs=argparse.REMAINDER,
                    help="the orchard arguments, after --")
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    if not argv or args.reps < 1:
        ap.error("give --reps of 1 or more and the orchard arguments")
    if hasattr(os, "sched_setaffinity"):     # this process and its calls
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with tempfile.TemporaryDirectory() as tmp:
        checkouts = [ROOT] + ([Path(args.against).resolve()]
                              if args.against else [])
        trees = [Tree(c, Path(tmp) / str(k)) for k, c in enumerate(checkouts)]
        for tree in trees:                   # fills each cache
            spawn(["-m", "orchard.cli", *argv], tree.cached)
        bare_modules = set(import_times(spawn(["-X", "importtime", *BARE],
                                              trees[0].plain)[2]))
        reps: list[list[dict]] = [[] for _ in trees]
        for rep in range(args.reps):
            order = list(enumerate(trees))
            for k, tree in (order[::-1] if rep % 2 else order):
                reps[k].append(one_rep(tree, argv, bare_modules))
    modules = sorted({name for side in reps for row in side
                      for name in row if name.startswith("  orchard")})
    layers = ["bare interpreter", "imports", *modules, "  other modules",
              "compilation", "argument parsing", "points-file read",
              "whole call"]
    table: dict = {}
    for name in layers:
        cols = [[row.get(name, 0.0) * 1e3 for row in side] for side in reps]
        entry = {"this": statistics.median(cols[0])}
        if len(cols) > 1:
            diffs = [a - b for a, b in zip(*cols)]
            entry.update(against=statistics.median(cols[1]),
                         change=statistics.median(diffs),
                         wins=sum(d < 0 for d in diffs))
        table[name] = entry
    head = f"{'layer (ms, median)':<28}{'this':>9}"
    if args.against:
        head += f"{'against':>9}{'change':>9}{'wins':>7}"
    print(head)
    for name, entry in table.items():
        line = f"{name:<28}{entry['this']:>9.2f}"
        if args.against:
            line += (f"{entry['against']:>9.2f}{entry['change']:>+9.2f}"
                     f"{entry['wins']:>4}/{args.reps:<2}")
        print(line)
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"argv": argv, "reps": args.reps, "python": sys.version.split()[0],
             "checkouts": [t.name for t in trees], "layers_ms": table},
            indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
