#!/usr/bin/env python3
"""Time the slope-code and the mod-p row kernels of richlines on b-bit inputs.

    PYTHONPATH=src python3 scripts/kernel_crossover.py --seed 1 --bits 128,256
    PYTHONPATH=src python3 scripts/kernel_crossover.py --bits 128 \
        --against ../parent

Two inputs per bit size: 400 random points, and a rich one, three
parallel rows of 133 points (a third of all pairs lie on rich lines)
moved by a random integer projective map.  On each, the count "lines"
reads the whole line stream; on the rich input the count "tripartite"
also runs tripartite_count(1, 2, 3) with the points labelled by row.
Each kernel runs five times, alternating which goes first; the medians
and their ratio are printed, and the two results are checked to be the
same (the same member lists in the same order; the same tripartite
count).  richlines._BIG_BITS is set from where the ratio crosses 1.

--against DIR also loads the orchard of the checkout DIR, as the
package orchard_against in the same process, and times its two kernels
on the same inputs, interleaved with this tree's rep by rep, so that
core-speed drift hits both trees alike.  Each row then adds that tree's
medians and, per kernel, the reps in which this tree was the faster; all
four results are checked to be the same.
"""

import argparse
import importlib.util
import random
import statistics
import sys
import time
from pathlib import Path

from orchard import richlines
from orchard.projective import ProjPoint, canonical

SLOPE, MOD_P = 10 ** 9, -1      # _BIG_BITS values that force each kernel


def random_points(rng: random.Random, bits: int, n: int = 400) -> list:
    def coord():
        return rng.getrandbits(bits) - (1 << (bits - 1))
    return [canonical((coord(), coord(), rng.getrandbits(bits) | 1))
            for _ in range(n)]


def rich_points(rng: random.Random, bits: int, m: int = 133) -> list:
    entry_bits = bits - 8            # leaves room for the row coordinates
    while True:
        a = [[rng.getrandbits(entry_bits) - (1 << (entry_bits - 1))
              for _ in range(3)] for _ in range(3)]
        det = (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
               - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
               + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))
        if det:
            break
    return [canonical([r[0] * x + r[1] * y + r[2] for r in a])
            for y in (0, 1, 2) for x in range(m)]


def load_tree(checkout: str):
    """The richlines module of the orchard in checkout/src, loaded as the
    package orchard_against beside the orchard that this script imports."""
    init = Path(checkout) / "src" / "orchard" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"--against {checkout}: no {init}")
    spec = importlib.util.spec_from_file_location(
        "orchard_against", init, submodule_search_locations=[str(init.parent)])
    sys.modules[spec.name] = package = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(package)
    return importlib.import_module(f"{spec.name}.richlines")


def lines(rl, hs: list) -> list:
    """The lines of the stream of the richlines module rl."""
    return list(rl._rich_lines(hs))


def tripartite(rl, hs: list) -> int:
    """tripartite_count(1, 2, 3) of rich_points, labelled by row."""
    m = len(hs) // 3
    ps = rl.PointSet([ProjPoint(h) for h in hs],
                     [1] * m + [2] * m + [3] * m)
    return rl.tripartite_count(ps, (1, 2, 3))


def timed(count, rl, hs: list, big_bits: int) -> tuple[float, object]:
    """The time of count(rl, hs) under one kernel, and its result."""
    rl._BIG_BITS = big_bits
    t0 = time.perf_counter()
    out = count(rl, hs)
    return time.perf_counter() - t0, out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--bits", default="32,64,128,192,256,320,384,512")
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--against", metavar="DIR",
                    help="a second checkout, timed interleaved with this one")
    args = ap.parse_args()
    trees = [richlines] + ([load_tree(args.against)] if args.against else [])
    rng = random.Random(args.seed)
    print("bits,input,count,slope_s,mod_p_s,slope_over_mod_p"
          + (",against_slope_s,against_mod_p_s,slope_wins,mod_p_wins"
             if args.against else ""))
    cases = (("random", random_points, (lines,)),
             ("rich", rich_points, (lines, tripartite)))
    runs = [(rl, kernel) for kernel in (SLOPE, MOD_P) for rl in trees]
    for bits in map(int, args.bits.split(",")):
        for name, make, counts in cases:
            hs = make(rng, bits)
            for count in counts:
                times: dict = {run: [] for run in runs}
                for rep in range(args.reps):
                    outs = {}
                    for rl, kernel in (runs if rep % 2 else runs[::-1]):
                        t, outs[rl, kernel] = timed(count, rl, hs, kernel)
                        times[rl, kernel].append(t)
                    if any(out != outs[runs[0]] for out in outs.values()):
                        raise SystemExit(f"results disagree at {bits} bits, "
                                         f"{name}, {count.__name__}")
                med = {run: statistics.median(ts) for run, ts in times.items()}
                sl, md = med[richlines, SLOPE], med[richlines, MOD_P]
                row = (f"{bits},{name},{count.__name__},{sl:.3f},{md:.3f},"
                       f"{sl / md:.2f}")
                for rl in trees[1:]:
                    wins = [sum(a < b for a, b in zip(times[richlines, k],
                                                      times[rl, k]))
                            for k in (SLOPE, MOD_P)]
                    row += (f",{med[rl, SLOPE]:.3f},{med[rl, MOD_P]:.3f},"
                            f"{wins[0]},{wins[1]}")
                print(row, flush=True)


if __name__ == "__main__":
    main()
