#!/usr/bin/env python3
"""Time the slope-code and the mod-p row kernels of richlines on b-bit inputs.

    PYTHONPATH=src python3 scripts/kernel_crossover.py --seed 1 --bits 128,256

Two inputs per bit size: 400 random points, and a rich one, three
parallel rows of 133 points (a third of all pairs lie on rich lines)
moved by a random integer projective map.  Each kernel runs five times,
alternating which goes first; the medians and their ratio are printed,
and the two results are checked to be the same member lists in the same
order, with the same 2-point count.  richlines._BIG_BITS is set from
where the ratio crosses 1.
"""

import argparse
import random
import statistics
import time

from orchard import richlines
from orchard.projective import canonical

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


def timed(hs: list, big_bits: int) -> tuple[float, tuple]:
    """The time to read every line of the stream, and (the lines, the
    2-point count)."""
    richlines._BIG_BITS = big_bits
    lines: list = []
    t0 = time.perf_counter()
    two_point = richlines._drain(richlines._rich_lines(hs), lines.append)
    return time.perf_counter() - t0, (lines, two_point)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--bits", default="32,64,128,192,256,320,384,512")
    ap.add_argument("--reps", type=int, default=5)
    args = ap.parse_args()
    rng = random.Random(args.seed)
    print("bits,input,slope_s,mod_p_s,slope_over_mod_p")
    for bits in map(int, args.bits.split(",")):
        for name, make in (("random", random_points), ("rich", rich_points)):
            hs = make(rng, bits)
            times: dict[int, list[float]] = {SLOPE: [], MOD_P: []}
            for rep in range(args.reps):
                outs = {}
                for kernel in ((SLOPE, MOD_P) if rep % 2 else (MOD_P, SLOPE)):
                    t, outs[kernel] = timed(hs, kernel)
                    times[kernel].append(t)
                if outs[SLOPE] != outs[MOD_P]:
                    raise SystemExit(f"kernels disagree at {bits} bits, {name}")
            sl, md = (statistics.median(times[k]) for k in (SLOPE, MOD_P))
            print(f"{bits},{name},{sl:.3f},{md:.3f},{sl / md:.2f}", flush=True)


if __name__ == "__main__":
    main()
