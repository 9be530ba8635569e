"""Build a workload input from a seed, with its reference answer.

    python3 perfbench/inputs.py --kind sparse --seed 7 --size full --out DIR

writes DIR/input.json (an orchard points file) and DIR/expected.txt
(the exact stdout the CLI call must print).  Nothing here imports
orchard: inputs and references come from outside the code under test.

sparse      n random rational points (the recipe of the acceptance test
            test_c14, which gives 20 lines with 3 or more points at
            seed 7).  Reference: an exact per-anchor slope grouping that
            shares no code with richlines' pair table.
tripartite  three rows of an arithmetic progression (`gen_parallel_aps`),
            labelled by row and moved by a seeded invertible integer
            projective map.  The map keeps collinearity, so the answer is
            the closed form for every seed.  Every seed is transformed,
            so that all seeds cost the same.
"""

from __future__ import annotations

import argparse
import json
import os
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

from spec import SIZES


def _canonical(x: int, y: int, z: int) -> tuple[int, int, int]:
    """gcd 1, first nonzero coordinate positive (orchard's point order)."""
    g = gcd(x, y, z)
    if (x or y or z) < 0:
        g = -g
    return (x // g, y // g, z // g)


def sparse_points(seed: int, n: int) -> list[tuple[Fraction, Fraction]]:
    rng = random.Random(seed)
    pts: set[tuple[Fraction, Fraction]] = set()
    while len(pts) < n:
        pts.add((Fraction(rng.randint(-999, 999), rng.randint(1, 60)),
                 Fraction(rng.randint(-999, 999), rng.randint(1, 60))))
    return sorted(pts, key=lambda p: _affine_h(*p))


def _affine_h(x: Fraction, y: Fraction) -> tuple[int, int, int]:
    return _canonical(x.numerator * y.denominator,
                      y.numerator * x.denominator,
                      x.denominator * y.denominator)


def lines_with_at_least(hs: list[tuple[int, int, int]], k: int) -> int:
    """Lines carrying >= k of the affine points hs (k >= 3).

    Anchor i groups the later points j > i by the reduced direction of
    i -> j.  A line with m points gives its members, in index order,
    forward groups of sizes m-1, m-2, ..., 1, so exactly one member of
    each line with m >= k points has a forward group of size k-1.
    """
    count = 0
    for i, (xi, yi, zi) in enumerate(hs):
        sizes: dict[tuple[int, int], int] = {}
        for xj, yj, zj in hs[i + 1:]:
            dx = xj * zi - xi * zj
            dy = yj * zi - yi * zj
            g = gcd(dx, dy)
            if dx < 0 or (dx == 0 and dy < 0):
                g = -g
            d = (dx // g, dy // g)
            sizes[d] = sizes.get(d, 0) + 1
        count += sum(1 for s in sizes.values() if s == k - 1)
    return count


def tripartite_points(seed: int, n: int) -> tuple[list[tuple[int, int, int]],
                                                  list[int]]:
    rng = random.Random(seed)
    while True:
        m = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
               - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
               + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
        if det:
            break
    points, labels = [], []
    for row in range(3):
        for i in range(n):
            v = (i, row, 1)
            points.append(tuple(sum(m[r][c] * v[c] for c in range(3))
                                for r in range(3)))
            labels.append(row + 1)
    return points, labels


def tripartite_answer(n: int) -> int:
    """Lines meeting all three rows: pairs (x1, x3) with x1 + x3 even."""
    return ((n + 1) // 2) ** 2 + (n // 2) ** 2


def build(kind: str, seed: int, size: str) -> tuple[dict, str]:
    """The points document and the expected stdout."""
    if kind == "sparse":
        pts = sparse_points(seed, SIZES[size]["points"])
        doc = {"points": [{"x": str(x), "y": str(y)} for x, y in pts]}
        answer = lines_with_at_least([_affine_h(x, y) for x, y in pts], 3)
    elif kind == "tripartite":
        n = SIZES[size]["aps"]
        pts, labels = tripartite_points(seed, n)
        doc = {"points": [{"h": [str(v) for v in h]} for h in pts],
               "labels": labels}
        answer = tripartite_answer(n)
    else:
        raise ValueError(f"unknown input kind {kind!r}")
    return doc, f"{answer}\n"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kind", required=True, choices=["sparse", "tripartite"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    doc, expected = build(args.kind, args.seed, args.size)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # expected.txt marks a complete cache entry, so it is written last;
    # each file is renamed into place so that a reader never sees half
    for name, text in (("input.json", json.dumps(doc)),
                       ("expected.txt", expected)):
        tmp = out / f"{name}.{os.getpid()}.tmp"
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, out / name)


if __name__ == "__main__":
    main()
